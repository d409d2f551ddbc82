"""Bounded decision procedures by exhaustive enumeration of finite models:
validity and satisfiability up to size bounds, countermodel extraction,
and the empirical axiom-validity matrix across coherence modes.

Candidate order -- the contract behind "first countermodel" and behind
identical output at every worker count:

* Worlds are named w0..w{n-1}.  World counts run 1..max_worlds, smallest
  first (outermost loop).
* Without a user poset, shapes on exactly `max_indices` indices are tried
  in a fixed order: one index -> the single level ``a``; two indices ->
  the antichain ``a b`` and then the chain ``a <= b``.  Shapes for three
  or more indices are not enumerated; supply a poset instead.
* Within one (world count, poset) block a candidate is a single integer.
  Reading from the least significant bits: first the valuation (one bit
  per (atom, world) pair, atoms sorted, atom-major), then one n*n-bit
  relation mask per index with the *first* declared index in the most
  significant position.  Relation bit i*n + j stands for the world pair
  (w_i, w_j).  Candidates are ordered as integers, so relations vary
  lexicographically in index declaration order with valuations varying
  fastest.
* Candidates whose frame fails validate_frame under the active policy are
  never generated, and the rest keep their raw positions: a block lists
  its admissible candidates directly, slab by slab in increasing order.
  The reported countermodel is the enumeration-order minimum of the
  admissible candidates.

One scan path.  Every verdict comes from _decide: decide_valid (and
through it decide_sat) calls it once, and so does each axiom_matrix row.
It takes the query compiled once to a core.Program, whose atoms and
indices size and check the blocks.  It adds up the blocks' raw sizes in
candidate order and raises BoundsTooLarge at the first block past the
ceiling, before any block is built or scanned.  It then builds only the
blocks that the scan order below reaches, scans each in slabs of at most
_SLAB admissible candidates in increasing order, in one thread, and
re-checks the hit on the same program, so a query is compiled once
whatever its verdict.  The `workers` argument is kept for compatibility
and does not change the scan.  axiom_matrix takes each schema instance
and its program from _instance, built and compiled once per process:
an LRU of 256 entries keyed by (schema, alpha, beta).  The matrix
benchmark workload and the 4-world matrix use 13 keys, one profile at
two indices 10 and a 5-index chain 55; 256 hold every instance over a
chain of up to 11 indices.  Each call keeps one dict of verdicts per
mode, keyed by the instance formula and the poset it scans, so equal
instances (A4 and DDOWN at a reflexive pair) share one scan, and so
does an instance that recurs under a mode.

Scan order.  The order blocks are scanned in is not the candidate order.
A countermodel on n' worlds extends to one on any n > n': add worlds
that see only themselves under every index, true at no atom.  The old
worlds see none of them, so every formula keeps its truth value there
(a disjoint union; Blackburn, de Rijke and Venema, Modal Logic, 2001,
section 2.1); and coherence and stable reflexivity constrain each world
pair on its own, which the new pairs meet: every index holds each new
diagonal pair and no other.  So when no block at max_worlds hits, no
block does.  _decide therefore probes the projections (below) of the
blocks at max_worlds first, in poset order, up to the first that hits,
and returns ValidUpTo when none does: a ValidUpTo verdict scans one
projected block per poset.  Otherwise one loop takes, in candidate
order, the blocks on fewer worlds and then the block whose projection
hit, and scans each in full up to the first hit.  A block equal to its
projection (one that dropped no index and pinned nothing that only the
probe pins; Pinning, below) is not scanned again: the probe's hit is
its least.  The first hit is the enumeration-order minimum: each block
at max_worlds before that one missed its projection, so it misses in
full too.

Projection.  A formula's truth depends only on the relations of the
indices its modalities name; the other levels matter only through the
coherence and stable-reflexivity constraints they put on those.  The
probe therefore scans a block over the relations of the named indices
alone (none at all for a propositional formula), with the
inclusions and the propagated stable diagonal still taken from the
whole poset.  Every admissible projected tuple extends to an admissible
full one, so the projection hits exactly when the full block does and a
ValidUpTo verdict is exact.  A dropped index may sit in the high bits,
so a projected hit is not the enumeration-order minimum: projections
serve the probe only, and the minimum is looked for in full blocks.
The search ceiling counts raw candidates of the full blocks, admissible
or not, and is the one bound on a block's size: the scan's Python ints
need no limit on candidate bits.

Pinning.  One pass over the compiled steps from the root (_signs) gives
each index and atom of the formula the signs of its occurrences: `~`
and an implication's antecedent flip the sign, a box gives its index
the flipped sign of the box and a diamond its own, a modal operand keeps
the sign, and a step shared by several parents collects all of theirs.
The formula's truth is monotone in each coordinate of one sign: a
falsifying candidate stays one when an index of positive sign only
loses pairs, one of negative sign only gains pairs, an atom of positive
sign only (or absent from the formula) holds at fewer worlds and one of
negative sign only at more.  This is the minimal-valuation argument
behind Sahlqvist correspondence (Blackburn, de Rijke and Venema, Modal
Logic, 2001, chapter 3), with the pure-literal rule of Davis and Putnam
(JACM 1960) as its propositional case.  _pins turns the signs into pins
of the blocks.  Every scan pins each index of positive sign only to
its least relation given the other kept indices, at each world pair the
OR of the kept relations inside it plus the diagonal when the layout
forces it, and each atom of positive sign only, or absent, to no world.  Both
pins only clear bits: clearing them in a block's least hit leaves a
falsifying admissible candidate no larger, so the least hit has them.
The probe also pins each index of negative sign only to its greatest
relation, the AND of the kept relations around it (every pair when none
is), and each atom of negative sign only to every world.  It still hits
exactly when its block does: from any countermodel, move each pinned
coordinate to its extreme given the others, again and again; the
falling ones only fall and the rising ones only rise, and each move
keeps the frame admissible and the formula false at the same world, so
the moves end inside the pinned set.  Those two pins can set bits, so a
probe hit that used one is not taken as the block's least.  _layout and
_split apply the pins cell by cell: a pinned valuation bit is a
one-digit cell, and a pinned index has a kind, _LEAST or _GREATEST,
that _split reads against the layout's own inclusion masks: the index
keeps only the patterns of its cells in which it shows its extreme.
Pins apply to a query only when its probe at max_worlds spans more
than one slab of raw candidates, when 1 << (n*n*len(indices) +
n*len(atoms)) exceeds _SLAB at n = max_worlds: below that the kernel
is not what a query costs.  Without the gate the
sweep benchmark's ops took 0.46-0.59 ms instead of 0.35-0.50 (4 of 4
alternating runs), and its 37 layouts overflowed _first_slab.  A block
that pins nothing has the layout it would have without pins.

Stable sets.  Stability never influences evaluation, and enforcing
stable reflexivity only shrinks a block's admissible relation space, so
scanning a poset with stable set S yields the same verdict and the same
first witness as scanning it with S and then with every larger stable
set: at each world count the block for S comes first, and its
admissible candidates include theirs.  decide_valid and decide_sat
therefore enumerate machine-generated posets with the empty stable set
only.  The reflection schema A3 is the law of a stable level, so an
axiom_matrix row of A3 at alpha scans its poset with {alpha} as the
stable set, whatever the reflexivity policy says; by the same argument
that covers every stable set containing alpha.

Scanning is bitsliced over Python ints.  Coherence and stable
reflexivity constrain each relation bit position (world pair) on its
own, and nothing constrains the valuation, so a block's admissible
candidates are a product of independent cells: one per valuation bit,
and one per position and group of linked indices, of the bits those
indices may show there.  A slab fixes the candidate's top bits and holds
the rest of that product, one candidate per lane.  Each candidate bit is
a periodic column over the lanes, built once per pattern and repeated
bytewise.  A subformula's value is a tuple of n ints of lanes, one per
world, whose `&`, `|` and `^` act world by world, so the formula's
bit-set program (core.Program) runs on it unchanged; a diamond costs one
AND per column present, at most n*n.  The first slab that hits holds the
block's least hit, which a walk over the candidate bits from the top
picks out of the slab's hits.  A hit is rebuilt as a plain
StratifiedModel and re-checked by semantics.validate_frame and by the
scalar evaluator (semantics._masks, which runs the query's program over
world masks) before it is reported.  The re-check shares only the
compiled program with the scan, none of its layouts, slabs, columns or
_Worlds, so every emitted witness has already survived the independent
scalar evaluator.

Scan plans.  A block's slabs and their columns depend only on its
layout (_Layout) and on two caps, at most _SLAB lanes per slab and
_PATTERNS digits per cell.  The layout is the world count, the valuation
bits and, for each kept index, the inclusions, cell group and forced
diagonal the policy gives it, and the block's pins; index names, atom
names and the formula are not part of it.  _first_hit is the one
reader of the caps that builds slabs: it passes them to _first_slab and
_split, which take them as arguments (_decide reads _SLAB only to gate
pinning).  It scans the first slab from _first_slab, and walks the
later slabs of _split only when that one misses.  A slab is a list of
digit lists, one per cell, in one fixed order: the one-bit valuation
cells lowest first, then the relation cells by position and group, as
_split builds them.  _split hands each slab over with its
lane count, the product of the lists' lengths.  The order decides
neither which candidates a slab holds nor its least hit.  The layout of
a block scanned before is memoized in _layout, an LRU of 1,024 entries
keyed by the block and the policy: with seed 1, one pass of the sweep
and the matrix workloads' ops leaves 56 and 104 layouts, both in one
process 158, and a second pass misses none.  _first_slab, an LRU of 32
entries keyed by the layout and the two caps, holds the (lanes, columns)
plan of the first slab of the layouts scanned most recently.  So the
first slab's columns of a layout are built once while it is held,
however many queries and axiom_matrix rows share it: a block that fits
one slab, or whose first slab hits, builds none once warm.  The traffic
is small: the sweep and the matrix benchmark workloads scan 23 and 16
distinct layouts (0.45 and 0.10 MB of first-slab plans), pins included,
so each fits the cache; both in one process need 36, 4 more than it
holds.  Over 1,305 shapes (1-8 indices as an antichain, a chain or a
star, 1-4 worlds, 0-5 atoms, every coherence mode) the largest first
slab takes 0.28 MB with no stable index and 0.43 MB with every index
stable, so 32 plans of those shapes take at most about 14 MB.

Every slab's columns are merged from _digit_columns, an LRU of 256
entries keyed by one digit list, its stride and the slab's width, so a
slab reads the columns that any slab, block or query with the same list
built.  The sweep and matrix workloads use 120 and 56 keys (0.34 and
0.08 MB), 131 together; one 4-world chain query with both signs on both
indices uses 581.  An entry
holds one column of at most _SLAB bits (8 KiB) per bit its list sets,
one per index of a cell's group, so 256 entries take at most 2 MiB per
index of the largest group.  Plans and columns are functions of their
keys and are only read, so no verdict or witness depends on what the
caches hold.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from operator import and_, or_, xor
from typing import NamedTuple

from .core import (
    Atom,
    AxiomProfile,
    Box,
    CoherenceMode,
    Diamond,
    Formula,
    Implies,
    IndexPoset,
    Not,
    Program,
    StratifiedModel,
    _require_identifier,
)
from .errors import BoundsTooLarge, UndeclaredIdentifier
from .proofs import PROFILE_SCHEMAS, SCHEMAS
from .semantics import FramePolicy, _inclusion, _masks, validate_frame

__all__ = [
    "Counterexample",
    "MatrixRow",
    "SCHEMA_ORDER",
    "Satisfiable",
    "SearchBounds",
    "UnsatUpTo",
    "ValidUpTo",
    "Verdict",
    "axiom_matrix",
    "decide_sat",
    "decide_valid",
    "enumerated_posets",
    "schema_instance",
]

DEFAULT_CEILING = 10**9
_SLAB = 1 << 16  # lanes per slab, at most
_PATTERNS = 1 << 10  # digits of one cell in a slab, at most
_LEAST, _GREATEST = 1, 2  # the pin kinds of an index


@dataclass(frozen=True)
class SearchBounds:
    """Size limits for the bounded search.

    With `poset` set, the search runs over exactly that poset (its stable
    set included); otherwise poset shapes on `max_indices` levels are
    enumerated.  `atoms` defaults to the query formula's own atoms; when
    given it must cover them.
    """

    max_worlds: int
    max_indices: int
    poset: IndexPoset | None = None
    atoms: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("max_worlds", "max_indices"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.max_worlds < 1 or self.max_indices < 1:
            raise ValueError("bounds must allow at least one world and one index")
        if isinstance(self.atoms, str):
            raise TypeError(f"atoms must be a collection of names, got {self.atoms!r}")
        if self.atoms is not None:
            for name in self.atoms:
                _require_identifier(name, "atom")
            object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))


@dataclass(frozen=True)
class ValidUpTo:
    """No countermodel exists within the bounds."""

    bounds: SearchBounds


@dataclass(frozen=True)
class Counterexample:
    """A model, world and ambient index falsifying the formula."""

    model: StratifiedModel
    world: str
    index: str


@dataclass(frozen=True)
class Satisfiable:
    """A model, world and ambient index satisfying the formula."""

    model: StratifiedModel
    world: str
    index: str


@dataclass(frozen=True)
class UnsatUpTo:
    """No satisfying model exists within the bounds."""

    bounds: SearchBounds


Verdict = ValidUpTo | Counterexample | Satisfiable | UnsatUpTo


def enumerated_posets(max_indices: int) -> tuple[IndexPoset, ...]:
    """The machine-generated poset shapes, in scan order."""
    if max_indices == 1:
        return (IndexPoset.from_order(("a",)),)
    if max_indices == 2:
        return (
            IndexPoset.from_order(("a", "b")),
            IndexPoset.from_order(("a", "b"), [("a", "b")]),
        )
    raise BoundsTooLarge(
        "poset enumeration is defined for at most 2 indices; pass bounds.poset "
        "for larger index sets"
    )


class _Block(NamedTuple):
    """One (poset, world count) block of the candidate space.  A projection
    leaves out the relations of the `dropped` indices: its tuples hold
    the masks of the kept indices only.  Sizes count the full block.  The
    other four fields pin coordinates, as "Pinning" in the module
    docstring says: the kept indices in `least` take their least
    admissible relation given the other kept ones and those in `greatest`
    their greatest; the atoms in `nowhere` hold at no world and those in
    `everywhere` at every world."""

    poset: IndexPoset
    n: int
    atoms: tuple[str, ...]
    dropped: frozenset[str] = frozenset()
    least: frozenset[str] = frozenset()
    greatest: frozenset[str] = frozenset()
    nowhere: frozenset[str] = frozenset()
    everywhere: frozenset[str] = frozenset()

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(idx for idx in self.poset.indices if idx not in self.dropped)

    @property
    def rel_bits(self) -> int:
        return self.n * self.n

    @property
    def val_bits(self) -> int:
        return self.n * len(self.atoms)


def _decode(block: _Block, candidate: int) -> StratifiedModel:
    """Rebuild the StratifiedModel a candidate integer stands for."""
    n = block.n
    worlds = tuple(f"w{i}" for i in range(n))
    value = candidate
    val = value & ((1 << block.val_bits) - 1)
    value >>= block.val_bits
    relations: dict[str, frozenset[tuple[str, str]]] = {}
    for idx in reversed(block.poset.indices):
        mask = value & ((1 << block.rel_bits) - 1)
        value >>= block.rel_bits
        relations[idx] = frozenset(
            (worlds[i], worlds[j])
            for i in range(n)
            for j in range(n)
            if mask >> (i * n + j) & 1
        )
    valuation = {
        atom: frozenset(worlds[w] for w in range(n) if val >> (ai * n + w) & 1)
        for ai, atom in enumerate(block.atoms)
    }
    return StratifiedModel(block.poset, worlds, relations, valuation)


class _Layout(NamedTuple):
    """What a block's admissible candidates, and so its slabs and their
    columns, depend on: the world count, the valuation bits and, for each
    kept index j, its within[j] / beyond[j] masks (every kept index whose
    relation the policy puts within / around j's, as bits of a pattern
    shifted to p = 0), its cell group and whether its diagonal is forced.
    Index names, atom names and the formula are not part of it, so blocks
    that differ only in those share one layout.

    The pins come last: the valuation bits pinned to 0 (`zero`) and to 1
    (`one`), and each kept index's pin kind, _LEAST when it takes its
    least relation, _GREATEST when it takes its greatest and 0 when it is
    not pinned.  A block that pins nothing has the layout it would have
    without pins."""

    n: int
    val_bits: int
    within: tuple[int, ...]
    beyond: tuple[int, ...]
    cell: tuple[int, ...]
    reflexive: tuple[bool, ...]
    zero: int
    one: int
    pins: tuple[int, ...]


@lru_cache(maxsize=1024)
def _layout(block: _Block, policy: FramePolicy) -> _Layout:
    """The block's layout under the policy.

    The inclusions (closed under transitivity) and the reflexive levels
    come from the whole poset, so a projection lists exactly the
    restrictions of the full admissible candidates: a dropped index can
    take the union of the kept relations that must sit inside it, plus
    the diagonal when it is reflexive.  Memoized, so a block scanned
    before builds no layout.  Why 1,024 entries: with seed 1, one pass of
    the sweep and the matrix benchmark workloads' ops leaves 56 and 104
    layouts, and 158 when both run in one process; a second pass misses
    none.
    """
    poset, kept = block.poset, block.kept
    k = len(kept)
    ipos = {idx: i for i, idx in enumerate(kept)}
    # A stable level's diagonal spreads along the inclusions.
    stable = poset.stable if policy.require_stable_reflexive else frozenset()
    reflexive = set(stable)
    within, beyond = [0] * k, [0] * k  # every kept index inside / around j
    group = list(range(k))  # a label per kept index, shared by linked ones
    if policy.coherence is not CoherenceMode.NONE:
        for low, high in poset.strict_pairs():
            sub, sup = _inclusion(policy, low, high)  # R_sub lies within R_sup
            if sub in stable:
                reflexive.add(sup)
            if sub not in ipos or sup not in ipos:
                continue
            within[ipos[sup]] |= 1 << ((k - 1 - ipos[sub]) * block.rel_bits)
            beyond[ipos[sub]] |= 1 << ((k - 1 - ipos[sup]) * block.rel_bits)
            i, j = sorted((ipos[sub], ipos[sup]))
            group = [group[i] if g == group[j] else g for g in group]
    labels = sorted(set(group))
    worlds = (1 << block.n) - 1

    def valuation(pinned: frozenset[str]) -> int:
        return sum(worlds << (a * block.n) for a, atom in enumerate(block.atoms) if atom in pinned)

    return _Layout(
        block.n,
        block.val_bits,
        tuple(within),
        tuple(beyond),
        tuple(labels.index(g) for g in group),
        tuple(idx in reflexive for idx in kept),
        valuation(block.nowhere),
        valuation(block.everywhere),
        tuple(
            _LEAST if idx in block.least else _GREATEST if idx in block.greatest else 0
            for idx in kept
        ),
    )


def _split(
    layout: _Layout, slab: int, patterns: int
) -> Iterator[tuple[int, int, list[list[int]]]]:
    """The layout's frame-admissible candidates, in slabs of at most
    `slab` lanes, in increasing order: every candidate of a slab is below
    every candidate of the next.  Each slab comes with the number of top
    bits it fixes, which is 0 only when it is the whole block, and with
    its lane count.

    A slab is a list of digit lists, one per cell.  The cells are the
    valuation bits, lowest first, and then the relation cells: a relation
    bit position p (pair (w_i, w_j) at p = i*n + j) and a group of kept
    indices that inclusions link, listed by position and then by group.
    Its lanes are the sums of one digit from each list, the first list
    varying fastest, so its lane count is the product of the lists'
    lengths; which candidates a slab holds, and so its least hit, does
    not depend on the order of the lists.  A valuation bit's digits are 0
    and the bit, or the one value the slab fixes.  A relation cell's
    digits are the patterns its indices may show at p: each is the sum
    of the candidate bits that are set.  Coherence and stable
    reflexivity constrain each position on its own, unlinked indices not
    at all and the valuation not at all, so the admissible candidates
    are exactly this product.

    A slab fixes the top bits of the candidate, as many as it takes to
    bring it down to `slab` lanes and each cell to `patterns` digits
    (kept[0]'s bits, from the top position down, first).  Fixing a bit
    narrows its cell's digits.  Slabs are listed depth first, 0 before
    1, so in increasing order of the fixed bits; with every relation bit
    fixed, a slab is one relation tuple crossed with a run of valuations.

    Given the bits of the earlier kept indices at p, index j's bit there
    is forced to 1 when one of them sits inside it (or p is on the
    diagonal and j is reflexive) and to 0 when one around it is 0; so
    every admissible prefix extends.  The forced bit reads within[j]
    whole, as the bits of later members are still 0 in a partial
    pattern; the allowed bit reads beyond[j] cut to the earlier members.
    Once a cell's pattern is whole, a pinned index keeps it only where
    it shows its extreme given the others: a _LEAST index is set exactly
    where an index within it or a forced diagonal is, a _GREATEST one
    exactly where every index around it is.
    """
    n, val_bits = layout.n, layout.val_bits
    within, beyond, cell_of, pins = layout.within, layout.beyond, layout.cell, layout.pins
    rel_bits = n * n
    k = len(cell_of)
    # The earlier kept indices around j: its allowed bit reads these.
    around = [mask & -(1 << ((k - j) * rel_bits)) for j, mask in enumerate(beyond)]
    # Unlinked indices are independent: each group of linked ones has its
    # own cell at every position.
    members = [[j for j in range(k) if cell_of[j] == g] for g in range(len(set(cell_of)))]
    cells = [(p, m) for p in range(rel_bits) for m in members]
    pinned_bits = layout.zero | layout.one
    pinned = [[j for j in m if pins[j]] for m in members]
    cell_bits = [1 << b for b in range(val_bits)] + [
        sum(1 << (val_bits + (k - 1 - j) * rel_bits + p) for j in m) for p, m in cells
    ]
    # The cell of each candidate bit, lowest first.
    owner = [*range(val_bits)] + [
        val_bits + p * len(members) + g for g in reversed(cell_of) for p in range(rel_bits)
    ]

    def cell_patterns(c: int, fixed: int, value: int) -> list[int] | None:
        """Cell c's digits that agree with `value` on the `fixed` bits
        (a prefix of its indices), or None when they may be more than
        `patterns`: the unfixed bits alone could take more values."""
        if c < val_bits:
            if cell_bits[c] & pinned_bits:
                pin = cell_bits[c] & layout.one
                return [pin] if not fixed or value == pin else []
            return [value] if fixed else [0, cell_bits[c]]
        p, group_members = cells[c - val_bits]
        shift = val_bits + p
        found = [0]
        for place, j in enumerate(group_members):
            bit = 1 << (shift + (k - 1 - j) * rel_bits)
            if found and not fixed & bit and 1 << (len(group_members) - place) > patterns:
                return None
            choices = (value & bit,) if fixed & bit else (0, bit)
            diagonal = p % (n + 1) == 0 and layout.reflexive[j]
            grown = []
            for pattern in found:
                at_p = pattern >> shift
                must = diagonal or at_p & within[j]
                may = at_p & around[j] == around[j]
                grown += [
                    pattern | one for one in choices if (one or not must) and (may or not one)
                ]
            found = grown
        for j in pinned[(c - val_bits) % len(members)]:
            bit = 1 << ((k - 1 - j) * rel_bits)
            diagonal = p % (n + 1) == 0 and layout.reflexive[j]
            extremes = []
            for pattern in found:
                at_p = pattern >> shift
                if pins[j] == _LEAST:
                    extreme = diagonal or at_p & within[j] != 0
                else:
                    extreme = at_p & beyond[j] == beyond[j]
                if (at_p & bit != 0) == extreme:
                    extremes.append(pattern)
            found = extremes
        return found

    # (number of fixed top bits, their values, each cell's digits)
    stack = [(0, 0, [cell_patterns(c, 0, 0) for c in range(len(cell_bits))])]
    while stack:
        depth, value, digits = stack.pop()
        lanes = 1
        for found in digits:  # None stands for more than `patterns` digits
            lanes *= len(found) if found else slab + 1
        if lanes <= slab:
            yield depth, lanes, digits
            continue
        # Fixing the top free bit narrows its cell's digits; a child with
        # none left holds no candidate.
        bit = 1 << (len(owner) - 1 - depth)
        c = owner[-1 - depth]
        for child in (value | bit, value):
            found = cell_patterns(c, cell_bits[c] & ~(bit - 1), child & cell_bits[c])
            if found != []:
                stack.append((depth + 1, child, digits[:c] + [found] + digits[c + 1 :]))


def _set_bits(x: int) -> Iterator[int]:
    """The positions of x's set bits, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _periodic(period: int, length: int, size: int) -> int:
    """`size` bits of the `length`-bit `period` repeated from bit 0."""
    if length >= size:
        return period & ((1 << size) - 1)
    while length % 8:
        period |= period << length
        length *= 2
    data = period.to_bytes(length // 8, "little") * -(-size // length)
    return int.from_bytes(data, "little") & ((1 << size) - 1)


@lru_cache(maxsize=256)
def _digit_columns(stride: int, options: tuple[int, ...], lanes: int) -> dict[int, int]:
    """The column of each bit that a digit list sets, over `lanes` lanes:
    lane l takes digit l // stride mod len(options), so the column has
    period stride * len(options) and is built once and repeated bytewise.
    The dicts are only read.  Why 256 entries: one 4-world chain query
    that pinning leaves whole (`([a]p -> [b]p) | ([b]p -> [a]p)` under
    shrink, 2 vCPUs, Python 3.11.7, two runs each) takes 5.6-5.8 s of CPU
    with 32, 2.4-2.6 s with 128, 2.2 s with 256 and 2.0 s with 1024
    entries, at a peak RSS of 16.8, 17.5, 19.0 and 22.2 MB."""
    union = 0
    for option in options:
        union |= option
    run = (1 << stride) - 1
    columns = {}
    for b in _set_bits(union):
        period = sum(run << (d * stride) for d, option in enumerate(options) if option >> b & 1)
        columns[b] = _periodic(period, stride * len(options), lanes)
    return columns


def _columns(digits: list[list[int]], lanes: int) -> dict[int, int]:
    """The column of each candidate bit in a slab of `lanes` lanes: the
    lanes where it is set, lane l as bit l of an int.  A digit list with
    stride s (the product of the earlier lists' lengths) takes its
    columns from _digit_columns; a list of one digit sets its bits in
    every lane."""
    every_lane = (1 << lanes) - 1
    columns: dict[int, int] = {}
    stride = 1
    for options in digits:
        if len(options) == 1:
            for b in _set_bits(options[0]):
                columns[b] = every_lane
            continue
        columns.update(_digit_columns(stride, tuple(options), lanes))
        stride *= len(options)
    return columns


class _Worlds(tuple):
    """A subformula's value in a slab: one int of the slab's lanes per
    world.  `&`, `|` and `^` act world by world, so core.Program runs on
    it unchanged."""

    __slots__ = ()

    def __and__(self, other: _Worlds) -> _Worlds:
        return _Worlds(map(and_, self, other))

    def __or__(self, other: _Worlds) -> _Worlds:
        return _Worlds(map(or_, self, other))

    def __xor__(self, other: _Worlds) -> _Worlds:
        return _Worlds(map(xor, self, other))


def _scan_slab(
    block: _Block, program: Program, lanes: int, columns: dict[int, int]
) -> int | None:
    """Least candidate of the slab that falsifies the formula at some
    world, or None.

    A subformula's value is a _Worlds, world w's int holding bit l when
    the subformula is true at w in lane l, and `<i>x` at world w is the
    OR over u of x's int for u AND column (i, w*n+u); a column that is
    absent is 0 and is skipped.  The least hit is found by walking the
    candidate bits from the top and keeping, at each, the hits that have
    a 0 there whenever any do.
    """
    n, rel_bits, val_bits = block.n, block.rel_bits, block.val_bits
    kept = block.kept
    full = _Worlds([(1 << lanes) - 1] * n)
    first = {idx: val_bits + (len(kept) - 1 - j) * rel_bits for j, idx in enumerate(kept)}

    def atom(name: str) -> _Worlds:
        base = block.atoms.index(name) * n
        return _Worlds([columns.get(base + w, 0) for w in range(n)])

    def diamond(index: str, x: _Worlds) -> _Worlds:
        value = []
        for row in range(first[index], first[index] + rel_bits, n):
            seen = 0
            for u, part in enumerate(x):
                column = columns.get(row + u)
                if column is not None:
                    seen |= part & column
            value.append(seen)
        return _Worlds(value)

    hits = 0
    for part in full ^ program.run(full, atom, diamond)[-1]:
        hits |= part
    if not hits:
        return None
    candidate = 0
    for b in reversed(range(len(kept) * rel_bits + val_bits)):
        column = columns.get(b, 0)
        if hits & ~column:
            hits &= ~column
        else:
            hits &= column
            candidate |= 1 << b
    return candidate


@lru_cache(maxsize=32)
def _first_slab(layout: _Layout, slab: int, patterns: int) -> tuple[int, dict[int, int], bool]:
    """The (lanes, columns, more) plan of the layout's first slab under
    the caps `slab` and `patterns`, which it passes on to _split: more is
    False when the slab is the whole block, and True when the slab fixes
    top bits, so _first_hit walks the later slabs only then.  The caps are
    arguments, which _first_hit reads, so they key the cache with the
    layout.  A plan is a function of its key and is only read, so what the
    cache holds changes no verdict."""
    depth, lanes, digits = next(_split(layout, slab, patterns))
    return lanes, _columns(digits, lanes), depth > 0


def _first_hit(block: _Block, program: Program, policy: FramePolicy) -> int | None:
    """Least falsifying candidate of the block, or None.  This is the one
    reader of the caps _SLAB and _PATTERNS that builds slabs.  The first
    slab's plan comes from _first_slab, so it is built once per layout
    while the cache holds it.  Only when that slab misses and the block
    has more are the later slabs of _split walked, in increasing order,
    each merged from _digit_columns as it is scanned: the first that
    hits holds the least hit."""
    layout = _layout(block, policy)
    lanes, columns, more = _first_slab(layout, _SLAB, _PATTERNS)
    hit = _scan_slab(block, program, lanes, columns)
    if hit is None and more:
        for _depth, lanes, digits in islice(_split(layout, _SLAB, _PATTERNS), 1, None):
            hit = _scan_slab(block, program, lanes, _columns(digits, lanes))
            if hit is not None:
                break
    return hit


def _resolve_atoms(program: Program, bounds: SearchBounds) -> tuple[str, ...]:
    if bounds.atoms is None:
        return program.atoms
    missing = set(program.atoms) - set(bounds.atoms)
    if missing:
        raise ValueError(f"bounds.atoms is missing formula atoms: {sorted(missing)}")
    return bounds.atoms


def _posets(bounds: SearchBounds) -> tuple[IndexPoset, ...]:
    """The posets the search runs over: bounds.poset, or the enumerated
    shapes on bounds.max_indices indices."""
    if bounds.poset is not None:
        return (bounds.poset,)
    return enumerated_posets(bounds.max_indices)


def _check_indices(program: Program, posets: tuple[IndexPoset, ...]) -> None:
    for name in program.indices:
        for poset in posets:
            if name not in poset.indices:
                raise UndeclaredIdentifier(
                    f"formula index {name!r} is outside the searched index set "
                    f"{list(poset.indices)}"
                )


_POSITIVE, _NEGATIVE = 1, 2
_FLIPPED = (0, _NEGATIVE, _POSITIVE, _POSITIVE | _NEGATIVE)  # by sign


def _signs(program: Program) -> tuple[dict[str, int], dict[str, int]]:
    """The sign of each atom and each index of the program's one
    formula, as a mask of _POSITIVE and _NEGATIVE: the signs of its
    occurrences.  One pass from the root down the steps, which list
    children before parents, so every step lies under the root and has
    its sign before the pass reads it: `~`, an implication's antecedent
    and the index of a box flip the sign, and a step reached on several
    paths collects each one's sign."""
    steps = program.steps
    signs = [0] * len(steps)
    signs[program.roots[-1]] = _POSITIVE
    atoms: dict[str, int] = {}
    indices: dict[str, int] = {}
    for pos in range(program.roots[-1], -1, -1):
        sign = signs[pos]
        step = steps[pos]
        kind = step[0]
        if kind is Atom:
            atoms[step[1]] = atoms.get(step[1], 0) | sign
            continue
        if kind is Diamond:
            indices[step[1]] = indices.get(step[1], 0) | sign
        elif kind is Box:
            indices[step[1]] = indices.get(step[1], 0) | _FLIPPED[sign]
        elif kind is Not:
            sign = _FLIPPED[sign]
        elif kind is Implies:
            signs[step[2]] |= _FLIPPED[sign]
            signs[step[3]] |= sign
            continue
        else:  # And, Or
            signs[step[3]] |= sign
        signs[step[2]] |= sign
    return atoms, indices


def _pins(
    program: Program, atoms: tuple[str, ...]
) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
    """The pins of every scan of the program's blocks over `atoms`, and
    those of the probe, as _Block fields.  Every scan pins the indices of
    positive sign only to their least relation and the atoms of positive
    sign only, or of none, to no world.  The probe also pins the indices
    of negative sign only to their greatest relation and the atoms of
    negative sign only to every world."""
    atom_signs, index_signs = _signs(program)
    pins = {
        "least": frozenset(i for i, sign in index_signs.items() if sign == _POSITIVE),
        "nowhere": frozenset(a for a in atoms if atom_signs.get(a, _POSITIVE) == _POSITIVE),
    }
    probe = {
        **pins,
        "greatest": frozenset(i for i, sign in index_signs.items() if sign == _NEGATIVE),
        "everywhere": frozenset(a for a, sign in atom_signs.items() if sign == _NEGATIVE),
    }
    return pins, probe


def _decide(
    program: Program,
    posets: tuple[IndexPoset, ...],
    bounds: SearchBounds,
    policy: FramePolicy,
    ceiling: int,
) -> Counterexample | ValidUpTo:
    """The enumeration-order-first countermodel to the program's formula
    over the posets' blocks up to bounds.max_worlds, re-checked by the
    scalar evaluator, or ValidUpTo(bounds) when they hold none.  Blocks
    are probed and scanned as "Scan order" in the module docstring says.
    """
    atoms = _resolve_atoms(program, bounds)
    _check_indices(program, posets)
    # The ceiling counts the raw candidates of every block in candidate
    # order, so a query past it raises before any block is built.
    total = 0
    for n in range(1, bounds.max_worlds + 1):
        for poset in posets:
            total += 1 << (n * n * len(poset.indices) + n * len(atoms))
            if total > ceiling:
                raise BoundsTooLarge(
                    f"search space up to {n} worlds exceeds the ceiling of {ceiling} "
                    "candidates"
                )
    used = frozenset(program.indices)
    top = bounds.max_worlds
    pins = probe_pins = {}
    if 1 << (top * top * len(used) + top * len(atoms)) > _SLAB:
        # The probe spans more than one slab: pin what the signs decide.
        pins, probe_pins = _pins(program, atoms)
    for poset in posets:
        # The formula reads only the relations of the indices it names,
        # so the projection onto them hits exactly when the block does.
        projection = _Block(poset, top, atoms, frozenset(poset.indices) - used, **probe_pins)
        probe = _first_hit(projection, program, policy)
        if probe is not None:
            break
    else:
        return ValidUpTo(bounds)
    # Candidate order: the blocks on fewer worlds, then the block whose
    # projection hit; a projection equal to its block holds its least hit.
    order = [(p, n) for n in range(1, top) for p in posets] + [(poset, top)]
    for block in (_Block(p, n, atoms, **pins) for p, n in order):
        hit = probe if block == projection else _first_hit(block, program, policy)
        if hit is not None:
            break
    else:
        raise RuntimeError("scan of a block missed the hit of its projection")
    model = _decode(block, hit)
    if validate_frame(model, policy):
        raise RuntimeError("scan reported a model that fails frame validation")
    holds = _masks(model, program)[-1]
    for i, world in enumerate(model.worlds):
        if not holds >> i & 1:
            return Counterexample(model, world, model.poset.indices[0])
    raise RuntimeError("scan reported a model the scalar evaluator cannot falsify")


def decide_valid(
    formula: Formula,
    bounds: SearchBounds,
    policy: FramePolicy = FramePolicy(),
    *,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> Verdict:
    """Exhaustively test `formula` on every model within `bounds` whose
    frame passes `policy`, at every world (the ambient index is
    universally quantified too, but cannot change a verdict).

    Returns ValidUpTo, or the enumeration-order-first Counterexample.
    Deterministic: identical inputs give identical verdicts and identical
    countermodels.  The scan is sequential; `workers` is accepted and
    does not change it.  Raises BoundsTooLarge when the raw candidate
    count exceeds `ceiling`.
    """
    return _decide(Program(formula), _posets(bounds), bounds, policy, ceiling)


def decide_sat(
    formula: Formula,
    bounds: SearchBounds,
    policy: FramePolicy = FramePolicy(),
    *,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> Verdict:
    """Bounded satisfiability as the exact dual of decide_valid: the
    verdict and witness are those of decide_valid on the negation."""
    verdict = decide_valid(
        Not(formula), bounds, policy, workers=workers, ceiling=ceiling
    )
    if isinstance(verdict, ValidUpTo):
        return UnsatUpTo(verdict.bounds)
    return Satisfiable(verdict.model, verdict.world, verdict.index)


# ---------------------------------------------------------------------------
# Axiom-validity matrix

SCHEMA_ORDER = tuple(SCHEMAS)


def schema_instance(schema: str, alpha: str, beta: str) -> Formula:
    """The concrete instance of a schema at the given indices: its shape
    in proofs.SCHEMAS with a := alpha, b := beta, P := p and Q := q.

    Schemas whose shape names only a (K, A3) ignore `beta`.  K is
    instantiated with two atoms because its one-atom instances collapse
    into tautologies that would test nothing.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    rename = {"a": alpha, "b": beta, "P": "p", "Q": "q"}
    built: list[Formula] = []
    for kind, var, *args in SCHEMAS[schema][0].steps:
        labels = [] if var is None else [rename[var]]  # a connective has no label
        built.append(kind(*labels, *[built[i] for i in args]))
    return built[-1]


@dataclass(frozen=True)
class MatrixRow:
    """One empirical matrix entry: a schema instance, the frame convention
    it was tested under, and the verdict."""

    schema: str
    mode: CoherenceMode
    poset: IndexPoset
    alpha: str
    beta: str
    formula: Formula
    require_stable_reflexive: bool
    verdict: Verdict


@lru_cache(maxsize=256)
def _instance(schema: str, alpha: str, beta: str) -> tuple[Formula, Program]:
    """The schema's instance at (alpha, beta) and its compiled program,
    built once per process while the table holds them.  Why 256 entries:
    the matrix benchmark workload and the 4-world matrix use 13 keys, one
    profile at two indices 10 and a 5-index chain 55; every instance over
    a chain of up to 11 indices fits.
    An entry is a function of its key and is only read, so no row
    depends on what the table holds."""
    formula = schema_instance(schema, alpha, beta)
    return formula, Program(formula)


def _schema_instances(schema: str, poset: IndexPoset) -> tuple[tuple[str, str], ...]:
    if SCHEMAS[schema][1] == "a<=b":
        return poset.ordered_pairs()
    return tuple((idx, idx) for idx in poset.indices)


def axiom_matrix(
    profiles,
    modes,
    bounds: SearchBounds,
    *,
    require_stable_reflexive: bool = True,
    workers: int = 1,
    ceiling: int = DEFAULT_CEILING,
) -> tuple[MatrixRow, ...]:
    """Empirically decide each modal schema of the given profiles under
    each coherence mode, instantiated at every ordered index pair of every
    searched poset (reflexive pairs included).

    Rows are built in one nested loop, so they come out in its order:
    mode, then poset, then schema in SCHEMA_ORDER, then instance indices
    in declaration order.  Each instance and its program come from
    _instance, so they are built and compiled once per process, and a
    call on a warm table builds neither.  Each row's verdict comes from
    one _decide call over one poset, whose blocks the ceiling counts: the
    searched poset, or for A3 at alpha that poset with {alpha} as its
    stable set; rows of one mode with an equal formula and scanned poset
    share that call.  A ValidUpTo verdict carries `bounds`.  Every
    countermodel carried by a row re-verifies through the scalar evaluator
    before it is returned.  The scan is sequential; `workers` is accepted
    for compatibility and does not change it.
    """
    profiles = tuple(profiles)
    if not profiles:
        raise ValueError("at least one profile is required")
    for profile in profiles:
        if not isinstance(profile, AxiomProfile):
            raise TypeError(f"not a profile: {profile!r}")
    allowed = frozenset().union(*(PROFILE_SCHEMAS[p] for p in profiles))
    schemas = [s for s in SCHEMA_ORDER if s in allowed]
    posets = _posets(bounds)
    rows: list[MatrixRow] = []
    for mode in modes:
        policy = FramePolicy(mode, require_stable_reflexive)
        verdicts: dict = {}  # (formula, poset it scans) -> verdict
        for poset in posets:
            for schema in schemas:
                for alpha, beta in _schema_instances(schema, poset):
                    formula, program = _instance(schema, alpha, beta)
                    scanned = poset
                    if SCHEMAS[schema][1] == "a stable":
                        # Reflection holds at a stable level: scan alpha
                        # stable alone, which covers every stable set
                        # holding alpha.
                        scanned = replace(poset, stable=frozenset({alpha}))
                    query = (formula, scanned)
                    if query not in verdicts:
                        verdicts[query] = _decide(program, (scanned,), bounds, policy, ceiling)
                    fields = (schema, mode, poset, alpha, beta, formula, require_stable_reflexive)
                    rows.append(MatrixRow(*fields, verdicts[query]))
    return tuple(rows)
