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

One scan path.  decide_valid (and through it decide_sat) and each
axiom_matrix row compile the query once to a core.Program, whose atoms
and indices size and check the blocks.  _blocks lists the blocks and
raises BoundsTooLarge at the first one past the ceiling, before any is
scanned; _first_counterexample scans them, each in slabs of at most
_SLAB admissible candidates in increasing order, in one thread.  The
`workers` argument is kept for compatibility and does not change the
scan.  axiom_matrix builds each schema instance and its program once per
call, and keeps one dict of verdicts per mode, keyed by the instance
formula and its poset variants, so an instance that recurs under a mode
(A4 and DDOWN at a reflexive pair) is scanned once.

Scan order.  The order blocks are scanned in is not the candidate order.
A countermodel on n' worlds extends to one on any n > n': add worlds
that see only themselves under every index, true at no atom.  The old
worlds see none of them, so every formula keeps its truth value there
(a disjoint union; Blackburn, de Rijke and Venema, Modal Logic, 2001,
section 2.1); and coherence and stable reflexivity constrain each world
pair on its own, which the new pairs meet: every index holds each new
diagonal pair and no other.  So when no block at max_worlds hits, no
block does.  _first_counterexample therefore probes the blocks at
max_worlds first, in poset order, up to the first that hits, and
returns None when none does: a ValidUpTo verdict scans one block per
poset.  Otherwise it scans the blocks in candidate order, each at most
once, taking the probed ones' results from the probe, and the first
that hits holds the enumeration-order minimum.

Projection.  A formula's truth depends only on the relations of the
indices its modalities name; the other levels matter only through the
coherence and stable-reflexivity constraints they put on those.  Each
block is therefore first scanned over the relations of the named
indices alone (none at all for a propositional formula), with the
inclusions and the propagated stable diagonal still taken from the
whole poset.  Every admissible projected tuple extends to an admissible
full one, so the projection hits exactly when the full block does and a
ValidUpTo verdict is exact.  A dropped index may sit in the high bits,
so the projected hit is not the enumeration-order minimum: the block
that hits is rescanned in full to find it.  The search ceiling and the
62-bit guard still count raw candidates of the full blocks, admissible
or not.

Stable sets.  Stability never influences evaluation, and enforcing
stable reflexivity only shrinks a block's admissible relation space, so
scanning the empty-stable block yields the same verdict and the same
first witness as additionally scanning every stable-set variant.
decide_valid and decide_sat therefore enumerate machine-generated posets
with the empty stable set only.  axiom_matrix overrides this for the
reflection schema A3, whose side condition quantifies over stable
levels: its rows range over the stable sets containing the instance
index, whatever the reflexivity policy says, since otherwise the row
would be vacuous whenever the policy stops enforcing reflexivity.

Scanning is bitsliced over Python ints.  Coherence and stable
reflexivity constrain each relation bit position (world pair) on its
own, so a block's admissible candidates are a product: every valuation,
times one choice per position of the bits its indices show there.  A
slab fixes the candidate's top bits and holds the rest of that product,
one candidate per lane.  Each candidate bit is a periodic column over
the lanes, built once per pattern and repeated bytewise; a subformula's
value is one int of n segments of lanes, one per world, so the
formula's bit-set program (core.Program) runs on plain ints and a
diamond costs n*n ANDs.  The first slab that hits holds the block's
least hit, which a walk over the candidate bits from the top picks out
of the slab's hits.  A hit is rebuilt as a plain StratifiedModel and
re-checked through semantics.satisfying_worlds and
semantics.validate_frame before it is reported, so every emitted witness
has already survived the independent scalar evaluator.

Scan plans.  A block's slabs and their columns depend only on its
layout (_Layout): the world count, the valuation bits and, for each kept
index, the inclusions, cell group and forced diagonal the policy gives
it; index names, atom names and the formula are not part of it.  The
layout of a block scanned before is memoized, and _first_slab, an LRU of
32 entries keyed by the layout, _SLAB and _PATTERNS, holds the (lanes,
columns) plan of the first slab of the layouts scanned most recently.
So the first slab's columns of a layout are built once while it is
held, however many queries and axiom_matrix rows share it: a block that
fits one slab, or whose first slab hits, builds none once warm.  The
traffic is small: the sweep and the matrix benchmark workloads each scan
10 distinct layouts, 17 when both run in one process, 0.90 MB in all.
Over 1,305 shapes (1-8 indices as an antichain, a chain or a star, 1-4
worlds, 0-5 atoms, every coherence mode) the largest first slab takes
0.28 MB with no stable index and 0.43 MB with every index stable, so
32 plans of those shapes take at most about 14 MB.  Later slabs build
their columns as they are scanned, reusing those they share with the
slab before.  A plan is a function of its key and is only read, so no
verdict or witness depends on what the cache holds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .core import (
    AxiomProfile,
    CoherenceMode,
    Formula,
    IndexPoset,
    Not,
    Program,
    StratifiedModel,
    _require_identifier,
)
from .errors import BoundsTooLarge, UndeclaredIdentifier
from .proofs import PROFILE_SCHEMAS, SCHEMAS
from .semantics import FramePolicy, satisfying_worlds, validate_frame

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
_MAX_CANDIDATE_BITS = 62  # raw candidate bits, at most


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


@dataclass(frozen=True)
class _Block:
    """One (poset, world count) block of the candidate space.  A projection
    leaves out the relations of the `dropped` indices: its tuples hold
    the masks of the kept indices only.  Sizes count the full block."""

    poset: IndexPoset
    n: int
    atoms: tuple[str, ...]
    dropped: frozenset[str] = frozenset()

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(idx for idx in self.poset.indices if idx not in self.dropped)

    @property
    def worlds(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in range(self.n))

    @property
    def rel_bits(self) -> int:
        return self.n * self.n

    @property
    def val_bits(self) -> int:
        return self.n * len(self.atoms)

    @property
    def total_bits(self) -> int:
        return self.rel_bits * len(self.poset.indices) + self.val_bits

    @property
    def size(self) -> int:
        return 1 << self.total_bits


def _blocks(
    posets: tuple[IndexPoset, ...], max_worlds: int, atoms: tuple[str, ...], ceiling: int
) -> list[_Block]:
    """The blocks in scan order.  Raises BoundsTooLarge at the first block
    that takes the raw candidate count past `ceiling` or needs more than
    _MAX_CANDIDATE_BITS bits, so no more blocks than that are built."""
    blocks: list[_Block] = []
    total = 0
    for n in range(1, max_worlds + 1):
        for poset in posets:
            block = _Block(poset, n, atoms)
            total += block.size
            if total > ceiling:
                raise BoundsTooLarge(
                    f"search space up to {n} worlds exceeds the ceiling of {ceiling} "
                    "candidates"
                )
            if block.total_bits > _MAX_CANDIDATE_BITS:
                raise BoundsTooLarge(
                    f"a block needs {block.total_bits} candidate bits; at most "
                    f"{_MAX_CANDIDATE_BITS} are supported"
                )
            blocks.append(block)
    return blocks


def _decode(block: _Block, candidate: int) -> StratifiedModel:
    """Rebuild the StratifiedModel a candidate integer stands for."""
    n = block.n
    worlds = block.worlds
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
    kept index j, its inside[j] / around[j] masks (the earlier kept
    indices whose relation the policy puts within / around j's, as bits
    of a pattern shifted to p = 0), its cell group and whether its
    diagonal is forced.  Index names, atom names and the formula are not
    part of it, so blocks that differ only in those share one layout."""

    n: int
    val_bits: int
    inside: tuple[int, ...]
    around: tuple[int, ...]
    cell: tuple[int, ...]
    reflexive: tuple[bool, ...]


@lru_cache(maxsize=1024)
def _layout(block: _Block, policy: FramePolicy) -> _Layout:
    """The block's layout under the policy.

    The inclusions (closed under transitivity) and the reflexive levels
    come from the whole poset, so a projection lists exactly the
    restrictions of the full admissible candidates: a dropped index can
    take the union of the kept relations that must sit inside it, plus
    the diagonal when it is reflexive.  Memoized, so a block scanned
    before builds no layout.
    """
    poset, kept = block.poset, block.kept
    k = len(kept)
    ipos = {idx: i for i, idx in enumerate(kept)}
    # A stable level's diagonal spreads along the inclusions.
    stable = poset.stable if policy.require_stable_reflexive else frozenset()
    reflexive = set(stable)
    inside, around = [0] * k, [0] * k
    group = list(range(k))  # a label per kept index, shared by linked ones
    if policy.coherence is not CoherenceMode.NONE:
        for low, high in poset.strict_pairs():
            # The policy puts R_sub within R_sup.
            if policy.coherence is CoherenceMode.SHRINK:
                sub, sup = high, low
            else:
                sub, sup = low, high
            if sub in stable:
                reflexive.add(sup)
            if sub not in ipos or sup not in ipos:
                continue
            i, j = sorted((ipos[sub], ipos[sup]))
            mask = 1 << ((k - 1 - i) * block.rel_bits)
            if ipos[sub] < ipos[sup]:
                inside[j] |= mask
            else:
                around[j] |= mask
            group = [group[i] if g == group[j] else g for g in group]
    labels = sorted(set(group))
    return _Layout(
        block.n,
        block.val_bits,
        tuple(inside),
        tuple(around),
        tuple(labels.index(g) for g in group),
        tuple(idx in reflexive for idx in kept),
    )


def _split(layout: _Layout) -> Iterator[tuple[int, list[list[int]]]]:
    """The layout's frame-admissible candidates, in slabs of at most
    _SLAB lanes, in increasing order: every candidate of a slab is below
    every candidate of the next.  Each slab comes with the number of top
    bits it fixes, which is 0 only when it is the whole block.

    A slab is a list of digit lists, one per valuation bit and then one
    per cell: a relation bit position p (pair (w_i, w_j) at p = i*n + j)
    and a group of kept indices that inclusions link.  Its lanes are the
    sums of one digit from each list, the first list varying fastest.  A
    valuation bit's digits are 0 and the bit, or the one value the slab
    fixes.  A cell's digits are the patterns its indices may show at p:
    each is the sum of the candidate bits that are set.  Coherence and
    stable reflexivity constrain each position on its own, and unlinked
    indices not at all, so the admissible candidates are exactly this
    product.

    A slab fixes the top bits of the candidate, as many as it takes to
    bring it down to _SLAB lanes and each cell to _PATTERNS digits
    (kept[0]'s bits, from the top position down, first).  Slabs are
    listed depth first, 0 before 1, so in increasing order of the fixed
    bits; with every relation bit fixed, a slab is one relation tuple
    crossed with a run of valuations.

    Given the bits of the earlier kept indices at p, index j's bit there
    is forced to 1 when one of them sits inside it (or p is on the
    diagonal and j is reflexive) and to 0 when one around it is 0; so
    every admissible prefix extends.
    """
    n, val_bits = layout.n, layout.val_bits
    inside, around, cell_of = layout.inside, layout.around, layout.cell
    rel_bits = n * n
    k = len(cell_of)
    total_bits = k * rel_bits + val_bits
    # Unlinked indices are independent: each group of linked ones has its
    # own digit list (a cell) at every position.
    members = [[j for j in range(k) if cell_of[j] == g] for g in range(len(set(cell_of)))]
    cells = [(p, m) for p in range(rel_bits) for m in members]
    cell_bits = [
        sum(1 << (val_bits + (k - 1 - j) * rel_bits + p) for j in m) for p, m in cells
    ]

    def patterns(c: int, fixed: int, value: int) -> list[int] | None:
        """Cell c's patterns that agree with `value` on the `fixed` bits
        (a prefix of its indices), or None when they may be more than
        _PATTERNS: the unfixed bits alone could take more values."""
        p, group_members = cells[c]
        shift = val_bits + p
        found = [0]
        for place, j in enumerate(group_members):
            bit = 1 << (shift + (k - 1 - j) * rel_bits)
            if found and not fixed & bit and 1 << (len(group_members) - place) > _PATTERNS:
                return None
            choices = (value & bit,) if fixed & bit else (0, bit)
            diagonal = p % (n + 1) == 0 and layout.reflexive[j]
            grown = []
            for pattern in found:
                at_p = pattern >> shift
                must = diagonal or at_p & inside[j]
                may = at_p & around[j] == around[j]
                grown += [
                    pattern | one for one in choices if (one or not must) and (may or not one)
                ]
            found = grown
        return found

    def fixed_since(c: int, free: int) -> int:
        """Sort key of the cells in a slab: those with no fixed bit first,
        then the others in the order the search fixed their lowest bits.
        The lists that change least from slab to slab come first, where
        their columns stay the same."""
        fixed = cell_bits[c] & -(1 << free)
        return -(fixed & -fixed or 1 << total_bits)

    # (number of fixed top bits, their values, each cell's patterns)
    stack = [(0, 0, [patterns(c, 0, 0) for c in range(len(cells))])]
    while stack:
        depth, value, digits = stack.pop()
        free = total_bits - depth
        lanes = 1 << min(val_bits, free)
        for found in digits:
            if found is None:
                lanes = _SLAB + 1
                break
            lanes *= len(found)
        if lanes <= _SLAB:
            valuations = [
                [0, 1 << b] if b < free else [value & 1 << b] for b in range(val_bits)
            ]
            order = sorted(range(len(cells)), key=lambda c: fixed_since(c, free))
            yield depth, valuations + [digits[c] for c in order]
            continue
        bit = 1 << (free - 1)
        if free <= val_bits:
            stack += [(depth + 1, value | bit, digits), (depth + 1, value, digits)]
            continue
        # Fixing a relation bit, kept[k - 1 - rank]'s at position p,
        # narrows its cell's patterns; a child with none left holds no
        # candidate.
        rank, p = divmod(free - 1 - val_bits, rel_bits)
        c = p * len(members) + cell_of[k - 1 - rank]
        for child in (value | bit, value):
            found = patterns(c, cell_bits[c] & ~(bit - 1), child & cell_bits[c])
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


def _columns(
    digits: list[list[int]], lanes: int, width: int, known: dict
) -> tuple[dict[int, int], dict]:
    """The column of each candidate bit in a slab of `lanes` lanes: the
    lanes where it is set, lane l as bit l of an int.

    A digit list with stride s (the product of the earlier lists'
    lengths) sets a bit in a column of period s times its length, built
    once and repeated bytewise to `width` lanes, the widest slab's so
    far.  `known` holds the previous slab's periodic columns by (stride,
    digits); those this slab shares with it are reused, and this slab's
    are returned for the next."""
    segment = (1 << lanes) - 1
    columns: dict[int, int] = {}
    shared: dict = {}
    stride = 1
    for options in digits:
        if len(options) == 1:
            for b in _set_bits(options[0]):
                columns[b] = segment
            continue
        key = (stride, tuple(options))
        length, built = known.get(key, (0, {}))
        if length < lanes:
            length, built = width, {}
            union = 0
            for option in options:
                union |= option
            run = (1 << stride) - 1
            for b in _set_bits(union):
                period = sum(
                    run << (d * stride) for d, option in enumerate(options) if option >> b & 1
                )
                built[b] = _periodic(period, stride * len(options), width)
        shared[key] = (length, built)
        for b, column in built.items():
            columns[b] = column if length == lanes else column & segment
        stride *= len(options)
    return columns, shared


def _scan_slab(
    block: _Block, program: Program, lanes: int, columns: dict[int, int]
) -> int | None:
    """Least candidate of the slab that falsifies the formula at some
    world, or None.

    A subformula's value holds n segments of the slab's lanes, world w's
    at bit w*lanes, so core.Program runs on plain ints, and `<i>x` at
    world w is the OR over u of x's segment u AND column (i, w*n+u).
    The least hit is found by walking the candidate bits from the top and
    keeping, at each, the hits that have a 0 there whenever any do.
    """
    n, rel_bits, val_bits = block.n, block.rel_bits, block.val_bits
    kept = block.kept
    segment = (1 << lanes) - 1
    full = (1 << (n * lanes)) - 1
    first = {idx: val_bits + (len(kept) - 1 - j) * rel_bits for j, idx in enumerate(kept)}

    def atom(name: str) -> int:
        base = block.atoms.index(name) * n
        return sum(columns.get(base + w, 0) << (w * lanes) for w in range(n))

    def diamond(index: str, x: int) -> int:
        parts = [(x >> (u * lanes)) & segment for u in range(n)]
        base = first[index]
        value = 0
        for w in range(n):
            row = 0
            for u, part in enumerate(parts):
                row |= part & columns.get(base + w * n + u, 0)
            value |= row << (w * lanes)
        return value

    falsified = full ^ program.run(full, atom, diamond)[-1]
    hits = 0
    for w in range(n):
        hits |= falsified >> (w * lanes)
    hits &= segment
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
def _first_slab(
    layout: _Layout, slab: int, patterns: int
) -> tuple[int, dict[int, int], dict | None]:
    """The (lanes, columns, known) plan of the layout's first slab: known
    is the periodic columns _columns hands on to the next slab, or None
    when the slab is the whole block.  `slab` and `patterns` are _SLAB
    and _PATTERNS, which _split reads; they are passed so that they key
    the cache.  A plan is a function of its key and is only read, so
    what the cache holds changes no verdict."""
    depth, digits = next(_split(layout))
    lanes = prod(map(len, digits))
    columns, known = _columns(digits, lanes, lanes, {})
    return lanes, columns, known if depth else None


def _plan(block: _Block, policy: FramePolicy) -> Iterator[tuple[int, dict[int, int]]]:
    """The (lanes, columns) pair of each of the block's slabs, in
    increasing order.  The first slab's pair comes from _first_slab, so
    it is built once per layout while the cache holds it; each later
    slab's is built as it is scanned, reusing the columns it shares with
    the slab before."""
    layout = _layout(block, policy)
    width, columns, known = _first_slab(layout, _SLAB, _PATTERNS)
    yield width, columns
    if known is not None:
        slabs = _split(layout)
        next(slabs)  # the first slab, planned above
        for _depth, digits in slabs:
            lanes = prod(map(len, digits))
            width = max(width, lanes)
            columns, known = _columns(digits, lanes, width, known)
            yield lanes, columns


def _first_hit(block: _Block, program: Program, policy: FramePolicy) -> int | None:
    """Least falsifying candidate of the block, or None.  Slabs are
    scanned in increasing order, so the first that hits holds it."""
    for lanes, columns in _plan(block, policy):
        hit = _scan_slab(block, program, lanes, columns)
        if hit is not None:
            return hit
    return None


def _resolve_atoms(program: Program, bounds: SearchBounds) -> tuple[str, ...]:
    if bounds.atoms is None:
        return program.atoms
    missing = set(program.atoms) - set(bounds.atoms)
    if missing:
        raise ValueError(f"bounds.atoms is missing formula atoms: {sorted(missing)}")
    return bounds.atoms


def _check_indices(program: Program, posets: tuple[IndexPoset, ...]) -> None:
    for name in program.indices:
        for poset in posets:
            if name not in poset.indices:
                raise UndeclaredIdentifier(
                    f"formula index {name!r} is outside the searched index set "
                    f"{list(poset.indices)}"
                )


def _first_counterexample(
    program: Program, blocks: list[_Block], policy: FramePolicy
) -> Counterexample | None:
    """The enumeration-order-first countermodel to the program's formula,
    re-checked by the scalar evaluator, or None when the blocks hold none.

    The blocks at the largest world count are probed first: a
    countermodel on fewer worlds extends to one on more, so when none of
    them hits, no block does.  Otherwise the blocks are scanned in
    candidate order, each at most once, the probed ones by their probe.
    """
    used = frozenset(program.indices)
    # The formula reads only the relations of the indices it names, so
    # the projection onto them hits exactly when the full block does;
    # the full block's least hit is then found by scanning it too.
    projected = [replace(block, dropped=frozenset(block.poset.indices) - used) for block in blocks]
    probed: dict[int, int | None] = {}
    for i, block in enumerate(projected):
        if block.n == blocks[-1].n:
            probed[i] = _first_hit(block, program, policy)
            if probed[i] is not None:
                break
    else:
        return None
    for i, block in enumerate(projected):
        hit = probed[i] if i in probed else _first_hit(block, program, policy)
        if hit is not None:
            break
    block = blocks[i]
    if projected[i].dropped:
        hit = _first_hit(block, program, policy)
        if hit is None:
            raise RuntimeError("scan of a block missed the hit of its projection")
    model = _decode(block, hit)
    if validate_frame(model, policy):
        raise RuntimeError("scan reported a model that fails frame validation")
    holds = satisfying_worlds(model, program.nodes[-1])
    for world in model.worlds:
        if world not in holds:
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
    program = Program(formula)
    atoms = _resolve_atoms(program, bounds)
    if bounds.poset is not None:
        posets: tuple[IndexPoset, ...] = (bounds.poset,)
    else:
        posets = enumerated_posets(bounds.max_indices)
    _check_indices(program, posets)
    blocks = _blocks(posets, bounds.max_worlds, atoms, ceiling)
    return _first_counterexample(program, blocks, policy) or ValidUpTo(bounds)


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


def _schema_instances(schema: str, poset: IndexPoset) -> tuple[tuple[str, str], ...]:
    if SCHEMAS[schema][1] == "a<=b":
        return poset.ordered_pairs()
    return tuple((idx, idx) for idx in poset.indices)


def _stable_variants(schema: str, poset: IndexPoset, alpha: str) -> tuple[IndexPoset, ...]:
    if SCHEMAS[schema][1] != "a stable":
        return (poset,)
    # Reflection quantifies over stability: range over every stable set
    # containing the instance index, in subset-mask order.
    rest = [idx for idx in poset.indices if idx != alpha]
    variants = []
    for mask in range(1 << len(rest)):
        stable = {alpha} | {idx for i, idx in enumerate(rest) if mask >> i & 1}
        variants.append(IndexPoset(poset.indices, poset.order, frozenset(stable)))
    return tuple(variants)


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

    Rows come out in a fixed order: mode, then poset, then schema in
    SCHEMA_ORDER, then instance indices in declaration order.  Every
    countermodel carried by a row re-verifies through the scalar
    evaluator before it is returned.
    """
    profiles = tuple(profiles)
    if not profiles:
        raise ValueError("at least one profile is required")
    for profile in profiles:
        if not isinstance(profile, AxiomProfile):
            raise TypeError(f"not a profile: {profile!r}")
    allowed = frozenset().union(*(PROFILE_SCHEMAS[p] for p in profiles))
    schemas = [s for s in SCHEMA_ORDER if s in allowed]
    if bounds.poset is not None:
        posets: tuple[IndexPoset, ...] = (bounds.poset,)
    else:
        posets = enumerated_posets(bounds.max_indices)
    # Instances and their programs depend on neither the mode nor the
    # reflexivity setting, so each is built once per call.
    formulas: dict[tuple[str, str, str], Formula] = {}
    programs: dict[Formula, Program] = {}
    instances = []  # (poset, schema, alpha, beta, formula, poset variants)
    for poset in posets:
        for schema in schemas:
            for alpha, beta in _schema_instances(schema, poset):
                key = (schema, alpha, beta)
                if key not in formulas:
                    formulas[key] = schema_instance(*key)
                formula = formulas[key]
                if formula not in programs:
                    programs[formula] = Program(formula)
                variants = _stable_variants(schema, poset, alpha)
                instances.append((poset, schema, alpha, beta, formula, variants))
    rows: list[MatrixRow] = []
    for mode in modes:
        policy = FramePolicy(mode, require_stable_reflexive)
        verdicts: dict = {}  # (formula, poset variants) -> verdict
        for poset, schema, alpha, beta, formula, variants in instances:
            if (formula, variants) not in verdicts:
                program = programs[formula]
                blocks = _blocks(variants, bounds.max_worlds, program.atoms, ceiling)
                found = _first_counterexample(program, blocks, policy)
                valid = ValidUpTo(SearchBounds(bounds.max_worlds, len(poset.indices)))
                verdicts[formula, variants] = found or valid
            rows.append(
                MatrixRow(
                    schema,
                    mode,
                    poset,
                    alpha,
                    beta,
                    formula,
                    require_stable_reflexive,
                    verdicts[formula, variants],
                )
            )
    return tuple(rows)
