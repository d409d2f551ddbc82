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
  (w_i, w_j).  Candidates are scanned in increasing integer order, so
  relations vary lexicographically in index declaration order with
  valuations varying fastest.
* Candidates whose frame fails validate_frame under the active policy are
  never generated, and the rest keep their raw positions: a block lists
  its admissible relation tuples directly, in increasing order, and
  crosses each with every valuation.  The reported countermodel is the
  enumeration-order minimum of the admissible candidates.

One scan path.  decide_valid (and through it decide_sat) and each
axiom_matrix row compile the query once to a core.Program, whose atoms
and indices size and check the blocks.  _blocks lists the blocks and
raises BoundsTooLarge at the first one past the ceiling, before any is
scanned; _first_counterexample scans them one after another, each in
chunks of about _CHUNK admissible candidates in increasing order, in one
thread.  The `workers` argument is kept for compatibility and does not
change the scan.  axiom_matrix keeps one dict of verdicts per mode, keyed
by the instance formula and its poset variants, so an instance that
recurs under a mode (A4 and DDOWN at a reflexive pair) is scanned once.

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

Scanning runs the formula's bit-set program (core.Program) with numpy
over chunks of candidates, world sets being uint8 masks over a (relation
tuple, valuation) grid.  numpy is imported inside the two functions that
scan, _relation_tuples and _scan_chunk, so importing this module (and so
`import salogic` and every sal command but valid, sat and axioms) does
not load it; the first scan does.  A hit is rebuilt as a plain
StratifiedModel and re-checked through semantics.satisfying_worlds and
semantics.validate_frame before it is reported, so every emitted witness
has already survived the independent scalar evaluator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

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
_CHUNK = 1 << 16  # candidates per kernel call
_MAX_CANDIDATE_BITS = 62  # candidates are scanned as int64 vectors


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
        if self.max_worlds < 1 or self.max_indices < 1:
            raise ValueError("bounds must allow at least one world and one index")
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
    """One (poset, world count) slab of the candidate space.  A projection
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


def _relation_tuples(
    block: _Block, policy: FramePolicy, limit: int
) -> Iterator[np.ndarray]:
    """The block's frame-admissible relation tuples in increasing order, in
    arrays of at most `limit` entries.

    A tuple packs one n*n-bit mask per kept index, the first declared index
    in the most significant position, as in a candidate's relation bits.
    The masks are chosen in declaration order.  Given the earlier masks,
    index j's mask m ranges over must <= m <= may: `must` joins the earlier
    masks that policy puts inside m, plus the diagonal when m must be
    reflexive; `may` meets the earlier masks that policy puts around m.
    The m of one prefix are listed in increasing order by depositing a
    counter's bits into the free positions of may & ~must.

    The inclusions (closed under transitivity) and the reflexive levels
    come from the whole poset, so a projection lists exactly the
    restrictions of the full admissible tuples: a dropped index can take
    the union of the kept masks that must sit inside it, plus the diagonal
    when it is reflexive.  With no kept index the block has one empty
    tuple.
    """
    import numpy as np

    n, rel_bits = block.n, block.rel_bits
    poset, kept = block.poset, block.kept
    full = (1 << rel_bits) - 1
    diag = sum(1 << (i * n + i) for i in range(n))
    ipos = {idx: i for i, idx in enumerate(kept)}
    # A stable level's diagonal spreads along the inclusions, so that every
    # prefix has an admissible next mask.
    stable = poset.stable if policy.require_stable_reflexive else frozenset()
    reflexive = set(stable)
    inside: list[list[int]] = [[] for _ in kept]  # earlier masks within m
    around: list[list[int]] = [[] for _ in kept]  # earlier masks around m
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
            if ipos[sub] < ipos[sup]:
                inside[ipos[sup]].append(ipos[sub])
            else:
                around[ipos[sub]].append(ipos[sup])
    fixed = [diag if idx in reflexive else 0 for idx in kept]

    def walk(prefixes: np.ndarray, j: int) -> Iterator[np.ndarray]:
        if j == len(kept):
            yield prefixes
            return
        must = np.full(prefixes.shape, fixed[j], dtype=np.int64)
        may = np.full(prefixes.shape, full, dtype=np.int64)
        for i in inside[j]:
            must |= (prefixes >> (rel_bits * (j - 1 - i))) & full
        for i in around[j]:
            may &= (prefixes >> (rel_bits * (j - 1 - i))) & full
        free = may & ~must
        counts = np.ones_like(free)
        for b in range(rel_bits):
            counts <<= (free >> b) & 1
        ends = np.cumsum(counts)
        total = int(ends[-1])
        for lo in range(0, total, limit):
            pos = np.arange(lo, min(lo + limit, total), dtype=np.int64)
            row = np.searchsorted(ends, pos, side="right")
            counter = pos - (ends[row] - counts[row])
            bits = free[row]
            mask = must[row]
            for b in range(rel_bits):
                bit = (bits >> b) & 1
                mask |= (counter & bit) << b
                counter >>= bit
            yield from walk((prefixes[row] << rel_bits) | mask, j + 1)

    yield from walk(np.zeros(1, dtype=np.int64), 0)


def _scan_chunk(
    block: _Block, program: Program, tuples: np.ndarray, lo: int, hi: int
) -> int | None:
    """Least candidate of the chunk that falsifies the formula at some
    world, or None.

    World sets are n-bit masks held as uint8 (n <= 7 by the bit guard).
    Subformula values broadcast over a (tuple, valuation) grid, so
    propositional subformulas are computed once per valuation.
    """
    import numpy as np

    n, kept = block.n, block.kept
    full = (1 << n) - 1
    vals = np.arange(lo, hi, dtype=np.int64)[None, :]
    # rows[idx][w]: the successors of world w under idx, one per tuple
    rows = {
        idx: [
            ((tuples >> ((len(kept) - 1 - j) * block.rel_bits + w * n)) & full)
            .astype(np.uint8)[:, None]
            for w in range(n)
        ]
        for j, idx in enumerate(kept)
    }

    def atom(name: str) -> np.ndarray:
        return ((vals >> (block.atoms.index(name) * n)) & full).astype(np.uint8)

    def diamond(index: str, x: np.ndarray) -> np.ndarray:
        return sum(
            ((row & x) != 0).astype(np.uint8) << w for w, row in enumerate(rows[index])
        )

    truth = program.run(full, atom, diamond)[-1]
    falsified = np.broadcast_to(truth != full, (len(tuples), hi - lo))
    if not falsified.any():
        return None
    t, v = divmod(int(falsified.argmax()), hi - lo)
    return (int(tuples[t]) << block.val_bits) | (lo + v)


def _first_hit(block: _Block, program: Program, policy: FramePolicy) -> int | None:
    """Least falsifying candidate of the block, or None.

    The admissible candidates are scanned in increasing order, in chunks
    of about _CHUNK: each crosses some relation tuples with a run of
    valuations."""
    valuations = 1 << block.val_bits
    step = min(valuations, _CHUNK)
    for tuples in _relation_tuples(block, policy, max(1, _CHUNK // valuations)):
        for lo in range(0, valuations, step):
            hit = _scan_chunk(block, program, tuples, lo, lo + step)
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
    re-checked by the scalar evaluator, or None when the blocks hold none."""
    used = frozenset(program.indices)
    for block in blocks:
        # The formula reads only the relations of the indices it names, so
        # the projection onto them hits exactly when the full block does;
        # the full block's least hit is then found by scanning it too.
        projected = replace(block, dropped=frozenset(block.poset.indices) - used)
        hit = _first_hit(projected, program, policy)
        if hit is not None:
            if projected.dropped:
                hit = _first_hit(block, program, policy)
                if hit is None:
                    raise RuntimeError("scan of a block missed the hit of its projection")
            break
    else:
        return None
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
    rows: list[MatrixRow] = []
    for mode in modes:
        policy = FramePolicy(mode, require_stable_reflexive)
        verdicts: dict = {}  # (formula, poset variants) -> verdict
        for poset in posets:
            valid = ValidUpTo(SearchBounds(bounds.max_worlds, len(poset.indices)))
            for schema in schemas:
                for alpha, beta in _schema_instances(schema, poset):
                    formula = schema_instance(schema, alpha, beta)
                    variants = _stable_variants(schema, poset, alpha)
                    if (formula, variants) not in verdicts:
                        program = Program(formula)
                        blocks = _blocks(variants, bounds.max_worlds, program.atoms, ceiling)
                        found = _first_counterexample(program, blocks, policy)
                        verdicts[formula, variants] = found or valid
                    verdict = verdicts[formula, variants]
                    rows.append(
                        MatrixRow(
                            schema,
                            mode,
                            poset,
                            alpha,
                            beta,
                            formula,
                            require_stable_reflexive,
                            verdict,
                        )
                    )
    return tuple(rows)
