"""Core vocabulary shared by every other module: index posets, the formula
AST and its bit-set program, stratified models, and the configuration
enums for coherence checking and for the two axiom profiles.

Everything defined here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Mapping

from .errors import CycleError, UndeclaredIdentifier

__all__ = [
    "And",
    "Atom",
    "AxiomProfile",
    "Box",
    "CoherenceMode",
    "Diamond",
    "Formula",
    "Implies",
    "IndexPoset",
    "Not",
    "Or",
    "Program",
    "StratifiedModel",
    "atom_names",
    "children",
    "is_identifier",
    "modal_indices",
    "poset_closure",
    "subformulas",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_identifier(name: object) -> bool:
    """True when `name` is a legal index/world/atom identifier."""
    return isinstance(name, str) and bool(_IDENT.fullmatch(name))


def _require_identifier(name: object, role: str) -> None:
    if not is_identifier(name):
        raise ValueError(f"{role} must match [A-Za-z_][A-Za-z0-9_]*, got {name!r}")


def _declared_names(names: tuple, owner: str, role: str) -> set[str]:
    """The set of `names`, which must be a non-empty tuple of distinct
    identifiers; `owner` ("poset", "model") and `role` ("index",
    "world") word the errors."""
    if not names:
        raise ValueError(f"a {owner} needs at least one {role}")
    seen: set[str] = set()
    for name in names:
        _require_identifier(name, role)
        if name in seen:
            raise ValueError(f"duplicate {role} {name!r}")
        seen.add(name)
    return seen


def _least_undeclared(names: Iterable, known: set) -> object:
    """The least by repr of the `names` missing from `known`, so an error
    names the same one whatever the hash seed.  Called only once a
    membership check has failed."""
    return min(set(names) - known, key=repr)


def _pair_order(names: tuple[str, ...]) -> Callable[[Iterable[tuple]], list[tuple]]:
    """A function listing pairs of `names` in declaration order: by the
    first element's position, then the second's.  Callers build one per
    call and apply it to each of their pair sets."""
    pos = {name: i for i, name in enumerate(names)}
    n = len(pos)
    return lambda pairs: sorted(pairs, key=lambda ab: pos[ab[0]] * n + pos[ab[1]])


def poset_closure(
    pairs: Iterable[tuple[str, str]], elements: Iterable[str], kind: str = "element"
) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of the generators `pairs` over `elements`.

    A pair (a, b) reads "a is below b".  The result contains every
    reflexive pair and every pair forced by transitivity; applying the
    function to its own output changes nothing.

    Raises CycleError when two distinct elements end up related in both
    directions, i.e. the generators do not describe a partial order, and
    UndeclaredIdentifier when a generator mentions an unknown element;
    its message calls the element a `kind` ("index", "world").  Both
    messages are fixed by the inputs: an undeclared element is the least
    by repr, and a cycle is named by the first element in `elements` that
    lies on one, with the first element it is ordered both ways with.
    """
    elems = tuple(elements)
    known = set(elems)
    below = {e: {e} for e in elems}
    pairs = tuple(pairs)
    if not known.issuperset(chain.from_iterable(pairs)):
        name = _least_undeclared(chain.from_iterable(pairs), known)
        raise UndeclaredIdentifier(f"order generator mentions undeclared {kind} {name!r}")
    for a, b in pairs:
        below[a].add(b)
    # The element sets are tiny; a quadratic saturation sweep is fine.
    changed = True
    while changed:
        changed = False
        for a in elems:
            extra: set[str] = set()
            for b in below[a]:
                extra |= below[b]
            if not extra <= below[a]:
                below[a] |= extra
                changed = True
    for a in elems:
        both = {b for b in below[a] if a in below[b]}
        if len(both) > 1:
            b = next(b for b in elems if b != a and b in both)
            raise CycleError(f"{a!r} and {b!r} are ordered in both directions")
    return frozenset((a, b) for a in elems for b in below[a])


@dataclass(frozen=True)
class IndexPoset:
    """Finite partially ordered set of admissibility levels.

    `indices` keeps declaration order, which is what makes printing and
    enumeration deterministic.  `order` must be stored as its full
    reflexive-transitive closure (use `from_order` to build one from
    generators).  `stable` marks the levels where necessity is required
    to entail truth; no closure condition is imposed on it.
    """

    indices: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    stable: frozenset[str] = frozenset()

    def __post_init__(self):
        seen = _declared_names(self.indices, "poset", "index")
        # poset_closure raises UndeclaredIdentifier and CycleError itself.
        if poset_closure(self.order, self.indices, "index") != self.order:
            raise ValueError("order must be stored reflexively and transitively closed")
        extra = self.stable - seen
        if extra:
            raise UndeclaredIdentifier(
                f"stable set mentions undeclared indices: {sorted(extra, key=repr)}"
            )

    @classmethod
    def from_order(
        cls,
        indices: Iterable[str],
        order: Iterable[tuple[str, str]] = (),
        stable: Iterable[str] = (),
    ) -> "IndexPoset":
        """Build a poset from order generators; the closure is computed here."""
        indices = tuple(indices)
        return cls(indices, poset_closure(order, indices, "index"), frozenset(stable))

    def leq(self, a: str, b: str) -> bool:
        """Whether a <= b in this poset."""
        for name in (a, b):
            if name not in self.indices:
                raise UndeclaredIdentifier(f"unknown index {name!r}")
        return (a, b) in self.order

    def strict_pairs(self) -> tuple[tuple[str, str], ...]:
        """Comparable pairs (a, b) with a <= b and a != b, in declaration order."""
        return tuple((a, b) for a, b in self.ordered_pairs() if a != b)

    def ordered_pairs(self) -> tuple[tuple[str, str], ...]:
        """All pairs (a, b) with a <= b, reflexive ones included, in declaration order."""
        return tuple(_pair_order(self.indices)(self.order))


class Formula:
    """Base class for formula AST nodes.

    Nodes are frozen dataclasses; equality and hashing are syntactic and
    no normalization happens on construction.
    """


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        _require_identifier(self.name, "atom")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    """Necessity at one admissibility level: true at w when the operand
    holds at every successor through that level's relation."""

    index: str
    operand: Formula

    def __post_init__(self):
        _require_identifier(self.index, "index")


@dataclass(frozen=True)
class Diamond(Formula):
    """Possibility at one admissibility level: true at w when the operand
    holds at some successor through that level's relation."""

    index: str
    operand: Formula

    def __post_init__(self):
        _require_identifier(self.index, "index")


_NODE_TYPES = (Atom, Not, And, Or, Implies, Box, Diamond)
_KINDS = {t: t for t in _NODE_TYPES}  # exact node type -> node type


def _parts(formula: Formula) -> tuple[type, tuple[Formula, ...]]:
    """The node type of an AST node (the base type for a subclass of
    one) and its immediate subformulas."""
    kind = type(formula)
    if kind not in _NODE_TYPES:
        kind = next((t for t in _NODE_TYPES if isinstance(formula, t)), None)
        if kind is None:
            raise TypeError(f"not a formula: {formula!r}")
    if kind is Atom:
        return kind, ()
    if kind is And or kind is Or or kind is Implies:
        return kind, (formula.left, formula.right)
    return kind, (formula.operand,)


def children(formula: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of an AST node."""
    return _parts(formula)[1]


def _walk(*formulas: Formula) -> tuple[list[Formula], list[tuple], list[int]]:
    """The distinct subformulas of `formulas` in bottom-up order (children
    strictly before parents), each with its step: the tuple (node type,
    label, *child positions), where the label is an atom's name, a modal
    operator's index, or None; and the position of each formula.

    Iterative, so arbitrarily deep formulas work: the node on top of the
    stack gets its step once its children have theirs, and until then
    pushes the children that have none, leftmost on top.  Nodes are
    deduplicated by exact type, label and child positions, since hashing
    a deep node recurses through it, so two nodes share a position
    exactly when they are equal.  Each node's type is looked up in
    _KINDS; only a miss goes through _parts, which gives a subclass of a
    node type that type, so its step is that type's, and raises
    TypeError for anything else."""
    found: list[Formula] = []
    steps: list[tuple] = []
    keys: dict[tuple, int] = {}  # (exact type, label, *child positions) -> position
    seen: dict[int, int] = {}  # id of a visited node -> position of its step
    stack = list(reversed(formulas))  # first on top
    while stack:
        g = stack[-1]
        if id(g) in seen:
            stack.pop()
            continue
        exact = type(g)
        kind = _KINDS.get(exact) or _parts(g)[0]
        if kind is Atom:
            key = (exact, g.name)
        elif kind is And or kind is Or or kind is Implies:
            left, right = g.left, g.right
            a, b = seen.get(id(left)), seen.get(id(right))
            if a is None or b is None:
                if b is None:
                    stack.append(right)
                if a is None:
                    stack.append(left)
                continue
            key = (exact, None, a, b)
        else:  # Not, Box, Diamond
            a = seen.get(id(g.operand))
            if a is None:
                stack.append(g.operand)
                continue
            key = (exact, None if kind is Not else g.index, a)
        stack.pop()
        pos = keys.setdefault(key, len(found))
        if pos == len(found):
            found.append(g)
            steps.append(key if key[0] is kind else (kind, *key[1:]))
        seen[id(g)] = pos
    return found, steps, [seen[id(formula)] for formula in formulas]


def subformulas(formula: Formula) -> tuple[Formula, ...]:
    """Every subformula of `formula` including itself, deduplicated, in
    bottom-up order (children strictly before parents, `formula` last)."""
    return tuple(_walk(formula)[0])


class Program:
    """Formulas compiled to straight-line code over bit sets: one step
    (node type, label, *child positions) per distinct subformula, in the order
    of `subformulas`, which `nodes` holds.  `roots` holds the position of
    each formula; one formula's is the last.  Equal nodes share a position.
    `atoms` holds the sorted names of the atoms the formulas use, and
    `indices` the sorted indices their modal operators name.  Every
    attribute is set here and never changed.

    A bit set is any value with `^`, `&` and `|`, such as a Python int,
    and `full` is the set of all positions.  The connectives are bitwise
    operations against `full`, and `[i]x` is computed as `~<i>~x`, so a
    caller supplies only `atom(name)` and `diamond(index, x)`, the
    positions with an `index`-successor in x."""

    def __init__(self, *formulas: Formula):
        nodes, steps, roots = _walk(*formulas)
        self.nodes, self.steps, self.roots = tuple(nodes), tuple(steps), tuple(roots)
        self.atoms = tuple(sorted({s[1] for s in steps if s[0] is Atom}))
        self.indices = tuple(sorted({s[1] for s in steps if s[0] is Box or s[0] is Diamond}))

    def run(self, full, atom, diamond) -> list:
        """The bit set of every step, by position.  Only `^`, `&` and `|`
        are applied to the values, always with `full` or another value
        of the run, so any type with those operators will do."""
        values: list = []
        append = values.append
        for step in self.steps:
            kind = step[0]
            if kind is Atom:
                append(atom(step[1]))
            elif kind is Diamond:
                append(diamond(step[1], values[step[2]]))
            elif kind is Box:
                append(full ^ diamond(step[1], full ^ values[step[2]]))
            elif kind is Not:
                append(full ^ values[step[2]])
            elif kind is And:
                append(values[step[2]] & values[step[3]])
            elif kind is Or:
                append(values[step[2]] | values[step[3]])
            else:  # Implies: _parts() has rejected every other node type
                append((full ^ values[step[2]]) | values[step[3]])
        return values


def atom_names(formula: Formula) -> tuple[str, ...]:
    """Sorted names of the atoms occurring in `formula`."""
    return Program(formula).atoms


def modal_indices(formula: Formula) -> tuple[str, ...]:
    """Sorted indices occurring on modal operators in `formula`."""
    return Program(formula).indices


class CoherenceMode(Enum):
    """Direction of the cross-level inclusion constraint on relations.

    SHRINK: a <= b requires R_b to be a subset of R_a (stricter levels
    allow fewer transitions).  GROW is the reverse inclusion.  NONE
    imposes no cross-level constraint.
    """

    SHRINK = "shrink"
    GROW = "grow"
    NONE = "none"


class AxiomProfile(Enum):
    """Which persistence direction the diamond schema takes in the proof
    system: SECTION3 ships A4 (possibility persists upward along the
    index order), SECTION2 ships DDOWN (possibility persists downward).
    Both share A1, K, A2 and A3."""

    SECTION2 = "section2"
    SECTION3 = "section3"


@dataclass(frozen=True)
class StratifiedModel:
    """A stratified Kripke model: one accessibility relation per index, a
    valuation, and an optional order on worlds.

    The world order is validated and carried but never consulted during
    evaluation; no truth condition reads it.  Missing relation entries
    are normalized to empty relations, so `relations` always has one
    entry per declared index.  An atom counts as declared exactly when it
    has a valuation entry (possibly empty).  Instances are immutable.

    A relation or valuation that mentions undeclared worlds is reported
    with the least of them by repr, whatever the hash seed.
    """

    poset: IndexPoset
    worlds: tuple[str, ...]
    relations: Mapping[str, frozenset[tuple[str, str]]]
    valuation: Mapping[str, frozenset[str]]
    world_order: frozenset[tuple[str, str]] | None = None

    def __post_init__(self):
        world_set = _declared_names(self.worlds, "model", "world")
        for idx in self.relations:
            if idx not in self.poset.indices:
                raise UndeclaredIdentifier(f"relation given for undeclared index {idx!r}")
        relations: dict[str, frozenset[tuple[str, str]]] = {}
        for idx in self.poset.indices:
            pairs = frozenset(self.relations.get(idx, ()))
            if not world_set.issuperset(chain.from_iterable(pairs)):
                w = _least_undeclared(chain.from_iterable(pairs), world_set)
                raise UndeclaredIdentifier(f"relation for {idx!r} mentions undeclared world {w!r}")
            relations[idx] = pairs
        valuation: dict[str, frozenset[str]] = {}
        for atom, ws in self.valuation.items():
            _require_identifier(atom, "atom")
            ws = frozenset(ws)
            if not world_set.issuperset(ws):
                w = _least_undeclared(ws, world_set)
                raise UndeclaredIdentifier(
                    f"valuation of {atom!r} mentions undeclared world {w!r}"
                )
            valuation[atom] = ws
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "valuation", valuation)
        if self.world_order is not None:
            closed = poset_closure(self.world_order, self.worlds, "world")
            object.__setattr__(self, "world_order", closed)

    def successors(self, index: str, world: str) -> tuple[str, ...]:
        """Successors of `world` through the relation at `index`, in world
        declaration order."""
        if index not in self.poset.indices:
            raise UndeclaredIdentifier(f"unknown index {index!r}")
        if world not in self.worlds:
            raise UndeclaredIdentifier(f"unknown world {world!r}")
        pairs = self.relations[index]
        return tuple(v for v in self.worlds if (world, v) in pairs)

    @property
    def atoms(self) -> tuple[str, ...]:
        """Sorted names of the declared atoms."""
        return tuple(sorted(self.valuation))
