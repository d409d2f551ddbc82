"""Hilbert-style proof checking for the stratified proof system.

The axiom schemas are A1, any formula whose propositional skeleton is a
tautology, and the modal schemas defined in SCHEMAS, each a shape with a
side condition read against the derivation's index poset.

Rules: modus ponens, and index-local necessitation from an earlier line,
optionally restricted to stable indices (the default).  Derivations are
hypothesis-free: every accepted line is a theorem, so necessitation may
cite any earlier accepted line.  check_derivation compiles all lines into
one core.Program, runs each A1 truth table on it and compares formulas by
step position, never with ==, so lines of any depth are checked without
recursion and no line is compiled twice.

A skeleton's variables, one per atom name and one per maximal modal
subformula, are read by one walk over the program (_skeleton), which
both propositional_skeleton and the A1 truth table use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    Diamond,
    Formula,
    Implies,
    IndexPoset,
    Not,
    Or,
    Program,
)
from .errors import (
    BoundsTooLarge,
    ForwardReference,
    IllegalTagForProfile,
    UndeclaredIdentifier,
)

__all__ = [
    "Axiom",
    "CheckReport",
    "Derivation",
    "LineVerdict",
    "ModusPonens",
    "Necessitation",
    "PROFILE_SCHEMAS",
    "ProofLine",
    "SCHEMAS",
    "SCHEMA_TAGS",
    "check_derivation",
    "is_tautology",
    "match_axiom",
    "propositional_skeleton",
]

_P, _Q = Atom("P"), Atom("Q")

# The modal axiom schemas, tag -> (shape, side condition): a shape is
# compiled from a formula over indices a, b and atoms P, Q standing for
# formulas; the side condition is None, "a<=b" or "a stable".
SCHEMAS: dict[str, tuple[Program, str | None]] = {
    "K": (Program(Implies(Box("a", Implies(_P, _Q)), Implies(Box("a", _P), Box("a", _Q)))), None),
    "A2": (Program(Implies(Box("a", _P), Box("b", _P))), "a<=b"),
    "A3": (Program(Implies(Box("a", _P), _P)), "a stable"),
    "A4": (Program(Implies(Diamond("a", _P), Diamond("b", _P))), "a<=b"),
    "DDOWN": (Program(Implies(Diamond("b", _P), Diamond("a", _P))), "a<=b"),
}

SCHEMA_TAGS = ("A1", *SCHEMAS)

PROFILE_SCHEMAS = {
    AxiomProfile.SECTION3: frozenset({"A1", "K", "A2", "A3", "A4"}),
    AxiomProfile.SECTION2: frozenset({"A1", "K", "A2", "A3", "DDOWN"}),
}

# Rejection reasons reported by check_derivation.
REASON_NOT_A_TAUTOLOGY = "not-a-tautology"
REASON_SCHEMA_MISMATCH = "schema-mismatch"
REASON_ILLEGAL_TAG = "illegal-tag-for-profile"
REASON_BAD_MODUS_PONENS = "modus-ponens-shape-mismatch"
REASON_BAD_NECESSITATION = "necessitation-shape-mismatch"
REASON_NON_STABLE_NECESSITATION = "non-stable-necessitation"
REASON_UNDECLARED_INDEX = "undeclared-index"
REASON_CITED_LINE_REJECTED = "cited-line-rejected"

_TABLE_WIDTH = 12  # variables whose truth-table columns one pass holds at once
_MAX_TABLE_ATOMS = 24  # variables past which the truth table is refused


@dataclass(frozen=True)
class Axiom:
    """Justification by an axiom schema tag (one of SCHEMA_TAGS)."""

    tag: str

    def __post_init__(self):
        if self.tag not in SCHEMA_TAGS:
            raise ValueError(f"unknown axiom tag {self.tag!r}")


@dataclass(frozen=True)
class ModusPonens:
    """From line `premise` and line `implication` = (premise -> current)."""

    premise: int
    implication: int


@dataclass(frozen=True)
class Necessitation:
    """From line `premise`, infer [index] applied to it."""

    index: str
    premise: int


Justification = Axiom | ModusPonens | Necessitation


@dataclass(frozen=True)
class ProofLine:
    number: int
    formula: Formula
    justification: Justification

    def __post_init__(self):
        if not isinstance(self.formula, Formula):
            raise TypeError(f"not a formula: {self.formula!r}")


@dataclass(frozen=True)
class Derivation:
    """A sequence of justified proof lines over a fixed index poset.

    Lines must be numbered 1..n in order and may only cite strictly
    earlier lines; both are enforced at construction.
    """

    lines: tuple[ProofLine, ...]
    poset: IndexPoset
    profile: AxiomProfile = AxiomProfile.SECTION2
    nec_requires_stable: bool = True

    def __post_init__(self):
        for position, line in enumerate(self.lines, start=1):
            if line.number != position:
                raise ValueError(
                    f"line numbers must run 1..n; found {line.number} at position {position}"
                )
            cited = []
            if isinstance(line.justification, ModusPonens):
                cited = [line.justification.premise, line.justification.implication]
            elif isinstance(line.justification, Necessitation):
                cited = [line.justification.premise]
            for ref in cited:
                if not 1 <= ref < line.number:
                    raise ForwardReference(
                        f"line {line.number} cites line {ref}, which is not an earlier line"
                    )


def _skeleton(program: Program, root: int) -> tuple[dict[int, object], list[int]]:
    """The propositional skeleton of the formula at step `root` of
    `program`, in one walk: its leaves, each position mapped to its
    variable (an atom's name, or the position itself for a maximal modal
    step), in the order they are first met left to right; and the
    positions of the connectives above them, children before parents."""
    steps = program.steps
    leaves: dict[int, object] = {}
    inner: set[int] = set()
    stack = [root]
    while stack:
        at = stack.pop()
        if at in leaves or at in inner:
            continue
        kind, label, *args = steps[at]
        if kind is Atom:
            leaves[at] = label
        elif kind is Box or kind is Diamond:
            leaves[at] = at
        else:  # operands next, leftmost on top
            inner.add(at)
            stack.extend(reversed(args))
    return leaves, sorted(inner)


def propositional_skeleton(formula: Formula) -> Formula:
    """`formula` with each maximal modal subformula replaced by a fresh
    placeholder atom; syntactically equal modal subformulas share one
    placeholder.  Placeholder names avoid the formula's own atoms and are
    numbered m0_, m1_, ... in the order the modal subformulas are first
    met, left to right."""
    program = Program(formula)
    root = len(program.steps) - 1
    leaves, connectives = _skeleton(program, root)
    taken = set(program.atoms)
    fresh = (Atom(name) for name in (f"m{i}_" for i in count()) if name not in taken)
    # An atom stays; a modal step, its own variable, becomes a placeholder.
    built = {at: next(fresh) if leaf == at else program.nodes[at] for at, leaf in leaves.items()}
    for at in connectives:
        kind, _label, *args = program.steps[at]
        built[at] = kind(*[built[a] for a in args])
    return built[root]


def _refuse_wide_table(width: int) -> None:
    if width > _MAX_TABLE_ATOMS:
        raise BoundsTooLarge(
            f"a truth table over {width} atoms exceeds the ceiling of "
            f"{_MAX_TABLE_ATOMS} atoms"
        )


def _true_in_every_row(program: Program, root: int) -> bool:
    """Whether the formula at step `root` of `program` is true in every row
    of the truth table of its propositional skeleton, read from _skeleton:
    one variable per atom name and one per maximal modal step, so
    distinct positions get distinct variables, as distinct placeholders
    do in propositional_skeleton.  Only the connectives under `root` are
    evaluated, so a line of a derivation costs its own steps.

    Each variable's column is one int with one bit per row, built by
    doubling the table for each of the first _TABLE_WIDTH variables.
    Each assignment of any further variables is one more pass with them
    constant, so a column never exceeds 2^_TABLE_WIDTH bits.

    Raises BoundsTooLarge, before any row, past _MAX_TABLE_ATOMS
    variables: each one doubles the table."""
    steps = program.steps
    variable, connectives = _skeleton(program, root)
    names = list(dict.fromkeys(variable.values()))
    _refuse_wide_table(len(names))
    rows, columns = 1, {}
    for name in names[:_TABLE_WIDTH]:
        for other in columns:
            columns[other] |= columns[other] << rows
        columns[name] = ((1 << rows) - 1) << rows
        rows <<= 1
    full = (1 << rows) - 1
    order = [(at, *steps[at]) for at in connectives]
    high = names[_TABLE_WIDTH:]
    for bits in range(1 << len(high)):
        columns.update((name, full * (bits >> i & 1)) for i, name in enumerate(high))
        values = {at: columns[name] for at, name in variable.items()}
        for at, kind, _label, *args in order:
            if kind is Not:
                value = full ^ values[args[0]]
            elif kind is And:
                value = values[args[0]] & values[args[1]]
            elif kind is Or:
                value = values[args[0]] | values[args[1]]
            else:  # Implies
                value = (full ^ values[args[0]]) | values[args[1]]
            values[at] = value
        if values[root] != full:
            return False
    return True


def is_tautology(formula: Formula) -> bool:
    """Truth-table check; `formula` must be purely propositional, and a
    modal operator raises TypeError.  The table is the one the A1 check
    reads, over the formula's atoms (_true_in_every_row).

    Raises BoundsTooLarge, before any row, when the formula has more
    than _MAX_TABLE_ATOMS atoms, under a modal operator or not: each
    atom doubles the table."""
    program = Program(formula)
    for kind, label, *_args in program.steps:
        if kind is Box or kind is Diamond:
            _refuse_wide_table(len(program.atoms))
            raise TypeError(f"modal operator on index {label!r} in a propositional context")
    return _true_in_every_row(program, len(program.steps) - 1)


def match_axiom(
    formula: Formula, tag: str, poset: IndexPoset, profile: AxiomProfile
) -> bool:
    """Whether `formula` instantiates the schema named by `tag`.

    Raises IllegalTagForProfile when `profile` does not include the tag
    (A4 is SECTION3-only, DDOWN is SECTION2-only) and UndeclaredIdentifier
    when a matching formula names an index the poset does not declare.
    """
    program = Program(formula)
    return _match_line(program, len(program.steps) - 1, tag, poset, profile)


def _match_line(
    program: Program, root: int, tag: str, poset: IndexPoset, profile: AxiomProfile
) -> bool:
    """match_axiom for the formula at step `root` of `program`.  A1 runs
    the truth table of the formula's skeleton on the program itself, with
    no skeleton built.  A modal schema's shape is walked against the
    program: a formula variable binds to a position and an index variable
    to a label, each the same wherever it occurs."""
    if tag not in SCHEMA_TAGS:
        raise ValueError(f"unknown axiom tag {tag!r}")
    if tag not in PROFILE_SCHEMAS[profile]:
        raise IllegalTagForProfile(f"{tag} is not part of profile {profile.value}")
    if tag == "A1":
        return _true_in_every_row(program, root)

    shape, condition = SCHEMAS[tag]
    bound: dict[str | None, object] = {}  # variable -> position or label
    pairs = [(len(shape.steps) - 1, root)]  # (shape position, program position)
    while pairs:
        at, position = pairs.pop()
        kind, var, *args = shape.steps[at]
        if kind is Atom:
            value = position
        else:
            found, value, *operands = program.steps[position]
            if found is not kind:
                return False
            pairs.extend(zip(args, operands))
        # A connective binds None to its label, which is None too.
        if bound.setdefault(var, value) != value:
            return False
    a = bound["a"]
    ordered = poset.leq(a, bound.get("b", a))  # raises for an undeclared index
    if condition == "a<=b":
        return ordered
    if condition == "a stable":
        return a in poset.stable
    return True


def _has_step(program: Program, position: int, *step) -> bool:
    """Whether the node at `position` == a new node with this step."""
    return type(program.nodes[position]) is step[0] and program.steps[position] == step


@dataclass(frozen=True)
class LineVerdict:
    number: int
    formula: Formula
    justification: Justification
    accepted: bool
    reason: str | None = None


@dataclass(frozen=True)
class CheckReport:
    """Per-line accept/reject outcome for one derivation."""

    lines: tuple[LineVerdict, ...]

    @property
    def valid(self) -> bool:
        return all(line.accepted for line in self.lines)

    def rejected(self) -> tuple[LineVerdict, ...]:
        return tuple(line for line in self.lines if not line.accepted)


def check_derivation(derivation: Derivation) -> CheckReport:
    """Check every line of `derivation` against its profile and poset.

    A line is accepted when its own justification checks out and every
    line it cites was itself accepted, so accepted lines are genuine
    theorems even inside partially rejected derivations.  The derivation
    is valid iff all lines are accepted.
    """
    verdicts: list[LineVerdict] = []
    accepted: dict[int, bool] = {}
    program = Program(*(line.formula for line in derivation.lines))
    roots = (None, *program.roots)  # line number -> position of its formula
    for line in derivation.lines:
        reason: str | None = None
        just = line.justification
        here = roots[line.number]
        if isinstance(just, Axiom):
            try:
                if not _match_line(program, here, just.tag, derivation.poset, derivation.profile):
                    reason = (
                        REASON_NOT_A_TAUTOLOGY if just.tag == "A1" else REASON_SCHEMA_MISMATCH
                    )
            except IllegalTagForProfile:
                reason = REASON_ILLEGAL_TAG
            except UndeclaredIdentifier:
                reason = REASON_UNDECLARED_INDEX
        elif isinstance(just, ModusPonens):
            if not (accepted[just.premise] and accepted[just.implication]):
                reason = REASON_CITED_LINE_REJECTED
            elif not _has_step(
                program, roots[just.implication], Implies, None, roots[just.premise], here
            ):
                reason = REASON_BAD_MODUS_PONENS
        elif isinstance(just, Necessitation):
            if just.index not in derivation.poset.indices:
                reason = REASON_UNDECLARED_INDEX
            elif not accepted[just.premise]:
                reason = REASON_CITED_LINE_REJECTED
            elif not _has_step(program, here, Box, just.index, roots[just.premise]):
                reason = REASON_BAD_NECESSITATION
            elif derivation.nec_requires_stable and just.index not in derivation.poset.stable:
                reason = REASON_NON_STABLE_NECESSITATION
        else:
            raise TypeError(f"not a justification: {just!r}")
        accepted[line.number] = reason is None
        verdicts.append(
            LineVerdict(line.number, line.formula, just, reason is None, reason)
        )
    return CheckReport(tuple(verdicts))
