"""Stratified satisfaction and frame validation.

Evaluation runs the formula's bit-set program (core.Program) over world
masks, Python ints whose bit i stands for the i-th declared world: each
distinct subformula costs O(|worlds|) operations on |worlds|-bit ints,
its diamonds included.  The ambient evaluation index is carried through
the API and the traces but cannot change a verdict: each modal operator
quantifies over the relation named by its own subscript.  That
independence is a tested property, not an assumption.

Frame validation is configured by a FramePolicy.  The two coherence
directions are both on offer because neither is privileged by the
semantics itself; permissive policies report violations as data, strict
policies make downstream operations refuse the model.  Every violation
names an index pair.  The world order is not a frame condition:
StratifiedModel stores it as the closure computed by poset_closure,
which is a partial order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Atom,
    Box,
    CoherenceMode,
    Diamond,
    Formula,
    Program,
    StratifiedModel,
    children,
)
from .errors import FrameViolation, UndeclaredIdentifier
from .syntax import print_formula

__all__ = [
    "EvalTrace",
    "FramePolicy",
    "VIOLATION_COHERENCE",
    "VIOLATION_STABLE_REFLEXIVITY",
    "Violation",
    "evaluate",
    "evaluate_with_trace",
    "is_admissible",
    "render_trace",
    "satisfying_worlds",
    "validate_frame",
]

VIOLATION_COHERENCE = "coherence"
VIOLATION_STABLE_REFLEXIVITY = "stable-reflexivity"


@dataclass(frozen=True)
class FramePolicy:
    """What validate_frame checks, and whether violations are fatal.

    strict=True makes operations with frame preconditions raise
    FrameViolation instead of proceeding; permissive mode evaluates
    regardless and leaves the violations as data.
    """

    coherence: CoherenceMode = CoherenceMode.SHRINK
    require_stable_reflexive: bool = True
    strict: bool = False


@dataclass(frozen=True)
class Violation:
    """One frame defect: its kind, the index pair it concerns (a pair
    (a, a) for stable-reflexivity defects), and the witnessing world pair."""

    kind: str
    index_pair: tuple[str, str]
    world_pair: tuple[str, str]

    def render(self) -> str:
        (low, high), (u, v) = self.index_pair, self.world_pair
        return f"{self.kind} {low}<={high} {u}->{v}"


def validate_frame(model: StratifiedModel, policy: FramePolicy) -> list[Violation]:
    """All frame violations of `model` under `policy`.

    Coherence violations list every relation pair missing from the
    inclusion the mode demands, one Violation per pair: under SHRINK a
    pair sits in the higher relation but not the lower one, under GROW
    the other way around.  Stable-reflexivity violations list every
    missing reflexive pair at a stable index.  The list order is
    deterministic (index declaration order, then world declaration
    order).  An empty list means the frame meets every active constraint.
    """
    out: list[Violation] = []
    wpos = {w: i for i, w in enumerate(model.worlds)}
    if policy.coherence is not CoherenceMode.NONE:
        for low, high in model.poset.strict_pairs():
            if policy.coherence is CoherenceMode.SHRINK:
                missing = model.relations[high] - model.relations[low]
            else:
                missing = model.relations[low] - model.relations[high]
            for pair in sorted(missing, key=lambda uv: (wpos[uv[0]], wpos[uv[1]])):
                out.append(Violation(VIOLATION_COHERENCE, (low, high), pair))
    if policy.require_stable_reflexive:
        for idx in model.poset.indices:
            if idx not in model.poset.stable:
                continue
            for w in model.worlds:
                if (w, w) not in model.relations[idx]:
                    out.append(Violation(VIOLATION_STABLE_REFLEXIVITY, (idx, idx), (w, w)))
    return out


def _world_masks(
    model: StratifiedModel,
    formula: Formula,
    world: str | None = None,
    index: str | None = None,
) -> tuple[Program, list[int]]:
    """The program of `formula` and the worlds where each of its steps
    holds, as ints whose bit i stands for the i-th declared world.

    Every name the inputs use is checked before anything is evaluated."""
    if world is not None and world not in model.worlds:
        raise UndeclaredIdentifier(f"unknown world {world!r}")
    if index is not None and index not in model.poset.indices:
        raise UndeclaredIdentifier(f"unknown index {index!r}")
    program = Program(formula)
    for kind, label, *_args in program.steps:
        if kind is Atom and label not in model.valuation:
            raise UndeclaredIdentifier(f"atom {label!r} is not declared in the model")
        if kind in (Box, Diamond) and label not in model.poset.indices:
            raise UndeclaredIdentifier(f"unknown index {label!r}")
    pos = {w: i for i, w in enumerate(model.worlds)}
    rows: dict[str, list[int]] = {}  # index -> successor mask of each world

    def atom(name: str) -> int:
        return sum(1 << pos[w] for w in model.valuation[name])

    def diamond(idx: str, x: int) -> int:
        if idx not in rows:
            rows[idx] = [0] * len(pos)
            for u, v in model.relations[idx]:
                rows[idx][pos[u]] |= 1 << pos[v]
        return sum(1 << i for i, row in enumerate(rows[idx]) if row & x)

    return program, program.run((1 << len(pos)) - 1, atom, diamond)


def satisfying_worlds(model: StratifiedModel, formula: Formula) -> frozenset[str]:
    """The set of worlds where `formula` holds."""
    mask = _world_masks(model, formula)[1][-1]
    return frozenset(w for i, w in enumerate(model.worlds) if mask >> i & 1)


def evaluate(model: StratifiedModel, world: str, index: str, formula: Formula) -> bool:
    """Truth of `formula` at `world`.

    `index` is the ambient evaluation level; it is validated and appears
    in traces but does not influence the verdict (see module docstring).
    Raises UndeclaredIdentifier for unknown worlds, indices, or atoms.
    """
    mask = _world_masks(model, formula, world, index)[1][-1]
    return bool(mask >> model.worlds.index(world) & 1)


@dataclass(frozen=True)
class EvalTrace:
    """One evaluation step: the verdict for `formula` at `world`, plus the
    sub-evaluations that decided it.

    For modal nodes, `witness` names the successor that settled the
    verdict early: the witness of a true diamond or the counterexample of
    a false box.  `children` holds every sub-evaluation actually
    performed, in a fixed order (operands left to right, successors in
    world declaration order, stopping at the deciding one).
    """

    world: str
    index: str
    formula: Formula
    verdict: bool
    children: tuple["EvalTrace", ...] = ()
    witness: str | None = None


def evaluate_with_trace(
    model: StratifiedModel, world: str, index: str, formula: Formula
) -> tuple[bool, EvalTrace]:
    """Like evaluate, but also returns the explanation tree."""
    program, masks = _world_masks(model, formula, world, index)
    pos = {w: i for i, w in enumerate(model.worlds)}

    def go(w: str, g: Formula, step: int) -> EvalTrace:
        kind, _label, *args = program.steps[step]
        verdict = bool(masks[step] >> pos[w] & 1)
        if kind not in (Box, Diamond):
            kids = tuple(go(w, c, a) for c, a in zip(children(g), args))
            return EvalTrace(w, index, g, verdict, kids)
        settles = kind is Diamond  # the child verdict that settles early
        examined: list[EvalTrace] = []
        for v in model.successors(g.index, w):
            examined.append(go(v, g.operand, args[0]))
            if examined[-1].verdict == settles:
                return EvalTrace(w, index, g, verdict, tuple(examined), v)
        return EvalTrace(w, index, g, verdict, tuple(examined))

    root = go(world, formula, len(masks) - 1)
    return root.verdict, root


def render_trace(trace: EvalTrace, depth: int = 0) -> str:
    """Indented text rendering of an evaluation trace."""
    pad = "  " * depth
    tail = ""
    if trace.witness is not None:
        role = "witness" if trace.verdict else "fails at"
        tail = f"  ({role} {trace.witness})"
    lines = [
        f"{pad}{trace.world} [{trace.index}] {print_formula(trace.formula)}"
        f" = {'true' if trace.verdict else 'false'}{tail}"
    ]
    for child in trace.children:
        lines.append(render_trace(child, depth + 1))
    return "\n".join(lines)


def is_admissible(
    model: StratifiedModel,
    world: str,
    index: str,
    formula: Formula,
    policy: FramePolicy = FramePolicy(),
) -> bool:
    """Whether `formula` can be reached from `world` through one `index`
    transition: the verdict of `<index> formula`.

    With policy.strict, any frame violation raises FrameViolation first;
    permissive policies evaluate regardless.
    """
    violations = validate_frame(model, policy)
    if violations and policy.strict:
        raise FrameViolation(violations)
    return evaluate(model, world, index, Diamond(index, formula))
