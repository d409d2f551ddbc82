"""Stratified satisfaction and frame validation.

Evaluation is the standard explicit-state labeling scheme: the set of
satisfying worlds is computed bottom-up for every subformula, which is
O(|formula| * |worlds|^2) in the worst case.  The ambient evaluation
index is carried through the API and the traces but cannot change a
verdict: each modal operator quantifies over the relation named by its
own subscript.  That independence is a tested property, not an
assumption.

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
    And,
    Atom,
    Box,
    CoherenceMode,
    Diamond,
    Formula,
    Implies,
    Not,
    Or,
    StratifiedModel,
    subformulas,
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


def _check_inputs(
    model: StratifiedModel,
    formula: Formula,
    world: str | None = None,
    index: str | None = None,
) -> None:
    if world is not None and world not in model.worlds:
        raise UndeclaredIdentifier(f"unknown world {world!r}")
    if index is not None and index not in model.poset.indices:
        raise UndeclaredIdentifier(f"unknown index {index!r}")
    for sub in subformulas(formula):
        if isinstance(sub, Atom) and sub.name not in model.valuation:
            raise UndeclaredIdentifier(f"atom {sub.name!r} is not declared in the model")
        if isinstance(sub, (Box, Diamond)) and sub.index not in model.poset.indices:
            raise UndeclaredIdentifier(f"unknown index {sub.index!r}")


def _labels(model: StratifiedModel, formula: Formula) -> dict[Formula, frozenset[str]]:
    full = frozenset(model.worlds)
    succ: dict[str, dict[str, frozenset[str]]] = {}

    def successors(index: str) -> dict[str, frozenset[str]]:
        if index not in succ:
            pairs = model.relations[index]
            succ[index] = {
                w: frozenset(v for v in model.worlds if (w, v) in pairs)
                for w in model.worlds
            }
        return succ[index]

    sat: dict[Formula, frozenset[str]] = {}
    for sub in subformulas(formula):
        if isinstance(sub, Atom):
            out = model.valuation[sub.name]
        elif isinstance(sub, Not):
            out = full - sat[sub.operand]
        elif isinstance(sub, And):
            out = sat[sub.left] & sat[sub.right]
        elif isinstance(sub, Or):
            out = sat[sub.left] | sat[sub.right]
        elif isinstance(sub, Implies):
            out = (full - sat[sub.left]) | sat[sub.right]
        elif isinstance(sub, Box):
            good = sat[sub.operand]
            rows = successors(sub.index)
            out = frozenset(w for w in model.worlds if rows[w] <= good)
        else:  # Diamond: _check_inputs has rejected every other node type
            good = sat[sub.operand]
            rows = successors(sub.index)
            out = frozenset(w for w in model.worlds if rows[w] & good)
        sat[sub] = out
    return sat


def satisfying_worlds(model: StratifiedModel, formula: Formula) -> frozenset[str]:
    """The set of worlds where `formula` holds."""
    _check_inputs(model, formula)
    return _labels(model, formula)[formula]


def evaluate(model: StratifiedModel, world: str, index: str, formula: Formula) -> bool:
    """Truth of `formula` at `world`.

    `index` is the ambient evaluation level; it is validated and appears
    in traces but does not influence the verdict (see module docstring).
    Raises UndeclaredIdentifier for unknown worlds, indices, or atoms.
    """
    _check_inputs(model, formula, world, index)
    return world in _labels(model, formula)[formula]


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
    _check_inputs(model, formula, world, index)

    def go(w: str, g: Formula) -> EvalTrace:
        if isinstance(g, Atom):
            return EvalTrace(w, index, g, w in model.valuation[g.name])
        if isinstance(g, Not):
            child = go(w, g.operand)
            return EvalTrace(w, index, g, not child.verdict, (child,))
        if isinstance(g, (And, Or, Implies)):
            left, right = go(w, g.left), go(w, g.right)
            if isinstance(g, And):
                verdict = left.verdict and right.verdict
            elif isinstance(g, Or):
                verdict = left.verdict or right.verdict
            else:
                verdict = (not left.verdict) or right.verdict
            return EvalTrace(w, index, g, verdict, (left, right))
        # Box or Diamond: _check_inputs has rejected every other node type.
        want = isinstance(g, Diamond)  # the verdict that settles early
        examined: list[EvalTrace] = []
        witness = None
        for v in model.successors(g.index, w):
            child = go(v, g.operand)
            examined.append(child)
            if child.verdict == want:
                witness = v
                break
        verdict = witness is not None if want else witness is None
        return EvalTrace(w, index, g, verdict, tuple(examined), witness)

    root = go(world, formula)
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
