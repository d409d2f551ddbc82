"""Stratified satisfaction and frame validation.

Evaluation runs the formula's bit-set program (core.Program) over world
masks, Python ints whose bit i stands for the i-th declared world: each
distinct subformula costs O(|worlds|) operations on |worlds|-bit ints,
its diamonds included.  The ambient evaluation index is carried through
the API and the traces but cannot change a verdict: each modal operator
quantifies over the relation named by its own subscript.  That
independence is a tested property, not an assumption.

A trace is built with one node per reachable (world, step) pair of the
program, its verdict read from the same masks, and parents share their
children, so building costs O(reachable pairs).  Rendered, it has one
line per path from the root, which is exponential in modal depth:
render_trace counts the lines first and refuses past _MAX_TRACE_LINES.
Below that, it builds one line text per distinct node, from one compile
of all their formulas.  A subtree is printed line by line the first time
it appears at a level; each later appearance at that level is one slice
copy of those lines, so the render's loop runs once per distinct (node,
level) pair and once per edge below one.

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
    _pair_order,
)
from .errors import BoundsTooLarge, FrameViolation, UndeclaredIdentifier
from .syntax import _texts

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

_MAX_TRACE_LINES = 1_000_000  # lines past which render_trace refuses


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

    def __post_init__(self):
        if not isinstance(self.coherence, CoherenceMode):
            raise TypeError(f"not a coherence mode: {self.coherence!r}")
        for name in ("require_stable_reflexive", "strict"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")


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


def _inclusion(policy: FramePolicy, low: str, high: str) -> tuple[str, str]:
    """The index pair (sub, sup) whose relations the policy nests for
    low <= high: R_sub must lie within R_sup."""
    return (high, low) if policy.coherence is CoherenceMode.SHRINK else (low, high)


def validate_frame(model: StratifiedModel, policy: FramePolicy) -> list[Violation]:
    """All frame violations of `model` under `policy`.

    Coherence violations list every relation pair missing from the
    inclusion the mode demands (see _inclusion), one Violation per pair:
    under SHRINK a pair sits in the higher relation but not the lower
    one, under GROW the other way around.  Stable-reflexivity violations
    list every missing reflexive pair at a stable index.  The list order
    is deterministic (index declaration order, then world declaration
    order).  An empty list means the frame meets every active constraint.
    """
    out: list[Violation] = []
    if policy.coherence is not CoherenceMode.NONE:
        in_order = _pair_order(model.worlds)
        for low, high in model.poset.strict_pairs():
            sub, sup = _inclusion(policy, low, high)
            for pair in in_order(model.relations[sub] - model.relations[sup]):
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
    """The program of `formula` and its _masks in `model`.

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
    return program, _masks(model, program)


def _masks(model: StratifiedModel, program: Program) -> list[int]:
    """The worlds where each step of `program` holds, as ints whose bit i
    stands for the i-th declared world.  The model must declare every
    atom and index the program names."""
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

    return program.run((1 << len(pos)) - 1, atom, diamond)


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
    world declaration order, stopping at the deciding one).  A trace from
    evaluate_with_trace is a DAG: one node object stands for each (world,
    subformula) it reaches and may be the child of several parents.
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
    built: dict[tuple[str, int], EvalTrace] = {}  # (world, step) -> its node
    root = (world, len(masks) - 1)
    stack = [root]
    while stack:
        w, step = key = stack.pop()
        kind, label, *args = program.steps[step]
        kids, witness = [(w, a) for a in args], None
        if kind in (Box, Diamond):
            kids = []
            for v in model.successors(label, w):
                kids.append((v, args[0]))
                if masks[args[0]] >> pos[v] & 1 == (kind is Diamond):  # settles it
                    witness = v
                    break
        todo = [kid for kid in kids if kid not in built]
        if todo:
            stack += [key, *todo]
        elif key not in built:
            verdict = bool(masks[step] >> pos[w] & 1)
            below = tuple(built[kid] for kid in kids)
            built[key] = EvalTrace(w, index, program.nodes[step], verdict, below, witness)
    return built[root].verdict, built[root]


def render_trace(trace: EvalTrace, depth: int = 0) -> str:
    """Indented text rendering of an evaluation trace, one line per node
    below its parent; a node shared by several parents is printed under each.

    Each distinct node's line text is built once, its formula printed
    from one compile of all the trace's formulas.  A subtree printed
    again at the same level costs one slice copy of the lines its first
    print there made.  Raises BoundsTooLarge, before building any text,
    when that is more than _MAX_TRACE_LINES lines."""
    lines: dict[int, int] = {}  # id of a node -> lines it renders to
    nodes: list[EvalTrace] = []  # each distinct node once, children first
    stack = [trace]
    while stack:
        node = stack.pop()
        todo = [kid for kid in node.children if id(kid) not in lines]
        if todo:
            stack += [node, *todo]
        elif id(node) not in lines:
            lines[id(node)] = 1 + sum(lines[id(kid)] for kid in node.children)
            nodes.append(node)
    if lines[id(trace)] > _MAX_TRACE_LINES:
        raise BoundsTooLarge(
            f"the trace renders to {lines[id(trace)]} lines, past the ceiling "
            f"of {_MAX_TRACE_LINES}"
        )
    line_of: dict[int, str] = {}  # id of a node -> its line, unindented
    for node, text in zip(nodes, _texts(*(node.formula for node in nodes))):
        role = "witness" if node.verdict else "fails at"
        tail = "" if node.witness is None else f"  ({role} {node.witness})"
        verdict = "true" if node.verdict else "false"
        line_of[id(node)] = f"{node.world} [{node.index}] {text} = {verdict}{tail}"
    out: list[str] = []
    first: dict[tuple[int, int], int] = {}  # (id of a node, level) -> its first line in out
    pending = [(trace, depth)]  # the nodes left to print, next on top
    while pending:
        node, level = pending.pop()
        if node.children:  # most lines are leaves, with no subtree to record or copy
            key = (id(node), level)
            if key in first:  # its first print is done: every line below it sits deeper
                start = first[key]
                out += out[start : start + lines[id(node)]]
                continue
            first[key] = len(out)
            pending += [(kid, level + 1) for kid in reversed(node.children)]
        out.append("  " * level + line_of[id(node)])
    return "\n".join(out)


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
