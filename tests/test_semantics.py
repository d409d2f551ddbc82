import random
from dataclasses import dataclass

import pytest

from salogic import core, load_example_model, semantics
from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    CoherenceMode,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    Program,
    StratifiedModel,
    subformulas,
)
from salogic.errors import BoundsTooLarge, FrameViolation, ParseError, UndeclaredIdentifier
from salogic.proofs import (
    Axiom,
    Derivation,
    ModusPonens,
    Necessitation,
    ProofLine,
    check_derivation,
    is_tautology,
    match_axiom,
    propositional_skeleton,
)
from salogic.search import SearchBounds, decide_sat, decide_valid
from salogic.semantics import (
    _MAX_TRACE_LINES,
    EvalTrace,
    FramePolicy,
    VIOLATION_COHERENCE,
    VIOLATION_STABLE_REFLEXIVITY,
    Violation,
    evaluate,
    evaluate_with_trace,
    is_admissible,
    render_trace,
    satisfying_worlds,
    validate_frame,
)
from salogic.syntax import _LAYOUT, parse_formula, print_formula

from fuzz import random_formula, random_model
from oracles import naive_eval

SEC33 = load_example_model("sec33")


# --- frame validation -------------------------------------------------------


def _coherence_witnesses(violations):
    return {
        (v.index_pair, v.world_pair)
        for v in violations
        if v.kind == VIOLATION_COHERENCE
    }


def test_example_model_violates_shrink():
    violations = validate_frame(SEC33, FramePolicy(CoherenceMode.SHRINK))
    assert _coherence_witnesses(violations) == {
        (("alpha", "beta"), ("w1", "w0")),
        (("alpha", "beta"), ("w1", "w1")),
        (("alpha", "gamma"), ("w2", "w1")),
        (("alpha", "gamma"), ("w2", "w2")),
        (("beta", "gamma"), ("w2", "w1")),
        (("beta", "gamma"), ("w2", "w2")),
    }


def test_example_model_violates_grow():
    violations = validate_frame(SEC33, FramePolicy(CoherenceMode.GROW))
    witnesses = _coherence_witnesses(violations)
    assert (("alpha", "beta"), ("w0", "w0")) in witnesses
    assert witnesses == {
        (("alpha", "beta"), ("w0", "w0")),
        (("alpha", "gamma"), ("w0", "w0")),
        (("beta", "gamma"), ("w1", "w0")),
        (("beta", "gamma"), ("w1", "w1")),
    }


def test_example_model_clean_under_none():
    assert validate_frame(SEC33, FramePolicy(CoherenceMode.NONE)) == []



def test_frame_policy_coherence_must_be_a_mode():
    # A string would otherwise be scanned and validated as GROW.
    for bad in ("shrink", "bogus", None):
        with pytest.raises(TypeError):
            FramePolicy(bad)
    with pytest.raises(TypeError):
        FramePolicy(coherence="none", require_stable_reflexive=False)


def test_frame_policy_flags_must_be_bools():
    # A non-empty string would otherwise be read as True.
    for flags in (("false",), (False, "false"), (1,), (None, False)):
        with pytest.raises(TypeError):
            FramePolicy(CoherenceMode.NONE, *flags)


def test_stable_reflexivity_check():
    poset = IndexPoset.from_order(("a",), stable=("a",))
    m = StratifiedModel(poset, ("w0", "w1"), {"a": {("w0", "w0")}}, {})
    violations = validate_frame(m, FramePolicy(CoherenceMode.NONE))
    assert violations == [
        Violation(VIOLATION_STABLE_REFLEXIVITY, ("a", "a"), ("w1", "w1"))
    ]
    assert validate_frame(
        m, FramePolicy(CoherenceMode.NONE, require_stable_reflexive=False)
    ) == []


def test_violations_have_deterministic_order():
    first = validate_frame(SEC33, FramePolicy(CoherenceMode.SHRINK))
    assert first == validate_frame(SEC33, FramePolicy(CoherenceMode.SHRINK))
    assert [v.render() for v in first][:2] == [
        "coherence alpha<=beta w1->w0",
        "coherence alpha<=beta w1->w1",
    ]


# --- evaluation -------------------------------------------------------------


def test_worked_example_verdicts():
    assert evaluate(SEC33, "w1", "beta", parse_formula("<beta> p")) is True
    assert evaluate(SEC33, "w2", "gamma", parse_formula("[gamma] p")) is False
    # vacuous box: w2 has no alpha successors
    assert evaluate(SEC33, "w2", "gamma", parse_formula("[alpha] p")) is True
    assert evaluate(SEC33, "w2", "gamma", parse_formula("<gamma> <beta> p")) is True


def test_two_step_verdict_agrees_with_oracle():
    f = parse_formula("<gamma> <beta> p")
    assert naive_eval(SEC33, "w2", f) is True


def test_evaluate_rejects_undeclared_names():
    with pytest.raises(UndeclaredIdentifier):
        evaluate(SEC33, "w9", "beta", Atom("p"))
    with pytest.raises(UndeclaredIdentifier):
        evaluate(SEC33, "w0", "delta", Atom("p"))
    with pytest.raises(UndeclaredIdentifier):
        evaluate(SEC33, "w0", "beta", Atom("q"))
    with pytest.raises(UndeclaredIdentifier):
        evaluate(SEC33, "w0", "beta", Box("delta", Atom("p")))


def test_satisfying_worlds():
    assert satisfying_worlds(SEC33, parse_formula("<beta> p")) == frozenset({"w1"})
    assert satisfying_worlds(SEC33, parse_formula("~p")) == frozenset({"w1", "w2"})


def test_oracle_agreement_and_duality_fuzz():
    rng = random.Random(101)
    for _ in range(400):
        m = random_model(rng)
        f = random_formula(rng, 4, atoms=("p", "q"), indices=m.poset.indices)
        idx = rng.choice(m.poset.indices)
        dual_left = Diamond(idx, f)
        dual_right = Not(Box(idx, Not(f)))
        for w in m.worlds:
            assert evaluate(m, w, idx, f) == naive_eval(m, w, f)
            assert evaluate(m, w, idx, dual_left) == evaluate(m, w, idx, dual_right)


def test_wide_model_agrees_with_oracle():
    # Past 64 worlds a world mask no longer fits one machine word.
    rng = random.Random(107)
    worlds = tuple(f"w{i}" for i in range(70))
    relations = {
        idx: frozenset((u, rng.choice(worlds)) for u in worlds for _ in range(2))
        for idx in ("a", "b")
    }
    valuation = {atom: frozenset(rng.sample(worlds, 35)) for atom in ("p", "q")}
    m = StratifiedModel(IndexPoset.from_order(("a", "b")), worlds, relations, valuation)
    for _ in range(30):
        f = random_formula(rng, 3, atoms=("p", "q"))
        expected = frozenset(w for w in worlds if naive_eval(m, w, f))
        assert satisfying_worlds(m, f) == expected
        assert {w for w in worlds if evaluate(m, w, "a", f)} == expected


def test_deep_formulas_are_total():
    # A 3000-deep chain is far past the interpreter's recursion limit.
    boxed = Box("a", Atom("p"))
    deep = boxed
    for _ in range(3000):
        deep = Not(deep)
    worlds = ("w0", "w1")
    m = StratifiedModel(
        IndexPoset.from_order(("a",)),
        worlds,
        {"a": {("w0", "w0")}},
        {"p": {"w1"}},
    )
    assert satisfying_worlds(m, deep) == satisfying_worlds(m, boxed) == {"w1"}
    assert [evaluate(m, w, "a", deep) for w in worlds] == [False, True]
    assert evaluate(m, "w0", "a", Not(deep)) is True
    bounds = SearchBounds(2, 1)
    assert decide_valid(deep, bounds) == decide_valid(boxed, bounds)
    assert decide_sat(deep, bounds) == decide_sat(boxed, bounds)
    tautology = parse_formula("p | ~p")
    for _ in range(3000):
        tautology = Not(tautology)
    assert is_tautology(tautology) is True
    assert is_tautology(Not(tautology)) is False
    # Printing, with a round trip on text the parser nests no deeper than
    # its limit: a left-nested chain of conjunctions.
    assert print_formula(deep) == "~" * 3000 + "[a] p"
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_formula(print_formula(deep))
    chain = " & ".join(["p", "[a] p"] * 1500)
    assert print_formula(parse_formula(chain)) == chain
    # The A1 skeleton, and A1 itself.
    assert print_formula(propositional_skeleton(deep)) == "~" * 3000 + "m0_"
    poset, profile = m.poset, AxiomProfile.SECTION2
    assert match_axiom(Or(Not(deep), deep), "A1", poset, profile) is True
    assert match_axiom(deep, "A1", poset, profile) is False
    # Traces: 3000 negations, the box, and the successor that falsifies it.
    verdict, trace = evaluate_with_trace(m, "w0", "a", deep)
    assert verdict is evaluate(m, "w0", "a", deep) is False
    lines = render_trace(trace).split("\n")
    assert len(lines) == 3002
    assert lines[3000] == "  " * 3000 + "w0 [a] [a] p = false  (fails at w0)"
    assert lines[3001] == "  " * 3001 + "w0 [a] p = false"
    # The schemas, modus ponens and necessitation compare formulas.  Each
    # copy of the chain is built anew, so that no comparison can stop at
    # an object shared by both sides.
    def chain():
        f = boxed
        for _ in range(3000):
            f = Not(f)
        return f

    stable = IndexPoset.from_order(("a",), stable=("a",))
    instances = [
        (
            "K",
            Implies(
                Box("a", Implies(chain(), chain())),
                Implies(Box("a", chain()), Box("a", chain())),
            ),
        ),
        ("A2", Implies(Box("a", chain()), Box("a", chain()))),
        ("A3", Implies(Box("a", chain()), chain())),
        ("A4", Implies(Diamond("a", chain()), Diamond("a", chain()))),
        ("DDOWN", Implies(Diamond("a", chain()), Diamond("a", chain()))),
    ]
    for tag, formula in instances:
        profile = AxiomProfile.SECTION3 if tag == "A4" else AxiomProfile.SECTION2
        assert match_axiom(formula, tag, stable, profile) is True
    mismatch = Implies(Box("a", chain()), Box("a", Not(chain())))
    assert match_axiom(mismatch, "A2", stable, AxiomProfile.SECTION2) is False
    lines = [
        (Implies(chain(), chain()), Axiom("A1")),
        (Implies(Implies(chain(), chain()), Implies(chain(), chain())), Axiom("A1")),
        (Implies(chain(), chain()), ModusPonens(1, 2)),
        (Box("a", Implies(chain(), chain())), Necessitation("a", 3)),
        (Box("a", Implies(chain(), Not(chain()))), Necessitation("a", 3)),
        (instances[0][1], Axiom("K")),
    ]
    derivation = Derivation(
        tuple(ProofLine(i, f, j) for i, (f, j) in enumerate(lines, start=1)), stable
    )
    assert [line.accepted for line in check_derivation(derivation).lines] == [
        True, True, True, True, False, True
    ]


def test_node_subclasses_mean_their_base_type():
    @dataclass(frozen=True)
    class MyAnd(And):
        pass

    @dataclass(frozen=True)
    class MyBox(Box):
        pass

    sub = MyAnd(MyBox("a", Atom("p")), Not(Atom("p")))
    base = And(Box("a", Atom("p")), Not(Atom("p")))
    m = StratifiedModel(
        IndexPoset.from_order(("a",)), ("w0", "w1"), {"a": {("w1", "w0")}}, {"p": {"w1"}}
    )
    assert satisfying_worlds(m, sub) == satisfying_worlds(m, base) == {"w0"}
    assert print_formula(sub) == print_formula(base) == "[a] p & ~p"
    assert print_formula(propositional_skeleton(sub)) == "m0_ & ~p"
    for w in m.worlds:
        (verdict, trace), want = evaluate_with_trace(m, w, "a", sub), evaluate_with_trace(m, w, "a", base)
        assert verdict == want[0] and render_trace(trace) == render_trace(want[1])
    # Deduplication still tells a subclass node from an equal-looking base one.
    parts = (Atom("p"), sub.left, Not(Atom("p")), sub, base.left, base, And(sub, base))
    assert subformulas(And(sub, base)) == parts


def test_ambient_index_never_changes_verdicts():
    rng = random.Random(103)
    for _ in range(150):
        m = random_model(rng)
        f = random_formula(rng, 4, atoms=("p", "q"), indices=m.poset.indices)
        for w in m.worlds:
            verdicts = {evaluate(m, w, idx, f) for idx in m.poset.indices}
            assert len(verdicts) == 1


def _policy_models(rng, mode, count):
    for _ in range(count):
        m = random_model(rng, mode=mode, stable_reflexive=True)
        if validate_frame(m, FramePolicy(mode)) == []:
            yield m


def test_box_and_diamond_persistence_under_shrink():
    rng = random.Random(107)
    for m in _policy_models(rng, CoherenceMode.SHRINK, 300):
        f = random_formula(rng, 3, atoms=("p", "q"), indices=m.poset.indices)
        for low, high in m.poset.strict_pairs():
            for w in m.worlds:
                if evaluate(m, w, low, Box(low, f)):
                    assert evaluate(m, w, high, Box(high, f))
                if evaluate(m, w, high, Diamond(high, f)):
                    assert evaluate(m, w, low, Diamond(low, f))


def test_diamond_persistence_reverses_under_grow():
    rng = random.Random(109)
    for m in _policy_models(rng, CoherenceMode.GROW, 300):
        f = random_formula(rng, 3, atoms=("p", "q"), indices=m.poset.indices)
        for low, high in m.poset.strict_pairs():
            for w in m.worlds:
                if evaluate(m, w, low, Diamond(low, f)):
                    assert evaluate(m, w, high, Diamond(high, f))


def test_reflection_on_reflexive_relations():
    rng = random.Random(113)
    for _ in range(200):
        m = random_model(rng)
        diag = {(w, w) for w in m.worlds}
        f = random_formula(rng, 3, atoms=("p", "q"), indices=m.poset.indices)
        for idx in m.poset.indices:
            if not diag <= m.relations[idx]:
                continue
            for w in m.worlds:
                if evaluate(m, w, idx, Box(idx, f)):
                    assert evaluate(m, w, idx, f)


# --- traces -----------------------------------------------------------------


def _check_trace(model, trace: EvalTrace):
    f = trace.formula
    kids = trace.children
    if isinstance(f, Atom):
        assert trace.verdict == (trace.world in model.valuation[f.name])
        assert kids == ()
    elif isinstance(f, Not):
        assert len(kids) == 1 and trace.verdict == (not kids[0].verdict)
    elif isinstance(f, (Box, Diamond)):
        succ = model.successors(f.index, trace.world)
        examined = tuple(k.world for k in kids)
        want = isinstance(f, Diamond)
        if trace.witness is None:
            assert examined == succ  # exhausted every successor
            assert trace.verdict == (not want)
            assert all(k.verdict != want for k in kids)
        else:
            assert examined == succ[: len(examined)]
            assert examined[-1] == trace.witness
            assert kids[-1].verdict == want
            assert trace.verdict == want
    else:
        assert len(kids) == 2
        left, right = kids[0].verdict, kids[1].verdict
        expected = {
            "And": left and right,
            "Or": left or right,
            "Implies": (not left) or right,
        }[type(f).__name__]
        assert trace.verdict == expected
    for kid in kids:
        _check_trace(model, kid)


def test_traces_are_consistent_and_match_evaluate():
    rng = random.Random(127)
    for _ in range(200):
        m = random_model(rng)
        f = random_formula(rng, 4, atoms=("p", "q"), indices=m.poset.indices)
        w = rng.choice(m.worlds)
        idx = rng.choice(m.poset.indices)
        verdict, trace = evaluate_with_trace(m, w, idx, f)
        assert verdict == evaluate(m, w, idx, f)
        assert trace.world == w and trace.index == idx
        _check_trace(m, trace)
        assert render_trace(trace)  # renders without error


def test_trace_example_shape():
    verdict, trace = evaluate_with_trace(
        SEC33, "w1", "beta", parse_formula("<beta> p")
    )
    assert verdict is True
    assert trace.witness == "w0"
    assert "witness w0" in render_trace(trace)
    # A trace is a DAG: q at w0 is one node under both of its parents.
    m = StratifiedModel(IndexPoset.from_order(("a",)), ("w0",), {"a": {("w0", "w0")}}, {"q": {"w0"}})
    _, trace = evaluate_with_trace(m, "w0", "a", parse_formula("q & <a> q"))
    assert trace.children[0] is trace.children[1].children[0]
    assert render_trace(trace).count("w0 [a] q = true") == 2


def test_a_hand_built_trace_prints_formulas_outside_its_root():
    # A trace built by hand may hold formulas that are not subformulas of
    # its root, or equal ones that are other objects: each is printed
    # from its own formula.
    q_then_box = Implies(Atom("q"), Box("b", Not(Atom("r"))))
    not_r = EvalTrace("w2", "b", Not(Atom("r")), False)
    below = EvalTrace("w1", "a", q_then_box, False, (not_r,), "w2")
    other_p = EvalTrace("w0", "a", Atom("p"), True)
    trace = EvalTrace("w0", "a", Diamond("a", Atom("p")), False, (below, other_p), "w1")
    assert render_trace(trace, 1) == (
        "  w0 [a] <a> p = false  (fails at w1)\n"
        "    w1 [a] q -> [b] ~r = false  (fails at w2)\n"
        "      w2 [b] ~r = false\n"
        "    w0 [a] p = true"
    )


def test_render_trace_line_cap():
    # <a>^k p on n complete worlds with p nowhere renders
    # 1 + n + ... + n^k lines.
    def chain(n, k):
        worlds = tuple(f"w{i}" for i in range(n))
        complete = {(u, v) for u in worlds for v in worlds}
        m = StratifiedModel(IndexPoset.from_order(("a",)), worlds, {"a": complete}, {"p": set()})
        f = Atom("p")
        for _ in range(k):
            f = Diamond("a", f)
        return evaluate_with_trace(m, "w0", "a", f)[1]

    assert render_trace(chain(5, 6)).count("\n") + 1 == 19531
    assert render_trace(chain(6, 7)).count("\n") + 1 == 335923
    with pytest.raises(BoundsTooLarge, match="2015539 lines"):
        render_trace(chain(6, 8))


# The printer and render_trace as they were before a render compiled all of
# a trace's formulas at once, kept verbatim (but for the names) as the
# reference the one-compile render must match byte for byte: one line per
# path, each built with its own f-string, and a second compile for every
# formula that is not a subformula object of the root.
def _reference_step_texts(program: Program) -> list[str]:
    """The canonical text of every step of `program`, in step order."""
    texts: list[str] = []
    levels: list[int] = []
    for kind, label, *args in program.steps:
        layout, level, minimums = _LAYOUT[kind]
        operands = [
            texts[a] if levels[a] >= least else "(" + texts[a] + ")"
            for a, least in zip(args, minimums)
        ]
        texts.append(layout.format(label, *operands))
        levels.append(level)
    return texts


def _reference_print_formula(formula) -> str:
    return _reference_step_texts(Program(formula))[-1]


def _reference_render_trace(trace: EvalTrace, depth: int = 0) -> str:
    lines: dict[int, int] = {}  # id of a node -> lines it renders to
    stack = [trace]
    while stack:
        node = stack.pop()
        todo = [kid for kid in node.children if id(kid) not in lines]
        if todo:
            stack += [node, *todo]
        else:
            lines[id(node)] = 1 + sum(lines[id(kid)] for kid in node.children)
    if lines[id(trace)] > _MAX_TRACE_LINES:
        raise BoundsTooLarge(
            f"the trace renders to {lines[id(trace)]} lines, past the ceiling "
            f"of {_MAX_TRACE_LINES}"
        )
    program = Program(trace.formula)
    texts = {id(g): text for g, text in zip(program.nodes, _reference_step_texts(program))}
    out: list[str] = []
    stack = [iter((trace,))]  # the children left to print at each depth
    while stack:
        for node in stack[-1]:
            role = "witness" if node.verdict else "fails at"
            tail = "" if node.witness is None else f"  ({role} {node.witness})"
            text = texts.get(id(node.formula)) or _reference_print_formula(node.formula)
            verdict = "true" if node.verdict else "false"
            pad = "  " * (depth + len(stack) - 1)
            out.append(f"{pad}{node.world} [{node.index}] {text} = {verdict}{tail}")
            stack.append(iter(node.children))
            break
        else:
            stack.pop()
    return "\n".join(out)


@dataclass(frozen=True)
class _MyNot(Not):
    pass


@dataclass(frozen=True)
class _MyDiamond(Diamond):
    pass


def _random_trace(rng, size):
    """A hand-built trace DAG: each node reuses earlier ones as children,
    the same one possibly twice, and holds a subformula object of the
    root's formula, an equal copy of one, a formula outside the root, or
    a node subclass over one of those."""
    root = random_formula(rng, 4)
    inside = subformulas(root)
    nodes: list[EvalTrace] = []
    for i in range(size):
        pick = rng.randrange(4)
        formula = rng.choice(inside)
        if pick == 1:
            formula = parse_formula(print_formula(formula))  # equal, not the same
        elif pick == 2:
            formula = random_formula(rng, 3)
        elif pick == 3:
            formula = rng.choice([_MyNot(formula), _MyDiamond("b", formula)])
        if i == size - 1:
            formula = root
        kids = tuple(rng.choices(nodes, k=rng.randint(0, min(3, len(nodes)))))
        witness = rng.choice([None, "w0", "w1"])
        nodes.append(
            EvalTrace(rng.choice(("w0", "w1")), rng.choice("ab"), formula, rng.random() < 0.5, kids, witness)
        )
    return nodes[-1]


def test_render_trace_matches_the_reference():
    rng = random.Random(131)
    for _ in range(150):
        trace = _random_trace(rng, rng.randint(1, 12))
        for depth in range(-3, 4):
            assert render_trace(trace, depth) == _reference_render_trace(trace, depth)
    for _ in range(100):
        m = random_model(rng)
        f = random_formula(rng, 4, atoms=("p", "q"), indices=m.poset.indices)
        trace = evaluate_with_trace(m, rng.choice(m.worlds), rng.choice(m.poset.indices), f)[1]
        depth = rng.randint(-3, 3)
        assert render_trace(trace, depth) == _reference_render_trace(trace, depth)
    # Shared subtrees printed again at one level and at several: in a
    # ladder each node's children are the one below it twice and the one
    # two below, so every rung recurs at several levels.  On complete
    # relations, a formula whose modal subformulas recur under different
    # parents shares them across levels.
    rungs = [EvalTrace("w0", "a", Atom("p"), True), EvalTrace("w1", "b", Not(Atom("p")), False)]
    for i in range(8):
        below = rungs[-1]
        rungs.append(
            EvalTrace(f"w{i % 3}", "ab"[i % 2], Or(below.formula, rungs[-2].formula), i % 2 == 0,
                      (below, rungs[-2], below), "w1" if i % 3 else None)
        )
    worlds = ("w0", "w1", "w2")
    complete = {(u, v) for u in worlds for v in worlds}
    m = StratifiedModel(
        IndexPoset.from_order(("a", "b"), [("a", "b")]), worlds,
        {"a": complete, "b": complete}, {"p": {"w1"}, "q": set()},
    )
    f = parse_formula("<a>(q | <b>(q | [a]p)) & [b](<b>(q | [a]p) | [a]p)")
    for trace in (rungs[-1], *(evaluate_with_trace(m, w, "a", f)[1] for w in worlds)):
        for depth in range(-3, 4):
            assert render_trace(trace, depth) == _reference_render_trace(trace, depth)
    # A deep chain under three parents at three levels: X, with X a
    # 3000-deep Not chain over [a]p, in And(X, Or(X, Not(X))), 9,009 lines.
    deep = Box("a", Atom("p"))
    for _ in range(3000):
        deep = Not(deep)
    m = StratifiedModel(
        IndexPoset.from_order(("a",)), ("w0", "w1"), {"a": {("w0", "w0")}}, {"p": {"w1"}}
    )
    trace = evaluate_with_trace(m, "w0", "a", And(deep, Or(deep, Not(deep))))[1]
    text = render_trace(trace)
    assert text.count("\n") + 1 == 9009
    assert text == _reference_render_trace(trace)
    # One field that is not a formula: at the root, below it, or inside a
    # formula; the error is the reference's, word for word.
    good = EvalTrace("w1", "a", Atom("p"), True)
    for bad in (7, Not("x"), And(Atom("p"), None)):
        for trace in (
            EvalTrace("w0", "a", bad, True, (good,)),
            EvalTrace("w0", "a", Atom("q"), False, (good, EvalTrace("w1", "a", bad, False))),
        ):
            with pytest.raises(TypeError) as want:
                _reference_render_trace(trace)
            with pytest.raises(TypeError) as got:
                render_trace(trace)
            assert str(got.value) == str(want.value)


def test_render_trace_compiles_once(monkeypatch):
    walks = []
    walk = core._walk

    def counted(*formulas):
        walks.append(formulas)
        return walk(*formulas)

    monkeypatch.setattr(core, "_walk", counted)
    # Five lines whose formulas lie outside the root's formula, one of them
    # an equal copy of it: a second compile for each would make six walks.
    kids = (EvalTrace("w0", "a", Atom("q"), True), EvalTrace("w1", "a", Not(Atom("r")), False))
    trace = EvalTrace("w0", "a", Atom("p"), True, (*kids, EvalTrace("w0", "b", Atom("p"), True, kids)))
    assert render_trace(trace).count("\n") == 5
    assert len(walks) == 1
    _, trace = evaluate_with_trace(SEC33, "w2", "gamma", parse_formula("[gamma] p"))
    walks.clear()
    lines = render_trace(trace).count("\n") + 1
    assert len(walks) == 1
    # A refused render compiles nothing.
    monkeypatch.setattr(semantics, "_MAX_TRACE_LINES", lines - 1)
    walks.clear()
    with pytest.raises(BoundsTooLarge, match=f"renders to {lines} lines, past the ceiling of {lines - 1}$"):
        render_trace(trace)
    assert walks == []


# --- admissibility ----------------------------------------------------------


def test_is_admissible_examples():
    none = FramePolicy(CoherenceMode.NONE)
    assert is_admissible(SEC33, "w1", "beta", Atom("p"), none) is True
    # no successors at all: nothing is admissible
    poset = IndexPoset.from_order(("a",))
    empty = StratifiedModel(poset, ("w0",), {}, {"p": {"w0"}})
    assert is_admissible(empty, "w0", "a", Atom("p"), none) is False
    with pytest.raises(FrameViolation):
        is_admissible(
            SEC33,
            "w1",
            "beta",
            Atom("p"),
            FramePolicy(CoherenceMode.SHRINK, strict=True),
        )
    # permissive mode evaluates despite the violations
    assert (
        is_admissible(SEC33, "w1", "beta", Atom("p"), FramePolicy(CoherenceMode.SHRINK))
        is True
    )
