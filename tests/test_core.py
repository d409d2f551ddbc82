import random
from dataclasses import dataclass

import pytest

from salogic import core

from salogic.core import (
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    Program,
    StratifiedModel,
    atom_names,
    children,
    modal_indices,
    poset_closure,
    subformulas,
)
from salogic.errors import CycleError, UndeclaredIdentifier

from fuzz import random_formula


def test_closure_transitive_and_reflexive():
    out = poset_closure([("a", "b"), ("b", "c")], ["a", "b", "c"])
    assert ("a", "c") in out
    assert {("a", "a"), ("b", "b"), ("c", "c")} <= out
    assert out == frozenset(
        [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")]
    )


def test_closure_of_nothing_is_reflexive():
    assert poset_closure([], ["a"]) == frozenset([("a", "a")])


def test_closure_rejects_cycles():
    with pytest.raises(CycleError):
        poset_closure([("a", "b"), ("b", "a")], ["a", "b"])
    with pytest.raises(CycleError):
        poset_closure([("a", "b"), ("b", "c"), ("c", "a")], ["a", "b", "c"])


def test_closure_rejects_unknown_elements():
    with pytest.raises(UndeclaredIdentifier):
        poset_closure([("a", "x")], ["a"])


def test_closure_names_a_fixed_offender():
    # The least undeclared name by repr, whatever order the generators
    # come in; non-string junk is reported the same way.
    cases = [
        ([("a", "z"), ("a", "y")], "'y'"),
        (frozenset({("a", "z"), ("y", "a"), ("a", "x")}), "'x'"),
    ]
    for pairs, name in cases:
        with pytest.raises(UndeclaredIdentifier) as err:
            poset_closure(pairs, ["a"], "index")
        assert str(err.value) == f"order generator mentions undeclared index {name}"
    with pytest.raises(UndeclaredIdentifier, match="undeclared element 'x'"):
        poset_closure([("a", 3), ("a", "x")], ["a"])  # repr "'x'" < "3"
    with pytest.raises(UndeclaredIdentifier, match="undeclared element 3"):
        poset_closure([(3, "a")], ["a"])
    # A cycle names the first element on one, with the first element it
    # is ordered both ways with.
    with pytest.raises(CycleError) as err:
        poset_closure([("b", "c_1"), ("c_1", "a"), ("a", "b")], ["b", "c_1", "a"], "index")
    assert str(err.value) == "'b' and 'c_1' are ordered in both directions"
    with pytest.raises(CycleError) as err:
        poset_closure([("c", "d"), ("d", "c"), ("b", "a"), ("a", "b")], ["d", "a", "b", "c"])
    assert str(err.value) == "'d' and 'c' are ordered in both directions"


def test_closure_idempotent():
    rng = random.Random(7)
    elements = ["a", "b", "c", "d"]
    for _ in range(200):
        pairs = [
            (elements[i], elements[j])
            for i in range(4)
            for j in range(i + 1, 4)
            if rng.random() < 0.4
        ]
        once = poset_closure(pairs, elements)
        assert poset_closure(once, elements) == once


def test_poset_validates_stored_order():
    with pytest.raises(ValueError):
        IndexPoset(("a", "b"), frozenset([("a", "a")]))  # not reflexively closed
    with pytest.raises(ValueError):
        IndexPoset(
            ("a", "b", "c"),
            frozenset(
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
            ),  # missing (a, c)
        )
    with pytest.raises(UndeclaredIdentifier):
        IndexPoset.from_order(("a",), stable=("b",))
    with pytest.raises(UndeclaredIdentifier, match=r"undeclared indices: \['x', 1\]"):
        IndexPoset.from_order(("a",), stable=(1, "x"))
    with pytest.raises(ValueError):
        IndexPoset((), frozenset())


def test_poset_rejects_duplicates_undeclared_pairs_and_stored_cycles():
    with pytest.raises(ValueError, match="duplicate index 'a'"):
        IndexPoset(("a", "a"), frozenset([("a", "a")]))
    with pytest.raises(UndeclaredIdentifier, match="undeclared index 'z'"):
        IndexPoset(("a",), frozenset([("a", "a"), ("a", "z")]))
    # Of several undeclared indices, the least is named.
    with pytest.raises(UndeclaredIdentifier) as err:
        IndexPoset(("a",), frozenset({("a", "a"), ("a", "x"), ("a", "y"), ("a", "z")}))
    assert str(err.value) == "order generator mentions undeclared index 'x'"
    cycle = frozenset([("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        IndexPoset(("a", "b"), cycle)


def test_poset_and_model_keep_their_name_messages():
    poset = IndexPoset.from_order(("a",))
    cases = [
        (lambda: IndexPoset((), frozenset()), "a poset needs at least one index"),
        (lambda: IndexPoset(("a", "a"), frozenset([("a", "a")])), "duplicate index 'a'"),
        (lambda: StratifiedModel(poset, (), {}, {}), "a model needs at least one world"),
        (lambda: StratifiedModel(poset, ("w0", "w0"), {}, {}), "duplicate world 'w0'"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    with pytest.raises(ValueError, match=r"index must match .*, got 'a b'"):
        IndexPoset(("a b",), frozenset())
    with pytest.raises(ValueError, match=r"world must match .*, got 3"):
        StratifiedModel(poset, (3,), {}, {})


def test_poset_helpers():
    poset = IndexPoset.from_order(("b", "a"), [("b", "a")])
    assert poset.leq("b", "a")
    assert not poset.leq("a", "b")
    assert poset.strict_pairs() == (("b", "a"),)
    assert poset.ordered_pairs() == (("b", "b"), ("b", "a"), ("a", "a"))
    with pytest.raises(UndeclaredIdentifier):
        poset.leq("a", "z")


def test_subformulas_examples():
    p, q = Atom("p"), Atom("q")
    assert subformulas(p) == (p,)
    f = Box("a", Implies(p, q))
    assert subformulas(f) == (p, q, Implies(p, q), f)
    g = Diamond("b", Diamond("b", p))
    assert subformulas(g) == (p, Diamond("b", p), g)
    # Equal copies are kept once, as the first one met bottom-up.
    h = And(Box("a", Atom("p")), Box("a", Atom("p")))
    assert subformulas(h) == (p, Box("a", p), h)
    assert subformulas(h)[1] is h.left


def test_subformulas_of_a_deep_chain():
    p = Atom("p")
    f = Diamond("b", p)
    for _ in range(3000):
        f = Not(f)
    subs = subformulas(f)
    assert len(subs) == 3002
    assert subs[0] is p and subs[-1] is f
    assert atom_names(f) == ("p",)
    assert modal_indices(f) == ("b",)


def _node_count(f):
    return 1 + sum(_node_count(c) for c in children(f))


def test_subformulas_properties():
    rng = random.Random(11)
    for _ in range(300):
        f = random_formula(rng, 6)
        subs = subformulas(f)
        assert len(set(subs)) == len(subs)
        assert subs[-1] == f
        assert len(subs) <= _node_count(f)
        seen = set()
        for g in subs:
            # bottom-up: children appear before their parents
            assert all(c in seen for c in children(g))
            seen.add(g)
            assert set(subformulas(g)) <= set(subs)


def _two_visit_walk(*formulas):
    """The reference for core._walk: each node is popped twice, first to
    push itself back with its parts above its children, then to take its
    step once they have theirs."""
    found, steps, keys, seen = [], [], {}, {}
    stack = [(formula, None, ()) for formula in reversed(formulas)]
    while stack:
        g, kind, kids = stack.pop()
        if id(g) in seen:
            continue
        if kind is None:
            kind, kids = core._parts(g)
            stack.append((g, kind, kids))
            stack.extend([(child, None, ()) for child in reversed(kids)])
            continue
        label = g.name if kind is Atom else getattr(g, "index", None)
        key = (type(g), label, *[seen[id(c)] for c in kids])
        pos = keys.setdefault(key, len(found))
        if pos == len(found):
            found.append(g)
            steps.append(key if key[0] is kind else (kind, *key[1:]))
        seen[id(g)] = pos
    return found, steps, [seen[id(formula)] for formula in formulas]


@dataclass(frozen=True)
class _MyAtom(Atom):
    pass


@dataclass(frozen=True)
class _MyNot(Not):
    pass


@dataclass(frozen=True)
class _MyOr(Or):
    pass


@dataclass(frozen=True)
class _MyDiamond(Diamond):
    pass


def _random_dag(rng, size):
    """A formula over a pool of nodes that later nodes reuse by identity,
    with equal copies and node subclasses mixed in."""
    pool = [Atom("p"), Atom("q"), _MyAtom("p")]
    for _ in range(size):
        pick = rng.randrange(9)
        x, y = rng.choice(pool), rng.choice(pool)
        if pick == 0:
            pool.append(random_formula(rng, 2))
        elif pick == 1:
            pool.append(rng.choice([Not, _MyNot])(x))
        elif pick < 5:
            pool.append(rng.choice([And, Or, Implies, _MyOr])(x, y))
        else:
            pool.append(rng.choice([Box, Diamond, _MyDiamond])(rng.choice("ab"), x))
    return pool[-1]


def _assert_walks_agree(*formulas):
    got, want = core._walk(*formulas), _two_visit_walk(*formulas)
    assert len(got[0]) == len(want[0])
    assert all(a is b for a, b in zip(got[0], want[0]))
    assert got[1:] == want[1:]


def test_walk_matches_the_two_visit_reference():
    rng = random.Random(29)
    for _ in range(300):
        _assert_walks_agree(random_formula(rng, rng.randint(0, 6)))
    for _ in range(200):
        roots = [_random_dag(rng, rng.randint(1, 30)) for _ in range(rng.randint(1, 4))]
        roots.append(rng.choice(roots))  # a root given twice
        roots.append(random_formula(random.Random(rng.randrange(99)), 3))
        _assert_walks_agree(*roots)
    # A subclass node gets its base type's step and a position of its own.
    f = And(_MyNot(Atom("p")), Not(Atom("p")))
    assert core._walk(f)[1] == [(Atom, "p"), (Not, None, 0), (Not, None, 0), (And, None, 1, 2)]
    chain = Atom("p")
    for i in range(5000):
        chain = Box("a", chain) if i % 3 else Not(chain)
    _assert_walks_agree(chain, Not(chain), chain.operand)
    # The first non-formula met, left to right, is the one reported.
    bad = And(Not(Atom("p")), Or(Atom("q"), 7))
    for walk in (core._walk, _two_visit_walk):
        with pytest.raises(TypeError, match="not a formula: 7"):
            walk(Atom("p"), And(bad, Not("x")))


def test_atom_and_index_collectors():
    f = And(Box("b", Atom("q")), Diamond("a", Atom("p")))
    assert atom_names(f) == ("p", "q")
    assert modal_indices(f) == ("a", "b")
    # A program sets every attribute at construction; none is computed later.
    assert vars(Program(f)).keys() == {"nodes", "steps", "roots", "atoms", "indices"}
    program = Program(f)
    assert (program.atoms, program.indices) == (("p", "q"), ("a", "b"))


def test_formula_identifier_validation():
    with pytest.raises(ValueError):
        Atom("not an ident")
    with pytest.raises(ValueError):
        Box("", Atom("p"))


def test_program_rejects_a_non_formula():
    with pytest.raises(TypeError, match="not a formula: 42"):
        Program(42)


def test_formula_equality_is_syntactic():
    assert Not(Not(Atom("p"))) != Atom("p")
    assert Diamond("a", Atom("p")) != Not(Box("a", Not(Atom("p"))))
    assert Box("a", Atom("p")) == Box("a", Atom("p"))


def test_model_normalizes_missing_relations():
    poset = IndexPoset.from_order(("a", "b"))
    m = StratifiedModel(poset, ("w0",), {}, {})
    assert m.relations == {"a": frozenset(), "b": frozenset()}
    assert m.atoms == ()


def test_model_validates_members():
    poset = IndexPoset.from_order(("a",))
    with pytest.raises(UndeclaredIdentifier):
        StratifiedModel(poset, ("w0",), {"a": {("w0", "w9")}}, {})
    with pytest.raises(UndeclaredIdentifier):
        StratifiedModel(poset, ("w0",), {"z": set()}, {})
    with pytest.raises(UndeclaredIdentifier):
        StratifiedModel(poset, ("w0",), {}, {"p": {"w9"}})
    with pytest.raises(ValueError):
        StratifiedModel(poset, (), {}, {})
    with pytest.raises(ValueError):
        StratifiedModel(poset, ("w0", "w0"), {}, {})


def test_model_names_the_least_undeclared_world():
    poset = IndexPoset.from_order(("a",))
    rel = {"a": {("w0", "x1"), ("w0", "y2"), ("w0", "z3")}}
    with pytest.raises(UndeclaredIdentifier) as err:
        StratifiedModel(poset, ("w0",), rel, {})
    assert str(err.value) == "relation for 'a' mentions undeclared world 'x1'"
    with pytest.raises(UndeclaredIdentifier) as err:
        StratifiedModel(poset, ("w0",), {}, {"p": {"q1", "q2", "q3"}})
    assert str(err.value) == "valuation of 'p' mentions undeclared world 'q1'"
    with pytest.raises(UndeclaredIdentifier) as err:
        StratifiedModel(poset, ("w0",), {}, {"p": {"q1", 7}})
    assert str(err.value) == "valuation of 'p' mentions undeclared world 'q1'"


def test_model_world_order_closed_and_checked():
    poset = IndexPoset.from_order(("a",))
    m = StratifiedModel(
        poset, ("w0", "w1", "w2"), {}, {}, world_order=[("w0", "w1"), ("w1", "w2")]
    )
    assert ("w0", "w2") in m.world_order
    assert ("w0", "w0") in m.world_order
    with pytest.raises(CycleError):
        StratifiedModel(poset, ("w0", "w1"), {}, {}, world_order=[("w0", "w1"), ("w1", "w0")])


def test_model_successors_in_declaration_order():
    poset = IndexPoset.from_order(("a",))
    m = StratifiedModel(
        poset,
        ("w0", "w1", "w2"),
        {"a": {("w0", "w2"), ("w0", "w1")}},
        {},
    )
    assert m.successors("a", "w0") == ("w1", "w2")
    assert m.successors("a", "w1") == ()
    with pytest.raises(UndeclaredIdentifier, match="unknown index 'z'"):
        m.successors("z", "w0")
    with pytest.raises(UndeclaredIdentifier, match="unknown world 'w9'"):
        m.successors("a", "w9")
