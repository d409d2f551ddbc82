import random

import pytest

from salogic.core import (
    Atom,
    AxiomProfile,
    Box,
    CoherenceMode,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    StratifiedModel,
)
import salogic.core as core
import salogic.search as search
from salogic.errors import BoundsTooLarge, UndeclaredIdentifier
from salogic.search import (
    Counterexample,
    Satisfiable,
    SearchBounds,
    UnsatUpTo,
    ValidUpTo,
    axiom_matrix,
    decide_sat,
    decide_valid,
    enumerated_posets,
    schema_instance,
)
from salogic.semantics import FramePolicy, evaluate, validate_frame
from salogic.syntax import parse_formula, print_model

from fuzz import random_formula
from oracles import first_countermodel, naive_eval

CHAIN = IndexPoset.from_order(("a", "b"), [("a", "b")])
SHRINK = FramePolicy(CoherenceMode.SHRINK)
GROW = FramePolicy(CoherenceMode.GROW)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(0, 1)
    with pytest.raises(ValueError):
        SearchBounds(1, 0)
    # Non-int sizes and a string of atoms are rejected up front, not read
    # as a misleading ceiling, a late range() error or one atom per letter.
    for max_worlds, max_indices in ((2, 1.5), (2.5, 1), (True, 1), (1, False), ("2", 1)):
        with pytest.raises(TypeError):
            SearchBounds(max_worlds, max_indices)
    with pytest.raises(TypeError):
        SearchBounds(2, 1, atoms="pq")
    assert SearchBounds(2, 1, atoms=["q", "p"]).atoms == ("p", "q")
    with pytest.raises(BoundsTooLarge):
        enumerated_posets(3)


def test_classical_tautology_is_valid():
    verdict = decide_valid(parse_formula("p | ~p"), SearchBounds(2, 2))
    assert isinstance(verdict, ValidUpTo)


def test_reflection_valid_on_stable_reflexive_poset():
    poset = IndexPoset.from_order(("a",), stable=("a",))
    verdict = decide_valid(
        parse_formula("[a]p -> p"), SearchBounds(3, 1, poset=poset), SHRINK
    )
    assert isinstance(verdict, ValidUpTo)


# Frozen from the object-level oracle scan (see test below): the first
# frame-passing falsifier of <a>p -> <b>p on the shrink chain is the
# single reflexive world with p true and an empty upper relation.
def test_a4_countermodel_on_shrink_chain():
    formula = parse_formula("<a>p -> <b>p")
    verdict = decide_valid(formula, SearchBounds(2, 2, poset=CHAIN), SHRINK)
    assert isinstance(verdict, Counterexample)
    assert verdict.world == "w0" and verdict.index == "a"
    assert verdict.model.worlds == ("w0",)
    assert verdict.model.relations == {
        "a": frozenset({("w0", "w0")}),
        "b": frozenset(),
    }
    assert verdict.model.valuation == {"p": frozenset({"w0"})}
    assert evaluate(verdict.model, "w0", "a", formula) is False
    assert validate_frame(verdict.model, SHRINK) == []


def test_cited_two_world_candidate_also_falsifies():
    # a larger hand-built witness for the same schema: one a-transition into
    # the p-world, empty b-relation (a subset, so shrink-coherent)
    model = StratifiedModel(
        CHAIN,
        ("w0", "w1"),
        {"a": {("w0", "w1")}, "b": set()},
        {"p": {"w1"}},
    )
    assert validate_frame(model, SHRINK) == []
    assert evaluate(model, "w0", "a", parse_formula("<a>p -> <b>p")) is False
    assert naive_eval(model, "w0", parse_formula("<a>p -> <b>p")) is False


def test_scan_matches_object_level_oracle():
    rng = random.Random(311)
    policies = [SHRINK, GROW, FramePolicy(CoherenceMode.NONE)]
    for _ in range(60):
        formula = random_formula(rng, 3, atoms=("p",), indices=("a", "b"))
        policy = rng.choice(policies)
        bounds = SearchBounds(2, 2, poset=CHAIN)
        got = decide_valid(formula, bounds, policy)
        expected = first_countermodel(formula, (CHAIN,), 2, policy, ("p",))
        if expected is None:
            assert isinstance(got, ValidUpTo)
        else:
            model, world = expected
            assert isinstance(got, Counterexample)
            assert got.model == model and got.world == world


def test_scan_matches_oracle_over_enumerated_posets():
    # exercises the block order across poset shapes and world counts
    rng = random.Random(312)
    shapes = enumerated_posets(2)
    for _ in range(25):
        formula = random_formula(rng, 3, atoms=("p",), indices=("a", "b"))
        got = decide_valid(formula, SearchBounds(2, 2), SHRINK)
        expected = first_countermodel(formula, shapes, 2, SHRINK, ("p",))
        if expected is None:
            assert isinstance(got, ValidUpTo)
        else:
            model, world = expected
            assert isinstance(got, Counterexample)
            assert got.model == model and got.world == world


def test_counterexamples_reverify_and_validate():
    rng = random.Random(313)
    found = 0
    for _ in range(40):
        formula = random_formula(rng, 4, atoms=("p", "q"), indices=("a", "b"))
        verdict = decide_valid(formula, SearchBounds(2, 2), SHRINK)
        if isinstance(verdict, Counterexample):
            found += 1
            assert naive_eval(verdict.model, verdict.world, formula) is False
            assert validate_frame(verdict.model, SHRINK) == []
    assert found > 10


def test_anti_monotonicity_of_counterexamples():
    rng = random.Random(317)
    checked = 0
    for _ in range(40):
        formula = random_formula(rng, 3, atoms=("p",), indices=("a",))
        small = decide_valid(formula, SearchBounds(2, 1), SHRINK)
        if isinstance(small, Counterexample):
            big = decide_valid(formula, SearchBounds(3, 2), SHRINK)
            assert isinstance(big, Counterexample)
            checked += 1
    assert checked > 5


def test_sat_examples():
    assert isinstance(decide_sat(parse_formula("p & ~p"), SearchBounds(2, 2)), UnsatUpTo)
    verdict = decide_sat(parse_formula("<a>p"), SearchBounds(2, 1))
    assert isinstance(verdict, Satisfiable)
    assert len(verdict.model.worlds) <= 2
    assert evaluate(verdict.model, verdict.world, verdict.index, parse_formula("<a>p"))
    contradiction = parse_formula("[a]p & <a>~p")
    assert isinstance(decide_sat(contradiction, SearchBounds(3, 1)), UnsatUpTo)


def test_sat_is_the_exact_dual_of_valid():
    rng = random.Random(331)
    for _ in range(40):
        formula = random_formula(rng, 3, atoms=("p",), indices=("a", "b"))
        bounds = SearchBounds(2, 2)
        sat = decide_sat(formula, bounds, SHRINK)
        dual = decide_valid(Not(formula), bounds, SHRINK)
        if isinstance(sat, Satisfiable):
            assert isinstance(dual, Counterexample)
            assert (sat.model, sat.world, sat.index) == (
                dual.model,
                dual.world,
                dual.index,
            )
        else:
            assert isinstance(dual, ValidUpTo)


def test_determinism_and_worker_equivalence():
    formulas = [
        parse_formula("<a>p -> <b>p"),
        parse_formula("[a]p -> [b]p"),
        parse_formula("p | ~p"),
        parse_formula("<a>(p & ~p)"),
    ]
    for formula in formulas:
        runs = [
            decide_valid(formula, SearchBounds(2, 2), SHRINK, workers=workers)
            for workers in (1, 2, 5)
        ]
        assert runs[0] == runs[1] == runs[2]
        again = decide_valid(formula, SearchBounds(2, 2), SHRINK)
        assert again == runs[0]


def test_small_slabs_and_worker_counts_keep_witnesses(monkeypatch):
    # A slab of 4 lanes holds one relation tuple of a 2-world block with
    # one atom (and a quarter of one with two), so the blocks split into many
    # slabs.  Only `a` is named here: one world has no countermodel, and
    # on two worlds the projection onto `a` hits.
    spread = parse_formula("p -> [a]p")
    # Needs both worlds a-reflexive and a b-pair.
    late = parse_formula("~(<a>(p & <a>p) & <a>(~p & <a>~p) & <b>p)")
    tautology = parse_formula("p | ~p")
    formulas = [
        parse_formula("<a>p -> <b>p"),
        parse_formula("[a]p -> [b]p"),
        tautology,
        parse_formula("<a>(p & ~p)"),
        spread,
        late,
        parse_formula("[b](p -> q) -> ([b]p -> [b]q) & (<a>q -> p)"),
    ]
    bounds = SearchBounds(2, 2)
    shapes = enumerated_posets(2)
    expected = []
    for formula in formulas:
        found = first_countermodel(formula, shapes, 2, SHRINK, core.atom_names(formula))
        expected.append(found)
        verdict = decide_valid(formula, bounds, SHRINK)
        assert (found is None) == isinstance(verdict, ValidUpTo)
    matrix_args = ((AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), bounds)
    expected_rows = axiom_matrix(*matrix_args)

    monkeypatch.setattr(search, "_SLAB", 4)
    scan_slab = search._scan_slab
    scanned = []

    def recording_scan_slab(block, program, lanes, columns):
        hit = scan_slab(block, program, lanes, columns)
        scanned.append((block.n, block.dropped, lanes, hit))
        return hit

    monkeypatch.setattr(search, "_scan_slab", recording_scan_slab)
    for formula, found in zip(formulas, expected):
        for workers in (1, 2, 3, 5, 100_000):
            verdict = decide_valid(formula, bounds, SHRINK, workers=workers)
            if found is None:
                assert isinstance(verdict, ValidUpTo)
            else:
                assert (verdict.model, verdict.world) == found
    assert axiom_matrix(*matrix_args, workers=3) == expected_rows
    assert scanned and all(0 < lanes <= 4 for _n, _d, lanes, _h in scanned)

    def slabs(formula):
        scanned.clear()
        decide_valid(formula, bounds, SHRINK)
        return list(scanned)

    # A formula with no modal index scans valuations only, in runs of at
    # most 4; a valid one, only the largest blocks.
    assert all(
        n == 2 and dropped == {"a", "b"} and lanes <= 4 and hit is None
        for n, dropped, lanes, hit in slabs(tautology)
    )
    # A formula naming every index scans each block once, in full.
    assert all(dropped == frozenset() for _n, dropped, _l, _h in slabs(late))
    # The projections of the largest blocks are probed first, up to the
    # first slab that hits: here the antichain's, onto `a`, at 2 worlds.
    # The two 1-world blocks follow in candidate order, one slab each, and
    # miss; then the block whose probe hit is scanned in full, which ends
    # at the block's least hit.
    got = slabs(spread)
    first = next(i for i, (_n, _d, _l, hit) in enumerate(got) if hit is not None)
    assert got[first][:2] == (2, {"b"})
    assert all(dropped == {"b"} for _n, dropped, _l, _h in got[: first + 1])
    assert [(n, dropped, hit) for n, dropped, _l, hit in got[first + 1 : first + 3]] == [
        (1, {"b"}, None)
    ] * 2
    rescan = got[first + 3 :]
    assert len(rescan) > 1
    assert all((n, dropped) == (2, frozenset()) for n, dropped, _l, _h in rescan)
    assert [hit is not None for *_rest, hit in rescan] == [False] * (len(rescan) - 1) + [True]
    model, world = expected[formulas.index(spread)]
    assert search._decode(search._Block(model.poset, 2, ("p",)), rescan[-1][3]) == model


def test_ceiling_and_bit_guard():
    with pytest.raises(BoundsTooLarge):
        decide_valid(parse_formula("p"), SearchBounds(4, 2), ceiling=1000)
    with pytest.raises(BoundsTooLarge):
        decide_valid(parse_formula("p"), SearchBounds(8, 2), ceiling=10**30)


def test_ceiling_is_checked_while_blocks_are_listed():
    # The default ceiling is passed at 4 worlds; no later block is built,
    # and the message names no candidate count.
    for worlds in (90, 100_000):
        with pytest.raises(BoundsTooLarge, match="exceeds the ceiling") as info:
            decide_valid(parse_formula("p"), SearchBounds(worlds, 2))
        assert len(str(info.value)) < 100
        with pytest.raises(BoundsTooLarge, match="exceeds the ceiling"):
            axiom_matrix((AxiomProfile.SECTION2,), (CoherenceMode.NONE,), SearchBounds(worlds, 2))


def test_each_query_compiles_its_formula_once(monkeypatch):
    walk = core._walk
    walked = []

    def counting_walk(formula):
        walked.append(formula)
        return walk(formula)

    monkeypatch.setattr(core, "_walk", counting_walk)
    valid = parse_formula("[a](p & q) -> [a]p")
    assert isinstance(decide_valid(valid, SearchBounds(3, 2), SHRINK), ValidUpTo)
    assert walked == [valid]
    # A countermodel is re-checked by the scalar evaluator: one compile more.
    walked.clear()
    invalid = parse_formula("<a>p -> <b>p")
    assert isinstance(decide_valid(invalid, SearchBounds(3, 2), SHRINK), Counterexample)
    assert walked == [invalid, invalid]

    # The matrix compiles each distinct instance formula once per call,
    # whatever the modes, plus once more for each countermodel it
    # re-checks.
    walked.clear()
    rows = axiom_matrix((AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), SearchBounds(3, 2))
    assert all(isinstance(row.verdict, ValidUpTo) for row in rows)
    assert len(walked) == len({row.formula for row in rows})
    walked.clear()
    rows = axiom_matrix(tuple(AxiomProfile), tuple(CoherenceMode), SearchBounds(3, 2))
    formulas = {row.formula for row in rows}
    refuted = {
        (row.mode, row.formula, row.poset)
        for row in rows
        if isinstance(row.verdict, Counterexample)
    }
    assert refuted and len(formulas) < len({(row.formula, row.poset) for row in rows})
    assert len(walked) == len(formulas) + len(refuted)


def test_rejects_indices_outside_search_space():
    with pytest.raises(UndeclaredIdentifier):
        decide_valid(parse_formula("<z>p"), SearchBounds(2, 2))
    with pytest.raises(UndeclaredIdentifier):
        decide_valid(parse_formula("<b>p"), SearchBounds(2, 1))


def test_bounds_atoms_must_cover_formula():
    with pytest.raises(ValueError):
        decide_valid(parse_formula("p & q"), SearchBounds(2, 1, atoms=("p",)))
    verdict = decide_valid(
        parse_formula("p | ~p"), SearchBounds(2, 1, atoms=("p", "q"))
    )
    assert isinstance(verdict, ValidUpTo)


def test_bounds_atoms_must_be_identifiers():
    # Otherwise the verdict decided whether the name was rejected: a
    # valid formula passed, and an invalid one failed only while its
    # countermodel was decoded.
    for atoms in (("p", "1x"), ("p", ""), ("p", 1)):
        with pytest.raises(ValueError, match="atom must match"):
            SearchBounds(2, 1, atoms=atoms)


def test_enumerated_poset_order():
    single, = enumerated_posets(1)
    assert single.indices == ("a",)
    anti, chain = enumerated_posets(2)
    assert anti.strict_pairs() == ()
    assert chain.strict_pairs() == (("a", "b"),)


# --- the axiom matrix -------------------------------------------------------


def _cell(rows, schema, mode, chain: bool, alpha=None, beta=None):
    out = [
        r
        for r in rows
        if r.schema == schema
        and r.mode is mode
        and bool(r.poset.strict_pairs()) == chain
        and (alpha is None or r.alpha == alpha)
        and (beta is None or r.beta == beta)
    ]
    assert out, (schema, mode, chain, alpha, beta)
    return out


def test_matrix_small_expectations():
    rows = axiom_matrix(
        (AxiomProfile.SECTION2, AxiomProfile.SECTION3),
        (CoherenceMode.SHRINK, CoherenceMode.GROW),
        SearchBounds(2, 2),
    )
    for row in _cell(rows, "A2", CoherenceMode.SHRINK, True, "a", "b"):
        assert isinstance(row.verdict, ValidUpTo)
    for row in _cell(rows, "A4", CoherenceMode.SHRINK, True, "a", "b"):
        assert isinstance(row.verdict, Counterexample)
    for row in _cell(rows, "A2", CoherenceMode.GROW, True, "a", "b"):
        assert isinstance(row.verdict, Counterexample)
    for row in _cell(rows, "A4", CoherenceMode.GROW, True, "a", "b"):
        assert isinstance(row.verdict, ValidUpTo)
    # reflexive instances are just phi -> phi
    for schema in ("A2", "A4", "DDOWN"):
        for row in _cell(rows, schema, CoherenceMode.SHRINK, True, "a", "a"):
            assert isinstance(row.verdict, ValidUpTo)
    # every countermodel re-verifies through the scalar evaluator
    for row in rows:
        if isinstance(row.verdict, Counterexample):
            assert (
                evaluate(
                    row.verdict.model, row.verdict.world, row.verdict.index, row.formula
                )
                is False
            )


def test_matrix_k_valid_with_single_index():
    rows = axiom_matrix(
        (AxiomProfile.SECTION2,), (CoherenceMode.NONE,), SearchBounds(3, 1)
    )
    for row in _cell(rows, "K", CoherenceMode.NONE, False):
        assert isinstance(row.verdict, ValidUpTo)
    # with one index the persistence schemas collapse to phi -> phi
    for schema in ("A2", "DDOWN"):
        for row in _cell(rows, schema, CoherenceMode.NONE, False):
            assert row.alpha == row.beta
            assert isinstance(row.verdict, ValidUpTo)


def test_matrix_profile_filtering():
    rows = axiom_matrix(
        (AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), SearchBounds(2, 2)
    )
    schemas = {r.schema for r in rows}
    assert "A4" not in schemas and "DDOWN" in schemas
    rows = axiom_matrix(
        (AxiomProfile.SECTION3,), (CoherenceMode.SHRINK,), SearchBounds(2, 2)
    )
    schemas = {r.schema for r in rows}
    assert "DDOWN" not in schemas and "A4" in schemas


def test_matrix_worker_equivalence():
    args = (
        (AxiomProfile.SECTION2,),
        (CoherenceMode.SHRINK,),
        SearchBounds(2, 2),
    )
    assert axiom_matrix(*args, workers=3) == axiom_matrix(*args, workers=1)


def test_user_poset_with_three_indices():
    # shape enumeration stops at two indices, but explicit posets can be bigger
    chain3 = IndexPoset.from_order(("a", "b", "c"), [("a", "b"), ("b", "c")])
    bounds = SearchBounds(2, 3, poset=chain3)
    assert isinstance(
        decide_valid(parse_formula("[a]p -> [c]p"), bounds, SHRINK), ValidUpTo
    )
    verdict = decide_valid(parse_formula("<a>p -> <c>p"), bounds, SHRINK)
    assert isinstance(verdict, Counterexample)
    assert naive_eval(verdict.model, verdict.world, parse_formula("<a>p -> <c>p")) is False


def test_schema_instance_shapes():
    p = Atom("p")
    assert schema_instance("A2", "a", "b") == Implies(Box("a", p), Box("b", p))
    assert schema_instance("DDOWN", "a", "b") == Implies(
        Diamond("b", p), Diamond("a", p)
    )
    assert schema_instance("A3", "a", "a") == Implies(Box("a", p), p)
    with pytest.raises(ValueError):
        schema_instance("A9", "a", "b")


def test_verdict_models_print_replayably():
    verdict = decide_valid(parse_formula("<a>p -> <b>p"), SearchBounds(2, 2), SHRINK)
    assert isinstance(verdict, Counterexample)
    from salogic.syntax import parse_model

    replayed = parse_model(print_model(verdict.model))
    assert replayed == verdict.model
    assert evaluate(replayed, verdict.world, verdict.index, parse_formula("<a>p -> <b>p")) is False
