import random
from dataclasses import replace

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
from salogic.proofs import check_derivation
from salogic.semantics import FramePolicy, evaluate, validate_frame
from salogic.syntax import parse_formula, parse_proof, print_formula, print_model

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
    # first that hits: here the antichain's, onto `a`, at 2 worlds.  It
    # spans more than one slab of 4, so `a`, of negative sign only, is
    # pinned to its greatest relation (every pair), and the probe is one
    # slab of the 4 valuations of p, which hits.  The blocks on fewer
    # worlds follow in candidate order, in full, and miss: the 1-world
    # antichain in two slabs of 4 and the 1-world chain in slabs of 2 and
    # 4.  The probe's pin is not one of every scan's, so its hit need not
    # be the least: the antichain at 2 worlds is scanned in full, in
    # candidate order, up to the slab that holds its least hit.
    got = slabs(spread)
    assert [(n, dropped, lanes, hit is not None) for n, dropped, lanes, hit in got] == [
        (2, {"b"}, 4, True),
        *[(1, frozenset(), 4, False)] * 2,
        (1, frozenset(), 2, False),
        (1, frozenset(), 4, False),
        *[(2, frozenset(), 4, False)] * 32,
        (2, frozenset(), 4, True),
    ]
    model, world = expected[formulas.index(spread)]
    assert search._decode(search._Block(model.poset, 2, ("p",)), got[-1][3]) == model


def test_pure_polarity_chain_queries_hold_at_four_worlds():
    # Each names `a` with positive sign only and `b` with negative sign
    # only, so the probe of the one 4-world block pins `a` to its least
    # relation given `b` and `b` to its greatest given `a`: under shrink
    # the two relations are then equal, which leaves 2^20 lanes of its
    # 2^36 raw candidates (p has both signs).  Unpinned, each query takes
    # over a second.
    bounds = SearchBounds(4, 2, poset=CHAIN)
    for text in ("<b>p -> <a>p", "[a]p -> [b]p"):
        verdict = decide_valid(parse_formula(text), bounds, SHRINK, ceiling=10**13)
        assert verdict == ValidUpTo(bounds), text


def test_ceiling_and_bit_guard():
    with pytest.raises(BoundsTooLarge):
        decide_valid(parse_formula("p"), SearchBounds(4, 2), ceiling=1000)
    with pytest.raises(BoundsTooLarge):
        decide_valid(parse_formula("p"), SearchBounds(8, 2), ceiling=10**30)


def test_blocks_past_64_candidate_bits_are_scanned():
    # The ceiling is the one bound on block size: 16 indices at 2 worlds
    # with one atom take 16 * 2**2 + 2 * 1 = 66 candidate bits.
    antichain = IndexPoset.from_order(tuple(f"a{i}" for i in range(16)))
    bounds = SearchBounds(2, 16, poset=antichain)
    n, atoms = bounds.max_worlds, ("p",)
    assert len(antichain.indices) * n * n + n * len(atoms) == 66
    verdict = decide_valid(parse_formula("[a0]p -> p"), bounds, ceiling=1 << 70)
    assert verdict.model == StratifiedModel(antichain, ("w0",), {}, {"p": frozenset()})
    verdict = decide_valid(parse_formula("[a0]p -> [a0]p"), bounds, ceiling=1 << 70)
    assert isinstance(verdict, ValidUpTo)


def test_ceiling_is_checked_while_blocks_are_listed():
    # The default ceiling is passed at 4 worlds; no later block is built,
    # and the message names no candidate count.
    for worlds in (90, 100_000):
        with pytest.raises(BoundsTooLarge, match="exceeds the ceiling") as info:
            decide_valid(parse_formula("p"), SearchBounds(worlds, 2))
        assert len(str(info.value)) < 100
        with pytest.raises(BoundsTooLarge, match="exceeds the ceiling"):
            axiom_matrix((AxiomProfile.SECTION2,), (CoherenceMode.NONE,), SearchBounds(worlds, 2))


def test_a_query_builds_only_the_blocks_it_scans(monkeypatch):
    block = search._Block
    built = []

    def spy_block(*args, **pins):
        built.append(block(*args, **pins))
        return built[-1]

    monkeypatch.setattr(search, "_Block", spy_block)
    # Past the ceiling: the sizes are added up and no block is built.
    with pytest.raises(BoundsTooLarge, match="exceeds the ceiling"):
        decide_valid(parse_formula("p"), SearchBounds(100_000, 2))
    with pytest.raises(BoundsTooLarge, match="up to 2 worlds"):
        decide_valid(parse_formula("[a]p"), SearchBounds(4, 2), ceiling=1000)
    assert built == []

    # ValidUpTo: one projected block per poset, at max_worlds.
    antichain, chain = enumerated_posets(2)
    valid = parse_formula("[a](p -> q) -> ([a]p -> [a]q)")
    assert isinstance(decide_valid(valid, SearchBounds(3, 2), SHRINK), ValidUpTo)
    atoms, b = ("p", "q"), frozenset({"b"})
    assert built == [block(antichain, 3, atoms, b), block(chain, 3, atoms, b)]

    # A countermodel: the probe, then the smaller blocks in candidate
    # order up to the first that hits ...
    built.clear()
    assert len(decide_valid(parse_formula("[a]p -> p"), SearchBounds(3, 2)).model.worlds) == 1
    assert built == [block(antichain, 3, ("p",), b), block(antichain, 1, ("p",))]
    # ... and, when none does, the full block whose projection hit.
    built.clear()
    assert len(decide_valid(parse_formula("<a>p -> [a]p"), SearchBounds(2, 2)).model.worlds) == 2
    assert built == [
        block(antichain, 2, ("p",), b),
        block(antichain, 1, ("p",)),
        block(chain, 1, ("p",)),
        block(antichain, 2, ("p",)),
    ]
    # A probe wider than one slab is pinned.  With slabs of 64 lanes this
    # one spans 2^10 raw candidates, and both indices, of negative sign
    # only, take their greatest relation in it.  That pin is the probe's
    # alone, so although the probe drops no index its block is scanned
    # again after the smaller blocks miss, with every scan's pins: none,
    # since p has both signs.
    monkeypatch.setattr(search, "_SLAB", 64)
    built.clear()
    formula = parse_formula("~(<a>(p & <a>p) & <a>(~p & <a>~p) & <b>p)")
    verdict = decide_valid(formula, SearchBounds(2, 2), SHRINK)
    none, both = frozenset(), frozenset({"a", "b"})
    assert built == [
        block(antichain, 2, ("p",), none, none, both, none, none),
        block(antichain, 1, ("p",)),
        block(chain, 1, ("p",)),
        block(antichain, 2, ("p",)),
    ]
    assert (verdict.model, verdict.world) == first_countermodel(
        formula, (antichain, chain), 2, SHRINK, ("p",)
    )


def test_each_derivation_compiles_its_lines_once(monkeypatch):
    text = (
        "indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n"
        "3. [a](p -> p) -> ((p -> p) | q) ; A1\n4. [a](p -> p) -> (p -> p) ; A3\n"
        "5. p -> p ; MP 2 4\n6. <a>q | ~<a>q ; A1\n"
    )
    derivation = parse_proof(text)
    walk = core._walk
    walked = []
    monkeypatch.setattr(core, "_walk", lambda *formulas: walked.append(formulas) or walk(*formulas))
    assert check_derivation(derivation).valid
    assert walked == [tuple(line.formula for line in derivation.lines)]


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
    # A countermodel is re-checked by the scalar evaluator on the query's
    # own program: no compile more.
    walked.clear()
    invalid = parse_formula("<a>p -> <b>p")
    assert isinstance(decide_valid(invalid, SearchBounds(3, 2), SHRINK), Counterexample)
    assert walked == [invalid]

    # The matrix builds and compiles each schema instance once per
    # process: SECTION2 at 3 worlds has 10 instance keys, and the same
    # call again compiles none, however many countermodels it re-checks.
    search._instance.cache_clear()
    walked.clear()
    section2 = ((AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), SearchBounds(3, 2))
    rows = axiom_matrix(*section2)
    assert all(isinstance(row.verdict, ValidUpTo) for row in rows)
    assert len(walked) == len({(row.schema, row.alpha, row.beta) for row in rows}) == 10
    walked.clear()
    assert axiom_matrix(*section2) == rows
    assert walked == []
    # Every profile and mode then compiles only SECTION3's A4 instances.
    # Each mode decides each distinct (formula, scanned poset) once, so
    # A4 and DDOWN at (a, a), equal instances, share one scan.
    decide = search._decide
    decided = []

    def counting_decide(program, posets, bounds, policy, ceiling):
        decided.append((policy.coherence, program.nodes[-1], posets))
        return decide(program, posets, bounds, policy, ceiling)

    monkeypatch.setattr(search, "_decide", counting_decide)
    rows = axiom_matrix(tuple(AxiomProfile), tuple(CoherenceMode), SearchBounds(3, 2))
    assert walked == [schema_instance("A4", *pair) for pair in ("aa", "bb", "ab")]
    assert len(decided) == len(set(decided))
    scanned = {
        (row.mode, row.formula, replace(row.poset, stable=frozenset({row.alpha})))
        if row.schema == "A3"
        else (row.mode, row.formula, row.poset)
        for row in rows
    }
    assert {(mode, formula, poset) for mode, formula, (poset,) in decided} == scanned
    assert schema_instance("A4", "a", "a") == schema_instance("DDOWN", "a", "a")
    assert len(decided) < len({(row.mode, row.schema, row.formula, row.poset) for row in rows})
    assert any(isinstance(row.verdict, Counterexample) for row in rows)


def matrix_text(rows) -> list[tuple]:
    """Each row as text: its fields, the instance by print_formula and
    the countermodel by print_model, so rows built from a cold and a warm
    instance table compare by content, not by identity."""
    texts = []
    for row in rows:
        verdict = row.verdict
        found = (
            (verdict.bounds,)
            if isinstance(verdict, ValidUpTo)
            else (print_model(verdict.model), verdict.world, verdict.index)
        )
        fields = (row.schema, row.mode, row.poset, row.alpha, row.beta)
        texts.append((*fields, print_formula(row.formula), row.require_stable_reflexive, *found))
    return texts


def test_a_warm_instance_table_gives_the_rows_of_a_cold_one():
    chain3 = IndexPoset.from_order(("a", "b", "c"), [("a", "b"), ("b", "c")])
    for bounds in (SearchBounds(2, 2), SearchBounds(3, 2), SearchBounds(2, 3, poset=chain3)):
        for refl in (True, False):
            args = (tuple(AxiomProfile), tuple(CoherenceMode), bounds)
            search._instance.cache_clear()
            cold = axiom_matrix(*args, require_stable_reflexive=refl)
            before = search._instance.cache_info()
            assert before.hits > 0
            # On a warm table every row's instance is a hit.
            warm = axiom_matrix(*args, require_stable_reflexive=refl)
            after = search._instance.cache_info()
            assert (after.hits, after.misses) == (before.hits + len(warm), before.misses)
            assert matrix_text(warm) == matrix_text(cold)


def test_the_matrix_workload_uses_13_instances():
    # The benchmark's matrix ops: both profiles at 3 worlds and 2
    # indices, one per coherence mode and reflexivity setting.
    search._instance.cache_clear()
    for mode in CoherenceMode:
        for refl in (True, False):
            axiom_matrix(
                tuple(AxiomProfile), (mode,), SearchBounds(3, 2), require_stable_reflexive=refl
            )
    assert search._instance.cache_info().currsize == 13


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
    # The axiom matrix takes the same atoms: K names p and q, and A3's
    # countermodel declares every atom of the bounds.
    with pytest.raises(ValueError, match="missing formula atoms"):
        axiom_matrix(
            (AxiomProfile.SECTION2,), (CoherenceMode.NONE,), SearchBounds(1, 1, atoms=("p",))
        )
    rows = axiom_matrix(
        (AxiomProfile.SECTION2,),
        (CoherenceMode.NONE,),
        SearchBounds(1, 1, atoms=("p", "q", "r")),
        require_stable_reflexive=False,
    )
    (a3,) = _cell(rows, "A3", CoherenceMode.NONE, False)
    assert set(a3.verdict.model.valuation) == {"p", "q", "r"}


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


def test_matrix_rejects_no_profiles_and_non_profiles():
    with pytest.raises(ValueError, match="at least one profile"):
        axiom_matrix((), (CoherenceMode.NONE,), SearchBounds(1, 1))
    with pytest.raises(TypeError, match="not a profile: 'section2'"):
        axiom_matrix(("section2",), (CoherenceMode.NONE,), SearchBounds(1, 1))


def test_a_reflection_row_counts_one_poset_against_the_ceiling():
    # Each row's blocks count against the ceiling on their own.  An A3
    # row scans one poset, alpha stable, so a 32-candidate ceiling fits
    # every row of the 3-index antichain at one world: K, with two atoms,
    # takes 2**5 candidates, and A3 takes 2**4.
    antichain = IndexPoset.from_order(("a", "b", "c"))
    bounds = SearchBounds(1, 3, poset=antichain)
    args = (tuple(AxiomProfile), (CoherenceMode.NONE,), bounds)
    assert len(axiom_matrix(*args, ceiling=32)) == 15
    # Without stable reflexivity each A3 row's countermodel shows its scan.
    rows = axiom_matrix(*args, require_stable_reflexive=False, ceiling=32)
    assert [row.verdict.model.poset.stable for row in rows if row.schema == "A3"] == [
        frozenset({idx}) for idx in antichain.indices
    ]
    with pytest.raises(BoundsTooLarge):
        axiom_matrix(*args, ceiling=31)


def test_matrix_valid_rows_keep_the_bounds_they_ran_with():
    bounds = SearchBounds(1, 1, atoms=("p", "q", "r"))
    rows = axiom_matrix(tuple(AxiomProfile), tuple(CoherenceMode), bounds)
    valid = [row.verdict for row in rows if isinstance(row.verdict, ValidUpTo)]
    assert valid and all(verdict.bounds == bounds for verdict in valid)
    assert all(verdict.bounds.atoms == ("p", "q", "r") for verdict in valid)


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
