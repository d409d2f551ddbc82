import random
from dataclasses import dataclass, replace
from itertools import combinations

import pytest

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
)
import salogic.proofs as proofs
from salogic.errors import (
    BoundsTooLarge,
    ForwardReference,
    IllegalTagForProfile,
    UndeclaredIdentifier,
)
from salogic.proofs import (
    Axiom,
    Derivation,
    ModusPonens,
    Necessitation,
    ProofLine,
    REASON_BAD_MODUS_PONENS,
    REASON_BAD_NECESSITATION,
    REASON_CITED_LINE_REJECTED,
    REASON_ILLEGAL_TAG,
    REASON_NON_STABLE_NECESSITATION,
    REASON_NOT_A_TAUTOLOGY,
    REASON_SCHEMA_MISMATCH,
    REASON_UNDECLARED_INDEX,
    check_derivation,
    is_tautology,
    match_axiom,
    propositional_skeleton,
)
from salogic.search import SearchBounds, ValidUpTo, axiom_matrix, decide_valid, schema_instance
from salogic.semantics import FramePolicy
from salogic.syntax import parse_formula, parse_proof

from fuzz import SWEEP_POSETS, random_derivation, random_formula
from oracles import matches_schema, propositional_tautology

P, Q = Atom("p"), Atom("q")
CHAIN = IndexPoset.from_order(("a", "b"), [("a", "b")])
CHAIN_STABLE_A = IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a",))
S2, S3 = AxiomProfile.SECTION2, AxiomProfile.SECTION3


# --- schema matching --------------------------------------------------------


def test_match_a2_example():
    assert match_axiom(parse_formula("[a]p -> [b]p"), "A2", CHAIN, S2) is True
    assert match_axiom(parse_formula("[b]p -> [a]p"), "A2", CHAIN, S2) is False
    assert match_axiom(parse_formula("[a]p -> [a]p"), "A2", CHAIN, S2) is True


def test_match_a3_depends_on_stability():
    f = parse_formula("[a]p -> p")
    assert match_axiom(f, "A3", CHAIN_STABLE_A, S2) is True
    assert match_axiom(f, "A3", CHAIN, S2) is False
    assert match_axiom(parse_formula("[a]p -> q"), "A3", CHAIN_STABLE_A, S2) is False


def test_match_a1_examples():
    assert match_axiom(parse_formula("p -> q -> p"), "A1", CHAIN, S2) is True
    assert match_axiom(P, "A1", CHAIN, S2) is False
    # modal subformulas are abstracted, equal ones shared
    assert match_axiom(parse_formula("[a]p -> [a]p"), "A1", CHAIN, S2) is True
    assert match_axiom(parse_formula("[a]p -> [b]p"), "A1", CHAIN, S2) is False
    assert match_axiom(parse_formula("<a>p | ~<a>p"), "A1", CHAIN, S2) is True


def test_match_k():
    assert match_axiom(
        parse_formula("[a](p -> q) -> ([a]p -> [a]q)"), "K", CHAIN, S2
    ) is True
    assert match_axiom(
        parse_formula("[a](p -> q) -> ([b]p -> [a]q)"), "K", CHAIN, S2
    ) is False
    assert match_axiom(
        parse_formula("[a](p -> q) -> ([a]q -> [a]p)"), "K", CHAIN, S2
    ) is False


def test_profile_legality():
    ddown = parse_formula("<b>p -> <a>p")
    assert match_axiom(ddown, "DDOWN", CHAIN, S2) is True
    with pytest.raises(IllegalTagForProfile):
        match_axiom(ddown, "DDOWN", CHAIN, S3)
    a4 = parse_formula("<a>p -> <b>p")
    assert match_axiom(a4, "A4", CHAIN, S3) is True
    with pytest.raises(IllegalTagForProfile):
        match_axiom(a4, "A4", CHAIN, S2)


def test_match_raises_on_undeclared_index():
    with pytest.raises(UndeclaredIdentifier):
        match_axiom(parse_formula("[z]p -> [z]p"), "A2", CHAIN, S2)


def test_k_compares_operands_before_the_index_is_declared():
    # As A2, A3, A4 and DDOWN always did: a formula that does not match
    # is a mismatch whatever its indices; one that does names them all.
    mismatch = parse_formula("[z](p -> q) -> ([z]r -> [z]s)")
    assert match_axiom(mismatch, "K", CHAIN, S2) is False
    d = Derivation((ProofLine(1, mismatch, Axiom("K")),), CHAIN)
    assert check_derivation(d).lines[0].reason == REASON_SCHEMA_MISMATCH
    with pytest.raises(UndeclaredIdentifier):
        match_axiom(parse_formula("[z](p -> q) -> ([z]p -> [z]q)"), "K", CHAIN, S2)


def test_every_matrix_instance_matches_its_schema():
    chain3 = IndexPoset.from_order(("a", "b", "c"), [("a", "b"), ("b", "c")])
    bounds = [SearchBounds(1, 1), SearchBounds(1, 2), SearchBounds(1, 3, poset=chain3)]
    seen = set()
    for bound in bounds:
        rows = axiom_matrix(tuple(AxiomProfile), (CoherenceMode.NONE,), bound)
        for row in rows:
            assert row.formula == schema_instance(row.schema, row.alpha, row.beta)
            profile = S3 if row.schema == "A4" else S2
            posets = [row.poset]
            if proofs.SCHEMAS[row.schema][1] == "a stable":
                # Reflection's side condition: every stable set holding alpha.
                rest = [idx for idx in row.poset.indices if idx != row.alpha]
                posets = [
                    replace(row.poset, stable=frozenset({row.alpha, *extra}))
                    for size in range(len(rest) + 1)
                    for extra in combinations(rest, size)
                ]
            for poset in posets:
                assert match_axiom(row.formula, row.schema, poset, profile) is True, row
            seen.add(row.schema)
    assert seen == set(proofs.SCHEMAS)


def test_node_subclasses_keep_their_verdicts():
    # Structure is read through isinstance, as a subclass node means its
    # base type; operands and cited lines compare as ==, which tells a
    # subclass node from a base one.
    @dataclass(frozen=True)
    class MyBox(Box):
        pass

    @dataclass(frozen=True)
    class MyImplies(Implies):
        pass

    @dataclass(frozen=True)
    class MyNot(Not):
        pass

    cases = [
        (MyImplies(MyBox("a", P), Box("b", P)), "A2", True),
        (Implies(Box("a", MyNot(P)), Box("b", MyNot(P))), "A2", True),
        (Implies(Box("a", MyNot(P)), Box("b", Not(P))), "A2", False),
        (Implies(MyBox("a", Not(P)), Not(P)), "A3", True),
        (Implies(Box("a", Not(P)), MyNot(P)), "A3", False),
        (Implies(Diamond("a", MyNot(P)), Diamond("b", Not(P))), "A4", False),
        (Implies(Box("a", MyImplies(P, Q)), Implies(Box("a", P), MyBox("a", Q))), "K", True),
    ]
    for formula, tag, want in cases:
        profile = S3 if tag == "A4" else S2
        assert match_axiom(formula, tag, CHAIN_STABLE_A, profile) is want, (formula, tag)

    taut, my_taut = Implies(P, P), MyImplies(P, P)
    stable = IndexPoset.from_order(("a",), stable=("a",))
    lines = [
        (taut, Axiom("A1")),
        (my_taut, Axiom("A1")),
        (Implies(taut, taut), Axiom("A1")),
        (MyImplies(taut, taut), Axiom("A1")),
        (Implies(my_taut, my_taut), Axiom("A1")),
        (taut, ModusPonens(1, 3)),  # accepted
        (taut, ModusPonens(1, 4)),  # the implication is a MyImplies
        (my_taut, ModusPonens(1, 3)),  # the conclusion is a MyImplies
        (my_taut, ModusPonens(2, 5)),  # accepted
        (Box("a", taut), Necessitation("a", 1)),  # accepted
        (MyBox("a", taut), Necessitation("a", 1)),
        (Box("a", taut), Necessitation("a", 2)),
        (Box("a", my_taut), Necessitation("a", 2)),  # accepted
    ]
    d = Derivation(
        tuple(ProofLine(i, f, j) for i, (f, j) in enumerate(lines, start=1)), stable
    )
    assert [line.reason for line in check_derivation(d).lines] == [None] * 6 + [
        REASON_BAD_MODUS_PONENS,
        REASON_BAD_MODUS_PONENS,
        None,
        None,
        REASON_BAD_NECESSITATION,
        REASON_BAD_NECESSITATION,
        None,
    ]


def _schema_like(rng):
    """Half genuine schema instances, half near misses and noise."""
    phi = random_formula(rng, rng.randint(0, 2), atoms=("p", "q"), indices=("a", "b"))
    psi = random_formula(rng, rng.randint(0, 2), atoms=("p", "q"), indices=("a", "b"))
    x, y = rng.choice([("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
    shapes = [
        Implies(Box(x, phi), Box(y, phi)),
        Implies(Box(x, phi), Box(y, psi)),
        Implies(Diamond(x, phi), Diamond(y, phi)),
        Implies(Diamond(x, phi), Diamond(y, psi)),
        Implies(Box(x, phi), phi),
        Implies(Box(x, phi), psi),
        Implies(Box(x, Implies(phi, psi)), Implies(Box(y, phi), Box(y, psi))),
        Implies(Box(x, Implies(phi, psi)), Implies(Box(x, phi), Box(x, psi))),
        random_formula(rng, 3, atoms=("p", "q"), indices=("a", "b")),
    ]
    return rng.choice(shapes)


def test_match_agrees_with_pattern_oracle():
    rng = random.Random(211)
    tags = ("K", "A2", "A3", "A4", "DDOWN")
    hits = 0
    for _ in range(800):
        f = _schema_like(rng)
        for tag in tags:
            profile = S3 if tag == "A4" else S2
            try:
                got = match_axiom(f, tag, CHAIN_STABLE_A, profile)
            except UndeclaredIdentifier:
                continue
            assert got == matches_schema(f, tag, CHAIN_STABLE_A), (f, tag)
            hits += got
    assert hits > 100  # the generator produced plenty of real instances


def test_a1_agrees_with_truth_table_oracle():
    rng = random.Random(223)
    for _ in range(500):
        f = random_formula(rng, 4)
        assert match_axiom(f, "A1", CHAIN, S2) == propositional_tautology(f)


def test_wide_tautologies_agree_with_truth_table_oracle(monkeypatch):
    # 8-14 skeleton variables.  A premise that fixes every atom leaves one
    # row of the table that can falsify, so that row may sit in any loop
    # round over the atoms past the column width.
    rng = random.Random(227)
    cases = []
    for _ in range(24):
        names = [f"x{i}" for i in range(rng.randint(8, 14))]
        premise = Atom(names[0])
        for name in names[1:]:
            literal = Atom(name) if rng.random() < 0.7 else Not(Atom(name))
            premise = And(premise, literal)
        g = random_formula(rng, 3, atoms=tuple(names))
        h = random_formula(rng, 2, atoms=tuple(names))
        conclusion = rng.choice([g, Or(g, Not(g)), Or(g, Not(h))])
        cases.append(Implies(premise, conclusion))
    expected = [propositional_tautology(f) for f in cases]
    assert 0 < sum(expected) < len(cases)
    for width in (3, proofs._TABLE_WIDTH):
        monkeypatch.setattr(proofs, "_TABLE_WIDTH", width)
        for f, verdict in zip(cases, expected):
            assert match_axiom(f, "A1", CHAIN, S2) == verdict, f
            assert is_tautology(propositional_skeleton(f)) == verdict, f
    for f in ("[a]p", "p | <a>p", "(p | ~p) | [a]q"):
        with pytest.raises(TypeError):
            is_tautology(parse_formula(f))


def test_a1_row_ceiling():
    # x0 & ... & x{k-1} -> x0: the largest table still checked, and the
    # first one refused before any row is evaluated.
    def line(k):
        return parse_formula(" & ".join(f"x{i}" for i in range(k)) + " -> x0")

    assert proofs._MAX_TABLE_ATOMS == 24
    assert match_axiom(line(24), "A1", CHAIN, S2) is True
    with pytest.raises(BoundsTooLarge, match="25 atoms"):
        match_axiom(line(25), "A1", CHAIN, S2)
    # Placeholders count as atoms.
    wide = parse_formula(" & ".join([f"x{i}" for i in range(23)] + ["[a]p", "<a>p"]) + " -> x0")
    with pytest.raises(BoundsTooLarge):
        match_axiom(wide, "A1", CHAIN, S2)


def _a1_line(rng, leaves):
    """A propositional combination of `leaves`, made a tautology by a
    template about half the time."""

    def part(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        pick = rng.randrange(4)
        if pick == 0:
            return Not(part(depth - 1))
        return (And, Or, Implies)[pick - 1](part(depth - 1), part(depth - 1))

    f, g = part(2), part(2)
    if rng.random() < 0.5:
        return rng.choice([f, Implies(f, g), Or(f, Not(g))])
    return rng.choice([Implies(f, f), Implies(f, Or(f, g)), Or(Not(f), f), Implies(And(f, g), g)])


def test_a1_lines_of_a_derivation_agree_with_their_skeletons():
    # Lines share modal subformulas, by identity and as equal copies, so
    # an A1 line's root is rarely the program's last step and its table
    # must see only its own part of the shared program.  A subclass atom
    # is its name's variable; a subclass modal node is a variable of its
    # own, as it gets a placeholder of its own.
    @dataclass(frozen=True)
    class MyAtom(Atom):
        pass

    @dataclass(frozen=True)
    class MyBox(Box):
        pass

    rng = random.Random(233)
    stable = IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a",))
    tautologies = 0
    for _ in range(80):
        modal = [Box("a", P), Diamond("b", Or(P, Q)), Box("b", Box("a", P))]
        modal += [random_formula(rng, 2) for _ in range(2)]
        modal.append(Box("a", Atom("p")))  # an equal copy of the first
        leaves = [P, Q, Atom("r"), MyAtom("q"), MyBox("a", P), *modal]
        entries = []
        for _ in range(rng.randint(2, 7)):
            if entries and rng.random() < 0.2:
                cited = rng.randrange(len(entries))
                entries.append((Box("a", entries[cited][0]), Necessitation("a", cited + 1)))
            else:
                entries.append((_a1_line(rng, leaves), Axiom("A1")))
        d = Derivation(
            tuple(ProofLine(i, f, j) for i, (f, j) in enumerate(entries, start=1)), stable
        )
        for line in check_derivation(d).lines:
            if line.justification == Axiom("A1"):
                want = is_tautology(propositional_skeleton(line.formula))
                assert want == propositional_tautology(line.formula)
                assert line.accepted is want, line.formula
                tautologies += want
    assert 50 < tautologies < 200

    # A line past the table's ceiling raises in the middle of a
    # derivation, as its skeleton does, before any row.
    conjunction = Atom("x0")
    for i in range(1, 23):
        conjunction = And(conjunction, Atom(f"x{i}"))
    wide = Implies(And(conjunction, And(Box("a", P), Diamond("a", P))), Atom("x0"))
    lines = [Implies(Box("a", P), Box("a", P)), wide, Or(Diamond("a", P), Not(P))]

    def a1_derivation(formulas):
        return Derivation(
            tuple(ProofLine(i, f, Axiom("A1")) for i, f in enumerate(formulas, start=1)), stable
        )

    with pytest.raises(BoundsTooLarge, match="25 atoms"):
        is_tautology(propositional_skeleton(wide))
    with pytest.raises(BoundsTooLarge, match="25 atoms"):
        check_derivation(a1_derivation(lines))
    report = check_derivation(a1_derivation([lines[0], lines[2]]))
    assert [line.accepted for line in report.lines] == [True, False]


def test_skeleton_shares_placeholders():
    f = Implies(Box("a", P), Box("a", P))
    skel = propositional_skeleton(f)
    assert isinstance(skel, Implies) and skel.left == skel.right
    assert is_tautology(skel)
    # placeholders dodge the formula's own atoms
    g = Implies(Box("a", Atom("m0_")), Atom("m0_"))
    names = {a.name for a in [propositional_skeleton(g).left]}
    assert "m0_" not in names


# --- derivation checking ----------------------------------------------------


def test_check_necessitation_example():
    d = parse_proof("indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n")
    report = check_derivation(d)
    assert report.valid
    assert [line.accepted for line in report.lines] == [True, True]


def test_check_rejects_non_stable_necessitation():
    d = parse_proof("1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n")
    report = check_derivation(d)
    assert not report.valid
    assert report.lines[1].reason == REASON_NON_STABLE_NECESSITATION
    # with the restriction lifted the same script passes
    relaxed = parse_proof(
        "1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n", nec_requires_stable=False
    )
    assert check_derivation(relaxed).valid


def test_check_rejects_non_tautology():
    report = check_derivation(parse_proof("1. p ; A1\n"))
    assert not report.valid
    assert report.lines[0].reason == REASON_NOT_A_TAUTOLOGY


def test_check_modus_ponens_shapes():
    good = parse_proof(
        "1. p -> p | q ; A1\n2. (p -> p | q) -> (p -> p | q) ; A1\n"
        "3. p -> p | q ; MP 1 2\n"
    )
    # line 2 is (line1 -> line1), so MP 1 2 re-derives line 1's formula
    assert check_derivation(good).valid
    bad = Derivation(
        (
            ProofLine(1, Implies(P, P), Axiom("A1")),
            ProofLine(2, Q, ModusPonens(1, 1)),
        ),
        CHAIN,
    )
    report = check_derivation(bad)
    assert report.lines[1].reason == REASON_BAD_MODUS_PONENS


def test_check_poisons_dependents_of_rejected_lines():
    d = Derivation(
        (
            ProofLine(1, P, Axiom("A1")),  # rejected: not a tautology
            ProofLine(2, Box("a", P), Necessitation("a", 1)),
        ),
        IndexPoset.from_order(("a",), stable=("a",)),
    )
    report = check_derivation(d)
    assert report.lines[1].reason == REASON_CITED_LINE_REJECTED


def test_modus_ponens_citing_a_rejected_line_is_rejected():
    d = Derivation(
        (
            ProofLine(1, P, Axiom("A1")),  # rejected: not a tautology
            ProofLine(2, Implies(P, P), Axiom("A1")),
            ProofLine(3, P, ModusPonens(1, 2)),  # its premise was rejected
            ProofLine(4, Implies(Implies(P, P), Q), Axiom("A1")),  # rejected
            ProofLine(5, Q, ModusPonens(2, 4)),  # its implication was rejected
        ),
        CHAIN,
    )
    reasons = [line.reason for line in check_derivation(d).lines]
    assert reasons == [
        REASON_NOT_A_TAUTOLOGY,
        None,
        REASON_CITED_LINE_REJECTED,
        REASON_NOT_A_TAUTOLOGY,
        REASON_CITED_LINE_REJECTED,
    ]


def test_lines_of_an_api_built_derivation_may_name_undeclared_indices():
    # parse_proof rejects such a script; a Derivation built in code
    # reaches the checker, which rejects the line.
    d = Derivation(
        (
            ProofLine(1, parse_formula("[z]p -> [z]p"), Axiom("A2")),
            ProofLine(2, Implies(P, P), Axiom("A1")),
            ProofLine(3, Box("z", Implies(P, P)), Necessitation("z", 2)),
        ),
        CHAIN,
    )
    reasons = [line.reason for line in check_derivation(d).lines]
    assert reasons == [REASON_UNDECLARED_INDEX, None, REASON_UNDECLARED_INDEX]


def test_check_reports_illegal_tag():
    d = Derivation(
        (ProofLine(1, parse_formula("<b>p -> <a>p"), Axiom("DDOWN")),),
        CHAIN,
        profile=S3,
    )
    report = check_derivation(d)
    assert report.lines[0].reason == REASON_ILLEGAL_TAG


def test_check_schema_mismatch_reason():
    d = Derivation(
        (ProofLine(1, parse_formula("[b]p -> [a]p"), Axiom("A2")),),
        CHAIN,
    )
    assert check_derivation(d).lines[0].reason == REASON_SCHEMA_MISMATCH


def test_derivation_construction_guards():
    with pytest.raises(ForwardReference):
        Derivation(
            (ProofLine(1, P, ModusPonens(1, 1)),),
            CHAIN,
        )
    with pytest.raises(ValueError):
        Derivation((ProofLine(2, P, Axiom("A1")),), CHAIN)


def test_unknown_axiom_tags_are_refused():
    with pytest.raises(ValueError, match="unknown axiom tag 'X'"):
        Axiom("X")
    with pytest.raises(ValueError, match="unknown axiom tag 'X'"):
        match_axiom(P, "X", CHAIN, S2)


def test_check_refuses_a_non_justification():
    d = Derivation((ProofLine(1, P, "A1"),), CHAIN)
    with pytest.raises(TypeError, match="not a justification: 'A1'"):
        check_derivation(d)


def test_report_lists_its_rejected_lines():
    report = check_derivation(parse_proof("1. p ; A1\n2. p -> p ; A1\n3. q ; A1\n"))
    assert report.rejected() == (report.lines[0], report.lines[2])


def test_wide_chains_parse_and_check():
    # `&` and `|` chains build left-deep trees 3000 levels deep.
    tautology = parse_proof("1. " + " | ".join(["~p"] + ["p"] * 2999) + " ; A1\n")
    assert tautology.poset.indices == ("a",)
    assert check_derivation(tautology).valid
    boxes = parse_proof("indices: a\n1. " + " & ".join(["[a]p"] * 3000) + " ; A1\n")
    assert boxes.poset.indices == ("a",)
    assert check_derivation(boxes).lines[0].reason == REASON_NOT_A_TAUTOLOGY


def test_proof_line_rejects_a_non_formula():
    with pytest.raises(TypeError, match="not a formula: 'p'"):
        ProofLine(1, "p", Axiom("K"))
    with pytest.raises(TypeError, match="not a formula: None"):
        ProofLine(1, None, Axiom("A1"))


def test_fuzzed_derivations_all_check_out():
    rng = random.Random(227)
    for _ in range(60):
        poset = rng.choice(SWEEP_POSETS)
        d = random_derivation(rng, poset)
        report = check_derivation(d)
        assert report.valid, report.rejected()


def test_prefixing_accepted_lines_preserves_acceptance():
    rng = random.Random(229)
    for _ in range(30):
        poset = rng.choice(SWEEP_POSETS)
        first = random_derivation(rng, poset, max_lines=4)
        second = random_derivation(rng, poset, max_lines=4)
        shift = len(first.lines)

        def renumber(justification):
            if isinstance(justification, ModusPonens):
                return ModusPonens(
                    justification.premise + shift, justification.implication + shift
                )
            if isinstance(justification, Necessitation):
                return Necessitation(justification.index, justification.premise + shift)
            return justification

        combined = Derivation(
            first.lines
            + tuple(
                ProofLine(line.number + shift, line.formula, renumber(line.justification))
                for line in second.lines
            ),
            poset,
            first.profile,
            first.nec_requires_stable,
        )
        report = check_derivation(combined)
        assert report.valid


# --- the soundness bridge against the semantics -----------------------------


def _valid_on_chain(formula, mode) -> bool:
    verdict = decide_valid(
        formula,
        SearchBounds(2, 2, poset=CHAIN_STABLE_A),
        FramePolicy(mode),
    )
    return isinstance(verdict, ValidUpTo)


def test_section3_fails_exactly_where_the_matrix_says():
    """SECTION3 is unsound under either single coherence convention, and
    the failing schemas are exactly the matrix's countermodeled cells:
    A4 under SHRINK, A2 under GROW."""
    instances = {
        "K": parse_formula("[a](p -> q) -> ([a]p -> [a]q)"),
        "A2": parse_formula("[a]p -> [b]p"),
        "A3": parse_formula("[a]p -> p"),
        "A4": parse_formula("<a>p -> <b>p"),
    }
    for tag, formula in instances.items():
        assert match_axiom(formula, tag, CHAIN_STABLE_A, S3) is True
    failures_shrink = {
        tag
        for tag, f in instances.items()
        if not _valid_on_chain(f, CoherenceMode.SHRINK)
    }
    failures_grow = {
        tag for tag, f in instances.items() if not _valid_on_chain(f, CoherenceMode.GROW)
    }
    assert failures_shrink == {"A4"}
    assert failures_grow == {"A2"}
    # SECTION2 swaps A4 for DDOWN and is sound under SHRINK
    ddown = parse_formula("<b>p -> <a>p")
    assert match_axiom(ddown, "DDOWN", CHAIN_STABLE_A, S2) is True
    assert _valid_on_chain(ddown, CoherenceMode.SHRINK)
