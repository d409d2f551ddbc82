"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from salogic import example_model_path
from salogic.cli import main as cli_main
from salogic.core import AxiomProfile, CoherenceMode, Diamond, Not, Box
from salogic.proofs import check_derivation
from salogic.search import (
    Counterexample,
    SearchBounds,
    ValidUpTo,
    axiom_matrix,
    decide_valid,
)
from salogic.semantics import FramePolicy, evaluate, validate_frame
from salogic.syntax import parse_formula, parse_model, print_formula, print_model

from fuzz import SWEEP_POSETS, random_derivation, random_formula, random_model
from oracles import naive_eval

SEC33 = str(example_model_path("sec33"))
SHRINK = FramePolicy(CoherenceMode.SHRINK)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"[PASS] criterion {number}: {name} ({elapsed:.2f}s)")


def test_criterion_1_worked_example_exact(capsys):
    with criterion(1, "bundled chain model evaluates exactly", 1.0):
        code = cli_main(["eval", SEC33, "<beta> p", "--world", "w1", "--index", "beta"])
        first = capsys.readouterr().out
        assert code == 0
        assert first.splitlines()[0] == "true"
        code = cli_main(["eval", SEC33, "[gamma] p", "--world", "w2", "--index", "gamma"])
        second = capsys.readouterr().out
        assert code == 1
        assert second.splitlines()[0] == "false"


def test_criterion_2_coherence_conflict_detection():
    with criterion(2, "chain model flagged under both inclusions, clean under none", 1.0):
        model = parse_model(example_model_path("sec33").read_text(encoding="utf-8"))
        shrink = validate_frame(model, FramePolicy(CoherenceMode.SHRINK))
        witnesses = {(v.index_pair, v.world_pair) for v in shrink}
        assert (("alpha", "beta"), ("w1", "w0")) in witnesses
        assert witnesses == {
            (("alpha", "beta"), ("w1", "w0")),
            (("alpha", "beta"), ("w1", "w1")),
            (("alpha", "gamma"), ("w2", "w1")),
            (("alpha", "gamma"), ("w2", "w2")),
            (("beta", "gamma"), ("w2", "w1")),
            (("beta", "gamma"), ("w2", "w2")),
        }
        grow = validate_frame(model, FramePolicy(CoherenceMode.GROW))
        witnesses = {(v.index_pair, v.world_pair) for v in grow}
        assert (("alpha", "beta"), ("w0", "w0")) in witnesses
        assert witnesses == {
            (("alpha", "beta"), ("w0", "w0")),
            (("alpha", "gamma"), ("w0", "w0")),
            (("beta", "gamma"), ("w1", "w0")),
            (("beta", "gamma"), ("w1", "w1")),
        }
        assert validate_frame(model, FramePolicy(CoherenceMode.NONE)) == []


def _matrix_cells(rows, schema, mode, alpha, beta):
    out = [
        r
        for r in rows
        if r.schema == schema and r.mode is mode and (r.alpha, r.beta) == (alpha, beta)
        and r.poset.strict_pairs()  # the chain cells carry the content
    ]
    assert out
    return out


def test_criterion_3_axiom_matrix_exhaustive():
    with criterion(3, "axiom-validity matrix at 3 worlds, 2 indices", 60.0):
        bounds = SearchBounds(3, 2)
        rows = axiom_matrix(
            (AxiomProfile.SECTION2, AxiomProfile.SECTION3),
            (CoherenceMode.SHRINK, CoherenceMode.GROW),
            bounds,
        )
        expect_valid = [
            ("A2", CoherenceMode.SHRINK),
            ("DDOWN", CoherenceMode.SHRINK),
            ("K", CoherenceMode.SHRINK),
            ("A4", CoherenceMode.GROW),
            ("K", CoherenceMode.GROW),
        ]
        expect_countermodel = [
            ("A4", CoherenceMode.SHRINK),
            ("A2", CoherenceMode.GROW),
            ("DDOWN", CoherenceMode.GROW),
        ]
        for schema, mode in expect_valid:
            pair = ("a", "a") if schema == "K" else ("a", "b")
            for row in _matrix_cells(rows, schema, mode, *pair):
                assert isinstance(row.verdict, ValidUpTo), (schema, mode)
        for schema, mode in expect_countermodel:
            for row in _matrix_cells(rows, schema, mode, "a", "b"):
                assert isinstance(row.verdict, Counterexample), (schema, mode)
        # A3 valid exactly when stable reflexivity is enforced
        for row in rows:
            if row.schema == "A3":
                assert isinstance(row.verdict, ValidUpTo)
        relaxed = axiom_matrix(
            (AxiomProfile.SECTION2,),
            (CoherenceMode.SHRINK,),
            bounds,
            require_stable_reflexive=False,
        )
        for row in relaxed:
            if row.schema == "A3":
                assert isinstance(row.verdict, Counterexample)
        # every countermodel in sight re-verifies through the evaluator
        for row in list(rows) + list(relaxed):
            if isinstance(row.verdict, Counterexample):
                verdict = row.verdict
                assert evaluate(verdict.model, verdict.world, verdict.index, row.formula) is False
                policy = FramePolicy(row.mode, row.require_stable_reflexive)
                assert validate_frame(verdict.model, policy) == []


def test_criterion_4_soundness_sweep():
    with criterion(4, "100 fuzzed derivations stay valid under shrink", 300.0):
        rng = random.Random(20260811)
        cache: dict = {}
        derivations = 0
        checked_formulas = 0
        while derivations < 100:
            # singleton posets are weighted up to keep the sweep quick
            if rng.random() < 0.45:
                poset = SWEEP_POSETS[0]
            else:
                poset = SWEEP_POSETS[1 + rng.randrange(len(SWEEP_POSETS) - 1)]
            derivation = random_derivation(rng, poset, AxiomProfile.SECTION2)
            assert derivation.nec_requires_stable
            report = check_derivation(derivation)
            assert report.valid, report.rejected()
            derivations += 1
            for line in derivation.lines:
                key = (line.formula, poset)
                if key in cache:
                    continue
                verdict = decide_valid(
                    line.formula,
                    SearchBounds(3, len(poset.indices), poset=poset),
                    SHRINK,
                )
                cache[key] = verdict
                checked_formulas += 1
                assert isinstance(verdict, ValidUpTo), (
                    print_formula(line.formula),
                    poset,
                    verdict,
                )
        assert derivations == 100
        assert checked_formulas >= 100


def test_criterion_5_duality_and_oracle_equivalence():
    with criterion(5, "1000 fuzz cases: duality and oracle agreement", 120.0):
        rng = random.Random(5150)
        cases = 0
        while cases < 1000:
            model = random_model(rng, max_worlds=4, max_indices=2)
            formula = random_formula(rng, 4, atoms=("p", "q"), indices=model.poset.indices)
            index = rng.choice(model.poset.indices)
            for world in model.worlds:
                assert evaluate(model, world, index, formula) == naive_eval(
                    model, world, formula
                )
                dual_a = Diamond(index, formula)
                dual_b = Not(Box(index, Not(formula)))
                assert evaluate(model, world, index, dual_a) == evaluate(
                    model, world, index, dual_b
                )
            cases += 1


def test_criterion_6_round_trips():
    with criterion(6, "1000 formula and 200 model round-trips", 60.0):
        from salogic.syntax import parse_formula as pf, print_formula as prf

        rng = random.Random(660)
        for _ in range(1000):
            formula = random_formula(rng, 8)
            assert pf(prf(formula)) == formula
        for _ in range(200):
            model = random_model(rng)
            assert parse_model(print_model(model)) == model


_REPRO_SCRIPT = r"""
import hashlib
from salogic.core import CoherenceMode, IndexPoset
from salogic.search import Counterexample, SearchBounds, ValidUpTo, decide_valid
from salogic.errors import SalError
from salogic.semantics import FramePolicy
from salogic.syntax import parse_formula, parse_model, parse_proof, print_model

SUITE = [
    ("p | ~p", 2, 2),
    ("p -> p", 2, 2),
    ("p -> q -> p", 2, 2),
    ("<a>p -> <b>p", 2, 2),
    ("[a]p -> [b]p", 2, 2),
    ("<b>p -> <a>p", 2, 2),
    ("[b]p -> [a]p", 2, 2),
    ("[a](p -> q) -> ([a]p -> [a]q)", 2, 2),
    ("<a>(p | q) -> (<a>p | <a>q)", 2, 2),
    ("[a](p & q) -> [a]p", 2, 2),
    ("[a]p & <a>q -> <a>(p & q)", 2, 2),
    ("~<a>p -> [a]~p", 2, 2),
    ("[a]p -> p", 2, 2),
    ("p -> [a]<a>p", 2, 2),
    ("<a>p -> <a><a>p", 2, 2),
    ("[a]p | [a]~p", 2, 2),
    ("<a>p -> <b>p", 3, 2),
    ("[a]p -> [b]p", 3, 2),
    ("p | ~p", 3, 2),
    ("<a><b>p -> <a>p", 3, 2),
]

policy = FramePolicy(CoherenceMode.SHRINK)
chunks = []
for workers in (1, 4):
    for text, max_worlds, max_indices in SUITE:
        verdict = decide_valid(
            parse_formula(text),
            SearchBounds(max_worlds, max_indices),
            policy,
            workers=workers,
        )
        if isinstance(verdict, ValidUpTo):
            chunks.append(f"{workers} {text} :: valid\n")
        else:
            chunks.append(
                f"{workers} {text} :: counterexample {verdict.world} {verdict.index}\n"
                + print_model(verdict.model)
            )
# Each input has several offenders that an error could name; it must
# name the same one under every hash seed.
BROKEN = [
    lambda: parse_model("indices: a\nworlds: w0\nrel a: w0->x1 w0->y2 w0->z3\n"),
    lambda: parse_model("indices: a\nworlds: w0\nval p: q1 q2 q3\n"),
    lambda: parse_proof("indices: b c_1 a\norder: b<=c_1 c_1<=a a<=b\n1. p -> p ; A1\n"),
    lambda: IndexPoset(("a",), frozenset({("a", "a"), ("a", "x"), ("a", "y"), ("a", "z")})),
]
for build in BROKEN:
    try:
        build()
    except SalError as err:
        chunks.append(f"error {type(err).__name__}: {err}\n")
blob = "".join(chunks)
print(hashlib.sha256(blob.encode()).hexdigest())
print(blob, end="")
"""


def test_criterion_7_reproducibility_and_worker_equivalence():
    with criterion(7, "byte-identical verdicts across runs and worker counts", 240.0):
        outputs = []
        # The child finds the package through PYTHONPATH, whether or not
        # the caller exported it.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in ("1", "77", "2026"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-c", _REPRO_SCRIPT],
                capture_output=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        # worker counts 1 and 4 agree inside each run
        text = outputs[0].decode()
        lines = [l for l in text.splitlines()[1:] if " :: " in l]
        one = [l.split(" ", 1)[1] for l in lines if l.startswith("1 ")]
        four = [l.split(" ", 1)[1] for l in lines if l.startswith("4 ")]
        assert one == four and len(one) == 20
        assert sum(line.startswith("error ") for line in text.splitlines()) == 4
