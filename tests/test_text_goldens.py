"""Byte identity of the formula printer, the A1 skeleton and traces.

Each list below is reduced to one sha256 over its entries, pinned in
text_goldens.json: the rendered trace and verdict of seeded (model,
world, index, formula) cases, and the printed formula and printed
propositional skeleton of seeded formulas.  Some formulas reuse one
subformula object in several places, and some atoms are named like the
skeleton's placeholders.  A change to how these are computed must leave
every hash unchanged.  Regenerate the goldens (only when the output
itself is meant to change) with `PYTHONPATH=src python
tests/test_text_goldens.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from salogic.core import And, Diamond, Implies, Or
from salogic.proofs import propositional_skeleton
from salogic.semantics import evaluate_with_trace, render_trace
from salogic.syntax import print_formula

from fuzz import random_formula, random_model

GOLDEN = Path(__file__).with_name("text_goldens.json")

TRACE_CASES = 2400
FORMULA_CASES = 12000
FORMULA_ATOMS = ("p", "q", "m0_", "m2_")


def _shared(rng: random.Random, f, index: str):
    """`f` itself, or a formula holding the one object `f` twice."""
    pick = rng.randrange(4)
    if pick == 0:
        return And(f, Diamond(index, f))
    if pick == 1:
        return Implies(Or(f, Diamond(index, f)), f)
    return f


def trace_entries():
    rng = random.Random(7001)
    for case in range(TRACE_CASES):
        model = random_model(rng, max_worlds=5)
        indices = model.poset.indices
        f = random_formula(rng, rng.randint(0, 5), atoms=("p", "q"), indices=indices)
        f = _shared(rng, f, rng.choice(indices))
        world, index = rng.choice(model.worlds), rng.choice(indices)
        verdict, trace = evaluate_with_trace(model, world, index, f)
        yield f"{verdict}\n{render_trace(trace, case % 3)}"


def formula_entries():
    rng = random.Random(7002)
    for _ in range(FORMULA_CASES):
        f = random_formula(rng, rng.randint(0, 6), atoms=FORMULA_ATOMS)
        f = _shared(rng, f, rng.choice(("a", "b")))
        yield f"{print_formula(f)}\t{print_formula(propositional_skeleton(f))}"


def digest(entries) -> str:
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.encode() + b"\0")
    return h.hexdigest()


def run_cases() -> dict:
    return {
        "traces": {"cases": TRACE_CASES, "sha256": digest(trace_entries())},
        "formulas": {"cases": FORMULA_CASES, "sha256": digest(formula_entries())},
    }


def test_texts_match_goldens():
    assert run_cases() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_cases(), indent=2) + "\n")
