"""Record golden.json, the answers the benchmark compares witnesses with.

Usage: python3 perfbench/record_golden.py

Run it on the commit whose countermodels are the reference.  It records
  - `matrix`: per coherence mode and reflexivity setting, every row of
    the axiom matrix at 3 worlds and 2 indices, scanned with one worker,
    as [schema, poset shape, alpha, beta, fingerprint];
  - `cli`: a fixed pool of `sal valid` and `sal sat` commands at
    --max-worlds 2 with their exit code, first output line and witness
    fingerprint, each confirmed by running the command once.
A fingerprint is the witness's world, index, enumeration position and
the sha256 of its model file text.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from salogic import (  # noqa: E402
    AxiomProfile,
    CoherenceMode,
    FramePolicy,
    Not,
    SearchBounds,
    ValidUpTo,
    axiom_matrix,
    decide_valid,
    print_model,
)

import gen  # noqa: E402
from contract import fingerprint, machine_posets, row_query, witness_fingerprint  # noqa: E402
from workloads import Matrix, matrix_key, poset_label  # noqa: E402

POOL_PER_OUTCOME = 6


def matrix_golden() -> dict:
    out = {}
    for mode in CoherenceMode:
        for refl in (True, False):
            rows = axiom_matrix(
                tuple(AxiomProfile), (mode,), Matrix.bounds,
                require_stable_reflexive=refl, workers=1,
            )
            entries = []
            for r in rows:
                posets, atoms = row_query(r)
                entries.append([
                    r.schema, poset_label(r.poset), r.alpha, r.beta,
                    fingerprint(r.verdict, posets, Matrix.bounds.max_worlds, atoms),
                ])
            out[matrix_key(mode, refl)] = entries
    return out


def cli_entry(kind, formula, mode) -> dict:
    bounds = SearchBounds(2, 2)
    query = formula if kind == "valid" else Not(formula)
    verdict = decide_valid(query, bounds, FramePolicy(mode), workers=1)
    argv = [kind, gen.fmt(formula), "--max-worlds", "2", "--coherence", mode.value]
    tail = "up to 2 world(s), 2 index/indices"
    if isinstance(verdict, ValidUpTo):
        code = 0 if kind == "valid" else 1
        first = f"valid {tail}" if kind == "valid" else f"unsatisfiable {tail}"
        return {"argv": argv, "code": code, "first": first, "fingerprint": "valid"}
    word = "counterexample" if kind == "valid" else "satisfiable"
    atoms = tuple(sorted(verdict.model.valuation))
    return {
        "argv": argv,
        "code": 1 if kind == "valid" else 0,
        "first": f"# {word} at world {verdict.world} index {verdict.index}",
        "fingerprint": witness_fingerprint(
            verdict.model, verdict.world, verdict.index, print_model(verdict.model),
            machine_posets(2), 2, atoms,
        ),
    }


def cli_golden() -> list:
    rng = random.Random("perfbench:golden:cli")
    entries = []
    for kind in ("valid", "sat"):
        wanted = {"valid": POOL_PER_OUTCOME, "witness": POOL_PER_OUTCOME}
        while any(wanted.values()):
            formula = gen.sized_formula(rng, 3, 7, ("p", "q"), ("a", "b"))
            entry = cli_entry(kind, formula, rng.choice(list(CoherenceMode)))
            outcome = "valid" if entry["fingerprint"] == "valid" else "witness"
            if wanted[outcome]:
                wanted[outcome] -= 1
                entries.append(entry)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for entry in entries:
        done = subprocess.run(
            [sys.executable, "-m", "salogic", *entry["argv"]],
            capture_output=True, text=True, cwd=ROOT, env=env, check=False,
        )
        first = done.stdout.splitlines()[0]
        if done.returncode != entry["code"] or first != entry["first"]:
            raise SystemExit(f"sal disagrees with the library on {entry['argv']}")
    return entries


def main() -> None:
    golden = {"matrix": matrix_golden(), "cli": cli_golden()}
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
