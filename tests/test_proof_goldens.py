"""Outcomes of parse_proof on a seeded corpus, pinned in proof_goldens.json.

Each script is parsed and its outcome recorded: the printed proof and
the poset's index order on success, or the error's type, message, byte
span and expected set.  The corpus
has three groups, each reduced to one sha256 over its outcomes:
headerless scripts (indices named by formulas or only by a NEC, empty
scripts), headered scripts (indices in shuffled order, header lines
after numbered lines, `order:` or `stable:` with no `indices:`,
undeclared indices in formulas or only in a NEC, cyclic orders), and
broken scripts (wrong line numbers, a missing `;`, truncated formulas,
bad justifications, stray and non-ASCII characters inside formulas).
Every group varies spacing and adds `#` comments and non-ASCII text
before and between lines, so byte and character offsets differ.  A
change to the parser must leave every hash unchanged.
Regenerate the goldens (only when the parser's outcomes are meant to
change) with `PYTHONPATH=src python tests/test_proof_goldens.py`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from salogic.errors import SalError
from salogic.proofs import SCHEMA_TAGS
from salogic.syntax import parse_proof, print_formula, print_proof

from fuzz import random_formula
from test_text_goldens import digest

GOLDEN = Path(__file__).with_name("proof_goldens.json")

CASES_PER_GROUP = 1500
INDICES = ("a", "b", "c_1")
COMMENTS = ("# µ-step", "#ünïcode — ok", "  # plain", "# ∀x ∃y")


def outcome(text: str) -> str:
    try:
        derivation = parse_proof(text)
    except SalError as err:
        span = getattr(err, "span", None)
        where = f"{span.start}\t{span.end}" if span else "-"
        expected = sorted(getattr(err, "expected", ()))
        return f"!{type(err).__name__}\t{err.args[0]}\t{where}\t{expected}"
    return f"{print_proof(derivation)}\t{' '.join(derivation.poset.indices)}"


def _respace(rng: random.Random, text: str) -> str:
    pick = rng.randrange(3)
    if pick == 0:
        return text.replace(" ", "")
    if pick == 1:
        return text.replace(" ", rng.choice(("  ", "\t")))
    return text


def _justification(rng: random.Random, number: int, nec_indices) -> str:
    pick = rng.randrange(3)
    if pick == 0 or number == 1:
        return rng.choice(SCHEMA_TAGS)
    if pick == 1:
        return f"MP {rng.randrange(1, number)} {rng.randrange(1, number)}"
    return f"NEC {rng.choice(nec_indices)} {rng.randrange(1, number)}"


def _numbered(rng: random.Random, nec_indices=INDICES) -> list[list[str]]:
    """Proof lines as [number, formula, justification] texts."""
    lines = []
    for number in range(1, rng.randint(1, 5) + 1):
        f = random_formula(rng, rng.randint(0, 4), atoms=("p", "q"), indices=INDICES)
        lines.append(
            [f"{number}.", _respace(rng, print_formula(f)), _justification(rng, number, nec_indices)]
        )
    return lines


def _join(rng: random.Random, header: list[str], lines: list[list[str]]) -> str:
    """Script text: header lines placed anywhere among the numbered lines,
    with comments and blank lines sprinkled in."""
    body = [f"{n} {f} ; {j}" for n, f, j in lines]
    for entry in header:
        body.insert(rng.randint(0, len(body)) if rng.randrange(3) == 0 else 0, entry)
    out = []
    for entry in body:
        if rng.randrange(4) == 0:
            out.append(rng.choice(COMMENTS + ("",)))
        if rng.randrange(5) == 0:
            entry += " " + rng.choice(COMMENTS)
        out.append(entry)
    return "\n".join(out) + rng.choice(("\n", ""))


def headerless_texts():
    rng = random.Random(7201)
    for _ in range(CASES_PER_GROUP):
        if rng.randrange(40) == 0:
            yield rng.choice(("", "\n", "# µ only a comment\n"))
            continue
        # `d` and `e_2` are named only by a NEC, never by a formula.
        yield _join(rng, [], _numbered(rng, INDICES + ("d", "e_2")))


def _header(rng: random.Random) -> list[str]:
    declared = list(INDICES)
    rng.shuffle(declared)
    if rng.randrange(4) == 0:
        del declared[rng.randrange(len(declared)) :]  # may declare none
    header = []
    if declared or rng.randrange(2):
        header.append("indices: " + " ".join(declared))
    if rng.randrange(2):
        pairs = [f"{x}<={y}" for x, y in zip(declared, declared[1:]) if rng.randrange(2)]
        if rng.randrange(10) == 0:
            pairs.append(f"{rng.choice(INDICES)}<={rng.choice(INDICES)}")  # may cycle
        header.append("order: " + " ".join(pairs))
    if rng.randrange(2):
        stable = [i for i in INDICES if rng.randrange(2)]
        header.append("stable: " + " ".join(stable))
    rng.shuffle(header)
    return header


def headered_texts():
    rng = random.Random(7202)
    for _ in range(CASES_PER_GROUP):
        yield _join(rng, _header(rng), _numbered(rng, INDICES + ("d",)))


def _break(rng: random.Random, lines: list[list[str]]) -> None:
    line = rng.choice(lines)
    number, formula, justification = line
    pick = rng.randrange(6)
    if pick == 0:
        line[0] = rng.choice((f"{int(number[:-1]) + 1}.", "0.", f"{number[:-1]}0."))
    elif pick == 1:
        line[1:] = [f"{formula} {justification}", None]
    elif pick == 2:
        cut = rng.randrange(len(formula) + 1)
        line[1] = formula[:cut] + (formula[cut + 1 :] if rng.randrange(2) else "")
    elif pick == 3:
        line[2] = rng.choice(
            ("", "A1 x", "MP 1", "MP a 1", "NEC 1 a", "NEC a", "WAT", "K K", "mp 1 1", "NEC a 1 2",
             "MP ² 1", "NEC a ¹", "NEC µ 1", "MP 9 1", "NEC a 0")
        )
    else:
        cut = rng.randrange(len(formula) + 1)
        line[1] = formula[:cut] + rng.choice(("é", "µ", "@", "-", "!", " ∧ ")) + formula[cut:]


def broken_texts():
    rng = random.Random(7203)
    for _ in range(CASES_PER_GROUP):
        lines = _numbered(rng)
        _break(rng, lines)
        header = _header(rng) if rng.randrange(2) else []
        body = [
            f"{n} {f}" if j is None else f"{n} {f} ; {j}" for n, f, j in lines
        ]
        if rng.randrange(3) == 0:
            body.insert(0, rng.choice(COMMENTS))
        yield "\n".join(header + body) + "\n"


GROUPS = {"headerless": headerless_texts, "headered": headered_texts, "broken": broken_texts}


def run_cases() -> dict:
    result = {}
    for name, texts in GROUPS.items():
        outcomes = [outcome(text) for text in texts()]
        result[name] = {
            "cases": len(outcomes),
            "errors": sum(o.startswith("!") for o in outcomes),
            "sha256": digest(outcomes),
        }
    return result


def test_proof_outcomes_match_goldens():
    assert run_cases() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_cases(), indent=2) + "\n")
