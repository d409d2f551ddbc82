"""Outcomes of parse_formula on a seeded corpus, pinned in parse_goldens.json.

Each case is parsed and its outcome recorded: the printed formula on
success, or the error's message, byte span and expected set.  The
corpus has three groups, each reduced to one sha256 over its outcomes:
printed random formulas with their spacing varied, truncated and
token-dropped texts, and inputs nested 120-135 deep (runs of `~`, `[i]`
and `<i>`, parentheses, implication chains, siblings whose depths sum
past the limit, and random mixes, some cut short).  A change to the
parser must leave every hash unchanged.  Regenerate the goldens (only
when the parser's outcomes are meant to change) with `PYTHONPATH=src
python tests/test_parse_goldens.py`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from salogic.errors import ParseError
from salogic.syntax import parse_formula, print_formula

from fuzz import random_formula
from test_text_goldens import digest

GOLDEN = Path(__file__).with_name("parse_goldens.json")

VALID_CASES = 3000
TRUNCATED_CASES = 3000
DEEP_RANGE = range(120, 136)
MIXED_PER_DEPTH = 16
INDICES = ("a", "b", "c_1")


def outcome(text: str) -> str:
    try:
        return print_formula(parse_formula(text))
    except ParseError as err:
        return f"!{err.args[0]}\t{err.span.start}\t{err.span.end}\t{sorted(err.expected)}"


def _respace(rng: random.Random, text: str) -> str:
    pick = rng.randrange(3)
    if pick == 0:
        return text.replace(" ", "")
    if pick == 1:
        return text.replace(" ", rng.choice(("  ", "\t", " \n ")))
    return text


def valid_texts():
    rng = random.Random(7101)
    for _ in range(VALID_CASES):
        f = random_formula(rng, rng.randint(0, 7), indices=INDICES)
        yield _respace(rng, print_formula(f))


def truncated_texts():
    rng = random.Random(7102)
    for _ in range(TRUNCATED_CASES):
        text = print_formula(random_formula(rng, rng.randint(1, 6), indices=INDICES))
        cut = rng.randrange(len(text))
        if rng.randrange(2):
            yield text[:cut]
        else:
            # drop one character, which may split a token or an operator
            yield text[:cut] + text[cut + 1 :]


def _mixed(rng: random.Random, depth: int) -> str:
    opened, closers = [], []
    for _ in range(depth):
        piece = rng.choice(("~", "[a]", "<b>", "[c_1]", "(", "p -> ", "q & ~", "(r | "))
        opened.append(piece)
        if piece.startswith("("):
            closers.append(")")
    text = "".join(opened) + "p" + "".join(reversed(closers))
    if rng.randrange(4) == 0:
        text = text[: rng.randrange(len(text))]
    return text


def deep_texts():
    rng = random.Random(7103)
    for d in DEEP_RANGE:
        yield "~" * d + "p"
        yield "[a]" * d + "p"
        yield "<b>" * d + "p"
        yield "(" * d + "p" + ")" * d
        yield "(" * d + "p" + ")" * (d - 1)
        yield "p -> " * d + "p"
        yield "(" * (d // 2) + "~" * (d - d // 2) + "p" + ")" * (d // 2)
        yield "[a]" * d + "[a"
        yield "<b>" * d + "<"
        yield "~" * d + "p & " + "~" * d + "q"
        yield "(" * 100 + "p" + ")" * 100 + " | " + "[a]" * (d - 100) + "~" * 100 + "q"
        yield "p -> " * (d - 60) + "(" * 60 + "p" + ")" * 60
        yield "(" + "p -> " * 60 + "p) & " + "~" * (d - 60) + "p"
        for _ in range(MIXED_PER_DEPTH):
            yield _mixed(rng, d)


GROUPS = {"valid": valid_texts, "truncated": truncated_texts, "deep": deep_texts}


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


def test_parse_outcomes_match_goldens():
    assert run_cases() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_cases(), indent=2) + "\n")
