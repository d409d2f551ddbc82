"""The candidate-order contract of the bounded search.

First witnesses are pinned to recorded goldens: each case runs
decide_valid or decide_sat on a seeded fuzz formula or a fixed one and
records the verdict kind, the witness world and index, the witness's raw
enumeration position (the offset of its block plus its candidate integer
in the documented layout) and the sha256 of print_model of the witness.
A change to how the search enumerates candidates must leave every entry
unchanged.  Regenerate the goldens (only when the contract itself
changes) with `PYTHONPATH=src python tests/test_scan_contract.py`.

The admissible relation tuples a block lists must be exactly the raw
relation space filtered by the frame conditions, in increasing order;
those of a projection onto some of the indices, the distinct
restrictions of that filtered space, in increasing order.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import numpy as np

from salogic import search
from salogic.core import CoherenceMode, IndexPoset, atom_names, modal_indices
from salogic.search import (
    Counterexample,
    Satisfiable,
    SearchBounds,
    decide_sat,
    decide_valid,
    enumerated_posets,
)
from salogic.semantics import FramePolicy
from salogic.syntax import parse_formula, parse_poset, print_formula, print_model

from fuzz import random_formula

GOLDEN = Path(__file__).with_name("witness_goldens.json")

POLICIES = tuple(
    FramePolicy(mode, refl) for mode in CoherenceMode for refl in (True, False)
)

# name -> (max_indices, poset or None for the machine posets)
SHAPES = {
    "machine-1": (1, None),
    "machine-2": (2, None),
    "single-stable": (1, IndexPoset.from_order(("a",), stable=("a",))),
    "chain-stable-a": (2, IndexPoset.from_order(("a", "b"), [("a", "b")], ("a",))),
    "chain-stable-b": (2, IndexPoset.from_order(("a", "b"), [("a", "b")], ("b",))),
    "chain-stable-ab": (2, IndexPoset.from_order(("a", "b"), [("a", "b")], ("a", "b"))),
    "antichain-stable-b": (2, IndexPoset.from_order(("a", "b"), stable=("b",))),
    "declared-b-below-a": (2, parse_poset("indices: a b\norder: b<=a\nstable: a\n")),
}

# (atoms, max_worlds) of the formulas drawn for every policy and shape
DRAWS = ((("p",), 3), (("p",), 3), (("p", "q"), 2))

# Fixed formulas, decided at 3 worlds, whose witnesses lie past the
# one-world block: schema instances and formulas that need two or three
# distinct worlds.  Those naming `b` are skipped on one-index shapes.
FIXED = (
    "[a]p -> p",
    "<a>p -> <b>p",
    "[a]p -> [b]p",
    "<b>p -> <a>p",
    "[b]p -> [a]p",
    "~(<a>(p & <a>p) & <a>(~p & <a>~p))",
    "~(p & <a>(~p & ~<a>p) & <a>(~p & <a>p))",
    "~(p & <b>(~p & ~<a>p) & <a>(~p & <b>p))",
    # `b` alone: the unnamed `a` sits in the high bits of a candidate.
    "[b]p -> p",
    "<b>p -> [b]p",
    "[b]p -> [b][b]p",
)


def cases():
    """(case id, decide function, formula, bounds, policy), in a fixed order."""
    rng = random.Random(4107)
    out = []
    for policy in POLICIES:
        refl = "refl" if policy.require_stable_reflexive else "norefl"
        for shape, (max_indices, poset) in SHAPES.items():
            indices = ("a", "b") if max_indices == 2 else ("a",)
            queries = []
            for atoms, max_worlds in DRAWS:
                formula = random_formula(rng, 3, atoms=atoms, indices=indices)
                queries.append((formula, max_worlds))
            for text in FIXED:
                formula = parse_formula(text)
                if set(modal_indices(formula)) <= set(indices):
                    queries.append((formula, 3))
            for qi, (formula, max_worlds) in enumerate(queries):
                bounds = SearchBounds(max_worlds, max_indices, poset=poset)
                for name, decide in (("valid", decide_valid), ("sat", decide_sat)):
                    case = f"{policy.coherence.value}/{refl}/{shape}/{qi}/{name}"
                    out.append((case, decide, formula, bounds, policy))
    return out


def raw_position(model, bounds, atoms) -> int:
    """Offset of the model's block plus its candidate integer, re-encoded
    from the model in the documented layout."""
    posets = (
        (bounds.poset,) if bounds.poset is not None else enumerated_posets(bounds.max_indices)
    )
    n = len(model.worlds)
    blocks = [(size, poset) for size in range(1, n + 1) for poset in posets]
    offset = sum(
        1 << (len(poset.indices) * size * size + size * len(atoms))
        for size, poset in blocks[: blocks.index((n, model.poset))]
    )
    wpos = {w: i for i, w in enumerate(model.worlds)}
    candidate = 0
    for idx in model.poset.indices:
        mask = sum(1 << (wpos[u] * n + wpos[v]) for u, v in model.relations[idx])
        candidate = (candidate << (n * n)) | mask
    val = sum(
        1 << (ai * n + wpos[w])
        for ai, atom in enumerate(atoms)
        for w in model.valuation[atom]
    )
    return offset + ((candidate << (n * len(atoms))) | val)


def fingerprint(verdict, formula, bounds) -> dict:
    entry = {"formula": print_formula(formula), "verdict": type(verdict).__name__}
    if isinstance(verdict, (Counterexample, Satisfiable)):
        entry["world"] = verdict.world
        entry["index"] = verdict.index
        entry["position"] = raw_position(verdict.model, bounds, atom_names(formula))
        entry["model_sha256"] = hashlib.sha256(
            print_model(verdict.model).encode()
        ).hexdigest()
    return entry


def run_cases() -> dict:
    return {
        case: fingerprint(decide(formula, bounds, policy), formula, bounds)
        for case, decide, formula, bounds, policy in cases()
    }


def test_first_witnesses_match_goldens():
    golden = json.loads(GOLDEN.read_text())
    got = run_cases()
    assert got.keys() == golden.keys()
    for case, entry in got.items():
        assert entry == golden[case], case


def raw_frame_filter(poset, n, policy) -> np.ndarray:
    """Every relation tuple of the block in increasing order, filtered by
    the frame conditions as validate_frame states them."""
    rel_bits, k = n * n, len(poset.indices)
    tuples = np.arange(1 << (k * rel_bits), dtype=np.int64)
    rel = {
        idx: (tuples >> ((k - 1 - j) * rel_bits)) & ((1 << rel_bits) - 1)
        for j, idx in enumerate(poset.indices)
    }
    ok = np.ones(tuples.shape, dtype=bool)
    for low, high in poset.strict_pairs():
        if policy.coherence is CoherenceMode.SHRINK:
            ok &= (rel[high] & ~rel[low]) == 0
        elif policy.coherence is CoherenceMode.GROW:
            ok &= (rel[low] & ~rel[high]) == 0
    if policy.require_stable_reflexive:
        diag = sum(1 << (i * n + i) for i in range(n))
        for idx in poset.stable:
            ok &= (rel[idx] & diag) == diag
    return tuples[ok]


def contract_blocks() -> list[tuple[IndexPoset, int]]:
    """Every shape's posets at 1-3 worlds, and a 3-index poset at 2."""
    posets = [*enumerated_posets(1), *enumerated_posets(2)]
    posets += [poset for _k, poset in SHAPES.values() if poset is not None]
    blocks = [(poset, n) for poset in posets for n in (1, 2, 3)]
    three = IndexPoset.from_order(("a", "b", "c"), [("b", "a"), ("b", "c")], ("c",))
    blocks.append((three, 2))
    return blocks


def test_admissible_tuples_equal_the_filtered_raw_space():
    for policy in POLICIES:
        for poset, n in contract_blocks():
            block = search._Block(poset, n, ("p",))
            expected = raw_frame_filter(poset, n, policy)
            # A small limit cuts every level into several pieces.
            for limit in (5, 1 << 13) if n < 3 else (1 << 13,):
                pieces = list(search._relation_tuples(block, policy, limit))
                assert all(0 < len(piece) <= limit for piece in pieces)
                got = np.concatenate(pieces)
                assert np.array_equal(got, expected), (policy, poset, n, limit)


def projected_tuples(poset, n, policy, kept) -> np.ndarray:
    dropped = frozenset(poset.indices) - set(kept)
    block = search._Block(poset, n, ("p",), dropped)
    return np.concatenate(list(search._relation_tuples(block, policy, 1 << 13)))


def test_projected_tuples_equal_the_restricted_filtered_space():
    for policy in POLICIES:
        for poset, n in contract_blocks():
            rel_bits, k = n * n, len(poset.indices)
            full = raw_frame_filter(poset, n, policy)
            for size in range(k + 1):
                for kept in combinations(poset.indices, size):
                    restricted = np.zeros_like(full)
                    for idx in kept:
                        shift = (k - 1 - poset.indices.index(idx)) * rel_bits
                        mask = (full >> shift) & ((1 << rel_bits) - 1)
                        restricted = (restricted << rel_bits) | mask
                    got = projected_tuples(poset, n, policy, kept)
                    assert np.array_equal(got, np.unique(restricted)), (
                        policy, poset, n, kept,
                    )
    # Among them the case that needs the whole poset: under shrink the
    # dropped stable `b` above `a` puts the diagonal inside R_b within R_a.
    chain_stable_b = SHAPES["chain-stable-b"][1]
    for n in (1, 2, 3):
        diag = sum(1 << (i * n + i) for i in range(n))
        got = projected_tuples(chain_stable_b, n, FramePolicy(CoherenceMode.SHRINK), ("a",))
        assert len(got) == 1 << (n * n - n) and ((got & diag) == diag).all()


if __name__ == "__main__":
    lines = [f"{json.dumps(case)}: {json.dumps(entry)}" for case, entry in run_cases().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
