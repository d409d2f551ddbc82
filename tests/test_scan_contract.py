"""The candidate-order contract of the bounded search.

First witnesses are pinned to recorded goldens: each case runs
decide_valid or decide_sat on a seeded fuzz formula or a fixed one and
records the verdict kind, the witness world and index, the witness's raw
enumeration position (the offset of its block plus its candidate integer
in the documented layout) and the sha256 of print_model of the witness.
witness_goldens.json holds cases at 1-3 worlds, four_world_goldens.json
one-index cases at 4 worlds.  A change to how the search enumerates
candidates must leave every entry unchanged.  Regenerate the goldens
(only when the contract itself changes) with
`PYTHONPATH=src python tests/test_scan_contract.py`.

The lanes of a block's slabs must be exactly the raw candidate space
filtered by the frame conditions, slab after slab in increasing order;
those of a projection onto some of the indices, the distinct
restrictions of that filtered space.  Each block's least hit must be
the object-level oracle's, also when the blocks at the largest world
count are probed first, and the axiom matrix must keep its recorded
digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import reduce
from itertools import combinations, compress, islice, product
from math import prod
from operator import or_
from pathlib import Path

import pytest

from salogic import search
from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    CoherenceMode,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    Program,
    atom_names,
    modal_indices,
)
from salogic.search import (
    Counterexample,
    Satisfiable,
    SearchBounds,
    ValidUpTo,
    axiom_matrix,
    decide_sat,
    decide_valid,
    enumerated_posets,
)
from salogic.errors import CycleError
from salogic.semantics import FramePolicy
from salogic.syntax import parse_formula, parse_poset, print_formula, print_model

from fuzz import random_formula, random_shared_formula
from oracles import (
    decode_candidate,
    first_countermodel,
    formula_signs,
    frame_ok,
    naive_eval,
)

GOLDEN = Path(__file__).with_name("witness_goldens.json")
FOUR_WORLD_GOLDEN = Path(__file__).with_name("four_world_goldens.json")

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


def golden_text(entries: dict) -> str:
    lines = [f"{json.dumps(case)}: {json.dumps(entry)}" for case, entry in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_first_witnesses_match_goldens():
    golden = json.loads(GOLDEN.read_text())
    got = run_cases()
    assert got.keys() == golden.keys()
    for case, entry in got.items():
        assert entry == golden[case], case


# One literal over p and q per world a four-world query asks for.
LITERALS = tuple(parse_formula(text) for text in ("p & q", "p & ~q", "~p & q", "~p & ~q"))


def four_world_cases():
    """(case id, formula, bounds, policy) of the 4-world goldens.

    First two valid queries that scan a whole 4-world block, then 22
    seeded ones.  Each negates the description of a world: a literal
    and one to three `<a>`-successors, each with another literal, every
    literal conjoined with a fuzzed disjunction.  Their first
    countermodels mostly have 3 or 4 worlds.  Each policy takes every
    sixth query, and every other query runs over `a` stable."""
    stable = IndexPoset.from_order(("a",), stable=("a",))
    shrink = FramePolicy(CoherenceMode.SHRINK)
    out = [
        (f"valid/{i}", parse_formula(text), SearchBounds(4, 1), shrink)
        for i, text in enumerate(("[a](p -> q) -> ([a]p -> [a]q)", "[a]p -> [a]p | q"))
    ]
    rng = random.Random(1)

    def fuzzed(literal):
        draws = [random_formula(rng, 2, ("p", "q"), ("a",)) for _ in range(2)]
        return And(literal, Or(*draws))

    for i in range(22):
        literals = rng.sample(LITERALS, 4)
        world = fuzzed(literals[0])
        for literal in literals[1 : 1 + rng.choice((1, 2, 3, 3))]:
            world = And(world, Diamond("a", fuzzed(literal)))
        bounds = SearchBounds(4, 1, poset=stable if i % 2 else None)
        out.append((f"fuzz/{i}", Not(world), bounds, POLICIES[i % 6]))
    return out


def run_four_world_cases() -> dict:
    return {
        case: fingerprint(decide_valid(formula, bounds, policy), formula, bounds)
        for case, formula, bounds, policy in four_world_cases()
    }


def test_four_world_first_witnesses_match_goldens():
    assert golden_text(run_four_world_cases()) == FOUR_WORLD_GOLDEN.read_text()


def column(bit: int, size: int) -> int:
    """The lanes among 0..size-1 whose own number has `bit` set, as an int."""
    width = 1 << bit
    return int(("1" * width + "0" * width) * (size // (2 * width)), 2)


def raw_frame_filter(poset, n, policy) -> list[int]:
    """Every relation tuple of the block in increasing order, filtered by
    the frame conditions as validate_frame states them.  Tuple t is lane
    t of a bit set, so each condition is one bitwise test per world pair."""
    rel_bits, k = n * n, len(poset.indices)
    size = 1 << (k * rel_bits)
    rel = {
        idx: [column((k - 1 - j) * rel_bits + q, size) for q in range(rel_bits)]
        for j, idx in enumerate(poset.indices)
    }
    ok = (1 << size) - 1
    for low, high in poset.strict_pairs():
        for q in range(rel_bits):
            if policy.coherence is CoherenceMode.SHRINK:
                ok &= ~(rel[high][q] & ~rel[low][q])
            elif policy.coherence is CoherenceMode.GROW:
                ok &= ~(rel[low][q] & ~rel[high][q])
    if policy.require_stable_reflexive:
        for idx in poset.stable:
            for i in range(n):
                ok &= rel[idx][i * n + i]
    flags = bin(ok)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return list(compress(range(len(flags)), flags))


def contract_blocks() -> list[tuple[IndexPoset, int]]:
    """Every shape's posets at 1-3 worlds, and a 3-index poset at 2."""
    posets = [*enumerated_posets(1), *enumerated_posets(2)]
    posets += [poset for _k, poset in SHAPES.values() if poset is not None]
    blocks = [(poset, n) for poset in posets for n in (1, 2, 3)]
    three = IndexPoset.from_order(("a", "b", "c"), [("b", "a"), ("b", "c")], ("c",))
    blocks.append((three, 2))
    return blocks


def slab_lanes(block, policy, slab, patterns) -> list[list[int]]:
    """The candidates of each slab the block lists under the caps, in
    lane order; no cell of a slab has more than `patterns` digits, and
    each slab's lane count is the product of its digit lists' lengths."""
    slabs = []
    for _depth, count, digits in search._split(search._layout(block, policy), slab, patterns):
        assert all(len(options) <= patterns for options in digits[block.val_bits :])
        assert count == prod(map(len, digits))
        lanes = [0]
        for options in digits:
            lanes = [lane + option for option in options for lane in lanes]
        slabs.append(lanes)
    return slabs


def assert_slabs_list(block, policy, expected, slab, patterns):
    """The slabs under the caps hold `expected`, each candidate once,
    each slab at most `slab` lanes and wholly below the next."""
    slabs = slab_lanes(block, policy, slab, patterns)
    assert all(0 < len(lanes) <= slab for lanes in slabs)
    assert all(max(low) < min(high) for low, high in zip(slabs, slabs[1:]))
    got = [candidate for lanes in slabs for candidate in lanes]
    assert sorted(got) == expected and len(set(got)) == len(got), (block, policy)


def test_slab_lanes_equal_the_filtered_raw_space():
    caps = (search._SLAB, search._PATTERNS)
    for policy in POLICIES:
        for poset, n in contract_blocks():
            expected = raw_frame_filter(poset, n, policy)
            # Without atoms a candidate is its relation tuple.
            assert_slabs_list(search._Block(poset, n, ()), policy, expected, *caps)
            if n < 3:
                # A cap of 4 lanes cuts every block into many slabs, some
                # of them one tuple crossed with a run of valuations; a cap
                # of 2 digits per cell splits linked indices too.
                with_valuations = [(t << (2 * n)) | v for t in expected for v in range(4**n)]
                block = search._Block(poset, n, ("p", "q"))
                assert_slabs_list(block, policy, with_valuations, 4, 2)


def pinned_filter(poset, n, policy, least, greatest) -> list[int]:
    """The admissible relation tuples, in increasing order, where each
    index in `least` has its least relation given the others, and each in
    `greatest` its greatest: clearing any one bit that a least index sets,
    or setting any one that a greatest index clears, leaves a tuple that
    fails the frame conditions."""
    tuples = raw_frame_filter(poset, n, policy)
    admissible = set(tuples)
    rel_bits, k = n * n, len(poset.indices)

    def extreme(t, idx, up):
        shift = (k - 1 - poset.indices.index(idx)) * rel_bits
        bits = [1 << (shift + q) for q in range(rel_bits)]
        return all(t ^ bit not in admissible for bit in bits if bool(t & bit) == up)

    return [
        t
        for t in tuples
        if all(extreme(t, idx, True) for idx in least)
        and all(extreme(t, idx, False) for idx in greatest)
    ]


def test_pinned_slab_lanes_equal_the_pinned_filtered_space():
    # Every way to pin each index least, greatest or not at all, with the
    # atom q pinned to every world or to none and p free: a pinned block
    # lists exactly the admissible candidates that hold its pins, each
    # once, in increasing slabs.  At the default caps and, on blocks of
    # at most 8 relation bits, at slabs of 2 lanes, where the walk fixes
    # bits of pinned indices and, at 2 worlds, pinned valuation bits too;
    # a child that fixes one the other way is empty.
    none = frozenset()
    for policy in POLICIES:
        for poset, n in contract_blocks():
            if n == 3 and len(poset.indices) > 1:
                continue
            for choice in product((None, "least", "greatest"), repeat=len(poset.indices)):
                least = frozenset(i for i, c in zip(poset.indices, choice) if c == "least")
                greatest = frozenset(i for i, c in zip(poset.indices, choice) if c == "greatest")
                tuples = pinned_filter(poset, n, policy, least, greatest)
                for q in (0, (1 << n) - 1):
                    pins = {"nowhere": frozenset({"q"})} if q == 0 else {"everywhere": frozenset({"q"})}
                    block = search._Block(poset, n, ("p", "q"), none, least, greatest, **pins)
                    expected = [(t << 2 * n) | (q << n) | v for t in tuples for v in range(1 << n)]
                    caps = [(search._SLAB, search._PATTERNS)]
                    caps += [(2, 2)] if len(poset.indices) * n * n <= 8 else []
                    for slab, patterns in caps:
                        assert_slabs_list(block, policy, expected, slab, patterns)


def restrictions(tuples, poset, n, kept) -> set[int]:
    """The distinct restrictions of relation tuples to the `kept` indices."""
    rel_bits, k = n * n, len(poset.indices)
    mask = (1 << rel_bits) - 1
    shifts = [(k - 1 - poset.indices.index(idx)) * rel_bits for idx in kept]
    if len(kept) < 2:
        return {(t >> shifts[0]) & mask for t in tuples} if kept else {0}
    return {
        sum(((t >> s) & mask) << (rel_bits * (len(kept) - 1 - i)) for i, s in enumerate(shifts))
        for t in tuples
    }


def test_projected_lanes_equal_the_restricted_filtered_space():
    caps = (search._SLAB, search._PATTERNS)
    for policy in POLICIES:
        for poset, n in contract_blocks():
            k = len(poset.indices)
            full = raw_frame_filter(poset, n, policy)
            # Keeping every index is the unprojected block, checked above.
            for size in range(k):
                for kept in combinations(poset.indices, size):
                    restricted = restrictions(full, poset, n, kept)
                    block = search._Block(poset, n, (), frozenset(poset.indices) - set(kept))
                    assert_slabs_list(block, policy, sorted(restricted), *caps)
    # Among them the case that needs the whole poset: under shrink the
    # dropped stable `b` above `a` puts the diagonal inside R_b within R_a.
    chain_stable_b = SHAPES["chain-stable-b"][1]
    for n in (1, 2, 3):
        diag = sum(1 << (i * n + i) for i in range(n))
        block = search._Block(chain_stable_b, n, (), frozenset({"b"}))
        slabs = slab_lanes(block, FramePolicy(CoherenceMode.SHRINK), *caps)
        lanes = [t for slab in slabs for t in slab]
        assert len(lanes) == 1 << (n * n - n) and all(t & diag == diag for t in lanes)


def oracle_hits(formula, poset, n, policy, atoms, kept) -> int | None:
    """Least restriction to `kept` of the block's falsifying candidates,
    by object-level enumeration."""
    k, rel_bits, val_bits = len(poset.indices), n * n, n * len(atoms)
    least = None
    for candidate in range(1 << (k * rel_bits + val_bits)):
        model = decode_candidate(poset, n, atoms, candidate)
        if not frame_ok(model, policy):
            continue
        if all(naive_eval(model, w, formula) for w in model.worlds):
            continue
        rest, restricted = candidate >> val_bits, 0
        for idx in kept:
            shift = (k - 1 - poset.indices.index(idx)) * rel_bits
            restricted = (restricted << rel_bits) | ((rest >> shift) & ((1 << rel_bits) - 1))
        restricted = (restricted << val_bits) | (candidate & ((1 << val_bits) - 1))
        least = restricted if least is None else min(least, restricted)
    return least


def test_first_hit_matches_the_oracle_on_fuzzed_blocks(monkeypatch):
    # One-index shapes at 1-3 worlds; two-index shapes at 1-2 worlds, in
    # full and projected onto each index the formula leaves out; each at
    # the default slab size and at 16 lanes, where every block has many.
    rng = random.Random(5521)
    shapes = [(IndexPoset.from_order(("a",)), 3), (SHAPES["single-stable"][1], 3)]
    shapes += [(poset, 2) for poset in enumerated_posets(2)]
    shapes += [(SHAPES[name][1], 2) for name in ("chain-stable-b", "declared-b-below-a")]
    hits = misses = projected = 0
    for policy in POLICIES:
        for poset, max_worlds in shapes:
            for n in range(1, max_worlds + 1):
                names = ("a", "b") if len(poset.indices) == 2 else ("a",)
                names = rng.choice([(name,) for name in names] + [names])
                formula = random_formula(rng, 3, atoms=("p",), indices=names)
                atoms = atom_names(formula)
                program = Program(formula)
                block = search._Block(poset, n, atoms)
                expected = first_countermodel(formula, (poset,), n, policy, atoms, min_worlds=n)
                dropped = frozenset(poset.indices) - set(modal_indices(formula))
                if dropped and len(poset.indices) > 1:
                    kept = tuple(i for i in poset.indices if i not in dropped)
                    least = oracle_hits(formula, poset, n, policy, atoms, kept)
                    projected += 1
                for cap in (1 << 16, 16):
                    monkeypatch.setattr(search, "_SLAB", cap)
                    hit = search._first_hit(block, program, policy)
                    if expected is None:
                        assert hit is None, (policy, poset, n, formula)
                    else:
                        assert hit is not None and search._decode(block, hit) == expected[0]
                    if dropped and len(poset.indices) > 1:
                        got = search._first_hit(block._replace(dropped=dropped), program, policy)
                        assert got == least, (policy, poset, n, formula, cap)
                hits += expected is not None
                misses += expected is None
    assert hits > 30 and misses > 10 and projected > 10


def test_lane_order_does_not_change_the_least_hit(monkeypatch):
    # _split lists each slab's cells in one fixed order: the one-bit
    # valuation cells, lowest first, and then the relation cells.  With
    # each slab's digit lists in a seeded random order instead, every
    # block's least hit stays the same: the slab holds the same
    # candidates, and _scan_slab finds its least hit by walking the
    # candidate bits.  One-index shapes at 1-3 worlds and two-index
    # shapes at 1-2 worlds, in full and projected onto the indices the
    # formula names, at the default caps and at (16, 2).
    rng, order = random.Random(3307), random.Random(3313)
    split = search._split
    moved = 0

    def shuffled_split(layout, slab, patterns):
        nonlocal moved
        for depth, lanes, digits in split(layout, slab, patterns):
            shuffled = order.sample(digits, len(digits))
            moved += shuffled != digits
            yield depth, lanes, shuffled

    def first_hit(block, program, policy, lists):
        monkeypatch.setattr(search, "_split", lists)
        search._first_slab.cache_clear()
        return search._first_hit(block, program, policy)

    shapes = [(IndexPoset.from_order(("a",)), 3), (SHAPES["single-stable"][1], 3)]
    shapes += [(poset, 2) for poset in enumerated_posets(2)]
    shapes += [(SHAPES[name][1], 2) for name in ("chain-stable-b", "declared-b-below-a")]
    hits = misses = projected = 0
    for policy in POLICIES:
        for poset, max_worlds in shapes:
            for n in range(1, max_worlds + 1):
                names = rng.choice([(name,) for name in poset.indices] + [poset.indices])
                formula = random_formula(rng, 3, atoms=("p",), indices=names)
                program = Program(formula)
                block = search._Block(poset, n, atom_names(formula))
                dropped = frozenset(poset.indices) - set(modal_indices(formula))
                blocks = [block, block._replace(dropped=dropped)] if dropped else [block]
                for slab, patterns in ((search._SLAB, search._PATTERNS), (16, 2)):
                    monkeypatch.setattr(search, "_SLAB", slab)
                    monkeypatch.setattr(search, "_PATTERNS", patterns)
                    for scanned in blocks:
                        expected = first_hit(scanned, program, policy, split)
                        got = first_hit(scanned, program, policy, shuffled_split)
                        assert got == expected, (policy, scanned, print_formula(formula), slab)
                        hits += expected is not None
                        misses += expected is None
                        projected += bool(scanned.dropped)
    search._first_slab.cache_clear()
    assert hits > 150 and misses > 20 and projected > 80 and moved > 1000


class _Enough(Exception):
    """Ends a block's scan once its first slab is checked."""


def test_kernel_lanes_match_the_oracle_at_one_to_four_worlds(monkeypatch):
    # Every value the kernel computes, for every world, is checked in a
    # sample of each slab's lanes: a lane's candidate is rebuilt from the
    # columns, and bit l of world w's int at each step must be the
    # oracle's truth value of that step's subformula at w.  The slab's
    # hit is the least falsifying candidate when every lane is sampled,
    # and at most the least sampled one otherwise.  One- and two-index
    # blocks at 1-4 worlds, every policy, the first slab of each.
    rng = random.Random(7349)
    antichain, chain = enumerated_posets(2)
    posets = [enumerated_posets(1)[0], SHAPES["single-stable"][1], antichain, chain]
    posets += [SHAPES["chain-stable-b"][1], SHAPES["declared-b-below-a"][1]]
    runs, scanned, falsified = [], [], []
    run, scan_slab = Program.run, search._scan_slab

    def spy_run(self, full, atom, diamond):
        values = run(self, full, atom, diamond)
        runs.append((self, values))
        return values

    def spy_scan_slab(block, program, plan):
        hit = scan_slab(block, program, plan)
        lanes, columns = plan.lanes, plan.columns
        [(ran, values)] = runs
        runs.clear()
        assert ran is program and len(values) == len(program.nodes)
        # Bit l of an int x is bit l % 8 of byte l // 8 of x's bytes.
        size = -(-lanes // 8)
        columns = {b: column.to_bytes(size, "little") for b, column in columns.items()}
        values = [[part.to_bytes(size, "little") for part in value] for value in values]
        bad = []  # the sampled lanes' falsifying candidates
        for lane in rng.sample(range(lanes), min(lanes, 200)):
            byte, bit = divmod(lane, 8)
            candidate = sum(1 << b for b, column in columns.items() if column[byte] >> bit & 1)
            model = search._decode(block, candidate)
            for node, value in zip(program.nodes, values):
                truths = [naive_eval(model, world, node) for world in model.worlds]
                assert [part[byte] >> bit & 1 for part in value] == truths, (block, lane, node)
            if not all(truths):
                bad.append(candidate)
        if lanes <= 200:
            assert hit == min(bad, default=None), block
        elif bad:
            assert hit is not None and hit <= min(bad), block
        falsified.extend([block.n] * len(bad))
        scanned.append(block.n)
        raise _Enough

    monkeypatch.setattr(Program, "run", spy_run)
    monkeypatch.setattr(search, "_scan_slab", spy_scan_slab)
    for policy in POLICIES:
        for n in (1, 2, 3, 4):
            for poset in posets:
                formula = random_formula(rng, 3, ("p", "q"), poset.indices)
                block = search._Block(poset, n, atom_names(formula))
                with pytest.raises(_Enough):
                    search._first_hit(block, Program(formula), policy)
    for n in (1, 2, 3, 4):
        assert scanned.count(n) == 36 and falsified.count(n) > 100, n


def test_a_narrower_slab_reuses_wider_columns_exactly(monkeypatch):
    # At 32 lanes the chain's 2-world slabs differ in width, and this
    # formula's least hit lies in a slab narrower than one before it.
    # Columns are cached by digit list and width, so the narrower slab
    # reads columns of its own width, never the wider slab's.
    chain = IndexPoset.from_order(("a", "b"), [("a", "b")])
    formula = parse_formula("~(<a>(p -> p) & p & [a](~p & <a>p))")
    policy = FramePolicy(CoherenceMode.SHRINK)
    model, _world = first_countermodel(formula, (chain,), 2, policy, ("p",), min_worlds=2)
    monkeypatch.setattr(search, "_SLAB", 32)
    block = search._Block(chain, 2, ("p",))
    layout = search._layout(block, policy)
    split = search._split(layout, 32, search._PATTERNS)
    widths = [lanes for _depth, lanes, _digits in split]
    hit = search._first_hit(block, Program(formula), policy)
    assert search._decode(block, hit) == model
    assert any(wide > narrow for wide, narrow in zip(widths, widths[1:]))


def test_periodic_columns_match_a_per_lane_reference():
    # _periodic repeats a period from bit 0, and lane l of a digit list's
    # columns takes digit l // stride mod the list's length; both equal a
    # lane-by-lane reading.  Sizes run past and short of whole bytes and
    # of the period, and a one-digit list's columns are every lane.
    rng = random.Random(3701)
    for _ in range(400):
        length = rng.randint(1, 40)
        size = rng.choice([rng.randint(0, length), rng.randint(length, 300)])
        period = rng.getrandbits(length)
        expected = sum(1 << lane for lane in range(size) if period >> lane % length & 1)
        assert search._periodic(period, length, size) == expected, (period, length, size)
    search._digit_columns.cache_clear()
    for _ in range(400):
        stride = rng.randint(1, 9)
        options = tuple(rng.getrandbits(6) for _ in range(rng.randint(1, 5)))
        lanes = rng.randint(0, 200)
        digit = [options[lane // stride % len(options)] for lane in range(lanes)]
        union = reduce(or_, options)
        expected = {
            b: sum(1 << lane for lane in range(lanes) if digit[lane] >> b & 1)
            for b in range(6)
            if union >> b & 1
        }
        assert search._digit_columns(stride, options, lanes) == expected, (stride, options, lanes)
    for stride, lanes in ((1, 1), (3, 13), (64, 65536), (5, 65535)):
        every = (1 << lanes) - 1
        assert search._digit_columns(stride, (0b1011,), lanes) == {0: every, 1: every, 3: every}


def plan_key(block, policy):
    return (search._layout(block, policy), search._SLAB, search._PATTERNS)


def fresh_plan(block, policy, slab, patterns) -> list[tuple[int, dict[int, int]]]:
    """The block's (lanes, columns) pairs under the caps, built from
    _split and _plan alone, with the column cache cleared first and no
    plan cache."""
    search._digit_columns.cache_clear()
    layout = search._layout(block, policy)
    plan = []
    for _depth, lanes, digits in search._split(layout, slab, patterns):
        plan.append((lanes, search._plan(layout, lanes, digits).columns))
    return plan


def later_slabs(key) -> list[tuple[int, dict[int, int]]]:
    """The (lanes, columns) pair of each slab after the first under the
    plan key, built as _first_hit builds them: from _split and _plan,
    with whatever _digit_columns holds."""
    layout = key[0]
    later = islice(search._split(*key), 1, None)
    return [(lanes, search._plan(layout, lanes, digits).columns) for _depth, lanes, digits in later]


def cached_plan(key) -> tuple[int, dict[int, int], bool]:
    """The (lanes, columns, more) of the first slab's plan under the plan
    key, as _first_slab holds it."""
    plan, more = search._first_slab(*key)
    return plan.lanes, plan.columns, more


def cache_hits() -> int:
    return search._first_slab.cache_info().hits


def kept_subsets(poset):
    for size in range(len(poset.indices) + 1):
        yield from combinations(poset.indices, size)


def three_index_posets() -> list[IndexPoset]:
    """Every partial order on a, b, c, with every stable set."""
    names = ("a", "b", "c")
    pairs = [(x, y) for x in names for y in names if x != y]
    orders = set()
    for mask in range(1 << len(pairs)):
        try:
            chosen = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            poset = IndexPoset.from_order(names, chosen)
        except CycleError:
            continue
        orders.add(poset.order)
    return [
        IndexPoset(names, order, frozenset(stable))
        for order in sorted(orders, key=sorted)
        for size in range(4)
        for stable in combinations(names, size)
    ]


def test_cached_plans_equal_fresh_plans(monkeypatch):
    # A plan is a function of its key: blocks with one key list the same
    # digits, and each block's plan, its first slab taken from the cache
    # that earlier blocks filled, equals the plan built with no cache.
    # `more` is set when the first slab fixes top bits, even when their
    # other values hold no candidate and the block lists one slab.
    # The blocks are every shape at 1-3 worlds and every 3-index poset at
    # one world.
    search._first_slab.cache_clear()
    digits_of = {}
    served = several = 0
    blocks = contract_blocks() + [(poset, 1) for poset in three_index_posets()]
    for policy in POLICIES:
        for poset, n in blocks:
            atoms = ("p",) if n < 3 else ()
            for kept in kept_subsets(poset):
                block = search._Block(poset, n, atoms, frozenset(poset.indices) - set(kept))
                key, case = plan_key(block, policy), (policy, poset, n, kept)
                slabs = list(search._split(*key))
                digits = [digits for _depth, _lanes, digits in slabs]
                assert digits_of.setdefault(key, digits) == digits, case
                before = cache_hits()
                fresh = fresh_plan(block, policy, *key[1:])
                assert cached_plan(key) == (*fresh[0], slabs[0][0] > 0), case
                assert later_slabs(key) == fresh[1:], case
                served += cache_hits() > before
                several += cache_hits() > before and len(digits) > 1
    assert served > 7000 and several > 5 and len(digits_of) < 200

    # Index names are not part of the layout: `a` in the chain and `b` in
    # the antichain, each alone, share one plan, built once per policy.
    antichain, chain = enumerated_posets(2)
    a_in_chain = search._Block(chain, 2, ("p",), frozenset({"b"}))
    b_in_antichain = search._Block(antichain, 2, ("p",), frozenset({"a"}))
    built = []
    plan = search._plan
    monkeypatch.setattr(search, "_plan", lambda *args: built.append(args) or plan(*args))
    for policy in POLICIES:
        search._first_slab.cache_clear()
        key = plan_key(a_in_chain, policy)
        assert key == plan_key(b_in_antichain, policy)
        assert search._first_slab(*key) == search._first_slab(*plan_key(b_in_antichain, policy))
        info = search._first_slab.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert len(built) == len(POLICIES)
    monkeypatch.setattr(search, "_plan", plan)

    # Blocks of several slabs keep their first slab: at 4 lanes and 2
    # digits per cell nearly every block has several.  _first_hit reads
    # the caps, which are part of the key, so no plan built at the
    # default caps is read here.  Served from the cache, the first slab
    # and the later ones equal those built with no cache at the same caps.
    monkeypatch.setattr(search, "_SLAB", 4)
    monkeypatch.setattr(search, "_PATTERNS", 2)
    served = 0
    for policy in POLICIES:
        for poset, n in contract_blocks():
            for kept in kept_subsets(poset) if n < 3 else ():
                block = search._Block(poset, n, ("p",), frozenset(poset.indices) - set(kept))
                fresh = fresh_plan(block, policy, 4, 2)
                before = cache_hits()
                key, case = plan_key(block, policy), (policy, poset, n, kept)
                more = next(search._split(*key))[0] > 0  # the first slab fixes top bits
                assert cached_plan(key) == (*fresh[0], more), case
                assert later_slabs(key) == fresh[1:], case
                served += cache_hits() > before and len(fresh) > 1
    assert served > 150


def reference_operands(block, lanes, columns) -> tuple:
    """A slab's (full, atoms, rows) kernel operands, rebuilt from its
    columns by the documented candidate layout: every lane at each world;
    per atom, the column of its bit at each world or 0; per kept index,
    per world w, the (u, column) pairs of its relation bits (w, u) that
    have a column."""
    n, k = block.n, len(block.kept)
    atoms = tuple(
        tuple(columns.get(a * n + w, 0) for w in range(n)) for a in range(len(block.atoms))
    )
    rows = []
    for j in range(k):
        first = block.val_bits + (k - 1 - j) * block.rel_bits
        bits = [[first + w * n + u for u in range(n)] for w in range(n)]
        rows.append(tuple(tuple((b % n, columns[b]) for b in row if b in columns) for row in bits))
    return ((1 << lanes) - 1,) * n, atoms, tuple(rows)


def test_plans_hold_the_operands_of_their_columns(monkeypatch):
    # The blocks and caps of test_cached_plans_equal_fresh_plans.  Each
    # first slab's cached plan, and each later slab's plan that _first_hit
    # scans, holds the operands rebuilt from its columns, the rows of
    # every kept index included.
    search._first_slab.cache_clear()
    cases = [
        (poset, n, ("p",) if n < 3 else (), search._SLAB, search._PATTERNS)
        for poset, n in contract_blocks() + [(poset, 1) for poset in three_index_posets()]
    ]
    cases += [(poset, n, ("p",), 4, 2) for poset, n in contract_blocks() if n < 3]
    plans = []
    scan_slab = search._scan_slab

    def spy_scan_slab(block, program, plan):
        plans.append(plan)
        return scan_slab(block, program, plan)

    monkeypatch.setattr(search, "_scan_slab", spy_scan_slab)
    first = later = 0
    for policy in POLICIES:
        for poset, n, atoms, slab, patterns in cases:
            monkeypatch.setattr(search, "_SLAB", slab)
            monkeypatch.setattr(search, "_PATTERNS", patterns)
            for kept in kept_subsets(poset):
                block = search._Block(poset, n, atoms, frozenset(poset.indices) - set(kept))
                case = (policy, poset, n, kept, slab)
                plan, _more = search._first_slab(*plan_key(block, policy))
                assert plan[2:] == reference_operands(block, plan.lanes, plan.columns), case
                first += 1
                if slab != 4:
                    continue
                # A tautology misses every slab, so _first_hit scans them
                # all.  This one names every kept index but the last, or
                # the only one, and every slab still holds every kept
                # index's rows.
                formula = Or(Atom("p"), Not(Atom("p")))
                for idx in kept[: max(1, len(kept) - 1)]:
                    seen = Diamond(idx, Atom("p"))
                    formula = And(formula, Or(seen, Not(seen)))
                plans.clear()
                assert search._first_hit(block, Program(formula), policy) is None, case
                assert plans[0] == plan, case
                for scanned in plans[1:]:
                    operands = reference_operands(block, scanned.lanes, scanned.columns)
                    assert scanned[2:] == operands, case
                    later += 1
    search._first_slab.cache_clear()
    assert first > 8000 and later > 10000


def test_a_repeated_query_builds_no_columns(monkeypatch):
    # Every block at 2 worlds fits one slab, whose plan _first_slab
    # holds; the 3-world chain's block takes 4 slabs, whose later columns
    # _digit_columns holds.  So once the first run has planned them, the
    # same queries build no columns, no layouts and no kernel operands.
    policy = FramePolicy(CoherenceMode.SHRINK)
    bounds = SearchBounds(2, 2)
    chain = enumerated_posets(2)[1]
    queries = [(parse_formula(text), bounds) for text in ("[a]p -> [b]p", "<b>p -> <a>p", "p | ~p")]
    queries.append((parse_formula("<b>p -> <a>p"), SearchBounds(3, 2, poset=chain)))
    block = search._Block(chain, 3, ("p",))
    layout = search._layout(block, policy)
    assert len(list(search._split(layout, search._SLAB, search._PATTERNS))) == 4
    matrix_args = ((AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), bounds)
    first = [decide_valid(formula, within, policy) for formula, within in queries]
    rows = axiom_matrix(*matrix_args)
    built = []
    periodic, layout, plan = search._periodic, search._Layout, search._plan
    monkeypatch.setattr(search, "_periodic", lambda *args: built.append("column") or periodic(*args))
    monkeypatch.setattr(search, "_Layout", lambda *args: built.append("layout") or layout(*args))
    monkeypatch.setattr(search, "_plan", lambda *args: built.append("operands") or plan(*args))
    assert [decide_valid(formula, within, policy) for formula, within in queries] == first
    assert axiom_matrix(*matrix_args) == rows
    assert built == []


def stable_shapes() -> list[IndexPoset]:
    """One index, the antichain and the chain, each with every stable set."""
    posets = [*enumerated_posets(1), *enumerated_posets(2)]
    return [
        IndexPoset(poset.indices, poset.order, frozenset(stable))
        for poset in posets
        for stable in kept_subsets(poset)
    ]


def test_probing_the_largest_blocks_keeps_the_first_countermodel():
    # decide_valid probes the blocks at the largest world count first and
    # then scans in candidate order; its verdict, model and world must be
    # those of the oracle, which scans from one world up.  The oracle
    # covers one index up to 3 worlds and two up to 2; a two-index query
    # at 3 worlds is checked when the oracle finds a countermodel on
    # fewer, which is then the first at 3 worlds too.  Each shape also
    # takes a fixed formula that needs several worlds.
    rng = random.Random(6203)
    smaller = full = valid = 0
    for policy in POLICIES:
        for poset in stable_shapes():
            fixed = [parse_formula(text) for text in FIXED]
            fixed = [f for f in fixed if set(modal_indices(f)) <= set(poset.indices)]
            draws = [random_formula(rng, 3, ("p",), poset.indices) for _ in range(3)]
            queries = [*zip(draws, (1, 2, 3)), (rng.choice(fixed), 3 - len(poset.indices) // 2)]
            for formula, max_worlds in queries:
                atoms = atom_names(formula)
                reach = max_worlds if len(poset.indices) == 1 else min(max_worlds, 2)
                expected = first_countermodel(formula, (poset,), reach, policy, atoms)
                if expected is None and reach < max_worlds:
                    continue
                bounds = SearchBounds(max_worlds, len(poset.indices), poset=poset)
                got = decide_valid(formula, bounds, policy)
                case = (policy, poset, max_worlds, print_formula(formula))
                if expected is None:
                    assert isinstance(got, ValidUpTo), case
                    valid += 1
                else:
                    assert isinstance(got, Counterexample), case
                    assert (got.model, got.world) == expected, case
                    smaller += len(got.model.worlds) < max_worlds
                    full += len(got.model.worlds) == max_worlds > 1
    assert smaller > 40 and full > 5 and valid > 20


def test_the_largest_blocks_are_probed_first(monkeypatch):
    policy = FramePolicy(CoherenceMode.NONE, False)
    bounds = SearchBounds(3, 2)
    antichain, chain = enumerated_posets(2)
    blocks, slabs, built = [], [], []
    first_hit, scan_slab, plan = search._first_hit, search._scan_slab, search._plan

    def spy_first_hit(block, program, policy):
        blocks.append((block.n, block.poset, block.dropped))
        return first_hit(block, program, policy)

    def spy_scan_slab(block, program, plan):
        hit = scan_slab(block, program, plan)
        slabs.append((block.n, plan.lanes, hit))
        return hit

    monkeypatch.setattr(search, "_first_hit", spy_first_hit)
    monkeypatch.setattr(search, "_scan_slab", spy_scan_slab)
    monkeypatch.setattr(search, "_plan", lambda *args: built.append(args) or plan(*args))

    # A valid formula scans the blocks at 3 worlds only, one per poset,
    # each projected onto the index it names.
    valid = parse_formula("[a](p -> q) -> ([a]p -> [a]q)")
    assert isinstance(decide_valid(valid, bounds, policy), ValidUpTo)
    assert blocks == [(3, antichain, {"b"}), (3, chain, {"b"})]

    # This formula's first countermodel has 1 world.  The largest block is
    # scanned up to its first slab that hits, then the 1-world antichain,
    # which names both indices and so needs no rescan.  Once its plans are
    # warm the query builds no plan.  Its probe spans 2^21 raw
    # candidates, more than one slab, so it pins `a` (negative) to its
    # greatest relation and `b` (positive) to its least: one slab of 8
    # lanes, the valuations of p, where the unpinned block has slabs of
    # 65536.
    refuted = parse_formula("<a>p -> <b>p")
    verdict = decide_valid(refuted, bounds, policy)
    assert len(verdict.model.worlds) == 1
    blocks.clear()
    slabs.clear()
    built.clear()
    assert decide_valid(refuted, bounds, policy) == verdict
    assert built == []
    assert blocks == [(3, antichain, frozenset()), (1, antichain, frozenset())]
    largest = search._Block(antichain, 3, ("p",))
    pinned = largest._replace(least=frozenset({"b"}), greatest=frozenset({"a"}))
    widths = {}
    for block in (largest, pinned):
        split = search._split(search._layout(block, policy), search._SLAB, search._PATTERNS)
        widths[block] = [lanes for _depth, lanes, _digits in split]
    assert widths[pinned] == [8] and widths[largest][0] == 65536
    probe = [(lanes, hit) for n, lanes, hit in slabs if n == 3]
    assert 0 < len(probe) <= len(widths[pinned]) < len(widths[largest])
    assert [lanes for lanes, _hit in probe] == widths[pinned][: len(probe)]
    assert [hit is not None for _lanes, hit in probe] == [False] * (len(probe) - 1) + [True]
    assert [(n, hit is not None) for n, _lanes, hit in slabs[len(probe) :]] == [(1, True)]


def test_a_probe_that_drops_no_index_is_not_rescanned(monkeypatch):
    # The formula names both indices, so the probe of the 2-world
    # antichain scans the block itself and its hit is the block's least.
    # After the 1-world blocks miss, that hit is reported with no second
    # scan of the block, and it is the oracle's first countermodel.
    policy = FramePolicy(CoherenceMode.SHRINK)
    formula = parse_formula("~(<a>(p & <a>p) & <a>(~p & <a>~p) & <b>p)")
    antichain, chain = enumerated_posets(2)
    blocks = []
    first_hit = search._first_hit

    def spy_first_hit(block, program, policy):
        blocks.append((block.n, block.poset, block.dropped))
        return first_hit(block, program, policy)

    monkeypatch.setattr(search, "_first_hit", spy_first_hit)
    verdict = decide_valid(formula, SearchBounds(2, 2), policy)
    whole = frozenset()
    assert blocks == [(2, antichain, whole), (1, antichain, whole), (1, chain, whole)]
    expected = first_countermodel(formula, (antichain, chain), 2, policy, ("p",))
    assert (verdict.model, verdict.world) == expected


def test_a_probe_only_pin_leaves_one_slab(monkeypatch):
    # `a` has negative sign only, so the probe pins it to its greatest
    # relation, every world pair; `p` has both signs and stays free.  The
    # probe of the 5-world block is then one slab of 2^5 valuations that
    # misses, where without that pin it would span 2^25 relations.
    lanes = []
    scan_slab = search._scan_slab

    def spy_scan_slab(block, program, plan):
        lanes.append(plan.lanes)
        return scan_slab(block, program, plan)

    monkeypatch.setattr(search, "_scan_slab", spy_scan_slab)
    bounds = SearchBounds(5, 1)
    verdict = decide_valid(parse_formula("[a](p | ~p)"), bounds, ceiling=10**10)
    assert verdict == ValidUpTo(bounds)
    assert lanes == [32]


def star_posets() -> list[IndexPoset]:
    """Three indices with `a` below both others, or above both, each with
    no stable index and with `a` stable."""
    below = [("a", "b"), ("a", "c")]
    above = [(high, low) for low, high in below]
    return [
        IndexPoset.from_order(("a", "b", "c"), order, stable)
        for order in (below, above)
        for stable in ((), ("a",))
    ]


def test_signs_match_the_recursive_reference():
    # _signs makes one pass over the compiled steps, where a subformula
    # that occurs several times is one step; the reference recurses over
    # the tree and visits each occurrence.  Fuzzed formulas built from
    # shared nodes, so that one step often has both signs.
    rng = random.Random(7411)
    mask = {frozenset({1}): search._POSITIVE, frozenset({-1}): search._NEGATIVE}
    mask[frozenset({1, -1})] = search._POSITIVE | search._NEGATIVE
    shared = mixed = 0
    for _ in range(400):
        formula = random_shared_formula(rng, rng.randrange(1, 12), ("p", "q", "r"), ("a", "b"))
        program = Program(formula)
        atoms, indices = formula_signs(formula)
        expected = (
            {name: mask[frozenset(signs)] for name, signs in atoms.items()},
            {name: mask[frozenset(signs)] for name, signs in indices.items()},
        )
        assert search._signs(program) == expected, print_formula(formula)
        shared += len(program.steps) < sum(1 for _ in _occurrences(formula))
        mixed += any(sign == 3 for names in expected for sign in names.values())
    assert shared > 100 and mixed > 50


def _occurrences(formula):
    """Every node occurrence of the tree, shared subtrees once per parent."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack += [getattr(node, name) for name in ("operand", "left", "right") if hasattr(node, name)]


def test_pinned_scans_keep_the_least_hit_and_the_verdict(monkeypatch):
    # _decide pins only probes wider than one slab; here the pins _pins
    # gives are put on blocks of every size.  Every scan's pins keep the
    # block's least hit: that of the unpinned block, and the oracle's
    # first countermodel.  The probe's pins, on the projection onto the
    # named indices, keep whether the block hits, and when the probe drops
    # no index its hit is an admissible countermodel that holds its atom
    # pins.  Every policy; one index at 1-3 worlds; the antichain and the
    # chain at 1-2 worlds, each with every stable set; stars of three
    # indices at one world.  A fifth of the draws scan an atom the
    # formula lacks.  At the default caps and at slabs of 16 lanes and
    # cells of 2 digits, where the walk fixes pinned bits too.
    rng = random.Random(7451)
    shapes = [(poset, 3 if len(poset.indices) == 1 else 2) for poset in stable_shapes()]
    shapes += [(poset, 1) for poset in star_posets()]
    pinned = probed = hits = misses = 0
    for policy in POLICIES:
        for poset, max_worlds in shapes:
            for n in range(1, max_worlds + 1):
                names = rng.choice([(name,) for name in poset.indices] + [poset.indices])
                formula = random_formula(rng, 3, rng.choice([("p",), ("p", "q")]), names)
                atoms = atom_names(formula)
                if rng.random() < 0.2:
                    atoms = tuple(sorted({*atoms, "r"}))
                program = Program(formula)
                pins, probe = search._pins(program, atoms)
                dropped = frozenset(poset.indices) - set(program.indices)
                expected = first_countermodel(formula, (poset,), n, policy, atoms, min_worlds=n)
                full = search._Block(poset, n, atoms)
                case = (policy, poset, n, atoms, print_formula(formula))
                for slab, patterns in ((search._SLAB, search._PATTERNS), (16, 2)):
                    monkeypatch.setattr(search, "_SLAB", slab)
                    monkeypatch.setattr(search, "_PATTERNS", patterns)
                    least = search._first_hit(full, program, policy)
                    if expected is None:
                        assert least is None, case
                    else:
                        assert search._decode(full, least) == expected[0], case
                    block = search._Block(poset, n, atoms, **pins)
                    assert search._first_hit(block, program, policy) == least, case
                    projection = search._Block(poset, n, atoms, dropped, **probe)
                    hit = search._first_hit(projection, program, policy)
                    assert (hit is None) == (least is None), case
                    if hit is not None and not dropped:
                        model = search._decode(projection, hit)
                        assert frame_ok(model, policy), case
                        assert not all(naive_eval(model, w, formula) for w in model.worlds), case
                        for atom in probe["nowhere"] | probe["everywhere"]:
                            pin = model.worlds if atom in probe["everywhere"] else ()
                            assert model.valuation[atom] == frozenset(pin), case
                pinned += block != full
                probed += projection != full._replace(dropped=dropped)
                hits += expected is not None
                misses += expected is None
    assert pinned > 100 and probed > 120 and hits > 100 and misses > 15


def test_pinning_keeps_every_verdict_and_witness(monkeypatch):
    # Queries whose probes span more than one slab, so that _decide pins
    # them: formulas naming both indices at 3 worlds, on the antichain and
    # the chain with every stable set, a fifth of them over an atom they
    # lack.  Two fuzzed formulas per shape and policy, and one of three
    # fixed ones whose first countermodel often needs 3 worlds, so that the
    # block whose probe hit is scanned again with every scan's pins.
    # Their verdicts and witnesses equal those found with _pins giving no
    # pin at all.
    rng = random.Random(7487)
    fixed = ("~(p & <b>(~p & ~<a>p) & <a>(~p & <b>p))", "<a><b>p -> <b><a>p", "[a][b]p -> [b][a]p")
    queries = []
    for policy in POLICIES:
        for poset in stable_shapes():
            if len(poset.indices) != 2:
                continue
            formulas = [parse_formula(rng.choice(fixed))]
            while len(formulas) < 3:
                formula = random_formula(rng, 3, ("p",), poset.indices)
                if set(modal_indices(formula)) == {"a", "b"}:
                    formulas.append(formula)
            for formula in formulas:
                atoms = ("p", "q") if rng.random() < 0.2 else None
                queries.append((formula, SearchBounds(3, 2, poset=poset, atoms=atoms), policy))
    pinned = [decide_valid(*query) for query in queries]
    monkeypatch.setattr(search, "_pins", lambda program, atoms: ({}, {}))
    assert [decide_valid(*query) for query in queries] == pinned
    worlds = [len(v.model.worlds) for v in pinned if isinstance(v, Counterexample)]
    assert worlds.count(3) > 3 and len(worlds) - worlds.count(3) > 10
    assert sum(isinstance(v, ValidUpTo) for v in pinned) > 5


def test_reflection_rows_match_the_oracle_over_every_stable_set():
    # An A3 row scans its poset with alpha alone stable.  Its verdict is
    # the oracle's first countermodel over every stable set that holds
    # alpha: one index at 1-3 worlds, the two-index shapes at 1-2 worlds
    # and every 3-index poset at one world, under every policy.
    bounds = [SearchBounds(3, 1), SearchBounds(2, 2)]
    bounds += [SearchBounds(1, 3, poset=poset) for poset in three_index_posets() if not poset.stable]
    found = valid = 0
    for policy in POLICIES:
        for bound in bounds:
            rows = axiom_matrix(
                tuple(AxiomProfile),
                (policy.coherence,),
                bound,
                require_stable_reflexive=policy.require_stable_reflexive,
            )
            for row in rows:
                if row.schema != "A3":
                    continue
                rest = [idx for idx in row.poset.indices if idx != row.alpha]
                stable_sets = [
                    replace(row.poset, stable=frozenset({row.alpha, *extra}))
                    for size in range(len(rest) + 1)
                    for extra in combinations(rest, size)
                ]
                expected = first_countermodel(
                    row.formula, stable_sets, bound.max_worlds, policy, ("p",)
                )
                case = (policy, row.poset, row.alpha)
                if expected is None:
                    assert row.verdict == ValidUpTo(bound), case
                    valid += 1
                else:
                    model, world = expected
                    assert row.verdict == Counterexample(model, world, model.poset.indices[0]), case
                    found += 1
    assert found > 50 and valid > 50


def test_the_plan_cache_stays_within_maxsize():
    # The 3-index posets at one world have several times more layouts
    # than the cache holds.  Over a seeded run of scans that draws the
    # layouts evenly, the cache never holds more than its maxsize, and
    # every hit, including those scanned with a plan rebuilt after its
    # eviction, equals the cold hit: the one found right after the cache
    # is cleared.
    rng = random.Random(2113)
    by_key: dict = {}  # plan key -> up to two (block, policy, program)
    for policy in POLICIES:
        for poset in three_index_posets():
            for kept in kept_subsets(poset):
                block = search._Block(poset, 1, ("p",), frozenset(poset.indices) - set(kept))
                items = by_key.setdefault(plan_key(block, policy), [])
                if len(items) < 2:
                    formula = random_formula(rng, 3, ("p",), kept) if kept else Atom("p")
                    items.append((block, policy, Program(formula)))
    maxsize = search._first_slab.cache_info().maxsize
    assert len(by_key) > 2 * maxsize
    cold = {}
    for items in by_key.values():
        for block, policy, program in items:
            search._first_slab.cache_clear()
            cold[block, policy] = search._first_hit(block, program, policy)
    search._first_slab.cache_clear()
    keys = list(by_key)
    seen, rebuilt = set(), 0
    for _step in range(600):
        key = rng.choice(keys)
        block, policy, program = rng.choice(by_key[key])
        misses = search._first_slab.cache_info().misses
        hit = search._first_hit(block, program, policy)
        info = search._first_slab.cache_info()
        assert info.currsize <= maxsize
        columns = search._digit_columns.cache_info()
        assert columns.currsize <= columns.maxsize
        rebuilt += info.misses > misses and key in seen
        seen.add(key)
        assert hit == cold[block, policy], (policy, block)
    # Every miss adds a plan, so the misses the cache does not hold were
    # evicted.
    assert info.misses - info.currsize > 100 and rebuilt > 100


def test_wide_valuations_keep_ints_within_the_slab():
    # 20 atoms at one world: 2^20 valuations, so every slab is a run of
    # them and no world's int of any value the program computes exceeds
    # _SLAB bits.  Each atom occurs with both signs, in the conjunction
    # and in the disjunction, so none is pinned and all 2^20 are scanned.
    names = [f"p{i}" for i in range(20)]
    conj, disj = Atom(names[0]), Atom(names[0])
    for name in names[1:]:
        conj, disj = And(conj, Atom(name)), Or(disj, Atom(name))
    formula = Implies(conj, disj)
    widest = []
    run = Program.run

    def spy(self, full, atom, diamond):
        values = run(self, full, atom, diamond)
        widest.append(max(part.bit_length() for value in values for part in value))
        return values

    original = Program.run
    Program.run = spy
    try:
        verdict = decide_valid(formula, SearchBounds(1, 1))
    finally:
        Program.run = original
    assert type(verdict).__name__ == "ValidUpTo"
    assert len(widest) == 16 and max(widest) <= search._SLAB


# Run in a fresh interpreter under a fixed hash seed; prints the sha256 of
# a text dump of each reflexivity setting's matrix.
_MATRIX_DUMP = textwrap.dedent(
    """
    import hashlib, json
    from salogic.core import AxiomProfile, CoherenceMode
    from salogic.search import SearchBounds, ValidUpTo, axiom_matrix
    from salogic.syntax import print_formula, print_model

    digests = {}
    for refl in (True, False):
        rows = axiom_matrix(
            tuple(AxiomProfile), tuple(CoherenceMode), SearchBounds(3, 2),
            require_stable_reflexive=refl,
        )
        lines = []
        for row in rows:
            lines.append(" ".join([
                row.schema, row.mode.value, " ".join(row.poset.indices),
                " ".join(f"{a}<={b}" for a, b in row.poset.strict_pairs()),
                "stable:" + " ".join(i for i in row.poset.indices if i in row.poset.stable),
                row.alpha, row.beta, print_formula(row.formula),
                str(row.require_stable_reflexive), type(row.verdict).__name__,
            ]))
            if not isinstance(row.verdict, ValidUpTo):
                lines.append(f"{row.verdict.world} {row.verdict.index}")
                lines.append(print_model(row.verdict.model))
        digests[str(refl).lower()] = hashlib.sha256("\\n".join(lines).encode()).hexdigest()
    print(json.dumps(digests))
    """
)

# Recorded before the scan moved from numpy to Python ints.
MATRIX_DIGESTS = {
    "true": "b444fe568aed60beeec73ea76cc201a58e1f4ec9fa5ca6015b98fc965e377925",
    "false": "85acb091a4cbdf4e7c6dc0f73a277cf46d2846d8b1e87566ab091e5c1deaf15b",
}


def test_axiom_matrix_dump_matches_digest():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONHASHSEED": "0",
    }
    result = subprocess.run(
        [sys.executable, "-c", _MATRIX_DUMP], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(result.stdout) == MATRIX_DIGESTS


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(run_cases()))
    FOUR_WORLD_GOLDEN.write_text(golden_text(run_four_world_cases()))
