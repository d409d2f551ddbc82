"""The candidate-order contract of the bounded search.

First witnesses are pinned to recorded goldens: each case runs
decide_valid or decide_sat on a seeded fuzz formula or a fixed one and
records the verdict kind, the witness world and index, the witness's raw
enumeration position (the offset of its block plus its candidate integer
in the documented layout) and the sha256 of print_model of the witness.
A change to how the search enumerates candidates must leave every entry
unchanged.  Regenerate the goldens (only when the contract itself
changes) with `PYTHONPATH=src python tests/test_scan_contract.py`.

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
from itertools import combinations, compress
from math import prod
from pathlib import Path

from salogic import search
from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    CoherenceMode,
    Implies,
    IndexPoset,
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

from fuzz import random_formula
from oracles import decode_candidate, first_countermodel, frame_ok, naive_eval

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


def slab_lanes(block, policy) -> list[list[int]]:
    """The candidates of each slab the block lists, in lane order."""
    slabs = []
    for _depth, digits in search._split(search._layout(block, policy)):
        lanes = [0]
        for options in digits:
            lanes = [lane + option for option in options for lane in lanes]
        slabs.append(lanes)
    return slabs


def assert_slabs_list(block, policy, expected, cap):
    """The slabs hold `expected`, each candidate once, each slab at most
    `cap` lanes and wholly below the next."""
    slabs = slab_lanes(block, policy)
    assert all(0 < len(lanes) <= cap for lanes in slabs)
    assert all(max(low) < min(high) for low, high in zip(slabs, slabs[1:]))
    got = [candidate for lanes in slabs for candidate in lanes]
    assert sorted(got) == expected and len(set(got)) == len(got), (block, policy)


def test_slab_lanes_equal_the_filtered_raw_space(monkeypatch):
    for policy in POLICIES:
        for poset, n in contract_blocks():
            expected = raw_frame_filter(poset, n, policy)
            # Without atoms a candidate is its relation tuple.
            assert_slabs_list(search._Block(poset, n, ()), policy, expected, search._SLAB)
            if n < 3:
                # A cap of 4 lanes cuts every block into many slabs, some
                # of them one tuple crossed with a run of valuations; a cap
                # of 2 digits per cell splits linked indices too.
                with_valuations = [(t << (2 * n)) | v for t in expected for v in range(4**n)]
                with monkeypatch.context() as patch:
                    patch.setattr(search, "_SLAB", 4)
                    patch.setattr(search, "_PATTERNS", 2)
                    block = search._Block(poset, n, ("p", "q"))
                    assert_slabs_list(block, policy, with_valuations, 4)


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
    for policy in POLICIES:
        for poset, n in contract_blocks():
            k = len(poset.indices)
            full = raw_frame_filter(poset, n, policy)
            # Keeping every index is the unprojected block, checked above.
            for size in range(k):
                for kept in combinations(poset.indices, size):
                    restricted = restrictions(full, poset, n, kept)
                    block = search._Block(poset, n, (), frozenset(poset.indices) - set(kept))
                    assert_slabs_list(block, policy, sorted(restricted), search._SLAB)
    # Among them the case that needs the whole poset: under shrink the
    # dropped stable `b` above `a` puts the diagonal inside R_b within R_a.
    chain_stable_b = SHAPES["chain-stable-b"][1]
    for n in (1, 2, 3):
        diag = sum(1 << (i * n + i) for i in range(n))
        block = search._Block(chain_stable_b, n, (), frozenset({"b"}))
        lanes = [t for slab in slab_lanes(block, FramePolicy(CoherenceMode.SHRINK)) for t in slab]
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
                        got = search._first_hit(replace(block, dropped=dropped), program, policy)
                        assert got == least, (policy, poset, n, formula, cap)
                hits += expected is not None
                misses += expected is None
    assert hits > 30 and misses > 10 and projected > 10


def test_a_narrower_slab_reuses_wider_columns_exactly(monkeypatch):
    # At 32 lanes the chain's 2-world slabs differ in width, and this
    # formula's least hit lies in a slab narrower than one before it,
    # which reuses the columns built at the wider width.
    chain = IndexPoset.from_order(("a", "b"), [("a", "b")])
    formula = parse_formula("~(<a>(p -> p) & p & [a](~p & <a>p))")
    policy = FramePolicy(CoherenceMode.SHRINK)
    model, _world = first_countermodel(formula, (chain,), 2, policy, ("p",), min_worlds=2)
    monkeypatch.setattr(search, "_SLAB", 32)
    block = search._Block(chain, 2, ("p",))
    layout = search._layout(block, policy)
    widths = [prod(map(len, digits)) for _depth, digits in search._split(layout)]
    hit = search._first_hit(block, Program(formula), policy)
    assert search._decode(block, hit) == model
    assert any(wide > narrow for wide, narrow in zip(widths, widths[1:]))


def plan_key(block, policy):
    return (search._layout(block, policy), search._SLAB, search._PATTERNS)


def fresh_plan(block, policy) -> list[tuple[int, dict[int, int]]]:
    """The block's (lanes, columns) pairs built from _split and _columns
    alone, with no cache."""
    plan, known, width = [], {}, 0
    for _depth, digits in search._split(search._layout(block, policy)):
        lanes = prod(map(len, digits))
        width = max(width, lanes)
        columns, known = search._columns(digits, lanes, width, known)
        plan.append((lanes, columns))
    return plan


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
                digits = [digits for _depth, digits in search._split(key[0])]
                assert digits_of.setdefault(key, digits) == digits, case
                before = cache_hits()
                assert list(search._plan(block, policy)) == fresh_plan(block, policy), case
                served += cache_hits() > before
                several += cache_hits() > before and len(digits) > 1
    assert served > 7000 and several > 5 and len(digits_of) < 200

    # Index names are not part of the layout: `a` in the chain and `b` in
    # the antichain, each alone, share one plan, built once per policy.
    antichain, chain = enumerated_posets(2)
    a_in_chain = search._Block(chain, 2, ("p",), frozenset({"b"}))
    b_in_antichain = search._Block(antichain, 2, ("p",), frozenset({"a"}))
    built = []
    columns = search._columns
    monkeypatch.setattr(search, "_columns", lambda *args: built.append(args) or columns(*args))
    for policy in POLICIES:
        search._first_slab.cache_clear()
        assert list(search._plan(a_in_chain, policy)) == list(search._plan(b_in_antichain, policy))
        info = search._first_slab.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert len(built) == len(POLICIES)
    monkeypatch.setattr(search, "_columns", columns)

    # Blocks of several slabs keep their first slab: at 4 lanes and 2
    # digits per cell nearly every block has several.  The caps are part
    # of the key, so no plan built at the default caps is read here.
    # Served from the cache, the first slab and the later ones equal
    # those built with no cache.
    monkeypatch.setattr(search, "_SLAB", 4)
    monkeypatch.setattr(search, "_PATTERNS", 2)
    served = 0
    for policy in POLICIES:
        for poset, n in contract_blocks():
            for kept in kept_subsets(poset) if n < 3 else ():
                block = search._Block(poset, n, ("p",), frozenset(poset.indices) - set(kept))
                fresh = fresh_plan(block, policy)
                before = cache_hits()
                assert list(search._plan(block, policy)) == fresh, (policy, poset, n, kept)
                served += cache_hits() > before and len(fresh) > 1
    assert served > 150


def test_a_repeated_query_builds_no_columns(monkeypatch):
    # Every block at 2 worlds fits one slab, so once the first run has
    # planned them, the same queries build no columns and no layouts.
    policy = FramePolicy(CoherenceMode.SHRINK)
    bounds = SearchBounds(2, 2)
    formulas = [parse_formula(text) for text in ("[a]p -> [b]p", "<b>p -> <a>p", "p | ~p")]
    matrix_args = ((AxiomProfile.SECTION2,), (CoherenceMode.SHRINK,), bounds)
    first = [decide_valid(formula, bounds, policy) for formula in formulas]
    rows = axiom_matrix(*matrix_args)
    built = []
    columns, layout = search._columns, search._Layout
    monkeypatch.setattr(search, "_columns", lambda *args: built.append(args) or columns(*args))
    monkeypatch.setattr(search, "_Layout", lambda *args: built.append(args) or layout(*args))
    assert [decide_valid(formula, bounds, policy) for formula in formulas] == first
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
    first_hit, scan_slab, columns = search._first_hit, search._scan_slab, search._columns

    def spy_first_hit(block, program, policy):
        blocks.append((block.n, block.poset, block.dropped))
        return first_hit(block, program, policy)

    def spy_scan_slab(block, program, lanes, columns):
        hit = scan_slab(block, program, lanes, columns)
        slabs.append((block.n, lanes, hit))
        return hit

    monkeypatch.setattr(search, "_first_hit", spy_first_hit)
    monkeypatch.setattr(search, "_scan_slab", spy_scan_slab)
    monkeypatch.setattr(search, "_columns", lambda *args: built.append(args) or columns(*args))

    # A valid formula scans the blocks at 3 worlds only, one per poset,
    # each projected onto the index it names.
    valid = parse_formula("[a](p -> q) -> ([a]p -> [a]q)")
    assert isinstance(decide_valid(valid, bounds, policy), ValidUpTo)
    assert blocks == [(3, antichain, {"b"}), (3, chain, {"b"})]

    # This formula's first countermodel has 1 world.  The largest block is
    # scanned up to its first slab that hits, then the 1-world antichain,
    # which names both indices and so needs no rescan.  Once its plans are
    # warm the query builds no columns.
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
    layout = search._layout(largest, policy)
    widths = [prod(map(len, digits)) for _depth, digits in search._split(layout)]
    probe = [(lanes, hit) for n, lanes, hit in slabs if n == 3]
    assert len(widths) > 1 and 0 < len(probe) < len(widths)
    assert [lanes for lanes, _hit in probe] == widths[: len(probe)]
    assert [hit is not None for _lanes, hit in probe] == [False] * (len(probe) - 1) + [True]
    assert [(n, hit is not None) for n, _lanes, hit in slabs[len(probe) :]] == [(1, True)]


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
        rebuilt += info.misses > misses and key in seen
        seen.add(key)
        assert hit == cold[block, policy], (policy, block)
    # Every miss adds a plan, so the misses the cache does not hold were
    # evicted.
    assert info.misses - info.currsize > 100 and rebuilt > 100


def test_wide_valuations_keep_ints_within_the_slab():
    # 20 atoms at one world: 2^20 valuations, so every slab is a run of
    # them and no value the program computes exceeds _SLAB bits.
    names = [f"p{i}" for i in range(20)]
    conj = Atom(names[0])
    for name in names[1:]:
        conj = And(conj, Atom(name))
    formula = Implies(conj, Or(Atom(names[7]), Atom(names[19])))
    widest = []
    run = Program.run

    def spy(self, full, atom, diamond):
        values = run(self, full, atom, diamond)
        widest.append(max(value.bit_length() for value in values))
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
    lines = [f"{json.dumps(case)}: {json.dumps(entry)}" for case, entry in run_cases().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
