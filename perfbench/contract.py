"""Work counts derived from the documented search contract and from the
formula ASTs, computed by the benchmark rather than read from the
program.

The candidate order is the one the search module documents: world counts
1..max_worlds outermost, then the searched posets in order; inside a
block a candidate is an integer whose low bits hold the valuation (atoms
sorted, atom-major, one bit per world) and whose high bits hold one n*n
relation mask per index, first declared index most significant.
"""

from __future__ import annotations

import hashlib

from salogic.core import (
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
)
from salogic.proofs import Axiom
from salogic.search import ValidUpTo
from salogic.syntax import print_model


def distinct_nodes(formula) -> list:
    """Distinct subformulas (syntactic equality), any order."""
    seen = set()
    out = []
    stack = [formula]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        out.append(g)
        if isinstance(g, Not) or isinstance(g, (Box, Diamond)):
            stack.append(g.operand)
        elif isinstance(g, (And, Or, Implies)):
            stack.extend((g.left, g.right))
    return out


def atoms_of(formula) -> tuple[str, ...]:
    return tuple(sorted({g.name for g in distinct_nodes(formula) if isinstance(g, Atom)}))


def skeleton_size(formula) -> int:
    """Propositional variables of the A1 skeleton: the atoms outside modal
    subformulas plus one per distinct maximal modal subformula."""
    names = set()
    stack = [formula]
    while stack:
        g = stack.pop()
        if isinstance(g, (Box, Diamond)):
            names.add(("modal", g))
        elif isinstance(g, Atom):
            names.add(("atom", g.name))
        elif isinstance(g, Not):
            stack.append(g.operand)
        else:
            stack.extend((g.left, g.right))
    return len(names)


def a1_rows(derivation) -> int:
    return sum(
        1 << skeleton_size(line.formula)
        for line in derivation.lines
        if line.justification == Axiom("A1")
    )


def machine_posets(max_indices: int) -> tuple[IndexPoset, ...]:
    if max_indices == 1:
        return (IndexPoset.from_order(("a",)),)
    return (
        IndexPoset.from_order(("a", "b")),
        IndexPoset.from_order(("a", "b"), [("a", "b")]),
    )


def a3_variants(poset: IndexPoset, alpha: str) -> tuple[IndexPoset, ...]:
    rest = [idx for idx in poset.indices if idx != alpha]
    return tuple(
        IndexPoset(
            poset.indices,
            poset.order,
            frozenset({alpha} | {idx for i, idx in enumerate(rest) if mask >> i & 1}),
        )
        for mask in range(1 << len(rest))
    )


def blocks(posets, max_worlds: int, atoms) -> list[tuple[int, IndexPoset, int]]:
    """(world count, poset, size) per block, in scan order."""
    return [
        (n, poset, 1 << (len(poset.indices) * n * n + n * len(atoms)))
        for n in range(1, max_worlds + 1)
        for poset in posets
    ]


def encode(model, atoms) -> int:
    """Block-local candidate integer of a decoded model."""
    n = len(model.worlds)
    wpos = {w: i for i, w in enumerate(model.worlds)}
    value = 0
    for idx in model.poset.indices:
        mask = 0
        for u, v in model.relations[idx]:
            mask |= 1 << (wpos[u] * n + wpos[v])
        value = (value << (n * n)) | mask
    val = 0
    for ai, atom in enumerate(atoms):
        for w in model.valuation.get(atom, ()):
            val |= 1 << (ai * n + wpos[w])
    return (value << (n * len(atoms))) | val


def position(model, posets, max_worlds: int, atoms) -> int:
    """Enumeration position of a model in the scan of `posets`."""
    offset = 0
    for n, poset, size in blocks(posets, max_worlds, atoms):
        if n == len(model.worlds) and poset == model.poset:
            return offset + encode(model, atoms)
        offset += size
    raise ValueError("witness lies outside the searched blocks")


def scan_counts(verdict, posets, max_worlds: int, atoms) -> tuple[int, int]:
    """(raw, scanned) candidates of one query: the full space, and the
    witness's enumeration position plus one (the full space for
    ValidUpTo)."""
    total = sum(size for _n, _p, size in blocks(posets, max_worlds, atoms))
    if isinstance(verdict, ValidUpTo):
        return total, total
    return total, position(verdict.model, posets, max_worlds, atoms) + 1


def witness_fingerprint(model, world, index, text, posets, max_worlds, atoms) -> str:
    """World, index, enumeration position and the sha256 of the model
    file text of a witness."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{world} {index} {position(model, posets, max_worlds, atoms)} {digest}"


def fingerprint(verdict, posets, max_worlds: int, atoms) -> str:
    """The string "valid", or "counter" and the witness fingerprint of
    the Counterexample's print_model bytes."""
    if isinstance(verdict, ValidUpTo):
        return "valid"
    text = print_model(verdict.model)
    return "counter " + witness_fingerprint(
        verdict.model, verdict.world, verdict.index, text, posets, max_worlds, atoms
    )


def row_query(row):
    """The posets and atoms one matrix row's query searched."""
    if row.schema == "A3":
        posets = a3_variants(row.poset, row.alpha)
    else:
        posets = (row.poset,)
    return posets, atoms_of(row.formula)


def _trace_nodes(trace) -> int:
    count = 0
    stack = [trace]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def layer_hooks() -> dict:
    """Count hooks for tracer.install, keyed "layer.function"."""
    sizes: dict[int, tuple] = {}

    def node_count(formula) -> int:
        hit = sizes.get(id(formula))
        if hit is None or hit[0] is not formula:
            hit = (formula, len(distinct_nodes(formula)))
            sizes[id(formula)] = hit
        return hit[1]

    def text_in(args, kwargs, result):
        text = args[0] if args else kwargs["text"]
        return {"syntax.bytes": len(text.encode())}

    def text_out(args, kwargs, result):
        return {"syntax.bytes": len(result.encode())}

    def evaluate(args, kwargs, result):
        model, formula = args[0], args[3]
        return {"semantics.cells": len(model.worlds) * node_count(formula)}

    def satisfying_worlds(args, kwargs, result):
        model, formula = args
        return {"semantics.cells": len(model.worlds) * node_count(formula)}

    def evaluate_with_trace(args, kwargs, result):
        return {"semantics.trace_nodes": _trace_nodes(result[1])}

    def decide_valid(args, kwargs, result):
        formula, bounds = args[0], args[1]
        posets = (bounds.poset,) if bounds.poset is not None else machine_posets(
            bounds.max_indices
        )
        atoms = bounds.atoms if bounds.atoms is not None else atoms_of(formula)
        raw, scanned = scan_counts(result, posets, bounds.max_worlds, atoms)
        return {
            "search.queries": 1,
            "search.witnesses": int(not isinstance(result, ValidUpTo)),
            "search.raw_candidates": raw,
            "search.scanned_candidates": scanned,
        }

    def axiom_matrix(args, kwargs, result):
        bounds = args[2]
        out = {"search.queries": 0, "search.witnesses": 0,
               "search.raw_candidates": 0, "search.scanned_candidates": 0}
        for row in result:
            posets, atoms = row_query(row)
            raw, scanned = scan_counts(row.verdict, posets, bounds.max_worlds, atoms)
            out["search.queries"] += 1
            out["search.witnesses"] += int(not isinstance(row.verdict, ValidUpTo))
            out["search.raw_candidates"] += raw
            out["search.scanned_candidates"] += scanned
        return out

    def check_derivation(args, kwargs, result):
        derivation = args[0]
        return {"proofs.lines": len(derivation.lines), "proofs.a1_rows": a1_rows(derivation)}

    hooks = {
        "semantics.evaluate": evaluate,
        "semantics.satisfying_worlds": satisfying_worlds,
        "semantics.evaluate_with_trace": evaluate_with_trace,
        "search.decide_valid": decide_valid,
        "search.axiom_matrix": axiom_matrix,
        "proofs.check_derivation": check_derivation,
    }
    for name in ("parse_formula", "parse_model", "parse_poset", "parse_proof"):
        hooks[f"syntax.{name}"] = text_in
    for name in ("print_formula", "print_model", "print_proof"):
        hooks[f"syntax.{name}"] = text_out
    return hooks
