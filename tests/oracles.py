"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different route than the
production code: plain recursion instead of labeling, object-level model
enumeration instead of vectorized scans, a tuple-IR truth table instead
of the package's own, and literal pattern cases for the axiom schemas.
"""

from __future__ import annotations

from itertools import product

from salogic.core import (
    And,
    Atom,
    Box,
    CoherenceMode,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    StratifiedModel,
)


def naive_eval(model: StratifiedModel, world: str, formula) -> bool:
    """Truth by direct recursion over the AST, no caching, no index table."""
    if isinstance(formula, Atom):
        return world in model.valuation[formula.name]
    if isinstance(formula, Not):
        return not naive_eval(model, world, formula.operand)
    if isinstance(formula, And):
        return naive_eval(model, world, formula.left) and naive_eval(
            model, world, formula.right
        )
    if isinstance(formula, Or):
        return naive_eval(model, world, formula.left) or naive_eval(
            model, world, formula.right
        )
    if isinstance(formula, Implies):
        return (not naive_eval(model, world, formula.left)) or naive_eval(
            model, world, formula.right
        )
    if isinstance(formula, Box):
        return all(
            naive_eval(model, v, formula.operand)
            for (u, v) in model.relations[formula.index]
            if u == world
        )
    if isinstance(formula, Diamond):
        return any(
            naive_eval(model, v, formula.operand)
            for (u, v) in model.relations[formula.index]
            if u == world
        )
    raise TypeError(formula)


def frame_ok(model: StratifiedModel, policy) -> bool:
    """Direct reading of the frame conditions, independent of validate_frame."""
    order = model.poset.order
    for a in model.poset.indices:
        for b in model.poset.indices:
            if a == b or (a, b) not in order:
                continue
            if policy.coherence is CoherenceMode.SHRINK:
                if not model.relations[b] <= model.relations[a]:
                    return False
            elif policy.coherence is CoherenceMode.GROW:
                if not model.relations[a] <= model.relations[b]:
                    return False
    if policy.require_stable_reflexive:
        for idx in model.poset.stable:
            for w in model.worlds:
                if (w, w) not in model.relations[idx]:
                    return False
    return True


def decode_candidate(poset: IndexPoset, n: int, atoms, candidate: int) -> StratifiedModel:
    """Re-derivation of the documented candidate layout, long-int arithmetic."""
    worlds = tuple(f"w{i}" for i in range(n))
    atoms = tuple(atoms)
    val_bits = n * len(atoms)
    rel_bits = n * n
    val = candidate % (1 << val_bits)
    rest = candidate >> val_bits
    masks = {}
    for idx in reversed(poset.indices):
        masks[idx] = rest % (1 << rel_bits)
        rest >>= rel_bits
    relations = {
        idx: frozenset(
            (worlds[i], worlds[j])
            for i in range(n)
            for j in range(n)
            if masks[idx] >> (i * n + j) & 1
        )
        for idx in poset.indices
    }
    valuation = {
        atom: frozenset(worlds[w] for w in range(n) if val >> (ai * n + w) & 1)
        for ai, atom in enumerate(atoms)
    }
    return StratifiedModel(poset, worlds, relations, valuation)


def first_countermodel(formula, posets, max_worlds, policy, atoms, min_worlds=1):
    """Object-level reference scan in the documented candidate order, over
    the world counts min_worlds..max_worlds.

    Returns (model, world) for the first frame-passing falsifying
    candidate, or None.  Only usable at tiny bounds.
    """
    atoms = tuple(atoms)
    for n in range(min_worlds, max_worlds + 1):
        for poset in posets:
            k = len(poset.indices)
            total = 1 << (k * n * n + n * len(atoms))
            for candidate in range(total):
                model = decode_candidate(poset, n, atoms, candidate)
                if not frame_ok(model, policy):
                    continue
                for world in model.worlds:
                    if not naive_eval(model, world, formula):
                        return model, world
    return None


def formula_signs(formula, sign=1, atoms=None, indices=None):
    """The signs (+1, -1) of the occurrences of each atom and each modal
    index in `formula`, by plain recursion over the tree, every shared
    subtree visited once per occurrence.  Negation and an implication's
    antecedent flip the sign of their operand; a box's index takes the
    flipped sign of the box, a diamond's index the diamond's own."""
    atoms = {} if atoms is None else atoms
    indices = {} if indices is None else indices
    if isinstance(formula, Atom):
        atoms.setdefault(formula.name, set()).add(sign)
    elif isinstance(formula, Not):
        formula_signs(formula.operand, -sign, atoms, indices)
    elif isinstance(formula, (And, Or)):
        formula_signs(formula.left, sign, atoms, indices)
        formula_signs(formula.right, sign, atoms, indices)
    elif isinstance(formula, Implies):
        formula_signs(formula.left, -sign, atoms, indices)
        formula_signs(formula.right, sign, atoms, indices)
    elif isinstance(formula, (Box, Diamond)):
        flip = -1 if isinstance(formula, Box) else 1
        indices.setdefault(formula.index, set()).add(flip * sign)
        formula_signs(formula.operand, sign, atoms, indices)
    else:
        raise TypeError(formula)
    return atoms, indices


def _abstract(formula, table):
    """Modal subtrees become shared opaque leaves of a tuple IR."""
    if isinstance(formula, (Box, Diamond)):
        if formula not in table:
            table[formula] = ("leaf", len(table))
        return table[formula]
    if isinstance(formula, Atom):
        return ("leaf", formula.name)
    if isinstance(formula, Not):
        return ("not", _abstract(formula.operand, table))
    if isinstance(formula, And):
        return ("and", _abstract(formula.left, table), _abstract(formula.right, table))
    if isinstance(formula, Or):
        return ("or", _abstract(formula.left, table), _abstract(formula.right, table))
    if isinstance(formula, Implies):
        return ("imp", _abstract(formula.left, table), _abstract(formula.right, table))
    raise TypeError(formula)


def _leaves(tree, into):
    if tree[0] == "leaf":
        into.add(tree[1])
        return
    for sub in tree[1:]:
        _leaves(sub, into)


def _tree_truth(tree, env) -> bool:
    kind = tree[0]
    if kind == "leaf":
        return env[tree[1]]
    if kind == "not":
        return not _tree_truth(tree[1], env)
    if kind == "and":
        return _tree_truth(tree[1], env) and _tree_truth(tree[2], env)
    if kind == "or":
        return _tree_truth(tree[1], env) or _tree_truth(tree[2], env)
    return (not _tree_truth(tree[1], env)) or _tree_truth(tree[2], env)


def propositional_tautology(formula) -> bool:
    """Brute-force truth table over the abstracted skeleton (tuple IR)."""
    tree = _abstract(formula, {})
    leaves: set = set()
    _leaves(tree, leaves)
    names = sorted(leaves, key=repr)
    for values in product((False, True), repeat=len(names)):
        if not _tree_truth(tree, dict(zip(names, values))):
            return False
    return True


def matches_schema(formula, tag: str, poset: IndexPoset) -> bool:
    """Literal pattern cases for the modal schemas (no profile logic)."""
    if not isinstance(formula, Implies):
        return False
    left, right = formula.left, formula.right
    if tag == "K":
        return (
            isinstance(left, Box)
            and isinstance(left.operand, Implies)
            and isinstance(right, Implies)
            and isinstance(right.left, Box)
            and isinstance(right.right, Box)
            and left.index == right.left.index == right.right.index
            and right.left.operand == left.operand.left
            and right.right.operand == left.operand.right
        )
    if tag == "A2":
        return (
            isinstance(left, Box)
            and isinstance(right, Box)
            and left.operand == right.operand
            and (left.index, right.index) in poset.order
        )
    if tag == "A3":
        return (
            isinstance(left, Box)
            and left.operand == right
            and left.index in poset.stable
        )
    if tag == "A4":
        return (
            isinstance(left, Diamond)
            and isinstance(right, Diamond)
            and left.operand == right.operand
            and (left.index, right.index) in poset.order
        )
    if tag == "DDOWN":
        return (
            isinstance(left, Diamond)
            and isinstance(right, Diamond)
            and left.operand == right.operand
            and (right.index, left.index) in poset.order
        )
    raise ValueError(tag)
