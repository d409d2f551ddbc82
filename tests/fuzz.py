"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import random

from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    CoherenceMode,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    StratifiedModel,
    subformulas,
)
from salogic.proofs import (
    Axiom,
    Derivation,
    ModusPonens,
    Necessitation,
    PROFILE_SCHEMAS,
    ProofLine,
)

ATOM_POOL = ("p", "q", "r", "s")
INDEX_POOL = ("a", "b")


def random_formula(rng: random.Random, depth: int, atoms=ATOM_POOL, indices=INDEX_POOL):
    if depth <= 0:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(7)
    if pick == 0:
        return Atom(rng.choice(atoms))
    if pick == 1:
        return Not(random_formula(rng, depth - 1, atoms, indices))
    if pick == 2:
        return And(
            random_formula(rng, depth - 1, atoms, indices),
            random_formula(rng, depth - 1, atoms, indices),
        )
    if pick == 3:
        return Or(
            random_formula(rng, depth - 1, atoms, indices),
            random_formula(rng, depth - 1, atoms, indices),
        )
    if pick == 4:
        return Implies(
            random_formula(rng, depth - 1, atoms, indices),
            random_formula(rng, depth - 1, atoms, indices),
        )
    if pick == 5:
        return Box(rng.choice(indices), random_formula(rng, depth - 1, atoms, indices))
    return Diamond(rng.choice(indices), random_formula(rng, depth - 1, atoms, indices))


def random_shared_formula(rng: random.Random, size: int, atoms=ATOM_POOL, indices=INDEX_POOL):
    """A formula built in `size` steps, each applying a random connective
    or modality to nodes built before, so that subformulas recur: one
    node object can sit under several parents, with different signs."""
    pool = [Atom(name) for name in atoms]
    for _ in range(size):
        pick = rng.randrange(6)
        left, right = rng.choice(pool), rng.choice(pool)
        if pick == 0:
            node = Not(left)
        elif pick == 1:
            node = And(left, right)
        elif pick == 2:
            node = Or(left, right)
        elif pick == 3:
            node = Implies(left, right)
        elif pick == 4:
            node = Box(rng.choice(indices), left)
        else:
            node = Diamond(rng.choice(indices), left)
        pool.append(node)
    return pool[-1]


def _random_subset(rng: random.Random, items, bias=0.5):
    return frozenset(x for x in items if rng.random() < bias)


def random_model(
    rng: random.Random,
    max_worlds: int = 4,
    max_indices: int = 2,
    atoms=("p", "q"),
    mode: CoherenceMode | None = None,
    stable_reflexive: bool = False,
) -> StratifiedModel:
    """A random model; with `mode` set, built coherent for that mode, and
    with `stable_reflexive`, reflexive at its stable indices."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    k = rng.randint(1, max_indices)
    indices = INDEX_POOL[:k]
    chain = k == 2 and rng.random() < 0.7
    poset = IndexPoset.from_order(
        indices,
        [("a", "b")] if chain else [],
        _random_subset(rng, indices, 0.4),
    )
    diag = frozenset((w, w) for w in worlds)
    all_pairs = [(u, v) for u in worlds for v in worlds]

    def need_diag(idx):
        return stable_reflexive and idx in poset.stable

    relations: dict[str, frozenset] = {}
    if chain and mode is CoherenceMode.SHRINK:
        top = _random_subset(rng, all_pairs)
        if need_diag("a") or need_diag("b"):
            top |= diag
        low = frozenset(p for p in top if rng.random() < 0.6)
        if need_diag("b"):
            low |= diag
        relations = {"a": top, "b": low}
    elif chain and mode is CoherenceMode.GROW:
        top = _random_subset(rng, all_pairs)
        if need_diag("a") or need_diag("b"):
            top |= diag
        low = frozenset(p for p in top if rng.random() < 0.6)
        if need_diag("a"):
            low |= diag
        relations = {"a": low, "b": top}
    else:
        for idx in indices:
            rel = _random_subset(rng, all_pairs)
            if need_diag(idx):
                rel |= diag
            relations[idx] = rel

    valuation = {atom: _random_subset(rng, worlds) for atom in atoms}
    world_order = None
    if rng.random() < 0.3:
        world_order = frozenset(
            (worlds[i], worlds[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        )
    return StratifiedModel(poset, worlds, relations, valuation, world_order)


_TAUTOLOGY_TEMPLATES = (
    lambda f, g: Implies(f, f),
    lambda f, g: Implies(f, Implies(g, f)),
    lambda f, g: Implies(And(f, g), f),
    lambda f, g: Implies(f, Or(f, g)),
    lambda f, g: Or(Not(f), f),
)


def _small(rng, poset, atoms, depth=1):
    return random_formula(rng, rng.randint(0, depth), atoms, poset.indices)


def _axiom_line(rng: random.Random, poset: IndexPoset, profile: AxiomProfile, atoms):
    tags = sorted(PROFILE_SCHEMAS[profile])
    while True:
        tag = rng.choice(tags)
        phi = _small(rng, poset, atoms)
        if tag == "A1":
            template = rng.choice(_TAUTOLOGY_TEMPLATES)
            return template(phi, _small(rng, poset, atoms)), Axiom("A1")
        if tag == "K":
            idx = rng.choice(poset.indices)
            psi = _small(rng, poset, atoms)
            return (
                Implies(
                    Box(idx, Implies(phi, psi)),
                    Implies(Box(idx, phi), Box(idx, psi)),
                ),
                Axiom("K"),
            )
        if tag == "A2":
            low, high = rng.choice(poset.ordered_pairs())
            return Implies(Box(low, phi), Box(high, phi)), Axiom("A2")
        if tag == "A3":
            stable = [i for i in poset.indices if i in poset.stable]
            if not stable:
                continue
            idx = rng.choice(stable)
            return Implies(Box(idx, phi), phi), Axiom("A3")
        if tag == "A4":
            low, high = rng.choice(poset.ordered_pairs())
            return Implies(Diamond(low, phi), Diamond(high, phi)), Axiom("A4")
        if tag == "DDOWN":
            low, high = rng.choice(poset.ordered_pairs())
            return Implies(Diamond(high, phi), Diamond(low, phi)), Axiom("DDOWN")


def random_derivation(
    rng: random.Random,
    poset: IndexPoset,
    profile: AxiomProfile = AxiomProfile.SECTION2,
    max_lines: int = 6,
    atoms=("p", "q"),
    max_nodes: int = 25,
) -> Derivation:
    """A derivation that is valid by construction: every line is either a
    genuine schema instance or follows by MP/NEC from earlier lines."""
    entries: list[tuple] = [_axiom_line(rng, poset, profile, atoms)]
    stable = [i for i in poset.indices if i in poset.stable]
    while len(entries) < max_lines:
        move = rng.randrange(3)
        if move == 0:
            entries.append(_axiom_line(rng, poset, profile, atoms))
        elif move == 1:
            # A1 implication out of an existing line, then detach with MP.
            target = rng.randrange(len(entries))
            phi = entries[target][0]
            if len(subformulas(phi)) > max_nodes:
                continue
            psi = _small(rng, poset, atoms)
            if rng.random() < 0.5:
                bridge, conclusion = Implies(phi, Or(phi, psi)), Or(phi, psi)
            else:
                bridge, conclusion = Implies(phi, Implies(psi, phi)), Implies(psi, phi)
            entries.append((bridge, Axiom("A1")))
            entries.append((conclusion, ModusPonens(target + 1, len(entries))))
        else:
            if not stable:
                continue
            target = rng.randrange(len(entries))
            phi = entries[target][0]
            if len(subformulas(phi)) > max_nodes:
                continue
            idx = rng.choice(stable)
            entries.append((Box(idx, phi), Necessitation(idx, target + 1)))
    lines = tuple(
        ProofLine(number, formula, justification)
        for number, (formula, justification) in enumerate(entries, start=1)
    )
    return Derivation(lines, poset, profile, nec_requires_stable=True)


SWEEP_POSETS = (
    IndexPoset.from_order(("a",), stable=("a",)),
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a",)),
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("b",)),
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a", "b")),
)
