"""Seeded input generators, kept apart from the test suite's own so that a
test edit cannot shift a workload.

Every generator takes a `random.Random`; `rng_for` derives one stream per
(workload, purpose, seed), so the same seed always gives the same
inputs.  Sizes are fixed per op kind and only the content is drawn, which
keeps the cost of an op nearly independent of the seed.
"""

from __future__ import annotations

import random

from salogic.core import (
    And,
    Atom,
    AxiomProfile,
    Box,
    Diamond,
    Implies,
    IndexPoset,
    Not,
    Or,
    StratifiedModel,
)
from salogic.proofs import Axiom, Derivation, ModusPonens, Necessitation, ProofLine

from contract import atoms_of, distinct_nodes


def rng_for(workload: str, purpose: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{purpose}:{seed}")


def fmt(formula) -> str:
    """Fully parenthesized text that parse_formula reads back."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return "~" + fmt(formula.operand)
    if isinstance(formula, Box):
        return f"[{formula.index}]" + fmt(formula.operand)
    if isinstance(formula, Diamond):
        return f"<{formula.index}>" + fmt(formula.operand)
    op = {And: "&", Or: "|", Implies: "->"}[type(formula)]
    return f"({fmt(formula.left)} {op} {fmt(formula.right)})"


def formula(rng: random.Random, depth: int, atoms, indices):
    if depth <= 0:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(7)
    sub = lambda: formula(rng, depth - 1, atoms, indices)  # noqa: E731
    if pick == 0:
        return Atom(rng.choice(atoms))
    if pick == 1:
        return Not(sub())
    if pick == 2:
        return And(sub(), sub())
    if pick == 3:
        return Or(sub(), sub())
    if pick == 4:
        return Implies(sub(), sub())
    if pick == 5:
        return Box(rng.choice(indices), sub())
    return Diamond(rng.choice(indices), sub())


def sized_formula(rng, depth: int, nodes: int, atoms, indices, modal=None):
    """A formula of at most `depth` levels with exactly `nodes` distinct
    subformulas, `modal` of them modal when given (rejection sampling)."""
    while True:
        f = formula(rng, depth, atoms, indices)
        subs = distinct_nodes(f)
        if len(subs) == nodes and (
            modal is None or sum(isinstance(g, (Box, Diamond)) for g in subs) == modal
        ):
            return f


# ---------------------------------------------------------------------------
# sweep: fuzzed SECTION2 derivations on the two-index chains

SWEEP_CHAINS = (
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a",)),
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("b",)),
    IndexPoset.from_order(("a", "b"), [("a", "b")], stable=("a", "b")),
)
# Atom counts of the distinct lines of every sweep derivation.  At 3
# worlds a one-atom line spans 2^21 raw candidates and a two-atom line
# 2^24, so fixing the profile fixes the work of an op.
SWEEP_PROFILE = (1, 1, 1, 1, 2)

_TAUTOLOGY_TEMPLATES = (
    lambda f, g: Implies(f, f),
    lambda f, g: Implies(f, Implies(g, f)),
    lambda f, g: Implies(And(f, g), f),
    lambda f, g: Implies(f, Or(f, g)),
    lambda f, g: Or(Not(f), f),
)


def _small(rng, poset, atoms):
    return formula(rng, rng.randint(0, 1), atoms, poset.indices)


def _axiom_line(rng, poset, atoms):
    while True:
        tag = rng.choice(("A1", "A2", "A3", "DDOWN", "K"))
        phi = _small(rng, poset, atoms)
        if tag == "A1":
            template = rng.choice(_TAUTOLOGY_TEMPLATES)
            return template(phi, _small(rng, poset, atoms)), Axiom("A1")
        if tag == "K":
            idx = rng.choice(poset.indices)
            psi = _small(rng, poset, atoms)
            return (
                Implies(Box(idx, Implies(phi, psi)), Implies(Box(idx, phi), Box(idx, psi))),
                Axiom("K"),
            )
        if tag == "A2":
            low, high = rng.choice(poset.ordered_pairs())
            return Implies(Box(low, phi), Box(high, phi)), Axiom("A2")
        if tag == "A3":
            idx = rng.choice(sorted(poset.stable))
            return Implies(Box(idx, phi), phi), Axiom("A3")
        low, high = rng.choice(poset.ordered_pairs())
        return Implies(Diamond(high, phi), Diamond(low, phi)), Axiom("DDOWN")


def _derivation_entries(rng, poset, max_lines, atoms=("p", "q")):
    entries = [_axiom_line(rng, poset, atoms)]
    stable = sorted(poset.stable)
    while len(entries) < max_lines:
        move = rng.randrange(3)
        if move == 0:
            entries.append(_axiom_line(rng, poset, atoms))
        elif move == 1:
            # A1 implication out of an existing line, then detach with MP.
            target = rng.randrange(len(entries))
            phi = entries[target][0]
            psi = _small(rng, poset, atoms)
            if rng.random() < 0.5:
                bridge, conclusion = Implies(phi, Or(phi, psi)), Or(phi, psi)
            else:
                bridge, conclusion = Implies(phi, Implies(psi, phi)), Implies(psi, phi)
            entries.append((bridge, Axiom("A1")))
            entries.append((conclusion, ModusPonens(target + 1, len(entries))))
        else:
            target = rng.randrange(len(entries))
            idx = rng.choice(stable)
            entries.append((Box(idx, entries[target][0]), Necessitation(idx, target + 1)))
    return entries


def sweep_derivation(rng: random.Random, poset: IndexPoset) -> Derivation:
    """A derivation that is valid by construction, whose distinct lines
    have exactly the atom counts of SWEEP_PROFILE."""
    while True:
        entries = _derivation_entries(rng, poset, max_lines=4)
        distinct = list(dict.fromkeys(f for f, _j in entries))
        if tuple(sorted(len(atoms_of(f)) for f in distinct)) == SWEEP_PROFILE:
            break
    lines = tuple(
        ProofLine(number, f, just) for number, (f, just) in enumerate(entries, start=1)
    )
    return Derivation(lines, poset, AxiomProfile.SECTION2, nec_requires_stable=True)


# ---------------------------------------------------------------------------
# models: mid-size models, formula batches, traces and proof scripts

MODEL_POSET_INDICES = ("a", "b", "c")
MODEL_ATOMS = ("p", "q", "r")


def model_parts(rng: random.Random, n: int, coherent: bool, stable: str):
    """Raw parts of a model on the chain a <= b <= c with out-degree about
    2 at `a` and the one stable level `stable`: (poset, worlds, relations,
    valuation, world_order).  Coherent models satisfy shrink and stable
    reflexivity; the others get a few stray pairs at `c` and drop a
    reflexive pair."""
    stable = frozenset((stable,))
    poset = IndexPoset.from_order(MODEL_POSET_INDICES, [("a", "b"), ("b", "c")], stable)
    worlds = tuple(f"w{i}" for i in range(n))
    diag = {(w, w) for w in worlds}
    # Shrink: R_c within R_b within R_a; a stable level and every level
    # below it hold the diagonal.
    ra = {(worlds[i], worlds[rng.randrange(n)]) for i in range(n) for _ in range(2)}
    rb = {pair for pair in sorted(ra) if rng.random() < 0.7}
    rc = {pair for pair in sorted(rb) if rng.random() < 0.7}
    for level, rel in enumerate((ra, rb, rc)):
        if any(MODEL_POSET_INDICES.index(idx) >= level for idx in stable):
            rel |= diag
    if not coherent:
        for _ in range(3):
            rc.add((worlds[rng.randrange(n)], worlds[rng.randrange(n)]))
        rc.discard((worlds[0], worlds[0]))
    valuation = {
        atom: frozenset(w for w in worlds if rng.random() < 0.5) for atom in MODEL_ATOMS
    }
    roots = worlds[: max(1, n // 12)]
    world_order = frozenset(
        (rng.choice(roots), w) for w in worlds[len(roots):] if rng.random() < 0.5
    )
    relations = {"a": frozenset(ra), "b": frozenset(rb), "c": frozenset(rc)}
    return poset, worlds, relations, valuation, world_order


def poset_parts(rng: random.Random, k: int):
    """Indices and order generators of a random poset on k levels."""
    indices = tuple(f"l{i}" for i in range(k))
    order = [
        (indices[i], indices[j])
        for i in range(k)
        for j in range(i + 1, k)
        if rng.random() < 0.3
    ]
    stable = [idx for idx in indices if rng.random() < 0.3]
    return indices, order, stable


def trace_case(rng: random.Random, diamonds: bool):
    """A 5-world model with complete relations at `a` and `b`, and a
    6-deep modal chain that every level explores completely: diamonds
    over an atom false everywhere, or boxes over one true everywhere.
    The trace has 1 + 5 + ... + 5^6 = 19531 nodes."""
    worlds = tuple(f"w{i}" for i in range(5))
    complete = frozenset((u, v) for u in worlds for v in worlds)
    poset = IndexPoset.from_order(("a", "b"), [("a", "b")])
    model = StratifiedModel(
        poset, worlds, {"a": complete, "b": complete}, {"p": frozenset(), "q": frozenset(worlds)}
    )
    f = Atom("p" if diamonds else "q")
    for _ in range(6):
        f = (Diamond if diamonds else Box)(rng.choice(("a", "b")), f)
    return model, rng.choice(worlds), rng.choice(("a", "b")), f


def _balanced(shape, leaves):
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    op = shape.choice((And, Or, Implies))
    return op(_balanced(shape, leaves[:mid]), _balanced(shape, leaves[mid:]))


def wide_tautology(rng: random.Random, width: int, indices):
    """An A1 instance ~phi | phi whose skeleton has exactly `width`
    variables: two distinct modal subformulas and width - 2 atoms.  The
    connectives of phi depend on `width` alone and only the leaves are
    shuffled, so the truth table costs the same for every seed."""
    leaves = [Atom(f"x{i}") for i in range(width - 2)]
    leaves += [Box(indices[0], Atom("y0")), Diamond(indices[-1], Atom("y1"))]
    rng.shuffle(leaves)
    phi = _balanced(random.Random(f"perfbench:shape:{width}"), leaves)
    return Or(Not(phi), phi)


def proof_script(rng: random.Random, widths, broken: bool):
    """Proof script text on the chain a <= b (both stable): one A1 line
    per width, the modal schemas, MP and NEC.  With `broken`, a last A1
    line tags a four-atom non-tautology.  Returns (text, formulas, tags)."""
    indices = ("a", "b")
    small = lambda: formula(rng, 1, ("p", "q"), indices)  # noqa: E731
    entries = [(wide_tautology(rng, w, indices), "A1") for w in widths]
    phi, psi = small(), small()
    entries.append(
        (Implies(Box("a", Implies(phi, psi)), Implies(Box("a", phi), Box("a", psi))), "K")
    )
    entries.append((Implies(Box("a", phi), Box("b", phi)), "A2"))
    entries.append((Implies(Box(rng.choice(indices), phi), phi), "A3"))
    entries.append((Implies(Diamond("b", psi), Diamond("a", psi)), "DDOWN"))
    target = len(entries)  # cite the DDOWN line
    chi = entries[-1][0]
    entries.append((Implies(chi, Or(chi, psi)), "A1"))
    entries.append((Or(chi, psi), f"MP {target} {len(entries)}"))
    idx = rng.choice(indices)
    entries.append((Box(idx, entries[-1][0]), f"NEC {idx} {len(entries)}"))
    if broken:
        x = [Atom(f"z{i}") for i in range(4)]
        entries.append((Implies(Or(x[0], x[1]), And(x[2], x[3])), "A1"))
    lines = ["indices: a b", "order: a<=b", "stable: a b"]
    lines += [f"{i}. {fmt(f)} ; {tag}" for i, (f, tag) in enumerate(entries, start=1)]
    return "\n".join(lines) + "\n", [f for f, _t in entries], [t for _f, t in entries]


def model_text(poset, worlds, relations, valuation, world_order) -> str:
    """Model file text written by the benchmark itself: order generators
    as given, relation pairs and valuations in world order."""
    wpos = {w: i for i, w in enumerate(worlds)}
    key = lambda uv: (wpos[uv[0]], wpos[uv[1]])  # noqa: E731
    lines = ["indices: " + " ".join(poset.indices)]
    strict = poset.strict_pairs()
    if strict:
        lines.append("order: " + " ".join(f"{a}<={b}" for a, b in strict))
    if poset.stable:
        lines.append("stable: " + " ".join(i for i in poset.indices if i in poset.stable))
    lines.append("worlds: " + " ".join(worlds))
    if world_order is not None:
        pairs = sorted(world_order, key=key)
        lines.append("worldorder:" + "".join(f" {u}<={v}" for u, v in pairs))
    for idx in poset.indices:
        pairs = sorted(relations[idx], key=key)
        if pairs:
            lines.append(f"rel {idx}: " + " ".join(f"{u}->{v}" for u, v in pairs))
    for atom in sorted(valuation):
        members = [w for w in worlds if w in valuation[atom]]
        lines.append(f"val {atom}:" + "".join(" " + w for w in members))
    return "\n".join(lines) + "\n"
