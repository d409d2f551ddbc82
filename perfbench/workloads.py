"""The four workloads.  Each is one closed-loop client: it sends the next
op only after the previous one returned and was checked.

A workload builds, at set-up and outside any timed region, a pool of
cycles.  A cycle is a fixed mix of op kinds whose content comes from the
seed, so every cycle costs about the same and a run that completes whole
cycles measures the same mix whatever the seed.  An op is a triple
(kind, run, check): `run(tracer)` makes the program calls and is the
only timed part; `check(outcome)` returns None or the reason the answer
is wrong, from expected answers computed at set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import oracles
from salogic import proofs, search, semantics, syntax
from salogic.core import AxiomProfile, CoherenceMode, IndexPoset, StratifiedModel
from salogic.search import SearchBounds, ValidUpTo
from salogic.semantics import FramePolicy

import clock
import gen
from tracer import TRACE_MARK
from contract import fingerprint, machine_posets, row_query, witness_fingerprint

HERE = Path(__file__).resolve().parent
SHRINK = FramePolicy(CoherenceMode.SHRINK)


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


@contextmanager
def memo_naive_eval():
    """naive_eval with its recursion memoized per (world, subformula
    object), so the oracle stays affordable on 120-world models.  The
    oracle's own code runs unchanged."""
    original = oracles.naive_eval
    cache: dict = {}

    def memo(model, world, formula):
        key = (id(model), world, id(formula))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = (original(model, world, formula), model, formula)
        return hit[0]

    oracles.naive_eval = memo
    try:
        yield memo
    finally:
        oracles.naive_eval = original


def _expect(cond: bool, reason: str):
    return None if cond else reason


class Workload:
    name = ""
    pool_cycles = 1  # distinct cycles generated at set-up
    traced_cycles = 1  # cycles in each half of a traced run
    kernel_name = "py"  # the calibration kernel that does this kind of work, or None

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.pool: list[list[tuple]] = []
        self.digest = hashlib.sha256()

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by the process that runs the ops, all
        its threads counted.  Time the vCPU was stolen by the host, or
        spent waiting to be scheduled, is not counted."""
        return time.process_time()

    def kernel(self) -> float:
        """CPU seconds of one run of the calibration kernel (clock.py)."""
        return clock.in_process(self.kernel_name)

    def note(self, *parts) -> None:
        """Feed generated inputs into the input digest."""
        self.digest.update(("\x1f".join(str(p) for p in parts) + "\n").encode())

    def prepare(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Soundness confirmation: check a fuzzed SECTION2 derivation, then
    decide every distinct line valid at 3 worlds under shrink."""

    name = "sweep"
    kernel_name = "np"
    pool_cycles = 24
    traced_cycles = 8

    def prepare(self):
        rng = gen.rng_for(self.name, "inputs", self.seed)
        for _ in range(self.pool_cycles):
            posets = list(gen.SWEEP_CHAINS)
            rng.shuffle(posets)
            cycle = []
            for poset in posets:
                derivation = gen.sweep_derivation(rng, poset)
                for line in derivation.lines:
                    self.note(sorted(poset.stable), line.number, gen.fmt(line.formula), line.justification)
                cycle.append(self._op(derivation))
            self.pool.append(cycle)

    @staticmethod
    def _op(derivation):
        distinct = list(dict.fromkeys(line.formula for line in derivation.lines))
        bounds = SearchBounds(3, 2, poset=derivation.poset)

        def run(_tracer):
            report = proofs.check_derivation(derivation)
            verdicts = [
                search.decide_valid(f, bounds, SHRINK, workers=1) for f in distinct
            ]
            return report, verdicts

        def check(outcome):
            report, verdicts = outcome
            if not report.valid:
                return "derivation rejected"
            return _expect(
                all(isinstance(v, ValidUpTo) for v in verdicts), "line not ValidUpTo"
            )

        return ("derivation", run, check)


# ---------------------------------------------------------------------------


def matrix_kind(schema, alpha, beta, mode, refl) -> str:
    """Criterion 3's hand-derived table, extended to `none`: K always
    holds; A3 holds exactly when stable levels must be reflexive; A2,
    A4 and DDOWN hold on reflexive pairs, and on a <= b only under the
    inclusion that makes them sound (A2 and DDOWN under shrink, A4 under
    grow)."""
    if schema == "K":
        return "valid"
    if schema == "A3":
        return "valid" if refl else "counter"
    if alpha == beta:
        return "valid"
    sound = {"A2": CoherenceMode.SHRINK, "DDOWN": CoherenceMode.SHRINK, "A4": CoherenceMode.GROW}
    return "valid" if mode is sound[schema] else "counter"


def poset_label(poset) -> str:
    if len(poset.indices) == 1:
        return "single"
    return "chain" if poset.strict_pairs() else "antichain"


def matrix_key(mode, refl) -> str:
    return f"{mode.value}/{'refl' if refl else 'norefl'}"


class Matrix(Workload):
    """The axiom matrix over both profiles at 3 worlds and 2 indices, one
    op per coherence mode and reflexivity setting, scanned with 1 worker."""

    name = "matrix"
    kernel_name = None
    pool_cycles = 1
    traced_cycles = 1
    bounds = SearchBounds(3, 2)
    # With 2 workers the same run's peak RSS read 249 to 320 MB and its CPU
    # time spread twice as much; with 1 worker the peak held at 143 MB.
    workers = 1

    def prepare(self):
        golden = load_golden()["matrix"]
        rng = gen.rng_for(self.name, "order", self.seed)
        cases = [(mode, refl) for mode in CoherenceMode for refl in (True, False)]
        rng.shuffle(cases)
        for mode, refl in cases:
            self.note(matrix_key(mode, refl))
        self.pool.append([self._op(mode, refl, golden[matrix_key(mode, refl)]) for mode, refl in cases])

    def _op(self, mode, refl, golden_rows):
        bounds, workers = self.bounds, self.workers

        def run(_tracer):
            return search.axiom_matrix(
                tuple(AxiomProfile),
                (mode,),
                bounds,
                require_stable_reflexive=refl,
                workers=workers,
            )

        def check(rows):
            if len(rows) != len(golden_rows):
                return f"{len(rows)} rows, expected {len(golden_rows)}"
            policy = FramePolicy(mode, refl)
            for row, want in zip(rows, golden_rows):
                key = [row.schema, poset_label(row.poset), row.alpha, row.beta]
                if key != want[:4]:
                    return f"row {key} where {want[:4]} was expected"
                kind = "valid" if isinstance(row.verdict, ValidUpTo) else "counter"
                if kind != matrix_kind(row.schema, row.alpha, row.beta, mode, refl):
                    return f"{key}: unexpected {kind}"
                if kind == "counter":
                    v = row.verdict
                    if oracles.naive_eval(v.model, v.world, row.formula):
                        return f"{key}: countermodel satisfies the formula"
                    if not oracles.frame_ok(v.model, policy):
                        return f"{key}: countermodel breaks the frame policy"
                posets, atoms = row_query(row)
                if fingerprint(row.verdict, posets, bounds.max_worlds, atoms) != want[4]:
                    return f"{key}: fingerprint differs from the recorded one"
            return None

        return (matrix_key(mode, refl), run, check)


# ---------------------------------------------------------------------------


class Models(Workload):
    """Library calls on generated mid-size inputs, in process, no search."""

    name = "models"
    pool_cycles = 3
    traced_cycles = 18
    sizes = (20, 32, 45, 57, 70, 82, 95, 107, 120)
    batch = 6
    proofs = 4  # the heaviest ops but one: p90 falls inside this group
    proof_width = 12

    def prepare(self):
        for c in range(self.pool_cycles):
            rng = gen.rng_for(self.name, f"cycle{c}", self.seed)
            self.pool.append(self._cycle(rng, c))

    def _cycle(self, rng, c):
        ops = []
        models = {}
        for i, n in enumerate(self.sizes):
            # Coherence and the stable level follow the position, not the
            # seed, so every seed gets the same mix of frame shapes.
            parts = gen.model_parts(
                rng, n, coherent=(i + c) % 2 == 0,
                stable=gen.MODEL_POSET_INDICES[(i + c) % 3],
            )
            text = gen.model_text(*parts)
            self.note("model", text)
            model = StratifiedModel(*parts)
            models[n] = (parts, model)
            ops.append(("parse_model", lambda _t, text=text: syntax.parse_model(text),
                        lambda out, model=model: _expect(out == model, "parsed model differs")))
            ops.append(("print_model", lambda _t, model=model: syntax.print_model(model),
                        lambda out, model=model: _expect(
                            syntax.parse_model(out) == model, "printed model does not read back")))

        parts, big = models[120]
        ops.append(("build_model", lambda _t: StratifiedModel(*parts),
                    lambda out: _expect(out == big, "built model differs")))

        levels, order, stable = gen.poset_parts(rng, 16)
        self.note("poset", levels, order, stable)
        closure = _closure(levels, order)
        ops.append(("build_poset", lambda _t: IndexPoset.from_order(levels, order, stable),
                    lambda out: _expect(out.order == closure and out.stable == frozenset(stable),
                                        "poset closure differs")))

        _parts, mid = models[95]
        for mode in CoherenceMode:
            policy = FramePolicy(mode)
            ok = oracles.frame_ok(mid, policy)
            ops.append((f"validate_frame/{mode.value}",
                        lambda _t, policy=policy: semantics.validate_frame(mid, policy),
                        lambda out, ok=ok: _expect((not out) == ok, "frame verdict differs")))

        atoms, indices = gen.MODEL_ATOMS, gen.MODEL_POSET_INDICES
        formulas = [gen.sized_formula(rng, 6, 24, atoms, indices, 8) for _ in range(self.batch)]
        queries = [
            (gen.sized_formula(rng, 6, 24, atoms, indices, 8),
             f"w{rng.randrange(70)}", rng.choice(indices))
            for _ in range(self.batch)
        ]
        for f in formulas:
            self.note("sat", gen.fmt(f))
        for f, w, i in queries:
            self.note("eval", gen.fmt(f), w, i)
        _parts, m70 = models[70]
        with memo_naive_eval() as naive:
            want_sets = [
                frozenset(w for w in big.worlds if naive(big, w, f)) for f in formulas
            ]
            want_bools = [naive(m70, w, f) for f, w, _i in queries]
        ops.append(("satisfying_worlds",
                    lambda _t: [semantics.satisfying_worlds(big, f) for f in formulas],
                    lambda out: _expect(out == want_sets, "satisfying worlds differ")))
        ops.append(("evaluate",
                    lambda _t: [semantics.evaluate(m70, w, i, f) for f, w, i in queries],
                    lambda out: _expect(out == want_bools, "verdicts differ")))

        tmodel, tworld, tindex, tformula = gen.trace_case(rng, diamonds=c % 2 == 0)
        self.note("trace", gen.fmt(tformula), tworld, tindex)
        tverdict = oracles.naive_eval(tmodel, tworld, tformula)

        def trace_run(_t):
            verdict, trace = semantics.evaluate_with_trace(tmodel, tworld, tindex, tformula)
            return verdict, semantics.render_trace(trace)

        ops.append(("trace", trace_run,
                    lambda out: _expect(out[0] == tverdict and out[1].count("\n") + 1 == 19531,
                                        "trace verdict or size differs")))

        poset = IndexPoset.from_order(("a", "b"), [("a", "b")], ("a", "b"))
        for _ in range(self.proofs):
            text, lines, tags = gen.proof_script(rng, (self.proof_width,), broken=True)
            self.note("proof", text)
            want = [_line_ok(f, tag, poset) for f, tag in zip(lines, tags)]
            ops.append(("proof",
                        lambda _t, text=text: proofs.check_derivation(syntax.parse_proof(text)),
                        lambda rep, want=want: _expect([l.accepted for l in rep.lines] == want,
                                                       "line verdicts differ")))
        return ops


def _closure(indices, order) -> frozenset:
    below = {a: {a} for a in indices}
    for a, b in order:
        below[a].add(b)
    for k in indices:  # Warshall
        for a in indices:
            if k in below[a]:
                below[a] |= below[k]
    return frozenset((a, b) for a in indices for b in below[a])


def _line_ok(formula, tag, poset) -> bool:
    """Expected acceptance of a generated proof line from the oracles;
    MP and NEC lines cite accepted lines by construction."""
    if tag == "A1":
        return oracles.propositional_tautology(formula)
    if tag in ("K", "A2", "A3", "DDOWN"):
        return oracles.matches_schema(formula, tag, poset)
    return True


# ---------------------------------------------------------------------------


USAGE_ERRORS = (
    (["frobnicate"], "usage: sal"),
    (["eval"], "usage: sal"),
    (["valid", "p", "--max-worlds", "0"], "usage: sal"),
    (["axioms", "--coherence", "sideways"], "usage: sal"),
    (["prove"], "usage: sal"),
    (["valid", "[a] p ->"], "error:"),
)


class Cli(Workload):
    """Sequential `python -m salogic` commands over a seeded mix."""

    name = "cli"
    kernel_name = "spawn"
    pool_cycles = 4
    traced_cycles = 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.workdir = HERE / "_work" / str(os.getpid())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_child_kb = 0
        self.child_cpu_s = 0.0
        self.spawner = None

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by the commands (user plus system)."""
        return self.child_cpu_s

    def kernel(self) -> float:
        """A fresh interpreter that imports numpy, started like a command."""
        return self._spawn([sys.executable, "-c", "import numpy"])["cpu_s"]

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=60)
            self.spawner.stdout.close()
        if self.workdir.exists():
            for path in self.workdir.iterdir():
                path.unlink()
            self.workdir.rmdir()
        parent = self.workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    def _write(self, name, text) -> str:
        """Write an input file; commands run in the work directory, so
        the name is its path."""
        (self.workdir / name).write_text(text, encoding="utf-8")
        return name

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )
        golden = load_golden()["cli"]
        pools = {kind: [e for e in golden if e["argv"][0] == kind] for kind in ("valid", "sat")}
        import salogic

        bundled = {}
        for name in salogic.EXAMPLE_MODELS:
            path = salogic.example_model_path(name)
            relative = os.path.relpath(path, self.workdir)
            bundled[name] = (relative, salogic.load_example_model(name))
        for c in range(self.pool_cycles):
            rng = gen.rng_for(self.name, f"cycle{c}", self.seed)
            self.pool.append(self._cycle(rng, c, bundled, pools))

    def _cycle(self, rng, c, bundled, pools):
        ops = []
        files = dict(bundled)
        for k, n in enumerate((12, 4)):
            parts = gen.model_parts(
                rng, n, coherent=rng.random() < 0.5, stable=rng.choice(gen.MODEL_POSET_INDICES)
            )
            text = gen.model_text(*parts)
            self.note("model", text)
            files[f"gen{k}"] = (self._write(f"c{c}m{k}.salm", text), StratifiedModel(*parts))

        def eval_op(name, trace):
            path, model = files[name]
            f = gen.sized_formula(rng, 3, 8, model.atoms, model.poset.indices)
            world, index = rng.choice(model.worlds), rng.choice(model.poset.indices)
            argv = ["eval", path, gen.fmt(f), "--world", world, "--index", index]
            if trace:
                argv.append("--trace")
            truth = oracles.naive_eval(model, world, f)
            return self._op(argv, 0 if truth else 1, "true" if truth else "false")

        ops.append(eval_op(rng.choice(list(bundled)), False))
        ops.append(eval_op("gen0", False))
        ops.append(eval_op("gen1", True))

        path, model = files[rng.choice(sorted(files))]
        mode = rng.choice(list(CoherenceMode))
        strict = rng.random() < 0.5
        ok = oracles.frame_ok(model, FramePolicy(mode))
        argv = ["check-model", path, "--coherence", mode.value] + (["--strict"] if strict else [])
        first = "ok" if ok else ("coherence ", "stable-reflexivity ", "world-order ")
        ops.append(self._op(argv, 1 if strict and not ok else 0, first))

        path, model = files[rng.choice(sorted(files))]
        argv = ["export", path]
        if rng.random() < 0.5:
            argv += ["--highlight", rng.choice(model.atoms)]
        ops.append(self._op(argv, 0, "digraph model {"))

        for broken in (False, True):
            text, _f, _t = gen.proof_script(rng, (10, 8), broken)
            self.note("proof", text)
            argv = ["prove", self._write(f"c{c}p{int(broken)}.proof", text)]
            last = "proof rejected" if broken else "proof ok"
            ops.append(self._op(argv, int(broken), "line 1: accepted", last=last))

        for kind in ("valid", "sat"):
            entry = rng.choice(pools[kind])
            ops.append(self._search_op(entry))

        argv, prefix = rng.choice(USAGE_ERRORS)
        ops.append(self._op(list(argv), 2, (prefix,)))
        for _kind, run, _check in ops:
            self.note(*run.argv)
        return ops

    def _exec(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "salogic", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        reply = self._spawn(cmd)
        self.peak_child_kb = max(self.peak_child_kb, reply["maxrss_kb"])
        self.child_cpu_s += reply["cpu_s"]
        out = reply["out"]
        if tracer is not None:
            out, _sep, payload = out.partition("\n" + TRACE_MARK)
            if payload:
                data = json.loads(payload)
                tracer.merge(data["stats"], data["counts"], data["cli_self_ns"])
        return reply["code"], out

    def _spawn(self, cmd) -> dict:
        self.spawner.stdin.write(json.dumps({"argv": cmd, "cwd": str(self.workdir)}) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def _op(self, argv, code, first, last=None, extra=None):
        def run(tracer):
            return self._exec(argv, tracer)

        run.argv = argv

        def check(outcome):
            got_code, out = outcome
            lines = out.splitlines()
            head = lines[0] if lines else ""
            if got_code != code:
                return f"{argv[0]}: exit {got_code}, expected {code}: {head}"
            if isinstance(first, tuple):
                if not head.startswith(first):
                    return f"{argv[0]}: first line {head!r}"
            elif head != first:
                return f"{argv[0]}: first line {head!r}, expected {first!r}"
            if last is not None and lines[-1] != last:
                return f"{argv[0]}: last line {lines[-1]!r}"
            return extra(out) if extra else None

        return (argv[0], run, check)

    def _search_op(self, entry):
        argv = entry["argv"]
        formula = syntax.parse_formula(argv[1])
        policy = FramePolicy(CoherenceMode(argv[argv.index("--coherence") + 1]))
        negate = argv[0] == "sat"

        def witness(out):
            if entry["fingerprint"] == "valid":
                return None
            head, _sep, text = out.partition("\n")
            model = syntax.parse_model(text)
            world = head.split()[4]
            if oracles.naive_eval(model, world, formula) != negate:
                return f"{argv[0]}: witness has the wrong truth value"
            if not oracles.frame_ok(model, policy):
                return f"{argv[0]}: witness breaks the frame policy"
            got = witness_fingerprint(
                model, world, head.split()[6], text, machine_posets(2), 2,
                tuple(sorted(model.valuation)),
            )
            return _expect(got == entry["fingerprint"], f"{argv[0]}: fingerprint differs")

        return self._op(argv, entry["code"], entry["first"], extra=witness)


WORKLOADS = {cls.name: cls for cls in (Sweep, Matrix, Models, Cli)}
