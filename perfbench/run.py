"""salogic benchmark: one closed-loop client per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,matrix,models,cli} \
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: whole cycles of the
workload's op mix are run until the next cycle would end after S
seconds.  --trace 1 runs a fixed number of cycles untraced, then the
same cycles with layer spans recorded, and reports the per-layer
metrics.  The last line of stdout is the result as one JSON object; the
line before it records the machine, the versions, the seed and the
input digest.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from clock import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7
INTERP_REPS = 5
WORKLOAD_NAMES = ("sweep", "matrix", "models", "cli")
HASH_SEED = "0"  # for this process and every child


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)


def probe_setup(workload: str) -> dict:
    """import salogic plus one warm-up op, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def interpreter_ms() -> float:
    """Wall time of `python -c pass`: the floor under every sal command."""
    times = []
    for _ in range(INTERP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_child_env(),
                       timeout=60, check=True)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "salogic").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".salm"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


class Phase:
    """CPU and wall times and failures of the ops one phase ran."""

    def __init__(self):
        self.latencies: list[float] = []  # CPU seconds, see Workload.cpu_seconds
        self.wall: list[float] = []
        self.starts: list[float] = []  # perf_counter at the start of each op
        self.failures: list[str] = []
        self.cycle_ends: list[int] = []  # op count after each cycle

    @property
    def cycles(self) -> int:
        return len(self.cycle_ends)

    def ops_per_s(self, latencies=None) -> float:
        """Median over cycles of ops per busy second: every cycle runs the
        same op mix, and the median keeps a burst of machine noise from
        moving the figure."""
        latencies = self.latencies if latencies is None else latencies
        rates, start = [], 0
        for end in self.cycle_ends:
            rates.append((end - start) / sum(latencies[start:end]))
            start = end
        return statistics.median(rates)


def run_cycle(workload, cycle, tracer, phase: Phase, calibration) -> None:
    for kind, run, check in cycle:
        error = None
        start, start_wall = workload.cpu_seconds(), time.perf_counter()
        try:
            outcome = run(tracer)
        except Exception as exc:  # an op that raises counts as failed
            error = f"{kind}: {type(exc).__name__}: {exc}"
        phase.starts.append(start_wall)
        phase.wall.append(time.perf_counter() - start_wall)
        phase.latencies.append(workload.cpu_seconds() - start)
        if error is None:
            with tracer.paused() if tracer else nullcontext():
                try:
                    error = check(outcome)
                except Exception as exc:
                    error = f"{kind}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            phase.failures.append(error)
        calibration.after(phase.latencies[-1])
    phase.cycle_ends.append(len(phase.latencies))


def timed_phase(workload, seconds: float, calibration) -> Phase:
    """Whole cycles until the next one, as long as the last, would end
    after `seconds` of wall time; at least one."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        run_cycle(workload, workload.pool[phase.cycles % len(workload.pool)], None, phase,
                  calibration)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return phase


def counted_phase(workload, cycles: int, tracer, calibration) -> Phase:
    phase = Phase()
    for i in range(cycles):
        run_cycle(workload, workload.pool[i % len(workload.pool)], tracer, phase, calibration)
    return phase


def end_to_end(workload, phase: Phase, latencies) -> dict:
    """End-to-end metrics from one duration per op."""
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    attempted = len(lat)
    if workload.name == "cli":
        peak_kb = workload.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (phase.ops_per_s(latencies), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "ok_ratio": ((attempted - len(phase.failures)) / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, import_ms: float) -> dict:
    """Per-layer metrics of the traced pass; spans are in wall seconds."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    eval_s = tracer.function_self_s("semantics", ("evaluate", "satisfying_worlds"))
    search_busy = tracer.function_incl_s("search", ("decide_valid", "axiom_matrix"))
    cli_self = tracer.cli_self_ns
    syntax_s, proofs_s = totals["syntax"]["self_s"], totals["proofs"]["self_s"]
    return {
        "cli.interp_ms": (interpreter_ms(), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.self_ms": (statistics.median(cli_self) / 1e6 if cli_self else 0.0, "ms"),
        "syntax.calls": (totals["syntax"]["calls"], "count"),
        "syntax.self_s": (syntax_s, "s"),
        "syntax.bytes_per_s": (rate(counts.get("syntax.bytes", 0), syntax_s), "B/s"),
        "core.calls": (totals["core"]["calls"], "count"),
        "core.self_s": (totals["core"]["self_s"], "s"),
        "semantics.eval_s": (eval_s, "s"),
        "semantics.cells_per_s": (rate(counts.get("semantics.cells", 0), eval_s), "1/s"),
        "semantics.frame_s": (
            tracer.function_self_s("semantics", ("validate_frame",)), "s"),
        "semantics.trace_s": (
            tracer.function_self_s("semantics", ("evaluate_with_trace", "render_trace")),
            "s"),
        "semantics.trace_nodes": (counts.get("semantics.trace_nodes", 0), "count"),
        "search.calls": (totals["search"]["calls"], "count"),
        "search.self_s": (totals["search"]["self_s"], "s"),
        "search.raw_candidates": (counts.get("search.raw_candidates", 0), "count"),
        "search.raw_candidates_per_s": (
            rate(counts.get("search.raw_candidates", 0), search_busy), "1/s"),
        "search.hit_ratio": (
            counts.get("search.witnesses", 0) / counts["search.queries"]
            if counts.get("search.queries") else 0.0, "ratio"),
        "search.scanned_candidates": (counts.get("search.scanned_candidates", 0), "count"),
        "proofs.calls": (totals["proofs"]["calls"], "count"),
        "proofs.self_s": (proofs_s, "s"),
        "proofs.lines_per_s": (rate(counts.get("proofs.lines", 0), proofs_s), "1/s"),
        "proofs.a1_rows": (counts.get("proofs.a1_rows", 0), "count"),
        "trace_overhead": (traced.ops_per_s() / untraced.ops_per_s(), "ratio"),
    }


def measure(args):
    """Set-up probes, then the workload's phases; returns (record,
    phases, metrics)."""
    probes = [probe_setup(args.workload) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(p["setup_s"] for p in probes)
    import_ms = statistics.median(p["import_s"] for p in probes) * 1000

    from contract import layer_hooks
    from tracer import Tracer, install
    from workloads import WORKLOADS

    record = machine_record(args)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.prepare()
        record["input_sha256"] = workload.digest.hexdigest()
        calibration = Calibration(workload.kernel_name, workload.kernel)
        if args.trace:
            untraced = counted_phase(workload, workload.traced_cycles, None, calibration)
            tracer = Tracer()
            uninstall = install(tracer, layer_hooks())
            try:
                traced = counted_phase(workload, workload.traced_cycles, tracer, calibration)
            finally:
                uninstall()
            phases = [untraced, traced]
            metrics = per_layer(tracer, untraced, traced, import_ms * calibration.scale())
        else:
            phase = timed_phase(workload, args.seconds, calibration)
            phases = [phase]
            scales = [
                calibration.scale_between(start, start + wall)
                for start, wall in zip(phase.starts, phase.wall)
            ]
            metrics = end_to_end(
                workload, phase, [lat * k for lat, k in zip(phase.latencies, scales)])
            metrics["setup_s"] = (setup_s * calibration.scale(), "s")
            for name, times in (("cpu", phase.latencies), ("wall", phase.wall)):
                record[name] = {
                    metric: value for metric, (value, _unit) in
                    end_to_end(workload, phase, times).items()
                }
            record["cpu"]["setup_s"] = setup_s
            record["wall"]["setup_s"] = statistics.median(p["setup_wall_s"] for p in probes)
            record["scale"] = statistics.median(scales)
            record["run_scale"] = calibration.scale()
    finally:
        workload.close()
    record["kernel"] = calibration.name
    record["calibration_samples"] = len(calibration.samples)
    return record, phases, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes decide the layout of every set and dict, and with
        # it the speed of the program's frozenset work; fix them for the
        # whole run.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    args = parse_args(argv)
    missing = [p for p in ("src/salogic/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from a salogic checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    record, phases, metrics = measure(args)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    record["ops"] = attempted
    record["cycles"] = sum(p.cycles for p in phases)
    record["fail_ratio"] = len(failures) / attempted
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
