"""Machine-speed calibration for a shared, noisy host.

On a virtual machine whose cores are shared with other tenants, the same
CPU work can take 50% longer for a minute or more at a time, and CPU
time shows it as much as wall time does.  A run therefore interleaves a
fixed calibration kernel with its ops, in the same thread and about 10%
of the measured time, and reports durations in reference seconds: each
op's CPU time times the kernel's reference time over the median kernel
time of the samples taken within SPAN_S seconds of the op.  The record
line of every result gives the median scale and the unscaled figures.

The kernel runs where the ops run, so that it meets the same vCPU and
the same contention.  (Run in a helper process instead, it often landed
on the other vCPU and varied more than the ops did.)  Each workload has
the kernel that does its kind of work:

- `py`: interpreter-bound set semantics over a small Kripke model held
  in dicts of frozensets, plus a print and read-back of its relation
  (`models`, and the set-up probes);
- `np`: a scan-like numpy pipeline over vectors larger than the caches,
  plus a little of `py` (`sweep`);
- `spawn`: a fresh interpreter that imports numpy, started like a `cli`
  command (`cli`, see `workloads.Cli.kernel`).

The kernels import nothing from salogic, so no program change moves them.
`matrix` has no kernel and reports CPU seconds: scaled by `np` or `py`,
its figures spread up to twice as much as unscaled.
"""

from __future__ import annotations

import statistics
import time

# Median kernel CPU times on the reference host (2-core Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"py": 0.020, "np": 0.022, "spawn": 0.20}
SHARE = 0.10  # calibration time per measured second
# Long enough to hold a dozen samples or more around an op, short enough
# to follow a change of machine speed within a run.
SPAN_S = 5.0


def _formula(depth: int, i: int):
    if depth == 0:
        return ("atom", "p" if i & 1 else "q")
    kind = ("not", "and", "or", "box", "dia")[i % 5]
    if kind in ("not", "box", "dia"):
        return (kind, _formula(depth - 1, 3 * i + 1))
    return (kind, _formula(depth - 1, 3 * i + 1), _formula(depth - 1, 3 * i + 2))


def _sat(formula, worlds, succ, val, memo) -> frozenset:
    hit = memo.get(formula)
    if hit is not None:
        return hit
    kind = formula[0]
    if kind == "atom":
        out = val[formula[1]]
    elif kind == "not":
        out = worlds - _sat(formula[1], worlds, succ, val, memo)
    elif kind == "and":
        out = _sat(formula[1], worlds, succ, val, memo) & _sat(formula[2], worlds, succ, val, memo)
    elif kind == "or":
        out = _sat(formula[1], worlds, succ, val, memo) | _sat(formula[2], worlds, succ, val, memo)
    else:
        inner = _sat(formula[1], worlds, succ, val, memo)
        if kind == "box":
            out = frozenset(w for w in worlds if succ[w] <= inner)
        else:
            out = frozenset(w for w in worlds if succ[w] & inner)
    memo[formula] = out
    return out


def _semantics(formulas: int) -> None:
    names = [f"w{i}" for i in range(60)]
    worlds = frozenset(names)
    succ = {
        w: frozenset(names[(7 * i + 13 * k) % 60] for k in range(i % 5 + 1))
        for i, w in enumerate(names)
    }
    val = {"p": frozenset(names[::3]), "q": frozenset(names[1::4])}
    text = "\n".join(f"{w} -> {' '.join(sorted(succ[w]))}" for w in names)
    back = {}
    for line in text.splitlines():
        head, _sep, rest = line.partition(" -> ")
        back[head] = frozenset(rest.split())
    for i in range(formulas):
        _sat(_formula(6, i), worlds, back, val, {})


def _scan() -> None:
    import numpy as np

    for i in range(4):
        cand = np.arange(i << 18, (i + 1) << 18, dtype=np.int64)
        val = cand & 0x3F
        low = (cand >> 6) & 0x1FF
        high = (cand >> 15) & 0x1FF
        keep = np.flatnonzero((high & ~low) == 0)
        val, low = val[keep], low[keep]
        out = np.zeros(keep.shape, dtype=np.int64)
        for w in range(3):
            out |= ((((low >> (3 * w)) & 7) & val) == 0).astype(np.int64) << w


IN_PROCESS = {
    "py": lambda: _semantics(200),
    "np": lambda: (_scan(), _semantics(50)),
}


def in_process(name: str) -> float:
    """CPU seconds of one run of an in-process kernel."""
    start = time.process_time()
    IN_PROCESS[name]()
    return time.process_time() - start


class Calibration:
    """Kernel samples taken between ops, about SHARE of measured time.

    `kernel` runs the kernel once and returns its CPU seconds.  With no
    kernel `name`, nothing is sampled and every scale is 1."""

    def __init__(self, name: str, kernel):
        self.name = name
        self.reference_s = REFERENCE_S.get(name)
        self._kernel = kernel
        self.samples: list[float] = []
        self.times: list[float] = []  # wall clock at each sample
        self._measured = 0.0
        self._spent = 0.0

    def sample(self) -> None:
        seconds = self._kernel()
        self.samples.append(seconds)
        self.times.append(time.perf_counter())
        self._spent += seconds

    def after(self, measured_s: float) -> None:
        """Account `measured_s` of op time; sample until the kernel has
        taken its share of it."""
        self._measured += measured_s
        while self.name and self._spent < SHARE * self._measured:
            self.sample()

    def scale(self) -> float:
        """Reference seconds per CPU second over the whole run."""
        if not self.samples:
            return 1.0
        return self.reference_s / statistics.median(self.samples)

    def scale_between(self, start: float, end: float) -> float:
        """Reference seconds per CPU second for an op that ran from
        `start` to `end` (perf_counter), from the samples near it."""
        near = [
            s for s, t in zip(self.samples, self.times)
            if start - SPAN_S <= t <= end + SPAN_S
        ]
        return self.reference_s / statistics.median(near) if near else self.scale()
