"""Layer spans recorded from outside the package.

`install` replaces the public functions of each salogic module (and the
constructors of the core records) with wrappers that time every call.
Wrappers are bound wherever the original was bound, so calls from one
module into another (cli -> semantics, search -> semantics, ...) are
seen too.  Spans nest: a span's self time is its duration minus the
time covered by the spans it caused.

Spans are folded into per-function totals as they close instead of
being stored one by one: a traced pass makes millions of nested calls
(render_trace prints every node's formula).  Optional per-function
hooks derive work counts (bytes, cells, candidates, ...) from the
arguments and the result; the time a hook takes is excluded from every
enclosing span.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager

LAYERS = ("syntax", "core", "semantics", "search", "proofs", "cli")

_now = time.perf_counter_ns

# Separates a traced command's own output from the totals it reports.
TRACE_MARK = "@@perfbench-trace@@"


class Tracer:
    """Per-(layer, function) totals of calls, inclusive and self time, and
    of the counts the hooks report."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = {}
        self.cli_self_ns: list[int] = []
        self._stack: list[list[int]] = []  # [start, child_ns, excluded_ns]
        self._paused = False

    def call(self, layer, name, fn, hook, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        frame = [_now(), 0, 0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            duration = end - frame[0] - frame[2]
            self_ns = duration - frame[1]
            entry = self.stats.setdefault((layer, name), [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            if layer == "cli":
                self.cli_self_ns.append(self_ns)
            excluded = frame[2]
        if hook is not None:
            hook_start = _now()
            with self.paused():  # calls a hook makes are not spans
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            excluded += _now() - hook_start
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2] += excluded
        return result

    @contextmanager
    def paused(self):
        """Calls made inside the block run untraced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _name), (calls, _incl, self_ns) in self.stats.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_ns / 1e9
        return out

    def function_self_s(self, layer: str, names) -> float:
        return sum(
            self.stats.get((layer, name), (0, 0, 0))[2] for name in names
        ) / 1e9

    def function_incl_s(self, layer: str, names) -> float:
        return sum(
            self.stats.get((layer, name), (0, 0, 0))[1] for name in names
        ) / 1e9

    def merge(self, stats, counts, cli_self_ns) -> None:
        """Fold in the totals a traced child process reported."""
        for layer, name, calls, incl, self_ns in stats:
            entry = self.stats.setdefault((layer, name), [0, 0, 0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_ns
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.cli_self_ns.extend(cli_self_ns)

    def dump(self) -> dict:
        return {
            "stats": [[l, n, *v] for (l, n), v in self.stats.items()],
            "counts": self.counts,
            "cli_self_ns": self.cli_self_ns,
        }


def _wrapper(tracer, layer, name, fn, hook):
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, hook, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def install(tracer: Tracer, hooks: dict) -> callable:
    """Wrap every layer's public functions; returns a function that puts
    the originals back.  `hooks` maps "layer.function" to a count hook."""
    import salogic
    from salogic import cli, core, proofs, search, semantics, syntax

    modules = {
        "syntax": syntax,
        "semantics": semantics,
        "search": search,
        "proofs": proofs,
        "cli": cli,
    }
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        names = ["main"] if layer == "cli" else module.__all__
        for name in names:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                hook = hooks.get(f"{layer}.{name}")
                replaced[id(fn)] = (fn, _wrapper(tracer, layer, name, fn, hook))
    replaced[id(core.poset_closure)] = (
        core.poset_closure,
        _wrapper(tracer, "core", "poset_closure", core.poset_closure, None),
    )

    undo = []
    for module in (salogic, core, *modules.values()):
        for attr, value in list(vars(module).items()):
            pair = replaced.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
                undo.append((module, attr, value))

    # Direct construction of the core records: the generated __init__
    # looks __post_init__ up on the class at call time.
    for cls in (core.IndexPoset, core.StratifiedModel):
        original = cls.__dict__["__post_init__"]
        cls.__post_init__ = _wrapper(
            tracer, "core", f"{cls.__name__}.__post_init__", original, None
        )
        undo.append((cls, "__post_init__", original))
    from_order = core.IndexPoset.__dict__["from_order"]
    core.IndexPoset.from_order = classmethod(
        _wrapper(tracer, "core", "IndexPoset.from_order", from_order.__func__, None)
    )
    undo.append((core.IndexPoset, "from_order", from_order))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
