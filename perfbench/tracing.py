"""Per-layer spans for the netbell benchmark, recorded from outside the package.

`Tracer.install()` replaces every public function of each netbell module,
every public method of the classes those modules define, and the two hot
dunders `StateVector.__init__` and `PauliString.__mul__`, with a wrapper
that records a span: its layer (the defining module), its duration and the
part of that duration its child spans covered. Names other modules bound
with `from ... import` are patched too, so those calls are seen.
`uninstall()` puts every original back. Nothing under `src/` changes.

Work in a process-pool child (the classical scan's chunks) is not seen:
the parent's wait for it shows up inside `classical.busy_s`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = (
    "pauli",
    "states",
    "codes",
    "network",
    "observables",
    "scenarios",
    "bell",
    "sampling",
    "classical",
    "reports",
    "cli",
)
# Dunders traced alongside the public names: the two calls the ROADMAP
# names as hot (the per-construction norm check and the string product).
TRACED_DUNDERS = {("StateVector", "__init__"), ("PauliString", "__mul__")}
APPLY_QUBITS = (5, 10, 15)
AMPLITUDE_BYTES = 16  # complex128


class PassStats:
    """Counters and span times of one pass through a workload."""

    def __init__(self):
        self.calls = Counter()  # by "layer.Class.method" / "layer.function"
        self.func_s = defaultdict(float)  # inclusive time by the same key
        self.entries = Counter()  # by layer: calls entering it from outside
        self.busy_s = defaultdict(float)  # by layer: outermost span durations
        self.self_s = defaultdict(float)  # by layer: durations minus child spans
        self.apply_s = defaultdict(list)  # StateVector.apply durations by qubit count
        self.bytes_computed = 0
        self.scanned = 0
        self.rounds = 0
        self.record_bytes = 0
        self.bytes_written = 0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of this pass, as name -> (value, unit)."""

        def apply_us(n):
            times = self.apply_s.get(n)
            return statistics.median(times) * 1e6 if times else 0.0

        def rate(count, seconds):
            return count / seconds if seconds else 0.0

        busy = self.busy_s
        metrics = {
            "states.init_calls": (self.calls["states.StateVector.__init__"], "count"),
            "states.init_busy_s": (self.func_s["states.StateVector.__init__"], "s"),
            "states.apply_calls": (self.calls["states.StateVector.apply"], "count"),
            "states.expectation_calls": (self.calls["states.StateVector.expectation"], "count"),
            "states.busy_s": (busy["states"], "s"),
        }
        for n in APPLY_QUBITS:
            metrics[f"states.apply_us.q{n}"] = (apply_us(n), "us")
        metrics.update(
            {
                "states.bytes_computed": (self.bytes_computed, "B"),
                "pauli.mul_calls": (self.calls["pauli.PauliString.__mul__"], "count"),
                "pauli.busy_s": (busy["pauli"], "s"),
                "observables.calls": (self.entries["observables"], "count"),
                "observables.busy_s": (busy["observables"], "s"),
                "bell.calls": (self.entries["bell"], "count"),
                "bell.self_s": (self.self_s["bell"], "s"),
                "classical.scanned": (self.scanned, "count"),
                "classical.busy_s": (busy["classical"], "s"),
                "classical.combos_per_s": (rate(self.scanned, busy["classical"]), "1/s"),
                "classical.correlators_calls": (self.calls["classical.correlators"], "count"),
                "sampling.rounds": (self.rounds, "count"),
                "sampling.self_s": (self.self_s["sampling"], "s"),
                "sampling.rounds_per_s": (rate(self.rounds, busy["sampling"]), "1/s"),
                "sampling.record_bytes": (self.record_bytes, "B"),
                "scenarios.busy_s": (busy["scenarios"], "s"),
                "codes.busy_s": (busy["codes"], "s"),
                "network.busy_s": (busy["network"], "s"),
                "reports.calls": (self.entries["reports"], "count"),
                "reports.bytes_written": (self.bytes_written, "B"),
                "reports.busy_s": (busy["reports"], "s"),
                "cli.self_s": (self.self_s["cli"], "s"),
            }
        )
        return metrics


# Counts read from a call's arguments or result, keyed like PassStats.calls.


def _on_apply(stats, args, kwargs, result, seconds):
    n = args[0].n
    stats.apply_s[n].append(seconds)
    # One read of the input amplitudes and one write of the output.
    stats.bytes_computed += 2 * AMPLITUDE_BYTES << n


def _on_scan(stats, args, kwargs, result, seconds):
    stats.scanned += result.scanned


def _on_sample(stats, args, kwargs, result, seconds):
    stats.rounds += result.rounds
    record = kwargs.get("record_path")
    if record is not None:
        stats.record_bytes += os.path.getsize(record)


def _on_report(stats, args, kwargs, result, seconds):
    stats.bytes_written += os.path.getsize(args[0])


HOOKS = {
    "states.StateVector.apply": _on_apply,
    "classical.max_deterministic": _on_scan,
    "sampling.run": _on_sample,
    "reports.write_json": _on_report,
    "reports.write_csv": _on_report,
}


class Tracer:
    """Wraps the netbell layers while installed; `stats` holds the current pass."""

    def __init__(self):
        self.stats = PassStats()
        self._stack: list[list[float]] = []  # per open span: time its children took
        self._depth = Counter()  # open spans per layer
        self._patches: list[tuple[object, str, object]] = []

    def new_pass(self) -> PassStats:
        """Start counting a fresh pass and return the finished one."""
        finished, self.stats = self.stats, PassStats()
        return finished

    def _wrap(self, layer: str, key: str, func):
        hook = HOOKS.get(key)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                if self._stack:
                    self._stack[-1][0] += seconds
                stats = self.stats
                stats.calls[key] += 1
                stats.func_s[key] += seconds
                stats.self_s[layer] += seconds - frame[0]
                if not self._depth[layer]:
                    stats.entries[layer] += 1
                    stats.busy_s[layer] += seconds
            if hook is not None:
                hook(stats, args, kwargs, result, seconds)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        # vars(), not getattr(): a class must get its classmethod object back.
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"netbell.{layer}") for layer in LAYERS]
        wrapped = {}  # id(original function) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # Replace every binding of a wrapped function, including the ones
        # other modules made with `from ... import`.
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, name, wrapped[id(obj)])

    def _install_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and (cls.__name__, name) not in TRACED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, name, type(raw)(self._wrap(layer, key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(layer, key, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
