"""Span tracer that wraps hyperpol's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in memory.
Counters are derived from the call's arguments, return value or raised
exception only, so the program itself is not modified.  Because several
modules import functions by name (``engine.hermitian_expm``,
``sweep.evaluate_exact``, ``cli.evaluate_exact``, ...), installing a
wrapper replaces every reference to the original in every loaded
``hyperpol`` module namespace.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _segments(args, kwargs, result, error):
    return {"segments": len(_arg(args, kwargs, 1, "timeline").segments)}


def _cycles(args, kwargs, result, error):
    return {"cycles": int(_arg(args, kwargs, 2, "n"))}


def _failed(args, kwargs, result, error):
    return {"failed": int(error is not None)}


def _below_threshold(args, kwargs, result, error):
    return {"below_threshold": int(type(error).__name__ == "BelowThresholdError")}


def _bytes_written(args, kwargs, result, error):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path) if error is None else 0}


# (module, attribute path, counter hook): the layer boundaries of the trace
TARGETS = (
    ("params", "config_from_dict", None),
    ("catalog", "magic_params", None),
    ("timeline", "render_unit", None),
    ("linalg", "hermitian_expm", None),
    ("engine", "segment_propagator", None),
    ("engine", "propagate", _segments),
    ("engine", "kraus", None),
    ("engine", "steady_state", _failed),
    ("engine", "simulate", _cycles),
    ("engine", "measured_rate", _below_threshold),
    ("engine", "evaluate_exact", None),
    ("analytic", "summarize", None),
    ("sweep", "apply_point", None),
    ("sweep", "run_sweep", None),
    ("sweep", "ResultTable.write", _bytes_written),
    ("sweep", "find_tau_res", None),
    ("sweep", "robustness_scan", None),
    ("cli", "main", None),
)


# counters the tracer derives from arguments, results and exceptions
COUNTERS = (
    ("engine.propagate.segments", "count"),
    ("engine.steady_state.failed", "count"),
    ("engine.simulate.cycles", "count"),
    ("engine.measured_rate.below_threshold", "count"),
    ("sweep.ResultTable.write.bytes", "bytes"),
)
DERIVED = (
    ("engine.propagate.cache_hit_ratio", "ratio"),
    ("engine.simulate.retry_ratio", "ratio"),
    ("engine.steady_state.share", "ratio"),
    ("engine.propagate.share", "ratio"),
    ("import.hyperpol_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple(
    [(f"{m}.{a}.self_s", "s") for m, a, _ in TARGETS]
    + [(f"{m}.{a}.calls", "count") for m, a, _ in TARGETS]
    + list(COUNTERS) + list(DERIVED)
)


class Tracer:
    """Records spans and counters for the functions in TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    for key, value in hook(args, kwargs, result, error).items():
                        counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hyperpol" or key.startswith("hyperpol."))]
        for module_name, attr, hook in TARGETS:
            owner = importlib.import_module(f"hyperpol.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            self._patch(owner, leaf, wrapper)
            if path:
                continue  # a method: every caller reaches it through the class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time (span time minus its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - children
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def wrapper_cost_s(calls: int = 20000) -> float:
    """Extra wall time of one traced call over a plain one, measured here."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max((time.perf_counter() - start - plain) / calls, 0.0)


def layer_metrics(tracer: Tracer, traced_s: float, import_s: float) -> dict:
    """Every PER_LAYER metric of one traced pass that took ``traced_s``.

    The tracing overhead is the span count times the measured cost of one
    wrapped call: a second, untraced pass of the longest workload would
    not fit in one run's time limit.
    """
    totals = tracer.layer_totals()
    metrics = {}
    for module, attr, _ in TARGETS:
        entry = totals.get(f"{module}.{attr}", {"calls": 0, "self_s": 0.0})
        metrics[f"{module}.{attr}.self_s"] = entry["self_s"]
        metrics[f"{module}.{attr}.calls"] = entry["calls"]
    for name, _ in COUNTERS:
        metrics[name] = tracer.counters.get(name, 0)
    segments = metrics["engine.propagate.segments"]
    exact_calls = metrics["engine.evaluate_exact.calls"]
    metrics["engine.propagate.cache_hit_ratio"] = (
        1 - metrics["engine.segment_propagator.calls"] / segments if segments else 0.0)
    metrics["engine.simulate.retry_ratio"] = (
        metrics["engine.simulate.calls"] / exact_calls if exact_calls else 0.0)
    metrics["engine.steady_state.share"] = metrics["engine.steady_state.self_s"] / traced_s
    metrics["engine.propagate.share"] = metrics["engine.propagate.self_s"] / traced_s
    metrics["import.hyperpol_s"] = import_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = len(tracer.spans) * wrapper_cost_s()
    metrics["trace.spans"] = len(tracer.spans)
    return metrics

