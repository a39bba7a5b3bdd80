"""Spans and counters recorded from the benchmark's own files.

A traced run replaces layer entry points in the modules that call them (for
example ``peerspot.harness.compute_payoff_table`` and
``peerspot.equilibrium.solve_p_el``), so the program runs its own
orchestration unchanged.  Spans stay in memory until the run ends; a layer's
self time is its span minus the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from catalogue import ALL_KINDS, MC_LABELS, SOLVERS, mc_keys, per_layer

ALLOC_LAYERS = ("equilibrium.table", "equilibrium.thresholds")
TAIL_PERCENTILES = (0.999, 0.99, 0.9)


@dataclass
class Span:
    name: str
    parent: int | None
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _table_attrs(args, kwargs) -> dict:
    mechanism = args[0] if args else kwargs["mechanism"]
    env = args[1] if len(args) > 1 else kwargs["env"]
    k = len(env.q_space)
    return {"kind": mechanism.kind.value, "cells": (2 * k**k) ** 2}


def _sweep_attrs(args, kwargs) -> dict:
    config = args[0] if args else kwargs["config"]
    return {"rows": len(config.environments) * len(config.mechanisms) * len(config.effort_costs)}


def _emit_attrs(args, kwargs) -> dict:
    return {"rows": len(args[0] if args else kwargs["rows"])}


# (module, attribute, layer, span attributes from the call's arguments)
PATCHES = (
    ("peerspot.cli", "load_config", "harness.config", None),
    ("peerspot.cli", "run_experiment", "harness.run_experiment", _sweep_attrs),
    ("peerspot.cli", "emit_csv", "harness.emit", _emit_attrs),
    ("peerspot.cli", "emit_json", "harness.emit", _emit_attrs),
    ("peerspot.cli", "emit_plotdata", "harness.emit", _emit_attrs),
    ("peerspot.harness", "compute_payoff_table", "equilibrium.table", _table_attrs),
    ("peerspot.harness", "compute_thresholds", "equilibrium.thresholds", None),
) + tuple(("peerspot.equilibrium", name, layer, None) for name, layer in SOLVERS.items())


class _NullTracer:
    def span(self, name, **attrs):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


class Tracer:
    """In-memory spans and counts; with ``track_alloc``, tracemalloc peaks per layer."""

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list = []
        self.counts: dict = {}
        self.alloc_peak_mb: dict = {}
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = Span(name, self._stack[-1] if self._stack else None, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        alloc = self.track_alloc and name in ALLOC_LAYERS
        if alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if alloc:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.alloc_peak_mb[name] = max(self.alloc_peak_mb.get(name, 0.0), peak)

    def _wrap(self, fn, layer: str, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, **(attrs_fn(args, kwargs) if attrs_fn else {})):
                return fn(*args, **kwargs)

        return traced

    def _count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, work):
        """Patch every layer entry point that exists; restore them on exit."""
        undo = []
        try:
            for module_name, attr, layer, attrs_fn in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is not None:
                    setattr(module, attr, self._wrap(original, layer, attrs_fn))
                    undo.append((module, attr, original))
            table = getattr(importlib.import_module("peerspot.equilibrium"), "PayoffTable", None)
            gains = getattr(table, "gains", None)
            if gains is not None:
                table.gains = self._count(gains, "gains")
                undo.append((table, "gains", gains))
            work.tracer = self
            yield self
        finally:
            work.tracer = NULL_TRACER
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it (the median below 20)."""
    for q in TAIL_PERCENTILES:
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(work, run: dict, verdict: dict) -> tuple:
    """Per-layer metrics of a traced run, plus notes on how they were taken."""
    tracer, alloc = run["tracer"], run["alloc"]
    by_name: dict = {}
    child_time: dict = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append((index, span))
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration

    def spans(name):
        return [span for _, span in by_name.get(name, [])]

    def busy(name, **match):
        return sum(s.duration for s in spans(name) if all(s.attrs.get(k) == v for k, v in match.items()))

    def total(name, attr, **match):
        return sum(s.attrs[attr] for s in spans(name) if all(s.attrs.get(k) == v for k, v in match.items()))

    metrics = dict.fromkeys(per_layer(), 0.0)
    metrics["harness.config_s"] = statistics.median(
        [s.duration for s in spans("harness.config")] + work.config_times
    )
    metrics["harness.emit_rows_per_s"] = _rate(total("harness.emit", "rows"), busy("harness.emit"))
    runs = by_name.get("harness.run_experiment", [])
    metrics["harness.sweep_self_rows_per_s"] = _rate(
        sum(s.attrs["rows"] for _, s in runs), sum(s.duration - child_time.get(i, 0.0) for i, s in runs)
    )
    metrics["equilibrium.table_cells_per_s"] = _rate(total("equilibrium.table", "cells"), busy("equilibrium.table"))
    for kind in ALL_KINDS:
        metrics[f"equilibrium.table_cells_per_s.{kind}"] = _rate(
            total("equilibrium.table", "cells", kind=kind), busy("equilibrium.table", kind=kind)
        )

    solve = [s.duration for s in spans("equilibrium.thresholds")]
    tail = tail_percentile(len(solve))
    if solve:
        metrics["equilibrium.thresholds_per_s.p50"] = _rate(1.0, statistics.median(solve))
        metrics["equilibrium.thresholds_per_s.tail"] = _rate(1.0, _percentile(solve, tail))
        metrics["equilibrium.gains_calls_per_row"] = tracer.counts.get("gains", 0) / len(solve)
    for layer in SOLVERS.values():
        metrics[f"{layer}_per_s"] = _rate(len(spans(layer)), busy(layer))
    passes = len(run["traced_times"])
    metrics["equilibrium.solve_failed"] = sum(1 for s in spans("equilibrium.thresholds") if s.error) / passes
    if alloc is not None:
        metrics["equilibrium.table_alloc_peak_mb"] = alloc.alloc_peak_mb.get("equilibrium.table", 0.0)
        metrics["equilibrium.solve_alloc_peak_mb"] = alloc.alloc_peak_mb.get("equilibrium.thresholds", 0.0)

    metrics["mechanisms.mc_samples_per_s"] = _rate(total("mechanisms.mc", "samples"), busy("mechanisms.mc"))
    for k in MC_LABELS:
        for _, _, key in mc_keys(k):
            metrics[f"mechanisms.mc_samples_per_s.{key}"] = _rate(
                total("mechanisms.mc", "samples", key=key), busy("mechanisms.mc", key=key)
            )
            metrics[f"mechanisms.mc_z.{key}"] = verdict.get("z", {}).get(key, 0.0)

    metrics["trace.overhead_frac"] = statistics.median(run["traced_times"]) / statistics.median(run["times"]) - 1.0
    notes = {
        "thresholds_samples": len(solve),
        "thresholds_tail_percentile": tail,
        "traced_passes": passes,
        "alloc_pass": alloc is not None,
    }
    return metrics, notes
