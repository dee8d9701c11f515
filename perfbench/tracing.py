"""Spans around calls into jerklab's public functions, recorded from outside.

The tracer replaces each traced function, in every jerklab module that holds
a reference to it, by a wrapper that records a span (name, start, end,
parent) and a few work counts computed from the call's arguments and return
value. ``TimeSeries`` and ``UniformSeries`` are traced by wrapping their
``__init__``. Spans stay in memory until the run ends. Nothing in jerklab is
edited, and with the tracer uninstalled no wrapper is left behind.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: Layers in the order the results list them.
LAYERS = ("cli", "integrate", "ingest", "series", "align", "metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)


def _simulate_attrs(args, kwargs, result, exc):
    config = args[0] if args else kwargs["config"]
    method = config.method.value
    points = config.output_points
    if method == "rk45":
        return {"kind": "escape" if exc else "rk45", "samples": points}
    # Same substep rule as the fixed-step integrator: ceil(dt_out / step).
    dt_out = (config.t_end - config.t_start) / (points - 1)
    n_sub = max(1, math.ceil(dt_out / config.step - 1.0e-12))
    h = dt_out / n_sub
    substeps = (points - 1) * n_sub
    last = getattr(exc, "last_valid_time", None)
    if last is not None:
        substeps = round((last - config.t_start) / h) + 1
    return {"kind": "escape" if exc else method, "substeps": substeps}


def _load_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": len(result)}


def _construct_attrs(args, kwargs, result, exc):
    obj = args[0]
    n = len(obj) if exc is None else 0
    # A TimeSeries validates two columns, a UniformSeries one.
    return {"values": 2 * n if hasattr(obj, "v") else n}


def _cumulative_attrs(args, kwargs, result, exc):
    pair = (id(args[0]), id(args[1])) if len(args) >= 2 else None
    return {"pair": pair, "prefix_samples": sum(result.boundaries) if result else 0}


# (module, attribute, span name, attrs). An attribute "Class.__init__" wraps
# the constructor.
TARGETS = (
    ("jerklab.cli", "main", "cli.main", None),
    ("jerklab.integrate", "simulate", "integrate.simulate", _simulate_attrs),
    ("jerklab.ingest", "write_series_csv", "ingest.write",
     lambda a, k, r, e: {"bytes": len(r) if r is not None else 0}),
    ("jerklab.ingest", "load_trace", "ingest.load", _load_attrs),
    ("jerklab.series", "TimeSeries.__init__", "series.construct", _construct_attrs),
    ("jerklab.series", "UniformSeries.__init__", "series.construct", _construct_attrs),
    ("jerklab.align", "build_common_grid", "align.grid", None),
    ("jerklab.align", "resample_linear", "align.resample",
     lambda a, k, r, e: {"samples": len(r) if r is not None else 0}),
    ("jerklab.metrics", "cumulative_nrmse", "metrics.cumulative_nrmse", _cumulative_attrs),
    ("jerklab.metrics", "prediction_horizon", "metrics.horizon", None),
    ("jerklab.metrics", "build_comparison", "metrics.build_comparison", None),
)


class Tracer:
    """Records spans while ``enabled``; ``install`` wraps, ``uninstall`` undoes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._keep: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, attrs: dict) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()
        self.spans[idx].attrs.update(attrs)

    def _wrap(self, fn, name, annotate):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer._close(idx, {"raised": type(exc).__name__} if exc else {})
                if annotate is not None:
                    tracer.spans[idx].attrs.update(annotate(args, kwargs, result, exc))
                # Holding the arguments until the op ends keeps their ids,
                # which identify distinct scorings, unique within the op.
                tracer._keep.append(args)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "jerklab" or n.startswith("jerklab.")]
        for mod_name, attr, name, annotate in TARGETS:
            owner = sys.modules.get(mod_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, method, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name, annotate)
            if cls_name:
                self._patch(owner, method, fn, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, fn, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def end_op(self) -> None:
        self._keep.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The run is single-threaded, so children never overlap and their union is
    their sum.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def op_layer_metrics(spans: list[Span], selfs: list[float],
                     op_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced op, from its spans and their self times."""
    m = dict.fromkeys(PER_LAYER_OP_KEYS, 0.0)
    sub = {"rk4": 0, "euler": 0, "escape": 0}
    rk45_samples = 0
    load_incl = rows = 0.0
    pairs = set()
    for s, st in zip(spans, selfs):
        layer = s.name.partition(".")[0]
        if layer in LAYERS:
            m[f"share.{layer}"] += st
        a = s.attrs
        if s.name == "cli.main":
            m["cli.self_s"] += st
        elif s.name == "integrate.simulate":
            m[f"integrate.{a['kind']}_s"] += st
            if a["kind"] == "rk45":
                rk45_samples += a["samples"]
            else:
                sub[a["kind"]] += a.get("substeps", 0)
        elif s.name == "ingest.write":
            m["ingest.write_s"] += st
            m["ingest.write_bytes"] += a["bytes"]
        elif s.name == "ingest.load":
            m["ingest.load_s"] += st
            m["ingest.read_bytes"] += a.get("bytes", 0)
            load_incl += s.end - s.start
            rows += a.get("rows", 0)
        elif s.name == "series.construct":
            m["series.construct_s"] += st
            m["series.construct_calls"] += 1
            m["series.values_validated"] += a["values"]
        elif s.name == "align.grid":
            m["align.grid_s"] += st
        elif s.name == "align.resample":
            m["align.resample_s"] += st
            m["align.resampled_samples"] += a["samples"]
        elif s.name == "metrics.cumulative_nrmse":
            m["metrics.cumulative_nrmse_s"] += st
            m["metrics.cumulative_nrmse_calls"] += 1
            m["metrics.prefix_samples"] += a["prefix_samples"]
            pairs.add(a["pair"])
        elif s.name == "metrics.horizon":
            m["metrics.horizon_s"] += st
        elif s.name == "metrics.build_comparison":
            m["metrics.build_comparison_self_s"] += st
    for layer in LAYERS:
        m[f"share.{layer}"] /= op_seconds
    m["integrate.substeps"] = float(sum(sub.values()))
    m["integrate.rk4_ns_per_substep"] = _ratio(m["integrate.rk4_s"] * 1e9, sub["rk4"])
    m["integrate.euler_ns_per_substep"] = _ratio(m["integrate.euler_s"] * 1e9, sub["euler"])
    m["integrate.rk45_us_per_sample"] = _ratio(m["integrate.rk45_s"] * 1e6, rk45_samples)
    m["ingest.rows_per_s"] = _ratio(rows, load_incl)
    m["metrics.useful_ratio"] = _ratio(len(pairs), m["metrics.cumulative_nrmse_calls"])
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER_OP_KEYS = (
    "integrate.rk4_s", "integrate.euler_s", "integrate.rk45_s", "integrate.escape_s",
    "integrate.rk4_ns_per_substep", "integrate.euler_ns_per_substep",
    "integrate.rk45_us_per_sample", "integrate.substeps",
    "ingest.write_s", "ingest.write_bytes", "ingest.load_s", "ingest.read_bytes",
    "ingest.rows_per_s",
    "series.construct_s", "series.construct_calls", "series.values_validated",
    "align.grid_s", "align.resample_s", "align.resampled_samples",
    "metrics.cumulative_nrmse_s", "metrics.cumulative_nrmse_calls",
    "metrics.prefix_samples", "metrics.useful_ratio", "metrics.horizon_s",
    "metrics.build_comparison_self_s",
    "cli.self_s",
    *(f"share.{layer}" for layer in LAYERS),
)


#: Work counts derived from the calls' arguments and return values (and the
#: artifact sizes), not counted inside jerklab.
COMPUTED_COUNTS = (
    "integrate.substeps", "ingest.write_bytes", "ingest.read_bytes",
    "series.construct_calls", "series.values_validated", "align.resampled_samples",
    "metrics.cumulative_nrmse_calls", "metrics.prefix_samples", "cli.report_bytes",
)


def median_per_op(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
