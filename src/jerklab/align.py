"""Common-grid construction and linear resampling.

Comparing traces sample-by-sample requires equal-length vectors on one grid.
The grid is the intersection of all trace domains (so no query ever needs
extrapolation), sampled at ``n`` equally spaced points including both
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ExtrapolationError, NoOverlapError, ValidationError,
                     _require_float, _require_int)
from .series import TimeSeries, UniformSeries, _require_series


@dataclass(frozen=True)
class CommonGrid:
    """A shared uniform grid: ``n`` points from t0 to t1 inclusive."""

    t0: float
    t1: float
    n: int

    def __post_init__(self):
        t0 = _require_float(self.t0, "grid endpoints must be finite")
        t1 = _require_float(self.t1, "grid endpoints must be finite")
        if t1 <= t0:
            raise ValidationError(f"t1 must exceed t0, got [{t0!r}, {t1!r}]")
        n = _require_int(self.n, f"n must be an integer >= 2, got {self.n!r}", 2)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "n", n)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.n - 1)

    def times(self) -> np.ndarray:
        """All grid timestamps, computed multiplicatively as t0 + k*dt."""
        return self.t0 + np.arange(self.n, dtype=np.float64) * self.dt


def build_common_grid(traces: Sequence[TimeSeries], n: int) -> CommonGrid:
    """Grid over the time-domain intersection of ``traces``.

    Raises :class:`NoOverlapError` (listing every trace's domain) when the
    intersection is empty or a single instant.
    """
    if not traces:
        raise ValidationError("need at least one trace")
    for i, tr in enumerate(traces):
        _require_series(tr, f"traces[{i}]", TimeSeries)
    t0 = max(tr.t_start for tr in traces)
    t1 = min(tr.t_end for tr in traces)
    if t1 <= t0:
        domains = {}
        for i, tr in enumerate(traces):
            label = tr.meta.source_id or f"trace-{i}"
            if label in domains:
                label = f"{label}#{i}"
            domains[label] = tr.domain
        raise NoOverlapError(domains)
    return CommonGrid(t0=t0, t1=t1, n=n)


def resample_linear(trace: TimeSeries, grid: CommonGrid) -> UniformSeries:
    """Resample ``trace`` onto ``grid`` by linear interpolation.

    Contract highlights:

    * a grid time equal to an original timestamp returns the original value
      bit-exactly;
    * every interpolated value lies within [min, max] of its bracketing
      sample pair;
    * queries outside the trace domain raise :class:`ExtrapolationError` —
      except for a few-ulp float overhang at the domain edges (an artifact of
      the multiplicative grid formula), which is clamped to the endpoint.
    """
    _require_series(trace, "trace", TimeSeries)
    t, v = trace.t, trace.v
    q = grid.times()

    # Domain check with a 4-ulp tolerance band at each edge.
    lo, hi = trace.domain
    edge = 4.0 * np.spacing(max(abs(lo), abs(hi)))
    if q[0] < lo - edge or q[-1] > hi + edge:
        raise ExtrapolationError(
            f"grid [{float(q[0])!r}, {float(q[-1])!r}] is not contained in "
            f"the trace domain [{lo!r}, {hi!r}]"
        )
    q = np.clip(q, lo, hi)

    # Left-knot bracketing: for q exactly on a knot, searchsorted(side='right')
    # lands one past it, so idx is the knot itself and the weight is 0.
    idx = np.searchsorted(t, q, side="right") - 1
    idx = np.clip(idx, 0, len(t) - 2)
    ta = t[idx]
    tb = t[idx + 1]
    va = v[idx]
    vb = v[idx + 1]
    w = (q - ta) / (tb - ta)
    out = va + w * (vb - va)
    # Exact knot reproduction at both bracket ends, then clamp into the
    # bracket envelope so rounding can never poke outside [min, max].
    out = np.where(w == 0.0, va, np.where(w == 1.0, vb, out))
    out = np.minimum(np.maximum(out, np.minimum(va, vb)), np.maximum(va, vb))

    return UniformSeries(t0=grid.t0, dt=grid.dt, values=out, meta=trace.meta)
