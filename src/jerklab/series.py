"""Trace containers: raw (possibly non-uniform) and uniform-grid series.

Samples are read-only 1-D float64 arrays, validated once; series compare by
identity. The constructors copy what they are given. Both readers of a trace
file, the gated read and the checked scan, build one ``(2, n)`` array
themselves and hand it over whole: the series adopts it after the
constructor's checks, and its ``t`` and ``v`` are that array's two rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ValidationError, _require_float


@dataclass(frozen=True)
class SeriesMeta:
    """Provenance tag carried along with a trace."""

    source_id: str = ""
    signal: str = ""


def _as_array(name: str, values: Iterable[float]) -> np.ndarray:
    try:
        out = np.array(values, dtype=np.float64)  # a copy the caller cannot reach
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be a 1-D sequence of real numbers within float64 range"
        ) from None
    if out.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {out.shape}")
    _require_finite(name, out, values)
    out.flags.writeable = False
    return out


def _require_finite(name: str, out: np.ndarray, given=None) -> None:
    """``ValidationError`` naming the first element of ``out`` that is not
    finite, shown as ``None`` where the sequence ``given`` it was converted
    from holds ``None`` (which numpy reads as nan)."""
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        none = isinstance(given, (list, tuple, np.ndarray)) and given[i] is None
        shown = None if none else float(out[i])
        raise ValidationError(f"{name}[{i}] must be finite, got {shown!r}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A raw trace: strictly increasing timestamps with one value each.

    This is what parsers produce; the grid may be non-uniform. At least two
    samples are required (a single point has no time extent to analyze).
    """

    t: np.ndarray
    v: np.ndarray
    meta: SeriesMeta = field(default_factory=SeriesMeta)

    def __post_init__(self):
        self._take(_as_array("t", self.t), _as_array("v", self.v))

    @classmethod
    def _adopt(cls, rows: np.ndarray, meta: SeriesMeta) -> TimeSeries:
        """The series whose ``t`` and ``v`` are the two rows of the
        C-contiguous ``(2, n)`` float64 array ``rows``, without a copy.
        ``rows`` is made read-only and must have no other holder."""
        rows.flags.writeable = False
        t, v = rows
        _require_finite("t", t)
        _require_finite("v", v)
        series = object.__new__(cls)
        object.__setattr__(series, "meta", meta)
        series._take(t, v)
        return series

    def _take(self, t: np.ndarray, v: np.ndarray) -> None:
        """Check the read-only, finite arrays ``t`` and ``v`` as a series and
        make them its samples."""
        if len(t) != len(v):
            raise ValidationError(
                f"t and v must have equal length, got {len(t)} and {len(v)}"
            )
        if len(t) < 2:
            raise ValidationError(f"a series needs at least 2 samples, got {len(t)}")
        bad = np.flatnonzero(t[1:] <= t[:-1])
        if bad.size:
            i = int(bad[0]) + 1
            raise ValidationError(
                f"timestamps must be strictly increasing, but "
                f"t[{i}]={float(t[i])!r} <= t[{i - 1}]={float(t[i - 1])!r}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def domain(self) -> tuple[float, float]:
        return (self.t_start, self.t_end)


@dataclass(frozen=True, eq=False)
class UniformSeries:
    """A trace on a uniform grid t[k] = t0 + k*dt.

    Timestamps are *derived*, never stored: ``times()`` computes them with the
    single multiplicative formula, so there is no accumulated-addition drift
    and two series with equal (t0, dt, length) have bit-identical grids.
    """

    t0: float
    dt: float
    values: np.ndarray
    meta: SeriesMeta = field(default_factory=SeriesMeta)

    def __post_init__(self):
        t0 = _require_float(self.t0, "t0 must be finite, got {!r}")
        dt = _require_float(self.dt, "dt must be finite and > 0, got {!r}",
                            positive=True)
        values = _as_array("values", self.values)
        if not values.size:
            raise ValidationError("values must be non-empty")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        """All timestamps: element ``k`` is ``t0 + k*dt``, bit for bit."""
        return self.t0 + np.arange(len(self.values)) * self.dt

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.values) - 1) * self.dt

    @property
    def span(self) -> float:
        """Elapsed time covered by the series."""
        return (len(self.values) - 1) * self.dt

    def to_time_series(self) -> TimeSeries:
        """Materialize the grid into an explicit-timestamp trace."""
        return TimeSeries(t=self.times(), v=self.values, meta=self.meta)


def _require_series(value, name: str, cls: type) -> None:
    """``ValidationError`` naming ``name``, ``cls`` and the class of ``value``
    unless ``value`` is a ``cls``; a repr would print its arrays."""
    if not isinstance(value, cls):
        hint = "; convert it with to_time_series()" if isinstance(value, UniformSeries) else ""
        raise ValidationError(
            f"{name} must be a {cls.__name__}, got {type(value).__name__}{hint}")
