"""Reproducibility metrics: NRMSE scoring, reference selection, prediction
horizon, and trajectory divergence rate.

The headline score is

    nrmse(y, yhat) = sqrt(sum (y_k - yhat_k)^2) / sqrt(sum (y_k - ybar)^2)

with ``y`` the measured series and ``yhat`` the simulated one. By default
``ybar`` is the mean of the *simulated* series — an unusual normalization,
kept because it is the definition this pipeline standardizes on; the
conventional measured-mean variant is available through ``mean_from``.
A score of 0 is a perfect match; around 1 the simulation does no better
than predicting a constant mean.

Scores are computed with no platform reduction order involved, so repeated
calls are bit-identical. The mean source and the error power are
Neumaier-compensated running sums read off at each window boundary; the
denominator is a compensated Welford sum of squared deviations plus the
shift to the normalizing mean. Each running sum is a few whole-array steps
around ``np.add.accumulate``, which adds strictly left to right: the bits
are those of one sequential loop over the samples, and no pairwise
reduction is used. The full-series score is the one-window case.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .align import CommonGrid, build_common_grid, resample_linear
from .errors import (
    DataError,
    DegenerateDataError,
    DegenerateSeparationError,
    ValidationError,
    _require_float,
    _require_int,
)
from .series import TimeSeries, UniformSeries, _as_array, _require_series


class MeanFrom(enum.Enum):
    """Which series supplies the normalizing mean ``ybar``."""

    SIMULATED = "simulated"
    MEASURED = "measured"


def _check_same_grid(measured: UniformSeries, simulated: UniformSeries,
                     names: tuple[str, str] = ("measured", "simulated")):
    for series, name in zip((measured, simulated), names):
        _require_series(series, name, UniformSeries)
    if len(measured) != len(simulated):
        raise ValidationError(
            f"series lengths differ: {len(measured)} vs {len(simulated)}"
        )
    if measured.t0 != simulated.t0 or measured.dt != simulated.dt:
        raise ValidationError(
            "series are not on the same grid: "
            f"(t0={measured.t0!r}, dt={measured.dt!r}) vs "
            f"(t0={simulated.t0!r}, dt={simulated.dt!r})"
        )


def _running_sum(x: np.ndarray) -> np.ndarray:
    """Neumaier running sums of ``x``: element ``k`` is, bit for bit, the
    compensated sum ``hi + lo`` that a loop adding ``x`` left to right from
    0.0 holds after term ``k``.

    ``np.add.accumulate`` adds strictly left to right, unlike ``np.sum``,
    whose pairwise order would change the bits. Each accumulate starts from
    0.0 as the loop does, and ``prev`` is the loop's ``hi`` before each term.
    """
    hi = np.add.accumulate(np.concatenate(([0.0], x)))
    prev, hi = hi[:-1], hi[1:]
    comp = np.where(np.abs(prev) >= np.abs(x), (prev - hi) + x, (x - hi) + prev)
    return hi + np.add.accumulate(np.concatenate(([0.0], comp)))[1:]


def _window_ends(n: int, k: int) -> np.ndarray:
    """1-based int64 ends of ``k`` growing windows over ``n`` samples."""
    # round(j*n/k) bit for bit while j*n < 2**53 (n <= 94,906,265): one correctly
    # rounded division, then np.rint rounds half to even as Python's round does.
    return np.rint(np.arange(1, k + 1) * n / k).astype(np.int64)


def _prefix_scores(y: Sequence[float], yhat: Sequence[float],
                   ends: Sequence[int], mean_from: MeanFrom,
                   windowed: bool = True) -> np.ndarray:
    """Read-only float64 scores of the prefixes ending at each of ``ends``.

    The mean source and the error power are Neumaier running sums read off
    at each end, so each equals a Neumaier sum of that prefix bit for
    bit. The denominator is ``M2 + n*(ybar_n - m)**2``, where ``M2``
    accumulates the Welford terms ``(y_k - ybar_{k-1})*(y_k - ybar_k)`` with
    compensation and ``ybar_k`` comes from the compensated running sum of
    ``y``; both parts are non-negative, so nothing cancels. Every running sum
    is a sequential array pass (see :func:`_running_sum`), so the bits are
    those of one loop over the samples; the ends are scored in whole-array
    steps. Ends are 1-based, strictly increasing and at most the series
    length; a zero denominator or an overflowing score raises, naming the
    1-based window when ``windowed``.
    """
    if not isinstance(mean_from, MeanFrom):
        raise ValidationError(f"mean_from must be a MeanFrom, got {mean_from!r}")
    from_sim = mean_from is MeanFrom.SIMULATED
    at = np.asarray(ends) - 1
    last = int(at[-1]) + 1
    y = np.asarray(y, dtype=float)[:last]
    yhat = np.asarray(yhat, dtype=float)[:last]
    # Overflow and inf - inf follow IEEE here; the checks below raise.
    with np.errstate(all="ignore"):
        means = _running_sum(y) / np.arange(1.0, last + 1)
        prev = np.concatenate(([0.0], means[:-1]))  # its factor vanishes at k = 1
        dens = _running_sum((y - prev) * (y - means))[at]
        nums = _running_sum(np.square(y - yhat))[at]
        means = means[at]
        ybars = _running_sum(yhat)[at] / (at + 1) if from_sim else means
        if from_sim:
            dens += (at + 1) * ((means - ybars) * (means - ybars))
        # One square root of the ratio rounds twice, not three times; where
        # the ratio overflows or is subnormal, each sum takes its own root.
        # Identical prefixes score 0, even where their spread overflows.
        ratios = nums / dens
        scores = np.where((sys.float_info.min <= ratios) & (ratios < np.inf),
                          np.sqrt(ratios), np.sqrt(nums) / np.sqrt(dens))
        scores[nums == 0.0] = 0.0
    # The first window at fault raises, a zero denominator before a score.
    bad = (dens <= 0.0) | ~np.isfinite(scores)
    if bad.any():
        j = int(bad.argmax())
        window = j + 1 if windowed else None
        where = f" in cumulative window {window}" if windowed else ""
        if dens[j] <= 0.0:
            raise DegenerateDataError(
                f"zero NRMSE denominator{where}: the measured samples' spread about "
                f"the normalizing mean {ybars[j].item()!r} is zero or below double "
                "precision", window=window,
            )
        raise DataError(f"NRMSE{where} is not finite: the samples are too "
                        "large to square in double precision")
    scores.flags.writeable = False
    return scores


def nrmse(measured: UniformSeries, simulated: UniformSeries,
          mean_from: MeanFrom = MeanFrom.SIMULATED) -> float:
    """Full-series NRMSE of ``simulated`` against ``measured``."""
    _check_same_grid(measured, simulated)
    if len(measured) < 2:
        raise ValidationError("nrmse needs at least 2 samples")
    return _prefix_scores(measured.values, simulated.values,
                          (len(measured),), mean_from, windowed=False).item()


@dataclass(frozen=True, eq=False)
class WindowedNrmse:
    """Cumulative-prefix scores: ``scores[j]`` covers samples 1..``boundaries[j]``."""

    samples: int
    scores: np.ndarray
    boundaries: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        scores = _as_array("scores", self.scores)
        if not (scores.size and (scores >= 0.0).all()):
            raise ValidationError("scores must be non-empty and >= 0")
        k = len(scores)
        n = _require_int(self.samples,
                         f"samples must be an integer >= {k}, got {self.samples!r}", k)
        object.__setattr__(self, "samples", n)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "boundaries", tuple(_window_ends(n, k).tolist()))


def cumulative_nrmse(measured: UniformSeries, simulated: UniformSeries,
                     n_windows: int,
                     mean_from: MeanFrom = MeanFrom.SIMULATED) -> WindowedNrmse:
    """NRMSE over ``n_windows`` growing prefixes of the series.

    Prefix ``j`` ends at sample ``round(j*N/n_windows)`` (1-based), and its
    normalizing mean is recomputed over that prefix alone. The final prefix
    is the whole series, so the last score equals :func:`nrmse` bit-exactly —
    both run through the same code path.

    Scores need not be monotone: agreement can transiently improve as phase
    drift rotates back into alignment.
    """
    _check_same_grid(measured, simulated)
    n = len(measured)
    k = _require_int(n_windows,
                     f"n_windows must be an integer >= 1, got {n_windows!r}", 1)
    if k > n:
        raise ValidationError(f"n_windows={k} exceeds series length {n}")
    if n < 2:
        raise ValidationError("cumulative nrmse needs at least 2 samples")
    return WindowedNrmse(n, _prefix_scores(measured.values, simulated.values,
                                           _window_ends(n, k), mean_from))


def select_reference(scores: Mapping[Any, float]) -> Any:
    """Id of the candidate with minimal score.

    Exact ties are broken by the lexicographically smallest id (ids are
    compared as strings, so mixed-type id sets are still well ordered).
    """
    if not scores:
        raise ValidationError("need at least one candidate score")
    checked = {cid: _require_float(s, f"score for {cid!r} must be finite, got {{!r}}")
               for cid, s in scores.items()}
    return min(checked.items(), key=lambda item: (item[1], str(item[0])))[0]


@dataclass(frozen=True)
class HorizonResult:
    """Outcome of a prediction-horizon estimate.

    ``time`` is elapsed time from the start of the grid. When ``exceeded``
    is False no prefix ever crossed the threshold and ``time`` equals the
    full span.
    """

    time: float
    exceeded: bool


def _horizon(windowed: WindowedNrmse, threshold: float,
             measured: UniformSeries) -> HorizonResult:
    above = np.flatnonzero(windowed.scores > threshold)
    if not above.size:
        return HorizonResult(time=measured.span, exceeded=False)
    j = int(above[0])
    time = (windowed.boundaries[j - 1] - 1) * measured.dt if j else 0.0
    return HorizonResult(time=time, exceeded=True)


def prediction_horizon(measured: UniformSeries, simulated: UniformSeries,
                       threshold: float, n_windows: int = 10,
                       mean_from: MeanFrom = MeanFrom.SIMULATED) -> HorizonResult:
    """How long the simulation tracks the measurement within ``threshold``.

    The cumulative-prefix scores are scanned for the first one strictly
    above ``threshold``; the horizon is the elapsed time at the end of the
    prefix just before it (0.0 when the very first prefix exceeds). If no
    prefix exceeds, the horizon is the full span, flagged ``exceeded=False``.
    """
    threshold = _require_float(threshold, "threshold must be > 0, got {!r}",
                               positive=True)
    windowed = cumulative_nrmse(measured, simulated, n_windows, mean_from)
    return _horizon(windowed, threshold, measured)


def divergence_rate(a: UniformSeries, b: UniformSeries,
                    fit_start: int, fit_end: int) -> float:
    """Least-squares slope of ln|a - b| over samples [fit_start, fit_end].

    A finite-time proxy for the largest Lyapunov exponent: positive slope
    means the two trajectories separate exponentially (chaos indicator),
    negative means they converge. Indices are 0-based and inclusive, and the
    range must hold at least 3 samples with strictly nonzero separation, at
    times whose spread is nonzero in double precision.
    The logarithms come from ``math.log``, so the last bits of the slope
    depend on the platform's C math library.
    """
    _check_same_grid(a, b, ("a", "b"))
    start = _require_int(fit_start, "fit indices must be integers")
    end = _require_int(fit_end, "fit indices must be integers")
    if start < 0 or end >= len(a):
        raise ValidationError(
            f"fit range [{start}, {end}] outside series [0, {len(a) - 1}]"
        )
    if end - start < 2:
        raise ValidationError(
            f"fit range [{start}, {end}] too short: need at least 3 samples"
        )
    diffs = (a.values[start:end + 1] - b.values[start:end + 1]).tolist()
    logs = []
    for k, d in enumerate(diffs, start):
        if d == 0.0:
            raise DegenerateSeparationError(k)
        logs.append(math.log(abs(d)))
    times = a.times()[start:end + 1].tolist()
    n = len(times)
    t_mean = math.fsum(times) / n
    l_mean = math.fsum(logs) / n
    cov = math.fsum((times[i] - t_mean) * (logs[i] - l_mean) for i in range(n))
    var = math.fsum((times[i] - t_mean) * (times[i] - t_mean) for i in range(n))
    if var == 0.0:
        raise DataError(f"fit range [{start}, {end}] has times with no spread "
                        "in double precision: the slope is undefined")
    return cov / var


# ---------------------------------------------------------------------------
# Whole-comparison assembly: align every trace onto one grid, score each
# candidate, select the reference.

@dataclass(frozen=True)
class CandidateScore:
    """All scores of one candidate trace against the measured trace."""

    id: str
    windowed: WindowedNrmse
    horizon: HorizonResult | None = None

    @property
    def full_nrmse(self) -> float:
        """The whole-series score: the last prefix of the profile."""
        return self.windowed.scores[-1].item()


@dataclass(frozen=True)
class ComparisonReport:
    """A full cross-candidate comparison on one common grid; the reference
    and the window count are read off the candidates' profiles."""

    grid: CommonGrid
    mean_from: MeanFrom
    candidates: tuple[CandidateScore, ...]
    reference_id: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "reference_id", select_reference(
            {c.id: c.full_nrmse for c in self.candidates}))

    @property
    def n_windows(self) -> int:
        return len(self.candidates[0].windowed.scores)

    def candidate(self, cid: str) -> CandidateScore:
        for c in self.candidates:
            if c.id == cid:
                return c
        raise ValidationError(f"no candidate named {cid!r}")


def build_comparison(measured: TimeSeries,
                     candidates: Mapping[str, TimeSeries],
                     grid_points: int = 4700,
                     n_windows: int = 10,
                     mean_from: MeanFrom = MeanFrom.SIMULATED,
                     threshold: float | None = None) -> ComparisonReport:
    """Score every candidate trace against the measured one.

    All traces are resampled onto the common grid of their domain
    intersection with ``grid_points`` samples; each candidate gets a full
    NRMSE and an ``n_windows``-prefix cumulative profile, plus a prediction
    horizon read off that same profile when ``threshold`` is given, so each
    candidate is scored once. Candidates are scored in sorted-id
    order (scoring is pure, so order only affects the report layout).
    """
    if not candidates:
        raise ValidationError("need at least one candidate trace")
    if threshold is not None:
        threshold = _require_float(threshold, "threshold must be > 0, got {!r}",
                                   positive=True)
    grid_points = _require_int(
        grid_points, f"grid_points must be an integer >= 2, got {grid_points!r}", 2)
    _require_series(measured, "measured", TimeSeries)
    for cid, trace in candidates.items():
        _require_series(trace, f"candidates[{cid!r}]", TimeSeries)
    grid = build_common_grid([measured, *candidates.values()], grid_points)
    m = resample_linear(measured, grid)
    scored = []
    for cid in sorted(candidates):
        sim = resample_linear(candidates[cid], grid)
        windowed = cumulative_nrmse(m, sim, n_windows, mean_from)
        horizon = None
        if threshold is not None:
            horizon = _horizon(windowed, threshold, m)
        scored.append(CandidateScore(id=cid, windowed=windowed, horizon=horizon))
    return ComparisonReport(grid=grid, mean_from=mean_from,
                            candidates=tuple(scored))
