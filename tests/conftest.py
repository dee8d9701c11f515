"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from jerklab.metrics import MeanFrom
from jerklab.series import SeriesMeta, TimeSeries, UniformSeries


def mk_uniform(values, t0=0.0, dt=1.0, **meta) -> UniformSeries:
    return UniformSeries(t0=t0, dt=dt, values=values,
                         meta=SeriesMeta(**meta))


def mk_ts(t, v, **meta) -> TimeSeries:
    return TimeSeries(t=t, v=v, meta=SeriesMeta(**meta))


def oracle_nrmse(y, yhat, mean_src=None) -> float:
    """Independent NRMSE arithmetic (numpy pairwise reductions).

    ``mean_src`` defaults to the simulated series, matching the package's
    default normalization.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if mean_src is None:
        mean_src = yhat
    ybar = np.mean(np.asarray(mean_src, dtype=np.float64))
    return float(np.sqrt(np.sum((y - yhat) ** 2)) / np.sqrt(np.sum((y - ybar) ** 2)))


def compensated_sum(values) -> float:
    """Neumaier-compensated sequential sum over an iterable of floats."""
    total = 0.0
    carry = 0.0
    for v in values:
        s = total + v
        if abs(total) >= abs(v):
            carry += (total - s) + v
        else:
            carry += (v - s) + total
        total = s
    return total + carry


def two_pass_nrmse(y, yhat, n, mean_from=MeanFrom.SIMULATED) -> float:
    """Reference score of the prefix ``[:n]``, re-summed from sample 0.

    The package's former per-prefix scorer: one compensated pass for the
    normalizing mean, then compensated sums of the error power and of the
    squared deviations about that mean. O(n) per prefix, so O(K*N) for a
    whole profile; kept as the oracle for the single-pass scorer.
    """
    mean_src = yhat if mean_from is MeanFrom.SIMULATED else y
    ybar = compensated_sum(mean_src[k] for k in range(n)) / n
    num = compensated_sum((y[k] - yhat[k]) * (y[k] - yhat[k]) for k in range(n))
    den = compensated_sum((y[k] - ybar) * (y[k] - ybar) for k in range(n))
    return math.sqrt(num) / math.sqrt(den)


def random_series_pair(rng: random.Random, n=None):
    """A (measured, simulated) pair of same-grid series with generic values."""
    if n is None:
        n = rng.randint(2, 60)
    t0 = rng.uniform(-5.0, 5.0)
    dt = 10.0 ** rng.uniform(-3, 1)
    y = [rng.gauss(0.0, 1.0) for _ in range(n)]
    yhat = [v + rng.gauss(0.0, 0.5) for v in y]
    if all(v == y[0] for v in y):  # pragma: no cover - vanishing probability
        y[0] += 1.0
    return (mk_uniform(y, t0=t0, dt=dt), mk_uniform(yhat, t0=t0, dt=dt))


def assert_bit_equal(a: float, b: float, context: str = ""):
    assert math.copysign(1.0, a) == math.copysign(1.0, b) and a == b, (
        f"{context}: {a!r} != {b!r} (bitwise)"
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260822)
