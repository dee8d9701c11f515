"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np
import pytest

import jerklab
from jerklab.errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    IntegrationOverflowError,
    ParseError,
)
from jerklab.integrate import (
    RK45_MAX_FACTOR,
    RK45_MIN_FACTOR,
    RK45_SAFETY,
    IntegratorConfig,
    JerkParams,
    Method,
    SimulationResult,
    _channels,
    _finite3,
    simulate,
)
from jerklab.metrics import MeanFrom
from jerklab.series import SeriesMeta, TimeSeries, UniformSeries


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a child process that imports this jerklab."""
    src = str(Path(jerklab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


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


def reference_prefix_scores(y: Sequence[float], yhat: Sequence[float],
                            boundaries: Sequence[int], mean_from: MeanFrom,
                            windowed: bool = True) -> list[float]:
    """The package's scorer as one Python loop over the samples, frozen.

    This is ``metrics._prefix_scores`` as it stood before the running sums
    became array passes, kept unchanged as the reference those passes must
    equal bit for bit: same scores, or the same error, message and window.
    """
    from_sim = mean_from is MeanFrom.SIMULATED
    scores = []
    ends = iter(boundaries)
    end = next(ends)
    s_hi = s_lo = 0.0  # sum of y
    h_hi = h_lo = 0.0  # sum of yhat
    e_hi = e_lo = 0.0  # sum of (y - yhat)**2
    q_hi = q_lo = 0.0  # M2 of y
    prev = 0.0  # ybar_{k-1}; its factor vanishes at k = 1
    n = 0
    for yk, hk in zip(y, yhat):
        n += 1
        t = s_hi + yk
        if abs(s_hi) >= abs(yk):
            s_lo += (s_hi - t) + yk
        else:
            s_lo += (yk - t) + s_hi
        s_hi = t
        t = h_hi + hk
        if abs(h_hi) >= abs(hk):
            h_lo += (h_hi - t) + hk
        else:
            h_lo += (hk - t) + h_hi
        h_hi = t
        d = yk - hk
        v = d * d
        t = e_hi + v
        if e_hi >= v:
            e_lo += (e_hi - t) + v
        else:
            e_lo += (v - t) + e_hi
        e_hi = t
        mean = (s_hi + s_lo) / n
        v = (yk - prev) * (yk - mean)
        prev = mean
        t = q_hi + v
        if abs(q_hi) >= abs(v):
            q_lo += (q_hi - t) + v
        else:
            q_lo += (v - t) + q_hi
        q_hi = t
        if n != end:
            continue
        den = q_hi + q_lo
        if from_sim:
            ybar = (h_hi + h_lo) / n
            den += n * ((mean - ybar) * (mean - ybar))
        else:
            ybar = mean
        window = len(scores) + 1 if windowed else None
        where = f" in cumulative window {window}" if windowed else ""
        if den <= 0.0:
            raise DegenerateDataError(
                f"zero NRMSE denominator{where}: the measured samples' spread about "
                f"the normalizing mean {ybar!r} is zero or below double precision",
                window=window,
            )
        num = e_hi + e_lo
        # One square root of the ratio rounds twice, not three times; where
        # the ratio overflows or is subnormal, each sum takes its own root.
        # Identical prefixes score 0, even where their spread overflows.
        ratio = num / den
        if not num:
            score = 0.0
        elif sys.float_info.min <= ratio < math.inf:
            score = math.sqrt(ratio)
        else:
            score = math.sqrt(num) / math.sqrt(den)
        if not math.isfinite(score):
            raise DataError(f"NRMSE{where} is not finite: the samples are too "
                            "large to square in double precision")
        scores.append(score)
        end = next(ends, None)
        if end is None:
            break
    return scores


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


@pytest.fixture
def forks(monkeypatch) -> list:
    """One item per ``os.fork`` call, such as the split trace read makes."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


#: The model with its quadratic coefficient set to 0: the linear subsystem
#: x''' = -a*x'' - x, whose closed-form solution the accuracy tests compare
#: the integrators against. ``JerkParams`` admits only the signs -1 and +1, so
#: this test-only stand-in carries just the two attributes ``simulate`` reads.
LINEAR_PARAMS = SimpleNamespace(a=2.03, sign=SimpleNamespace(value=0.0))


def simulation_bits(res: SimulationResult) -> bytes:
    return np.concatenate([res.x.values, res.xd.values, res.xdd.values]).tobytes()


def simulate_linear(config: IntegratorConfig) -> SimulationResult:
    """``simulate`` under :data:`LINEAR_PARAMS`, checked to give other bits
    than the same config under ``JerkParams(a=2.03)``, so the zero quadratic
    coefficient is known to reach the kernel."""
    res = simulate(config, LINEAR_PARAMS)
    full = simulate(config, JerkParams(a=LINEAR_PARAMS.a))
    assert simulation_bits(res) != simulation_bits(full), "quadratic term still on"
    return res


# The package's former trace reader, kept as the reference for the one-pass
# reader: every row is checked as it is read, so the first fault in file
# order is the one reported. Takes text only (decoding is not its concern).


class _CsvLayout(NamedTuple):
    """The former reader's default column layout, the one csv files have."""

    time_column: int = 0
    value_column: int = 1
    delimiter: str = ","
    header: bool = True


def _numbered_lines(text: str):
    # splitlines handles LF and CRLF alike; blank lines (commonly a trailing
    # newline artifact) are skipped but keep their physical numbering.
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield number, line


def _parse_rows(numbered, time_col: int, value_col: int, delimiter: str,
                meta: SeriesMeta) -> TimeSeries:
    need = max(time_col, value_col) + 1
    times: list[float] = []
    values: list[float] = []
    last_line = 0
    for number, line in numbered:
        last_line = number
        fields = line.split(delimiter)
        if len(fields) < need:
            raise ParseError(
                number, f"expected at least {need} fields, found {len(fields)}"
            )
        row = []
        for col in (time_col, value_col):
            text = fields[col].strip()
            try:
                val = float(text)
            except ValueError:
                raise ParseError(number, f"not a number: {text!r}") from None
            if not math.isfinite(val):
                raise ParseError(number, f"non-finite value: {text!r}")
            row.append(val)
        t, v = row
        if times and t <= times[-1]:
            raise ParseError(
                number,
                f"time not strictly increasing: {t!r} after {times[-1]!r}",
            )
        times.append(t)
        values.append(v)
    if len(times) < 2:
        raise InsufficientDataError(max(last_line, 1), len(times))
    return TimeSeries(t=times, v=values, meta=meta)


def reference_trace_csv(text: str, options: _CsvLayout = _CsvLayout(),
                        source_id: str = "") -> TimeSeries:
    numbered = _numbered_lines(text)
    signal = ""
    if options.header:
        try:
            _, header_line = next(numbered)
        except StopIteration:
            raise InsufficientDataError(1, 0) from None
        fields = header_line.split(options.delimiter)
        if options.value_column < len(fields):
            signal = fields[options.value_column].strip()
    meta = SeriesMeta(source_id=source_id, signal=signal)
    return _parse_rows(numbered, options.time_column, options.value_column,
                       options.delimiter, meta)


def reference_spice_export(text: str, source_id: str = "") -> TimeSeries:
    numbered = _numbered_lines(text)
    try:
        header_number, header_line = next(numbered)
    except StopIteration:
        raise ParseError(1, "missing header line") from None
    fields = [f.strip() for f in header_line.split("\t")]
    time_col = next(
        (i for i, f in enumerate(fields) if f.lower() == "time"), None
    )
    if time_col is None:
        raise ParseError(header_number, f"no 'time' column in header {fields!r}")
    value_col = next(
        (i for i in range(len(fields)) if i != time_col), None
    )
    if value_col is None:
        raise ParseError(header_number, "header has a time column but no value column")
    meta = SeriesMeta(source_id=source_id, signal=fields[value_col])
    return _parse_rows(numbered, time_col, value_col, "\t", meta)


# The package's former simulation drivers, kept as the reference for the
# generator drivers: the fixed-step driver keeps a state list, the adaptive
# one collects the accepted steps as knots and interpolates them onto the
# grid after the loop (or, on escape, onto the grid times it had reached).
# They step with the package's former kernels, frozen here as well: one
# substep per call, Dormand-Prince stages summed from the tableau rows, and
# the former two-statement right-hand side with its switch for the quadratic
# term, always on here, so the package's one-expression kernel is checked
# against it bit for bit.
# The former stages summed with the builtin sum(), which is compensated from
# Python 3.12 on; _sum_from_zero is the plain left-to-right sum from the
# integer 0 that sum() computes up to 3.11, so the reference gives the same
# bits on every Python version, as do the package's hand-written stages.

_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def _sum_from_zero(terms):
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _rhs(x, xd, xdd, a, sf, quad):
    jerk = -(a * xdd) - x
    if quad:
        jerk += sf * (xd * xd)
    return xd, xdd, jerk


def _euler(x, xd, xdd, h, a, sf):
    d = _rhs(x, xd, xdd, a, sf, True)
    return x + h * d[0], xd + h * d[1], xdd + h * d[2]


def _rk4(x, xd, xdd, h, a, sf):
    k1 = _rhs(x, xd, xdd, a, sf, True)
    k2 = _rhs(x + 0.5 * h * k1[0], xd + 0.5 * h * k1[1], xdd + 0.5 * h * k1[2],
              a, sf, True)
    k3 = _rhs(x + 0.5 * h * k2[0], xd + 0.5 * h * k2[1], xdd + 0.5 * h * k2[2],
              a, sf, True)
    k4 = _rhs(x + h * k3[0], xd + h * k3[1], xdd + h * k3[2], a, sf, True)
    return (
        x + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0,
        xd + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0,
        xdd + h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]) / 6.0,
    )


def reference_simulate(config: IntegratorConfig,
                       params: JerkParams = JerkParams()) -> SimulationResult:
    if config.method is Method.RK45:
        return _simulate_rk45(config, params)
    return _simulate_fixed(config, params)


def _simulate_fixed(config: IntegratorConfig, params: JerkParams) -> SimulationResult:
    p = config.output_points
    dt_out = (config.t_end - config.t_start) / (p - 1)
    # Integer substep count per output interval; the 1e-12 slack keeps a
    # dt_out that is an exact multiple of the step from gaining a spare
    # substep through rounding.
    n_sub = max(1, math.ceil(dt_out / config.step - 1.0e-12))
    h = dt_out / n_sub
    kernel = _euler if config.method is Method.EULER else _rk4
    a, sf = params.a, params.sign.value

    s = config.initial_state.as_tuple()
    states = [s]
    for k in range(1, p):
        base = config.t_start + (k - 1) * dt_out
        for i in range(n_sub):
            s = kernel(s[0], s[1], s[2], h, a, sf)
            if not _finite3(s):
                raise IntegrationOverflowError(
                    "integration diverged to non-finite values",
                    last_valid_time=base + i * h,
                    partial=_channels(config, dt_out, states),
                )
        states.append(s)
    return SimulationResult(*_channels(config, dt_out, states))


def _simulate_rk45(config: IntegratorConfig, params: JerkParams) -> SimulationResult:
    a, sf = params.a, params.sign.value
    t_end = config.t_end
    p = config.output_points
    dt_out = (t_end - config.t_start) / (p - 1)

    knot_t = [config.t_start]
    knot_y = [config.initial_state.as_tuple()]

    def dense_partial(upto_t):
        count = 1
        while count < p and config.t_start + count * dt_out <= upto_t:
            count += 1
        return _channels(
            config, dt_out, _dense(knot_t, knot_y, config.t_start, dt_out, count)
        )

    t = config.t_start
    y = knot_y[0]
    h = min(config.step, t_end - t)
    while t < t_end:
        remaining = t_end - t
        last = h >= remaining
        h_eff = remaining if last else h

        ks = [_rhs(y[0], y[1], y[2], a, sf, True)]
        overflow = not _finite3(ks[0])
        if not overflow:
            for row in _DP_A:
                yi = tuple(
                    y[c] + h_eff * _sum_from_zero(row[j] * ks[j][c]
                                                  for j in range(len(row)))
                    for c in range(3)
                )
                if not _finite3(yi):
                    overflow = True
                    break
                ks.append(_rhs(yi[0], yi[1], yi[2], a, sf, True))
        if overflow:
            raise IntegrationOverflowError(
                "integration diverged to non-finite values",
                last_valid_time=t,
                partial=dense_partial(t),
            )

        y5 = tuple(
            y[c] + h_eff * _sum_from_zero(_DP_B5[j] * ks[j][c] for j in range(7))
            for c in range(3)
        )
        y4 = tuple(
            y[c] + h_eff * _sum_from_zero(_DP_B4[j] * ks[j][c] for j in range(7))
            for c in range(3)
        )
        if not _finite3(y5) or not _finite3(y4):
            raise IntegrationOverflowError(
                "integration diverged to non-finite values",
                last_valid_time=t,
                partial=dense_partial(t),
            )
        acc = 0.0
        for c in range(3):
            scale = config.abs_tol + config.rel_tol * max(abs(y[c]), abs(y5[c]))
            ratio = (y5[c] - y4[c]) / scale
            acc += ratio * ratio
        err_norm = math.sqrt(acc / 3.0)

        if err_norm <= 1.0:
            t = t_end if last else t + h_eff
            y = y5
            knot_t.append(t)
            knot_y.append(y)

        if err_norm == 0.0:
            factor = RK45_MAX_FACTOR
        else:
            factor = RK45_SAFETY * err_norm ** -0.2
            factor = min(RK45_MAX_FACTOR, max(RK45_MIN_FACTOR, factor))
        h = h_eff * factor
        if h < 1.0e-14 * max(1.0, abs(t)):
            raise IntegrationOverflowError(
                "adaptive step size collapsed (trajectory is blowing up "
                "faster than the tolerance can follow)",
                last_valid_time=t,
                partial=dense_partial(t),
            )

    states = _dense(knot_t, knot_y, config.t_start, dt_out, p)
    return SimulationResult(*_channels(config, dt_out, states))


def _dense(knot_t, knot_y, t0, dt_out, count):
    """Linear interpolation of accepted steps onto the first ``count`` grid points."""
    states = []
    j = 0
    last = len(knot_t) - 1
    for k in range(count):
        tq = t0 + k * dt_out
        while j < last - 1 and knot_t[j + 1] <= tq:
            j += 1
        ta, tb = knot_t[j], knot_t[j + 1] if j < last else knot_t[j]
        if j >= last or tq <= ta:
            states.append(knot_y[j])
            continue
        if tq >= tb:
            states.append(knot_y[j + 1])
            continue
        w = (tq - ta) / (tb - ta)
        ya, yb = knot_y[j], knot_y[j + 1]
        states.append((ya[0] + w * (yb[0] - ya[0]), ya[1] + w * (yb[1] - ya[1]),
                       ya[2] + w * (yb[2] - ya[2])))
    return states
