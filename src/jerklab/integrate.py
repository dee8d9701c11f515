"""Deterministic integration of the jerk system onto uniform output grids.

Design rules that make runs exactly repeatable:

* every kernel evaluates its stages in one fixed, documented order;
* output timestamps are always computed as ``t0 + k*dt`` (one multiplication,
  never accumulated addition);
* a single integration is strictly sequential — no reductions whose order
  could vary between runs.

Fixed-step methods honor the requested step as a *ceiling*: each output
interval of width ``dt_out`` is covered by ``ceil(dt_out / step)`` equal
substeps, so every emitted sample is an actual solver state (no interpolation)
and the effective step never exceeds the requested one. One kernel call
advances a whole interval, whose end state is checked once: each new component
is ``s + (...)``, so a non-finite one never turns finite again. A failed
interval is replayed one substep at a time to find its last finite substep.
The Euler and RK4 kernels evaluate the jerk inline at each stage, in the
operation order of :func:`~jerklab.core._rhs`, so a substep makes no call
and builds no tuple.

The adaptive method (Dormand–Prince 4(5), first same as last: six right-hand
side evaluations per attempted step) uses the requested step as the initial
trial step and interpolates each step linearly onto the grid times it covers
as soon as it is accepted (a grid time on a step end takes that state
exactly); higher-order dense output is deliberately out of scope.

Each method yields its grid states in order and :func:`simulate` collects
them. Blow-up is never masked: the run aborts with
:class:`~jerklab.errors.IntegrationOverflowError` carrying the last finite
time and, as ``partial``, a :class:`SimulationResult` of the grid samples up
to that time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import DEFAULT_INITIAL_STATE, JerkParams, SystemState, _rhs
from .errors import (IntegrationOverflowError, ValidationError, _require_float,
                     _require_int, _require_member)
from .series import SeriesMeta, UniformSeries

#: Adaptive-step controller constants (classical values).
RK45_SAFETY = 0.9
RK45_MIN_FACTOR = 0.2
RK45_MAX_FACTOR = 5.0
#: Default absolute and relative tolerance, the only ones euler and rk4 accept.
RK45_TOL = 1.0e-9

class Method(enum.Enum):
    EULER = "euler"
    RK4 = "rk4"
    RK45 = "rk45"

    @classmethod
    def parse(cls, text: str) -> "Method":
        return _require_member(cls, text, "method must be one of euler, rk4, rk45; got {!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """One integration request.

    ``step`` is the fixed-step ceiling for Euler/RK4 and the initial trial
    step for RK45; ``abs_tol``/``rel_tol`` apply to RK45 only, and Euler and
    RK4 refuse any value but :data:`RK45_TOL`.
    """

    method: Method = Method.RK4
    t_start: float = 0.0
    t_end: float = 100.0
    step: float = 1.0e-3
    abs_tol: float = RK45_TOL
    rel_tol: float = RK45_TOL
    initial_state: SystemState = DEFAULT_INITIAL_STATE
    output_points: int = 4700

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise ValidationError(f"method must be a Method, got {self.method!r}")
        for name in ("t_start", "t_end", "step", "abs_tol", "rel_tol"):
            object.__setattr__(self, name, _require_float(
                getattr(self, name), f"{name} must be finite, got {{!r}}"))
        if self.t_end <= self.t_start:
            raise ValidationError(
                f"t_end must exceed t_start, got [{self.t_start!r}, {self.t_end!r}]"
            )
        if self.step <= 0.0:
            raise ValidationError(f"step must be > 0, got {self.step!r}")
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValidationError("tolerances must be > 0")
        if self.method is not Method.RK45 and {self.abs_tol, self.rel_tol} != {RK45_TOL}:
            raise ValidationError(f"{self.method.value} reads neither abs_tol nor "
                                  "rel_tol; they apply to rk45 only")
        if not isinstance(self.initial_state, SystemState):
            raise ValidationError(
                f"initial_state must be a SystemState, got {self.initial_state!r}"
            )
        points = _require_int(self.output_points, "output_points must be an "
                              f"integer >= 2, got {self.output_points!r}", 2)
        object.__setattr__(self, "output_points", points)


@dataclass(frozen=True)
class SimulationResult:
    """The three state channels of one run, on a shared uniform grid."""

    x: UniformSeries
    xd: UniformSeries
    xdd: UniformSeries


# ---------------------------------------------------------------------------
# Step kernels: n substeps per call on bare floats, so the fixed-step loop pays
# one call per output interval and no containers. Each stage writes out the
# jerk of core._rhs, -(a * xdd) - x + sf * (xd * xd), in its operation order,
# as na * xdd - x + sf * (xd * xd) with na = -a taken once per call: IEEE 754
# rounding to nearest is symmetric, so (-a) * xdd is -(a * xdd) bit for bit
# (for an array a too, elementwise). The derivatives of x and xd are the
# stage's xd and xdd themselves. The tests pin both kernels to textbook steps
# built from core._rhs, bit for bit. Stage order is fixed; changing it changes
# last-ulp results.

def _euler(x, xd, xdd, h, a, sf, n):
    na = -a
    for _ in range(n):
        x, xd, xdd = (x + h * xd, xd + h * xdd,
                      xdd + h * (na * xdd - x + sf * (xd * xd)))
    return x, xd, xdd


def _rk4(x, xd, xdd, h, a, sf, n):
    hh = 0.5 * h  # x + 0.5*h*k parses as x + (0.5*h)*k
    na = -a
    for _ in range(n):
        r1 = na * xdd - x + sf * (xd * xd)
        x2 = x + hh * xd
        xd2 = xd + hh * xdd
        xdd2 = xdd + hh * r1
        r2 = na * xdd2 - x2 + sf * (xd2 * xd2)
        x3 = x + hh * xd2
        xd3 = xd + hh * xdd2
        xdd3 = xdd + hh * r2
        r3 = na * xdd3 - x3 + sf * (xd3 * xd3)
        x4 = x + h * xd3
        xd4 = xd + h * xdd3
        xdd4 = xdd + h * r3
        r4 = na * xdd4 - x4 + sf * (xd4 * xd4)
        x, xd, xdd = (x + h * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4) / 6.0,
                      xd + h * (xdd + 2.0 * xdd2 + 2.0 * xdd3 + xdd4) / 6.0,
                      xdd + h * (r1 + 2.0 * r2 + 2.0 * r3 + r4) / 6.0)
    return x, xd, xdd


def _finite3(s) -> bool:
    return math.isfinite(s[0]) and math.isfinite(s[1]) and math.isfinite(s[2])


# ---------------------------------------------------------------------------

def _channels(config: IntegratorConfig, dt_out: float, states) -> SimulationResult:
    """The x, xd and xdd channels of ``states`` as series on the output grid."""
    source = config.method.value
    cells = np.fromiter(chain.from_iterable(states), np.float64, 3 * len(states))
    return SimulationResult(*(
        UniformSeries(
            t0=config.t_start, dt=dt_out, values=vals,
            meta=SeriesMeta(source_id=source, signal=name),
        )
        for vals, name in zip(cells.reshape(-1, 3).T, ("x", "xd", "xdd"))
    ))


def _fixed_states(config: IntegratorConfig, a: float, sf: float, dt_out: float):
    """Euler/RK4 states on the output grid, each one an actual solver state."""
    # Integer substep count per output interval; the 1e-12 slack keeps a
    # dt_out that is an exact multiple of the step from gaining a spare
    # substep through rounding. Past 2**53 substeps i*h is no longer exact
    # for every index i (and the run could not finish); inf and nan fail too.
    ratio = dt_out / config.step
    if not ratio <= 2.0 ** 53:
        raise ValidationError(f"step {config.step!r} is too small for the "
                              f"output interval {dt_out!r}")
    n_sub = max(1, math.ceil(ratio - 1.0e-12))
    h = dt_out / n_sub
    kernel = _euler if config.method is Method.EULER else _rk4

    s = config.initial_state.as_tuple()
    yield s
    for k in range(1, config.output_points):
        out = kernel(s[0], s[1], s[2], h, a, sf, n_sub)
        if not _finite3(out):
            # Replay: n substeps in one call are n single calls, bit for bit.
            base = config.t_start + (k - 1) * dt_out
            for i in range(n_sub):
                s = kernel(s[0], s[1], s[2], h, a, sf, 1)
                if not _finite3(s):
                    raise IntegrationOverflowError(
                        "integration diverged to non-finite values",
                        last_valid_time=base + i * h)
        s = out
        yield s


def _rk45_states(config: IntegratorConfig, a: float, sf: float, dt_out: float):
    """Dormand–Prince states on the output grid, interpolated step by step."""
    t0, t_end, p = config.t_start, config.t_end, config.output_points
    t, y = t0, config.initial_state.as_tuple()
    k = 0
    while k < p and t0 + k * dt_out <= t:  # grid times that round to t0
        yield y
        k += 1
    h = min(config.step, t_end - t)
    p1, q1, r1 = _rhs(y[0], y[1], y[2], a, sf)
    while t < t_end:
        remaining = t_end - t
        last = h >= remaining
        h_eff = remaining if last else h

        # Dormand–Prince 4(5) stage inputs y + h*(a_i1*k1 + ... + a_ij*kj), summed
        # left to right with zero weights kept; y5 propagates, y4 only estimates
        # the error. First same as last: k7 = f(y5) is the next k1, so an attempt
        # costs six evaluations and a rejected one keeps its k1.
        x, xd, xdd = y
        p2, q2, r2 = _rhs(x + h_eff * (0.2 * p1), xd + h_eff * (0.2 * q1),
                          xdd + h_eff * (0.2 * r1), a, sf)
        p3, q3, r3 = _rhs(x + h_eff * (3.0 / 40.0 * p1 + 9.0 / 40.0 * p2),
                          xd + h_eff * (3.0 / 40.0 * q1 + 9.0 / 40.0 * q2),
                          xdd + h_eff * (3.0 / 40.0 * r1 + 9.0 / 40.0 * r2), a, sf)
        p4, q4, r4 = _rhs(
            x + h_eff * (44.0 / 45.0 * p1 - 56.0 / 15.0 * p2 + 32.0 / 9.0 * p3),
            xd + h_eff * (44.0 / 45.0 * q1 - 56.0 / 15.0 * q2 + 32.0 / 9.0 * q3),
            xdd + h_eff * (44.0 / 45.0 * r1 - 56.0 / 15.0 * r2 + 32.0 / 9.0 * r3),
            a, sf)
        p5, q5, r5 = _rhs(
            x + h_eff * (19372.0 / 6561.0 * p1 - 25360.0 / 2187.0 * p2
                         + 64448.0 / 6561.0 * p3 - 212.0 / 729.0 * p4),
            xd + h_eff * (19372.0 / 6561.0 * q1 - 25360.0 / 2187.0 * q2
                          + 64448.0 / 6561.0 * q3 - 212.0 / 729.0 * q4),
            xdd + h_eff * (19372.0 / 6561.0 * r1 - 25360.0 / 2187.0 * r2
                           + 64448.0 / 6561.0 * r3 - 212.0 / 729.0 * r4),
            a, sf)
        p6, q6, r6 = _rhs(
            x + h_eff * (9017.0 / 3168.0 * p1 - 355.0 / 33.0 * p2 + 46732.0 / 5247.0 * p3
                         + 49.0 / 176.0 * p4 - 5103.0 / 18656.0 * p5),
            xd + h_eff * (9017.0 / 3168.0 * q1 - 355.0 / 33.0 * q2 + 46732.0 / 5247.0 * q3
                          + 49.0 / 176.0 * q4 - 5103.0 / 18656.0 * q5),
            xdd + h_eff * (9017.0 / 3168.0 * r1 - 355.0 / 33.0 * r2
                           + 46732.0 / 5247.0 * r3 + 49.0 / 176.0 * r4
                           - 5103.0 / 18656.0 * r5),
            a, sf)
        y5 = (x + h_eff * (35.0 / 384.0 * p1 + 0.0 * p2 + 500.0 / 1113.0 * p3
                           + 125.0 / 192.0 * p4 - 2187.0 / 6784.0 * p5 + 11.0 / 84.0 * p6),
              xd + h_eff * (35.0 / 384.0 * q1 + 0.0 * q2 + 500.0 / 1113.0 * q3
                            + 125.0 / 192.0 * q4 - 2187.0 / 6784.0 * q5 + 11.0 / 84.0 * q6),
              xdd + h_eff * (35.0 / 384.0 * r1 + 0.0 * r2 + 500.0 / 1113.0 * r3
                             + 125.0 / 192.0 * r4 - 2187.0 / 6784.0 * r5
                             + 11.0 / 84.0 * r6))
        p7, q7, r7 = _rhs(y5[0], y5[1], y5[2], a, sf)
        y4 = (x + h_eff * (5179.0 / 57600.0 * p1 + 0.0 * p2 + 7571.0 / 16695.0 * p3
                           + 393.0 / 640.0 * p4 - 92097.0 / 339200.0 * p5
                           + 187.0 / 2100.0 * p6 + 1.0 / 40.0 * p7),
              xd + h_eff * (5179.0 / 57600.0 * q1 + 0.0 * q2 + 7571.0 / 16695.0 * q3
                            + 393.0 / 640.0 * q4 - 92097.0 / 339200.0 * q5
                            + 187.0 / 2100.0 * q6 + 1.0 / 40.0 * q7),
              xdd + h_eff * (5179.0 / 57600.0 * r1 + 0.0 * r2 + 7571.0 / 16695.0 * r3
                             + 393.0 / 640.0 * r4 - 92097.0 / 339200.0 * r5
                             + 187.0 / 2100.0 * r6 + 1.0 / 40.0 * r7))
        # A non-finite stage input gives a non-finite stage, and every weight
        # (zero ones too: 0*inf is nan) multiplies every stage in y4, and
        # every stage but k7 = f(y5) in y5.
        if not _finite3(y5) or not _finite3(y4):
            raise IntegrationOverflowError(
                "integration diverged to non-finite values", last_valid_time=t)
        acc = 0.0
        for c in range(3):
            scale = config.abs_tol + config.rel_tol * max(abs(y[c]), abs(y5[c]))
            ratio = (y5[c] - y4[c]) / scale
            acc += ratio * ratio
        err_norm = math.sqrt(acc / 3.0)

        if err_norm <= 1.0:
            ta, ya = t, y
            t = t_end if last else t + h_eff
            y = y5
            p1, q1, r1 = p7, q7, r7
            # The grid times in (ta, t], interpolated linearly; one on t
            # itself takes y exactly.
            while k < p and (tq := t0 + k * dt_out) <= t:
                if tq == t:
                    yield y
                else:
                    w = (tq - ta) / (t - ta)
                    yield (ya[0] + w * (y[0] - ya[0]), ya[1] + w * (y[1] - ya[1]),
                           ya[2] + w * (y[2] - ya[2]))
                k += 1

        if err_norm == 0.0:
            factor = RK45_MAX_FACTOR
        else:
            factor = RK45_SAFETY * err_norm ** -0.2
            factor = min(RK45_MAX_FACTOR, max(RK45_MIN_FACTOR, factor))
        h = h_eff * factor
        if h < 1.0e-14 * max(1.0, abs(t)):
            raise IntegrationOverflowError(
                "adaptive step size collapsed (trajectory is blowing up "
                "faster than the tolerance can follow)", last_valid_time=t)
    # Grid times that round past t_end take the final state.
    for _ in range(k, p):
        yield y


def simulate(config: IntegratorConfig, params: JerkParams | None = None,
             ) -> SimulationResult:
    """Integrate the jerk system and emit exactly ``output_points`` samples.

    The output grid spans [t_start, t_end] inclusive of both endpoints.
    Repeated calls with identical inputs produce bit-identical results.
    ``params`` is read once, for ``a`` and ``sign.value``; an object without
    them raises :class:`~jerklab.errors.ValidationError`.
    """
    params = JerkParams() if params is None else params
    try:
        a, sf = params.a, params.sign.value
    except AttributeError:
        raise ValidationError(f"params must be a JerkParams, got {params!r}") from None
    dt_out = (config.t_end - config.t_start) / (config.output_points - 1)
    run = _rk45_states if config.method is Method.RK45 else _fixed_states
    states = []
    try:
        for s in run(config, a, sf, dt_out):
            states.append(s)
    except IntegrationOverflowError as exc:
        exc.partial = _channels(config, dt_out, states)
        raise
    return _channels(config, dt_out, states)
