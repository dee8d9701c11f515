"""Tests for the integrators: single steps, grids, accuracy, blow-up handling."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from jerklab import (
    IntegrationOverflowError,
    IntegratorConfig,
    JerkParams,
    Method,
    Sign,
    SimulationResult,
    SystemState,
    UniformSeries,
    ValidationError,
    simulate,
)

import conftest
from conftest import reference_simulate, simulate_linear, simulation_bits
from jerklab import integrate
from jerklab.core import _rhs
from jerklab.integrate import _euler, _rk4

A_DEFAULT = 2.03
IC_CAPTURED = SystemState(0.0, 0.0, 0.1)
IC_ESCAPING = SystemState(0.0, 0.0, 0.01)


def linear_closed_form(a: float, times):
    """Closed-form solution of the linear subsystem from (x, xd, xdd) = (1, 0, 0).

    Solves the cubic characteristic polynomial numerically and fits the three
    exponential modes to the initial condition; this is an oracle computed by
    entirely different arithmetic than the integrators under test.
    """
    roots = np.roots([1.0, a, 0.0, 1.0])
    vand = np.vander(roots, 3, increasing=True).T
    coef = np.linalg.solve(vand, np.array([1.0, 0.0, 0.0], dtype=complex))
    t = np.asarray(times, dtype=float)
    modes = np.exp(np.outer(t, roots))
    x = (modes @ coef).real
    xd = (modes @ (coef * roots)).real
    xdd = (modes @ (coef * roots**2)).real
    return x, xd, xdd


def _hexes(state):
    return [v.hex() for v in state]


def _textbook_euler(s, h, a, sf):
    d = _rhs(*s, a, sf)
    return tuple(v + h * dv for v, dv in zip(s, d))


def _textbook_rk4(s, h, a, sf):
    k1 = _rhs(*s, a, sf)
    k2 = _rhs(*(v + 0.5 * h * k for v, k in zip(s, k1)), a, sf)
    k3 = _rhs(*(v + 0.5 * h * k for v, k in zip(s, k2)), a, sf)
    k4 = _rhs(*(v + h * k for v, k in zip(s, k3)), a, sf)
    return tuple(v + h * (d1 + 2.0 * d2 + 2.0 * d3 + d4) / 6.0
                 for v, d1, d2, d3, d4 in zip(s, k1, k2, k3, k4))


def _random_steps(seed, count=100):
    """Random (state, h, a, sf) under both signs, a = 0.7, and sf = 0.

    A stage jerk summed in another order changes a step's result only now
    and then (in about 5% of steps with h near 1, under 1% with h below
    0.1), so there are many steps and the larger ones are kept."""
    rnd = random.Random(seed)
    for a, sf in [(p.a, p.sign.value) for p in
                  (JerkParams(), JerkParams(sign=Sign.PLUS), JerkParams(a=0.7))
                  ] + [(A_DEFAULT, 0.0)]:
        for _ in range(count):
            s = tuple(rnd.uniform(-5.0, 5.0) for _ in range(3))
            yield s, 10.0 ** rnd.uniform(-3.0, 0.0), a, sf


class TestStepKernels:
    """One substep (``n=1``) of the fixed-step kernels, on bare floats. The
    kernels write the jerk out inline; these tests pin each copy to
    ``core._rhs`` bit for bit."""

    def test_euler_step_formula(self):
        # From (1, 0, 0) the derivative is (0, 0, -1); one explicit step of
        # h = 0.1 moves only the xdd component, exactly.
        assert _euler(1.0, 0.0, 0.0, 0.1, 2.0, -1.0, 1) == (1.0, 0.0, -0.1)

    def test_euler_step_is_one_step_along_jerk_rhs(self):
        # One Euler substep equals s + h*_rhs(s) bit for bit.
        for s, h, a, sf in _random_steps(11):
            got = _euler(*s, h, a, sf, 1)
            assert _hexes(got) == _hexes(_textbook_euler(s, h, a, sf))

    def test_rk4_step_is_textbook_rk4_along_jerk_rhs(self):
        # One RK4 substep equals the four-stage update built from _rhs calls.
        for s, h, a, sf in _random_steps(12):
            got = _rk4(*s, h, a, sf, 1)
            assert _hexes(got) == _hexes(_textbook_rk4(s, h, a, sf))

    def test_rk4_step_against_exact_rational_expansion(self):
        # Frozen oracle: the four-stage update from (1, 0, 0) with a = 2,
        # h = 0.1 evaluated in exact rational arithmetic, rounded once.
        x, xd, xdd = _rk4(1.0, 0.0, 0.0, 0.1, 2.0, -1.0, 1)
        assert x == pytest.approx(0.9998416666666666, rel=1e-13)
        assert xd == pytest.approx(-0.00468334375, rel=1e-13)
        assert xdd == pytest.approx(-0.09062969166666666, rel=1e-13)

    def test_steps_are_deterministic(self):
        p = JerkParams()
        args = (0.3, -0.2, 0.7, 1e-3, p.a, p.sign.value, 1)
        assert _rk4(*args) == _rk4(*args)
        assert _euler(*args) == _euler(*args)

    def test_step_overflow_raises(self):
        # A state near the float ceiling overflows inside the stage math: one
        # substep leaves a non-finite component, which the drivers check for
        # (the simulate escape tests cover the error they raise).
        p = JerkParams()
        for kernel in (_rk4, _euler):
            out = kernel(1e200, 1e200, 1e200, 1e200, p.a, p.sign.value, 1)
            assert not all(math.isfinite(v) for v in out)


class TestConfigValidation:
    def test_defaults(self):
        c = IntegratorConfig()
        assert c.method is Method.RK4
        assert (c.t_start, c.t_end) == (0.0, 100.0)
        assert c.step == 1e-3
        assert c.output_points == 4700
        assert c.initial_state == IC_CAPTURED

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError, match="t_end"):
            IntegratorConfig(t_start=1.0, t_end=1.0)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValidationError, match="t_end"):
            IntegratorConfig(t_start=2.0, t_end=1.0)

    @pytest.mark.parametrize("step", [0.0, -1e-3])
    def test_rejects_nonpositive_step(self, step):
        with pytest.raises(ValidationError, match="step"):
            IntegratorConfig(step=step)

    @pytest.mark.parametrize("method", [Method.EULER, Method.RK4])
    def test_rejects_step_too_small_to_count_substeps(self, method):
        # 0.5 / 1e-320 overflows, so no substep count exists for it.
        c = IntegratorConfig(method=method, t_end=1.0, step=1e-320, output_points=3)
        with pytest.raises(ValidationError, match="step 1e-320 is too small"):
            simulate(c)

    @pytest.mark.parametrize("method", [Method.EULER, Method.RK4])
    def test_rejects_step_too_small_to_finish(self, method):
        # 0.5 / 1e-300 is finite, but far above 2**53 substeps per interval.
        c = IntegratorConfig(method=method, t_end=1.0, step=1e-300, output_points=3)
        with pytest.raises(ValidationError, match="step 1e-300 is too small "
                           "for the output interval 0.5"):
            simulate(c)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValidationError, match="tolerance"):
            IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValidationError, match="tolerance"):
            IntegratorConfig(rel_tol=-1e-9)

    @pytest.mark.parametrize("method", [Method.EULER, Method.RK4])
    def test_fixed_step_methods_refuse_tolerances(self, method):
        IntegratorConfig(method=method, abs_tol=integrate.RK45_TOL,
                         rel_tol=integrate.RK45_TOL)
        for tols in ({"abs_tol": 1e-6}, {"rel_tol": 1e-12}):
            with pytest.raises(ValidationError) as info:
                IntegratorConfig(method=method, **tols)
            assert str(info.value) == (f"{method.value} reads neither abs_tol nor "
                                       "rel_tol; they apply to rk45 only")

    @pytest.mark.parametrize("points", [0, 1, -5])
    def test_rejects_too_few_points(self, points):
        with pytest.raises(ValidationError, match="output_points"):
            IntegratorConfig(output_points=points)

    def test_rejects_plain_tuple_state(self):
        with pytest.raises(ValidationError, match="initial_state"):
            IntegratorConfig(initial_state=(0.0, 0.0, 0.1))  # type: ignore[arg-type]

    def test_rejects_method_name(self):
        with pytest.raises(ValidationError, match="method must be a Method, got 'rk4'"):
            IntegratorConfig(method="rk4")  # type: ignore[arg-type]

    @pytest.mark.parametrize("method", list(Method))
    def test_rejects_params_without_the_model_attributes(self, method):
        config = IntegratorConfig(method=method, t_end=1.0, output_points=3)
        for params, text in (("x", "'x'"), (object, "<class 'object'>"),
                             (SimpleNamespace(a=2.03), "namespace(a=2.03)")):
            with pytest.raises(ValidationError) as info:
                simulate(config, params)  # type: ignore[arg-type]
            assert str(info.value) == f"params must be a JerkParams, got {text}"
        # The linear-subsystem stand-in carries both attributes and runs.
        res = simulate(config, conftest.LINEAR_PARAMS)
        assert res.x.values.tolist() != simulate(config, JerkParams()).x.values.tolist()

    def test_rejects_a_config_that_is_no_integrator_config(self):
        # Only params is duck-typed; a config of another type, the params
        # passed in its place included, is named rather than left to fail
        # on its first missing attribute.
        params = JerkParams()
        for config in ("x", None, params, conftest.LINEAR_PARAMS):
            with pytest.raises(ValidationError) as info:
                simulate(config)  # type: ignore[arg-type]
            assert str(info.value) == (
                f"config must be an IntegratorConfig, got {config!r}")
        with pytest.raises(ValidationError, match="config must be an IntegratorConfig"):
            simulate(params, IntegratorConfig())  # type: ignore[arg-type]


class TestOutputGrid:
    def test_timestamps_use_multiplicative_formula(self):
        c = IntegratorConfig(method=Method.RK4, t_start=0.3, t_end=0.7944,
                             step=1e-2, output_points=97)
        res = simulate(c)
        dt = (0.7944 - 0.3) / 96
        for series in (res.x, res.xd, res.xdd):
            assert series.t0 == 0.3
            assert series.dt == dt
            assert len(series) == 97
        assert res.x.times().tolist() == [0.3 + k * dt for k in range(97)]

    def test_last_timestamp_hits_t_end(self):
        # The derived endpoint may differ from t_end only by accumulated
        # representation error of span/(P-1), i.e. a few ulp.
        for t0, t1, p in [(0.0, 100.0, 4700), (0.3, 0.7944, 97),
                          (-2.5, 13.7, 311)]:
            c = IntegratorConfig(t_start=t0, t_end=t1, step=0.05,
                                 output_points=p)
            res = simulate(c)
            assert res.x.t_end == pytest.approx(t1, abs=8 * np.spacing(t1))

    def test_equilibrium_stays_put(self):
        zero = SystemState(0.0, 0.0, 0.0)
        for method in (Method.EULER, Method.RK4, Method.RK45):
            res = simulate(IntegratorConfig(method=method, t_end=5.0,
                                            step=1e-2, output_points=51,
                                            initial_state=zero))
            assert res.x.values.tolist() == [0.0] * 51
            assert res.xd.values.tolist() == [0.0] * 51
            assert res.xdd.values.tolist() == [0.0] * 51


class TestSubstepScheme:
    def test_requested_step_is_a_ceiling(self):
        # dt_out = 0.1 with step 0.03 is covered by 4 substeps of 0.025, so
        # the run must be bit-identical to one that requests 0.025 directly.
        mk = lambda step: simulate(
            IntegratorConfig(t_end=1.0, step=step, output_points=11))
        res_a = mk(0.03)
        res_b = mk(0.025)
        assert np.array_equal(res_a.x.values, res_b.x.values)
        assert np.array_equal(res_a.xdd.values, res_b.xdd.values)

    @pytest.mark.parametrize("method,kernel", [(Method.RK4, _rk4),
                                               (Method.EULER, _euler)],
                             ids=["rk4", "euler"])
    def test_exact_divisor_takes_single_substep(self, method, kernel):
        # step == dt_out must mean one substep per interval: the emitted
        # samples then coincide with a hand-rolled chain of single substeps.
        c = IntegratorConfig(method=method, t_end=1.0, step=0.1,
                             output_points=11)
        res = simulate(c)
        p = JerkParams()
        s = c.initial_state.as_tuple()
        expected = [s]
        for _ in range(10):
            s = kernel(*s, res.x.dt, p.a, p.sign.value, 1)
            expected.append(s)
        got = list(zip(res.x.values, res.xd.values, res.xdd.values))
        assert got == expected


class TestLinearAccuracy:
    """The integrators on the linear subsystem (the model with its quadratic
    coefficient set to 0) against its closed form."""

    def test_rk4_matches_closed_form(self):
        c = IntegratorConfig(method=Method.RK4, t_end=10.0, step=1e-3,
                             output_points=101,
                             initial_state=SystemState(1.0, 0.0, 0.0))
        res = simulate_linear(c)
        x_ref, xd_ref, xdd_ref = linear_closed_form(A_DEFAULT, res.x.times())
        assert float(np.max(np.abs(np.array(res.x.values) - x_ref))) < 1e-6
        assert float(np.max(np.abs(np.array(res.xd.values) - xd_ref))) < 1e-6
        assert float(np.max(np.abs(np.array(res.xdd.values) - xdd_ref))) < 1e-6

    def test_closed_form_oracle_self_check(self):
        # Frozen endpoint value guards the oracle itself against regressions
        # in the root-finding arithmetic.
        x, _, _ = linear_closed_form(A_DEFAULT, [0.0, 10.0])
        assert x[0] == pytest.approx(1.0, abs=1e-10)
        assert x[1] == pytest.approx(2.4867026722576404, abs=1e-9)

    def _max_error(self, method, step):
        c = IntegratorConfig(method=method, t_end=10.0, step=step,
                             output_points=21,
                             initial_state=SystemState(1.0, 0.0, 0.0))
        res = simulate_linear(c)
        x_ref, _, _ = linear_closed_form(A_DEFAULT, res.x.times())
        return float(np.max(np.abs(np.array(res.x.values) - x_ref)))

    def test_rk4_error_scales_as_fourth_order(self):
        ratio = self._max_error(Method.RK4, 0.05) / self._max_error(Method.RK4, 0.025)
        assert 12.0 <= ratio <= 20.0

    def test_euler_error_scales_as_first_order(self):
        ratio = self._max_error(Method.EULER, 1e-3) / self._max_error(Method.EULER, 5e-4)
        assert 1.7 <= ratio <= 2.4


class TestRk45:
    def test_linear_endpoint_accuracy(self):
        # The final time is always an accepted knot, so the endpoint carries
        # pure solver error with no interpolation on top.
        c = IntegratorConfig(method=Method.RK45, t_end=10.0, step=1e-3,
                             abs_tol=1e-9, rel_tol=1e-9, output_points=101,
                             initial_state=SystemState(1.0, 0.0, 0.0))
        res = simulate_linear(c)
        x_ref, _, _ = linear_closed_form(A_DEFAULT, res.x.times())
        assert abs(res.x.values[-1] - x_ref[-1]) < 1e-7

    def test_interior_error_budget_and_tolerance_response(self):
        # Interior samples are linear interpolations between accepted steps,
        # so their error is bounded by the accepted step length squared and
        # must shrink when the tolerance tightens.
        def max_err(tol):
            c = IntegratorConfig(method=Method.RK45, t_end=10.0, step=1e-3,
                                 abs_tol=tol, rel_tol=tol, output_points=101,
                                 initial_state=SystemState(1.0, 0.0, 0.0))
            res = simulate_linear(c)
            x_ref, _, _ = linear_closed_form(A_DEFAULT, res.x.times())
            return float(np.max(np.abs(np.array(res.x.values) - x_ref)))

        loose = max_err(1e-6)
        tight = max_err(1e-10)
        assert loose < 0.1
        assert tight < 5e-3
        # Error tracks tolerance as tol**(2/5): interpolation error goes as
        # the accepted step squared and the step as tol**(1/5). A 1e4 factor
        # in tolerance should buy well over one decade of accuracy.
        assert tight < loose / 5.0

    def test_agrees_with_rk4_on_chaotic_span(self):
        mk = lambda m: simulate(IntegratorConfig(
            method=m, t_end=10.0, step=1e-3, output_points=101,
            initial_state=IC_CAPTURED))
        r45 = mk(Method.RK45)
        r4 = mk(Method.RK4)
        assert abs(r45.xdd.values[-1] - r4.xdd.values[-1]) < 1e-5

    def test_deterministic(self):
        mk = lambda: simulate(IntegratorConfig(
            method=Method.RK45, t_end=10.0, output_points=101,
            initial_state=IC_CAPTURED))
        assert np.array_equal(mk().xdd.values, mk().xdd.values)


class TestDeterminism:
    @pytest.mark.parametrize("method", [Method.EULER, Method.RK4])
    def test_repeat_runs_are_bit_identical(self, method):
        mk = lambda: simulate(IntegratorConfig(
            method=method, t_end=20.0, step=1e-3, output_points=201,
            initial_state=IC_CAPTURED))
        first, second = mk(), mk()
        assert np.array_equal(first.x.values, second.x.values)
        assert np.array_equal(first.xd.values, second.xd.values)
        assert np.array_equal(first.xdd.values, second.xdd.values)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_mirror_symmetry_is_exact(self, method):
        # Flipping the nonlinearity sign and negating the initial state must
        # negate the whole trajectory: every kernel operation commutes with
        # global negation in IEEE arithmetic. np.array_equal takes +0 and -0
        # as equal, so this checks values, not sign bits.
        minus = simulate(
            IntegratorConfig(method=method, t_end=20.0, step=1e-3, output_points=201,
                             initial_state=SystemState(0.0, 0.0, 0.1)),
            JerkParams(a=A_DEFAULT, sign=Sign.MINUS))
        plus = simulate(
            IntegratorConfig(method=method, t_end=20.0, step=1e-3, output_points=201,
                             initial_state=SystemState(0.0, 0.0, -0.1)),
            JerkParams(a=A_DEFAULT, sign=Sign.PLUS))
        assert np.array_equal(plus.x.values, -minus.x.values)
        assert np.array_equal(plus.xd.values, -minus.xd.values)
        assert np.array_equal(plus.xdd.values, -minus.xdd.values)


class TestBoundedAndEscapingOrbits:
    def test_captured_orbit_stays_bounded(self):
        # From the package default initial state the orbit lands on the
        # bounded attractor; |x| stays in single digits over a long span and
        # halving the step does not change that.
        for step in (1e-3, 5e-4):
            res = simulate(IntegratorConfig(
                t_end=100.0, step=step, output_points=1001,
                initial_state=IC_CAPTURED))
            peak = max(abs(v) for v in res.x.values)
            assert 1.0 < peak < 10.0

    def test_small_kick_escapes(self):
        # Regression for a sharp fact about these dynamics: shrinking the
        # initial kick by 10x does NOT stay closer to the equilibrium — the
        # orbit misses the attractor and diverges to overflow near t = 66.
        with pytest.raises(IntegrationOverflowError) as info:
            simulate(IntegratorConfig(t_end=100.0, step=1e-3,
                                      output_points=1001,
                                      initial_state=IC_ESCAPING))
        err = info.value
        assert 60.0 < err.last_valid_time < 70.0
        assert "last finite state" in str(err)
        assert err.partial is not None
        assert isinstance(err.partial, SimulationResult)
        x_part, xd_part, xdd_part = err.partial.x, err.partial.xd, err.partial.xdd
        assert isinstance(x_part, UniformSeries)
        assert 2 <= len(x_part) == len(xd_part) == len(xdd_part) < 1001
        assert all(math.isfinite(v) for v in x_part.values)

    def test_coarse_euler_escapes_even_from_captured_state(self):
        # Euler at step 2e-3 has enough local error to knock the orbit off
        # the attractor; the run must abort rather than emit garbage.
        with pytest.raises(IntegrationOverflowError) as info:
            simulate(IntegratorConfig(method=Method.EULER, t_end=100.0,
                                      step=2e-3, output_points=1001,
                                      initial_state=IC_CAPTURED))
        assert 40.0 < info.value.last_valid_time < 90.0

    def test_rk45_reports_escape(self):
        with pytest.raises(IntegrationOverflowError) as info:
            simulate(IntegratorConfig(method=Method.RK45, t_end=100.0,
                                      output_points=101,
                                      initial_state=IC_ESCAPING))
        err = info.value
        assert 55.0 < err.last_valid_time < 70.0
        assert err.partial is not None
        assert all(math.isfinite(v) for v in err.partial.x.values)


class TestEscapePartial:
    """The escaping start's ``partial``: one ``SimulationResult`` holding every
    grid sample up to the last finite time, bit for bit. rk45's step factor
    goes through the platform's ``pow``, and its bits change once dense
    output replaces its linear interpolation (ROADMAP, item 1)."""

    #: last_valid_time as float.hex and the SHA-256 of the x, xd and xdd bits.
    PINNED = {
        Method.RK4: ("0x1.09b45a3cf7bbep+6",
                     "c2e72a7f4737d5dbd348928245c66e283e843741a15b4b8bbab2fa3db52374c5"),
        Method.RK45: ("0x1.09b17ec1096a0p+6",
                      "1031eface45534c1b34f6476818d6890db79eface7d8f39b38115e1b73c2da95"),
    }

    @pytest.mark.parametrize("method", sorted(PINNED, key=lambda m: m.value),
                             ids=lambda m: m.value)
    def test_partial_keeps_its_bits(self, method):
        with pytest.raises(IntegrationOverflowError) as info:
            simulate(IntegratorConfig(method=method, initial_state=IC_ESCAPING))
        err, part = info.value, info.value.partial
        assert isinstance(part, SimulationResult)
        assert [len(part.x), len(part.xd), len(part.xdd)] == [3122] * 3
        last, digest = self.PINNED[method]
        assert err.last_valid_time.hex() == last
        assert hashlib.sha256(simulation_bits(part)).hexdigest() == digest


class TestSensitiveDependence:
    D0 = 1e-10

    def _pair(self):
        base = simulate(IntegratorConfig(t_end=100.0, step=1e-3,
                                         output_points=1001,
                                         initial_state=IC_CAPTURED))
        bumped = simulate(IntegratorConfig(
            t_end=100.0, step=1e-3, output_points=1001,
            initial_state=SystemState(0.0, 0.0, 0.1 + self.D0)))
        dx = np.abs(np.array(base.x.values) - np.array(bumped.x.values))
        return dx

    @pytest.mark.xfail(
        strict=True,
        reason="A 1e-10 kick grows by only ~4 decades over 100 time units"
               " (max |dx| ~ 9e-7); reaching 0.1 needs ~9 decades, beyond"
               " these dynamics' expansion rate over this span.",
    )
    def test_separation_exceeds_macroscopic_threshold(self):
        dx = self._pair()
        assert float(np.max(dx)) > 0.1

    def test_separation_growth_as_measured(self):
        # Companion to the expected-failure above: what the dynamics actually
        # do. Early on the orbits are indistinguishable; by the end of the
        # span the gap has grown by a factor of 1e2..1e7 yet remains tiny in
        # absolute terms.
        dx = self._pair()
        early = dx[:11]  # t in [0, 1]
        assert float(np.max(early)) < 1e-6
        growth = float(np.max(dx)) / self.D0
        assert 1e2 < growth < 1e7
        assert float(np.max(dx)) < 1e-3


def _seeded_request(rng: random.Random):
    """A random simulation request: any method, t_start often != 0, 2 to
    4,700 points, rk45 tolerances from 1e-12 to 1e12, initial kicks up to
    1e4, and now and then a span of a few ulps (grid times that round
    together) or a -0.0 state component. One in ten is an rk45 run whose
    accepted steps end on grid times, and about one in five an rk45 run with
    loose tolerances and a large kick, the requests that overflow inside an
    accepted step."""
    t0 = rng.choice([0.0, rng.uniform(-50.0, 50.0), 10.0 ** rng.uniform(-3, 6)])
    params = JerkParams(a=rng.choice([A_DEFAULT, rng.uniform(0.1, 5.0)]),
                        sign=rng.choice(list(Sign)))
    if rng.random() < 0.1:
        # Binary-fraction steps under loose tolerances grow by exactly 5x,
        # so accepted steps end on grid times (the exact-knot branch).
        span, points = 2.0 ** rng.randint(-2, 4), 2 ** rng.randint(2, 9) + 1
        t0 = rng.choice([0.0, 0.5, -3.0]) * span
        return IntegratorConfig(
            method=Method.RK45, t_start=t0, t_end=t0 + span, step=span / (points - 1),
            abs_tol=1e12, rel_tol=1e12, output_points=points,
            initial_state=SystemState(*(rng.uniform(-1.0, 1.0) for _ in "xyz")),
        ), params
    if rng.random() < 0.2:
        kick = 10.0 ** rng.uniform(2, 4)
        return IntegratorConfig(
            method=Method.RK45, t_start=t0, t_end=t0 + 10.0 ** rng.uniform(0, 1.3),
            step=10.0 ** rng.uniform(-3, -1), abs_tol=10.0 ** rng.uniform(10, 12),
            rel_tol=10.0 ** rng.uniform(10, 12), output_points=rng.randint(2, 300),
            initial_state=SystemState(*(rng.uniform(-kick, kick) for _ in "xyz")),
        ), params
    if rng.random() < 0.1:
        span = rng.randint(1, 8) * math.ulp(t0 or 1.0)
    else:
        span = 10.0 ** rng.uniform(-2, 1.3)
    points = rng.choice([2, 3, rng.randint(2, 50), rng.randint(50, 4700)])
    kick = 10.0 ** rng.uniform(-2, 4)
    method = rng.choice(list(Method))
    step = span / points * 10.0 ** rng.uniform(-1.5, 1.5)
    # Every request draws its tolerances, so that the sequence of draws and
    # the requests after it stay the same; only rk45 takes them.
    tols = {"abs_tol": 10.0 ** rng.uniform(-12, 12),
            "rel_tol": 10.0 ** rng.uniform(-12, 12)}
    return IntegratorConfig(
        method=method, t_start=t0, t_end=t0 + span, step=step,
        **(tols if method is Method.RK45 else {}), output_points=points,
        initial_state=SystemState(*(rng.choice([0.0, -0.0, rng.uniform(-kick, kick)])
                                    for _ in "xyz")),
    ), params


def _outcome(run, config, params):
    """Everything a run hands back, in comparable form (floats as bytes)."""
    def channels(series):
        return [(s.t0.hex(), s.dt.hex(), s.meta, s.values.tobytes()) for s in series]

    try:
        res = run(config, params)
    except IntegrationOverflowError as exc:
        part = exc.partial
        return ("escape", str(exc), exc.last_valid_time.hex(),
                channels((part.x, part.xd, part.xdd)))
    return ("ok", channels((res.x, res.xd, res.xdd)))


def _route(config, outcome) -> str:
    """Which way a run ended: "ok" or one of the three escape routes."""
    if outcome[0] == "ok":
        return "ok"
    if config.method is not Method.RK45:
        return "fixed overflow"
    return "rk45 collapse" if "collapsed" in outcome[1] else "rk45 divergence"


class TestEveryAcceptedSettingIsRead:
    """``simulate`` accepts a setting only if the setting changes its output:
    each field of ``IntegratorConfig`` and ``JerkParams``, set away from its
    default under each method, changes the run's bits or is refused. The
    library twin of the CLI's ``TestEveryAcceptedKeyIsRead``."""

    BASE = {"t_end": 2.0, "output_points": 21}
    #: A value away from the base run's for each setting but the method,
    #: whose other value is the method before it in ``Method``.
    OTHER = {"t_start": 0.5, "t_end": 3.0, "step": 2e-3, "abs_tol": 1e-6,
             "rel_tol": 1e-6, "initial_state": SystemState(0.0, 0.0, 0.2),
             "output_points": 41, "a": 2.04, "sign": Sign.PLUS}
    CONFIG = [f.name for f in dataclasses.fields(IntegratorConfig)]
    PARAMS = [f.name for f in dataclasses.fields(JerkParams)]

    @pytest.mark.parametrize("name", CONFIG + PARAMS)
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_each_setting_changes_the_output_or_is_refused(self, method, name):
        methods = list(Method)
        value = (methods[methods.index(method) - 1] if name == "method"
                 else self.OTHER[name])
        owner = JerkParams if name in self.PARAMS else IntegratorConfig
        base = {"method": method, **self.BASE}
        assert value != base.get(name, getattr(owner(), name))
        config, params = dict(base), {}
        (params if owner is JerkParams else config)[name] = value
        before = _outcome(simulate, IntegratorConfig(**base), JerkParams())
        try:
            after = _outcome(simulate, IntegratorConfig(**config), JerkParams(**params))
        except ValidationError:
            return
        assert after != before


class TestGeneratorDrivers:
    """The generator drivers against the former list-and-knots drivers."""

    def test_matches_reference_on_seeded_requests(self):
        rng = random.Random(20261018)
        routes = Counter()
        for _ in range(250):
            config, params = _seeded_request(rng)
            expected = _outcome(reference_simulate, config, params)
            assert _outcome(simulate, config, params) == expected, (config, params)
            routes[_route(config, expected)] += 1
        for route in ("ok", "fixed overflow", "rk45 collapse", "rk45 divergence"):
            assert routes[route] >= 5, routes

    def test_grid_times_that_round_to_t_start_take_the_initial_state(self):
        # A span of four ulps on nine points: t0 + dt rounds to t0 itself, so
        # samples 0 and 1 are the initial state bit for bit (-0.0 included),
        # not an interpolation with weight 0. The first step is accepted and
        # the step size then collapses, so the grid reaches t_end.
        start = 1.0
        config = IntegratorConfig(
            method=Method.RK45, t_start=start, t_end=start + 4 * math.ulp(start),
            step=1.0, output_points=9, initial_state=SystemState(-0.0, 1.0, -0.0))
        assert start + (config.t_end - start) / 8 == start
        with pytest.raises(IntegrationOverflowError, match="collapsed") as info:
            simulate(config)
        x = info.value.partial.x.values
        assert len(x) == 9
        assert [math.copysign(1.0, v) for v in x[:2]] == [-1.0, -1.0]
        assert x[2] > 0.0
        assert _outcome(simulate, config, JerkParams()) == _outcome(
            reference_simulate, config, JerkParams())

    def test_grid_times_that_round_past_t_end_take_the_final_state(self):
        # 3 * (7.7 / 3) rounds above 7.7, so the last grid time lies past the
        # final step; it takes the state at t_end, as the two-point run does.
        config = IntegratorConfig(method=Method.RK45, t_end=7.7, output_points=4)
        assert 3 * (config.t_end / 3) > config.t_end
        four = simulate(config)
        two = simulate(IntegratorConfig(method=Method.RK45, t_end=7.7,
                                        output_points=2))
        for name in ("x", "xd", "xdd"):
            last = getattr(four, name).values[-1], getattr(two, name).values[-1]
            assert last[0].hex() == last[1].hex(), name

    def test_partial_is_the_grid_up_to_last_valid_time(self):
        rng = random.Random(7)
        escapes = Counter()
        while escapes.total() < 120:
            config, params = _seeded_request(rng)
            try:
                simulate(config, params)
            except IntegrationOverflowError as exc:
                err = exc
            else:
                continue
            t0, p = config.t_start, config.output_points
            dt = (config.t_end - t0) / (p - 1)
            count = sum(1 for k in range(p) if t0 + k * dt <= err.last_valid_time)
            for series in (err.partial.x, err.partial.xd, err.partial.xdd):
                assert (series.t0, series.dt, len(series)) == (t0, dt, count), config
                assert np.isfinite(series.values).all()
            escapes[_route(config, ("escape", str(err)))] += 1
        assert len(escapes) == 3, escapes


class TestIntervalKernels:
    """One kernel call per output interval against one call per substep."""

    @pytest.mark.parametrize("name", ["euler", "rk4"])
    def test_n_substeps_equal_n_single_calls(self, name):
        kernel, frozen = getattr(integrate, f"_{name}"), getattr(conftest, f"_{name}")
        rnd = random.Random(5)
        for _ in range(200):
            s = tuple(rnd.choice([0.0, -0.0, rnd.uniform(-10.0, 10.0)]) for _ in "xyz")
            h = 10.0 ** rnd.uniform(-4.0, -0.5)
            args = (h, rnd.uniform(0.1, 5.0), rnd.choice([-1.0, 0.0, 1.0]))
            n = rnd.randint(1, 40)
            one, ref = s, s
            for _ in range(n):
                one = kernel(*one, *args, 1)
                ref = frozen(*ref, *args)
            assert _hexes(kernel(*s, *args, n)) == _hexes(one) == _hexes(ref)

    @pytest.mark.parametrize("name", ["euler", "rk4"])
    @pytest.mark.parametrize("sf", [-1.0, 0.0, 1.0])
    def test_array_lanes_equal_scalar_calls(self, name, sf):
        # The kernels run unchanged on numpy arrays, with a per-lane a: each
        # lane gets the bits (the sign of zero too) of a scalar call.
        kernel = getattr(integrate, f"_{name}")
        rnd = random.Random(7)
        lanes = []
        for _ in range(8):
            s = [rnd.uniform(-3.0, 3.0) for _ in "xyz"]
            s[rnd.randrange(3)] = rnd.choice([0.0, -0.0])
            lanes.append(s)
        a = np.array([rnd.uniform(0.5, 3.0) for _ in lanes])
        h, n = 100.0 / 4699 / 22, 22
        out = kernel(*np.array(lanes).T, h, a, sf, n)
        for i, s in enumerate(lanes):
            scalar = kernel(*s, h, float(a[i]), sf, n)
            assert _hexes(float(c[i]) for c in out) == _hexes(scalar), i

    @pytest.mark.parametrize("method", [Method.EULER, Method.RK4])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_escape_at_any_substep_of_an_interval(self, method, where):
        # With a power-of-two step, every substep count gives the same
        # substeps, so the first non-finite one (substep g) stays put and the
        # count decides where in its interval it falls.
        h, start, p = 2.0 ** -6, SystemState(0.0, 50.0, 0.0), JerkParams()
        frozen = conftest._euler if method is Method.EULER else conftest._rk4
        s, g = start.as_tuple(), -1
        while conftest._finite3(s):
            s, g = frozen(*s, h, p.a, p.sign.value), g + 1
        wanted = {"first": lambda n: g % n == 0, "last": lambda n: g % n == n - 1,
                  "middle": lambda n: 0 < g % n < n - 1}[where]
        n_sub = next(n for n in range(3, g + 2) if wanted(n))
        points = g // n_sub + 3
        config = IntegratorConfig(
            method=method, t_start=1.0, t_end=1.0 + (points - 1) * n_sub * h,
            step=h, output_points=points, initial_state=start)
        outcome = _outcome(simulate, config, p)
        assert outcome == _outcome(reference_simulate, config, p)
        assert float.fromhex(outcome[2]) == 1.0 + g * h
        assert len(outcome[3][0][3]) == 8 * (g // n_sub + 1)  # grid samples kept

    def test_rk45_evaluates_six_rhs_per_attempt_and_one_more(self, monkeypatch):
        # First same as last: the 7th stage of a step is the next step's 1st,
        # kept across rejected steps too, so only the first k1 is extra.
        counts = Counter()

        def counting(key, rhs):
            def counted(*args):
                counts[key] += 1
                return rhs(*args)
            return counted

        monkeypatch.setattr(integrate, "_rhs", counting("new", integrate._rhs))
        monkeypatch.setattr(conftest, "_rhs", counting("ref", conftest._rhs))
        for config in (IntegratorConfig(method=Method.RK45),
                       IntegratorConfig(method=Method.RK45, t_start=-3.0, t_end=7.0,
                                        step=0.5, abs_tol=1e-6, rel_tol=1e-12,
                                        output_points=77, initial_state=IC_CAPTURED)):
            counts.clear()
            new = _outcome(simulate, config, JerkParams())
            assert new == _outcome(reference_simulate, config, JerkParams())
            attempts, rest = divmod(counts["ref"], 7)
            assert rest == 0 and attempts > 20
            assert counts["new"] == 1 + 6 * attempts
