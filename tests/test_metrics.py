"""Tests for the scoring toolkit: NRMSE, windows, reference selection,
prediction horizon, divergence rate, and whole-comparison assembly."""

from __future__ import annotations

import inspect
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jerklab import (
    CandidateScore,
    CommonGrid,
    ComparisonReport,
    DataError,
    DegenerateDataError,
    DegenerateSeparationError,
    HorizonResult,
    IntegratorConfig,
    JerkParams,
    MeanFrom,
    Method,
    SystemState,
    TimeSeries,
    UniformSeries,
    ValidationError,
    WindowedNrmse,
    build_common_grid,
    build_comparison,
    cumulative_nrmse,
    divergence_rate,
    nrmse,
    prediction_horizon,
    resample_linear,
    select_reference,
    simulate,
)

from jerklab import metrics
from jerklab.metrics import _prefix_scores, _window_ends

from conftest import (
    assert_bit_equal,
    compensated_sum,
    mk_ts,
    mk_uniform,
    oracle_nrmse,
    random_series_pair,
    reference_prefix_scores,
    two_pass_nrmse,
)

# The scorer's array passes overflow and underflow by design: no numpy
# warning may escape any metric.
pytestmark = pytest.mark.filterwarnings("error")


class TestCompensatedSum:
    def test_cancellation_survives(self):
        # Plain left-to-right float addition loses the 1.0 here.
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0

    def test_matches_fsum_on_random_data(self, rng):
        for _ in range(50):
            data = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-8, 8)
                    for _ in range(rng.randint(1, 200))]
            assert compensated_sum(data) == pytest.approx(
                math.fsum(data), rel=1e-15, abs=1e-300)

    def test_empty(self):
        assert compensated_sum([]) == 0.0


class TestNrmse:
    def test_hand_oracle_two_points(self):
        # Swapped unit samples: error power 2, simulated-mean power 0.5.
        score = nrmse(mk_uniform([0.0, 1.0]), mk_uniform([1.0, 0.0]))
        assert score == pytest.approx(2.0, abs=1e-12)

    def test_hand_oracle_constant_simulation(self):
        score = nrmse(mk_uniform([1.0, 2.0, 3.0]), mk_uniform([2.0, 2.0, 2.0]))
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_exactly_zero(self, rng):
        for _ in range(100):
            m, _ = random_series_pair(rng)
            assert nrmse(m, m) == 0.0

    def test_matches_independent_oracle(self, rng):
        for _ in range(200):
            m, s = random_series_pair(rng)
            assert nrmse(m, s) == pytest.approx(
                oracle_nrmse(m.values, s.values), rel=1e-12)

    def test_mean_from_variants(self):
        m = mk_uniform([0.0, 1.0])
        s = mk_uniform([10.0, 20.0])
        sim = nrmse(m, s, MeanFrom.SIMULATED)
        mea = nrmse(m, s, MeanFrom.MEASURED)
        assert sim == pytest.approx(
            oracle_nrmse(m.values, s.values, mean_src=s.values), rel=1e-12)
        assert mea == pytest.approx(
            oracle_nrmse(m.values, s.values, mean_src=m.values), rel=1e-12)
        assert abs(sim - mea) > 1.0  # the variants genuinely differ here

    def test_shift_and_scale_invariance(self, rng):
        for _ in range(100):
            m, s = random_series_pair(rng)
            base = nrmse(m, s)
            c = rng.uniform(-10.0, 10.0)
            k = rng.uniform(0.25, 4.0)
            shifted = nrmse(
                mk_uniform([v + c for v in m.values], t0=m.t0, dt=m.dt),
                mk_uniform([v + c for v in s.values], t0=m.t0, dt=m.dt))
            scaled = nrmse(
                mk_uniform([v * k for v in m.values], t0=m.t0, dt=m.dt),
                mk_uniform([v * k for v in s.values], t0=m.t0, dt=m.dt))
            assert abs(shifted - base) <= 1e-12
            assert abs(scaled - base) <= 1e-12

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDataError):
            nrmse(mk_uniform([2.0, 2.0, 2.0]), mk_uniform([2.0, 2.0, 2.0]))

    def test_one_sample_rejected(self):
        one = mk_uniform([1.0])
        with pytest.raises(ValidationError, match="nrmse needs at least 2 samples"):
            nrmse(one, one)
        with pytest.raises(ValidationError,
                           match="cumulative nrmse needs at least 2 samples"):
            cumulative_nrmse(one, one, 1)

    def test_grid_mismatch_rejected(self):
        m = mk_uniform([0.0, 1.0, 2.0], t0=0.0, dt=1.0)
        with pytest.raises(ValidationError, match="length"):
            nrmse(m, mk_uniform([0.0, 1.0], t0=0.0, dt=1.0))
        with pytest.raises(ValidationError, match="grid"):
            nrmse(m, mk_uniform([0.0, 1.0, 2.0], t0=0.5, dt=1.0))
        with pytest.raises(ValidationError, match="grid"):
            nrmse(m, mk_uniform([0.0, 1.0, 2.0], t0=0.0, dt=0.5))

    def test_deterministic(self, rng):
        m, s = random_series_pair(rng, n=200)
        assert nrmse(m, s) == nrmse(m, s)


@st.composite
def _window_counts(draw):
    """``(n, k)``: up to 10**6 samples, and k of 1, 2, n - 1, n or any in [1, n]."""
    n = draw(st.integers(1, 10**6))
    edges = [k for k in (1, 2, n - 1, n) if 1 <= k <= n]
    return n, draw(st.sampled_from(edges) | st.integers(1, n))


class TestWindowEnds:
    @settings(max_examples=100, deadline=None, database=None)
    @given(_window_counts())
    def test_ends_are_pythons_round(self, counts):
        n, k = counts
        ends = _window_ends(n, k)
        assert ends.dtype == np.int64
        assert ends.tolist() == [round(j * n / k) for j in range(1, k + 1)]


class TestCumulativeNrmse:
    def test_boundaries_for_the_standard_layout(self):
        m = mk_uniform(np.sin(np.arange(4700) * 0.01))
        s = mk_uniform(np.sin(np.arange(4700) * 0.01) + 0.1)
        w = cumulative_nrmse(m, s, 10)
        assert w.boundaries == tuple(470 * j for j in range(1, 11))

    def test_boundaries_non_divisible(self):
        m = mk_uniform(np.sin(np.arange(10)))
        s = mk_uniform(np.sin(np.arange(10)) + 0.5)
        assert cumulative_nrmse(m, s, 3).boundaries == (3, 7, 10)
        # Half-sample boundaries resolve by round-half-to-even.
        assert cumulative_nrmse(m, s, 4).boundaries == (2, 5, 8, 10)

    def test_last_window_equals_full_bitwise(self, rng):
        for _ in range(100):
            m, s = random_series_pair(rng, n=rng.randint(10, 200))
            k = rng.randint(1, 8)
            w = cumulative_nrmse(m, s, k)
            assert w.scores[-1] == nrmse(m, s)

    def test_last_window_equals_full_bitwise_measured_variant(self, rng):
        m, s = random_series_pair(rng, n=97)
        w = cumulative_nrmse(m, s, 7, MeanFrom.MEASURED)
        assert w.scores[-1] == nrmse(m, s, MeanFrom.MEASURED)

    def test_prefixes_match_independent_oracle(self, rng):
        for _ in range(30):
            m, s = random_series_pair(rng, n=rng.randint(12, 120))
            w = cumulative_nrmse(m, s, 6)
            for b, score in zip(w.boundaries, w.scores):
                assert score == pytest.approx(
                    oracle_nrmse(m.values[:b], s.values[:b]), rel=1e-11)

    def test_single_window_is_full_series(self, rng):
        m, s = random_series_pair(rng, n=50)
        w = cumulative_nrmse(m, s, 1)
        assert w.boundaries == (50,)
        assert w.scores[0] == nrmse(m, s)

    def test_identity_gives_all_zero_scores(self):
        m = mk_uniform(np.cos(np.arange(100) * 0.3))
        w = cumulative_nrmse(m, m, 5)
        assert w.scores.tolist() == [0.0] * 5

    def test_degenerate_prefix_carries_window_index(self):
        # First quarter constant and equal on both sides: the window-1
        # denominator vanishes while later windows would be fine.
        vals_m = [5.0] * 10 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        vals_s = [5.0] * 10 + [1.5, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        with pytest.raises(DegenerateDataError) as info:
            cumulative_nrmse(mk_uniform(vals_m), mk_uniform(vals_s), 2)
        assert info.value.window == 1

    def test_one_sample_prefix_degenerates(self):
        # n_windows == N makes the first prefix a single sample; under the
        # measured-mean normalization its denominator is identically zero.
        m = mk_uniform([1.0, 2.0, 3.0])
        s = mk_uniform([1.1, 2.1, 3.1])
        with pytest.raises(DegenerateDataError) as info:
            cumulative_nrmse(m, s, 3, MeanFrom.MEASURED)
        assert info.value.window == 1

    def test_window_count_validation(self):
        m = mk_uniform([1.0, 2.0, 3.0])
        s = mk_uniform([1.5, 2.5, 3.5])
        with pytest.raises(ValidationError):
            cumulative_nrmse(m, s, 0)
        with pytest.raises(ValidationError):
            cumulative_nrmse(m, s, 4)

    def test_hand_oracle_two_windows(self):
        w = cumulative_nrmse(mk_uniform([0.0, 1.0, 0.0, 1.0]),
                             mk_uniform([0.0, 1.0, 1.0, 1.0]), 2)
        assert w.boundaries == (2, 4)
        assert w.scores[0] == 0.0
        assert w.scores[1] == pytest.approx(0.8944271909999159, abs=1e-15)


def _exact_prefix_scores(y, yhat, boundaries, mean_from):
    """Exact scores in rational arithmetic, rounded to the nearest double.

    The square root is taken at 60 significant digits before that rounding.
    """
    src = yhat if mean_from is MeanFrom.SIMULATED else y
    s_src = s_y = s_yy = s_err = Fraction(0)
    out = []
    ends = set(boundaries)
    for n, (a, b, c) in enumerate(zip(y, yhat, src), start=1):
        fa, fb = Fraction(a), Fraction(b)
        s_src += Fraction(c)
        s_y += fa
        s_yy += fa * fa
        s_err += (fa - fb) * (fa - fb)
        if n in ends:
            mean = s_src / n
            den = s_yy - 2 * mean * s_y + n * mean * mean
            ratio = s_err / den
            with localcontext() as ctx:
                ctx.prec = 60
                out.append(float((Decimal(ratio.numerator)
                                  / Decimal(ratio.denominator)).sqrt()))
    return out


class TestSinglePassScorer:
    """The one-pass cumulative scorer against two independent references."""

    REL_TOL = 1e-12

    @pytest.mark.parametrize("mean_from", list(MeanFrom))
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_two_pass_reference_at_every_sample(self, rng, mean_from,
                                                        offset):
        n = 300
        y = [offset + rng.gauss(0.0, 1.0) for _ in range(n)]
        yhat = [v + rng.gauss(0.0, 0.3) for v in y]
        # A one-sample prefix has no spread about its own mean, so the
        # measured-mean variant starts at the second sample.
        first = 1 if mean_from is MeanFrom.SIMULATED else 2
        bounds = range(first, n + 1)
        scores = _prefix_scores(y, yhat, bounds, mean_from)
        assert len(scores) == len(bounds)
        for b, score in zip(bounds, scores):
            assert score == pytest.approx(
                two_pass_nrmse(y, yhat, b, mean_from), rel=self.REL_TOL), b

    def test_within_a_few_ulp_of_exact_arithmetic(self):
        from jerklab import IntegratorConfig, Method, simulate

        def run(method, step):
            return simulate(IntegratorConfig(
                method=method, t_end=40.0, step=step, output_points=600)).xdd

        measured = run(Method.RK4, 1e-3)
        candidates = [run(Method.RK4, 4e-3), run(Method.EULER, 1e-3),
                      run(Method.RK45, 1e-3)]
        errors = []
        for sim in candidates:
            for mean_from in MeanFrom:
                w = cumulative_nrmse(measured, sim, 30, mean_from)
                exact = _exact_prefix_scores(measured.values, sim.values,
                                             w.boundaries, mean_from)
                for score, ref in zip(w.scores, exact):
                    errors.append(abs(score - ref) / math.ulp(ref))
        # Measured on these 180 boundaries, in ulps from the correctly
        # rounded value (max, mean): this pass, one root of the ratio, 1,
        # 0.21; this pass with a root of each sum 1, 0.43; the former
        # two-pass scorer 1, 0.40; an uncompensated Welford pass 3, 0.95.
        assert len(errors) == 180
        assert max(errors) <= 4.0
        assert sum(errors) / len(errors) <= 0.3

    def test_degenerate_full_series_has_no_window_index(self):
        m = mk_uniform([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateDataError) as info:
            nrmse(m, mk_uniform([2.0, 2.0, 2.0]))
        assert info.value.window is None
        assert "cumulative window" not in str(info.value)

    def test_first_degenerate_window_is_named(self):
        # A constant measurement is spread about the simulated mean 4.0 of
        # window 1, but equals the simulated mean 5.0 of window 2.
        m = mk_uniform([5.0] * 4)
        s = mk_uniform([4.0, 4.0, 6.0, 6.0])
        with pytest.raises(DegenerateDataError, match="window 2") as info:
            cumulative_nrmse(m, s, 2)
        assert info.value.window == 2


class TestOverflowingScores:
    """Finite samples whose squares overflow double precision."""

    HUGE = 1e200

    def test_nrmse_is_a_data_error(self):
        m = mk_uniform([self.HUGE * math.sin(k) for k in range(40)])
        s = mk_uniform([self.HUGE * math.cos(k) for k in range(40)])
        for mean_from in MeanFrom:
            with pytest.raises(DataError, match="NRMSE is not finite") as info:
                nrmse(m, s, mean_from)
            assert not isinstance(info.value, ValidationError)

    def test_cumulative_names_the_first_overflowing_window(self):
        # Windows end at samples 10, 20, 30 and 40; the huge samples start
        # at sample 21, so windows 1 and 2 score and window 3 overflows.
        scale = [1.0] * 20 + [self.HUGE] * 20
        m = mk_uniform([c * math.sin(k) for k, c in enumerate(scale)])
        s = mk_uniform([c * math.cos(k) for k, c in enumerate(scale)])
        with pytest.raises(DataError, match="in cumulative window 3 is not finite"):
            cumulative_nrmse(m, s, 4)
        with pytest.raises(DataError, match="window 3"):
            prediction_horizon(m, s, threshold=1.0, n_windows=4)

    def test_identical_series_still_score_zero(self):
        m = mk_uniform([self.HUGE * math.sin(k) for k in range(40)])
        for mean_from in MeanFrom:
            assert_bit_equal(nrmse(m, m, mean_from), 0.0, mean_from.value)
            windowed = cumulative_nrmse(m, m, 4, mean_from)
            assert windowed.scores.tolist() == [0.0, 0.0, 0.0, 0.0]


class TestScoreRoundings:
    """The score is the root of num/den where that ratio is a normal float,
    and a root of each sum where the ratio overflows or is subnormal.

    Two samples scored about the measured mean, y = (0, c) and
    yhat = (d, c), give num = d*d and, for a power of two c, den = c*c/2
    exactly."""

    @staticmethod
    def _score_and_sums(c, d):
        score = nrmse(mk_uniform([0.0, c]), mk_uniform([d, c]), MeanFrom.MEASURED)
        return score, d * d, c * c / 2

    def test_normal_ratio_takes_one_root(self):
        score, num, den = self._score_and_sums(2.0 ** 60, 2.209278197011611)
        assert sys.float_info.min <= num / den < math.inf
        assert math.sqrt(num / den) != math.sqrt(num) / math.sqrt(den)
        assert_bit_equal(score, math.sqrt(num / den))

    def test_subnormal_ratio_takes_a_root_of_each_sum(self):
        # num/den is about 1.5e-320, where a subnormal keeps 14 bits.
        score, num, den = self._score_and_sums(2.0 ** 60, 1e-142)
        assert 0.0 < num / den < sys.float_info.min
        assert_bit_equal(score, math.sqrt(num) / math.sqrt(den))
        assert abs(math.sqrt(num / den) / score - 1.0) > 1e-6

    def test_overflowing_ratio_takes_a_root_of_each_sum(self):
        # num is finite and den tiny: the ratio overflows, the score does not.
        score, num, den = self._score_and_sums(2.0 ** -100, 1e154)
        assert num < math.inf and num / den == math.inf
        assert_bit_equal(score, math.sqrt(num) / math.sqrt(den))
        assert score < math.inf


#: Values whose sums and squares stress the running sums: signed zeros,
#: subnormals, the normal minimum, and magnitudes whose squares overflow.
_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, sys.float_info.min,
             1e-300, -1e-300, 1e16, -1e16, 1e200, -1e200, 1e300, -1e300,
             1.0, -1.0)
_SCALES = (1.0, 1e-8, 1e8, 1e-300, 1e-310, 1e200, 1e300)


def _draw_values(rng, n):
    kind = rng.randrange(4)
    if kind == 0:  # a constant series
        return [rng.choice(_SPECIALS + (rng.gauss(0.0, 1.0),))] * n
    if kind == 1:
        return [rng.choice(_SPECIALS) if rng.random() < 0.5
                else rng.gauss(0.0, 1.0) for _ in range(n)]
    if kind == 2:  # cancelling terms, where the order of additions shows
        return [rng.choice((1e16, -1e16)) + rng.gauss(0.0, 1.0)
                for _ in range(n)]
    scale = rng.choice(_SCALES)
    offset = rng.choice((0.0, 0.0, 1e3 * scale, -1e8))
    return [offset + scale * rng.gauss(0.0, 1.0) for _ in range(n)]


def _draw_case(rng):
    """Arguments for one scorer call: series, boundaries, mean source and
    whether windows are named."""
    n = rng.randint(1, 48)
    y = _draw_values(rng, n)
    pick = rng.randrange(4)
    if pick == 0:
        yhat = list(y)
    elif pick == 1:
        yhat = [v + abs(v) * rng.gauss(0.0, 1e-3) for v in y]
    else:
        yhat = _draw_values(rng, n)
    bounds = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    return y, yhat, bounds, rng.choice(list(MeanFrom)), rng.random() < 0.8


def _outcome(scorer, *args):
    """The scores' exact bits, or the error's type, message and window."""
    try:
        return [s.hex() for s in scorer(*args)]
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "window", "no window")


class TestArrayPassesMatchTheLoop:
    """The array-pass scorer against the frozen loop it replaced."""

    def test_seeded_cases_are_bit_identical(self, rng):
        kinds = {"scores": 0, DegenerateDataError: 0, DataError: 0}
        for case in range(6000):
            y, yhat, bounds, mean_from, windowed = _draw_case(rng)
            expected = _outcome(reference_prefix_scores, y, yhat, bounds,
                                mean_from, windowed)
            if case % 2:  # production passes arrays; tests pass lists
                y, yhat = np.array(y), np.array(yhat)
            got = _outcome(_prefix_scores, y, yhat, bounds, mean_from, windowed)
            assert got == expected, (case, bounds, mean_from)
            kinds["scores" if isinstance(got, list) else got[0]] += 1
        # The draw reaches every outcome, not only the ordinary one.
        assert min(kinds.values()) >= 300, kinds

    @pytest.mark.parametrize("mean_from", list(MeanFrom))
    def test_all_subnormal_series_is_degenerate(self, mean_from):
        # Every squared deviation underflows to 0, so the denominator does.
        y = [5e-324 * k for k in range(1, 9)]
        yhat = [1e-310 * k for k in range(1, 9)]
        with pytest.raises(DegenerateDataError,
                           match="^zero NRMSE denominator: ") as info:
            nrmse(mk_uniform(y), mk_uniform(yhat), mean_from)
        assert _outcome(reference_prefix_scores, y, yhat, [8], mean_from,
                        False) == (DegenerateDataError, str(info.value), None)

    def test_underflowing_spread_is_not_called_equal_samples(self):
        # The samples differ; only their squared deviations underflow, so
        # the message blames the spread, not equal samples.
        y = mk_uniform([5e-324 * k for k in range(1, 9)])
        yhat = mk_uniform([1e-310 * k for k in range(1, 9)])
        spread = ("the measured samples' spread about the normalizing mean "
                  "{} is zero or below double precision")
        with pytest.raises(DegenerateDataError) as info:
            nrmse(y, yhat)
        assert str(info.value) == ("zero NRMSE denominator: "
                                   + spread.format("4.5e-310"))
        with pytest.raises(DegenerateDataError) as info:
            cumulative_nrmse(y, yhat, n_windows=2)
        assert str(info.value) == ("zero NRMSE denominator in cumulative "
                                   "window 1: " + spread.format("2.5e-310"))
        assert info.value.window == 1

    @staticmethod
    def _loop_partials(values):
        acc, partials = 0.0, []
        for v in values:
            acc += v
            partials.append(acc)
        return partials

    def test_accumulate_adds_left_to_right(self, rng):
        # Left to right, each 1.0 is lost against 1e16 and the total is 0.0;
        # a pairwise or reordered sum keeps some of them.
        cancelling = [1.0, 1e16, -1e16] * 1000
        partials = self._loop_partials(cancelling)
        assert partials[-1] == 0.0 and math.fsum(cancelling) == 1000.0
        spread = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-8, 8)
                  for _ in range(4000)]
        for values in (cancelling, spread):
            got = np.add.accumulate(np.array(values)).tolist()
            assert ([v.hex() for v in got]
                    == [v.hex() for v in self._loop_partials(values)])


_PAIR = (mk_uniform([0.0, 1.0, 3.0, 2.0, 5.0, 4.0]),
         mk_uniform([1.0, 0.0, 2.0, 4.0, 3.0, 6.0]))
_TRACE = mk_ts([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
_INTEGER_ARGUMENTS = {
    "output_points": (lambda v: IntegratorConfig(output_points=v),
                      "output_points must be an integer >= 2, got {!r}"),
    "CommonGrid.n": (lambda v: CommonGrid(t0=0.0, t1=1.0, n=v),
                     "n must be an integer >= 2, got {!r}"),
    "build_common_grid": (lambda v: build_common_grid([_TRACE], v),
                          "n must be an integer >= 2, got {!r}"),
    "cumulative_nrmse": (lambda v: cumulative_nrmse(*_PAIR, v),
                         "n_windows must be an integer >= 1, got {!r}"),
    "prediction_horizon": (lambda v: prediction_horizon(*_PAIR, 1.0, v),
                           "n_windows must be an integer >= 1, got {!r}"),
    "build_comparison": (lambda v: build_comparison(_TRACE, {"c": _TRACE},
                                                    n_windows=v),
                         "n_windows must be an integer >= 1, got {!r}"),
    "build_comparison.grid_points": (
        lambda v: build_comparison(_TRACE, {"c": _TRACE}, grid_points=v),
        "grid_points must be an integer >= 2, got {!r}"),
    "fit_start": (lambda v: divergence_rate(*_PAIR, v, 4),
                  "fit indices must be integers"),
    "fit_end": (lambda v: divergence_rate(*_PAIR, 0, v),
                "fit indices must be integers"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, None, 2.5, "3"])
@pytest.mark.parametrize("where", sorted(_INTEGER_ARGUMENTS))
def test_non_integer_count_is_a_validation_error(where, value):
    call, message = _INTEGER_ARGUMENTS[where]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == message.format(value)


_FLOAT_ARGUMENTS = {
    **{f"IntegratorConfig.{name}": (lambda v, name=name: IntegratorConfig(**{name: v}),
                                    f"{name} must be finite, got {{!r}}")
       for name in ("t_start", "t_end", "step", "abs_tol", "rel_tol")},
    "SystemState.x": (lambda v: SystemState(v, 0.0, 0.0), "x must be finite, got {!r}"),
    "SystemState.xdd": (lambda v: SystemState(0.0, 0.0, v), "xdd must be finite, got {!r}"),
    "JerkParams.a": (lambda v: JerkParams(a=v), "a must be finite, got {!r}"),
    "CommonGrid.t0": (lambda v: CommonGrid(t0=v, t1=1.0, n=3),
                      "grid endpoints must be finite"),
    "CommonGrid.t1": (lambda v: CommonGrid(t0=0.0, t1=v, n=3),
                      "grid endpoints must be finite"),
}


@pytest.mark.parametrize("value, shown", [
    (math.nan, "nan"), (-math.inf, "-inf"), (np.float64(math.nan), "nan"),
    (None, "None"), ("abc", "'abc'"), (10**400, repr(10**400)),
], ids=["nan", "-inf", "np.float64(nan)", "None", "abc", "10**400"])
@pytest.mark.parametrize("where", sorted(_FLOAT_ARGUMENTS))
def test_non_finite_value_is_a_validation_error(where, value, shown):
    call, message = _FLOAT_ARGUMENTS[where]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == message.replace("{!r}", shown)


# Values of the wrong type for floats, and non-integers for indices: what a
# bare isfinite or "< 0" check lets escape as another exception or lets
# through.
_FLOATS = {"None": None, "abc": "abc", "10**400": 10**400}
_INDICES = {"None": None, "abc": "abc", "nan": math.nan, "1.5": 1.5}
# Elements numpy cannot turn into float64 (a string, an int past its range
# and a complex number), and a None, which numpy reads as nan.
_NOT_REALS = {"['abc']": ["abc"], "[10**400]": [10**400], "[1j]": [1j],
              "[None]": [None]}
_UNREAL = "{} must be a 1-D sequence of real numbers within float64 range"


def _array_refusals(name: str, at: int, values: dict) -> dict:
    """The text each of ``values`` is refused with as the array argument
    ``name``: a None, at index ``at``, is named as such, not as nan."""
    return {shown: f"{name}[{at}] must be finite, got None"
            if shown.strip("[]") == "None" else _UNREAL.format(name)
            for shown in values}


_ARGUMENTS = {
    "prediction_horizon": (lambda v: prediction_horizon(*_PAIR, v),
                           "threshold must be > 0, got {!r}", _FLOATS),
    "build_comparison": (lambda v: build_comparison(_TRACE, {"c": _TRACE},
                                                    threshold=v),
                         "threshold must be > 0, got {!r}",
                         {"abc": "abc", "10**400": 10**400}),  # None: no threshold
    "UniformSeries.t0": (lambda v: UniformSeries(v, 1.0, [0.0]),
                         "t0 must be finite, got {!r}", _FLOATS),
    "UniformSeries.dt": (lambda v: UniformSeries(0.0, v, [0.0]),
                         "dt must be finite and > 0, got {!r}", _FLOATS),
    "WindowedNrmse.scores": (lambda v: WindowedNrmse(2, (0.1, v)),
                             _array_refusals("scores", 1, _FLOATS), _FLOATS),
    "TimeSeries.t": (lambda v: TimeSeries(v, [0.0]),
                     _array_refusals("t", 0, _NOT_REALS), _NOT_REALS),
    "TimeSeries.v": (lambda v: TimeSeries([0.0], v),
                     _array_refusals("v", 0, _NOT_REALS), _NOT_REALS),
    "UniformSeries.values": (lambda v: UniformSeries(0.0, 1.0, v),
                             _array_refusals("values", 0, _NOT_REALS), _NOT_REALS),
    "select_reference": (lambda v: select_reference({"{a}": v}),
                         "score for '{a}' must be finite, got {!r}", _FLOATS),
    "WindowedNrmse.samples": (lambda v: WindowedNrmse(v, (0.1, 0.2)),
                              "samples must be an integer >= 2, got {!r}", _INDICES),
}


@pytest.mark.parametrize("where, shown", [
    (where, shown) for where, (_, _, values) in sorted(_ARGUMENTS.items())
    for shown in values])
def test_argument_of_the_wrong_kind_is_a_validation_error(where, shown):
    call, message, values = _ARGUMENTS[where]
    value = values[shown]
    with pytest.raises(ValidationError) as info:
        call(value)
    if isinstance(message, dict):  # one text per value
        assert str(info.value) == message[shown]
    else:
        assert str(info.value) == message.replace("{!r}", repr(value))


# A series of the other kind: a simulated channel where a raw trace belongs,
# and a raw trace where a series on a uniform grid belongs.
_TO_TS = "; convert it with to_time_series()"
_SERIES_ARGUMENTS = {
    "build_comparison": (lambda: build_comparison(_PAIR[0], {"c": _TRACE}),
                         f"measured must be a TimeSeries, got UniformSeries{_TO_TS}"),
    "build_comparison-candidate": (
        lambda: build_comparison(_TRACE, {"b": _TRACE, "c": _PAIR[1]}),
        f"candidates['c'] must be a TimeSeries, got UniformSeries{_TO_TS}"),
    "build_common_grid": (lambda: build_common_grid([_TRACE, _PAIR[1]], 3),
                          f"traces[1] must be a TimeSeries, got UniformSeries{_TO_TS}"),
    "resample_linear": (lambda: resample_linear(_PAIR[0], CommonGrid(0.0, 2.0, 3)),
                        f"trace must be a TimeSeries, got UniformSeries{_TO_TS}"),
    "nrmse": (lambda: nrmse(_TRACE, _PAIR[1]),
              "measured must be a UniformSeries, got TimeSeries"),
    "cumulative_nrmse": (lambda: cumulative_nrmse(_PAIR[0], _TRACE, 2),
                         "simulated must be a UniformSeries, got TimeSeries"),
    "prediction_horizon": (lambda: prediction_horizon(_TRACE, _PAIR[1], 1.0),
                           "measured must be a UniformSeries, got TimeSeries"),
    "divergence_rate": (lambda: divergence_rate(_PAIR[0], _TRACE, 0, 2),
                        "b must be a UniformSeries, got TimeSeries"),
}


@pytest.mark.parametrize("where", sorted(_SERIES_ARGUMENTS))
def test_series_of_the_wrong_type_is_a_validation_error(where):
    call, message = _SERIES_ARGUMENTS[where]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


class TestEveryAcceptedMeanFromIsRead:
    """A scorer accepts a ``mean_from`` only if it reads it: each member picks
    its normalizing mean, and anything else is refused, not read as
    ``MEASURED``. The scorer twin of the integrator's
    ``TestEveryAcceptedSettingIsRead``."""

    M = mk_uniform([1.0, 2.0, 4.0, 3.0])
    S = mk_uniform([2.5, 3.0, 4.0, 4.5])
    SCORERS = {
        "nrmse": lambda m, s, mean_from: nrmse(m, s, mean_from),
        "cumulative_nrmse": lambda m, s, mean_from: cumulative_nrmse(
            m, s, 2, mean_from).scores,
        "prediction_horizon": lambda m, s, mean_from: prediction_horizon(
            m, s, 1.0, 2, mean_from),
        "build_comparison": lambda m, s, mean_from: build_comparison(
            m.to_time_series(), {"s": s.to_time_series()}, 4, 2,
            mean_from).candidate("s").windowed.scores,
    }
    #: Each scorer's result on (M, S) per member, as float.hex; unchanged
    #: since non-members were refused.
    BITS = {
        MeanFrom.SIMULATED: {
            "nrmse": "0x1.903fb21c5c8dfp-1",
            "cumulative_nrmse": ("0x1.e4cb60d55531ep-1", "0x1.903fb21c5c8dfp-1"),
            "prediction_horizon": ("0x1.8000000000000p+1", False),
            "build_comparison": ("0x1.e4cb60d55531ep-1", "0x1.903fb21c5c8dfp-1"),
        },
        MeanFrom.MEASURED: {
            "nrmse": "0x1.0c7ebc96a56f6p+0",
            "cumulative_nrmse": ("0x1.465655f122ff6p+1", "0x1.0c7ebc96a56f6p+0"),
            "prediction_horizon": ("0x0.0p+0", True),
            "build_comparison": ("0x1.465655f122ff6p+1", "0x1.0c7ebc96a56f6p+0"),
        },
    }

    @staticmethod
    def _bits(result):
        if isinstance(result, float):
            return result.hex()
        if isinstance(result, HorizonResult):
            return (result.time.hex(), result.exceeded)
        return tuple(v.hex() for v in result)

    @pytest.mark.parametrize("value", ["simulated", "measured", None, Method.RK4],
                             ids=str)
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_a_non_member_is_refused(self, scorer, value):
        with pytest.raises(ValidationError) as info:
            self.SCORERS[scorer](self.M, self.S, value)
        assert str(info.value) == f"mean_from must be a MeanFrom, got {value!r}"

    @pytest.mark.parametrize("mean_from", list(MeanFrom), ids=lambda m: m.value)
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_each_member_gives_its_pinned_bits(self, scorer, mean_from):
        result = self.SCORERS[scorer](self.M, self.S, mean_from)
        assert self._bits(result) == self.BITS[mean_from][scorer]


class TestWindowedNrmseValidation:
    def test_rejects_fewer_samples_than_scores(self):
        with pytest.raises(ValidationError) as info:
            WindowedNrmse(samples=2, scores=(0.1, 0.2, 0.3))
        assert str(info.value) == "samples must be an integer >= 3, got 2"

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError) as info:
            WindowedNrmse(samples=0, scores=(0.1,))
        assert str(info.value) == "samples must be an integer >= 1, got 0"

    def test_rejects_empty_scores(self):
        for samples in (0, 5):
            with pytest.raises(ValidationError) as info:
                WindowedNrmse(samples=samples, scores=())
            assert str(info.value) == "scores must be non-empty and >= 0"

    def test_rejects_bad_scores(self):
        with pytest.raises(ValidationError) as info:
            WindowedNrmse(samples=2, scores=(0.1, -0.2))
        assert str(info.value) == "scores must be non-empty and >= 0"
        with pytest.raises(ValidationError) as info:
            WindowedNrmse(samples=2, scores=(0.1, math.nan))
        assert str(info.value) == "scores[1] must be finite, got nan"

    def test_scores_are_one_read_only_array(self):
        source = [0.3, 0.1, 0.2]
        w = WindowedNrmse(samples=10, scores=source)
        assert w.scores.dtype == np.float64 and w.scores.ndim == 1
        assert not w.scores.flags.writeable
        with pytest.raises(ValueError):
            w.scores[0] = 0.0
        source[0] = 9.0  # a copy the caller cannot reach
        assert w.scores.tolist() == [0.3, 0.1, 0.2]
        m = mk_uniform(np.cos(np.arange(50) * 0.3))
        s = mk_uniform(np.sin(np.arange(50) * 0.3))
        assert not cumulative_nrmse(m, s, 5).scores.flags.writeable
        scores = _prefix_scores(m.values, s.values, [10, 50], MeanFrom.SIMULATED)
        assert scores.dtype == np.float64 and not scores.flags.writeable

    def test_boundaries_are_derived_python_ints(self):
        w = WindowedNrmse(samples=np.int64(10), scores=(0.1, 0.2, 0.3, 0.4))
        assert type(w.samples) is int and w.samples == 10
        assert w.boundaries == (2, 5, 8, 10)  # round(2.5) and round(7.5) go to even
        assert all(type(b) is int for b in w.boundaries)
        with pytest.raises(TypeError):
            WindowedNrmse(samples=10, scores=(0.1,), boundaries=(10,))

    def test_equality_is_identity(self):
        w = WindowedNrmse(samples=4, scores=(0.0, 0.5))
        assert w == w
        assert w != WindowedNrmse(samples=4, scores=(0.0, 0.5))


class TestSelectReference:
    def test_published_fixture(self):
        scores = {1: 1.4752, 2: 1.5572, 3: 1.4841, 4: 1.4748}
        assert select_reference(scores) == 4

    def test_singleton(self):
        assert select_reference({"only": 3.2}) == "only"

    def test_tie_breaks_lexicographically(self):
        assert select_reference({"b": 1.0, "a": 1.0, "c": 2.0}) == "a"

    def test_invariant_under_monotone_transforms(self, rng):
        for _ in range(50):
            n = rng.randint(2, 9)
            scores = {f"cand-{i}": rng.uniform(0.1, 5.0) for i in range(n)}
            winner = select_reference(scores)
            for f in (math.exp, lambda x: 3.0 * x + 7.0, lambda x: x ** 3):
                assert select_reference(
                    {k: f(v) for k, v in scores.items()}) == winner

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValidationError):
            select_reference({})
        with pytest.raises(ValidationError):
            select_reference({"a": math.nan})


class TestPredictionHorizon:
    DT = 0.25

    def _measured(self, n=40):
        return mk_uniform(
            [math.sin(k) + 2.0 * math.cos(2.0 * k) for k in range(n)],
            dt=self.DT)

    def test_perfect_match_never_exceeds(self):
        m = self._measured()
        r = prediction_horizon(m, m, threshold=1.0, n_windows=4)
        assert not r.exceeded
        assert r.time == m.span
        assert cumulative_nrmse(m, m, 4).scores.tolist() == [0.0] * 4

    def test_crossing_mid_series(self):
        # Candidate equals the measurement for three quarters, then jumps:
        # scores are (0, 0, 0, big) and the horizon is the end of window 3.
        m = self._measured()
        sim_vals = list(m.values)
        for k in range(30, 40):
            sim_vals[k] += 5.0
        s = mk_uniform(sim_vals, dt=self.DT)
        r = prediction_horizon(m, s, threshold=1.0, n_windows=4)
        w = cumulative_nrmse(m, s, 4)
        assert w.boundaries == (10, 20, 30, 40)
        assert w.scores[:3].tolist() == [0.0, 0.0, 0.0]
        assert w.scores[3] > 1.0
        assert r.exceeded
        assert r.time == (30 - 1) * self.DT

    def test_first_window_exceeds(self):
        m = self._measured()
        s = mk_uniform([v + 100.0 * (-1.0) ** k for k, v in
                        enumerate(m.values)], dt=self.DT)
        r = prediction_horizon(m, s, threshold=1.0, n_windows=4)
        assert r.exceeded
        assert r.time == 0.0

    def test_threshold_comparison_is_strict(self):
        # Score exactly at the threshold does not count as exceeding it.
        m = mk_uniform([1.0, 2.0, 3.0])
        s = mk_uniform([2.0, 2.0, 2.0])
        score = nrmse(m, s)
        assert score == 1.0  # exact: numerator and denominator coincide
        r = prediction_horizon(m, s, threshold=1.0, n_windows=1)
        assert not r.exceeded
        assert r.time == m.span

    def test_threshold_validation(self):
        m = self._measured()
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="threshold"):
                prediction_horizon(m, m, threshold=bad)

    def test_finer_rerun_tracks_at_least_as_long(self):
        # Derived from simulated truth: rerunning the generator with a finer
        # step must track it at least as long as a coarser rerun does.
        from jerklab import IntegratorConfig, Method, simulate

        def run(method, step):
            return simulate(IntegratorConfig(
                method=method, t_end=50.0, step=step, output_points=501))

        measured = run(Method.RK4, 1e-3)
        fine = run(Method.EULER, 5e-4)
        coarse = run(Method.EULER, 2e-3)
        h_fine = prediction_horizon(measured.xdd, fine.xdd,
                                    threshold=0.05, n_windows=10)
        h_coarse = prediction_horizon(measured.xdd, coarse.xdd,
                                      threshold=0.05, n_windows=10)
        assert h_fine.time >= h_coarse.time
        # Cross-check both horizons by direct inspection of the profiles.
        for r, sim in ((h_fine, fine), (h_coarse, coarse)):
            w = cumulative_nrmse(measured.xdd, sim.xdd, 10)
            above = [j for j, sc in enumerate(w.scores) if sc > 0.05]
            if above:
                assert r.exceeded
                j = above[0]
                expected = 0.0 if j == 0 else (
                    (w.boundaries[j - 1] - 1) * 0.1)
                assert r.time == expected
            else:
                assert not r.exceeded


class TestDivergenceRate:
    def test_recovers_planted_positive_exponent(self):
        n, dt = 501, 0.01
        t = [k * dt for k in range(n)]
        a = mk_uniform([0.0] * n, dt=dt)
        b = mk_uniform([1e-6 * math.exp(0.5 * tk) for tk in t], dt=dt)
        rate = divergence_rate(a, b, 0, n - 1)
        assert rate == pytest.approx(0.5, rel=1e-9)

    def test_recovers_planted_negative_exponent(self):
        n, dt = 501, 0.01
        t = [k * dt for k in range(n)]
        a = mk_uniform([0.0] * n, dt=dt)
        b = mk_uniform([2e-3 * math.exp(-0.2 * tk) for tk in t], dt=dt)
        rate = divergence_rate(a, b, 0, n - 1)
        assert rate == pytest.approx(-0.2, rel=1e-9)

    def test_matches_polyfit(self):
        n, dt = 301, 0.02
        t = np.arange(n) * dt
        sep = 1e-8 * np.exp(0.37 * t) * (1.0 + 0.01 * np.sin(9.0 * t))
        a = mk_uniform(np.zeros(n), dt=dt)
        b = mk_uniform(sep, dt=dt)
        rate = divergence_rate(a, b, 0, n - 1)
        slope = np.polyfit(t, np.log(sep), 1)[0]
        assert rate == pytest.approx(float(slope), rel=1e-9)

    def test_sub_range_fit(self):
        n, dt = 200, 0.1
        a = mk_uniform([0.0] * n, dt=dt)
        b = mk_uniform([1e-9 * math.exp(0.25 * k * dt) for k in range(n)],
                       dt=dt)
        rate = divergence_rate(a, b, 50, 150)
        assert rate == pytest.approx(0.25, rel=1e-9)

    def test_identical_series_degenerate(self):
        a = mk_uniform([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateSeparationError) as info:
            divergence_rate(a, a, 0, 3)
        assert info.value.index == 0

    def test_zero_separation_mid_range(self):
        vals_b = [1e-6 * math.exp(0.1 * k) for k in range(50)]
        vals_b[25] = 0.0
        a = mk_uniform([0.0] * 50)
        b = mk_uniform(vals_b)
        with pytest.raises(DegenerateSeparationError) as info:
            divergence_rate(a, b, 0, 49)
        assert info.value.index == 25

    def test_fit_range_validation(self):
        a = mk_uniform([0.0] * 10)
        b = mk_uniform([1.0] * 10)
        with pytest.raises(ValidationError, match="too short"):
            divergence_rate(a, b, 3, 4)
        with pytest.raises(ValidationError, match="outside"):
            divergence_rate(a, b, -1, 5)
        with pytest.raises(ValidationError, match="outside"):
            divergence_rate(a, b, 0, 10)
        with pytest.raises(ValidationError, match="integer"):
            divergence_rate(a, b, 0.5, 9)

    @pytest.mark.parametrize("t0,dt", [(1e16, 0.5), (0.0, 1e-200)],
                             ids=["times_round_to_t0", "deviations_underflow"])
    def test_times_without_spread_name_the_fit_range(self, t0, dt):
        # Every time rounds to 1e16, or each squared deviation underflows to
        # 0: the least-squares denominator is 0 and the slope undefined.
        a = mk_uniform([0.0] * 4, t0=t0, dt=dt)
        b = mk_uniform([1e-6, 2e-6, 4e-6, 8e-6], t0=t0, dt=dt)
        with pytest.raises(DataError) as info:
            divergence_rate(a, b, 0, 2)
        assert type(info.value) is DataError
        assert str(info.value) == ("fit range [0, 2] has times with no spread "
                                   "in double precision: the slope is undefined")

    def test_deterministic(self):
        n = 100
        a = mk_uniform([0.0] * n)
        b = mk_uniform([1e-6 * math.exp(0.1 * k) for k in range(n)])
        assert divergence_rate(a, b, 0, n - 1) == divergence_rate(a, b, 0, n - 1)

    def test_readme_pair_keeps_its_bits(self):
        # The README's pair: two default runs 1e-10 apart in xdd. The slope
        # goes through math.log, so these bits hold for this platform's libm.
        params = JerkParams(a=2.03)
        a = simulate(IntegratorConfig(), params).xdd
        b = simulate(IntegratorConfig(
            initial_state=SystemState(0.0, 0.0, 0.1 + 1e-10)), params).xdd
        rate = divergence_rate(a, b, fit_start=100, fit_end=900)
        assert rate.hex() == "0x1.a657438fcc6cep-4"


class TestBuildComparison:
    T = [k * 0.1 for k in range(101)]

    def _measured(self):
        return mk_ts(self.T, [math.sin(t) for t in self.T], source_id="bench")

    def _candidates(self):
        return {
            "close": mk_ts(self.T, [math.sin(t) + 1e-3 * math.cos(3 * t)
                                    for t in self.T]),
            "rough": mk_ts(self.T, [math.sin(t) + 0.5 * math.cos(t)
                                    for t in self.T]),
        }

    def test_scores_and_reference(self):
        report = build_comparison(self._measured(), self._candidates(),
                                  grid_points=101, n_windows=5)
        assert report.reference_id == "close"
        assert [c.id for c in report.candidates] == ["close", "rough"]
        close = report.candidate("close")
        rough = report.candidate("rough")
        assert close.full_nrmse < rough.full_nrmse
        for c in (close, rough):
            assert c.full_nrmse == c.windowed.scores[-1]
            assert c.horizon is None
        assert report.n_windows == 5
        assert report.grid.n == 101

    def test_matches_hand_composed_pipeline(self):
        from jerklab import build_common_grid, resample_linear

        measured = self._measured()
        cands = self._candidates()
        report = build_comparison(measured, cands, grid_points=101,
                                  n_windows=5)
        grid = build_common_grid([measured, *cands.values()], 101)
        m = resample_linear(measured, grid)
        for cid, trace in cands.items():
            sim = resample_linear(trace, grid)
            assert report.candidate(cid).full_nrmse == nrmse(m, sim)

    def test_each_keyword_setting_changes_the_scores(self):
        # The twin of the CLI's TestEveryAcceptedKeyIsRead: each keyword
        # setting, away from its default, changes some candidate's scores or
        # horizon.
        other = {"grid_points": 301, "n_windows": 7,
                 "mean_from": MeanFrom.MEASURED, "threshold": 0.1}
        keywords = [p for p in inspect.signature(build_comparison).parameters.values()
                    if p.default is not p.empty]
        assert [p.name for p in keywords] == list(other)

        def scored(**settings):
            report = build_comparison(self._measured(), self._candidates(), **settings)
            return repr([(c.windowed.scores.tolist(), c.horizon)
                         for c in report.candidates])

        before = scored()
        for p in keywords:
            assert other[p.name] != p.default, p.name
            assert scored(**{p.name: other[p.name]}) != before, p.name

    def test_horizon_included_when_threshold_given(self):
        report = build_comparison(self._measured(), self._candidates(),
                                  grid_points=101, n_windows=5, threshold=0.1)
        for c in report.candidates:
            assert isinstance(c.horizon, HorizonResult)
        assert report.candidate("close").horizon.time >= \
            report.candidate("rough").horizon.time

    def test_each_candidate_scored_once(self, monkeypatch):
        calls = []
        real = metrics.cumulative_nrmse

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "cumulative_nrmse", counting)
        report = build_comparison(self._measured(), self._candidates(),
                                  grid_points=101, n_windows=5, threshold=0.1)
        assert len(calls) == len(report.candidates) == 2
        assert len({id(sim) for sim in calls}) == 2

    def test_horizons_equal_standalone_prediction_horizon(self):
        from jerklab import build_common_grid, resample_linear

        measured = self._measured()
        cands = self._candidates()
        for threshold in (1e-4, 0.1, 0.5, 10.0):
            report = build_comparison(measured, cands, grid_points=101,
                                      n_windows=5, threshold=threshold)
            grid = build_common_grid([measured, *cands.values()], 101)
            m = resample_linear(measured, grid)
            for cid, trace in cands.items():
                sim = resample_linear(trace, grid)
                got = report.candidate(cid).horizon
                want = prediction_horizon(m, sim, threshold, n_windows=5)
                assert got.exceeded == want.exceeded
                assert_bit_equal(got.time, want.time, f"{cid}@{threshold}")
                got, want = report.candidate(cid).windowed, cumulative_nrmse(m, sim, 5)
                assert (got.samples, got.boundaries) == (want.samples, want.boundaries)
                assert got.scores.tobytes() == want.scores.tobytes()

    def test_bad_threshold_rejected_before_scoring(self, monkeypatch):
        monkeypatch.setattr(metrics, "cumulative_nrmse", None)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="threshold"):
                build_comparison(self._measured(), self._candidates(),
                                 grid_points=101, threshold=bad)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError):
            build_comparison(self._measured(), {})

    def test_report_derives_reference_full_scores_and_window_count(self):
        profiles = {"c": (0.05, 0.2), "b": (0.1, 0.2), "a": (0.3, 0.9)}
        candidates = tuple(
            CandidateScore(id=cid, windowed=WindowedNrmse(10, (s, s, last)))
            for cid, (s, last) in profiles.items())
        report = ComparisonReport(grid=CommonGrid(0.0, 1.0, 10),
                                  mean_from=MeanFrom.SIMULATED,
                                  candidates=candidates)
        # b and c tie at the lowest full score; the smaller id wins, and the
        # first window (where c leads) plays no part.
        assert report.reference_id == "b"
        assert [c.full_nrmse for c in candidates] == [0.2, 0.2, 0.9]
        assert report.n_windows == 3
        with pytest.raises(ValidationError):
            ComparisonReport(grid=CommonGrid(0.0, 1.0, 10),
                             mean_from=MeanFrom.SIMULATED, candidates=())

    def test_unknown_candidate_lookup(self):
        report = build_comparison(self._measured(), self._candidates(),
                                  grid_points=101, n_windows=5)
        with pytest.raises(ValidationError):
            report.candidate("nope")
