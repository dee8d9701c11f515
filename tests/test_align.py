"""Tests for common-grid construction and linear resampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jerklab import (
    CommonGrid,
    ExtrapolationError,
    NoOverlapError,
    ValidationError,
    build_common_grid,
    resample_linear,
)

from conftest import mk_ts


class TestCommonGrid:
    def test_dt_and_times(self):
        g = CommonGrid(t0=0.0, t1=1.0, n=5)
        assert g.dt == 0.25
        assert list(g.times()) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_times_use_multiplicative_formula(self):
        g = CommonGrid(t0=0.3, t1=0.7, n=7)
        expected = [0.3 + k * g.dt for k in range(7)]
        assert list(g.times()) == expected

    def test_validation(self):
        with pytest.raises(ValidationError):
            CommonGrid(t0=1.0, t1=1.0, n=5)
        with pytest.raises(ValidationError):
            CommonGrid(t0=2.0, t1=1.0, n=5)
        with pytest.raises(ValidationError):
            CommonGrid(t0=0.0, t1=1.0, n=1)
        with pytest.raises(ValidationError):
            CommonGrid(t0=math.inf, t1=1.0, n=5)


class TestBuildCommonGrid:
    def test_single_trace_spans_its_domain(self):
        tr = mk_ts(np.linspace(0.0, 0.1, 50), np.zeros(50))
        g = build_common_grid([tr], 4700)
        assert g.t0 == 0.0
        assert g.t1 == 0.1
        assert g.n == 4700

    def test_intersection_of_two(self):
        a = mk_ts([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
        b = mk_ts([0.5, 1.5, 2.0], [0.0, 0.0, 0.0])
        g = build_common_grid([a, b], 2)
        assert (g.t0, g.t1) == (0.5, 1.0)
        assert list(g.times()) == [0.5, 1.0]

    def test_disjoint_domains_listed_in_error(self):
        a = mk_ts([0.0, 1.0], [0.0, 0.0], source_id="bench")
        b = mk_ts([2.0, 3.0], [0.0, 0.0], source_id="sim")
        with pytest.raises(NoOverlapError) as info:
            build_common_grid([a, b], 10)
        err = info.value
        assert err.domains == {"bench": (0.0, 1.0), "sim": (2.0, 3.0)}
        assert "bench" in str(err) and "sim" in str(err)

    def test_touching_domains_do_not_overlap(self):
        # A single shared instant is not a usable overlap (a grid needs
        # positive extent).
        a = mk_ts([0.0, 1.0], [0.0, 0.0])
        b = mk_ts([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(NoOverlapError):
            build_common_grid([a, b], 10)

    def test_unlabeled_traces_get_positional_labels(self):
        a = mk_ts([0.0, 1.0], [0.0, 0.0])
        b = mk_ts([2.0, 3.0], [0.0, 0.0])
        with pytest.raises(NoOverlapError) as info:
            build_common_grid([a, b], 10)
        assert set(info.value.domains) == {"trace-0", "trace-1"}

    def test_repeated_source_ids_get_indexed_labels(self):
        a = mk_ts([0.0, 1.0], [0.0, 0.0], source_id="x")
        b = mk_ts([2.0, 3.0], [0.0, 0.0], source_id="x")
        with pytest.raises(NoOverlapError) as info:
            build_common_grid([a, b], 10)
        assert info.value.domains == {"x": (0.0, 1.0), "x#1": (2.0, 3.0)}

    def test_no_traces(self):
        with pytest.raises(ValidationError):
            build_common_grid([], 10)

    def test_bad_n(self):
        tr = mk_ts([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            build_common_grid([tr], 1)


class TestResampleLinear:
    def test_midpoint(self):
        tr = mk_ts([0.0, 1.0], [0.0, 2.0])
        g = CommonGrid(0.0, 1.0, 3)
        out = resample_linear(tr, g)
        assert out.values.tolist() == [0.0, 1.0, 2.0]

    def test_interior_query(self):
        tr = mk_ts([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        g = CommonGrid(0.0, 2.0, 5)
        out = resample_linear(tr, g)
        # Query at 1.5 sits halfway down the descending segment.
        assert out.values.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]

    def test_knots_reproduced_bit_exactly(self):
        # Grid points that coincide with original timestamps must return the
        # original values untouched (w == 0 exactly at those points).
        t = [float(k) for k in range(11)]
        v = [math.sin(3.1 * k) * 10.0 ** ((k % 5) - 2) for k in range(11)]
        tr = mk_ts(t, v)
        g = CommonGrid(0.0, 10.0, 21)  # every second grid point is a knot
        out = resample_linear(tr, g)
        for k in range(11):
            assert out.values[2 * k].hex() == v[k].hex()

    def test_identity_when_grid_equals_knots(self):
        tr = mk_ts([0.0, 0.25, 0.5, 0.75, 1.0], [5.0, -1.0, 2.0, 7.0, 0.5])
        g = CommonGrid(0.0, 1.0, 5)
        out = resample_linear(tr, g)
        assert np.array_equal(out.values, tr.v)

    def test_values_confined_to_bracket_envelope(self, rng):
        for _ in range(300):
            n = rng.randint(2, 30)
            t, acc = [], 0.0
            for _ in range(n):
                acc += rng.uniform(0.01, 2.0)
                t.append(acc)
            v = [rng.gauss(0.0, 10.0) for _ in range(n)]
            tr = mk_ts(t, v)
            g = CommonGrid(t[0], t[-1], rng.randint(2, 50))
            out = resample_linear(tr, g)
            lo, hi = min(v), max(v)
            assert all(lo <= y <= hi for y in out.values)

    def test_monotone_data_stays_monotone(self):
        tr = mk_ts([0.0, 0.3, 1.1, 2.0], [0.0, 1.0, 4.0, 9.0])
        out = resample_linear(tr, CommonGrid(0.0, 2.0, 17))
        diffs = np.diff(out.values)
        assert np.all(diffs >= 0.0)

    def test_extrapolation_refused(self):
        tr = mk_ts([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ExtrapolationError):
            resample_linear(tr, CommonGrid(-0.5, 1.0, 4))
        with pytest.raises(ExtrapolationError):
            resample_linear(tr, CommonGrid(0.0, 1.5, 4))

    def test_extrapolation_message_uses_plain_floats(self):
        tr = mk_ts([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ExtrapolationError) as exc:
            resample_linear(tr, CommonGrid(0.0, 2.0, 3))
        assert str(exc.value) == (
            "grid [0.0, 2.0] is not contained in the trace domain [0.0, 1.0]"
        )

    def test_ulp_overhang_at_domain_edge_is_tolerated(self):
        # The multiplicative grid formula can land the last grid time a few
        # ulp past the trace end; that must clamp, not raise.
        for t0, t1, n in [(0.1, 0.1 + 0.7 / 3.0, 7), (0.3, 0.7944, 97),
                          (1.0 / 3.0, 2.0 / 3.0, 11)]:
            tr = mk_ts([t0, 0.5 * (t0 + t1), t1], [1.0, 2.0, 3.0])
            g = build_common_grid([tr], n)
            out = resample_linear(tr, g)
            assert len(out) == n
            assert out.values[0] == 1.0
            # The last grid time may sit an ulp on either side of the trace
            # end; exact knot reproduction is only promised on exact hits.
            assert out.values[-1] == pytest.approx(3.0, rel=1e-12)

    def test_meta_preserved(self):
        tr = mk_ts([0.0, 1.0], [0.0, 1.0], source_id="scope", signal="xdd")
        out = resample_linear(tr, CommonGrid(0.0, 1.0, 3))
        assert out.meta == tr.meta

    def test_output_grid_matches_request(self):
        tr = mk_ts([0.0, 2.0], [0.0, 1.0])
        g = CommonGrid(0.5, 1.5, 11)
        out = resample_linear(tr, g)
        assert out.t0 == 0.5
        assert out.dt == g.dt
        assert len(out) == 11
