"""Tests for the trace containers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jerklab import SeriesMeta, TimeSeries, UniformSeries, ValidationError

from conftest import mk_ts, mk_uniform


class TestTimeSeries:
    def test_basic(self):
        s = mk_ts([0.0, 0.5, 2.0], [1.0, -1.0, 3.0], source_id="scope")
        assert len(s) == 3
        assert s.t_start == 0.0
        assert s.t_end == 2.0
        assert s.domain == (0.0, 2.0)
        assert s.meta.source_id == "scope"

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError, match="at least 2"):
            mk_ts([0.0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            mk_ts([0.0, 1.0], [1.0])

    def test_rejects_equal_timestamps(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            mk_ts([0.0, 0.0], [1.0, 2.0])

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            mk_ts([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_value(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            mk_ts([0.0, 1.0], [1.0, bad])

    def test_rejects_nonfinite_timestamp(self):
        with pytest.raises(ValidationError, match="finite"):
            mk_ts([0.0, math.inf], [1.0, 2.0])


class TestUniformSeries:
    def test_grid_formula(self):
        s = mk_uniform([1.0, 2.0, 3.0, 4.0], t0=0.3, dt=0.1)
        # Timestamps come from one multiplication, never accumulation.
        assert s.times().tolist() == [0.3 + k * 0.1 for k in range(4)]
        assert s.t_end == s.times()[3] == 0.3 + 3 * 0.1
        assert s.span == 3 * 0.1
        assert len(s) == 4

    def test_single_sample_allowed(self):
        s = mk_uniform([5.0])
        assert s.span == 0.0
        assert s.t_end == s.t0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            mk_uniform([])

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValidationError):
            mk_uniform([1.0, 2.0], dt=dt)

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValidationError):
            mk_uniform([1.0, math.nan])

    def test_to_time_series_round_trip(self):
        s = mk_uniform([1.0, -2.0, 4.0], t0=-1.0, dt=0.25,
                       source_id="sim", signal="x")
        ts = s.to_time_series()
        assert np.array_equal(ts.t, s.times())
        assert np.array_equal(ts.v, s.values)
        assert ts.meta == s.meta

    def test_to_time_series_needs_two_samples(self):
        with pytest.raises(ValidationError):
            mk_uniform([1.0]).to_time_series()

    def test_meta_defaults(self):
        assert UniformSeries(0.0, 1.0, (1.0,)).meta == SeriesMeta()
        assert TimeSeries((0.0, 1.0), (1.0, 2.0)).meta == SeriesMeta()


class TestArrayContract:
    def test_fields_are_read_only_float64_arrays(self):
        s = mk_uniform([1.0, 2.0])
        ts = mk_ts([0.0, 1.0], [3, 4])
        for arr in (s.values, ts.t, ts.v):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            s.values[0] = 1.0
        with pytest.raises(ValueError):
            ts.v[0] = 1.0

    def test_input_is_copied(self):
        src_list = [1.0, 2.0, 3.0]
        src_arr = np.array([0.0, 1.0, 2.0])
        s = mk_uniform(src_list)
        ts = mk_ts(src_arr, src_list)
        src_list[0] = 99.0
        src_arr[0] = -99.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert ts.t.tolist() == [0.0, 1.0, 2.0]
        assert ts.v.tolist() == [1.0, 2.0, 3.0]

    def test_read_only_input_is_copied(self):
        # Read-only views of a base the caller holds: the base can be made
        # writeable again, so the constructor copies them too.
        base = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        base.flags.writeable = False
        ts = mk_ts(base[0], base[1])
        base.flags.writeable = True
        base[:] = -1.0
        assert ts.t.tolist() == [0.0, 1.0, 2.0]
        assert ts.v.tolist() == [3.0, 4.0, 5.0]
        assert not np.shares_memory(ts.t, base) and not np.shares_memory(ts.v, base)

    def test_adoption_takes_the_rows_without_a_copy(self):
        rows = np.array([[0.0, 0.5, 2.0], [1.0, -1.0, 3.0]])
        meta = SeriesMeta(source_id="scope", signal="xdd")
        ts = TimeSeries._adopt(rows, meta)
        assert ts.t.base is rows and ts.v.base is rows
        assert ts.t.tolist() == [0.0, 0.5, 2.0] and ts.v.tolist() == [1.0, -1.0, 3.0]
        assert ts.meta is meta
        assert ts.t.flags.c_contiguous and ts.v.flags.c_contiguous
        assert not (rows.flags.writeable or ts.t.flags.writeable
                    or ts.v.flags.writeable)

    @pytest.mark.parametrize("t, v", [
        ([0.0, 1.0, 2.0], [1.0, math.nan, math.inf]),
        ([0.0, -math.inf], [1.0, 2.0]),
        ([0.0, 1.0, 0.5], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0], [1.0]),
        ([], []),
    ], ids=["non-finite-v", "non-finite-t", "decreasing", "repeated", "one-row",
            "empty"])
    def test_adoption_refuses_as_the_constructor_does(self, t, v):
        with pytest.raises(ValidationError) as built:
            TimeSeries(t, v)
        with pytest.raises(ValidationError) as adopted:
            TimeSeries._adopt(np.array([t, v], dtype=np.float64), SeriesMeta())
        assert str(adopted.value) == str(built.value)

    def test_rejects_2d_input(self):
        with pytest.raises(ValidationError, match="1-D"):
            mk_uniform([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValidationError, match="1-D"):
            mk_ts([[0.0, 1.0]], [[1.0, 2.0]])

    def test_messages_name_first_bad_sample_as_plain_float(self):
        cases = [
            (lambda: mk_ts([0.0, 1.0, 2.0], [1.0, math.nan, math.inf]),
             "v[1] must be finite, got nan"),
            (lambda: mk_uniform(np.array([1.0, 2.0, -math.inf])),
             "values[2] must be finite, got -inf"),
            (lambda: mk_ts([0.0, 1.0, 0.5, 0.25], [1.0, 2.0, 3.0, 4.0]),
             "timestamps must be strictly increasing, but t[2]=0.5 <= t[1]=1.0"),
            (lambda: mk_ts(np.array([0.0, 1.0, 1.0]), [1.0, 2.0, 3.0]),
             "timestamps must be strictly increasing, but t[2]=1.0 <= t[1]=1.0"),
        ]
        for build, message in cases:
            with pytest.raises(ValidationError) as exc:
                build()
            assert str(exc.value) == message
            assert "np.float64" not in str(exc.value)

    def test_times_bit_equal_to_scalar_formula(self):
        for t0, dt, n in [(0.3, 0.1, 4), (-1.0, 1.0 / 3.0, 50),
                          (1e3, 2.13e-2, 4700)]:
            s = mk_uniform([0.0] * n, t0=t0, dt=dt)
            times = s.times()
            assert times.dtype == np.float64
            assert [v.hex() for v in times.tolist()] == [
                (t0 + k * dt).hex() for k in range(n)]
