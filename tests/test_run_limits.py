"""Run-limit tests: fixed point values, the renewal formula, and a
simulation cross-check of the mean recurrence time."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtplan import DomainError, SflQuery, mean_recurrence, sfl_r


class TestFixedPoint:
    @pytest.mark.parametrize("p,r", [(0.01, 3), (0.02, 4), (0.05, 5), (0.10, 6)])
    def test_reference_limits(self, p, r):
        assert sfl_r(SflQuery(p, 1e6))[1] == r

    def test_raw_value_two_percent(self):
        raw, r = sfl_r(SflQuery(0.02, 1e6))
        assert 3.4 < raw < 3.6
        assert r == 4

    def test_residual_at_return(self):
        raw, _ = sfl_r(SflQuery(0.02, 1e6))
        rhs = math.log((1 - 0.02**raw) / (1e6 * 0.98)) / math.log(0.02)
        assert abs(raw - rhs) < 1e-8

    def test_map_that_stops_contracting(self):
        # at p = 0.999 the map r -> log((1 - p**r) / (ex (1 - p))) / log(p)
        # cycles between 1 and 6904.3 from r = 1; the root is 692.80
        raw, r = sfl_r(SflQuery(0.999, 1000.0))
        assert 692.8 < raw < 692.81 and r == 693
        assert mean_recurrence(0.999, 692) < 1000.0 <= mean_recurrence(0.999, 693)

    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.0, 12.0))
    @example(0.999, 3.0)
    @settings(max_examples=200)
    def test_residual_anywhere(self, p, log_ex):
        ex = 10.0 ** log_ex
        if ex * (1.0 - p) <= 1.0:
            return
        raw, r = sfl_r(SflQuery(p, ex))
        rhs = math.log((1 - p**raw) / (ex * (1.0 - p))) / math.log(p)
        assert abs(raw - rhs) <= 1e-7 * max(1.0, raw)
        assert r == math.ceil(raw)

    def test_scalar_convenience_form(self):
        assert sfl_r(0.02, ex=1e6)[1] == 4

    def test_no_fixed_point(self):
        with pytest.raises(DomainError):
            sfl_r(SflQuery(0.4, 1.5))

    def test_query_validation(self):
        with pytest.raises(DomainError):
            SflQuery(1.5, 1e6)
        with pytest.raises(DomainError):
            SflQuery(0.02, 0.5)

    @given(st.floats(0.01, 0.4), st.floats(0.01, 0.4))
    @settings(max_examples=60)
    def test_monotone_in_p(self, a, b):
        lo, hi = sorted((a, b))
        assert sfl_r(SflQuery(lo, 1e6))[1] <= sfl_r(SflQuery(hi, 1e6))[1]

    @given(st.floats(0.01, 0.4), st.floats(1e3, 1e5), st.floats(1.1, 50.0))
    @settings(max_examples=60)
    def test_monotone_in_horizon(self, p, ex, factor):
        assert sfl_r(SflQuery(p, ex))[1] <= sfl_r(SflQuery(p, ex * factor))[1]


class TestMeanRecurrence:
    def test_fair_coin_single_event(self):
        assert mean_recurrence(0.5, 1) == pytest.approx(2.0, rel=1e-12)

    def test_two_percent_run_of_four(self):
        assert mean_recurrence(0.02, 4) == pytest.approx(6.378e6, rel=1e-3)

    def test_roundtrip_with_fixed_point(self):
        ex = mean_recurrence(0.02, 4)
        raw, r = sfl_r(SflQuery(0.02, ex))
        assert r == 4
        assert raw == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_roundtrip_grid(self, p, r):
        raw, rr = sfl_r(SflQuery(p, mean_recurrence(p, r)))
        assert rr == r
        assert r - 1 < raw <= r

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_recurrence(0.0, 3)
        with pytest.raises(DomainError):
            mean_recurrence(0.2, 0)

    @pytest.mark.parametrize("p,r", [(0.5, 1023), (1e-300, 2)],
                             ids=["overflow", "underflow"])
    def test_beyond_float_range(self, p, r):
        # 2**1024, and 1e600 where p ** r underflows to 0
        with pytest.raises(DomainError, match="beyond the float range"):
            mean_recurrence(p, r)

    @pytest.mark.parametrize("p,r", [(0.3, 4), (0.5, 1), (0.1, 3)])
    def test_simulation_agreement(self, p, r):
        # count non-overlapping completions of r-runs of failures over 1e7
        # events; events/completions estimates the renewal mean
        rng = np.random.Generator(np.random.Philox(key=20260808))
        n_events = 10_000_000
        fails = rng.random(n_events) < p
        # maximal run lengths: split on successes
        idx = np.flatnonzero(~fails)
        edges = np.concatenate(([-1], idx, [n_events]))
        run_lengths = np.diff(edges) - 1
        completions = int(np.sum(run_lengths // r))
        assert completions > 100
        est = n_events / completions
        assert est == pytest.approx(mean_recurrence(p, r), rel=0.05)
