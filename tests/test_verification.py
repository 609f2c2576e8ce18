"""Verification tests: OC curves, exact risks, Monte Carlo determinism."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest

from dhtplan import (Applicability, DomainError, SamplingPlan, TestSpec,
                     accept_probability, monte_carlo_accept, oc_curve,
                     realized_errors, solve)
from dhtplan import verification


def _plan(n, c, converged=True, method="Norm_N"):
    return SamplingPlan(n=n, c=c, t_h=c / n, np0=0.0, method=method,
                        iterations=1, converged=converged,
                        applicability=Applicability(True, True, True))


def exact_accept(n, c, p_frac):
    q = 1 - p_frac
    return float(sum(math.comb(n, k) * p_frac**k * q**(n - k)
                     for k in range(c)))


class TestOcCurve:
    def test_endpoints(self):
        curve = oc_curve(_plan(383, 13), [0.0, 1.0])
        assert curve.points[0] == (0.0, 1.0)
        assert curve.points[1] == (1.0, 0.0)

    def test_reference_point_exact_oracle(self):
        got = accept_probability(383, 13, 0.02)
        assert got == pytest.approx(exact_accept(383, 13, Fraction(1, 50)),
                                    rel=1e-12)

    def test_strictly_decreasing_inside(self):
        grid = [i / 50 for i in range(51)]
        curve = oc_curve(_plan(383, 13), grid)
        pts = curve.points
        for (p1, a1), (p2, a2) in zip(pts, pts[1:]):
            if 0.0 < a1 < 1.0 or 0.0 < a2 < 1.0:
                assert a2 < a1 + 1e-15

    def test_requires_convergence(self):
        with pytest.raises(DomainError):
            oc_curve(_plan(383, 13, converged=False), [0.0])


class TestRealizedErrors:
    def test_zero_rate_producer(self):
        est = realized_errors(_plan(375, 4), 0.0, 0.02)
        assert est.alpha_hat == 0.0

    def test_exact_tails_for_newton_plan(self):
        est = realized_errors(_plan(383, 13), 0.02, 0.05)
        assert est.alpha_hat == pytest.approx(
            1 - exact_accept(383, 13, Fraction(1, 50)), rel=1e-12)
        assert est.beta_hat == pytest.approx(
            exact_accept(383, 13, Fraction(1, 20)), rel=1e-12)
        assert est.alpha_hat <= 0.08
        assert est.beta_hat <= 0.08

    def test_tight_plan_balances_both_risks(self):
        est = realized_errors(_plan(7360, 128), 0.015, 0.02)
        assert est.alpha_hat == pytest.approx(0.05, abs=0.01)
        assert est.beta_hat == pytest.approx(0.05, abs=0.01)

    def test_mc_attachment(self):
        est = realized_errors(_plan(383, 13), 0.02, 0.05, mc=(2000, 11))
        assert est.seed == 11
        rate, hw = est.mc_alpha
        assert hw > 0
        assert abs((1 - rate) - (1 - est.alpha_hat)) <= 4 * hw


class TestMonteCarlo:
    def test_certain_acceptance(self):
        rate, hw = monte_carlo_accept(_plan(50, 2), 0.0, 500, 1)
        assert rate == 1.0
        assert hw > 0.0

    def test_certain_rejection_keeps_positive_width(self):
        rate, hw = monte_carlo_accept(_plan(50, 1), 1.0, 500, 1)
        assert rate == 0.0
        assert hw > 0.0

    def test_seed_determinism(self):
        a = monte_carlo_accept(_plan(383, 13), 0.02, 5000, 42)
        b = monte_carlo_accept(_plan(383, 13), 0.02, 5000, 42)
        assert a == b

    def test_seed_sensitivity(self):
        a = monte_carlo_accept(_plan(383, 13), 0.02, 5000, 42)
        b = monte_carlo_accept(_plan(383, 13), 0.02, 5000, 43)
        assert a != b

    def test_chunking_does_not_change_results(self, monkeypatch):
        plan = _plan(383, 13)
        ref = monte_carlo_accept(plan, 0.02, 3000, 7)
        for block in (1, 7, 1000, 10**9):
            monkeypatch.setattr(verification, "_BLOCK_LOTS", block)
            assert monte_carlo_accept(plan, 0.02, 3000, 7) == ref

    def test_first_lots_are_a_shorter_run(self, monkeypatch):
        # lot i is the i-th Binomial(n, p) variate of the seed's Philox
        # stream, so a k-lot run sees the first k lots of a longer one
        monkeypatch.setattr(verification, "_BLOCK_LOTS", 1000)
        fails = np.random.Generator(np.random.Philox(key=3)).binomial(
            383, 0.05, 5000)
        for reps in (100, 999, 1001, 5000):
            rate, _ = monte_carlo_accept(_plan(383, 13), 0.05, reps, 3)
            assert round(rate * reps) == np.count_nonzero(fails[:reps] <= 12)

    @pytest.mark.parametrize("n,p,c", [
        (10**9, 1e-9, 2), (10**14, 1e-14, 1), (2**62, 1e-18, 5),
        (1000, 0.999, 995), (10**7, 0.5, 5 * 10**6)])
    def test_extreme_regimes_against_scipy(self, n, p, c):
        # lots far too long to draw outcome by outcome, against scipy's CDF
        stats = pytest.importorskip("scipy.stats")
        rate, hw = monte_carlo_accept(types.SimpleNamespace(n=n, c=c), p,
                                      200_000, 1)
        assert abs(rate - stats.binom.cdf(c - 1, n, p)) <= 3 * hw

    def test_agreement_with_exact(self):
        plan = _plan(383, 13)
        rate, hw = monte_carlo_accept(plan, 0.02, 20000, 12345)
        assert abs(rate - accept_probability(383, 13, 0.02)) <= 3 * hw

    def test_rep_floor(self):
        with pytest.raises(DomainError):
            monte_carlo_accept(_plan(10, 1), 0.1, 99, 0)

    def test_trial_count_floor(self):
        with pytest.raises(DomainError, match="n must be >= 1"):
            monte_carlo_accept(types.SimpleNamespace(n=0, c=1), 0.1, 1000, 0)

    @pytest.mark.parametrize("n,c,message", [
        (383.7, 13, "trial count n must be a whole number, got 383.7"),
        (383, 13.5, "count c must be a whole number, got 13.5"),
        (math.inf, 13, "trial count n must be a whole number, got inf")])
    def test_whole_counts_only(self, n, c, message):
        with pytest.raises(DomainError, match=message):
            monte_carlo_accept(types.SimpleNamespace(n=n, c=c), 0.02, 1000, 7)

    def test_integral_float_counts(self):
        whole = monte_carlo_accept(_plan(383, 13), 0.02, 1000, 7)
        floats = types.SimpleNamespace(n=383.0, c=13.0)
        assert monte_carlo_accept(floats, 0.02, 1000, 7) == whole

    @pytest.mark.parametrize("p,reps,message", [
        (math.nan, 1000, r"p_true must be in \[0, 1\], got nan"),
        (1.5, 1000, r"p_true must be in \[0, 1\], got 1.5"),
        (0.1, 99, "reps must be >= 100 for a usable estimate, got 99")])
    def test_errors_name_the_value(self, p, reps, message):
        with pytest.raises(DomainError, match=message):
            monte_carlo_accept(_plan(383, 13), p, reps, 7)

    def test_seed_required(self):
        with pytest.raises(DomainError, match="seed"):
            monte_carlo_accept(_plan(383, 13), 0.02, 1000, None)
        with pytest.raises(DomainError, match="seed"):
            realized_errors(_plan(383, 13), 0.02, 0.05, mc=(1000, None))

    def test_duck_typed_plan(self):
        shim = types.SimpleNamespace(n=100, c=3)
        rate, _ = monte_carlo_accept(shim, 0.0, 200, 5)
        assert rate == 1.0


class TestBenchmark:
    """Iteration counts a solved plan reports, which a benchmark reads."""

    def test_norm_i_iterations_equal_n(self):
        plan = solve(TestSpec(0.01, 0.02, epsilon=1e-6), "Norm_I")
        assert plan.iterations == plan.n == 1543

    def test_newton_step_budget(self):
        plan = solve(TestSpec(0.07, 0.08), "Norm_N")
        assert plan.converged
        assert plan.iterations < 10000

    def test_bin_iterations_equal_n(self):
        plan = solve(TestSpec(0.2, 0.4), "Bin")
        assert plan.iterations == plan.n
