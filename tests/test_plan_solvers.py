"""Plan solver tests.

Reference n/c/t_h values for the discrete reconstructions were frozen from
an exact CDF oracle; realized error rates are re-derived here with exact
binomial tails, which is the validation the reconstruction is held to.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (DegenerateSpecError, DomainError, NoConvergenceError, SamplingPlan,
                     SolverError, TestSpec, binom_cdf, solve)
from dhtplan.plan_solvers import _closed_form_norm


def realized(plan, p0, p1):
    a = 1.0 - binom_cdf(plan.c - 1, plan.n, p0)
    b = binom_cdf(plan.c - 1, plan.n, p1)
    return a, b


class TestClosedForm:
    def test_fifteen_twenty_permille(self):
        n_real, t_h = _closed_form_norm(TestSpec(0.015, 0.02))
        assert n_real == pytest.approx(7359.8, abs=0.5)
        assert t_h == pytest.approx(0.0173, abs=5e-5)

    def test_two_five_percent(self):
        n_real, t_h = _closed_form_norm(TestSpec(0.02, 0.05))
        assert n_real == pytest.approx(382.89, abs=0.01)
        assert t_h == pytest.approx(0.0317, abs=5e-5)

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateSpecError):
            TestSpec(0.02, 0.02)

    @pytest.mark.parametrize("p1", [5e-324, 1e-320, 1e-309])
    def test_trial_count_beyond_the_float_range(self, p1):
        # (z1 s1 / p1)**2 overflows, which Norm_N would take the ceiling of
        with pytest.raises(SolverError, match="beyond the float range"):
            _closed_form_norm(TestSpec(0.0, p1))


class TestNormNewton:
    @pytest.mark.parametrize("p0,p1,n,c,t_h", [
        (0.015, 0.02, 7360, 128, 0.0173),
        (0.02, 0.05, 383, 13, 0.0317),
        (0.05, 0.10, 289, 21, 0.0710),
    ])
    def test_reference_plans(self, p0, p1, n, c, t_h):
        plan = solve(TestSpec(p0, p1), "Norm_N")
        assert plan.n == n
        assert plan.c == c
        assert plan.t_h == pytest.approx(t_h, abs=5e-4)
        assert plan.converged
        assert plan.iterations < 100

    def test_matches_closed_form(self):
        spec = TestSpec(0.02, 0.05)
        n_real, t_h = _closed_form_norm(spec)
        plan = solve(spec, "Norm_N")
        assert plan.n_real == pytest.approx(n_real, abs=1e-4)
        assert plan.t_h == pytest.approx(t_h, abs=1e-9)


class TestNormIterative:
    @pytest.mark.parametrize("p0,p1,eps,n,c", [
        (0.02, 0.05, 1e-4, 381, 12),
        (0.05, 0.10, 1e-4, 288, 20),
        (0.01, 0.02, 1e-6, 1543, 22),
        (0.01, 0.02, 1e-4, 1513, 21),
    ])
    def test_reference_plans(self, p0, p1, eps, n, c):
        plan = solve(TestSpec(p0, p1, epsilon=eps), "Norm_I")
        assert plan.n == n
        assert plan.c == c
        assert plan.iterations == plan.n

    def test_threshold_is_limit_midpoint(self):
        plan = solve(TestSpec(0.05, 0.10), "Norm_I")
        z = 1.64
        rn = math.sqrt(plan.n)
        upper = 0.05 + z * math.sqrt(0.05 * 0.95) / rn
        lower = 0.10 - z * math.sqrt(0.10 * 0.90) / rn
        assert plan.t_h == pytest.approx((upper + lower) / 2, abs=1e-12)

    def test_no_convergence_for_wide_pair(self):
        with pytest.raises(NoConvergenceError) as exc:
            solve(TestSpec(0.2, 0.4, epsilon=1e-6), "Norm_I")
        assert exc.value.best_gap == pytest.approx(4.685e-4, abs=1e-6)
        assert exc.value.iterations is not None


class TestDiscreteSolvers:
    def test_bin_zero_start(self):
        plan = solve(TestSpec(0.0, 0.02), "Bin")
        assert (plan.n, plan.c) == (313, 3)
        assert plan.t_h == pytest.approx(0.00958, abs=1e-4)
        a, b = realized(plan, 0.0, 0.02)
        assert a == 0.0
        assert b <= 0.05

    def test_bin_two_five(self):
        plan = solve(TestSpec(0.02, 0.05), "Bin")
        assert (plan.n, plan.c) == (527, 18)
        assert plan.t_h == pytest.approx(0.03321, abs=1e-4)

    def test_bin_five_ten(self):
        plan = solve(TestSpec(0.05, 0.10), "Bin")
        assert (plan.n, plan.c) == (422, 31)

    def test_poiss_reference_trio(self):
        assert (solve(TestSpec(0.0, 0.02), "Poiss").n,
                solve(TestSpec(0.0, 0.02), "Poiss").c) == (315, 3)
        assert (solve(TestSpec(0.02, 0.05), "Poiss").n,
                solve(TestSpec(0.02, 0.05), "Poiss").c) == (569, 19)
        assert (solve(TestSpec(0.05, 0.10), "Poiss").n,
                solve(TestSpec(0.05, 0.10), "Poiss").c) == (452, 33)

    def test_poiss_out_of_regime_is_flagged_not_fatal(self):
        plan = solve(TestSpec(0.2, 0.4), "Poiss")
        assert not plan.applicability.p_lt_0_1
        assert abs(plan.n - 117) <= 0.25 * 117
        assert abs(plan.c - 35) <= 2

    def test_bin_wide_pair_tracks_reference(self):
        plan = solve(TestSpec(0.2, 0.4), "Bin")
        assert abs(plan.n - 82) <= 0.25 * 82
        assert abs(plan.c - 24) <= 2

    def test_iterations_equal_n(self):
        plan = solve(TestSpec(0.2, 0.4), "Bin")
        assert plan.iterations == plan.n

    def test_realized_errors_bounded_by_construction(self):
        # the scan stops on quantile crossing, so both risks sit inside
        # the halved tails (plus one pmf term when the eps rule fires)
        for method in ("Bin", "Poiss"):
            for (p0, p1) in [(0.0, 0.02), (0.02, 0.05), (0.05, 0.10),
                             (0.01, 0.02), (0.2, 0.4)]:
                plan = solve(TestSpec(p0, p1), method)
                a, b = realized(plan, p0, p1)
                assert a <= 0.05 + 0.03
                assert b <= 0.05 + 0.03

    def test_max_n_exhaustion(self):
        with pytest.raises(NoConvergenceError):
            solve(TestSpec(0.02, 0.05, max_n=100), "Bin")

    @pytest.mark.parametrize("method", ["Bin", "Poiss"])
    @pytest.mark.parametrize("p0,alpha,beta,name", [
        (0.05, 0.05, 1e-320, "beta"), (0.05, 1e-300, 0.05, "alpha"),
        (0.05, 0.05, math.nextafter(2.0 ** -899, 0.0), "beta"),
        (0.0, 0.05, 1e-300, "beta")])
    def test_tail_below_the_walker_floor_is_refused(self, method, p0, alpha, beta, name):
        floor = {"alpha": r"alpha > 2\*\*-53", "beta": r"beta >= 2\*\*-899"}[name]
        with pytest.raises(DomainError, match="needs " + floor):
            solve(TestSpec(p0, 0.10, alpha_tail=alpha, beta_tail=beta), method)

    @pytest.mark.parametrize("method", ["Bin", "Poiss"])
    def test_alpha_whose_target_rounds_to_one_is_refused(self, method):
        # 1 - 2**-54 rounds to 1.0; at 0.10/0.15 the parent planned (3386,
        # 471) for Bin at alpha 1e-20, with a producer risk of 3.3e-13
        with pytest.raises(DomainError, match=r"needs alpha > 2\*\*-53 .*got 1.1102"):
            solve(TestSpec(0.10, 0.15, alpha_tail=2.0 ** -53), method)
        with pytest.raises(DomainError, match=r"needs alpha > 2\*\*-53"):
            solve(TestSpec(0.10, 0.15, alpha_tail=1e-20), method)

    def test_alpha_above_the_rounding_edge_is_read(self):
        # 1 - alpha/2 rounds to 1 - 2**-53 < 1.0: Bin plans, Poiss's scan
        # gives up at its cap as it does at alpha 1e-15
        alpha = math.nextafter(2.0 ** -53, 1.0)
        plan = solve(TestSpec(0.10, 0.15, alpha_tail=alpha), "Bin")
        assert (plan.n, plan.c) == (3386, 471)
        with pytest.raises(SolverError, match="exceeded cap"):
            solve(TestSpec(0.10, 0.15, alpha_tail=alpha), "Poiss")

    @pytest.mark.parametrize("method", ["Bin", "Poiss"])
    def test_tails_at_the_walker_floor_plan(self, method):
        # with p0 = 0 no alpha is read, so none is refused
        for spec in (TestSpec(0.05, 0.10, beta_tail=2.0 ** -899),
                     TestSpec(0.0, 0.05, alpha_tail=1e-300, beta_tail=2.0 ** -899)):
            assert solve(spec, method).converged


class TestPlanProperties:
    SPECS = [(0.0, 0.02), (0.02, 0.05), (0.05, 0.10), (0.015, 0.02)]

    def test_threshold_ordering(self):
        for method in ("Bin", "Poiss", "Norm_N", "Norm_I"):
            for p0, p1 in self.SPECS:
                if p0 == 0.0 and method in ("Norm_N", "Norm_I"):
                    continue  # degenerate producer side for normal methods
                plan = solve(TestSpec(p0, p1), method)
                assert p0 < plan.t_h < p1, (method, p0, p1)

    def test_determinism(self):
        for method in ("Bin", "Poiss", "Norm_N", "Norm_I"):
            spec = TestSpec(0.02, 0.05)
            assert solve(spec, method) == solve(spec, method)

    def test_oracle_agreement_normal_methods(self):
        # Newton lands on the root, so its n is within rounding of the
        # closed form.  The unit-step method stops at the first n inside
        # the eps-band, which for tight pairs sits well below the root
        # (e.g. 1513 vs 1542.7 at eps=1e-4), so its n bound is band-aware.
        for p0, p1 in [(0.02, 0.05), (0.05, 0.10), (0.015, 0.02), (0.01, 0.02),
                       (0.07, 0.08), (0.1, 0.14)]:
            spec = TestSpec(p0, p1)
            n_real, t_h = _closed_form_norm(spec)
            newton = solve(spec, "Norm_N")
            assert abs(newton.n - n_real) <= 2, (p0, p1)
            assert abs(newton.t_h - t_h) <= 5e-4
            unit = solve(spec, "Norm_I")
            eps = spec.eps_for("Norm_I")
            slope = (1.64 * (math.sqrt(p0 * (1 - p0)) + math.sqrt(p1 * (1 - p1)))
                     / (2.0 * n_real ** 1.5))
            band = eps / slope
            assert n_real - band - 1 <= unit.n <= n_real + 2, (p0, p1)
            assert abs(unit.t_h - t_h) <= 5e-4

    @given(st.floats(0.02, 0.2), st.floats(1.35, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_halving_the_gap_grows_n(self, p0, ratio):
        p1 = min(p0 * ratio, 0.45)
        if p1 - p0 < 0.005:
            return
        mid = (p0 + p1) / 2
        half = (p1 - p0) / 4
        wide, _ = _closed_form_norm(TestSpec(mid - 2 * half, mid + 2 * half))
        narrow, _ = _closed_form_norm(TestSpec(mid - half, mid + half))
        assert narrow > wide

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            solve(TestSpec(0.02, 0.05), "Wald")

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        with pytest.raises(DomainError, match="epsilon"):
            TestSpec(0.02, 0.05, epsilon=eps)

    @pytest.mark.parametrize("max_n", [math.nan, math.inf, -math.inf, 2.5])
    def test_max_n_must_be_a_whole_number(self, max_n):
        with pytest.raises(DomainError, match="max_n"):
            TestSpec(0.02, 0.05, max_n=max_n)

    def test_max_n_below_two(self):
        with pytest.raises(DomainError, match="max_n must be >= 2"):
            TestSpec(0.02, 0.05, max_n=1)

    def test_plan_of_an_unknown_method(self):
        plan = solve(TestSpec(0.02, 0.05), "Norm_N")
        with pytest.raises(DomainError, match="unknown method 'x'"):
            SamplingPlan(**{**vars(plan), "method": "x"})

    def test_integral_max_n_is_kept_as_int(self):
        spec = TestSpec(0.02, 0.05, max_n=1e5)
        assert type(spec.max_n) is int and spec.max_n == 100_000
        assert solve(spec, "Norm_I").n == solve(TestSpec(0.02, 0.05), "Norm_I").n

    def test_cross_method_threshold_coherence(self):
        # the four methods answer the same question; their thresholds for a
        # given pair stay within 0.005 of one another
        for p0, p1 in [(0.02, 0.05), (0.05, 0.10)]:
            ths = [solve(TestSpec(p0, p1), m).t_h
                   for m in ("Bin", "Poiss", "Norm_N", "Norm_I")]
            assert max(ths) - min(ths) <= 0.005, (p0, p1, ths)


class TestApplicability:
    def test_degenerate_normal_plan_is_meaningless(self):
        # np0 = 0 <= 5: the normal approximation does not hold, and the
        # solved plan carries that flag
        plan = solve(TestSpec(0.0, 0.01), "Norm_N")
        assert plan.np0 == 0.0
        assert not plan.applicability.np0_gt5

    def test_healthy_newton_plan(self):
        spec = TestSpec(0.02, 0.05)
        flags = solve(spec, "Norm_N").applicability
        assert flags.np0_gt5           # 383 * 0.02 = 7.66
        assert flags.nq0_gt5
        assert flags.p_lt_0_1

    def test_bin_plan_flags_reported_without_judgement(self):
        spec = TestSpec(0.0, 0.02)
        plan = solve(spec, "Bin")
        flags = plan.applicability
        assert not flags.np0_gt5       # np0 = 0; exact method, not invalid
        assert plan.converged
