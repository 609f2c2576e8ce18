"""Verification tests: OC curves, exact risks, Monte Carlo determinism."""

import hashlib
import math
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (Applicability, DomainError, SamplingPlan, TestSpec,
                     accept_probability, monte_carlo_accept, oc_curve,
                     realized_errors, solve)
from dhtplan import _backend, verification

#: The twelve plans of acceptance criterion 9: (method, p0, p1, epsilon).
CRITERION_9 = (
    ("Norm_N", 0.015, 0.02, None), ("Norm_N", 0.02, 0.05, None),
    ("Norm_N", 0.05, 0.10, None),
    ("Norm_I", 0.02, 0.05, 1e-4), ("Norm_I", 0.05, 0.10, 1e-4),
    ("Norm_I", 0.01, 0.02, 1e-6),
    ("Bin", 0.0, 0.02, None), ("Bin", 0.02, 0.05, None), ("Bin", 0.05, 0.10, None),
    ("Poiss", 0.0, 0.02, None), ("Poiss", 0.02, 0.05, None), ("Poiss", 0.05, 0.10, None),
)
OC_GRID = tuple(i / 1000 for i in range(1001))
#: sha256 of "<p.hex()> <value.hex()>\n" over the 12,012 criterion-9 points,
#: plan by plan, as the per-point loop gives them
CRITERION_9_OC_SHA256 = "b4600d2dcda20825091279127722345585eb4a2aa7cf2366448e122a580f7594"
#: q**n is subnormal where n log q < log(2**-1022)
_LOG_NORMAL = -1022 * math.log(2.0)


def _plan(n, c, converged=True, method="Norm_N"):
    return SamplingPlan(n=n, c=c, t_h=c / n, np0=0.0, method=method,
                        iterations=1, converged=converged,
                        applicability=Applicability(True, True, True))


def exact_accept(n, c, p_frac):
    q = 1 - p_frac
    return float(sum(math.comb(n, k) * p_frac**k * q**(n - k)
                     for k in range(c)))


def _steps(p, k):
    """p and the k doubles either side of it, in increasing order."""
    below, above = [p], [p]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


def per_point_oc(plan, grid):
    """The OC curve as one accept_probability call per point."""
    if not plan.converged:
        raise DomainError("OC curve requires a converged plan")
    return tuple((float(p), accept_probability(plan.n, plan.c, float(p)))
                 for p in grid)


def _hex_or_raise(fn, *args):
    """Every point as float.hex, or the exception's type and message."""
    try:
        points = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(p.hex(), a.hex()) for p, a in points]


@st.composite
def oc_cases(draw):
    """A plan, sometimes bad, and a grid with both array and scalar points."""
    n = draw(st.integers(0, 20_000))
    c = draw(st.one_of(st.integers(0, min(n + 1, 50)), st.integers(0, n + 1)))
    fault = draw(st.sampled_from([None] * 10 + ["float", "half_n", "half_c",
                                               "c_over_n", "unconverged"]))
    converged = fault != "unconverged"
    if fault == "float":
        n, c = float(n), float(c)
    elif fault == "half_n":
        n += 0.5
    elif fault == "half_c":
        c += 0.5
    elif fault == "c_over_n":
        c = n + draw(st.integers(2, 5))
    # q**n leaves the normal range above p_sub; well above it, for c < n p,
    # the Chernoff cut returns 0.0
    p_sub = -math.expm1(_LOG_NORMAL / n) if n >= 1 else 1.0
    point = st.one_of(
        st.sampled_from([0.0, 1.0, -0.0, 0, 1]),
        st.floats(0.0, 1.0),
        st.floats(0.0, min(1.0, 2.0 * c / n) if n else 1.0),
        st.floats(0.9, 1.1).map(lambda t: min(1.0, p_sub * t)),
        st.floats(p_sub, 1.0),
    )
    grid = draw(st.lists(point, max_size=30))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from([-0.1, -1e-300, 1.5, math.nan, math.inf]))
        grid.insert(draw(st.integers(0, len(grid))), bad)
    # fewest leads for an array run: every grid takes it, none does, or the
    # crossover falls inside the grid
    array_points = draw(st.sampled_from([1, 10**9, _backend._ARRAY_POINTS])
                        | st.integers(1, max(1, len(grid))))
    return types.SimpleNamespace(n=n, c=c, converged=converged), grid, array_points


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

    @settings(max_examples=500, deadline=None)
    @given(oc_cases())
    def test_same_bits_and_exceptions_as_per_point_loop(self, case):
        plan, grid, array_points = case
        want = _hex_or_raise(per_point_oc, plan, grid)
        with mock.patch.object(_backend, "_ARRAY_POINTS", array_points):
            got = _hex_or_raise(lambda *a: oc_curve(*a).points, plan, grid)
        assert got == want

    @pytest.mark.parametrize("n,c,grid", [
        # scaled totals pass 2**512 and shrink, next to normal leads
        (7360, 128, [0.09 + k * 0.06 / 600 for k in range(601)]),
        # Chernoff cuts with e near -53 10**6, and scaled sums that are not cut
        (10**6, 5000, [0.0, 0.004, 0.00499, 0.005, 0.0051, 0.3, 0.5, 0.9, 0.99]
         + [1.0 - 2.0**-j for j in range(20, 54)] + [1.0]),
        # c - 1 near n p, so terms still grow at the last count
        (10**6, 10**4 + 1, [0.0095 + k * 0.001 / 40 for k in range(41)]),
        # a few ulps either side of p_sub, where n log q crosses log 2**-1022
        # within numpy's slack, so pow decides whether a lead is normal; at
        # n = 1419 numpy's n log q lies below log 2**-1022 at 3 of them
        # whose q**n is normal (numpy 2.4.6, x86-64)
        (7360, 700, _steps(-math.expm1(_LOG_NORMAL / 7360), 20)),
        (1419, 560, _steps(-math.expm1(_LOG_NORMAL / 1419), 20)),
        # n log q near -2**48, where math.log decides the cut's range test
        (2**50 + 3, 20, _steps(-math.expm1(-2.0**48 / (2**50 + 3)), 20)
         + [-math.expm1(-2.0**48 * t / (2**50 + 3)) for t in (0.99, 0.99999, 1.00001, 1.01)]),
    ], ids=["7360-rescale", "1e6-cut", "1e6-c-near-np", "7360-p-sub", "1419-p-sub",
            "2e50-cut-range"])
    def test_pinned_grids_equal_per_point_loop(self, n, c, grid):
        plan = _plan(n, c)
        want = _hex_or_raise(per_point_oc, plan, grid)
        for array_points in (1, _backend._ARRAY_POINTS, 10**9):
            with mock.patch.object(_backend, "_ARRAY_POINTS", array_points):
                assert _hex_or_raise(lambda *a: oc_curve(*a).points, plan, grid) == want

    def test_numpy_log_within_the_slack(self):
        # _binom_grid sorts points by numpy's n log q; a numpy whose log
        # strays past the slack of math.log's must fail here, not move a lead
        p = np.concatenate([np.geomspace(2.0**-60, 0.5, 4001),
                            np.linspace(0.5, 1.0 - 2.0**-53, 4001),
                            [2.0**-j for j in range(1, 54)], [1.0 - 2.0**-j for j in range(1, 54)]])
        q = 1.0 - p
        for n in (1, 2, 13, 383, 7360, 10**6, 2**40 + 1, 2**50 + 3, 2**53 - 1):
            got = float(n) * np.log(q)
            want = np.array([float(n) * math.log(v) for v in q.tolist()])
            slack = np.abs(got) * _backend._LOG_SLACK + _backend._LOG_SLACK
            assert np.all(np.abs(got - want) <= slack), n

    def test_criterion_9_points_bit_for_bit(self):
        digest = hashlib.sha256()
        for method, p0, p1, eps in CRITERION_9:
            plan = solve(TestSpec(p0, p1, epsilon=eps), method)
            got = oc_curve(plan, OC_GRID).points
            assert [(p.hex(), a.hex()) for p, a in got] == [
                (p.hex(), a.hex()) for p, a in per_point_oc(plan, OC_GRID)], method
            for p, a in got:
                digest.update(("%s %s\n" % (p.hex(), a.hex())).encode())
        assert digest.hexdigest() == CRITERION_9_OC_SHA256

    def test_grid_pass_runs_through_the_backend(self, monkeypatch):
        # a patch of _backend._term_sum reaches the OC path: one array run
        # sums the 1001-point grid of the 1.5%/2% plan
        runs = []
        term_sum = _backend._term_sum
        monkeypatch.setattr(_backend, "_term_sum",
                            lambda term, *a: runs.append(np.ndim(term)) or term_sum(term, *a))
        oc_curve(_plan(7360, 128), OC_GRID)
        assert runs == [1]

    def test_empty_grid(self):
        assert oc_curve(_plan(383, 13), []).points == ()
        assert oc_curve(_plan(383, 13), iter(())).points == ()

    @pytest.mark.parametrize("make", [lambda ps: (p for p in ps), np.array, list],
                             ids=["generator", "ndarray", "list"])
    def test_grid_kinds(self, make):
        ps = [0.0, 0.01, 0.02, 0.05, 0.5, 0.9, 1.0]
        got = oc_curve(_plan(383, 13), make(ps)).points
        assert got == per_point_oc(_plan(383, 13), ps)
        assert all(type(p) is float and type(a) is float for p, a in got)

    def test_int_grid(self):
        got = oc_curve(_plan(383, 13), [0, 1]).points
        assert got == ((0.0, 1.0), (1.0, 0.0))
        assert all(type(p) is float and type(a) is float for p, a in got)

    def test_bad_point_raises_at_its_position(self):
        plan = _plan(383, 13)
        with pytest.raises(DomainError, match=r"p must be in \[0, 1\], got 1.5"):
            oc_curve(plan, [0.01, 0.02, 1.5, "x"])
        with pytest.raises(ValueError, match="could not convert"):
            oc_curve(plan, [0.01, "x", 1.5])


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

    def test_integral_float_reps(self):
        assert (monte_carlo_accept(_plan(383, 13), 0.02, 1000.0, 7)
                == monte_carlo_accept(_plan(383, 13), 0.02, 1000, 7))
        est = realized_errors(_plan(383, 13), 0.02, 0.05, mc=(1000.0, 7))
        assert est.mc_alpha == realized_errors(_plan(383, 13), 0.02, 0.05,
                                               mc=(1000, 7)).mc_alpha

    @pytest.mark.parametrize("reps", [1000.5, math.nan, math.inf])
    def test_whole_reps_only(self, reps):
        with pytest.raises(DomainError, match="reps must be a whole number, got %s"
                           % reps):
            monte_carlo_accept(_plan(383, 13), 0.02, reps, 7)

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
