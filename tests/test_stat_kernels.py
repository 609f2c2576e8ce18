"""Probability primitive tests.

Expected values come from independent oracles computed in-test: exact
rational summation for binomial tails, Decimal series for Poisson, Simpson
quadrature and the standard library's normal CDF for the normal quantile,
and linear CDF scans for quantiles.
"""

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (Applicability, DomainError, SamplingPlan, SolverError, TailMass,
                     binom_cdf, poisson_cdf, verification, z_value)
from dhtplan import _backend as pure
from kernel_reference import poisson_trials

getcontext().prec = 60


def binom_cdf_exact(c, n, p_frac):
    q = 1 - p_frac
    return sum(math.comb(n, k) * p_frac**k * q**(n - k) for k in range(c + 1))


def poisson_cdf_decimal(c, lam):
    lam = Decimal(str(lam))
    term = (-lam).exp()
    total = term
    for i in range(1, c + 1):
        term = term * lam / i
        total += term
    return float(total)


class TestBinomCdf:
    def test_full_support(self):
        assert binom_cdf(2, 2, 0.3) == 1.0

    def test_analytic_half(self):
        assert binom_cdf(1, 2, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_tail_at_375_trials(self):
        exact = float(binom_cdf_exact(3, 375, Fraction(1, 50)))
        assert binom_cdf(3, 375, 0.02) == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx(0.0574, abs=5e-5)

    def test_degenerate_rates(self):
        assert binom_cdf(0, 10, 0.0) == 1.0
        assert binom_cdf(3, 10, 1.0) == 0.0
        assert binom_cdf(10, 10, 1.0) == 1.0

    def test_log_space_branch(self):
        """Leading term q**n = 2**-3000 underflows, so the kernel sums from it
        scaled by 2**3000, in place of the log-space terms it once used.

        P(X <= 1400) is about 2**-12: that sum shrinks by 2**-512 five times.
        P(X <= 40) is below 2**-2700, so the Chernoff exit returns 0.0, the
        double nearest the exact sum.
        """
        for c in (1400, 40):
            exact = float(binom_cdf_exact(c, 3000, Fraction(1, 2)))
            got = binom_cdf(c, 3000, 0.5)
            assert got == pytest.approx(exact, rel=1e-9)
        assert got == exact == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binom_cdf(11, 10, 0.5)
        with pytest.raises(DomainError):
            binom_cdf(1, 10, 1.5)
        # each names the argument at fault
        for args, name in [((3, math.inf, 0.5), "trial count n"),
                           ((3, math.nan, 0.5), "trial count n"),
                           ((3, 10.5, 0.5), "trial count n"),
                           ((-3, -1, 0.5), "trial count n"),
                           ((3, 2**53 + 1, 0.5), "trial count n"),
                           ((2.7, 10, 0.5), "count c"),
                           ((math.nan, 10, 0.5), "count c"),
                           ((-math.inf, 10, 0.5), "count c"),
                           ((1, 10, math.nan), "p must")]:
            with pytest.raises(DomainError, match=name):
                binom_cdf(*args)
        # integral floats and negative counts are in the domain
        assert binom_cdf(3.0, 10.0, 0.5) == binom_cdf(3, 10, 0.5) == 0.171875
        assert binom_cdf(-3, 10, 0.5) == 0.0

    @given(st.integers(1, 10), st.floats(0.01, 0.99))
    @settings(max_examples=40)
    def test_brute_force_enumeration(self, n, p):
        # weight every outcome sequence of n Bernoulli trials directly
        for c in range(n + 1):
            total = 0.0
            for seq in itertools.product((0, 1), repeat=n):
                fails = sum(seq)
                if fails <= c:
                    total += p**fails * (1 - p) ** (n - fails)
            assert binom_cdf(c, n, p) == pytest.approx(total, rel=1e-10)

    @given(st.integers(2, 400), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_monotone_in_c(self, n, p):
        prev = 0.0
        for c in range(n + 1):
            cur = binom_cdf(c, n, p)
            assert cur >= prev - 1e-15
            prev = cur
        assert prev == pytest.approx(1.0, abs=1e-9)


class TestPoissonCdf:
    def test_zero_count(self):
        assert poisson_cdf(0, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_degenerate_lambda(self):
        assert poisson_cdf(10, 0.0) == 1.0

    def test_series_oracle(self):
        assert poisson_cdf(3, 7.5) == pytest.approx(
            poisson_cdf_decimal(3, 7.5), rel=1e-12)
        assert poisson_cdf(3, 7.5) == pytest.approx(0.0591, abs=5e-5)

    def test_large_lambda_log_branch(self):
        """exp(-800) is below 2**-1022, so the sum runs from it scaled by a
        power of two, in place of the log-space terms it once used."""
        got = poisson_cdf(700, 800.0)
        assert got == pytest.approx(poisson_cdf_decimal(700, 800.0), rel=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            poisson_cdf(1, -0.5)
        for lam in (math.nan, math.inf, 2.0**60):
            with pytest.raises(DomainError, match="lambda"):
                poisson_cdf(3, lam)
        for c in (2.7, math.nan):
            with pytest.raises(DomainError, match="count c"):
                poisson_cdf(c, 3.0)
        assert poisson_cdf(3.0, 3.0) == poisson_cdf(3, 3.0)

    def test_poisson_limit_of_binomial(self):
        # p <= 0.01 and n >= 1000: the two families agree to 5e-3
        for n, p in [(1000, 0.01), (2000, 0.005), (5000, 0.002), (1500, 0.01)]:
            lam = n * p
            top = int(3 * lam + 10)
            for c in range(top + 1):
                diff = abs(binom_cdf(c, n, p) - poisson_cdf(c, lam))
                assert diff <= 5e-3


def _lead(n, p):
    """binom_cdf's leading term for Binomial(n, p): (q**n, 0) or scaled (m, e)."""
    q = 1.0 - p
    term = pow(q, float(n))
    return (term, 0) if term >= 2.0**-1022 else pure._scaled_lead(n * math.log(q))


class TestTermSumArrays:
    """_term_sum runs one numpy array of leads, scaled ones too (oc_curve does)."""

    @staticmethod
    def _check(n, c, ps):
        import numpy as np

        leads = [_lead(n, p) for p in ps]
        arr = np.array(ps)
        term = np.array([t for t, _ in leads])
        e0 = np.array([e for _, e in leads])
        total, e, last = pure._term_sum(term, e0 if e0.any() else 0, c, float(n), 1.0,
                                        arr / (1.0 - arr))
        want = [pure._term_sum(t, e, c, float(n), 1.0, p / (1.0 - p))
                for (t, e), p in zip(leads, ps)]
        e = np.broadcast_to(e, total.shape)
        got = zip(total.tolist(), e, last.tolist())
        assert [(v.hex(), int(x), t.hex()) for v, x, t in got] == [
            (v.hex(), x, t.hex()) for v, x, t in want]
        values = np.minimum(np.ldexp(total, e), 1.0).tolist()
        # a point binom_cdf cuts by its Chernoff bound sums to 0.0 in full
        assert [v.hex() for v in values] == [binom_cdf(c, n, p).hex() for p in ps]
        return e0, e

    @pytest.mark.parametrize("n,c", [(1, 0), (20, 19), (383, 12), (2000, 1500),
                                     (7360, 127), (20_000, 20_000 - 1)])
    def test_each_element_equals_its_scalar_call(self, n, c):
        ps = [k / 97 for k in range(1, 97)] + [1e-300, 2.0**-1074, 0.5 - 2.0**-54]
        ps += [0.015, 0.0174, 1.0 - 2.0**-53, 1.0 - 2.0**-30]
        assert len(ps) > 1
        self._check(n, c, ps)

    def test_scaled_leads_shrink_on_their_own_rounds(self):
        # on 7360/128 the scaled totals of p in [0.09, 0.15] pass 2**512
        ps = [0.09 + k * 0.06 / 400 for k in range(401)]
        e0, e = self._check(7360, 127, ps)
        assert (e0 == 0).any() and (e0 < 0).any()
        shrinks = (e - e0) // 512
        assert shrinks.max() >= 1 and (shrinks == 0).any()

    def test_many_shrinks_at_large_n(self):
        # leads down to 2**-(53 10**6) and totals that shrink many times;
        # c sits near n p for p = 0.01
        ps = [0.005, 0.0099, 0.01, 0.0101, 0.3, 0.5, 0.5001, 0.9, 1.0 - 2.0**-53]
        e0, e = self._check(10**6, 10**4, ps)
        assert ((e - e0) // 512).max() >= 100

    def test_exponents_past_the_chernoff_range(self):
        # n log(1/q) up to 2**53 * 36.7: no Chernoff cut, e near -2**58.6, and
        # a first term ratio n p / q of 2**106
        e0, e = self._check(2**53, 3, [1e-10, 0.5, 1.0 - 2.0**-53])
        assert e0.min() < -2**58


class TestZeroBits:
    """Every point an OC grid drops by binom_cdf's Chernoff cut, with no
    lead to sum, is one at which binom_cdf returns 0.0 and the full scaled
    term sum rounds to 0.0."""

    @pytest.mark.parametrize("n,c", [(50, 3), (383, 12), (1543, 21), (7360, 127),
                                     (20_000, 500), (10**6, 2000)])
    def test_zeroed_points_sum_to_zero(self, monkeypatch, n, c):
        p_sub = -math.expm1(-1022 * math.log(2.0) / n)
        ps = [p_sub + (1.0 - p_sub) * (j / 1000) ** 2 for j in range(1, 1000)]
        # the grid scales the lead of each subnormal q**n it keeps, by n log q
        led, scaled_lead = [], pure._scaled_lead
        monkeypatch.setattr(pure, "_scaled_lead", lambda x: led.append(x) or scaled_lead(x))
        plan = SamplingPlan(n=n, c=c + 1, t_h=(c + 1) / n, np0=0.0, method="Bin",
                            iterations=1, converged=True,
                            applicability=Applicability(True, True, True))
        points = verification.oc_curve(plan, [0.5] + ps).points[1:]
        summed = set(led)
        cut = [(p, v) for p, v in points
               if pow(1.0 - p, float(n)) < 2.0**-1022 and n * math.log(1.0 - p) not in summed]
        assert len(cut) > 50
        for p, v in cut:
            assert v == binom_cdf(c, n, p) == 0.0, p
            lead = scaled_lead(n * math.log(1.0 - p))
            total, e, _ = pure._term_sum(*lead, c, float(n), 1.0, p / (1.0 - p))
            assert math.ldexp(total, e) == 0.0, p


def binom_first(n, p, target, strict):
    """A Binomial(n, p) walker's first count at n reaching target."""
    return pure._Walk(p, False).first(n, target, strict)


def poisson_first(lam, target, strict):
    """A Poisson(lam) walker's."""
    n, p = poisson_trials(lam)
    return pure._Walk(p, True).first(n, target, strict)


class TestQuantiles:
    """The walkers' quantiles: the upper one at 1 - tail is the first count
    reaching it, the lower one at tail the count below the first one past
    it (-1 when CDF(0) is already past it)."""

    def test_upper_zero_rate(self):
        # the least positive rate, next to the zero rate the walkers leave out
        assert binom_first(10, 5e-324, 0.95, False) == 0

    def test_upper_poisson_unit(self):
        assert poisson_first(1.0, 0.95, False) == 3

    def test_upper_binomial_scan_oracle(self):
        got = binom_first(550, 0.02, 0.95, False)
        scan = 0
        while binom_cdf(scan, 550, 0.02) < 0.95:
            scan += 1
        assert got == scan
        assert binom_cdf(got - 1, 550, 0.02) < 0.95 <= binom_cdf(got, 550, 0.02)

    def test_lower_poisson(self):
        assert poisson_first(7.5, 0.05, True) - 1 == 2

    def test_lower_binomial_small(self):
        assert binom_first(2, 0.5, 0.3, True) - 1 == 0

    def test_lower_none_vs_zero(self):
        # CDF(0) = 1e-10 clears the tail, so a value exists; the direct
        # CDF oracle puts the largest qualifying count at 4
        got = binom_first(10, 0.9, 0.001, True) - 1
        assert got >= 0
        assert binom_cdf(got, 10, 0.9) <= 0.001 < binom_cdf(got + 1, 10, 0.9)
        assert got == 4
        assert binom_first(10, 0.0001, 0.001, True) - 1 == -1

    @given(st.integers(2, 200), st.floats(0.001, 0.999), st.floats(0.001, 0.499))
    @settings(max_examples=80)
    def test_adjointness(self, n, p, tail):
        up = binom_first(n, p, 1.0 - tail, False)
        assert binom_cdf(up, n, p) >= 1 - tail
        if up > 0:
            assert binom_cdf(up - 1, n, p) < 1 - tail
        lo = binom_first(n, p, tail, True) - 1
        if lo < 0:
            assert binom_cdf(0, n, p) > tail
        else:
            assert binom_cdf(lo, n, p) <= tail
            assert binom_cdf(lo + 1, n, p) > tail

    def test_poisson_scan_cap_is_internal_error(self, monkeypatch):
        # no CDF value exceeds 1.0, so the exact search at mean 1 steps up
        # count by count to cap + 1 and re-seeds there, past the cap, where
        # the walker raises; the walk itself, too close to call near 1.0,
        # hands the count to that search, which sums each count once and
        # re-seeds from the last pass
        counts = []
        term_sum = pure._term_sum
        monkeypatch.setattr(pure, "_term_sum",
                            lambda *a: counts.append(a[2]) or term_sum(*a))
        cap = pure.poisson_cap(10 * 0.1)
        with pytest.raises(SolverError, match="exceeded cap %d at mean 1$" % cap):
            pure._Walk(0.1, True).first(10, math.nextafter(1.0, 2.0), False)
        assert counts == list(range(counts[0], cap + 2))


class TestNormal:
    def test_quadrature_oracle(self):
        # Simpson's rule on the density over [0, 1.64] gives the tail beyond
        # 1.64, whose z is then 1.64 itself
        a, b, m = 0.0, 1.64, 2000
        h = (b - a) / m
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        s = phi(a) + phi(b)
        for i in range(1, m):
            s += phi(a + i * h) * (4 if i % 2 else 2)
        integral = s * h / 3
        assert z_value(0.5 - integral) == pytest.approx(1.64, abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            z_value(float("nan"))
        with pytest.raises(DomainError):
            z_value(float("inf"))

    def test_z_paper_compat(self):
        assert z_value(0.05, paper_compat=True) == 1.64
        assert z_value(0.05) == pytest.approx(1.6448536, abs=1e-6)

    def test_z_quarter_tail(self):
        # bisection on the standard library's normal CDF as the oracle
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if NormalDist().cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        assert z_value(0.025) == pytest.approx((lo + hi) / 2, abs=1e-6)
        assert z_value(0.025) == pytest.approx(1.95996, abs=1e-5)

    def test_z_median_limit(self):
        assert abs(z_value(0.5 - 1e-12)) < 1e-6

    def test_z_domain(self):
        with pytest.raises(DomainError):
            z_value(0.5)
        with pytest.raises(DomainError):
            z_value(0.0)

    def test_z_tail_below_double_resolution(self):
        # 1 - 1e-17 rounds to 1.0, but the tail is inverted from t itself
        assert z_value(1e-17) == pytest.approx(8.493793224109599, abs=1e-9)
        assert z_value(2.0 ** -53) == pytest.approx(8.2095, abs=1e-4)

    def test_z_small_tails_against_mpmath(self):
        # root of log(erfc(z / sqrt 2) / 2) = log t at 40 digits, on a log
        # grid of t from 0.49 down to the least subnormal, 2**-1074; the log
        # form converges where erfc(z / sqrt 2) / 2 - t is below any step
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in range(241):
                t = 0.49 ** (1 - k / 240) * 2.0 ** (-1074 * k / 240)
                log_t = mpmath.log(t)
                exact = mpmath.findroot(
                    lambda z: mpmath.log(mpmath.erfc(z / mpmath.sqrt(2)) / 2) - log_t,
                    mpmath.sqrt(-2 * log_t) - mpmath.mpf(0.5))
                assert abs(z_value(t) - float(exact)) < 1e-12, t

    @given(st.floats(0.001, 0.499))
    @settings(max_examples=100)
    def test_roundtrip(self, tail):
        assert NormalDist().cdf(z_value(tail)) == pytest.approx(1 - tail, abs=1e-6)


class TestTypes:
    def test_tail_mass_bounds(self):
        with pytest.raises(DomainError):
            TailMass(0.5)
        with pytest.raises(DomainError):
            TailMass(0.0)
        assert TailMass(0.05).value == 0.05
