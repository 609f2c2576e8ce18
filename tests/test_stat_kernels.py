"""Probability primitive tests.

Expected values come from independent oracles computed in-test: exact
rational summation for binomial tails, Decimal series for Poisson, Simpson
quadrature for the normal CDF, and linear CDF scans for quantiles.
"""

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (DomainError, SolverError, TailMass, binom_cdf, normal_cdf,
                     poisson_cdf, z_value)
from dhtplan._backend import pure

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


class TestQuantiles:
    """The backend quantiles at 1 - tail (upper) and at tail (lower, -1 when
    CDF(0) is already past it)."""

    def test_upper_zero_rate(self):
        assert pure.binom_quantile_ge(10, 0.0, 0.95) == 0

    def test_upper_poisson_unit(self):
        assert pure.poisson_quantile_ge(1.0, 0.95, pure.poisson_cap(1.0)) == 3

    def test_upper_binomial_scan_oracle(self):
        got = pure.binom_quantile_ge(550, 0.02, 0.95)
        scan = 0
        while binom_cdf(scan, 550, 0.02) < 0.95:
            scan += 1
        assert got == scan
        assert binom_cdf(got - 1, 550, 0.02) < 0.95 <= binom_cdf(got, 550, 0.02)

    def test_lower_poisson(self):
        assert pure.poisson_quantile_le(7.5, 0.05, pure.poisson_cap(7.5)) == 2

    def test_lower_binomial_small(self):
        assert pure.binom_quantile_le(2, 0.5, 0.3) == 0

    def test_lower_none_vs_zero(self):
        # CDF(0) = 1e-10 clears the tail, so a value exists; the direct
        # CDF oracle puts the largest qualifying count at 4
        got = pure.binom_quantile_le(10, 0.9, 0.001)
        assert got >= 0
        assert binom_cdf(got, 10, 0.9) <= 0.001 < binom_cdf(got + 1, 10, 0.9)
        assert got == 4
        assert pure.binom_quantile_le(10, 0.0001, 0.001) == -1

    @given(st.integers(2, 200), st.floats(0.001, 0.999), st.floats(0.001, 0.499))
    @settings(max_examples=80)
    def test_adjointness(self, n, p, tail):
        up = pure.binom_quantile_ge(n, p, 1.0 - tail)
        assert binom_cdf(up, n, p) >= 1 - tail
        if up > 0:
            assert binom_cdf(up - 1, n, p) < 1 - tail
        lo = pure.binom_quantile_le(n, p, tail)
        if lo < 0:
            assert binom_cdf(0, n, p) > tail
        else:
            assert binom_cdf(lo, n, p) <= tail
            assert binom_cdf(lo + 1, n, p) > tail

    def test_poisson_scan_cap_is_internal_error(self):
        with pytest.raises(SolverError):
            pure.poisson_quantile_ge(1.0, 2.0, 71)


class TestNormal:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_quadrature_oracle(self):
        # Simpson's rule on the density over [0, 1.64]
        a, b, m = 0.0, 1.64, 2000
        h = (b - a) / m
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        s = phi(a) + phi(b)
        for i in range(1, m):
            s += phi(a + i * h) * (4 if i % 2 else 2)
        integral = s * h / 3
        assert normal_cdf(1.64) == pytest.approx(0.5 + integral, abs=1e-10)
        assert normal_cdf(1.64) == pytest.approx(0.9495, abs=5e-5)

    def test_reflection(self):
        assert normal_cdf(-1.64) == pytest.approx(1 - normal_cdf(1.64), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            normal_cdf(float("inf"))

    def test_z_paper_compat(self):
        assert z_value(0.05, paper_compat=True) == 1.64
        assert z_value(0.05) == pytest.approx(1.6448536, abs=1e-6)

    def test_z_quarter_tail(self):
        # bisection on normal_cdf as the independent oracle
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if normal_cdf(mid) < 0.975:
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
        # 1 - 1e-17 rounds to 1.0, whose normal quantile is infinite
        with pytest.raises(DomainError, match="tail"):
            z_value(1e-17)
        assert z_value(2.0 ** -53) == pytest.approx(8.2095, abs=1e-4)

    @given(st.floats(0.001, 0.499))
    @settings(max_examples=100)
    def test_roundtrip(self, tail):
        assert normal_cdf(z_value(tail)) == pytest.approx(1 - tail, abs=1e-6)


class TestTypes:
    def test_tail_mass_bounds(self):
        with pytest.raises(DomainError):
            TailMass(0.5)
        with pytest.raises(DomainError):
            TailMass(0.0)
        assert TailMass(0.05).value == 0.05
