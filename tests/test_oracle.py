"""The exact kernels against scipy.stats, an independent implementation.

The certified scans fall back to these kernels, so they are held to the
bound the benchmark uses: 1e-9 relative wherever scipy reads at least
1e-250, and 1e-250 absolute below that.  Wherever its leading term q**n, or
exp(-lam), would be subnormal, a kernel sums from that term scaled by a
power of two, and the binomial kernel returns 0.0 at once for a tail whose
Chernoff bound is below 2**-1076; so no point gets more than that bound.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtplan import binom_cdf, poisson_cdf
from dhtplan import _backend as pure
from kernel_reference import binom_sums, first_reaching, poisson_sums

stats = pytest.importorskip("scipy.stats")
special = pytest.importorskip("scipy.special")

REL = 1e-9
FLOOR = 1e-250


def binom_tol(ref, n, p):
    return FLOOR if ref < FLOOR else REL * ref


def poisson_tol(ref):
    return FLOOR if ref < FLOOR else REL * ref


@st.composite
def binomials(draw):
    """(k, n, p) with n <= 20000 and p in [1e-6, 0.5], often with q**n subnormal."""
    p = 10.0 ** draw(st.floats(-6.0, math.log10(0.5)))
    lq = -math.log1p(-p)
    # binom_cdf scales its leading term once q**n < 2**-1022, n > 708.4 / -log q
    first_log = math.ceil(1022 * math.log(2.0) / lq)
    if first_log <= 20000 and draw(st.booleans()):
        n = draw(st.integers(first_log, 20000))
    else:
        n = draw(st.integers(1, 20000))
    k = draw(st.integers(0, n))
    return k, n, p


def binom_reference(k, n, p):
    """scipy's P(X <= k), or below FLOOR its log pmf summed in log space:
    scipy's cdf can lose a value that small altogether (it reads 0.0 for
    P(X <= 33) at n = 6406, p = 0.1047011080095176, which is 1.634e-250)."""
    ref = float(stats.binom.cdf(k, n, p))
    if ref < FLOOR:
        ref = math.exp(special.logsumexp(stats.binom.logpmf(range(k + 1), n, p)))
    return ref


@given(binomials())
@settings(max_examples=120, deadline=None)
@example(case=(33, 6406, 0.1047011080095176))
def test_binom_cdf(case):
    k, n, p = case
    ref = binom_reference(k, n, p)
    assert abs(binom_cdf(k, n, p) - ref) <= binom_tol(ref, n, p)


def test_binom_cdf_log_branch_is_drawn():
    # 0.5**20000 underflows, so the scaled branch is reachable within the
    # drawn range
    assert pow(0.5, 20000.0) == 0.0
    ref = float(stats.binom.cdf(9900, 20000, 0.5))
    assert abs(binom_cdf(9900, 20000, 0.5) - ref) <= binom_tol(ref, 20000, 0.5)


def test_binom_cdf_subnormal_leading_term():
    # 0.7**2085 is subnormal; summed from it, P(X <= 662) read 0.8873 and no
    # count below n reached 0.975
    assert 0.0 < pow(0.7, 2085.0) < 2.0 ** -1022
    ref = float(stats.binom.cdf(662, 2085, 0.3))
    assert abs(ref - 0.96094174447987) < 1e-12
    assert abs(binom_cdf(662, 2085, 0.3) - ref) <= binom_tol(ref, 2085, 0.3)
    assert stats.binom.ppf(0.975, 2085, 0.3) == 667
    assert binom_cdf(666, 2085, 0.3) < 0.975 <= binom_cdf(667, 2085, 0.3)


@st.composite
def poissons(draw):
    """(k, lam) with lam up to 3000, past the switch to a scaled exp(-lam) at 700."""
    lam = draw(st.one_of(st.floats(1e-6, 700.0), st.floats(700.0, 3000.0)))
    k = draw(st.integers(0, int(lam + 12.0 * math.sqrt(lam) + 12.0)))
    return k, lam


@given(poissons())
@settings(max_examples=100, deadline=None)
def test_poisson_cdf(case):
    k, lam = case
    ref = float(stats.poisson.cdf(k, lam))
    assert abs(poisson_cdf(k, lam) - ref) <= poisson_tol(ref)


# A quantile is the first count whose CDF reaches the target.  scipy's CDF
# may differ from the kernel's within the bound, so a count whose CDF lies
# within the bound of the target may fall either way; elsewhere they agree.
TARGETS = st.floats(1e-6, 1.0 - 1e-6)


def assert_first_count(k, target, cdf, tol, last):
    """k is the first count up to last whose CDF reaches target, within tol."""
    if k < last:
        value = cdf(k)
        assert value + tol(value) >= target
    if k > 0:
        value = cdf(k - 1)
        assert value - tol(value) <= target


@given(binomials(), TARGETS)
@settings(max_examples=60, deadline=None)
def test_binomial_quantiles(case, target):
    _, n, p = case
    cdf = lambda k: float(stats.binom.cdf(k, n, p))  # noqa: E731
    tol = lambda ref: binom_tol(ref, n, p)  # noqa: E731
    # the upper quantile is the first count reaching the target, the lower
    # one the last count below the first one past it (strict)
    for strict in (False, True):
        k = first_reaching(binom_sums(n, p), target, strict, n + 1)
        assert_first_count(k, target, cdf, tol, n)


@given(poissons(), TARGETS)
@settings(max_examples=60, deadline=None)
def test_poisson_quantiles(case, target):
    _, lam = case
    cap = pure.poisson_cap(lam)
    cdf = lambda k: float(stats.poisson.cdf(k, lam))  # noqa: E731
    for strict in (False, True):
        stop = cap + 1 + strict
        k = first_reaching(poisson_sums(lam), target, strict, stop)
        assert_first_count(k, target, cdf, poisson_tol, stop)
