"""Single-pass discrete quantiles against full CDF scans.

Each quantile keeps one running sum with the same terms, order and
operations as binom_cdf/poisson_cdf, so every comparison here demands exact
equality with a scan that calls the CDF afresh at every count.
"""

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import SolverError, TestSpec, solve
from dhtplan._backend import pure


def scan_binom_ge(n, p, target):
    k = 0
    while k < n and pure.binom_cdf(k, n, p) < target:
        k += 1
    return k


def scan_binom_le(n, p, tail):
    if pure.binom_cdf(0, n, p) > tail:
        return -1
    k = 0
    while k < n and pure.binom_cdf(k + 1, n, p) <= tail:
        k += 1
    return k


def scan_poisson_ge(lam, target, cap):
    k = 0
    while k <= cap:
        if pure.poisson_cdf(k, lam) >= target:
            return k
        k += 1
    return None


def scan_poisson_le(lam, tail, cap):
    if pure.poisson_cdf(0, lam) > tail:
        return -1
    k = 0
    while k <= cap and pure.poisson_cdf(k + 1, lam) <= tail:
        k += 1
    return k


def poisson_ge_or_none(lam, target, cap):
    try:
        return pure.poisson_quantile_ge(lam, target, cap)
    except SolverError:
        return None


TARGETS = (0.0, 1e-12, 0.0125, 0.025, 0.05, 0.5, 0.95, 0.975, 0.9875, 1.0)
# the reference scans cost O(K^2) CDF terms, so large cases take two targets
LARGE_TARGETS = (0.025, 0.975)

BINOM_CASES = [
    (1, 0.5), (2, 0.5), (375, 0.02), (383, 0.05), (7360, 0.015), (550, 0.02),
    (10, 0.0), (10, 1.0), (10, 0.9), (200, 0.001), (82, 0.3),
    (400, 0.95), (1100, 0.5),  # scaled branch: 0.05**400 and 0.5**1100 underflow
]

POISSON_CASES = [1.0, 7.5, 0.0, 38.78, 0.02, 30.0, 700.5, 800.0]


@pytest.mark.parametrize("n,p", BINOM_CASES)
def test_binom_partial_sums_are_the_cdf(n, p):
    # a last-bit difference rarely moves a quantile, so compare the sums
    ks = range(min(n, 900))
    assert list(islice(pure._binom_partials(n, p), len(ks))) == [
        pure.binom_cdf(k, n, p) for k in ks]


@pytest.mark.parametrize("lam", POISSON_CASES)
def test_poisson_partial_sums_are_the_cdf(lam):
    ks = range(min(pure.poisson_cap(lam), 900))
    assert list(islice(pure._poisson_partials(lam), len(ks))) == [
        pure.poisson_cdf(k, lam) for k in ks]


@pytest.mark.parametrize("n,p", BINOM_CASES)
def test_binom_quantiles_match_scan(n, p):
    for target in TARGETS if n <= 1000 else LARGE_TARGETS:
        assert pure.binom_quantile_ge(n, p, target) == scan_binom_ge(n, p, target)
        assert pure.binom_quantile_le(n, p, target) == scan_binom_le(n, p, target)


@pytest.mark.parametrize("lam", POISSON_CASES)
def test_poisson_quantiles_match_scan(lam):
    cap = pure.poisson_cap(lam)
    for target in TARGETS if lam <= 100.0 else LARGE_TARGETS:
        assert poisson_ge_or_none(lam, target, cap) == scan_poisson_ge(lam, target, cap)
        assert pure.poisson_quantile_le(lam, target, cap) == scan_poisson_le(lam, target, cap)


def test_log_branch_is_exercised():
    """The scaled branch, which replaced the log-space sums, serves these quantiles."""
    assert pow(1.0 - 0.95, 400.0) == 0.0 and pow(0.5, 1100.0) == 0.0
    assert pure.binom_quantile_ge(400, 0.95, 0.5) == 380


def nth_partial(partials, k):
    return next(islice(partials, k, None))


@st.composite
def normal_binomials(draw):
    """(k, n, p) with n <= 3000 whose leading term q**n is a normal double."""
    p = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    top = 3000
    while pow(1.0 - p, float(top)) < 2.0 ** -1022:
        top = min(top - 1, int(1022 * math.log(2.0) / -math.log(1.0 - p)))
    n = draw(st.integers(1, top))
    return draw(st.integers(0, n - 1)), n, p


@given(normal_binomials())
@settings(max_examples=100, deadline=None)
def test_normal_range_binom_cdf_is_its_partial_sum(case):
    k, n, p = case
    assert pure.binom_cdf(k, n, p) == nth_partial(pure._binom_partials(n, p), k)


@given(st.floats(0.0, 700.0, exclude_min=True), st.data())
@settings(max_examples=60, deadline=None)
def test_normal_range_poisson_cdf_is_its_partial_sum(lam, data):
    k = data.draw(st.integers(0, pure.poisson_cap(lam)))
    assert pure.poisson_cdf(k, lam) == nth_partial(pure._poisson_partials(lam), k)


@st.composite
def scaled_binomials(draw):
    """(k, n, p) with n <= 20000 whose leading term q**n lies below 2**-1022."""
    p = draw(st.floats(0.036, 1.0, exclude_max=True))
    # the first n with q**n subnormal or zero, about 708.4 / -log q
    first = math.floor(1022 * math.log(2.0) / -math.log(1.0 - p))
    while pow(1.0 - p, float(first)) >= 2.0 ** -1022:
        first += 1
    n = draw(st.integers(first, 20000))
    return draw(st.integers(0, n - 1)), n, p


@given(scaled_binomials())
@settings(max_examples=100, deadline=None)
def test_scaled_binom_cdf_is_its_partial_sum(case):
    # binom_cdf's underflow exit too must give the value the full sum gives
    k, n, p = case
    assert pure.binom_cdf(k, n, p) == nth_partial(pure._binom_partials(n, p), k)


@given(st.floats(700.0, 3000.0, exclude_min=True), st.data())
@settings(max_examples=60, deadline=None)
def test_scaled_poisson_cdf_is_its_partial_sum(lam, data):
    k = data.draw(st.integers(0, pure.poisson_cap(lam)))
    assert pure.poisson_cdf(k, lam) == nth_partial(pure._poisson_partials(lam), k)


def test_scaled_sum_shrinks_many_times():
    # 0.5**20000 = 2**-20000 and P(X <= 9900) is about 0.079, so the sum runs
    # from m = 1 up through 2**19996 and shrinks by 2**-512 more than 30 times;
    # exp(-3000) is about 2**-4328
    value = pure.binom_cdf(9900, 20000, 0.5)
    assert math.log2(value) + 20000 > 30 * 512
    assert value == nth_partial(pure._binom_partials(20000, 0.5), 9900)
    value = pure.poisson_cdf(3000, 3000.0)
    assert math.log2(value) + 4328 > 8 * 512
    assert value == nth_partial(pure._poisson_partials(3000.0), 3000)


def test_underflow_exit(monkeypatch):
    # P(X <= 127) at n = 7360, p = 0.5 is about 2**-6070: the Chernoff bound
    # returns 0.0 before the leading term is formed, and the full sum rounds
    # to 0.0 as well
    assert nth_partial(pure._binom_partials(7360, 0.5), 127) == 0.0
    leads = []
    monkeypatch.setattr(pure, "_scaled_lead", lambda x: leads.append(x))
    assert pure.binom_cdf(127, 7360, 0.5) == 0.0
    assert leads == []


def poisson_edge(lam):
    """Largest c < lam whose Chernoff exponent lam - c + c log(c/lam) exceeds
    1076 log 2, or 0: poisson_cdf's underflow exit lies within a count of it."""
    lo, hi = 0, math.ceil(lam) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if lam - mid + mid * math.log(mid / lam) > 1076 * math.log(2.0):
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_poisson_underflow_exit(monkeypatch):
    # P(X <= 10**6) at lam = 3e6 is about exp(-704000): the sum of 10**6
    # terms rounds to 0.0, and the Chernoff bound returns it before the
    # leading term is formed; at lam = 1000 the exit ends at c = 69, and
    # c = 70 and 71 are summed, to 0.0 and to the first nonzero value
    assert nth_partial(pure._poisson_partials(3.0e6), 10 ** 6) == 0.0
    assert poisson_edge(1000.0) == 69
    partials = list(islice(pure._poisson_partials(1000.0), 72))
    assert partials[70] == 0.0 < partials[71]
    leads = []
    real_lead = pure._scaled_lead
    monkeypatch.setattr(pure, "_scaled_lead", lambda x: leads.append(x) or real_lead(x))
    assert pure.poisson_cdf(10 ** 6, 3.0e6) == 0.0
    assert pure.poisson_cdf(69, 1000.0) == 0.0
    assert leads == []
    assert [pure.poisson_cdf(c, 1000.0) for c in (70, 71)] == partials[70:]
    assert len(leads) == 2


@given(st.floats(700.0, 4000.0, exclude_min=True), st.integers(-40, 40))
@settings(max_examples=80, deadline=None)
def test_poisson_underflow_exit_is_its_partial_sum(lam, offset):
    # counts on both sides of where the exit ends give the full sum's value
    c = max(0, poisson_edge(lam) + offset)
    assert pure.poisson_cdf(c, lam) == nth_partial(pure._poisson_partials(lam), c)


def test_poisson_cap_bounds_both_quantiles():
    # CDF never reaches 2.0, so ge fails past the cap and le stops at cap + 1
    assert poisson_ge_or_none(1.0, 2.0, 71) is scan_poisson_ge(1.0, 2.0, 71) is None
    assert pure.poisson_quantile_le(1.0, 2.0, 71) == scan_poisson_le(1.0, 2.0, 71) == 72
    assert pure.poisson_quantile_le(0.0, 2.0, 5) == 6


@given(st.integers(1, 400), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_binom_quantiles_sweep(n, p, target):
    assert pure.binom_quantile_ge(n, p, target) == scan_binom_ge(n, p, target)
    assert pure.binom_quantile_le(n, p, target) == scan_binom_le(n, p, target)


@given(st.floats(0.0, 400.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_poisson_quantiles_sweep(lam, target):
    cap = pure.poisson_cap(lam)
    assert poisson_ge_or_none(lam, target, cap) == scan_poisson_ge(lam, target, cap)
    assert pure.poisson_quantile_le(lam, target, cap) == scan_poisson_le(lam, target, cap)


@pytest.mark.parametrize("method,n,c", [("Bin", 2641, 66), ("Poiss", 3171, 79)])
def test_discrete_scan_calls_no_cdf(monkeypatch, method, n, c):
    # the certified walkers decide these scans without one exact CDF sum or
    # quantile; a per-n scan would call a quantile at every n
    calls = {"cdf": 0, "quantile": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for name in ("binom_cdf", "poisson_cdf"):
        monkeypatch.setattr(pure, name, counted("cdf", getattr(pure, name)))
    for name in ("binom_quantile_ge", "binom_quantile_le",
                 "poisson_quantile_ge", "poisson_quantile_le"):
        monkeypatch.setattr(pure, name, counted("quantile", getattr(pure, name)))
    plan = solve(TestSpec(p0=0.02, p1=0.03), method)
    assert (plan.n, plan.c) == (n, c)
    assert calls["quantile"] == 0
    assert calls["cdf"] == 0
