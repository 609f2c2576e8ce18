"""Single-pass discrete quantiles against full CDF scans.

Each quantile keeps one running sum with the same terms, order and
operations as binom_cdf/poisson_cdf, so every comparison here demands exact
equality with a scan that calls the CDF afresh at every count.
"""

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
    (400, 0.95), (1100, 0.5),  # log branch: 0.05**400 and 0.5**1100 underflow
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
    assert pow(1.0 - 0.95, 400.0) == 0.0 and pow(0.5, 1100.0) == 0.0
    assert pure.binom_quantile_ge(400, 0.95, 0.5) == 380


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
