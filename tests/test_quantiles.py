"""The exact kernels' partial sums and the walkers' quantiles against full
CDF scans.

binom_cdf(k, n, p) and poisson_cdf(k, lam) are the k-th partial sums of one
term series, non-decreasing in k, so a walker whose count the exact kernel
finds off steps through the kernel's values to the first count that
reaches its target.  The quantiles here are first_reaching over a reference
copy of the term loop (kernel_reference), held bit for bit to the kernels,
and the walkers' counts; every comparison demands exact equality with a
scan that calls the CDF afresh at every count.
"""

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import SolverError, TestSpec, binom_cdf, poisson_cdf, solve
from dhtplan import _backend as pure
from kernel_reference import binom_sums, first_reaching, poisson_sums, poisson_trials


def scan_binom_ge(n, p, target):
    k = 0
    while k < n and binom_cdf(k, n, p) < target:
        k += 1
    return k


def scan_binom_le(n, p, tail):
    if binom_cdf(0, n, p) > tail:
        return -1
    k = 0
    while k < n and binom_cdf(k + 1, n, p) <= tail:
        k += 1
    return k


def scan_poisson_ge(lam, target, cap):
    k = 0
    while k <= cap:
        if poisson_cdf(k, lam) >= target:
            return k
        k += 1
    return None


def scan_poisson_le(lam, tail, cap):
    if poisson_cdf(0, lam) > tail:
        return -1
    k = 0
    while k <= cap and poisson_cdf(k + 1, lam) <= tail:
        k += 1
    return k


def binom_ge(n, p, target):
    """Smallest k with P(X <= k) >= target, X ~ Binomial(n, p); at most n."""
    return first_reaching(binom_sums(n, p), target, False, n)


def binom_le(n, p, tail):
    """Largest k with P(X <= k) <= tail, or -1 when CDF(0) > tail."""
    return first_reaching(binom_sums(n, p), tail, True, n + 1) - 1


def poisson_ge_or_none(lam, target, cap):
    """Smallest k <= cap with P(X <= k) >= target, X ~ Poisson(lam), or None."""
    k = first_reaching(poisson_sums(lam), target, False, cap + 1)
    return k if k <= cap else None


def poisson_le(lam, tail, cap):
    """Largest k with P(X <= k) <= tail, at most cap + 1; -1 when CDF(0) > tail."""
    return first_reaching(poisson_sums(lam), tail, True, cap + 2) - 1


def assert_walker_first(poisson, n, p, target):
    """A fresh walker's counts at n, at target and at the next double above
    it, are the first counts whose kernel CDF reaches target and exceeds
    it, and SolverError where that count lies past the cap."""
    cap = pure.poisson_cap(n * p)
    for strict in (False, True):
        sums = poisson_sums(n * p) if poisson else binom_sums(n, p)
        k = first_reaching(sums, target, strict, cap + 1)
        walker = pure._Walk(p, poisson)
        at = math.nextafter(target, math.inf) if strict else target
        if k > cap:
            with pytest.raises(SolverError, match="exceeded cap %d" % cap):
                walker.first(n, at)
        else:
            assert walker.first(n, at) == k, (n, p, target, strict)


def test_walker_search_ties_and_stop():
    # Binomial(4, 1/2): CDF 1/16, 5/16, 11/16, 15/16, 1 at counts 0 to 4.  A
    # target equal to a CDF value is within every error bound of it, so the
    # exact kernel decides, and a search at the next double steps past the tie
    cdf = [binom_cdf(k, 4, 0.5) for k in range(5)]
    assert cdf == [1 / 16, 5 / 16, 11 / 16, 15 / 16, 1.0]
    first = lambda target: pure._Walk(0.5, False).first(4, target)  # noqa: E731
    assert first(5 / 16) == 1
    assert first(math.nextafter(5 / 16, math.inf)) == 2
    assert first(math.nextafter(0.0, math.inf)) == 0
    assert first(1.0) == 4
    # no count exceeds 1.0: a search past it gives up at the cap
    cap = pure.poisson_cap(2.0)
    with pytest.raises(SolverError, match="exceeded cap %d at mean 2$" % cap):
        first(math.nextafter(1.0, 2.0))


@pytest.mark.parametrize("poisson", [False, True])
def test_walker_steps_down_to_the_quantile(poisson):
    # a count re-seeded three above the median: the count below it reaches
    # too, so the search steps down, one exact sum per count, to the median,
    # and re-seeds there from the pass that reached
    calls = []

    class Counted(pure._Walk):
        __slots__ = ()

        def exact(self, j):
            calls.append(j)
            return super().exact(j)

    k = Counted(0.3, poisson).first(200, 0.5)
    w = Counted(0.3, poisson)
    w.move(200)
    w.reseed(k + 3)
    calls.clear()
    assert w.first(200, 0.5) == k
    assert calls == [k + 2, k + 1, k, k - 1]
    assert (w.k, w.cdf, w.pmf) == (k, *w.exact(k))
    assert w.exact(k - 1)[0] < 0.5 <= w.cdf


@pytest.mark.parametrize("poisson", [False, True])
def test_walker_sums_each_count_once(monkeypatch, poisson):
    # a spy on the kernels' one term-sum loop: a re-seed costs one pass, and
    # an exact search that steps up sums each count it visits once, then
    # re-seeds from the pass that reached
    k = pure._Walk(0.3, poisson).first(200, 0.5)
    passes = []
    term_sum = pure._term_sum
    monkeypatch.setattr(pure, "_term_sum", lambda *a: passes.append(a[2]) or term_sum(*a))
    w = pure._Walk(0.3, poisson)
    w.move(200)
    w.reseed(k - 3)
    assert passes == [k - 3]
    # a running CDF at the target itself is too close to call
    passes.clear()
    w.cdf = 0.5
    assert w.first(200, 0.5) == k
    assert passes == [k - 3, k - 2, k - 1, k]
    assert (w.k, w.cdf, w.pmf) == (k, *w.exact(k))


# q**n is subnormal at (3273, 0.3) and (2000, 0.33), lam above 700 at
# (1943, 0.45) and (5049, 0.33)
PMF_POINTS = [(40, 0.1), (2641, 0.02), (3273, 0.3), (2000, 0.33), (1943, 0.45),
              (5049, 0.33), (10**6, 0.001)]


@pytest.mark.parametrize("poisson", [False, True])
def test_reseeded_pmf_within_its_bound(poisson):
    # a re-seed takes the pmf from the kernel pass's last term, within the
    # kernel's own term bound ka + kb k of the 50-digit P(X = k), in the
    # tails and at the mode, with a scaled leading term too
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for n, p in PMF_POINTS:
            w = pure._Walk(p, poisson)
            w.move(n)
            mean, sd = n * p, math.sqrt(n * p)
            counts = {min(n, max(0, int(mean + z * sd))) for z in (-6, -2, 0, 2, 6)}
            for k in sorted(counts | ({0, n} if n < 100 else set())):
                w.reseed(k)
                if poisson:
                    lam = mpmath.mpf(w.a)
                    want = mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
                else:
                    P = mpmath.mpf(p)
                    want = mpmath.binomial(n, k) * P ** k * (1 - P) ** (n - k)
                assert w.pmf >= pure._MIN_PMF, (n, p, k)
                assert abs(w.pmf - want) <= w.pmf_rel * want, (n, p, k)


TARGETS =(0.0, 1e-12, 0.0125, 0.025, 0.05, 0.5, 0.95, 0.975, 0.9875, 1.0)
# the reference scans cost O(K^2) CDF terms, so large cases take two targets
LARGE_TARGETS = (0.025, 0.975)

BINOM_CASES = [
    (1, 0.5), (2, 0.5), (375, 0.02), (383, 0.05), (7360, 0.015), (550, 0.02),
    (10, 0.0), (10, 1.0), (10, 0.9), (200, 0.001), (82, 0.3),
    (400, 0.95), (1100, 0.5),  # scaled branch: 0.05**400 and 0.5**1100 underflow
]

POISSON_CASES = [1.0, 7.5, 0.0, 38.78, 0.02, 30.0, 700.5, 800.0]


def assert_non_decreasing(values):
    assert all(a <= b for a, b in zip(values, values[1:]))


# a last-bit difference rarely moves a quantile, so compare the sums: the
# reference's running sum is the kernel's at every count, and the kernel's
# values never fall as the count grows, which the walkers' search rests on
@pytest.mark.parametrize("n,p", BINOM_CASES)
def test_binom_partial_sums_are_the_cdf(n, p):
    cdf = [binom_cdf(k, n, p) for k in range(min(n, 900))]
    assert list(islice(binom_sums(n, p), len(cdf))) == cdf
    assert_non_decreasing(cdf)


@pytest.mark.parametrize("lam", POISSON_CASES)
def test_poisson_partial_sums_are_the_cdf(lam):
    cdf = [poisson_cdf(k, lam) for k in range(min(pure.poisson_cap(lam), 900))]
    assert list(islice(poisson_sums(lam), len(cdf))) == cdf
    assert_non_decreasing(cdf)


# the walkers follow rates 0 < p < 1/2, the solvers' domain
@pytest.mark.parametrize("n,p", BINOM_CASES)
def test_binom_quantiles_match_scan(n, p):
    for target in TARGETS if n <= 1000 else LARGE_TARGETS:
        assert binom_ge(n, p, target) == scan_binom_ge(n, p, target)
        assert binom_le(n, p, target) == scan_binom_le(n, p, target)
        if 0.0 < p < 0.5:
            assert_walker_first(False, n, p, target)


@pytest.mark.parametrize("lam", POISSON_CASES)
def test_poisson_quantiles_match_scan(lam):
    cap = pure.poisson_cap(lam)
    for target in TARGETS if lam <= 100.0 else LARGE_TARGETS:
        assert poisson_ge_or_none(lam, target, cap) == scan_poisson_ge(lam, target, cap)
        assert poisson_le(lam, target, cap) == scan_poisson_le(lam, target, cap)
        if lam:
            assert_walker_first(True, *poisson_trials(lam), target)


def test_log_branch_is_exercised():
    """The scaled branch, which replaced the log-space sums, serves these quantiles."""
    assert pow(1.0 - 0.95, 400.0) == 0.0 and pow(0.5, 1100.0) == 0.0
    assert binom_ge(400, 0.95, 0.5) == 380


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
    assert binom_cdf(k, n, p) == nth_partial(binom_sums(n, p), k)


@given(st.floats(0.0, 700.0, exclude_min=True), st.data())
@settings(max_examples=60, deadline=None)
def test_normal_range_poisson_cdf_is_its_partial_sum(lam, data):
    k = data.draw(st.integers(0, pure.poisson_cap(lam)))
    assert poisson_cdf(k, lam) == nth_partial(poisson_sums(lam), k)


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
    assert binom_cdf(k, n, p) == nth_partial(binom_sums(n, p), k)


@given(st.floats(700.0, 3000.0, exclude_min=True), st.data())
@settings(max_examples=60, deadline=None)
def test_scaled_poisson_cdf_is_its_partial_sum(lam, data):
    k = data.draw(st.integers(0, pure.poisson_cap(lam)))
    assert poisson_cdf(k, lam) == nth_partial(poisson_sums(lam), k)


def test_scaled_sum_shrinks_many_times():
    # 0.5**20000 = 2**-20000 and P(X <= 9900) is about 0.079, so the sum runs
    # from m = 1 up through 2**19996 and shrinks by 2**-512 more than 30 times;
    # exp(-3000) is about 2**-4328
    value = binom_cdf(9900, 20000, 0.5)
    assert math.log2(value) + 20000 > 30 * 512
    assert value == nth_partial(binom_sums(20000, 0.5), 9900)
    value = poisson_cdf(3000, 3000.0)
    assert math.log2(value) + 4328 > 8 * 512
    assert value == nth_partial(poisson_sums(3000.0), 3000)


def test_underflow_exit(monkeypatch):
    # P(X <= 127) at n = 7360, p = 0.5 is about 2**-6070: the Chernoff bound
    # returns 0.0 before the leading term is formed, and the full sum rounds
    # to 0.0 as well
    assert nth_partial(binom_sums(7360, 0.5), 127) == 0.0
    leads = []
    monkeypatch.setattr(pure, "_scaled_lead", lambda x: leads.append(x))
    assert binom_cdf(127, 7360, 0.5) == 0.0
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
    assert nth_partial(poisson_sums(3.0e6), 10 ** 6) == 0.0
    assert poisson_edge(1000.0) == 69
    partials = list(islice(poisson_sums(1000.0), 72))
    assert partials[70] == 0.0 < partials[71]
    leads = []
    real_lead = pure._scaled_lead
    monkeypatch.setattr(pure, "_scaled_lead", lambda x: leads.append(x) or real_lead(x))
    assert poisson_cdf(10 ** 6, 3.0e6) == 0.0
    assert poisson_cdf(69, 1000.0) == 0.0
    assert leads == []
    assert [poisson_cdf(c, 1000.0) for c in (70, 71)] == partials[70:]
    assert len(leads) == 2


@given(st.floats(700.0, 4000.0, exclude_min=True), st.integers(-40, 40))
@settings(max_examples=80, deadline=None)
def test_poisson_underflow_exit_is_its_partial_sum(lam, offset):
    # counts on both sides of where the exit ends give the full sum's value
    c = max(0, poisson_edge(lam) + offset)
    assert poisson_cdf(c, lam) == nth_partial(poisson_sums(lam), c)


def test_poisson_cap_bounds_both_quantiles():
    # CDF never reaches 2.0, so ge fails past the cap and le stops at cap + 1
    assert poisson_ge_or_none(1.0, 2.0, 71) is scan_poisson_ge(1.0, 2.0, 71) is None
    assert poisson_le(1.0, 2.0, 71) == scan_poisson_le(1.0, 2.0, 71) == 72
    assert poisson_le(0.0, 2.0, 5) == 6


@given(st.integers(1, 400), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_binom_quantiles_sweep(n, p, target):
    assert binom_ge(n, p, target) == scan_binom_ge(n, p, target)
    assert binom_le(n, p, target) == scan_binom_le(n, p, target)
    if 0.0 < p < 0.5:
        assert_walker_first(False, n, p, target)


@given(st.floats(0.0, 400.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_poisson_quantiles_sweep(lam, target):
    cap = pure.poisson_cap(lam)
    assert poisson_ge_or_none(lam, target, cap) == scan_poisson_ge(lam, target, cap)
    assert poisson_le(lam, target, cap) == scan_poisson_le(lam, target, cap)
    if lam > 1e-300:
        assert_walker_first(True, *poisson_trials(lam), target)


@pytest.mark.parametrize("method,n,c", [("Bin", 2641, 66), ("Poiss", 3171, 79)])
def test_discrete_scan_calls_no_cdf(monkeypatch, method, n, c):
    # the certified walkers decide these scans without one exact CDF sum; a
    # per-n scan would sum a CDF at every count of every n
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    for name in ("_binom_pass", "_poisson_pass"):
        monkeypatch.setattr(pure, name, counted(getattr(pure, name)))
    plan = solve(TestSpec(p0=0.02, p1=0.03), method)
    assert (plan.n, plan.c) == (n, c)
    assert calls == []
