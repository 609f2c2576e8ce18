"""Certified incremental plan scans against the per-n quantile scans they replace.

discrete_scan and zero_scan follow each quantile with a walker that carries
a running CDF and an error bound, and ask the exact kernel only when the
target lies inside that bound.  The reference scans below recompute every
quantile from k = 0 at every n with the exact quantile functions, as the
scans did before; every comparison demands the identical tuple.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import SolverError, TestSpec, solve
from dhtplan._backend import pure
from dhtplan.plan_solvers import EPS_BIN, EPS_POISS


def exact_counts(use_poisson, p0, p1, a_half, b_half, n):
    """(l1, L1) at n from the exact quantiles; L1 is None while l1 = 0."""
    if use_poisson:
        lam1 = n * p1
        l1 = pure.poisson_quantile_le(lam1, b_half, pure.poisson_cap(lam1)) + 1
        if not l1:
            return 0, None
        lam0 = n * p0
        return l1, pure.poisson_quantile_ge(lam0, 1.0 - a_half, pure.poisson_cap(lam0)) + 1
    l1 = pure.binom_quantile_le(n, p1, b_half) + 1
    if not l1:
        return 0, None
    return l1, pure.binom_quantile_ge(n, p0, 1.0 - a_half) + 1


def stops(L1, l1, eps, n):
    return L1 <= l1 or abs(L1 - l1) <= eps * n


def reference_discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    for n in range(1, max_n + 1):
        l1, L1 = exact_counts(use_poisson, p0, p1, a_half, b_half, n)
        if l1 and stops(L1, l1, eps, n):
            return True, n, L1, l1
    return False, max_n, 0, 0


def reference_zero_scan(use_poisson, p1, b_tail, max_n):
    for n in range(1, max_n + 1):
        if use_poisson:
            lam = n * p1
            m = pure.poisson_quantile_ge(lam, 0.5, pure.poisson_cap(lam))
            c = int(math.floor(m / 2.0 + 0.5))
            risk = pure.poisson_cdf(c - 1, lam)
        else:
            m = pure.binom_quantile_ge(n, p1, 0.5)
            c = int(math.floor(m / 2.0 + 0.5))
            risk = pure.binom_cdf(c - 1, n, p1)
        if c >= 1 and risk <= b_tail:
            return True, n, m, c
    return False, max_n, 0, 0


def scan_args(method, p0, p1, alpha=0.05, beta=0.05, eps=None, max_n=200_000):
    """The scan and its arguments, as solve() calls them for this spec."""
    use_poisson = method == "Poiss"
    if p0 == 0.0:
        return "zero", (use_poisson, p1, beta, max_n)
    if eps is None:
        eps = EPS_POISS if use_poisson else EPS_BIN
    return "discrete", (use_poisson, p0, p1, alpha / 2.0, beta / 2.0, eps, max_n)


SCANS = {"zero": (pure.zero_scan, reference_zero_scan),
         "discrete": (pure.discrete_scan, reference_discrete_scan)}


def assert_same_scan(kind, args):
    scan, reference = SCANS[kind]
    got = scan(*args)
    assert got == reference(*args)
    return got


# the plan-discrete benchmark pairs, then the close pairs
BENCH_PAIRS = [(0.0, 0.02), (0.0, 0.0005), (0.02, 0.05), (0.05, 0.10),
               (0.10, 0.15), (0.02, 0.03)]
CLOSE_PAIRS = [(0.015, 0.02), (0.05, 0.06), (0.10, 0.12)]


@pytest.mark.parametrize("method", ["Bin", "Poiss"])
@pytest.mark.parametrize("p0,p1", BENCH_PAIRS + CLOSE_PAIRS)
def test_scan_matches_reference(method, p0, p1):
    assert_same_scan(*scan_args(method, p0, p1))


def test_bin_scan_across_the_log_branch():
    # 0.67**n leaves the normal range at n = 1769 and 0.7**n at n = 1987, and
    # the kernel sums from a scaled leading term past there on both sides; a
    # per-n scipy scan gives the same (n, L1, l1)
    assert pow(0.67, 1769.0) < 2.0 ** -1022 <= pow(0.67, 1768.0)
    assert pow(0.7, 1987.0) < 2.0 ** -1022 <= pow(0.7, 1986.0)
    assert assert_same_scan(*scan_args("Bin", 0.3, 0.33)) == (True, 3273, 1034, 1028)


def test_poisson_scans_across_lambda_700():
    converged, n, m, _ = assert_same_scan("zero", (True, 0.49, 1e-50, 5000))
    assert converged and n * 0.49 > 700.0 and m > 700
    converged, n, _, _ = assert_same_scan("discrete", (True, 0.42, 0.48, 0.025, 0.025, 0.001, 5000))
    assert converged and n * 0.48 > 700.0


def test_zero_scan_with_a_subnormal_tail():
    # with b_tail = 1e-320 the risk count sits far in the tail; the per-n
    # reference scan (about a minute) gives the same tuple
    assert pure.zero_scan(False, 0.3, 1e-320, 20000) == (True, 11987, 3596, 1798)


@given(st.sampled_from(["Bin", "Poiss"]), st.floats(0.0, 0.45), st.floats(1.1, 3.0),
       st.sampled_from([0.05, 0.01, 0.2]), st.sampled_from([0.05, 1e-4, 0.3]),
       st.sampled_from([None, 0.01, 1e-4]), st.integers(2, 600))
@settings(max_examples=60, deadline=None)
def test_scans_sweep(method, p0, ratio, alpha, beta, eps, max_n):
    if p0 < 0.002:
        p0 = 0.0
    p1 = min(max(p0 * ratio, 0.002), 0.49)
    if p1 <= p0:
        return
    assert_same_scan(*scan_args(method, p0, p1, alpha, beta, eps, max_n))


def test_exact_fallback_gives_the_same_scans(monkeypatch):
    # a unit roundoff of 1e-7 leaves most decisions to the exact kernel and
    # makes the walkers re-seed from it; the scans must not change
    monkeypatch.setattr(pure, "_U", 1e-7)
    for method in ("Bin", "Poiss"):
        for p0, p1 in [(0.0, 0.02), (0.02, 0.05), (0.10, 0.15)]:
            assert_same_scan(*scan_args(method, p0, p1))


@pytest.mark.parametrize("walk", [pure._BinomWalk, pure._PoissonWalk])
def test_walker_falls_back_when_the_quantile_moves_down(walk):
    w = walk(0.05)
    w.first(400, 0.975, False)
    k = w.first(401, 0.5, False)
    if walk is pure._BinomWalk:
        assert k == pure.binom_quantile_ge(401, 0.05, 0.5)
    else:
        assert k == pure.poisson_quantile_ge(401 * 0.05, 0.5, pure.poisson_cap(401 * 0.05))


def test_poisson_walker_keeps_the_cap():
    cap = pure.poisson_cap(10 * 0.1)
    with pytest.raises(SolverError, match="exceeded cap %d" % cap):
        pure._PoissonWalk(0.1).first(10, 2.0, False)
    assert pure._PoissonWalk(0.1).first(10, 2.0, True) == cap + 2


def test_binomial_walker_keeps_the_cap():
    # the Poisson cap at the mean n p = 1, far below n = 1000
    cap = pure.poisson_cap(1000 * 0.001)
    with pytest.raises(SolverError, match="exceeded cap %d" % cap):
        pure._BinomWalk(0.001).first(1000, 2.0, False)
    assert pure._BinomWalk(0.001).first(1000, 2.0, True) == cap + 2


def assert_within_bound(w):
    """The running CDF at k and at k - 1 against the exact kernel."""
    k = w.k
    bound = w.cdf_err + w.cdf * (w.ka + w.kb * k)
    assert abs(w.cdf - w.exact(k)) <= bound
    if k:
        low = w.cdf - w.pmf
        bound = w.cdf_err + w.pmf * w.pmf_rel + low * (w.ka + w.kb * (k - 1) + pure._U)
        assert abs(low - w.exact(k - 1)) <= bound


def checking(walk, log):
    """walk, checked against the exact kernel after every move and every
    count it returns, with those counts logged as (p, n, k)."""

    class Checked(walk):
        __slots__ = ()

        def move(self, n):
            super().move(n)
            assert_within_bound(self)

        def first(self, n, target, strict):
            k = super().first(n, target, strict)
            assert_within_bound(self)
            log.append((self.p, n, k))
            return k

    return Checked


def walk_discrete(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    """discrete_scan, jump for jump, with every walker move checked against
    the exact kernel and every n it skips against the exact quantiles there."""
    log = []
    with mock.patch.object(pure, "_BinomWalk", checking(pure._BinomWalk, log)), \
            mock.patch.object(pure, "_PoissonWalk", checking(pure._PoissonWalk, log)):
        converged, last, _, _ = pure.discrete_scan(use_poisson, p0, p1, a_half, b_half,
                                                   eps, max_n)
    held = {}  # evaluated n -> [l1, L1]
    for p, n, k in log:
        if p == p1:
            held[n] = [k, None]
        else:
            held[n][1] = k + 1
    evaluated = sorted(held)
    assert evaluated[-1] == last or not converged
    for n, after in zip(evaluated, evaluated[1:] + [last + 1 if converged else max_n + 1]):
        l1, L1 = held[n]
        for m in range(n + 1, after):
            assert exact_counts(use_poisson, p0, p1, a_half, b_half, m) == (l1, L1), m
            assert not (l1 and stops(L1, l1, eps, m)), m
    return len(evaluated)


def walk_zero(use_poisson, p1, b_tail, max_n):
    """zero_scan at every n, with each hold checked against the n it spans."""
    walk = pure._PoissonWalk if use_poisson else pure._BinomWalk
    median, risk = walk(p1), walk(p1)
    held = {}
    for n in range(1, max_n + 1):
        m = median.first(n, 0.5, False)
        assert_within_bound(median)
        c = int(math.floor(m / 2.0 + 0.5))
        if "median" in held and n <= held["median"][1]:
            assert m == held["median"][0]
        held["median"] = (m, n + median.hold(0.5, max_n - n, True))
        if c < 1:
            continue
        below = risk.cdf_at_most(n, c - 1, b_tail)
        assert_within_bound(risk)
        if "risk" in held and held["risk"][0] == c and n <= held["risk"][1]:
            assert not below
        if below:
            return
        held["risk"] = (c, n + risk.hold(b_tail, max_n - n, False))


@pytest.mark.parametrize("method", ["Bin", "Poiss"])
@pytest.mark.parametrize("p0,p1", BENCH_PAIRS)
def test_running_cdf_within_bound(method, p0, p1):
    kind, args = scan_args(method, p0, p1)
    (walk_zero if kind == "zero" else walk_discrete)(*args)


def test_running_cdf_within_bound_past_the_linear_branch():
    walk_discrete(*scan_args("Bin", 0.3, 0.33)[1])
    walk_zero(True, 0.49, 1e-50, 5000)


def test_discrete_scan_skips_most_n():
    # the counts change about once every 1/p trials, so most n are skipped
    assert walk_discrete(*scan_args("Bin", 0.015, 0.02)[1]) < 600   # of n = 5790
    assert walk_discrete(*scan_args("Poiss", 0.02, 0.03)[1]) < 400  # of n = 3171


@given(st.sampled_from([pure._BinomWalk, pure._PoissonWalk]), st.floats(0.0005, 0.45),
       st.integers(1, 2000), st.integers(0, 2000),
       st.sampled_from([0.5, 0.975, 0.025, 0.9999, 1e-4]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hold_keeps_the_exact_quantile(walk, p, n0, dn, target, left):
    # a walker that took one jump holds its count; at no n in the held range
    # may the exact CDF at k reach the target, nor (with left) the one at k - 1
    w = walk(p)
    w.first(n0, target, False)
    n = n0 + dn
    k = w.first(n, target, False)
    held = w.hold(target, 5000, left)
    exact = pure.binom_cdf if walk is pure._BinomWalk else (
        lambda j, m, p: pure.poisson_cdf(j, m * p))
    for m in range(n + 1, n + held + 1):
        assert exact(k, m, p) > target, (m, held)
        if left and k:
            assert exact(k - 1, m, p) < target, (m, held)


@pytest.mark.parametrize("walk", [pure._BinomWalk, pure._PoissonWalk])
def test_hold_checks_the_count_below(walk):
    # at the 0.975 quantile k of n = 1000, P(X <= k - 1) is far above 0.5:
    # the count stays above 0.5 for a while, but it is no quantile of 0.5
    w = walk(0.02)
    k = w.first(1000, 0.975, False)
    assert w.exact(k - 1) > 0.5
    assert w.hold(0.5, 1000, False) > 0
    assert w.hold(0.5, 1000, True) == 0


# (n, p) around the scans' regimes: q**n subnormal at (3273, 0.3) and
# (2000, 0.33), lam > 700 at (1943, 0.45) and (5049, 0.33)
JUMP_POINTS = [(2641, 0.02), (5790, 0.06), (3273, 0.3), (2000, 0.33), (1943, 0.45),
               (5049, 0.33), (21000, 0.0004), (40, 0.1)]


@pytest.mark.parametrize("walk", [pure._BinomWalk, pure._PoissonWalk])
@pytest.mark.parametrize("h", [2, 9, 40, 300, 3000])
def test_one_jump_within_bound(walk, h):
    # a walker re-seeded at (k, n) crosses h trials in one move; k is the
    # median halfway through, so its pmf stays normal at both ends
    for n, p in JUMP_POINTS:
        k = min(n, pure.binom_quantile_ge(n + h // 2, p, 0.5))
        w = walk(p)
        w.move(n)
        w.reseed(k)
        w.move(n + h)
        assert w.n == n + h and w.pmf >= pure._MIN_PMF, (n, p)
        assert_within_bound(w)


@given(st.sampled_from(["Bin", "Poiss"]), st.floats(0.0005, 0.02), st.floats(1.2, 4.0),
       st.booleans(), st.sampled_from([0.05, 0.1, 0.01]), st.sampled_from([0.05, 0.1, 1e-3]),
       st.sampled_from([None, 0.01, 0.03]), st.integers(600, 4000))
@settings(max_examples=20, deadline=None)
def test_scans_sweep_long_jumps(method, p1, ratio, zero, alpha, beta, eps, max_n):
    # small rates, where the scans skip hundreds of n at a time
    p0 = 0.0 if zero else p1 / ratio
    assert_same_scan(*scan_args(method, p0, p1, alpha, beta, eps, max_n))


@pytest.mark.parametrize("method,p0,p1,n", [("Bin", 0.05, 0.06, 5790),
                                            ("Poiss", 0.05, 0.06, 7004)])
def test_scans_do_not_restart_from_zero(monkeypatch, method, p0, p1, n):
    # a scan that re-sums from k = 0 at each n computes the leading term
    # q**n, or exp(-lam), at every n; the walkers compute it only to re-seed.
    # A jump's increment Y ~ Poisson(d) has a leading term exp(-d) of its
    # own, and d may equal some m p: the count leaves out the tails helpers
    calls = {"lead": 0, "exact": 0}
    leading = {-(m * p) for p in (p0, p1) for m in range(2, n + 1)}
    increment = []

    def counted_pow(*args):
        calls["lead"] += 1
        return pow(*args)

    class CountedMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(x):
            calls["lead"] += x in leading and not increment
            return math.exp(x)

    def uncounted(fn):
        def wrapper(*args):
            increment.append(fn)
            try:
                return fn(*args)
            finally:
                increment.pop()
        return wrapper

    def counted(fn):
        def wrapper(*args):
            calls["exact"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pure, "pow", counted_pow, raising=False)
    monkeypatch.setattr(pure, "math", CountedMath())
    for name in ("_poisson_tails", "_binom_tails"):
        monkeypatch.setattr(pure, name, uncounted(getattr(pure, name)))
    for name in ("binom_cdf", "poisson_cdf", "binom_quantile_ge", "binom_quantile_le",
                 "poisson_quantile_ge", "poisson_quantile_le"):
        monkeypatch.setattr(pure, name, counted(getattr(pure, name)))
    assert solve(TestSpec(p0, p1), method).n == n
    assert calls["lead"] <= 4
    assert calls["exact"] <= 4


# (k, n, p) with q**n normal, subnormal and underflowed, the last two summed
# from a scaled leading term; the last three shrink that sum by 2**-512 16,
# 39 and 51 times on the way to k
BINOM_POINTS = [(60, 2641, 0.02), (323, 5790, 0.06), (0, 313, 0.02), (1, 12590, 0.0005),
                (560, 1800, 0.3), (120, 1830, 0.0625), (9, 21000, 0.0004),
                (100, 2000, 0.3), (590, 2000, 0.3), (661, 2075, 0.3),
                (640, 2000, 0.33), (646, 2086, 0.33), (1500, 3000, 0.5),
                (1905, 2000, 0.95), (9900, 20000, 0.5), (12050, 20000, 0.6)]
# (k, n, p): Poisson(n p) on both sides of the switch to a scaled exp(-lam)
# at 700; the last two shrink the sum 8 and 11 times
POISSON_POINTS = [(0, 1, 0.02), (95, 767, 0.1), (388, 7004, 0.05), (600, 1399, 0.5),
                  (874, 1943, 0.45), (1300, 2800, 0.5), (2100, 4000, 0.5),
                  (3000, 6000, 0.5), (4050, 8000, 0.5)]


def test_kernel_error_bound():
    """The exact kernels' own error bounds, as a walker at n holds them,
    against 50-digit sums.

    The bound is relative.  A result below 2**-1022 carries up to 2**-1075
    more, absolute, from the final ldexp; no point here is that small, and
    the walkers never rely on it: their targets lie far above 2**-1022, and
    a running pmf below 2**-960 hands every decision to the exact kernel.
    """
    assert_kernel_error_bound(1)


def test_kernel_error_bound_after_a_jump():
    """The same bounds at n when the walker reached n by a jump of 300
    trials; the walker, re-seeded at k before the jump, also carries its
    running CDF within its own bound of the 50-digit value."""
    assert_kernel_error_bound(300)


def assert_kernel_error_bound(last):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for k, n, p in BINOM_POINTS:
        w = pure._BinomWalk(p)
        w.move(max(0, n - last))
        if last > 1 and k <= w.n:
            w.reseed(k)
        w.move(n)  # one step or one jump, as a scan takes it
        exact = pure.binom_cdf(k, n, p)
        P = mpmath.mpf(p)
        term = total = (1 - P) ** n
        for j in range(k):
            term = term * (n - j) / (j + 1) * P / (1 - P)
            total += term
        assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
        if last > 1 and w.k == k:
            assert abs(w.cdf - total) <= w.cdf_err, (k, n, p)
    for k, n, p in POISSON_POINTS:
        w = pure._PoissonWalk(p)
        w.move(max(0, n - last))
        if last > 1 and w.n:
            w.reseed(k)
        w.move(n)
        exact = pure.poisson_cdf(k, w.lam)
        total = mpmath.gammainc(k + 1, w.lam, regularized=True)
        assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
        if last > 1 and w.k == k:
            assert abs(w.cdf - total) <= w.cdf_err, (k, n, p)
