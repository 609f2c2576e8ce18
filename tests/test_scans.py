"""Certified incremental plan scans against the per-n quantile scans they replace.

discrete_scan and zero_scan follow each quantile with a walker that carries
a running CDF and an error bound, and ask the exact kernel only when the
target lies inside that bound.  The reference scans below recompute every
quantile from k = 0 at every n with the exact quantile functions, as the
scans did before; every comparison demands the identical tuple.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import SolverError, TestSpec, solve
from dhtplan._backend import pure
from dhtplan.plan_solvers import EPS_BIN, EPS_POISS


def reference_discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    for n in range(1, max_n + 1):
        if use_poisson:
            lam1 = n * p1
            lq = pure.poisson_quantile_le(lam1, b_half, pure.poisson_cap(lam1))
            if lq < 0:
                continue
            lam0 = n * p0
            L1 = pure.poisson_quantile_ge(lam0, 1.0 - a_half, pure.poisson_cap(lam0)) + 1
        else:
            lq = pure.binom_quantile_le(n, p1, b_half)
            if lq < 0:
                continue
            L1 = pure.binom_quantile_ge(n, p0, 1.0 - a_half) + 1
        l1 = lq + 1
        if L1 <= l1 or abs(L1 - l1) <= eps * n:
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


def assert_within_bound(w):
    """The running CDF at k and at k - 1 against the exact kernel."""
    k = w.k
    bound = w.cdf_err + w.cdf * (w.ka + w.kb * k)
    assert abs(w.cdf - w.exact(k)) <= bound
    if k:
        low = w.cdf - w.pmf
        bound = w.cdf_err + w.pmf * w.pmf_rel + low * (w.ka + w.kb * (k - 1) + pure._U)
        assert abs(low - w.exact(k - 1)) <= bound


def walk_discrete(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    walk = pure._PoissonWalk if use_poisson else pure._BinomWalk
    upper, lower = walk(p0), walk(p1)
    for n in range(1, max_n + 1):
        l1 = lower.first(n, b_half, True)
        assert_within_bound(lower)
        if l1 == 0:
            upper.move(n)
            continue
        L1 = upper.first(n, 1.0 - a_half, False) + 1
        assert_within_bound(upper)
        if L1 <= l1 or abs(L1 - l1) <= eps * n:
            return


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


@pytest.mark.parametrize("method,p0,p1,n", [("Bin", 0.05, 0.06, 5790),
                                            ("Poiss", 0.05, 0.06, 7004)])
def test_scans_do_not_restart_from_zero(monkeypatch, method, p0, p1, n):
    # a scan that re-sums from k = 0 at each n computes the leading term
    # q**n, or exp(-lam), at every n; the walkers compute it only to re-seed
    calls = {"lead": 0, "exact": 0}
    leading = {-(m * p) for p in (p0, p1) for m in range(2, n + 1)}

    def counted_pow(*args):
        calls["lead"] += 1
        return pow(*args)

    class CountedMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(x):
            calls["lead"] += x in leading
            return math.exp(x)

    def counted(fn):
        def wrapper(*args):
            calls["exact"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pure, "pow", counted_pow, raising=False)
    monkeypatch.setattr(pure, "math", CountedMath())
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
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for k, n, p in BINOM_POINTS:
        w = pure._BinomWalk(p)
        w.move(n - 1)
        w.move(n)  # one step, as a scan takes it
        exact = pure.binom_cdf(k, n, p)
        P = mpmath.mpf(p)
        term = total = (1 - P) ** n
        for j in range(k):
            term = term * (n - j) / (j + 1) * P / (1 - P)
            total += term
        assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
    for k, n, p in POISSON_POINTS:
        w = pure._PoissonWalk(p)
        w.move(n - 1)
        w.move(n)
        exact = pure.poisson_cdf(k, w.lam)
        total = mpmath.gammainc(k + 1, w.lam, regularized=True)
        assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
