"""Certified incremental plan scans against the per-n quantile scans they replace.

discrete_scan and zero_scan follow each quantile with a walker that carries
a running CDF and an error bound, and ask the exact kernel only when the
target lies inside that bound.  The reference scans below recompute every
quantile from k = 0 at every n over the kernel's partial sums, as the scans
did before (kernel_reference); every comparison demands the identical tuple.
norm_iter_scan finds the Norm_I plan by bisection on n, and is held to the
unit-step scan over every n in the same way.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtplan import NoConvergenceError, SolverError, TestSpec, binom_cdf, poisson_cdf, solve
from dhtplan import _backend as pure
from dhtplan.plan_solvers import EPS_BIN, EPS_POISS
from dhtplan.stat_kernels import z_value
from kernel_reference import binom_sums, first_reaching, poisson_sums


def exact_first(use_poisson, n, p, target, strict):
    """The first count at n whose exact CDF reaches target (exceeds it when
    strict), searched no further than the walker's stop past the Poisson
    cap at the mean n p; SolverError when a non-strict search ends there."""
    cap = pure.poisson_cap(n * p)
    sums = poisson_sums(n * p) if use_poisson else binom_sums(n, p)
    k = first_reaching(sums, target, strict, cap + 1 + strict)
    if k > cap and not strict:
        raise SolverError("quantile scan exceeded cap %d at mean %g" % (cap, n * p))
    return k


def exact_counts(use_poisson, p0, p1, a_half, b_half, n):
    """(l1, L1) at n from the exact quantiles; L1 is None while l1 = 0."""
    l1 = exact_first(use_poisson, n, p1, b_half, True)
    if not l1:
        return 0, None
    return l1, exact_first(use_poisson, n, p0, 1.0 - a_half, False) + 1


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
        m = exact_first(use_poisson, n, p1, 0.5, False)
        c = int(math.floor(m / 2.0 + 0.5))
        if use_poisson:
            risk = poisson_cdf(c - 1, n * p1)
        else:
            risk = binom_cdf(c - 1, n, p1)
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


def outcome(scan, args):
    """The scan's tuple, or the message of the SolverError it raised."""
    try:
        return scan(*args)
    except SolverError as exc:
        return "SolverError: %s" % exc


@given(st.sampled_from(["Bin", "Poiss"]), st.floats(0.002, 0.2), st.floats(1.1, 3.0),
       st.floats(-15.0, -9.0), st.sampled_from([0.05, 1e-4, 1e-9]),
       st.sampled_from([None, 0.01, 1e-4]), st.integers(2, 3000))
@settings(max_examples=30, deadline=None)
def test_scans_sweep_small_alpha(method, p0, ratio, log_alpha, beta, eps, max_n):
    # a producer target within a few kernel error bounds of 1: the scan may
    # keep a stale producer count only while no n could give up at the cap,
    # so a scan that raises raises at the n, and with the message, of the
    # per-n reference; one that does not is walked n by n
    p1 = min(p0 * ratio, 0.49)
    _, args = scan_args(method, p0, p1, 10.0 ** log_alpha, beta, eps, max_n)
    expected = outcome(reference_discrete_scan, args)
    assert outcome(lambda *a: walk_discrete(*a)[0], args) == expected


def test_scans_without_a_kept_producer_count(monkeypatch):
    # a unit roundoff of 1e-4 puts the kernel's error bound at the cap above
    # alpha/2 from n = 1 on, so the producer walker keeps its count through
    # no later n, and once l1 > 0 the scan steps one n at a time
    monkeypatch.setattr(pure, "_U", 1e-4)
    kept = []

    class Logged(pure._Walk):
        __slots__ = ()

        def keeps(self, target, limit):
            until = super().keeps(target, limit)
            kept.append(until - self.n)
            return until

    monkeypatch.setattr(pure, "_Walk", Logged)
    for method in ("Bin", "Poiss"):
        for p0, p1 in [(0.02, 0.05), (0.10, 0.15)]:
            assert_same_scan(*scan_args(method, p0, p1))
    assert kept and not any(kept)


def test_small_alpha_bin_spec_leaves_the_exact_kernel_alone():
    # with alpha/2 = 2.6e-10 the running CDF at the producer count sits within
    # a few kernel error bounds of 1 - alpha/2 at most n, so each answer of
    # the p0 walker costs an O(K) exact sum; an eager scan asked it at 26,954
    # n and summed 23,378 times, the stale count needs it at a few hundred
    spec = TestSpec(0.06360283033555486, 0.07350227420924811,
                    alpha_tail=5.193028042059889e-10, beta_tail=1.6406113858601784e-4)
    calls = []

    class Counted(pure._Walk):
        __slots__ = ()

        def exact(self, k):
            calls.append(self.p)
            return super().exact(k)

    with mock.patch.object(pure, "_Walk", Counted):
        plan = solve(spec, "Bin")
    assert (plan.n, plan.c) == (45599, 3187)
    assert calls.count(spec.p0) < 1000


# the walker's two families: poisson=False follows Binomial(n, p) and
# poisson=True Poisson(n p); the ids name the Binomial and the Poisson walker
FAMILIES = pytest.mark.parametrize("poisson", [False, True],
                                   ids=["_BinomWalk", "_PoissonWalk"])


@FAMILIES
def test_walker_falls_back_when_the_quantile_moves_down(poisson):
    w = pure._Walk(0.05, poisson)
    w.first(400, 0.975, False)
    assert w.first(401, 0.5, False) == exact_first(poisson, 401, 0.05, 0.5, False)


# specs whose solves step the exact search both ways: it steps the Poisson
# one up 203 times and down once, the Binomial one up 742 times and down 26
@pytest.mark.parametrize("method,p0,p1,alpha,beta,plan", [
    ("Poiss", 0.0831312929487914, 0.18723621227413434, 1.1075839328399167e-13,
     4.461568024082045e-06, (1655, 234, 0.14108761329305136)),
    ("Bin", 0.2593800156543265, 0.3842240934078304, 3.9032645399959253e-13,
     3.8453365265597236e-11, (2572, 829, 0.3223172628304821)),
])
def test_exact_search_steps_both_ways(method, p0, p1, alpha, beta, plan):
    # a walker whose count the exact kernel finds off re-seeds at the count
    # its step search ends on: above its own when it stepped up, below when
    # it stepped down
    moves = []

    class Spied(pure._Walk):
        __slots__ = ()

        def reseed(self, k, found=None):
            moves.append(k - self.k)
            return super().reseed(k, found)

    with mock.patch.object(pure, "_Walk", Spied):
        got = solve(TestSpec(p0, p1, alpha, beta, max_n=3000), method)
    assert (got.n, got.c, got.t_h) == plan
    assert any(d > 0 for d in moves) and any(d < 0 for d in moves)


def test_poisson_walker_keeps_the_cap():
    cap = pure.poisson_cap(10 * 0.1)
    with pytest.raises(SolverError, match="exceeded cap %d" % cap):
        pure._Walk(0.1, True).first(10, 2.0, False)
    assert pure._Walk(0.1, True).first(10, 2.0, True) == cap + 2


def test_binomial_walker_keeps_the_cap():
    # the Poisson cap at the mean n p = 1, far below n = 1000
    cap = pure.poisson_cap(1000 * 0.001)
    with pytest.raises(SolverError, match="exceeded cap %d" % cap):
        pure._Walk(0.001, False).first(1000, 2.0, False)
    assert pure._Walk(0.001, False).first(1000, 2.0, True) == cap + 2


def assert_within_bound(w):
    """The running CDF at k and at k - 1 against the exact kernel, and the
    walker's certified bounds on the kernel's values there."""
    k, ka = w.k, w.ka
    cdf = w.exact(k)[0]
    bound = w.cdf_err + w.cdf * (ka + w.kb * k)
    assert abs(w.cdf - cdf) <= bound
    assert w.cdf_low(ka) <= cdf <= w.cdf_high(ka)
    if k:
        below = w.exact(k - 1)[0]
        low = w.cdf - w.pmf
        bound = w.cdf_err + w.pmf * w.pmf_rel + low * (ka + w.kb * (k - 1) + pure._U)
        assert abs(low - below) <= bound
        assert below <= w.below_high(ka)


def slots(w):
    return [getattr(w, name) for name in pure._Walk.__slots__]


def checking(log, kept, blocks):
    """The walker, checked against the exact kernel after every move and
    every count it returns, with those counts logged as (p, n, k), the
    trial count each keeps returns logged at its n, and each probe that
    certifies a block logged at its n as (far end, count).  A probe
    leaves the walker it copies as it was."""

    class Checked(pure._Walk):
        __slots__ = ()

        def move(self, n):
            super().move(n)
            assert_within_bound(self)

        def first(self, n, target, strict):
            k = super().first(n, target, strict)
            assert_within_bound(self)
            log.append((self.p, n, k))
            return k

        def keeps(self, target, limit):
            kept[self.n] = until = super().keeps(target, limit)
            return until

        def probe(self, n, target, top):
            before = slots(self)
            other = super().probe(n, target, top)
            assert slots(self) == before
            if other is not None:
                assert_within_bound(other)
                assert other.k < top
                blocks[self.n] = (n, other.k)
            return other

    return Checked


def walk_discrete(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    """discrete_scan, jump for jump, with every walker move checked against
    the exact kernel, and every n from one evaluated n up to the next
    against the exact quantiles there.  Past a hold, l1 is the one held; in
    a block the scan crossed on a probe of the consumer walker, l1 is at
    most the count l1_b the probe certified at the block's far end.  In
    both L1 is at least the last one the producer walker gave, and the scan
    does not stop.  A stale L1 serves only through the trial count that
    keeps gave with it.

    Returns the scan's tuple, the number of n evaluated, the number of
    producer-walker answers and the number of blocks.
    """
    log, kept, blocks = [], {}, {}
    with mock.patch.object(pure, "_Walk", checking(log, kept, blocks)):
        got = pure.discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n)
    converged, last, L1_last, l1_last = got
    held = {}  # evaluated n -> [l1, the last L1 given at or before n, its keeps]
    given = [None, 0]
    for p, n, k in log:
        if p == p1:
            held[n] = [k] + given
        else:
            given = [k + 1, kept.get(n, n)]
            held[n][1:] = given
    evaluated = sorted(held)
    assert evaluated[-1] == last or not converged
    for n, after in zip(evaluated, evaluated[1:] + [last + 1 if converged else max_n + 1]):
        l1, L1, until = held[n]
        end, l1_b = blocks.get(n, (n, l1))
        assert end == n or after == end + 1  # a block ends where the next n is evaluated
        for m in range(n, after):
            l1_m, L1_m = exact_counts(use_poisson, p0, p1, a_half, b_half, m)
            if converged and m == last:
                assert (L1_m, l1_m) == (L1, l1) == (L1_last, l1_last) and stops(L1, l1, eps, m)
                continue
            if m <= n or m > end:
                assert l1_m == l1, m
            else:
                assert l1_m <= l1_b, m
            if l1:
                assert L1_m >= L1, m
                assert not stops(L1_m, l1_m, eps, m), m
                assert m <= until, m
    return got, len(evaluated), sum(p == p0 for p, _, _ in log), len(blocks)


def walk_zero(use_poisson, p1, b_tail, max_n):
    """zero_scan at every n, with each hold checked against the n it spans."""
    median = pure._Walk(p1, use_poisson)
    risk = pure._Walk(p1, use_poisson)
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
    walk_zero(True, 0.49, 1e-50, 5000)


@pytest.mark.parametrize("method", ["Bin", "Poiss"])
@pytest.mark.parametrize("p0,p1", [(0.2, 0.25), (0.3, 0.33)])
def test_blocks_within_their_certificate(method, p0, p1):
    # from p1 = 1/_ROOM on no hold skips an n, so every n the scan does not
    # evaluate lies in a block, and each one is checked against the exact
    # quantiles there (Bin 0.3/0.33 crosses the kernel's log branch too)
    _, evaluated, _, blocks = walk_discrete(*scan_args(method, p0, p1)[1])
    assert blocks and evaluated < 300


def test_failed_probe_leaves_the_walker_as_it_was():
    # some probes at Bin 0.3/0.33 find the consumer count at the block's far
    # end too close to L1; the walker they copied goes on untouched.  A scan
    # of every n asks the consumer walker at all 3,273 n
    probes, answers = [], []

    class Spied(pure._Walk):
        __slots__ = ()

        def first(self, n, target, strict):
            if self.p == 0.33:
                answers.append(n)
            return super().first(n, target, strict)

        def probe(self, n, target, top):
            before = slots(self)
            other = super().probe(n, target, top)
            assert slots(self) == before
            probes.append(other is not None)
            return other

    with mock.patch.object(pure, "_Walk", Spied):
        got = pure.discrete_scan(*scan_args("Bin", 0.3, 0.33)[1])
    assert got == (True, 3273, 1034, 1028)
    assert any(probes) and not all(probes)
    assert len(answers) < 400


def test_block_refresh_leaves_the_exact_kernel_alone():
    # the scan refreshes L1 for a block only where the producer walker's
    # margin lies far below alpha/2; refreshed wherever a block could open,
    # the producer walker here went to the exact kernel 569 times, against
    # 91 for a scan with no blocks
    calls = []

    class Counted(pure._Walk):
        __slots__ = ()

        def exact(self, k):
            calls.append(k)
            return super().exact(k)

    with mock.patch.object(pure, "_Walk", Counted):
        got = pure.discrete_scan(False, 0.06003910565410209, 0.07211161526884771,
                                 3.7937040603423524e-11, 1.2112817108557352e-09, 0.0019, 20000)
    assert got == (False, 20000, 0, 0)
    assert len(calls) <= 91


def test_probes_back_off_where_beta_is_tiny():
    # at beta/2 = 8e-15 a long move leaves the consumer walker's absolute
    # error bound wider than b_half, so a probe across the whole slack fails.
    # Each failure halves the next block: probing the whole slack every time,
    # the scan made 5,160 probes (5,122 failed) and took 14 times as long as
    # a scan with no blocks.  A probe adopts a count only where the one below
    # certainly falls short: adopting any certified count sent the consumer
    # walker to the exact kernel 231 times here, against 35 with no blocks
    probes, calls = [], []

    class Counted(pure._Walk):
        __slots__ = ()

        def exact(self, k):
            calls.append(k)
            return super().exact(k)

        def probe(self, n, target, top):
            other = super().probe(n, target, top)
            probes.append(other is not None)
            return other

    with mock.patch.object(pure, "_Walk", Counted):
        got = pure.discrete_scan(True, 0.2169416566543814, 0.2170585851120332,
                                 0.0046888946190244045, 8.253181325896243e-15, 0.001, 35401)
    assert got == (False, 35401, 0, 0)
    assert any(probes) and len(probes) < 500
    assert len(calls) < 100


def test_stale_producer_count_within_its_keeps():
    # at alpha/2 = 1e-13 the producer walker keeps its count from n = 40
    # through n = 90 only, while the consumer walker's hold and the eps test
    # would let the scan jump past 90: it must ask the producer walker again
    got, _, _, _ = walk_discrete(False, 0.04, 0.10, 1e-13, 0.025, EPS_BIN, 100_000)
    assert got == (True, 1336, 115, 113)


def test_discrete_scan_skips_most_n():
    # the counts change about once every 1/p trials, so most n are skipped,
    # and the producer count is worked out again only where the gap to a
    # stale one could pass the eps test (an eager scan asks at every n)
    _, evaluated, producer, _ = walk_discrete(*scan_args("Bin", 0.015, 0.02)[1])
    assert evaluated < 600 and producer < 40    # of n = 5790
    _, evaluated, producer, _ = walk_discrete(*scan_args("Poiss", 0.02, 0.03)[1])
    assert evaluated < 400 and producer < 40    # of n = 3171


def binom_exact(k, n, p):
    """The kernel's P(X <= k) for Binomial(n, p), 1.0 for a count k past n."""
    return pure._binom_pass(k, n, p)[0]


@given(st.booleans(), st.floats(0.0005, 0.45), st.integers(1, 2000), st.integers(0, 2000),
       st.sampled_from([0.5, 0.975, 0.025, 0.9999, 1e-4]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hold_keeps_the_exact_quantile(poisson, p, n0, dn, target, left):
    # a walker that took one jump holds its count; at no n in the held range
    # may the exact CDF at k reach the target, nor (with left) the one at k - 1
    w = pure._Walk(p, poisson)
    w.first(n0, target, False)
    n = n0 + dn
    k = w.first(n, target, False)
    held = w.hold(target, 5000, left)
    exact = (lambda j, m, p: poisson_cdf(j, m * p)) if poisson else binom_exact
    for m in range(n + 1, n + held + 1):
        assert exact(k, m, p) > target, (m, held)
        if left and k:
            assert exact(k - 1, m, p) < target, (m, held)


@given(st.booleans(), st.floats(0.002, 0.45), st.integers(1, 3000), st.floats(-16.0, -1.0),
       st.integers(1, 50_000))
@settings(max_examples=60, deadline=None)
@example(False, 0.1964141871334771, 15, -13.59, 50_000)
@example(False, 0.1964141871334771, 15, -12.3, 50_000)
def test_keeps_the_producer_count(poisson, p, n, log_tail, span):
    # through the trial count keeps returns within the one below_cap
    # returns, the exact quantile at target neither falls below the
    # walker's count k nor gives up at the cap: the kernel's CDF at k - 1
    # stays below target and the one at the cap reaches it.  In the
    # examples k = n, so P(X <= k - 1) = 1 - p**n is far below target, and
    # keeps alone would keep k for 50,000 trials.  At alpha/2 = 10**-13.59
    # the kernel's CDF at the cap falls short of target from about 900
    # trials on, and below_cap gives no trial count; at 10**-12.3 it falls
    # short from about 10,000 trials on, and below_cap gives 926
    target = 1.0 - 10.0 ** log_tail
    w = pure._Walk(p, poisson)
    try:
        k = w.first(n, target, False)
    except SolverError:
        return
    until = w.keeps(target, w.below_cap(target, n + span))
    assert n <= until <= n + span
    exact = (lambda j, m, p: poisson_cdf(j, m * p)) if poisson else binom_exact
    for m in sorted({n + (until - n) * i // 8 for i in range(1, 9)}):
        if k:
            assert exact(k - 1, m, p) < target, (m, until)
        assert exact(pure.poisson_cap(m * p), m, p) >= target, (m, until)


@FAMILIES
def test_keeps_nothing_it_cannot_certify(poisson):
    # the 0.975 quantile at n = 400 is kept for many trials, but not once the
    # running bound on the CDF at k - 1 reaches the target; no trial count is
    # below the cap at a target whose distance from 1 the kernel's error
    # bound at the cap exceeds
    w = pure._Walk(0.05, poisson)
    w.first(400, 0.975, False)
    assert w.keeps(0.975, w.below_cap(0.975, 5000)) > 400
    assert w.below_cap(0.975, 5000) == 5000
    assert w.below_cap(1.0 - 1e-15, 5000) == 0
    w.cdf_err = 0.975 - (w.cdf - w.pmf)
    assert w.keeps(0.975, 5000) == 400


@FAMILIES
def test_bound_below_covers_the_pmf_error(poisson):
    # the bound on the kernel's CDF at k - 1 holds with the running pmf off
    # by as much as pmf_rel allows, either way, and not only the CDF
    w = pure._Walk(0.05, poisson)
    k = w.first(400, 0.5, False)
    below = w.exact(k - 1)[0]
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        w.reseed(k)
        w.pmf *= factor
        w.pmf_rel = 1.01e-6
        assert w.below_high(w.ka) >= below


@FAMILIES
def test_hold_checks_the_count_below(poisson):
    # at the 0.975 quantile k of n = 1000, P(X <= k - 1) is far above 0.5:
    # the count stays above 0.5 for a while, but it is no quantile of 0.5
    w = pure._Walk(0.02, poisson)
    k = w.first(1000, 0.975, False)
    assert w.exact(k - 1)[0] > 0.5
    assert w.hold(0.5, 1000, False) > 0
    assert w.hold(0.5, 1000, True) == 0


# (n, p) around the scans' regimes: q**n subnormal at (3273, 0.3) and
# (2000, 0.33), lam > 700 at (1943, 0.45) and (5049, 0.33); the median is 0
# throughout at (1, 1e-4) and 1 or 2 at (1000, 0.001)
JUMP_POINTS = [(2641, 0.02), (5790, 0.06), (3273, 0.3), (2000, 0.33), (1943, 0.45),
               (5049, 0.33), (21000, 0.0004), (40, 0.1), (1, 1e-4), (1000, 0.001)]


@FAMILIES
@pytest.mark.parametrize("h", [1, 2, 9, 15, 40, 300, 1200, 3000])
def test_one_jump_within_bound(monkeypatch, poisson, h):
    # a walker re-seeded at (k, n) crosses h trials in one move, a single
    # convolution up to the piece of about 700 / p trials; k is the median
    # halfway through, so its pmf stays normal at both ends.  A spy on
    # expm1, which each piece calls once for P(Y > 0), logs each piece's
    # lead and the terms its loop sums past i = 0, one subtraction from
    # P(Y > i) each: k of them where the loop ends at i = k, fewer where the
    # stop test ends it, and then truncated unless the Binomial Y has no
    # term past them
    pieces, ends = [], set()

    class Tail(float):
        def __neg__(self):
            return Tail(-float(self))

        def __sub__(self, y):
            pieces[-1][1] += 1
            return Tail(float(self) - y)

    def spy(x):
        pieces.append([-x, 0])
        return Tail(math.expm1(x))

    monkeypatch.setattr(pure, "expm1", spy)
    for n, p in JUMP_POINTS:
        k = min(n, exact_first(False, n + h // 2, p, 0.5, False))
        w = pure._Walk(p, poisson)
        w.move(n)
        w.reseed(k)
        del pieces[:]
        w.move(n + h)
        assert w.n == n + h and w.pmf >= pure._MIN_PMF, (n, p)
        assert_within_bound(w)
        for lead, terms in pieces:
            assert terms <= k
            if not k:
                ends.add("k = 0")
            elif terms == k:
                ends.add("k reached")
            else:
                ends.add("stop test")
                if poisson or terms < round(lead / w.rate):
                    ends.add("truncated")
            if lead > pure._LEAD - 1.0:
                ends.add("near _LEAD")
    assert {"k = 0", "k reached", "stop test"} <= ends
    # a Binomial increment of one or two trials has no term past its last
    assert "truncated" in ends or (not poisson and h <= 2)
    # pieces of about 700 / (p rate) trials, cut from the jumps at p = 0.45
    assert "near _LEAD" in ends or h < 3000


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
    # A move's increment Y has a leading term exp(-d rate) of its own, and
    # d may equal some m p: the count leaves out the moves
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
    monkeypatch.setattr(pure, "exp", CountedMath.exp)
    monkeypatch.setattr(pure._Walk, "move", uncounted(pure._Walk.move))
    for name in ("_binom_pass", "_poisson_pass"):
        monkeypatch.setattr(pure, name, counted(getattr(pure, name)))
    assert solve(TestSpec(p0, p1), method).n == n
    assert calls["lead"] <= 4
    assert calls["exact"] <= 4


@pytest.mark.parametrize("kind,args,expected", [
    # visits every n, moving both walkers mostly one trial at a time
    ("discrete", (True, 0.3, 0.33, 0.025, 0.025, EPS_POISS, 200_000), (True, 5049, 1592, 1587)),
    # reach max_n
    ("discrete", (False, 0.05, 0.06, 0.025, 0.025, EPS_BIN, 3000), (False, 3000, 0, 0)),
    ("zero", (True, 0.0005, 0.05, 5000), (False, 5000, 0, 0)),
])
def test_scans_that_visit_every_n_or_reach_max_n(kind, args, expected):
    assert SCANS[kind][0](*args) == expected


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
    with mpmath.workdps(50):
        for k, n, p in BINOM_POINTS:
            w = pure._Walk(p, False)
            w.move(max(0, n - last))
            if last > 1 and k <= w.n:
                w.reseed(k)
            w.move(n)  # one step or one jump, as a scan takes it
            exact = binom_cdf(k, n, p)
            P = mpmath.mpf(p)
            term = total = (1 - P) ** n
            for j in range(k):
                term = term * (n - j) / (j + 1) * P / (1 - P)
                total += term
            assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
            if last > 1 and w.k == k:
                assert abs(w.cdf - total) <= w.cdf_err, (k, n, p)
        for k, n, p in POISSON_POINTS:
            w = pure._Walk(p, True)
            w.move(max(0, n - last))
            if last > 1 and w.n:
                w.reseed(k)
            w.move(n)
            exact = poisson_cdf(k, w.a)
            total = mpmath.gammainc(k + 1, w.a, regularized=True)
            assert abs(exact - total) <= exact * (w.ka + w.kb * k), (k, n, p)
            if last > 1 and w.k == k:
                assert abs(w.cdf - total) <= w.cdf_err, (k, n, p)


def norm_iter_reference(p0, p1, z0, z1, eps, max_n):
    """The unit-step Norm_I scan that norm_iter_scan's bisection replaces."""
    s0 = math.sqrt(p0 * (1.0 - p0))
    s1 = math.sqrt(p1 * (1.0 - p1))
    best = math.inf
    for n in range(1, max_n + 1):
        rn = math.sqrt(n)
        upper = p0 + z0 * s0 / rn
        lower = p1 - z1 * s1 / rn
        gap = upper - lower
        a = abs(gap)
        if a < best:
            best = a
        if a < eps:
            return 0, n, upper, lower, best
        if gap < -eps:
            return 1, n, upper, lower, best
    return 2, max_n, 0.0, 0.0, best


def norm_gap(p0, p1, z0, z1, n):
    """The signed gap at n, computed as the scans compute it."""
    rn = math.sqrt(n)
    return ((p0 + z0 * math.sqrt(p0 * (1.0 - p0)) / rn)
            - (p1 - z1 * math.sqrt(p1 * (1.0 - p1)) / rn))


def assert_same_norm_scan(*args):
    # repr tells every float apart, the sign of a zero included
    got = pure.norm_iter_scan(*args)
    assert repr(got) == repr(norm_iter_reference(*args)), args
    return got


def first_negative_gap(p0, p1, z0, z1):
    n = 1
    while norm_gap(p0, p1, z0, z1, n) >= 0.0:
        n += 1
    return n


LOG_RATES = st.floats(-5.0, math.log10(0.49))
NORM_TAILS = st.builds(lambda e, compat: z_value(10.0 ** e, compat),
                       st.floats(-6.0, math.log10(0.2)), st.booleans())


@given(LOG_RATES, LOG_RATES, st.booleans(), NORM_TAILS, NORM_TAILS,
       st.floats(-8.0, -2.0), st.integers(2, 200_000))
@settings(max_examples=150, deadline=None)
@example(-1.8239087409443189, -1.3010299956639813, False, 1.64, 1.64, -4.0, 200_000)
def test_norm_iter_scan_sweep(log_a, log_b, zero, z0, z1, log_eps, max_n):
    p0, p1 = sorted((10.0 ** log_a, 10.0 ** log_b))
    if zero:
        p0 = 0.0
    if p0 == p1:
        return
    assert_same_norm_scan(p0, p1, z0, z1, 10.0 ** log_eps, max_n)


NORM_PAIRS = [(0.02, 0.05), (0.01, 0.02), (0.0, 0.02), (0.2, 0.4), (0.0001, 0.0002)]


@pytest.mark.parametrize("p0,p1", [pair for pair in NORM_PAIRS if pair != (0.2, 0.4)])
def test_norm_iter_scan_goes_on_past_a_gap_of_minus_eps(p0, p1):
    # at these first negative gaps, |gap| is below the gap one n earlier, so
    # eps = -gap makes that n the first below eps; it passes neither test
    n = first_negative_gap(p0, p1, 1.64, 1.64)
    eps = -norm_gap(p0, p1, 1.64, 1.64, n)
    assert norm_gap(p0, p1, 1.64, 1.64, n - 1) >= eps
    status, m, _, _, best = assert_same_norm_scan(p0, p1, 1.64, 1.64, eps, 10 * n)
    assert (status, best) == (1, eps) and m > n
    # the crossing below -eps past max_n
    assert assert_same_norm_scan(p0, p1, 1.64, 1.64, eps, n)[:2] == (2, n)


@pytest.mark.parametrize("p0,p1", NORM_PAIRS)
def test_norm_iter_scan_does_not_stop_at_a_gap_of_eps(p0, p1):
    n = first_negative_gap(p0, p1, 1.64, 1.64) - 1
    eps = norm_gap(p0, p1, 1.64, 1.64, n)
    status, m, _, _, _ = assert_same_norm_scan(p0, p1, 1.64, 1.64, eps, 10 * n)
    assert m > n


@pytest.mark.parametrize("p0,p1", NORM_PAIRS)
def test_norm_iter_scan_reaching_max_n(p0, p1):
    # at max_n = 2 and one n below the crossing, best_gap is the gap at max_n
    status, n, *_ = norm_iter_reference(p0, p1, 1.64, 1.64, 1e-4, 10 ** 6)
    assert n > 3
    for max_n in (2, n - 1):
        gap = norm_gap(p0, p1, 1.64, 1.64, max_n)
        assert assert_same_norm_scan(p0, p1, 1.64, 1.64, 1e-4, max_n) == (
            2, max_n, 0.0, 0.0, gap)


def test_norm_iter_scan_with_p0_zero():
    # s0 = 0: the producer limit is p0 itself at every n
    status, n, upper, lower, best = assert_same_norm_scan(0.0, 0.02, 1.64, 1.64, 1e-4, 200_000)
    assert (status, upper) == (0, 0.0) and abs(lower) < 1e-4


def test_norm_i_large_plan():
    # the unit-step method's plan at millions of trials
    plan = solve(TestSpec(0.0001, 0.00012, epsilon=4e-7, max_n=5_000_000), "Norm_I")
    assert (plan.n, plan.c, plan.t_h) == (2_837_475, 311, 0.00010953545267114035)
    assert plan.iterations == plan.n


def test_norm_i_scan_is_logarithmic():
    # no n up to 2**62 closes the gap, and no unit-step scan could show it
    with pytest.raises(NoConvergenceError, match="max_n reached") as exc:
        solve(TestSpec(0.25, 0.25 + 1e-12, epsilon=1e-300, max_n=2 ** 62), "Norm_I")
    assert exc.value.iterations == 2 ** 62
