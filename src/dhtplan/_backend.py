"""Pure-Python numeric kernels.

These are the hot inner loops of the package: discrete CDF term sums and
the plan-search loops, which follow their quantiles across n with certified
incremental walkers.

Both discrete CDFs are one term recurrence with Kahan summation, run by
_term_sum, the package's one term-sum loop.  Where the leading term, q**n or
exp(-lam), lies below the normal range, the sum starts instead from that
term scaled by a power of two, m = q**n * 2**-e with m in (1/2, 1], and
shrinks by an exact 2**-512 whenever it passes 2**512; the total is scaled
back by ldexp at the end.  A subnormal leading term would carry its
rounding into every later term.  In the normal range e = 0: a sum of
probabilities never reaches 2**512, so the rescale never runs.
_term_sum returns the last term with the sum, so one pass of a kernel,
_binom_pass or _poisson_pass, gives P(X <= c) and P(X = c) together;
stat_kernels' checked binom_cdf and poisson_cdf are its first value.
_term_sum also sums one numpy array of leads at once, normal or scaled, each
element bit for bit its scalar run: _binom_grid, the OC curve's pass, gives
_binom_pass's first value at every point of a numpy grid that way.
"""

import math
from itertools import repeat
from math import exp, expm1, ldexp, log, log1p

from .errors import SolverError

_NORMAL = 2.0 ** -1022     # smallest normal double
_LN2 = math.log(2.0)
_BIG = 2.0 ** 512          # a scaled sum shrinks by _SHRINK once it passes this
_SHRINK = 2.0 ** -512
_UP = 1.0 + 2.0 ** -40     # a bound's margin over the roundings of one round
# the kernels return 0.0 once their Chernoff bound is below 2**-1076, half of
# the 2**-1075 below which ldexp rounds the scaled sum to zero
_UNDERFLOW = 1076.0 * _LN2
# the Chernoff cut's relative margin over the bound's own rounding, and the
# range of n log(1/q) or lam below which the scaled sum is off by less than
# 1/4 of itself, so that the cut can stand for the sum
_CUT_MARGIN = 2.0 ** -45
_CUT_RANGE = 2.0 ** 48
# log 2**-1022: q**n lies below the normal range where n log q is below it
_LOG_NORMAL = log(_NORMAL)
# relative and absolute slack of numpy's n log q against math.log's, far
# wider than their few-ulp difference; a point within it of a limit takes
# the scalar pow or math.log that _binom_pass takes
_LOG_SLACK = 2.0 ** -20
# fewest leads for one numpy array run of _term_sum, and grid points for
# oc_curve to try one.  A run costs c - 1 rounds of about six numpy calls
# however few points it holds.  On the 12 criterion-9 plans, with every
# point of a grid on [0, 0.1] summed, the array path took 1.3-1.9x the
# time of the per-point loop at 16 points, 0.9-1.3x at 24 and 0.7-1.0x at
# 32 (2-vCPU host, numpy 2.4.6).
_ARRAY_POINTS = 32


def _scaled_lead(x):
    """(m, e) with m * 2**e = exp(x), m in (1/2, 1], for x below -708.

    x - e log 2 is exact (Sterbenz), so m * 2**e is off from exp(x) by the
    rounding of e log 2 and of exp: about 2u |x| + 2u relative, u the unit
    roundoff.
    """
    e = int(x / _LN2)
    return exp(x - e * _LN2), e


def _term_sum(term, e, c, a, da, ratio):
    """Kahan sum of term_0 .. term_c as (total, e, term), the sum being
    total * 2**e and term_c being term * 2**e.

    term_k = term_{k-1} (a / k) ratio, after which a falls by da:
    Binomial(n, p) is a = n, da = 1, ratio = p/q and Poisson(lam) is
    a = lam, da = 0, ratio = 1.  a and k are exact doubles below 2**53,
    the largest count stat_kernels lets through.  On each round that the
    total passes _BIG, total, term and compensation shrink by _SHRINK and e
    rises by 512; the caller applies ldexp and clips at 1.0.  With e = 0 the
    sum is of probabilities, never near _BIG, so the test is skipped.

    term and ratio may also be numpy arrays, one sum per element, with e 0
    or an int64 array of exponents.  Every step is one IEEE operation per
    element and each element shrinks on the round its own total passes
    _BIG, so each equals its scalar run bit for bit.  As a test over the
    array is a reduction, it runs only on rounds where top, a bound on the
    largest total, passes _BIG: the largest term grows by at most a / k
    times the largest ratio per round, and _UP covers the roundings of a
    round.
    """
    total = term
    comp = 0.0
    bounded = not isinstance(e, int)
    if bounded:
        e = e.copy()
        top, tmax, rmax = float(total.max()), float(term.max()), float(ratio.max()) * _UP
    scaled = bounded or e != 0
    for k in range(1, c + 1):
        term = term * (a / k) * ratio
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if scaled:
            if bounded:
                tmax *= a / k * rmax
                top = (top + tmax) * _UP
                if top > _BIG:
                    big = (total > _BIG).nonzero()
                    total[big] *= _SHRINK
                    comp[big] *= _SHRINK
                    term[big] *= _SHRINK
                    e[big] += 512
                    top, tmax = float(total.max()), float(term.max())
            elif total > _BIG:
                total *= _SHRINK
                comp *= _SHRINK
                term *= _SHRINK
                e += 512
        a -= da
    return total, e, term


def _binom_pass(c, n, p):
    """(P(X <= c), P(X = c)) for X ~ Binomial(n, p), by one _term_sum from q**n.

    Where q**n leaves the normal range the sum runs from it scaled by a
    power of two.  There, for c < n p, a Chernoff bound below 2**-1076
    returns zeros at once: the full sum, within a factor 2 of the tail it
    approximates, would round to 0.0 under ldexp as well, so the result
    equals the full sum's bit for bit either way.  _binom_grid takes the same
    leads and the same cut for a numpy array of p.
    """
    if c < 0:
        return 0.0, 0.0
    if c >= n:
        return 1.0, (p ** n if c == n else 0.0)
    if p <= 0.0:
        return 1.0, float(c == 0)
    if p >= 1.0:
        return 0.0, 0.0
    q = 1.0 - p
    term, e = pow(q, float(n)), 0
    if term < _NORMAL:
        x = n * log(q)
        # with n log(1/q) < 2**48 the sum is off by less than 1/4 of itself:
        # m by 4u n log(1/q), the terms up to c < np by 4u c more
        if 0 < c < n * p and x > -_CUT_RANGE and _binom_vanishes(c, n, p, q, log):
            return 0.0, 0.0
        term, e = _scaled_lead(x)
    total, e, term = _term_sum(term, e, c, float(n), 1.0, p / q)
    return min(ldexp(total, e), 1.0), ldexp(term, e)


def _binom_grid(c, n, p):
    """_binom_pass(c, n, p_i)[0] for each p_i of a numpy array p in (0, 1),
    0 <= c < n, bit for bit, as a numpy array.

    Each point starts from _binom_pass's own lead, q**n by Python's pow or,
    below the normal range, _scaled_lead(n log q) by math.log.  numpy's
    n log q sorts the points first: where it lies below log 2**-1022 by
    more than its slack, _LOG_SLACK of itself plus _LOG_SLACK, q**n is
    certainly below the normal range and pow is not called.  Where the
    Chernoff cut, _binom_vanishes over the arrays, shows that the sum
    rounds to 0.0 the value is 0.0 and there is no lead to sum; the cut's
    range test calls math.log only within the slack of its limit.  So only
    the points whose lead is summed pay for math.log and _scaled_lead.
    With _ARRAY_POINTS or more leads, one run of _term_sum sums them all
    over numpy arrays; with fewer, each takes its scalar run.  numpy
    computes the logs that sort the points and the cut's, whose slack and
    margin let them be a few ulps off, and otherwise only IEEE operations
    (q = 1 - p, p / q, the term loop, the clip) and the exact ldexp.
    """
    import numpy as np

    q = 1.0 - p
    ratio = p / q
    fn = float(n)
    x = fn * np.log(q)
    slack = np.abs(x) * _LOG_SLACK + _LOG_SLACK
    leads = np.zeros(p.size)
    near = (x + slack >= _LOG_NORMAL).nonzero()[0]
    leads[near] = np.fromiter(map(pow, q[near].tolist(), repeat(fn)), float, count=near.size)
    e = np.zeros(p.size, dtype=np.int64)
    low = (leads < _NORMAL).nonzero()[0]
    if low.size:
        pl, ql, xl, sl = p[low], q[low], x[low], slack[low]
        # _binom_pass's range test, n log q > -_CUT_RANGE, by math.log within the slack
        ranged = xl - sl > -_CUT_RANGE
        edge = ((xl + sl > -_CUT_RANGE) & ~ranged).nonzero()[0]
        if edge.size:
            ranged[edge] = [fn * log(v) > -_CUT_RANGE for v in ql[edge].tolist()]
        zero = (c > 0) & (c < fn * pl) & ranged
        if zero.any():
            zero &= _binom_vanishes(c, fn, pl, ql, np.log)
        kept = low[~zero]
        if kept.size:
            leads[kept], e[kept] = zip(*[_scaled_lead(fn * log(v)) for v in q[kept].tolist()])
    live = leads.nonzero()[0]
    leads, e, ratio = leads[live], e[live], ratio[live]
    values = np.zeros(p.size)
    if live.size >= _ARRAY_POINTS:
        total, e, _ = _term_sum(leads, e if e.any() else 0, c, fn, 1.0, ratio)
        values[live] = np.minimum(np.ldexp(total, e), 1.0)
    else:
        values[live] = [min(ldexp(*_term_sum(t, ej, c, fn, 1.0, r)[:2]), 1.0)
                        for t, ej, r in zip(leads.tolist(), e.tolist(), ratio.tolist())]
    return values


def _binom_vanishes(c, n, p, q, log):
    """Whether the Chernoff bound on P(X <= c), 0 < c < n p, lies below
    2**-1076, half of the 2**-1075 below which ldexp rounds to zero.

    P(X <= c) <= exp(-(c log(c/np) + (n-c) log((n-c)/nq))), with this
    q = fl(1 - p) as well.  The margin covers the bound's own rounding,
    about 2u n + 4u (|a| + |b|), with room for a log a few ulps off: log is
    math.log, or numpy's log where p and q are arrays, as in _binom_grid.
    """
    a = c * log(c / (n * p))
    b = (n - c) * log((n - c) / (n * q))
    return a + b - (n + b - a) * _CUT_MARGIN > _UNDERFLOW


def _poisson_pass(c, lam):
    """(P(X <= c), P(X = c)) for X ~ Poisson(lam), by one _term_sum from exp(-lam).

    Past lam = 700 the sum runs from exp(-lam) scaled by a power of two.
    There, for c < lam, a Chernoff bound below 2**-1076 returns zeros at
    once, as in _binom_pass: the full sum would round to 0.0 as well, so the
    result equals the full sum's bit for bit either way.
    """
    if c < 0:
        return 0.0, 0.0
    if lam <= 0.0:
        return 1.0, float(c == 0)
    if lam <= 700.0:
        term, e = exp(-lam), 0
    else:
        # P(X <= c) <= exp(-(lam - c + c log(c/lam))) for c < lam.  The margin
        # covers the bound's own rounding, about 4u (lam + c + |a|).  With
        # lam < 2**48 the sum is off by less than 1/4 of itself: m by 2u lam,
        # the terms up to c < lam by 2u c more.
        if 0 < c < lam < _CUT_RANGE:
            a = c * log(c / lam)
            if lam - c + a - (lam + c - a) * _CUT_MARGIN > _UNDERFLOW:
                return 0.0, 0.0
        term, e = _scaled_lead(-lam)
    total, e, term = _term_sum(term, e, c, lam, 0.0, 1.0)
    return min(ldexp(total, e), 1.0), ldexp(term, e)


def _reaches(value, target, strict):
    return value > target or (value == target and not strict)


def poisson_cap(lam):
    """Count past which a quantile scan at mean lam gives up: lam + 20 sqrt(lam) + 50.

    A Binomial with mean lam has a variance below lam, so its quantiles up
    to any target below 1 - 1e-30 lie under this cap as the Poisson ones do.
    """
    return int(lam + 20.0 * math.sqrt(lam) + 50.0)


# Certified incremental scans
# ---------------------------
# discrete_scan and zero_scan need, at every n, the first count whose CDF
# reaches a target.  Both quantiles are non-decreasing in n, so a walker
# keeps one count k with running values of P(X <= k) and P(X = k), moves
# them to a later n by an exact convolution and then steps k forward.  The
# running CDF carries an error bound, first order in the unit roundoff,
# that grows with every operation; the exact kernel's own error bound at
# (k, n) is added to it.  A comparison with the target is decided from the
# running value only when the target lies outside that interval, and by the
# exact kernel otherwise.  Each such interval is written once, as one of
# three walker methods: cdf_low and cdf_high bound the kernel's CDF at k,
# below_high the one at k - 1.  The kernel's partial sums are non-decreasing
# in k, so certifying the count and the one below it fixes the quantile;
# where the kernel finds the count off, the walker steps through the
# kernel's values from it to the quantile, rarely more than one count, and
# re-seeds from the last pass, which gives P(X = k) with P(X <= k).  So every
# decision, and every plan, is the one the per-n partial sums give.
#
# One walker serves both families, which differ only in data.  Binomial(n, p)
# and Poisson(n p) both run the term recurrence of _term_sum from a parameter
# a, P(X = 0) = exp(-a rate) and P(X = j) = P(X = j-1) (a - (j-1) da) / j ratio:
# the Binomial with a = n, da = 1, ratio = p/q and rate = log(1/q), the
# Poisson with a = n p, da = 0 and ratio = rate = 1.  One trial adds size = 1
# or p to a.  Both are closed under convolution: across h trials
# X_{n+h} = X_n + Y, with Y of the same family at parameter d, the growth of
# a.  So one loop moves the walker, with g_i = P(X_n = k - i) stepped down
# by the recurrence:
#     P(X <= k) -= sum_i g_i P(Y > i),    P(X = k) = sum_i g_i P(Y = i).
# The same loop steps P(Y = i) up by the recurrence and P(Y > i) down from
# P(Y > 0) as it goes, so a move makes only the terms it sums.  The sums end
# at i = k, complete, or once P(Y = i) no longer matters, at the last i = M
# before that; what they then leave out of either is at most P(X_n <= k)
# P(Y > M), which the CDF's error bound carries as it is and the pmf's
# relative error divided by it.
#
# A count changes only about once every 1/p trials, so the scans visit only
# the n where one could.  After each n a walker's hold bounds how far its
# CDF can fall, from the pmf at k, and so how many trials certainly keep its
# count; the scan jumps past them, and the walker crosses them in one move.
# A count that only has to be bounded from below needs no hold: it never
# falls, so a walker's keeps bounds only the trials through which the exact
# quantile cannot fall below it, below_cap those through which it cannot
# give up at the cap, and discrete_scan asks the producer walker again only
# where a stale count could stop it.
#
# Where the consumer count changes every few trials, discrete_scan also
# certifies whole blocks of n at once.  A copy of the consumer walker, moved
# to the block's far end, certifies a count there whose kernel CDF exceeds
# the target.  The exact CDF at a count only falls as n grows and the
# kernel's error bound only grows, so that count bounds the consumer
# quantile from above at every n of the block; while the producer count,
# which never falls, exceeds it by more than eps times the far end, no n in
# the block can stop the scan, and the scan goes on past it.

_U = 2.0 ** -53            # unit roundoff of a double
_MIN_PMF = 2.0 ** -960     # below this a running pmf may have lost bits
_REFRESH = 2.0 ** -30      # re-seed once the bound exceeds this share of the CDF
_LEAD = 699.0              # a move keeps P(Y = 0) >= exp(-_LEAD), a normal double
_SAFE = 1.0 - 2.0 ** -40   # shrinks a certified quantity past its own rounding
_ROOM = 4.0                # a hold is worked out only past this many trials' fall
_TAIL = 1e-30              # P(X > poisson_cap) at any mean lies below this
_BLOCK = 3.0               # a block is probed only where l1 could change this often in it
_QUIET = 64.0              # L1 is refreshed for a block only below a_half / _QUIET of margin


def _span(r, x, lx):
    """Largest real h with (exp(lx h) - 1) / x <= r, inf when every h does.

    With lx = log1p(x) this bounds sum_{i<h} (1 + x)**i, the fall over h
    trials at a per-trial growth factor 1 + x; with lx = x it bounds the
    integral of exp(x t) over [0, h].
    """
    if x == 0.0:
        return r
    t = r * x
    if t <= -1.0:
        return math.inf
    return log1p(t) / lx


class _Walk:
    """One count k of Binomial(n, p), or Poisson(n p) when poisson, followed
    as n grows, 0 < p < 1.

    cdf and pmf are running values of P(X <= k) and P(X = k); cdf_err
    bounds |cdf - P(X <= k)| and pmf_rel the relative error of pmf.  At the
    current n the exact kernel's CDF and last term at k lie within
    ka + kb k, relative, of P(X <= k) and P(X = k); cdf_low, cdf_high and
    below_high turn the two error bounds into the ones every comparison
    uses, with room left for rounding the comparison itself.  A move makes
    each term of its increment as its convolution reads it.
    """

    __slots__ = ("p", "poisson", "size", "da", "ratio", "rate", "ka_a", "ka_0", "kb",
                 "piece", "n", "a", "k", "cdf", "pmf", "cdf_err", "pmf_rel", "ka")

    def __init__(self, p, poisson):
        self.p, self.poisson = p, poisson
        if poisson:
            self.size, self.da, self.ratio, self.rate = p, 0.0, 1.0, 1.0
            # kernel term j is off by (2 + 2j) u; a scaled leading term adds
            # 2 a u (e log 2 is off by up to 2u of a), with room for n p
            # rounding to a; the Kahan sum by 2u more
            self.ka_a, self.ka_0, self.kb = 3.0, 7.0, 2.0 * _U
        else:
            self.size, self.da, self.ratio = 1.0, 1.0, p / (1.0 - p)
            self.rate = lq = -log1p(-p)
            # kernel term j is off by (n + 2 + 5j) u, n u of it from rounding
            # q; a scaled leading term adds 5 n log(1/q) u (log q, n log q and
            # e log 2 each off by up to 2u of n log(1/q)); the sum by 2u more
            self.ka_a, self.ka_0, self.kb = 1.0 + 5.0 * lq, 6.0, 5.0 * _U
        # a subnormal kernel result carries up to 2**-1075 more, absolute,
        # from ldexp; kb is also the relative error of one recurrence step.
        # Below a rate of about 4e-306 the quotient overflows: 2**53 trials,
        # more than any scan runs, stand in for it
        self.piece = max(1, int(min(_LEAD / (self.size * self.rate), 2.0 ** 53)))
        # n = 0: all mass at zero failures
        self.n = self.k = 0
        self.a = 0.0
        self.cdf = self.pmf = 1.0
        self.cdf_err = self.pmf_rel = 0.0
        self.ka = self.linear_bound(0)

    def copy(self):
        """A walker in the same state, which moves and steps on its own."""
        other = object.__new__(type(self))
        (other.p, other.poisson, other.size, other.da, other.ratio, other.rate,
         other.ka_a, other.ka_0, other.kb, other.piece, other.n, other.a, other.k,
         other.cdf, other.pmf, other.cdf_err, other.pmf_rel, other.ka) = (
            self.p, self.poisson, self.size, self.da, self.ratio, self.rate,
            self.ka_a, self.ka_0, self.kb, self.piece, self.n, self.a, self.k,
            self.cdf, self.pmf, self.cdf_err, self.pmf_rel, self.ka)
        return other

    def probe(self, n, target, top):
        """A copy moved to a later n, at a count below top that first's own
        test certifies there as the first count whose CDF exceeds target;
        None where no such count below top is found.  This walker, at a
        trial count past 0, is left as it was either way.

        The exact CDF at a count only falls as n grows, and the kernel's
        error bound only grows, so the kernel's CDF at that count exceeds
        target at every trial count from this walker's n to n: the first
        count at target, strict, lies at or below the copy's count at each.

        The copy starts at the count that k's average slope since n = 0
        reaches.  A quantile below the mean rises faster than that, so the
        start lies at or below the quantile at n, and yet near it: a count
        left deep in the lower tail would lose its pmf's relative error
        bound to the move's truncation, which is relative to the CDF.
        """
        other = self.copy()
        for _ in range(min(int((n - self.n) * (self.k / self.n)), top - 1 - self.k)):
            other.step()
        if other.pmf < _MIN_PMF:
            return None  # a move from so small a pmf would carry no error bound
        other.move(n)
        ka = other.ka
        while other.k < top:
            if other.cdf_low(ka) > target:
                # as in first: the count below certainly falls short
                return other if other.below_high(ka) < target else None
            other.step()
        return None

    def first(self, n, target, strict):
        """Smallest count whose exact CDF at n is >= target (> target when strict).

        n must not decrease between calls.  The count stops at cap + 2 when
        strict and raises SolverError past cap otherwise, for both families.
        """
        self.move(n)
        ka = self.ka
        # usual case: the count of the previous n still reaches the target,
        # and the one below it still falls short, both certified
        if self.cdf_low(ka) > target and self.below_high(ka) < target:
            return self.k
        return self._settle(target, strict)

    def _settle(self, target, strict):
        if self.cdf_err > _REFRESH * self.cdf:
            # the running value lost too much to decide from; start afresh
            self.reseed(self.k)
        cap = self.cap()
        stop = cap + (2 if strict else 1)
        ka = self.ka
        k0 = k = self.k
        while k < stop:
            if self.cdf_high(ka) >= target:
                if not self.cdf_low(ka) > target:
                    # too close to call: the exact kernel decides, and on a
                    # shortfall steps up to the first count that reaches, each
                    # count summed once and the last pass re-seeding the walker
                    found = self.exact(k)
                    while k < stop and not _reaches(found[0], target, strict):
                        k += 1
                        found = self.exact(k)
                    if k > self.k:
                        self.reseed(k, found)
                break
            self.step()
            k += 1
        if k == k0 and self.below_high(ka) >= target:
            # the walk did not move and k - 1 may reach too: step down to
            # the first count that does
            found = None
            while k:
                below = self.exact(k - 1)
                if not _reaches(below[0], target, strict):
                    break
                k, found = k - 1, below
            if found:
                self.reseed(k, found)
        if k > cap and not strict:
            raise SolverError("quantile scan exceeded cap %d at mean %g" % (cap, self.n * self.p))
        return k

    def cap(self):
        """Count past which first gives up, from the mean n p as poisson_cap."""
        return poisson_cap(self.n * self.p)

    def cdf_at_most(self, n, j, tail):
        """Whether the exact CDF at count j and trial count n is <= tail."""
        self.move(n)
        if j < self.k:
            return self.reseed(j) <= tail
        while self.k < j:
            self.step()
        ka = self.ka
        if self.cdf_low(ka) > tail:
            return False
        # once re-seeded, the running CDF is the kernel's value
        return self.cdf_high(ka) < tail or self.reseed(j) <= tail

    def hold(self, target, limit, left):
        """Trial counts past n, at most limit, for which the exact CDF at k
        certainly stays above target and, with left, the one at k - 1 below.

        P(X <= k - 1) only falls as n grows.  P(X <= k) falls with the pmf at
        k, which grows by at most a fixed factor per trial, so span bounds
        the fall over h trials.  Both are compared with the kernel's error
        bound at the last trial count of the range: it grows with n, so it
        is largest there.
        """
        pmf = self.pmf
        if self.cdf - target < _ROOM * self.p * pmf:
            return 0  # a log costs more than the few trials it could skip
        ka = self.linear_bound(self.n + limit)
        if left and not self.below_high(ka) < target:
            return 0
        room = self.cdf_low(ka) * _SAFE - target
        if not room > 0.0 or not pmf:
            return 0
        h = self.span(room / (pmf * (1.0 + self.pmf_rel)))
        if h >= limit:
            return limit
        return int(h) if h >= 1.0 else 0

    def below_cap(self, target, limit):
        """Last trial count, at most limit, through which first at target
        (non-strict) cannot give up at the cap; 0 when none.

        P(X > cap) is below _TAIL, so the kernel's CDF at the cap reaches
        target while 1 - target exceeds _TAIL plus the kernel's error bound
        at the cap.  That bound grows linearly in the trial count m, the cap
        by at most 2 m p + 150 (20 sqrt(x) <= x + 100), so it gives the last
        m in closed form; _SAFE shrinks 1 - target past the form's rounding.
        """
        kb = self.kb
        room = (1.0 - target) * _SAFE - _TAIL - self.ka_0 * _U - 150.0 * kb
        if not room > 0.0:
            return 0
        rate = self.size * self.ka_a * _U + 2.0 * self.p * kb
        return limit if room >= rate * limit else int(room / rate)

    def keeps(self, target, limit):
        """Last trial count, from n to limit, through which the exact
        quantile at target (non-strict, as first finds it) stays at k or
        above; n when none past n.

        P(X <= k - 1) only falls as n grows, so the kernel's CDF at k - 1
        stays below target while below_high, at the kernel's error term of
        the last trial count, does: hold's left test.  That bound grows
        linearly in the trial count, by at most its value at trial count 0
        times size ka_a u per trial, so that gives the last one in closed
        form; the test is then made there as written, and being monotone in
        the trial count it holds below too.
        """
        n = self.n
        if limit <= n:
            return n
        base = self.below_high(self.ka_0 * _U)
        room = target * _SAFE - base
        if not room > 0.0:
            return n
        grow = base * self.size * self.ka_a * _U
        if room < grow * limit:
            limit = int(room / grow)
            if limit <= n:
                return n
        if not self.below_high(self.linear_bound(limit)) < target:
            return n
        return limit

    def linear_bound(self, n):
        """ka, the kernel's error term at trial count n: its CDF and its
        last term at count k lie within ka + kb k of their own values."""
        return (n * self.size * self.ka_a + self.ka_0) * _U

    # The certified bounds, each on the kernel's value at the current n
    # given ka there or at a later trial count: the kernel's error bound,
    # ka + kb k relative, only grows with n.  A running value off by err
    # absolute and a kernel off by kappa relative put the kernel's CDF
    # within (1 -+ kappa) (cdf -+ err); k - 1 adds the pmf's error and the
    # rounding of cdf - pmf.  The products leave room for their own rounding.
    def cdf_low(self, ka):
        """Lower bound on the kernel's CDF at k."""
        return (self.cdf - self.cdf_err) * (1.0 - ka - self.kb * self.k)

    def cdf_high(self, ka):
        """Upper bound on the kernel's CDF at k."""
        return (self.cdf + self.cdf_err) * (1.0 + ka + self.kb * self.k)

    def below_high(self, ka):
        """Upper bound on the kernel's CDF at k - 1, 0.0 at k = 0."""
        k = self.k
        if not k:
            return 0.0
        pmf = self.pmf
        low = self.cdf - pmf
        high = low + self.cdf_err + pmf * self.pmf_rel + low * _U
        return high * (1.0 + ka + self.kb * (k - 1))

    def span(self, r):
        """Real trial count past n over which the CDF at k falls by at most
        r times the pmf there.

        Per unit of a the CDF falls by w = p / size times the pmf at k: by
        p pmf(k; n + i) at each whole trial for the Binomial, continuously
        for the Poisson.  Per unit of a the pmf grows by at most a factor
        (1 + c da)**(1/da), e**c at da = 0, with c = (k - w (a + da)) /
        (a + da - k da), which only falls as a grows: q (n+1) / (n+1-k) - 1
        for the Binomial and k / a - 1 for the Poisson.  So span sums a
        geometric series for the one and integrates an exponential for the
        other.  Over h trials a grows by at most h size (1 + 2u) + 3u a, as
        fl(n p) rounds.
        """
        a, k, da = self.a, self.k, self.da
        w = self.p / self.size
        top = a + da
        c = (k - w * top) / (top - k * da)
        c += 3.0 * _U * (abs(c) + w * top / (top - k * da))  # rounded up
        t = _span(r / w * _SAFE, c, log1p(c * da) / da if da else c) * _SAFE
        return (t - 3.0 * _U * a) / (self.size * (1.0 + 2.0 * _U))

    # One piece's error bound.  Let i run over the terms the loop sums, up to
    # m: m = k when j reaches 0, the last i before the stop test otherwise,
    # and let lead = d rate.
    # - P(Y = i), from exp(-lead) by the recurrence, is off by (3 lead + 1) u
    #   + i kb of itself: lead by 2u of itself, exp by u, each step by kb.
    # - P(Y > i) is made forward, from P(Y > 0) = -expm1(-lead) less y_1 ..
    #   y_i, so its error is not relative to itself but to P(Y > 0): expm1
    #   costs u of it and the rounding of lead 2u (lead exp(-lead) <=
    #   1 - exp(-lead)), the y_j (3 lead + 1) u + m kb of their sum, which is
    #   at most P(Y > 0), and each subtraction u of a value no larger.  So
    #   every P(Y > i) is within E = ((m + 3 lead + 4) u + m kb) P(Y > 0), and
    #   the sum of g_i P(Y > i) within E times the sum of the g_i, which the
    #   true P(X_n <= k) bounds: at most cdf + cdf_err, not cdf.
    # - Each g_i carries the pmf's relative error and i kb from its steps
    #   down, and the products and sums cost (m + 1) u.  So beyond E the CDF's
    #   fall is off by at most rel of itself, and so is the new pmf, with
    #   the error of P(Y = i) too, once rel grows by (3 lead + 16 + 2m) u +
    #   2m kb, which leaves room to spare.
    # - A loop that ends with j at 0 has summed every term, and leaves out
    #   nothing.  One that ends at the stop test leaves out the terms past m,
    #   each g_i times P(Y > i) <= P(Y > m) for the CDF's fall and times
    #   P(Y = i) for the pmf: at most P(X_n <= k) P(Y > m) <= (cdf + cdf_err)
    #   trunc in either, trunc bounding the tail past m with a factor 4 to
    #   spare.  The CDF's bound carries it as it is, the pmf's relative
    #   error divided by the pmf.
    # The subtraction cdf - s adds u of the result.
    def move(self, n):
        """Carry cdf and pmf from the current trial count to n, by a convolution
        with each increment Y of at most piece trials."""
        m = self.n
        if m == n:
            return
        k, cdf, pmf, err, rel, a = (self.k, self.cdf, self.pmf, self.cdf_err,
                                    self.pmf_rel, self.a)
        size, rate, da, ratio, kb = self.size, self.rate, self.da, self.ratio, self.kb
        tiny = _U / 32.0
        while m < n:
            h = n - m
            if h > 1:
                h = min(h, self.piece)
            a2 = (m + h) * size
            d = a2 - a
            if h > m and a2 - d != a:
                # d was rounded; a move of h <= m trials keeps it exact, as
                # fl(m p) >= fl((m + h) p) / 2 (Sterbenz)
                h = m
                a2 = (m + h) * size
                d = a2 - a
            m += h
            # Y is Binomial(d, p) or Poisson(d), with P(Y = 0) = exp(-d rate)
            lead = d * rate
            y = exp(-lead)
            top = -expm1(-lead)  # P(Y > 0)
            above = top  # P(Y > i)
            s = pmf * top
            t = pmf * y
            g = pmf
            j = k + 0.0  # a float, for float arithmetic in the loop
            b = a - (j - 1.0) * da  # P(X = j-1) = P(X = j) j / (b ratio)
            c, i = d, 1.0  # P(Y = i) = P(Y = i-1) c / i ratio
            trunc = 0.0
            while j:
                y = y * (c / i) * ratio
                c -= da
                i += 1.0
                # the terms from y on fall by ratios of at most c / i ratio:
                # once that is below 1 and y negligible, they sum to at most
                # y / (1 - c / i ratio)
                if y < tiny and c / i * ratio < 1.0:
                    trunc = 4.0 * y / (1.0 - c / i * ratio)
                    break
                g = g * j / (b * ratio)
                b += da
                j -= 1.0
                above -= y
                s += g * above
                t += g * y
            i = k - j  # m, the terms summed past i = 0
            high = cdf + err
            rel += (3.0 * lead + 16.0 + 2.0 * i) * _U + 2.0 * i * kb
            err += (s * rel + (((i + 3.0 * lead + 4.0) * _U + i * kb) * top + trunc) * high
                    + _U * (cdf - s))
            if t < _MIN_PMF:
                err = math.inf  # a subnormal pmf lost its relative error bound
            else:
                rel += high * trunc / t
            cdf -= s
            pmf = t
            a = a2
        self.n, self.a, self.cdf, self.pmf, self.cdf_err, self.pmf_rel = (
            n, a, cdf, pmf, err, rel)
        self.ka = (a * self.ka_a + self.ka_0) * _U  # linear_bound(n), inline on the hot path

    def step(self):
        k = self.k
        pmf = self.pmf * ((self.a - k * self.da) / (k + 1.0)) * self.ratio
        rel = self.pmf_rel + self.kb
        cdf = self.cdf + pmf
        self.cdf_err += pmf * rel + _U * cdf
        self.k, self.cdf, self.pmf, self.pmf_rel = k + 1, cdf, pmf, rel

    def exact(self, k):
        """(P(X <= k), P(X = k)) at the current n, from one kernel pass."""
        if self.poisson:
            return _poisson_pass(k, self.a)
        return _binom_pass(k, self.n, self.p)

    def reseed(self, k, found=None):
        """Start afresh at count k from the kernel's pass there, found when
        the caller has it already; returns the new CDF, the kernel's value.
        The pmf is the pass's last term, within ka + kb k of P(X = k)."""
        self.k = k
        self.cdf, self.pmf = cdf, pmf = found or self.exact(k)
        self.pmf_rel = rel = self.ka + self.kb * k
        self.cdf_err = cdf * rel if pmf >= _MIN_PMF else math.inf
        return cdf


def discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    """Plan search for the discrete methods with 0 < p0 < p1 < 1.

    For each n, form the first count beyond the producer upper limit
    (upper quantile at a_half, plus one) and the first count beyond the
    consumer lower limit (lower quantile at b_half, plus one); stop when
    they cross or come within eps*n of each other.  One certified walker
    per rate follows each count as n grows.

    The producer count L1 never falls as n grows, so a stale L1 already
    rules a stop out wherever L1 - l1 > eps*n.  The scan keeps the last L1
    it worked out and asks the producer walker again only at an n where
    that test fails, or past the trial count through which the walker
    keeps L1 certified as a lower bound with no cap error possible.  After
    an n that does not stop the scan, it jumps to the next n at which l1
    could change, by the consumer walker's hold, cut where eps*n reaches
    the gap and at that trial count.  Where the walker certifies no later
    n (a target within the kernel's error of 1), the scan steps one n.

    Where the slack G = L1 - l1 - eps*n leaves room for _BLOCK changes of
    l1, the scan first tries to cross a whole block: G closes by about
    p1 + eps per trial, so a probe of the consumer walker at
    n_b = n + G / (p1 + eps), cut at until and max_n, looks for a count
    l1_b certified there, below L1 - eps*n_b.  Both exact quantiles are
    non-decreasing in n, and the certificate holds at every n' <= n_b, so
    at each n' in the block l1 <= l1_b and the producer count is at least
    L1: none of them stops the scan, and it goes on at n_b + 1.  A probe
    that finds no such count leaves the walker as it was, and halves the
    share of G the next block spans (a certified one doubles it, up to all
    of G).  A probe fails where the copy's error bound, absolute from n on,
    is too wide for b_half at n_b, and a shorter move fails less often.

    Where G is too small for a block, but L1 could have grown enough to
    open one since the producer walker last answered (by about p0 per
    trial), the scan asks that walker again first.  It does so only at an
    n where no cap error is possible, and only where the walker's margin
    lies far below a_half, so that the answer rarely needs the exact
    kernel.  It keeps the new L1 only if the walker keeps it past n.

    Returns (converged, n, L1, l1) where L1/l1 are the two limit counts at
    the stopping n (l1 = -1 entries never escape: non-convergence returns
    converged=False with the last examined n).
    """
    upper, lower = _Walk(p0, use_poisson), _Walk(p1, use_poisson)
    upper_first, lower_first = upper.first, lower.first
    target = 1.0 - a_half
    last = upper.below_cap(target, max_n)
    # the slack L1 - l1 - eps n closes by about p1 + eps per trial, so a
    # slack of at least wide spans _BLOCK changes of l1
    close = p1 + eps
    wide = _BLOCK * close / p1
    quiet = a_half / _QUIET
    reach = 1.0  # the share of the slack a block spans: halved by each failed probe
    L1 = until = 0  # the producer count is at least L1 through trial count until
    given = 0  # the n of the producer walker's last answer
    n = 1
    while n <= max_n:
        l1 = lower_first(n, b_half, True)
        if l1:
            # the scan stops where the slack is <= 0; a stale L1 understates it
            slack = L1 - l1 - eps * n
            due = n > until or slack <= 0.0
            # not due, n <= until <= last: the producer walker cannot give up
            # at the cap here
            if due or (slack < wide <= slack + p0 * (n - given)
                       and upper.cdf_err + upper.ka + upper.kb * upper.k < quiet):
                count = upper_first(n, target, False) + 1
                given = n
                if count <= l1 or abs(count - l1) <= eps * n:
                    return True, n, count, l1
                kept = upper.keeps(target, last)
                # a count asked for a block serves only if kept past n
                if due or kept > n:
                    L1, until = count, kept
                    slack = L1 - l1 - eps * n
            end = min(n + int(max(slack * reach, wide) / close), until, max_n)
            if slack >= wide and end > n:
                # a count below L1 - int(eps end) keeps L1 - l1 > eps n' at every n' <= end
                probe = lower.probe(end, b_half, L1 - int(eps * end))
                if probe is not None:
                    lower, lower_first = probe, probe.first
                    reach = min(2.0 * reach, 1.0)
                    n = end + 1
                    continue
                reach *= 0.5
        # until == n: the next n needs L1 again, so no hold can help
        if until == n:
            n += 1
            continue
        skip = lower.hold(b_half, max_n - n, True)
        if l1 and skip:
            skip = min(skip, until - n)
            gap = L1 - l1
            if skip and gap <= eps * (n + skip):
                # the first n' past n at which the eps test passes
                e = max(n + 1, int(gap / eps))
                while e > n + 1 and gap <= eps * (e - 1):
                    e -= 1
                while not gap <= eps * e:
                    e += 1
                skip = e - n - 1
        n += 1 + skip
    return False, max_n, 0, 0


def zero_scan(use_poisson, p1, b_tail, max_n):
    """Plan search for the discrete methods with p0 = 0 and 0 < p1 < 1.

    The producer side is degenerate at zero failures, so the threshold sits
    midway between 0 and the consumer distribution's median failure count m;
    the scan stops at the first n whose acceptance number keeps the realized
    consumer risk within b_tail.  One certified walker follows the median
    and a second one the risk count c - 1.  While both certainly hold, that
    is while m cannot move and the risk cannot reach b_tail, the scan skips
    those n, by the walkers' holds as discrete_scan does.

    Returns (converged, n, m, c).
    """
    median = _Walk(p1, use_poisson)
    risk = _Walk(p1, use_poisson)
    n = 1
    while n <= max_n:
        m = median.first(n, 0.5, False)
        c = int(math.floor(m / 2.0 + 0.5))
        if c >= 1 and risk.cdf_at_most(n, c - 1, b_tail):
            return True, n, m, c
        skip = median.hold(0.5, max_n - n, True)
        if c >= 1 and skip:
            skip = risk.hold(b_tail, skip, False)
        n += 1 + skip
    return False, max_n, 0, 0


def norm_iter_scan(p0, p1, z0, z1, eps, max_n):
    """Search for the iterative normal method, by bisection on n.

    The unit-step method evaluates the upper limit of the p0 distribution
    and the lower limit of the p1 distribution at n = 1, 2, ... and stops at
    the first n where the signed gap between them lies within eps (status 0)
    or below -eps (status 1): no larger n can then satisfy the tolerance.
    With z >= 0 the computed gap never rises with n, since every rounded
    operation in it is monotone, so that first n is the first n whose gap
    falls below eps, found by bisection on the same expressions.  A gap of
    exactly -eps passes neither test, and the unit-step scan would go on to
    the first gap below -eps; a second bisection finds it.  best_gap is the
    least |gap| over the n the unit-step scan visits.

    Returns (status, n, upper, lower, best_gap) with status 0 = converged,
    1 = gap crossed below -eps, 2 = max_n reached; the tuple is that of the
    unit-step scan, bit for bit.
    """
    s0 = math.sqrt(p0 * (1.0 - p0))
    s1 = math.sqrt(p1 * (1.0 - p1))

    def limits(n):
        rn = math.sqrt(n)
        upper = p0 + z0 * s0 / rn
        lower = p1 - z1 * s1 / rn
        return upper, lower, upper - lower

    def first_below(bound, lo):
        # the first n in [lo, max_n] whose gap is below bound, else max_n + 1
        hi = max_n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if limits(mid)[2] < bound:
                hi = mid
            else:
                lo = mid + 1
        return lo

    n = first_below(eps, 1)
    if n > max_n:
        return 2, max_n, 0.0, 0.0, limits(max_n)[2]
    upper, lower, gap = limits(n)
    # every gap before n is at least eps, and the last of them the least
    best = abs(gap) if n == 1 else min(limits(n - 1)[2], abs(gap))
    if gap == -eps:
        n = first_below(-eps, n + 1)
        if n > max_n:
            return 2, max_n, 0.0, 0.0, best
        upper, lower, gap = limits(n)
    return (0 if gap > -eps else 1), n, upper, lower, best
