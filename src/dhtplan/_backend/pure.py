"""Pure-Python numeric kernels.

These are the hot inner loops of the package: discrete CDF term sums,
single-pass quantile scans, and the plan-search loops, which follow their
quantiles across n with certified incremental walkers.

Both discrete CDFs are one term recurrence with Kahan summation, run by
_term_sum and, one partial sum per count, by _term_partials.  Where the
leading term, q**n or exp(-lam), lies below the normal range, the sum starts
instead from that term scaled by a power of two, m = q**n * 2**-e with m in
(1/2, 1], and shrinks by an exact 2**-512 whenever it passes 2**512; the
total is scaled back by ldexp at the end.  A subnormal leading term would
carry its rounding into every later term.  In the normal range e = 0: a sum
of probabilities never reaches 2**512, and ldexp by 0 is exact.
"""

import math
from itertools import accumulate, chain, count, islice, repeat
from math import exp, expm1, ldexp, lgamma, log, log1p

from ..errors import SolverError

_NORMAL = 2.0 ** -1022     # smallest normal double
_LN2 = math.log(2.0)
_BIG = 2.0 ** 512          # a scaled sum shrinks by _SHRINK once it passes this
_SHRINK = 2.0 ** -512
# binom_cdf and poisson_cdf return 0.0 once their Chernoff bound is below
# 2**-1076, half of the 2**-1075 below which ldexp rounds the scaled sum to zero
_UNDERFLOW = 1076.0 * _LN2


def _scaled_lead(x):
    """(m, e) with m * 2**e = exp(x), m in (1/2, 1], for x below -708.

    x - e log 2 is exact (Sterbenz), so m * 2**e is off from exp(x) by the
    rounding of e log 2 and of exp: about 2u |x| + 2u relative, u the unit
    roundoff.
    """
    e = int(x / _LN2)
    return exp(x - e * _LN2), e


def _term_sum(term, e, c, a, da, ratio):
    """Kahan sum of term_0 .. term_c times 2**e, clipped at 1.0.

    term_k = term_{k-1} (a / k) ratio, after which a falls by da:
    Binomial(n, p) is a = n, da = 1, ratio = p/q and Poisson(lam) is
    a = lam, da = 0, ratio = 1.  a and k are exact doubles below 2**53,
    the largest count stat_kernels lets through.
    """
    total = term
    comp = 0.0
    for k in range(1, c + 1):
        term = term * (a / k) * ratio
        a -= da
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if total > _BIG:
            total *= _SHRINK
            comp *= _SHRINK
            term *= _SHRINK
            e += 512
    total = ldexp(total, e)
    return 1.0 if total > 1.0 else total


def _term_partials(term, e, a, da, ratio):
    """Yield _term_sum(term, e, c, a, da, ratio) for c = 0, 1, ... from one
    running sum: the same operations, so each value equals it bit for bit.
    The generator never ends.
    """
    total = term
    comp = 0.0
    cdf = ldexp(total, e)
    yield 1.0 if cdf > 1.0 else cdf
    for k in count(1):
        term = term * (a / k) * ratio
        a -= da
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if total > _BIG:
            total *= _SHRINK
            comp *= _SHRINK
            term *= _SHRINK
            e += 512
        cdf = ldexp(total, e)
        yield 1.0 if cdf > 1.0 else cdf


def binom_cdf(c, n, p):
    """P(X <= c) for X ~ Binomial(n, p), by _term_sum from q**n.

    Where q**n leaves the normal range the sum runs from it scaled by a
    power of two.  There, for c < n p, a Chernoff bound below 2**-1076
    returns 0.0 at once: the full sum, within a factor 2 of the tail it
    approximates, would round to 0.0 as well, so the result equals the
    k = c value of _binom_partials bit for bit either way.
    """
    if c < 0:
        return 0.0
    if c >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    q = 1.0 - p
    t0 = pow(q, float(n))
    if t0 >= _NORMAL:
        return _term_sum(t0, 0, c, float(n), 1.0, p / q)
    x = n * log(q)
    # P(X <= c) <= exp(-(c log(c/np) + (n-c) log((n-c)/nq))) for c < np,
    # with this q = fl(1 - p) as well.  The margin covers the bound's own
    # rounding, about 2u n + 4u (|a| + |b|).  With n log(1/q) < 2**48 the
    # sum is off by less than 1/4 of itself: m by 4u n log(1/q), the terms
    # up to c < np by 4u c more.
    if 0 < c < n * p and x > -2.0 ** 48:
        a = c * log(c / (n * p))
        b = (n - c) * log((n - c) / (n * q))
        if a + b - (n + b - a) * 2.0 ** -45 > _UNDERFLOW:
            return 0.0
    term, e = _scaled_lead(x)
    return _term_sum(term, e, c, float(n), 1.0, p / q)


def poisson_cdf(c, lam):
    """P(X <= c) for X ~ Poisson(lam), by _term_sum from exp(-lam).

    Past lam = 700 the sum runs from exp(-lam) scaled by a power of two.
    There, for c < lam, a Chernoff bound below 2**-1076 returns 0.0 at once,
    as in binom_cdf: the full sum would round to 0.0 as well, so the result
    equals the k = c value of _poisson_partials bit for bit either way.
    """
    if c < 0:
        return 0.0
    if lam <= 0.0:
        return 1.0
    if lam <= 700.0:
        return _term_sum(exp(-lam), 0, c, lam, 0.0, 1.0)
    # P(X <= c) <= exp(-(lam - c + c log(c/lam))) for c < lam.  The margin
    # covers the bound's own rounding, about 4u (lam + c + |a|).  With
    # lam < 2**48 the sum is off by less than 1/4 of itself: m by 2u lam,
    # the terms up to c < lam by 2u c more.
    if 0 < c < lam < 2.0 ** 48:
        a = c * log(c / lam)
        if lam - c + a - (lam + c - a) * 2.0 ** -45 > _UNDERFLOW:
            return 0.0
    term, e = _scaled_lead(-lam)
    return _term_sum(term, e, c, lam, 0.0, 1.0)


def _binom_partials(n, p):
    """Iterator over binom_cdf(k, n, p) for k = 0 .. n-1, bit for bit, in O(n)."""
    if p <= 0.0 or p >= 1.0:
        return repeat(1.0 if p <= 0.0 else 0.0, n)
    q = 1.0 - p
    t0 = pow(q, float(n))
    term, e = (t0, 0) if t0 >= _NORMAL else _scaled_lead(n * log(q))
    return islice(_term_partials(term, e, float(n), 1.0, p / q), n)


def _poisson_partials(lam):
    """Endless iterator over poisson_cdf(k, lam) for k = 0, 1, ..., bit for bit."""
    if lam <= 0.0:
        return repeat(1.0)
    term, e = (exp(-lam), 0) if lam <= 700.0 else _scaled_lead(-lam)
    return _term_partials(term, e, lam, 0.0, 1.0)


def binom_quantile_ge(n, p, target):
    """Smallest k with P(X <= k) >= target, X ~ Binomial(n, p); at most n."""
    for k, cdf in enumerate(_binom_partials(n, p)):
        if cdf >= target:
            return k
    return n


def binom_quantile_le(n, p, tail):
    """Largest k with P(X <= k) <= tail, or -1 when CDF(0) > tail."""
    # P(X <= n) is exactly 1.0, as binom_cdf returns it
    for k, cdf in enumerate(chain(_binom_partials(n, p), (1.0,))):
        if cdf > tail:
            return k - 1
    return n


def poisson_quantile_ge(lam, target, cap):
    """Smallest k <= cap with P(X <= k) >= target, X ~ Poisson(lam).

    Raises SolverError when no k up to cap qualifies.
    """
    for k, cdf in enumerate(islice(_poisson_partials(lam), cap + 1)):
        if cdf >= target:
            return k
    raise _past_cap(cap, lam)


def poisson_quantile_le(lam, tail, cap):
    """Largest k with P(X <= k) <= tail, at most cap + 1; -1 when CDF(0) > tail."""
    for k, cdf in enumerate(islice(_poisson_partials(lam), cap + 2)):
        if cdf > tail:
            return k - 1
    return cap + 1


def poisson_cap(lam):
    """Count past which a quantile scan at mean lam gives up: lam + 20 sqrt(lam) + 50.

    A Binomial with mean lam has a variance below lam, so its quantiles up
    to any target below 1 - 1e-30 lie under this cap as the Poisson ones do.
    """
    return int(lam + 20.0 * math.sqrt(lam) + 50.0)


def _past_cap(cap, mean):
    return SolverError("quantile scan exceeded cap %d at mean %g" % (cap, mean))


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
# exact kernel otherwise.  The kernel's partial sums are non-decreasing in
# k, so certifying the count and the one below it fixes the quantile, and
# every decision, and every plan, is the one the per-n partial sums give.
#
# A count changes only about once every 1/p trials, so the scans visit only
# the n where one could.  After each n a walker's hold bounds how far its
# CDF can fall, from the pmf at k, and so how many trials certainly keep its
# count; the scan jumps past them, and the walker crosses the jump of h
# trials as X_{n+h} = X_n + Y in one convolution with the increment Y.

_U = 2.0 ** -53            # unit roundoff of a double
_MIN_PMF = 2.0 ** -960     # below this a running pmf may have lost bits
_REFRESH = 2.0 ** -30      # re-seed once the bound exceeds this share of the CDF
_SHORT = 16                # a move of fewer trials goes one trial at a time
_LEAD = 699.0              # a jump keeps P(Y = 0) >= exp(-_LEAD), a normal double
_STIRLING = 20             # Stirling's series serves arguments from here on
_SAFE = 1.0 - 2.0 ** -40   # shrinks a certified quantity past its own rounding
_ROOM = 4.0                # a hold is worked out only past this many trials' fall


def _reaches(value, target, strict):
    return value > target or (value == target and not strict)


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


def _stirling(x):
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= _STIRLING.

    Stirling's series to its x**-9 term; the next term is below 1e-17.
    """
    r = 1.0 / x
    r2 = r * r
    return r * (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 * (1.0 / 1680 - r2 / 1188))))


def _suffix_sums(ys):
    tails = list(accumulate(reversed(ys)))
    tails.reverse()
    return tuple(tails)


class _Walk:
    """One count k of a failure-count distribution, followed as n grows.

    cdf and pmf are running values of P(X <= k) and P(X = k); cdf_err
    bounds |cdf - P(X <= k)| and pmf_rel the relative error of pmf.  At the
    current n the exact kernel's value lies within cdf * (ka + kb * k) of
    P(X <= k), with room left for rounding the comparison itself.
    """

    __slots__ = ("p", "n", "k", "cdf", "pmf", "cdf_err", "pmf_rel", "ka", "kb", "piece")

    def __init__(self, p):
        # n = 0: all mass at zero failures
        self.p = p
        self.n = self.k = 0
        self.cdf = self.pmf = 1.0
        self.cdf_err = self.pmf_rel = 0.0

    def first(self, n, target, strict):
        """Smallest count whose exact CDF at n is >= target (> target when strict).

        n must not decrease between calls.  The count stops at cap + 2 when
        strict and raises SolverError past cap otherwise, as the exact
        Poisson quantiles do.
        """
        self.move(n)
        k, cdf, err, ka, kb = self.k, self.cdf, self.cdf_err, self.ka, self.kb
        # usual case: the count of the previous n still reaches the target,
        # and the one below it still falls short, both certified
        if cdf - err - cdf * (ka + kb * k) > target:
            if k == 0:
                return k
            pmf = self.pmf
            low = cdf - pmf
            if low + err + pmf * self.pmf_rel + low * (ka + kb * (k - 1) + _U) < target:
                return k
        return self._settle(target, strict)

    def _settle(self, target, strict):
        if self.cdf_err > _REFRESH * self.cdf:
            # the running value lost too much to decide from; start afresh
            self.reseed(self.k)
        cap = self.cap()
        stop = cap + (2 if strict else 1)
        k0 = k = self.k
        while k < stop:
            cdf = self.cdf
            bound = self.cdf_err + cdf * (self.ka + self.kb * k)
            if cdf - bound > target:
                break
            if cdf + bound >= target:
                # too close to call: the exact kernel decides, and on a
                # shortfall the exact quantile, so no walk costs O(K) per step
                if not _reaches(self.exact(k), target, strict):
                    k = self.reseed(self.exact_first(target, strict))
                break
            self.step()
            k += 1
        if k == k0 and k > 0:
            # the walk did not move, so certify that k - 1 still falls short
            pmf = self.pmf
            low = self.cdf - pmf
            bound = (self.cdf_err + pmf * self.pmf_rel
                     + low * (self.ka + self.kb * (k - 1) + _U))
            if low + bound >= target and _reaches(self.exact(k - 1), target, strict):
                k = self.reseed(self.exact_first(target, strict))
        if k > cap and not strict:
            raise _past_cap(cap, self.n * self.p)
        return k

    def cap(self):
        """Count past which first gives up, from the mean n p as poisson_cap."""
        return poisson_cap(self.n * self.p)

    def cdf_at_most(self, n, j, tail):
        """Whether the exact CDF at count j and trial count n is <= tail."""
        self.move(n)
        if j < self.k:
            self.reseed(j)
        while self.k < j:
            self.step()
        for fresh in (False, True):
            # a second pass follows a re-seed of a running value that lost
            # too much to decide from
            cdf = self.cdf
            bound = self.cdf_err + cdf * (self.ka + self.kb * j)
            if cdf + bound < tail:
                return True
            if cdf - bound > tail:
                return False
            if fresh or self.cdf_err <= _REFRESH * cdf:
                return self.exact(j) <= tail
            self.reseed(j)

    def hold(self, target, limit, left):
        """Trial counts past n, at most limit, for which the exact CDF at k
        certainly stays above target and, with left, the one at k - 1 below.

        P(X <= k - 1) only falls as n grows.  P(X <= k) falls by p times the
        pmf at k per trial, and that pmf grows by at most a fixed factor per
        trial, so span bounds the fall over h trials by a geometric sum.
        Both are compared with the kernel's error bound at the last trial
        count of the range: it grows with n, so it is largest there.
        """
        pmf = self.pmf
        if self.cdf - target < _ROOM * self.p * pmf:
            return 0  # a log costs more than the few trials it could skip
        k = self.k
        ka, kb = self.linear_bound(self.n + limit)
        if left and k:
            low = self.cdf - pmf
            high = low + self.cdf_err + pmf * self.pmf_rel + low * _U
            if not high * (1.0 + ka + kb * (k - 1)) < target:
                return 0
        room = (self.cdf - self.cdf_err) * (1.0 - ka - kb * k) * _SAFE - target
        if not room > 0.0 or not pmf:
            return 0
        h = self.span(room / (pmf * (1.0 + self.pmf_rel)))
        if h >= limit:
            return limit
        return int(h) if h >= 1.0 else 0


class _BinomWalk(_Walk):
    """Binomial(n, p) walker, 0 < p < 1.

    n -> n+1:  P(X <= k) -= p P(X = k);  P(X = k) *= q (n+1) / (n+1-k)
    n -> n+h:  see _jump
    k -> k+1:  P(X = k+1) = P(X = k) (n-k)/(k+1) p/q;  P(X <= k+1) += it
    """

    __slots__ = ("q", "ratio", "lq", "ka_n")

    def __init__(self, p):
        super().__init__(p)
        q = self.q = 1.0 - p
        self.ratio = p / q
        self.lq = lq = -log1p(-p)
        self.ka_n = 1.0 + 5.0 * lq
        self.ka, self.kb = self.linear_bound(0)
        self.piece = int(_LEAD / lq)

    def move(self, n):
        m = self.n
        if m == n:
            return
        k, cdf, pmf, err, rel = self.k, self.cdf, self.pmf, self.cdf_err, self.pmf_rel
        p, q = self.p, self.q
        while m < n:
            h = n - m
            if h >= _SHORT:
                h = min(h, m, self.piece)
                if h >= _SHORT and (not k or m - k >= _STIRLING - 1):
                    cdf, pmf, err, rel = self._jump(m, h, cdf, pmf, err, rel)
                    m += h
                    continue
            pb = p * pmf
            cdf -= pb
            err += pb * (rel + _U) + _U * cdf
            m += 1
            pmf = pmf * q * m / (m - k)
            rel += 4 * _U
        if pmf < _MIN_PMF:
            err = math.inf  # a subnormal pmf lost its relative error bound
        self.n, self.cdf, self.pmf, self.cdf_err, self.pmf_rel = n, cdf, pmf, err, rel
        self.ka = (n * self.ka_n + 6) * _U  # linear_bound(n), inline on the hot path

    def _jump(self, m, h, cdf, pmf, err, rel):
        """m -> m + h with Y ~ Binomial(h, p), h <= m:
            P(X <= k) -= sum_i P(X_m = k-i) P(Y > i)
            P(X = k)  *= C(m+h, k) / C(m, k) q**h, the first factor from
                          Stirling's series at a = m+1 and b = m+1-k
        """
        k, p, lq = self.k, self.p, self.lq
        lead = h * lq
        if not k:
            # P(X <= 0) = P(X = 0), and P(Y > 0) = 1 - q**h is off by 3u
            s = -pmf * expm1(-lead)
            pmf *= exp(-lead)
            cdf -= s
            err += s * (rel + 5 * _U) + _U * cdf
            return cdf, pmf, err, rel + (3.0 * lead + 3.0) * _U
        tails, trel, trunc = _binom_tails(h, p, lead)
        s = 0.0
        g = pmf
        j = k
        back = self.q / p
        for above in tails:
            s += g * above
            if not j:
                break
            g = g * j / (m - j + 1) * back  # P(X_m = j-1) from P(X_m = j)
            j -= 1
        cdf -= s
        err += s * (rel + trel + trunc) + (trunc + _U) * cdf
        a = m + 1.0
        b = a - k
        # (a - 1/2) log1p(h/a) + h log(a + h) - h + the series terms is
        # lgamma(a + h) - lgamma(a); the two h log terms meet in l2
        da = (a - 0.5) * log1p(h / a) - (b - 0.5) * log1p(h / b)
        l2 = log1p(-k / (a + h))
        c = -h * (l2 + lq)
        x = da + c + ((_stirling(a + h) - _stirling(a)) - (_stirling(b + h) - _stirling(b)))
        pmf *= exp(x)
        # each log1p term is off by 3u of itself, below h; l2 + lq by 3u of
        # h (lq - l2); the sums by 2u of |x| + 1, and exp and the product by 2u
        return cdf, pmf, err, rel + (10.0 * h + 3.0 * h * (lq - l2) + 4.0 * abs(c) + 6.0) * _U

    def linear_bound(self, n):
        # term j is off by (n + 2 + 5j) u, n u of it from rounding q; a scaled
        # leading term m adds 5 n log(1/q) u (log q, n log q and e log 2 each
        # off by up to 2u of n log(1/q)); the sum by 2u more.  A subnormal
        # result carries up to 2**-1075 more, absolute, from ldexp.
        return (n * self.ka_n + 6) * _U, 5 * _U

    def span(self, x):
        # trial i past n falls by p b(k; n+i) <= p b(k; n) g**i, with the
        # ratio g = b(k; n+1) / b(k; n) = q (n+1) / (n+1-k) only falling in n
        n, k, p = self.n, self.k, self.p
        a = n + 1.0 - k
        pa = p * (n + 1.0)
        d = (k - pa) / a
        d += 3.0 * _U * (abs(d) + pa / a)  # g - 1, rounded up
        return _span(x / p * _SAFE, d, log1p(d)) * _SAFE

    def step(self):
        k = self.k
        pmf = self.pmf * ((self.n - k) / (k + 1.0)) * self.ratio
        rel = self.pmf_rel + 5 * _U
        cdf = self.cdf + pmf
        self.cdf_err += pmf * rel + _U * cdf
        self.k, self.cdf, self.pmf, self.pmf_rel = k + 1, cdf, pmf, rel

    def exact(self, k):
        return binom_cdf(k, self.n, self.p)

    def exact_first(self, target, strict):
        if strict:
            return binom_quantile_le(self.n, self.p, target) + 1
        return binom_quantile_ge(self.n, self.p, target)

    def reseed(self, k):
        n, p = self.n, self.p
        lgn = lgamma(n + 1.0)
        lp, l1p = -math.log(p), -math.log1p(-p)
        self.k = k
        self.cdf = cdf = binom_cdf(k, n, p)
        self.pmf = math.exp(lgn - lgamma(k + 1.0) - lgamma(n - k + 1.0)
                            - k * lp - (n - k) * l1p)
        self.pmf_rel = _U * (18.0 * lgn + 7.0 * (k * lp + (n - k) * l1p) + 20.0 * n + 32.0)
        self.cdf_err = cdf * (self.ka + self.kb * k) if self.pmf >= _MIN_PMF else math.inf
        return k


def _binom_tails(h, p, lead):
    """P(Y > i) for Y ~ Binomial(h, p), i = 0, 1, ... while it matters.

    lead = h log(1/q) <= _LEAD, so P(Y = 0) = exp(-lead) is normal.  Returns
    (tails, rel, trunc) as _poisson_tails does.
    """
    ratio = p / (1.0 - p)
    mean = h * p
    ys = []
    y = exp(-lead)
    i = 0
    trunc = 0.0
    while i < h:
        y = y * ((h - i) / (i + 1.0)) * ratio
        i += 1
        if i > mean and y < _U / 32.0:
            # past the mean each term is below the last times rho < 1
            rho = (h - i) / (i + 1.0) * ratio
            trunc = 4.0 * y / (1.0 - rho)
            break
        ys.append(y)
    # y0 is off by (3 lead + 1) u, P(Y = i) by 5i u more and a tail sum by
    # m u more; the convolution's pmf steps, products and sums cost 6m u
    return _suffix_sums(ys), (3.0 * lead + 12.0 * len(ys) + 16.0) * _U, trunc


def _poisson_tails(d):
    """P(Y > i) for Y ~ Poisson(d), i = 0, 1, ... while it matters; d <= _LEAD.

    Returns (tails, exp(-d), rel, trunc): the walker's convolution with
    these tails is off by at most rel of itself beyond its pmf's own error,
    plus trunc times P(X <= k) for the terms left out.
    """
    e0 = math.exp(-d)
    ys = []
    y = e0
    m = 0
    while True:
        m += 1
        y = y * d / m
        if m > d and y < _U / 32.0:
            break
        ys.append(y)
    # P(Y = i) is off by (2 + 2i) u and a tail sum by m u more; the
    # convolution's pmf steps, products and sums cost 3m u more
    return _suffix_sums(ys), e0, (6 * m + 4) * _U, 4.0 * y / (1.0 - d / (m + 1.0))


class _PoissonWalk(_Walk):
    """Poisson(n p) walker.

    lam -> lam + d, with d = fl(m p) - fl(n p) exact by Sterbenz for
    n < m <= 2n:
        P(X <= k) -= sum_i P(X = k-i) P(Poisson(d) > i)
        P(X = k)  *= exp(k log1p(d / lam) - d)
    k -> k+1:  P(X = k+1) = P(X = k) lam / (k+1);  P(X <= k+1) += it
    """

    __slots__ = ("lam", "tails")

    def __init__(self, p):
        super().__init__(p)
        self.lam = 0.0
        self.tails = {}
        self.ka, self.kb = self.linear_bound(0)
        self.piece = max(1, int(_LEAD / p))

    def move(self, n):
        m = self.n
        if m == n:
            return
        k, cdf, pmf, err, rel, lam = (self.k, self.cdf, self.pmf, self.cdf_err,
                                      self.pmf_rel, self.lam)
        p, tails = self.p, self.tails
        while m < n:
            h = n - m
            if h > 1:
                h = min(h, m, self.piece) or 1
            m += h
            lam2 = m * p
            d = lam2 - lam
            try:
                tail, e0, trel, trunc = tails[d]
            except KeyError:
                tail, e0, trel, trunc = _poisson_tails(d)
                if h < _SHORT:
                    # short moves take few distinct d: keep their tails
                    tails[d] = tail, e0, trel, trunc
            if k:
                s = 0.0
                g = pmf
                j = k
                for above in tail:
                    s += g * above
                    g = g * j / lam      # P(X = j-1) from P(X = j); 0 past j = 0
                    j -= 1
                kl = k * log1p(d / lam)
                x = kl - d
                pmf *= exp(x)
                rel_step = _U * (4.0 * kl + abs(x) + 3.0)
            else:
                s = pmf * tail[0] if tail else 0.0
                pmf *= e0
                rel_step = 3 * _U
            cdf -= s
            err += s * (rel + trel + trunc) + (trunc + _U) * cdf
            rel += rel_step
            lam = lam2
        if pmf < _MIN_PMF:
            err = math.inf  # a subnormal pmf lost its relative error bound
        self.n, self.cdf, self.pmf, self.cdf_err, self.pmf_rel, self.lam = (
            n, cdf, pmf, err, rel, lam)
        self.ka = (3.0 * lam + 7) * _U  # linear_bound(n), inline on the hot path

    def linear_bound(self, n):
        # term j is off by (2 + 2j) u; a scaled leading term m adds 2 lam u
        # (e log 2 is off by up to 2u of lam), with room for n p rounding to
        # lam; the Kahan sum by 2u more.  A subnormal result carries up to
        # 2**-1075 more, absolute, from ldexp.
        return (3.0 * n * self.p + 7) * _U, 2 * _U

    def span(self, x):
        # as the mean grows by dt the CDF falls by pmf(k; lam + t) dt, at most
        # pmf(k; lam) e**(c t) dt with c = k/lam - 1; over h trials the mean
        # grows by fl((n+h) p) - fl(n p) <= h p (1 + u) + 2u lam
        lam = self.lam
        c = self.k / lam - 1.0
        c += _U * (2.0 * self.k / lam + 1.0)  # rounded up
        t = _span(x * _SAFE, c, c) * _SAFE
        return (t - 3.0 * _U * lam) / (self.p * (1.0 + 2.0 * _U))

    def step(self):
        k = self.k
        pmf = self.pmf * (self.lam / (k + 1.0))
        rel = self.pmf_rel + 2 * _U
        cdf = self.cdf + pmf
        self.cdf_err += pmf * rel + _U * cdf
        self.k, self.cdf, self.pmf, self.pmf_rel = k + 1, cdf, pmf, rel

    def exact(self, k):
        return poisson_cdf(k, self.lam)

    def exact_first(self, target, strict):
        cap = self.cap()
        if strict:
            return poisson_quantile_le(self.lam, target, cap) + 1
        return poisson_quantile_ge(self.lam, target, cap)

    def reseed(self, k):
        lam = self.lam
        llam, lgk = math.log(lam), lgamma(k + 1.0)
        self.k = k
        self.cdf = cdf = poisson_cdf(k, lam)
        self.pmf = math.exp(-lam + k * llam - lgk)
        self.pmf_rel = _U * (2.0 * lam + 5.0 * k * abs(llam) + 7.0 * lgk + 10.0 * k + 17.0)
        self.cdf_err = cdf * (self.ka + self.kb * k) if self.pmf >= _MIN_PMF else math.inf
        return k


def discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    """Plan search for the discrete methods with 0 < p0 < p1 < 1.

    For each n, form the first count beyond the producer upper limit
    (upper quantile at a_half, plus one) and the first count beyond the
    consumer lower limit (lower quantile at b_half, plus one); stop when
    they cross or come within eps*n of each other.  One certified walker
    per rate follows each count as n grows.  After an n that does not stop
    the scan, it jumps to the next n at which either count or the eps test
    could change: the shorter of the two walkers' holds (the lower one's
    alone while its count is 0), cut where eps*n reaches the gap.

    Returns (converged, n, L1, l1) where L1/l1 are the two limit counts at
    the stopping n (l1 = -1 entries never escape: non-convergence returns
    converged=False with the last examined n).
    """
    walk = _PoissonWalk if use_poisson else _BinomWalk
    upper, lower = walk(p0), walk(p1)
    upper_first, lower_first = upper.first, lower.first
    target = 1.0 - a_half
    # a hold is worth working out only where each CDF has room for a few
    # trials' fall (hold checks this too; here it costs no call).  Above
    # its quantile a CDF has less room than the pmf there, so from
    # p1 = 1/_ROOM on no n is skipped
    fall0, fall1 = _ROOM * p0, _ROOM * p1
    skips = fall1 < 1.0
    n = 1
    while n <= max_n:
        l1 = lower_first(n, b_half, True)
        if l1:
            L1 = upper_first(n, target, False) + 1
            if L1 <= l1 or abs(L1 - l1) <= eps * n:
                return True, n, L1, l1
            if not skips or upper.cdf - target < fall0 * upper.pmf:
                n += 1
                continue
        if not skips or lower.cdf - b_half < fall1 * lower.pmf:
            n += 1
            continue
        skip = lower.hold(b_half, max_n - n, True)
        if l1 and skip:
            skip = upper.hold(target, skip, True)
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
    walk = _PoissonWalk if use_poisson else _BinomWalk
    median, risk = walk(p1), walk(p1)
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
    """Unit-step search for the iterative normal method.

    Evaluates the upper limit of the p0 distribution and the lower limit of
    the p1 distribution at each n and stops when they agree to within eps.
    Once the signed gap falls below -eps it is strictly decreasing in n, so
    the scan exits early: no larger n can satisfy the tolerance.

    Returns (status, n, upper, lower, best_gap) with status 0 = converged,
    1 = gap crossed below -eps, 2 = max_n reached.
    """
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
