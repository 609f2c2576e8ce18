"""Pure-Python numeric kernels.

These are the hot inner loops of the package: discrete CDF term sums,
single-pass quantile scans, and the plan-search loops that evaluate them
thousands of times.
"""

import math
from itertools import chain, count, islice, repeat
from math import lgamma

from ..errors import SolverError


def binom_cdf(c, n, p):
    """P(X <= c) for X ~ Binomial(n, p).

    Term recurrence in linear space with Kahan summation; switches to
    log-space terms when the leading term q**n underflows.
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
    if t0 > 0.0:
        total = t0
        comp = 0.0
        term = t0
        ratio = p / q
        for k in range(c):
            term = term * ((n - k) / (k + 1.0)) * ratio
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        if total > 1.0:
            total = 1.0
        return total
    # log-space: term_k = exp(lchoose(n,k) + k log p + (n-k) log q)
    lp = math.log(p)
    lq = math.log(q)
    lgn = lgamma(n + 1.0)
    lsum = -math.inf
    for k in range(c + 1):
        lt = lgn - lgamma(k + 1.0) - lgamma(n - k + 1.0) + k * lp + (n - k) * lq
        if lt > lsum:
            lsum, lt = lt, lsum
        if lt != -math.inf:
            lsum += math.log1p(math.exp(lt - lsum))
    total = math.exp(lsum)
    if total > 1.0:
        total = 1.0
    return total


def poisson_cdf(c, lam):
    """P(X <= c) for X ~ Poisson(lam), stable term recurrence."""
    if c < 0:
        return 0.0
    if lam <= 0.0:
        return 1.0
    if lam <= 700.0:
        term = math.exp(-lam)
        total = term
        comp = 0.0
        for k in range(c):
            term = term * (lam / (k + 1.0))
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        if total > 1.0:
            total = 1.0
        return total
    llam = math.log(lam)
    lsum = -math.inf
    for k in range(c + 1):
        lt = -lam + k * llam - lgamma(k + 1.0)
        if lt > lsum:
            lsum, lt = lt, lsum
        if lt != -math.inf:
            lsum += math.log1p(math.exp(lt - lsum))
    total = math.exp(lsum)
    if total > 1.0:
        total = 1.0
    return total


def _binom_partials(n, p):
    """Yield binom_cdf(k, n, p) for k = 0 .. n-1 from one running sum.

    Same terms, same order and same operations as binom_cdf, so each value
    equals binom_cdf(k, n, p) bit for bit while the whole pass costs O(n).
    """
    if p <= 0.0 or p >= 1.0:
        yield from repeat(1.0 if p <= 0.0 else 0.0, n)
        return
    q = 1.0 - p
    t0 = pow(q, float(n))
    if t0 > 0.0:
        total = t0
        comp = 0.0
        term = t0
        ratio = p / q
        yield 1.0 if total > 1.0 else total
        for k in range(n - 1):
            term = term * ((n - k) / (k + 1.0)) * ratio
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            yield 1.0 if total > 1.0 else total
        return
    lp = math.log(p)
    lq = math.log(q)
    lgn = lgamma(n + 1.0)
    lsum = -math.inf
    for k in range(n):
        lt = lgn - lgamma(k + 1.0) - lgamma(n - k + 1.0) + k * lp + (n - k) * lq
        if lt > lsum:
            lsum, lt = lt, lsum
        if lt != -math.inf:
            lsum += math.log1p(math.exp(lt - lsum))
        total = math.exp(lsum)
        yield 1.0 if total > 1.0 else total


def _poisson_partials(lam):
    """Yield poisson_cdf(k, lam) for k = 0, 1, ... from one running sum.

    Same terms, same order and same operations as poisson_cdf, so each value
    equals poisson_cdf(k, lam) bit for bit.  The generator never ends.
    """
    if lam <= 0.0:
        yield from repeat(1.0)
    if lam <= 700.0:
        term = math.exp(-lam)
        total = term
        comp = 0.0
        yield 1.0 if total > 1.0 else total
        for k in count():
            term = term * (lam / (k + 1.0))
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            yield 1.0 if total > 1.0 else total
    llam = math.log(lam)
    lsum = -math.inf
    for k in count():
        lt = -lam + k * llam - lgamma(k + 1.0)
        if lt > lsum:
            lsum, lt = lt, lsum
        if lt != -math.inf:
            lsum += math.log1p(math.exp(lt - lsum))
        total = math.exp(lsum)
        yield 1.0 if total > 1.0 else total


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
    raise SolverError("poisson quantile scan exceeded cap %d at lambda=%g" % (cap, lam))


def poisson_quantile_le(lam, tail, cap):
    """Largest k with P(X <= k) <= tail, at most cap + 1; -1 when CDF(0) > tail."""
    for k, cdf in enumerate(islice(_poisson_partials(lam), cap + 2)):
        if cdf > tail:
            return k - 1
    return cap + 1


def poisson_cap(lam):
    """Count past which a Poisson quantile scan gives up: lam + 20 sqrt(lam) + 50."""
    return int(lam + 20.0 * math.sqrt(lam) + 50.0)


def discrete_scan(use_poisson, p0, p1, a_half, b_half, eps, max_n):
    """Plan search for the discrete methods with p0 > 0.

    For each n, form the first count beyond the producer upper limit
    (upper quantile at a_half, plus one) and the first count beyond the
    consumer lower limit (lower quantile at b_half, plus one); stop when
    they cross or come within eps*n of each other.

    Returns (converged, n, L1, l1) where L1/l1 are the two limit counts at
    the stopping n (l1 = -1 entries never escape: non-convergence returns
    converged=False with the last examined n).
    """
    for n in range(1, max_n + 1):
        if use_poisson:
            lam1 = n * p1
            cap1 = poisson_cap(lam1)
            lq = poisson_quantile_le(lam1, b_half, cap1)
            if lq < 0:
                continue
            lam0 = n * p0
            cap0 = poisson_cap(lam0)
            L1 = poisson_quantile_ge(lam0, 1.0 - a_half, cap0) + 1
        else:
            lq = binom_quantile_le(n, p1, b_half)
            if lq < 0:
                continue
            L1 = binom_quantile_ge(n, p0, 1.0 - a_half) + 1
        l1 = lq + 1
        if L1 <= l1 or abs(L1 - l1) <= eps * n:
            return True, n, L1, l1
    return False, max_n, 0, 0


def zero_scan(use_poisson, p1, b_tail, max_n):
    """Plan search for the discrete methods with p0 = 0.

    The producer side is degenerate at zero failures, so the threshold sits
    midway between 0 and the consumer distribution's median failure count m;
    the scan stops at the first n whose acceptance number keeps the realized
    consumer risk within b_tail.

    Returns (converged, n, m, c).
    """
    for n in range(1, max_n + 1):
        if use_poisson:
            lam = n * p1
            cap = poisson_cap(lam)
            m = poisson_quantile_ge(lam, 0.5, cap)
            c = int(math.floor(m / 2.0 + 0.5))
            risk = poisson_cdf(c - 1, lam)
        else:
            m = binom_quantile_ge(n, p1, 0.5)
            c = int(math.floor(m / 2.0 + 0.5))
            risk = binom_cdf(c - 1, n, p1)
        if c >= 1 and risk <= b_tail:
            return True, n, m, c
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
