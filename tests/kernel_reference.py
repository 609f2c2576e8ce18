"""A reference copy of the exact kernels' term loop, for the tests' oracles.

binom_cdf(k, n, p) and poisson_cdf(k, lam) are the k-th partial sums of one
term series, and the package sums each afresh from k = 0.  The generators
here run the same series once and yield every partial sum, with the same
terms, order and roundings, so each value equals the kernel's bit for bit
(test_quantiles checks this, the kernels' underflow exits included).  A
quantile oracle over them costs one pass, where calling the kernel at each
count costs a pass per count.
"""

import math
from itertools import count, islice
from math import ldexp

from dhtplan import _backend as pure


def _sums(term, e, a, da, ratio):
    total, comp = term, 0.0
    cdf = ldexp(total, e)
    yield 1.0 if cdf > 1.0 else cdf
    for k in count(1):
        term = term * (a / k) * ratio
        a -= da
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if total > 2.0 ** 512:
            total *= 2.0 ** -512
            comp *= 2.0 ** -512
            term *= 2.0 ** -512
            e += 512
        cdf = ldexp(total, e)
        yield 1.0 if cdf > 1.0 else cdf


def binom_sums(n, p):
    """binom_cdf(k, n, p) for k = 0, 1, ..., endless: 1.0 from k = n on."""
    if p <= 0.0 or p >= 1.0:
        yield from [1.0 if p <= 0.0 else 0.0] * n
    else:
        q = 1.0 - p
        term, e = pow(q, float(n)), 0
        if term < 2.0 ** -1022:
            term, e = pure._scaled_lead(n * math.log(q))
        yield from islice(_sums(term, e, float(n), 1.0, p / q), n)
    while True:
        yield 1.0


def poisson_sums(lam):
    """poisson_cdf(k, lam) for k = 0, 1, ..., endless."""
    if lam <= 0.0:
        while True:
            yield 1.0
    term, e = (math.exp(-lam), 0) if lam <= 700.0 else pure._scaled_lead(-lam)
    yield from _sums(term, e, lam, 0.0, 1.0)


def first_reaching(sums, target, strict, stop):
    """Index of the first of sums that reaches target (exceeds it when
    strict), or stop when none of the first stop sums does."""
    for k, cdf in enumerate(islice(sums, stop)):
        if cdf > target or (cdf == target and not strict):
            return k
    return stop


def poisson_trials(lam):
    """(n, p) with p <= 1/4 and n p = lam exactly, lam > 0 not subnormal: a
    walker of Poisson(n p) follows Poisson(lam) at n."""
    n = 2 ** max(2, math.ceil(math.log2(lam)) + 2)
    assert n * (lam / n) == lam
    return n, lam / n
