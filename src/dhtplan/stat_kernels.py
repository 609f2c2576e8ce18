"""Numerically careful probability primitives.

Checked entry points to the binomial and Poisson CDF kernels in
``_backend``, each the first value of one kernel pass, plus the upper-tail
standard-normal quantile used by the normal-approximation solvers, from the
standard library's ``statistics.NormalDist``.
"""

import math

from . import _backend
from ._record import _Record
from .errors import DomainError


class TailMass(_Record):
    """One-sided tail probability; must lie strictly inside (0, 0.5)."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value < 0.5):
            raise DomainError("tail mass must be in (0, 0.5), got %r" % (self.value,))


#: Largest trial count and mean: past 2**53 a double no longer holds every
#: integer, and the kernels' term recurrences step through counts as doubles.
_MAX_COUNT = 2 ** 53


def _whole(value, name):
    """value as an int; DomainError unless it is a finite whole number."""
    if not (-math.inf < value < math.inf and value == int(value)):
        raise DomainError("%s must be a whole number, got %r" % (name, value))
    return int(value)


def binom_cdf(c, n, p):
    """P(X <= c) for X ~ Binomial(n, p), exact term summation.

    c and n are whole numbers, integral floats such as 10.0 included; a
    negative count c gives 0.0.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1], got %r" % (p,))
    if type(n) is not int:
        n = _whole(n, "trial count n")
    if not 0 <= n <= _MAX_COUNT:
        raise DomainError("trial count n must be in [0, 2**53], got %r" % (n,))
    if type(c) is not int:
        c = _whole(c, "count c")
    if c > n:
        raise DomainError("count c = %r exceeds trial count n = %r" % (c, n))
    return _backend._binom_pass(c, n, float(p))[0]


def poisson_cdf(c, lam):
    """P(X <= c) for X ~ Poisson(lam), stable recurrence.

    c is a whole number; a negative count gives 0.0.
    """
    if not (0.0 <= lam <= _MAX_COUNT):
        raise DomainError("lambda must be in [0, 2**53], got %r" % (lam,))
    if type(c) is not int:
        c = _whole(c, "count c")
    return _backend._poisson_pass(c, float(lam))[0]


def z_value(tail, paper_compat=False):
    """Inverse standard normal at 1 - tail.

    With paper_compat=True the two-decimal constant 1.64 is substituted at
    tail = 0.05, which the table-reproduction paths rely on.
    """
    t = TailMass(float(tail)).value
    if paper_compat and t == 0.05:
        return 1.64
    # Wichura's AS 241, which inverts a small tail from t itself, not from
    # 1 - t; imported here, so that runs at the paper's tails never load it
    from statistics import NormalDist
    return -NormalDist().inv_cdf(t)
