"""Numerically careful probability primitives.

Checked entry points to the binomial and Poisson CDF kernels in
``_backend``, plus the standard-normal CDF and the upper-tail quantile used
by the normal-approximation solvers.
"""

import math
import sys
from dataclasses import dataclass

from . import _backend
from .errors import DomainError


@dataclass(frozen=True)
class TailMass:
    """One-sided tail probability; must lie strictly inside (0, 0.5)."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value < 0.5):
            raise DomainError("tail mass must be in (0, 0.5), got %r" % (self.value,))


def _tail_value(tail):
    return tail.value if isinstance(tail, TailMass) else TailMass(float(tail)).value


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
    return _backend.binom_cdf(c, n, float(p))


def poisson_cdf(c, lam):
    """P(X <= c) for X ~ Poisson(lam), stable recurrence.

    c is a whole number; a negative count gives 0.0.
    """
    if not (0.0 <= lam <= _MAX_COUNT):
        raise DomainError("lambda must be in [0, 2**53], got %r" % (lam,))
    if type(c) is not int:
        c = _whole(c, "count c")
    return _backend.poisson_cdf(c, float(lam))


def normal_cdf(x):
    """Standard normal CDF; absolute error well under 1e-7."""
    if not math.isfinite(x):
        raise DomainError("normal_cdf requires a finite argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Acklam's rational approximation to the normal quantile, then one Newton
# step to push the error below 1e-9 (for tails down to DBL_MIN; below it,
# Acklam's own relative error of 1.15e-9, about 1e-7 in z).
_INV_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_INV_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_INV_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_INV_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _normal_inv(t):
    """Normal quantile at 1 - t, for t in (0, 1/2).

    The central region works on u = 1 - t.  The upper tail works on t
    itself, since u keeps only the digits of t that fit next to 1, and its
    Newton step solves erfc(x / sqrt 2) / 2 = t.  Below DBL_MIN the density
    at x is subnormal and the step would add error, so it is skipped.
    """
    a, b, c, d = _INV_A, _INV_B, _INV_C, _INV_D
    u = 1.0 - t
    if u <= 0.97575:
        q = u - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        e = normal_cdf(x) - u
    else:
        q = math.sqrt(-2.0 * math.log(t))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        if t < sys.float_info.min:
            return x
        e = t - 0.5 * math.erfc(x / math.sqrt(2.0))
    # one Newton refinement
    return x - e / _normal_pdf(x)


def z_value(tail, paper_compat=False):
    """Inverse standard normal at 1 - tail.

    With paper_compat=True the two-decimal constant 1.64 is substituted at
    tail = 0.05, which the table-reproduction paths rely on.
    """
    t = _tail_value(tail)
    if paper_compat and t == 0.05:
        return 1.64
    return _normal_inv(t)
