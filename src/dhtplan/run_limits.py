"""Successive Failures Limit from renewal theory.

A run of r consecutive failures recurs on average every
    E[X] = (1 - p^r) / ((1 - p) p^r)
Bernoulli occurrences (success-runs renewal formula).  Inverting for r at a
given horizon E[X] gives the fixed-point map

    r = log((1 - p^r) / (E[X] (1 - p))) / log(p)

which contracts near the root; more than r consecutive failures rejects the
current inspection level.

Note: p here is the defect probability and the run counts consecutive
defects; the worked values (p=0.02, E[X]=1e6 -> r=4) only hold under that
reading.
"""

import math

from ._record import _Record
from .errors import DomainError

#: Default recurrence horizon, in Bernoulli occurrences.
DEFAULT_EX = 1e6


class SflQuery(_Record):
    p: float
    ex: float = DEFAULT_EX

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise DomainError("defect probability must be in (0, 1), got %g" % self.p)
        if not (math.isfinite(self.ex) and self.ex >= 1.0):
            raise DomainError("recurrence horizon ex must be finite and >= 1, got %g"
                              % self.ex)


def sfl_r(query, ex=None):
    """Run-length limit for a defect rate.

    Accepts an SflQuery or a bare probability (with ex supplied separately).
    Returns (r_raw, r) where r = ceil(r_raw); a run strictly longer than r
    rejects the level.  r_raw is the fixed point of
    r = log((1 - p**r) / (ex (1 - p))) / log(p), that is of
    p**r (1 + ex (1 - p)) = 1, in closed form.
    """
    if not isinstance(query, SflQuery):
        query = SflQuery(float(query), DEFAULT_EX if ex is None else float(ex))
    p, horizon = query.p, query.ex
    if horizon * (1.0 - p) <= 1.0:
        raise DomainError(
            "no run-length fixed point: need ex*(1-p) > 1, got %g" % (horizon * (1.0 - p),))
    r = _snap(math.log1p(horizon * (1.0 - p)) / -math.log(p))
    return r, math.ceil(r)


def _snap(r, tol=1e-8):
    # an integer fixed point may come out a little above the integer; without
    # snapping, ceil would overshoot it by one
    nearest = round(r)
    return float(nearest) if abs(r - nearest) < tol else r


def mean_recurrence(p, r):
    """Mean number of Bernoulli occurrences between completions of an r-run.

    Raises DomainError where the mean lies beyond the float range, as it
    does where p ** r underflows to 0."""
    if not (0.0 < p < 1.0):
        raise DomainError("defect probability must be in (0, 1)")
    if r < 1:
        raise DomainError("run length must be >= 1")
    pr = p ** r
    scale = (1.0 - p) * pr
    mean = (1.0 - pr) / scale if scale else math.inf
    if mean == math.inf:
        raise DomainError("the mean recurrence of a %d-run at p = %g lies beyond the "
                          "float range" % (r, p))
    return mean
