"""Exact and Monte Carlo validation of sampling plans.

The exact side evaluates binomial tails directly.  An OC curve sums every
point in (0, 1) after the first in one grid pass of the kernel,
_backend._binom_grid, each value equal to its scalar binom_cdf bit for bit.
The first point (which checks n and c), p = 0 or 1 and bad points take
scalar calls, and so does every point of a grid shorter than
_backend._ARRAY_POINTS.  The Monte Carlo side draws each lot's failure
count as one Binomial(n, p) variate from a counter-based generator
(Philox), so lot i is the i-th variate of the seed's stream and the result
is bit-identical however the lots are blocked.  The count is sampled by
numpy's BTPE/inversion algorithm, not from the exact CDF, so the check is
independent of it.  numpy is imported only by a simulation or an OC curve
on a grid of _backend._ARRAY_POINTS points or more; accept_probability, and
so the CLI's oc, does without it.
"""

import math

from . import _backend
from ._record import _Record
from .errors import DomainError
from .stat_kernels import _whole, binom_cdf

#: z for the reported 99% confidence half-width.
_Z99 = 2.5758293035489004

#: lots drawn per block (bounds peak memory, never the result)
_BLOCK_LOTS = 65_536


class OcCurve(_Record):
    n: int
    c: int
    points: tuple  # ((p, accept_prob), ...)


class ErrorEstimate(_Record):
    alpha_hat: float
    beta_hat: float
    mc_alpha: tuple | None = None  # (rate, half_width)
    mc_beta: tuple | None = None
    seed: int | None = None


def accept_probability(n, c, p):
    """P(accept) = P(X <= c - 1) for X ~ Binomial(n, p)."""
    return binom_cdf(c - 1, n, p)


def oc_curve(plan, grid):
    """Operating-characteristic curve of a converged plan on a rate grid.

    Each value equals accept_probability(plan.n, plan.c, p) bit for bit,
    and a bad point or plan raises what that per-point loop raises, at the
    same point.  A grid of fewer than _backend._ARRAY_POINTS points is that
    loop, without numpy.  On a longer one the first point's call checks n
    and c, p = 0 or 1 and bad points keep the call, and _grid_values sums
    the rest.
    """
    if not plan.converged:
        raise DomainError("OC curve requires a converged plan")
    ps = []
    try:
        ps.extend(map(float, grid))
        fault = None
    except Exception as exc:  # raised once the points before it are checked
        fault = exc
    if fault is None and len(ps) >= _backend._ARRAY_POINTS:
        first = accept_probability(plan.n, plan.c, ps[0])
        # n and c are whole now; outside 0 <= k < n the kernel returns 0 or 1
        n, k = int(plan.n), int(plan.c) - 1
        if 0 <= k < n:
            values = _grid_values(plan, ps, first, n, k)
            return OcCurve(n=plan.n, c=plan.c, points=tuple(zip(ps, values)))
    values = [accept_probability(plan.n, plan.c, p) for p in ps]
    if fault is not None:
        raise fault
    return OcCurve(n=plan.n, c=plan.c, points=tuple(zip(ps, values)))


def _grid_values(plan, ps, first, n, k):
    """accept_probability(plan.n, plan.c, p) for each p of ps, first given:
    _backend._binom_grid sums the points in (0, 1) after the first."""
    import numpy as np

    p = np.fromiter(ps, float, count=len(ps))
    inner = (p > 0.0) & (p < 1.0)
    inner[0] = False
    values = np.zeros(len(ps))
    values[inner] = _backend._binom_grid(k, n, p[inner])
    rest = (~inner).nonzero()[0].tolist()
    values[rest] = [first] + [accept_probability(plan.n, plan.c, ps[i]) for i in rest[1:]]
    return values.tolist()


def realized_errors(plan, p0, p1, mc=None):
    """Exact producer/consumer risks of a plan; optional MC cross-check.

    alpha_hat = P(reject | p0) and beta_hat = P(accept | p1) under the
    accept rule X <= c - 1.  Pass mc=(reps, seed) to attach Monte Carlo
    estimates.
    """
    a = 1.0 - accept_probability(plan.n, plan.c, p0)
    b = accept_probability(plan.n, plan.c, p1)
    mc_a = mc_b = None
    seed = None
    if mc is not None:
        reps, seed = mc
        rate0, hw0 = monte_carlo_accept(plan, p0, reps, seed)
        rate1, hw1 = monte_carlo_accept(plan, p1, reps, seed)
        mc_a = (1.0 - rate0, hw0)
        mc_b = (rate1, hw1)
    return ErrorEstimate(alpha_hat=a, beta_hat=b, mc_alpha=mc_a, mc_beta=mc_b,
                         seed=seed)


def _wilson_half_width(k, reps):
    """Half-width of the 99% Wilson interval; stays positive at rate 0 or 1."""
    z2 = _Z99 * _Z99
    phat = k / reps
    denom = 1.0 + z2 / reps
    half = (_Z99 / denom) * math.sqrt(phat * (1.0 - phat) / reps
                                      + z2 / (4.0 * reps * reps))
    return half


def monte_carlo_accept(plan, p_true, reps, seed):
    """Simulate reps lots of n Bernoulli(p_true) outcomes.

    Returns (acceptance rate, 99% CI half-width).  A lot is accepted when
    its failure count, drawn as one Binomial(n, p_true) variate, is at most
    c - 1.  Lot i is the i-th variate of the Philox stream keyed by the
    seed, so the output does not depend on blocking, the first k lots of a
    run are a k-lot run, and the same seed repeats exactly.  A seed is
    required: ``None`` would draw a fresh key on every call.  n, c and reps
    are whole numbers, integral floats such as 383.0 included.
    """
    if seed is None:
        raise DomainError("seed is required; None would not repeat")
    reps = _whole(reps, "reps")
    if reps < 100:
        raise DomainError("reps must be >= 100 for a usable estimate, got %r"
                          % (reps,))
    if not (0.0 <= p_true <= 1.0):
        raise DomainError("p_true must be in [0, 1], got %r" % (p_true,))
    n = _whole(plan.n, "trial count n")
    c = _whole(plan.c, "count c")
    if n < 1:
        raise DomainError("n must be >= 1, got %r" % (n,))
    if n > 2**63 - 1:  # numpy draws the count as an int64
        raise DomainError("n must be <= 2**63 - 1, got %r" % (n,))
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=seed))
    accepted = 0
    for done in range(0, reps, _BLOCK_LOTS):
        fails = gen.binomial(n, p_true, size=min(_BLOCK_LOTS, reps - done))
        accepted += int(np.count_nonzero(fails <= c - 1))
    rate = accepted / reps
    return rate, _wilson_half_width(accepted, reps)
