"""Exact and Monte Carlo validation of sampling plans.

The exact side evaluates binomial tails directly.  An OC curve takes, for
each point in (0, 1) after the first, the leading term binom_cdf would sum
from, q**n or below the normal range q**n scaled by 2**-e, drops the points
that binom_cdf's own Chernoff cut sets to 0.0, and sums the rest in one
run of the kernel's term loop, _term_sum, over numpy arrays.  Each element
equals its scalar binom_cdf bit for bit; a scaled one shrinks on the rounds
its own total passes 2**512, as the scalar does.  The first point (which
checks n and c), p = 0 or 1 and bad points take scalar calls, and so does
every point of a grid shorter than _ARRAY_POINTS.  The Monte Carlo side
draws each lot's failure count as one Binomial(n, p) variate from a
counter-based generator (Philox), so lot i is the i-th variate of the
seed's stream and the result is bit-identical however the lots are
blocked.  The count is sampled by numpy's BTPE/inversion algorithm, not
from the exact CDF, so the check is independent of it.  numpy is imported
only by a simulation or an OC curve on a grid of _ARRAY_POINTS points or
more; accept_probability, and so the CLI's oc, does without it.
"""

import math
from itertools import repeat
from math import ldexp, log

from ._backend import _CUT_RANGE, _NORMAL, _binom_vanishes, _scaled_lead, _term_sum
from ._record import _Record
from .errors import DomainError
from .stat_kernels import _whole, binom_cdf

#: z for the reported 99% confidence half-width.
_Z99 = 2.5758293035489004

#: lots drawn per block (bounds peak memory, never the result)
_BLOCK_LOTS = 65_536

#: Fewest grid points, and leads to sum, for one numpy array run.  A run
#: costs c - 1 rounds of about six numpy calls however few points it holds.
#: On the 12 criterion-9 plans, with every point of a grid on [0, 0.1]
#: summed, the array path took 0.9-1.5x the time of the per-point loop at
#: 16 points, 0.7-1.3x at 24 and 0.6-0.9x at 32 (2-vCPU host, numpy 2.4.6).
_ARRAY_POINTS = 32


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
    same point.  A grid of fewer than _ARRAY_POINTS points is that loop,
    without numpy.  On a longer one the first point's call checks n and c,
    p = 0 or 1 and bad points keep the call, and _grid_values sums the rest.
    """
    if not plan.converged:
        raise DomainError("OC curve requires a converged plan")
    ps = []
    try:
        ps.extend(map(float, grid))
        fault = None
    except Exception as exc:  # raised once the points before it are checked
        fault = exc
    if fault is None and len(ps) >= _ARRAY_POINTS:
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
    """accept_probability(plan.n, plan.c, p) for each p of ps, first given.

    Each p in (0, 1) after the first starts from binom_cdf's own lead:
    q**n by Python's pow or, below the normal range, _scaled_lead(n log q)
    with its log and exp per point in Python.  Where binom_cdf's Chernoff
    cut, _binom_vanishes over the arrays, shows that the sum rounds to 0.0
    the value is 0.0 and there is no lead to sum.  With _ARRAY_POINTS or
    more leads, one run of _term_sum sums them all over numpy arrays; with
    fewer, each takes its scalar run.  numpy computes the cut's logs, which
    its margin lets be a few ulps off, and otherwise only IEEE operations
    (q = 1 - p, p / q, the term loop, the clip) and the exact ldexp.
    """
    import numpy as np

    p = np.array(ps)
    inner = (p > 0.0) & (p < 1.0)
    inner[0] = False
    rows = np.flatnonzero(inner)
    p = p[rows]
    q = 1.0 - p
    ratio = p / q
    fn = float(n)
    leads = np.array(list(map(pow, q.tolist(), repeat(fn))))
    e = np.zeros(leads.size, dtype=np.int64)
    low = np.flatnonzero(leads < _NORMAL)
    if low.size:
        pl, ql = p[low], q[low]
        x = fn * np.array(list(map(log, ql.tolist())))
        zero = (k > 0) & (k < fn * pl) & (x > -_CUT_RANGE)
        if zero.any():
            zero &= _binom_vanishes(k, fn, pl, ql, np.log)
        leads[low[zero]] = 0.0
        if not zero.all():
            leads[low[~zero]], e[low[~zero]] = zip(*map(_scaled_lead, x[~zero].tolist()))
    live = np.flatnonzero(leads)
    leads, e, ratio = leads[live], e[live], ratio[live]
    values = np.zeros(len(ps))
    if live.size >= _ARRAY_POINTS:
        total, e, _ = _term_sum(leads, e if e.any() else 0, k, fn, 1.0, ratio)
        values[rows[live]] = np.minimum(np.ldexp(total, e), 1.0)
    else:
        values[rows[live]] = [min(ldexp(*_term_sum(t, ej, k, fn, 1.0, r)[:2]), 1.0)
                              for t, ej, r in zip(leads.tolist(), e.tolist(), ratio.tolist())]
    rest = np.flatnonzero(~inner).tolist()
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
