"""The four plan-computation algorithms, behind one entry point, solve.

Each solver maps a TestSpec (the rate pair plus tolerances) to a
SamplingPlan (trials n, acceptance number c, threshold t_h).  The accept
rule throughout the package is: accept when failures <= c - 1 at n trials,
reject when failures reach c.

Method notes
------------
``bin`` / ``poiss``
    Scan n upward.  At each n the producer distribution contributes the
    first count beyond its upper (1 - alpha/2) limit and the consumer
    distribution the first count beyond its lower (beta/2) limit; the scan
    stops when the two meet.  Each one-sided significance mass is half the
    spec tail, mirroring the two-sided limits the discrete procedures are
    built from.  With p0 = 0 the producer side is degenerate, so the
    threshold is placed midway between zero and the consumer median and n
    is the smallest size whose acceptance number keeps the realized
    consumer risk within the full beta tail (no producer risk to split
    against).  Both scans are certified incremental, by one walker for
    both methods: a walker per quantile carries the CDF and the pmf at its
    count from one n to a later one by one convolution with the increment
    over those trials, with a bound on their rounding error, and leaves
    any comparison that falls inside that bound to the exact kernel.  A count changes only
    about once every 1/p trials, and the consumer walker bounds how far its
    CDF can fall from the pmf at its count, so a scan jumps straight to the
    next n at which that count or the eps test could change.  The producer
    count never falls, so the scan keeps a stale one while it rules a stop
    out and its walker certifies it as a lower bound with no cap error
    possible, and asks that walker again only where a stop could follow.
    The plans and errors are therefore those of the exact quantiles
    recomputed at every n, at a cost per change of a limit count rather
    than per n.  Both refuse a beta whose half lies below _MIN_HALF_TAIL,
    where the walker's error bound would be lost, and an alpha at which the
    producer target 1 - alpha/2 rounds to 1.0.  ``poiss`` is intended
    for p < 0.1; outside that regime the plan is still returned with its
    p_lt_0_1 flag cleared (a warning, not an error).

``norm_n``
    Generalized Newton-Raphson on the two-equation system equating the
    producer upper and consumer lower normal limits; unknowns are the
    threshold x1 and the real-valued trial count x2.

``norm_i``
    The unit-step method: the first n at which the same two limits,
    evaluated directly, agree to within eps.  Their computed gap never rises
    with n, so that n is found by bisection on n, with the result of the
    scan over every n.
"""

import math

from . import _backend
from ._record import _Record
from .errors import DegenerateSpecError, DomainError, NoConvergenceError, SolverError
from .stat_kernels import TailMass, _whole, z_value

#: Default convergence tolerances per method.
EPS_BIN = 0.0019
EPS_POISS = 0.001
EPS_NORM_I = 1e-4

#: Newton stopping controls.
NEWTON_MAXIT = 10000
NEWTON_STEP_TOL = 1e-9
NEWTON_RESIDUAL_TOL = 1e-8

_DEFAULT_EPS = {"Bin": EPS_BIN, "Poiss": EPS_POISS, "Norm_I": EPS_NORM_I}

#: Smallest half tail, alpha/2 or beta/2, that Bin and Poiss plan for.  In
#: the lower tail the pmf rises up to the mode, so pmf(k) >= CDF(k) / (k + 1).
#: The consumer count's CDF exceeds beta/2, so its pmf stays above the
#: walker's floor _backend._MIN_PMF = 2**-960, below which its error bound
#: is lost and every answer falls to the exact kernel, while
#: (beta/2) / (cap + 1) >= 2**-960.  Counts stay below 2**53, so a half
#: tail of at least 2**-900 meets that with a factor 2**7 to spare.
_MIN_HALF_TAIL = 2.0 ** -900

METHODS = ("Bin", "Poiss", "Norm_N", "Norm_I")


def _round_half_up(x):
    return int(math.floor(x + 0.5))


class TestSpec(_Record):
    """One double-hypothesis-test instance: rates, tails, tolerances."""

    __test__ = False  # not a pytest class despite the name

    p0: float
    p1: float
    alpha_tail: float = 0.05
    beta_tail: float = 0.05
    epsilon: float | None = None
    max_n: int = 200_000
    paper_compat_z: bool = True

    def __post_init__(self):
        for name, rate in (("p0", self.p0), ("p1", self.p1)):
            if not math.isfinite(rate):
                raise DomainError("%s must be a finite rate, got %r" % (name, rate))
        if not (0.0 <= self.p0 < 0.5) or not (0.0 < self.p1 < 0.5):
            raise DomainError("rates must satisfy 0 <= p0 < 0.5 and 0 < p1 < 0.5")
        if self.p0 >= self.p1:
            raise DegenerateSpecError(
                "p0 must be strictly below p1, got p0=%g p1=%g" % (self.p0, self.p1))
        TailMass(self.alpha_tail)
        TailMass(self.beta_tail)
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise DomainError("epsilon must be finite and positive, got %r"
                              % (self.epsilon,))
        if type(self.max_n) is not int:
            # frozen: an integral float such as 1e5 is stored as its int
            object.__setattr__(self, "max_n", _whole(self.max_n, "max_n"))
        if self.max_n < 2:
            raise DomainError("max_n must be >= 2")

    def eps_for(self, method):
        if self.epsilon is not None:
            return self.epsilon
        return _DEFAULT_EPS[method]

    def z_pair(self):
        """(z for the producer tail, z for the consumer tail)."""
        return (z_value(self.alpha_tail, self.paper_compat_z),
                z_value(self.beta_tail, self.paper_compat_z))


class Applicability(_Record):
    """Rule-of-thumb validity flags evaluated on the final plan."""

    np0_gt5: bool
    nq0_gt5: bool
    p_lt_0_1: bool


class SamplingPlan(_Record):
    """Solver output: test n units, reject on the c-th failure."""

    n: int
    c: int
    t_h: float
    np0: float
    method: str
    iterations: int
    converged: bool
    applicability: Applicability
    n_real: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError("unknown method %r" % (self.method,))


def _applicability(n, p0, p1):
    return Applicability(np0_gt5=n * p0 > 5.0,
                         nq0_gt5=n * (1.0 - p0) > 5.0,
                         p_lt_0_1=p1 < 0.1)


def _closed_form_norm(spec):
    """Exact real-valued solution of the two-limit normal system.

    Eliminating the threshold gives
        sqrt(n) = (z0 s0 + z1 s1) / (p1 - p0),   s_i = sqrt(p_i (1 - p_i))
        t_h     = p0 + z0 s0 / sqrt(n)
    and serves as the independent oracle for both normal solvers.
    """
    z0, z1 = spec.z_pair()
    s0 = math.sqrt(spec.p0 * (1.0 - spec.p0))
    s1 = math.sqrt(spec.p1 * (1.0 - spec.p1))
    rn = (z0 * s0 + z1 * s1) / (spec.p1 - spec.p0)
    if rn <= 0.0:
        raise SolverError("normal system has no positive solution")
    n_real = rn * rn
    if not math.isfinite(n_real):
        raise SolverError("normal system's trial count lies beyond the float range")
    t_h = spec.p0 + z0 * s0 / rn
    return n_real, t_h


def _solve_norm_newton(spec):
    """Newton-Raphson on the paired normal limits (method Norm_N).

    Stops on any of: maxit iterations, step norm < 1e-9, residual norm
    < 1e-8.  c is the smallest integer above x1*x2.  Non-convergence and
    np0 <= 5 are flagged on the plan, never silent.
    """
    z0, z1 = spec.z_pair()
    s0 = math.sqrt(spec.p0 * (1.0 - spec.p0))
    s1 = math.sqrt(spec.p1 * (1.0 - spec.p1))
    # start at the midpoint threshold and the closed-form trial count
    n_real, _ = _closed_form_norm(spec)
    x1, x2 = (spec.p0 + spec.p1) / 2.0, math.ceil(n_real)
    converged = False
    iterations = 0
    for iterations in range(1, NEWTON_MAXIT + 1):
        rx2 = math.sqrt(x2)
        f1 = x1 - spec.p0 - z0 * s0 / rx2
        f2 = x1 - spec.p1 + z1 * s1 / rx2
        resid = math.hypot(f1, f2)
        if resid < NEWTON_RESIDUAL_TOL:
            converged = True
            break
        # J = [[1, j12], [1, j22]] with the x2-derivatives of the limits
        x2_32 = x2 * rx2
        j12 = z0 * s0 / (2.0 * x2_32)
        j22 = -z1 * s1 / (2.0 * x2_32)
        det = j22 - j12
        if det == 0.0 or not math.isfinite(det):
            raise SolverError("singular Jacobian at x2=%g" % (x2,))
        dx1 = (-f1 * j22 + f2 * j12) / det
        dx2 = (f1 - f2) / det
        x1 += dx1
        x2 += dx2
        if x2 <= 0.0:
            raise SolverError("Newton iterate left the positive domain")
        if math.hypot(dx1, dx2) < NEWTON_STEP_TOL:
            converged = True
            break

    n = _round_half_up(x2)
    c = math.ceil(x1 * x2)
    return SamplingPlan(n=n, c=c, t_h=x1, np0=n * spec.p0, method="Norm_N",
                        iterations=iterations, converged=converged,
                        applicability=_applicability(n, spec.p0, spec.p1),
                        n_real=x2)


def _solve_norm_iterative(spec):
    """Unit-step normal method (Norm_I).

    Raises NoConvergenceError when no integer n brings the two limits
    within epsilon; the error carries the best gap achieved.  The computed
    gap never rises with n, so the scan ends as soon as it passes -epsilon
    instead of running to max_n, and the first n that ends it is found by
    bisection.  iterations is n, the unit steps the method counts.
    """
    z0, z1 = spec.z_pair()
    eps = spec.eps_for("Norm_I")
    status, n, upper, lower, best = _backend.norm_iter_scan(
        spec.p0, spec.p1, z0, z1, eps, spec.max_n)
    if status != 0:
        reason = ("gap fell below -epsilon at n=%d; no larger n can satisfy "
                  "the tolerance" % n) if status == 1 else "max_n reached"
        raise NoConvergenceError(
            "norm_i did not converge for (%g, %g) at eps=%g: %s"
            % (spec.p0, spec.p1, eps, reason),
            best_gap=best, iterations=n)
    t_h = (upper + lower) / 2.0
    c = _round_half_up(n * t_h)
    return SamplingPlan(n=n, c=c, t_h=t_h, np0=n * spec.p0, method="Norm_I",
                        iterations=n, converged=True,
                        applicability=_applicability(n, spec.p0, spec.p1))


def _solve_discrete(spec, method):
    # at alpha <= 2**-53 the producer target 1 - alpha/2 rounds to 1.0, and a
    # plan would not depend on alpha; with p0 = 0 the scan reads no alpha
    if spec.p0 > 0.0 and 1.0 - spec.alpha_tail / 2.0 == 1.0:
        raise DomainError("%s needs alpha > 2**-53 (about 1.1e-16), got %r"
                          % (method, spec.alpha_tail))
    if spec.beta_tail / 2.0 < _MIN_HALF_TAIL:
        raise DomainError("%s needs beta >= 2**-899 (about %.2g), got %r"
                          % (method, 2.0 * _MIN_HALF_TAIL, spec.beta_tail))
    use_poisson = method == "Poiss"
    eps = spec.eps_for(method)
    if spec.p0 == 0.0:
        ok, n, m, c = _backend.zero_scan(use_poisson, spec.p1,
                                         spec.beta_tail, spec.max_n)
        if not ok:
            raise NoConvergenceError(
                "%s scan reached max_n=%d for (0, %g)" % (method, spec.max_n, spec.p1),
                iterations=n)
        t_h = m / (2.0 * n)
    else:
        ok, n, first_beyond_upper, first_beyond_lower = _backend.discrete_scan(
            use_poisson, spec.p0, spec.p1, spec.alpha_tail / 2.0,
            spec.beta_tail / 2.0, eps, spec.max_n)
        if not ok:
            raise NoConvergenceError(
                "%s scan reached max_n=%d for (%g, %g) at eps=%g"
                % (method, spec.max_n, spec.p0, spec.p1, eps),
                iterations=n)
        t_h = (first_beyond_upper + first_beyond_lower) / (2.0 * n)
        c = _round_half_up((first_beyond_upper + first_beyond_lower) / 2.0)
    return SamplingPlan(n=n, c=c, t_h=t_h, np0=n * spec.p0, method=method,
                        iterations=n, converged=True,
                        applicability=_applicability(n, spec.p0, spec.p1))


_NORMAL_SOLVERS = {"Norm_N": _solve_norm_newton, "Norm_I": _solve_norm_iterative}


def solve(spec, method):
    """Plan for spec by one of the four methods, named by its label."""
    if method in ("Bin", "Poiss"):
        return _solve_discrete(spec, method)
    try:
        fn = _NORMAL_SOLVERS[method]
    except KeyError:
        raise DomainError("unknown method %r; expected one of %s"
                          % (method, ", ".join(METHODS))) from None
    return fn(spec)
