"""Double-hypothesis-test acceptance sampling for Bernoulli event streams.

Computes sampling plans that control producer and consumer risk
simultaneously, runs sequential multi-level lot inspection with
successive-failures early rejection, recommends a plan-computation method
via Mamdani fuzzy inference, and verifies every plan's realized error rates
exactly and by simulation.
"""

from .errors import (DegenerateSpecError, DhtError, DomainError, LadderError,
                     NoConvergenceError, NoRecommendationError, SolverError,
                     StateError)
from .fuzzy_selector import (FuzzyRuleBase, MembershipFunction, SelectorInput,
                             classify, infer, membership_degree, response_surface)
from .inspection_engine import (InspectionState, LevelLadder, build_ladder,
                                observe, replay, run_stream)
from .plan_solvers import (Applicability, SamplingPlan, TestSpec, closed_form_norm,
                           solve, solve_bin, solve_norm_iterative,
                           solve_norm_newton, solve_poiss)
from .run_limits import SflQuery, mean_recurrence, sfl_r
from .stat_kernels import TailMass, binom_cdf, normal_cdf, poisson_cdf, z_value
from .verification import (ErrorEstimate, OcCurve, accept_probability,
                           monte_carlo_accept, oc_curve, realized_errors)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DhtError", "DomainError", "DegenerateSpecError", "NoConvergenceError",
    "SolverError", "StateError", "LadderError", "NoRecommendationError",
    "TailMass", "binom_cdf", "poisson_cdf", "normal_cdf", "z_value",
    "TestSpec", "SamplingPlan", "Applicability",
    "closed_form_norm", "solve", "solve_bin", "solve_poiss",
    "solve_norm_newton", "solve_norm_iterative",
    "SflQuery", "sfl_r", "mean_recurrence",
    "MembershipFunction", "FuzzyRuleBase", "SelectorInput",
    "membership_degree", "infer", "classify", "response_surface",
    "LevelLadder", "InspectionState",
    "build_ladder", "observe", "run_stream", "replay",
    "OcCurve", "ErrorEstimate", "accept_probability", "oc_curve",
    "realized_errors", "monte_carlo_accept",
]
