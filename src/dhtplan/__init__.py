"""Double-hypothesis-test acceptance sampling for Bernoulli event streams.

Computes sampling plans that control producer and consumer risk
simultaneously, runs sequential multi-level lot inspection with
successive-failures early rejection, recommends a plan-computation method
via Mamdani fuzzy inference, and verifies every plan's realized error rates
exactly and by simulation.

``import dhtplan`` loads no submodule: each exported name imports its home
module the first time it is asked for (PEP 562), so a caller pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Every public name and the submodule that defines it.
_EXPORTS = {
    "DhtError": "errors", "DomainError": "errors",
    "DegenerateSpecError": "errors", "NoConvergenceError": "errors",
    "SolverError": "errors", "StateError": "errors", "LadderError": "errors",
    "NoRecommendationError": "errors",
    "TailMass": "stat_kernels", "binom_cdf": "stat_kernels",
    "poisson_cdf": "stat_kernels", "z_value": "stat_kernels",
    "TestSpec": "plan_solvers", "SamplingPlan": "plan_solvers",
    "Applicability": "plan_solvers", "solve": "plan_solvers",
    "SflQuery": "run_limits", "sfl_r": "run_limits",
    "mean_recurrence": "run_limits",
    "MembershipFunction": "fuzzy_selector", "FuzzyRuleBase": "fuzzy_selector",
    "SelectorInput": "fuzzy_selector", "infer": "fuzzy_selector",
    "response_surface": "fuzzy_selector",
    "LevelLadder": "inspection_engine", "InspectionState": "inspection_engine",
    "build_ladder": "inspection_engine", "observe": "inspection_engine",
    "run_stream": "inspection_engine", "replay": "inspection_engine",
    "OcCurve": "verification", "ErrorEstimate": "verification",
    "accept_probability": "verification", "oc_curve": "verification",
    "realized_errors": "verification", "monte_carlo_accept": "verification",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + home, __name__)
    # bind all of the module's names at once, so each is the object the
    # module held when first loaded, as an eager import would have bound it
    g = globals()
    for export, where in _EXPORTS.items():
        if where == home:
            g[export] = getattr(module, export)
    return g[name]


def __dir__():
    return sorted({*globals(), *__all__})
