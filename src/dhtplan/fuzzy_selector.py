"""Mamdani fuzzy selector recommending a plan-computation method.

Four inputs (step, t_h, t_exec, prec_abs), one output, eight rules.
Conjunction is min, negation is 1 - degree, implication clips the
consequent, aggregation is max, and defuzzification takes the centroid of
the aggregate on a 1001-point grid over [0, 1].  The resulting score maps
to a method label through fixed output bands:

    (0.10, 0.15] Bin | (0.15, 0.32] Poiss | (0.32, 0.71] Norm_I | (0.71, 1.0] Norm_N

Membership breakpoints are configurable; the shipped defaults are a
documented reconstruction chosen to reproduce the intended band behavior,
not ground truth.
"""

import math
import operator
import warnings

from ._record import _Record
from .errors import DomainError, NoRecommendationError

GRID_POINTS = 1001

#: the defuzzification grid; element for element equal to numpy's
#: linspace(0, 1, GRID_POINTS)
_GRID = [i * (1.0 / (GRID_POINTS - 1)) for i in range(GRID_POINTS - 1)] + [1.0]

#: Universe of each input variable (values are clamped on ingestion).
UNIVERSES = {
    "step": (0.0, 0.2),
    "t_h": (0.0, 0.5),
    "t_exec": (0.0, 12.0),
    "prec_abs": (0.0, 1e-3),
}

DEFAULT_MEMBERSHIPS = {
    "step": {
        "I_zero": (0.0, 0.0, 0.005, 0.02),
        "Low": (0.005, 0.02, 0.05, 0.08),
        "High": (0.05, 0.10, 0.2, 0.2),
    },
    "t_h": {
        "L": (0.0, 0.0, 0.05, 0.15),
        "H": (0.10, 0.25, 0.5, 0.5),
    },
    "t_exec": {
        "L_tex": (0.0, 0.0, 0.5, 2.0),
        "M_tex": (0.5, 2.0, 4.0, 6.0),
        "H_tex": (4.0, 8.0, 12.0, 12.0),
    },
    "prec_abs": {
        "Low": (0.0, 0.0, 1e-5, 1e-4),
        "High": (5e-5, 3e-4, 1e-3, 1e-3),
    },
}

DEFAULT_OUTPUTS = {
    "Bin": (0.10, 0.12, 0.13, 0.15),
    "Poiss": (0.15, 0.20, 0.27, 0.32),
    "Norm_I": (0.32, 0.45, 0.60, 0.71),
    "Norm_N": (0.71, 0.85, 1.0, 1.0),
}

# (antecedents, consequent); antecedent = (variable, label, negated)
DEFAULT_RULES = (
    ((("step", "I_zero", False), ("t_exec", "M_tex", False)), "Bin"),
    ((("step", "I_zero", False), ("t_exec", "H_tex", False)), "Poiss"),
    ((("step", "Low", False), ("t_h", "L", False), ("t_exec", "M_tex", False)), "Norm_N"),
    ((("step", "Low", False), ("t_h", "L", False), ("t_exec", "L_tex", False)), "Norm_I"),
    ((("step", "High", False), ("t_h", "H", False), ("t_exec", "L_tex", False)), "Norm_N"),
    ((("step", "High", False), ("t_h", "H", False), ("t_exec", "M_tex", False)), "Bin"),
    ((("step", "High", False), ("t_h", "H", False), ("t_exec", "H_tex", False)), "Poiss"),
    ((("step", "I_zero", True), ("prec_abs", "Low", False)), "Norm_N"),
)

OUTPUT_BANDS = (
    (0.10, 0.15, "Bin"),
    (0.15, 0.32, "Poiss"),
    (0.32, 0.71, "Norm_I"),
    (0.71, 1.0, "Norm_N"),
)


class MembershipFunction(_Record):
    """Trapezoid on [a, d] with plateau [b, c]."""

    label: str
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise DomainError("trapezoid breakpoints must be ordered: %r" % (self,))


def membership_degree(value, mf):
    """Piecewise-linear trapezoid evaluation; 0 outside [a, d], 1 on [b, c]."""
    if value < mf.a or value > mf.d:
        return 0.0
    if mf.b <= value <= mf.c:
        return 1.0
    if value < mf.b:
        return (value - mf.a) / (mf.b - mf.a)
    return (mf.d - value) / (mf.d - mf.c)


class SelectorInput(_Record):
    """One query to the selector; a NaN field is rejected, and fields outside
    their universe are clamped."""

    step: float
    t_h: float
    t_exec: float
    prec_abs: float

    def __post_init__(self):
        for name in UNIVERSES:
            if math.isnan(getattr(self, name)):
                raise DomainError("%s must be a number, got nan" % name)

    def clamped(self):
        vals = {}
        for name in UNIVERSES:
            lo, hi = UNIVERSES[name]
            v = getattr(self, name)
            if v < lo or v > hi:
                warnings.warn("%s=%g outside universe [%g, %g]; clamped"
                              % (name, v, lo, hi), stacklevel=3)
                v = min(max(v, lo), hi)
            vals[name] = v
        return SelectorInput(**vals)


class FuzzyRuleBase:
    """Immutable rule base: input/output membership functions plus 8 rules."""

    def __init__(self, memberships=DEFAULT_MEMBERSHIPS, outputs=DEFAULT_OUTPUTS,
                 rules=DEFAULT_RULES):
        if len(rules) != 8:
            raise DomainError("rule base must hold exactly 8 rules, got %d" % len(rules))
        self._mfs = {
            var: {lab: MembershipFunction(lab, *pts) for lab, pts in labs.items()}
            for var, labs in memberships.items()
        }
        self._rules = tuple((tuple((v, l, bool(neg)) for v, l, neg in ants), out)
                            for ants, out in rules)
        self._out_mfs = {}
        for label, pts in outputs.items():
            mf = MembershipFunction(label, *pts)
            self._out_mfs[label] = [membership_degree(x, mf) for x in _GRID]
        for ants, out in self._rules:
            if out not in self._out_mfs:
                raise DomainError("rule consequent %r has no output set" % (out,))
            for var, lab, _ in ants:
                if var not in self._mfs or lab not in self._mfs[var]:
                    raise DomainError("rule references unknown set %s.%s" % (var, lab))
        self._memberships_src = memberships
        self._outputs_src = outputs

    def rule_strengths(self, inp):
        vals = {"step": inp.step, "t_h": inp.t_h,
                "t_exec": inp.t_exec, "prec_abs": inp.prec_abs}
        strengths = []
        for ants, _ in self._rules:
            s = 1.0
            for var, lab, neg in ants:
                mu = membership_degree(vals[var], self._mfs[var][lab])
                if neg:
                    mu = 1.0 - mu
                s = min(s, mu)
            strengths.append(s)
        return strengths

    def aggregate(self, strengths):
        """Max over the rules of each consequent clipped at its rule strength,
        as a list over the grid."""
        # rules sharing a consequent fold to one clip, exactly:
        # max(min(s1, m), min(s2, m)) == min(max(s1, s2), m)
        clips = {}
        for s, (_, out) in zip(strengths, self._rules):
            if s > 0.0:
                clips[out] = max(clips.get(out, 0.0), s)
        agg = [0.0] * GRID_POINTS
        for out, s in clips.items():
            clipped = [m if m < s else s for m in self._out_mfs[out]]
            agg = [a if a >= b else b for a, b in zip(agg, clipped)]
        return agg

    def centroid(self, agg):
        # trapezoid weights on the uniform grid, 0.5 at both ends; the spacing
        # cancels, and the grid runs from 0 to 1
        mass = 0.5 * agg[0] + sum(agg[1:-1]) + 0.5 * agg[-1]
        if mass == 0.0:
            raise NoRecommendationError("all rule strengths are zero")
        moment = sum(map(operator.mul, agg[1:-1], _GRID[1:-1])) + 0.5 * agg[-1]
        return moment / mass

    def to_config(self):
        return {"memberships": {v: {l: list(p) for l, p in labs.items()}
                                for v, labs in self._memberships_src.items()},
                "outputs": {l: list(p) for l, p in self._outputs_src.items()},
                "rules": [{"if": [[v, l, neg] for v, l, neg in ants], "then": out}
                          for ants, out in self._rules]}

    def save(self, path):
        import json
        with open(path, "w") as fh:
            json.dump(self.to_config(), fh, indent=2)

    @classmethod
    def load(cls, path):
        """Read a rule base written by save; a malformed one raises DomainError
        naming the key or field at fault."""
        import json
        with open(path) as fh:
            cfg = json.load(fh)
        memberships = {}
        for v, labs in _config_field(cfg, "the config", "memberships", dict).items():
            if not isinstance(labs, dict):
                raise DomainError("fuzzy config: memberships.%s must be an object" % v)
            memberships[v] = {l: _trapezoid(p, "memberships.%s.%s" % (v, l))
                              for l, p in labs.items()}
        outputs = {l: _trapezoid(p, "outputs.%s" % l)
                   for l, p in _config_field(cfg, "the config", "outputs", dict).items()}
        rules = []
        for i, rule in enumerate(_config_field(cfg, "the config", "rules", list), 1):
            where = "rule %d" % i
            ants = _config_field(rule, where, "if", list)
            out = _config_field(rule, where, "then", str)
            if not all(isinstance(a, list) and len(a) == 3 and isinstance(a[0], str)
                       and isinstance(a[1], str) and isinstance(a[2], bool) for a in ants):
                raise DomainError("fuzzy config: %s: each 'if' entry must be "
                                  "[variable, label, negated], two strings and a "
                                  "boolean" % where)
            rules.append((tuple(map(tuple, ants)), out))
        return cls(memberships=memberships, outputs=outputs, rules=tuple(rules))


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _config_field(obj, where, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError("fuzzy config: %s has no %r" % (where, key))
    value = obj[key]
    if not isinstance(value, kind):
        raise DomainError("fuzzy config: %r in %s must be %s" % (key, where, _KINDS[kind]))
    return value


def _trapezoid(points, where):
    if not (isinstance(points, list) and len(points) == 4
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in points)):
        import json
        raise DomainError("fuzzy config: trapezoid %s needs 4 numbers, got %s"
                          % (where, json.dumps(points)))
    return tuple(points)


def classify(score):
    """Map a defuzzified score to a method label; <= 0.1 is no recommendation."""
    if not (0.0 <= score <= 1.0):
        raise DomainError("score must lie in [0, 1]")
    for lo, hi, label in OUTPUT_BANDS:
        if lo < score <= hi:
            return label
    raise NoRecommendationError("score %g falls below every output band" % (score,))


def infer(inp, base=None):
    """Run the Mamdani pipeline.

    Returns (score, label, rule_firings) where rule_firings is a list of
    (1-based rule index, strength).
    """
    if base is None:
        base = FuzzyRuleBase()
    inp = inp.clamped()
    strengths = base.rule_strengths(inp)
    agg = base.aggregate(strengths)
    score = base.centroid(agg)
    label = classify(score)
    return score, label, [(i + 1, s) for i, s in enumerate(strengths)]


def response_surface(base, axis1, axis2, fixed, grid=51):
    """Score matrix over a grid of two inputs with the others held fixed.

    Returns numpy arrays (xs, ys, scores); a cell with no rule firing scores
    nan.
    """
    import numpy as np

    if grid < 2:
        raise DomainError("grid must be >= 2")
    for ax in (axis1, axis2):
        if ax not in UNIVERSES:
            raise DomainError("unknown input axis %r" % (ax,))
    if axis1 == axis2:
        raise DomainError("surface axes must differ")
    lo1, hi1 = UNIVERSES[axis1]
    lo2, hi2 = UNIVERSES[axis2]
    xs = np.linspace(lo1, hi1, grid)
    ys = np.linspace(lo2, hi2, grid)
    out = np.empty((grid, grid))
    # the axes run inside their universes, so only the fixed inputs can clamp
    q = dict(vars(fixed.clamped()))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            q[axis1] = float(x)
            q[axis2] = float(y)
            strengths = base.rule_strengths(SelectorInput(**q))
            agg = base.aggregate(strengths)
            try:
                out[i, j] = base.centroid(agg)
            except NoRecommendationError:
                out[i, j] = float("nan")
    return xs, ys, out
