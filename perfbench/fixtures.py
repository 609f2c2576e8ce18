"""Inputs every workload shares: specs, the table ladder, plans, rule base.

``build`` is what ``setup_s`` times in a fresh interpreter, right after
``import dhtplan``.  It uses only the package's public names.
"""

from dataclasses import dataclass

#: plan-discrete rate pairs; Bin and Poiss each solve all six.  The close
#: pairs 1.5%/2% and 5%/6% take 4 s and 39 s per solve at the seed commit,
#: so (0.02, 0.03) at about 1 s stands in for that regime.
DISCRETE_PAIRS = ((0.0, 0.02), (0.0, 0.0005), (0.02, 0.05), (0.05, 0.10),
                  (0.10, 0.15), (0.02, 0.03))
DISCRETE_METHODS = ("Bin", "Poiss")

#: The paper's table ladder: levels 0 to 0.08 in steps of 0.01, Bin for
#: the first pair and Norm_I after it.
TABLE_LEVELS = tuple(round(0.01 * i, 12) for i in range(9))

#: The twelve plans of acceptance criterion 9: (method, p0, p1, epsilon).
VERIFY_SPECS = (
    ("Norm_N", 0.015, 0.02, None), ("Norm_N", 0.02, 0.05, None),
    ("Norm_N", 0.05, 0.10, None),
    ("Norm_I", 0.02, 0.05, 1e-4), ("Norm_I", 0.05, 0.10, 1e-4),
    ("Norm_I", 0.01, 0.02, 1e-6),
    ("Bin", 0.0, 0.02, None), ("Bin", 0.02, 0.05, None), ("Bin", 0.05, 0.10, None),
    ("Poiss", 0.0, 0.02, None), ("Poiss", 0.02, 0.05, None), ("Poiss", 0.05, 0.10, None),
)


@dataclass(frozen=True)
class Fixtures:
    specs: tuple          # ((method, p0, p1, TestSpec), ...) for plan-discrete
    ladder: object        # LevelLadder over TABLE_LEVELS
    plans: tuple          # ((plan, p0, p1), ...) for VERIFY_SPECS
    rule_base: object     # default FuzzyRuleBase


def build(dhtplan):
    specs = tuple((m, p0, p1, dhtplan.TestSpec(p0, p1))
                  for m in DISCRETE_METHODS for p0, p1 in DISCRETE_PAIRS)
    ladder = dhtplan.build_ladder(TABLE_LEVELS)
    plans = tuple((dhtplan.solve(dhtplan.TestSpec(p0, p1, epsilon=eps), m), p0, p1)
                  for m, p0, p1, eps in VERIFY_SPECS)
    return Fixtures(specs=specs, ladder=ladder, plans=plans,
                    rule_base=dhtplan.FuzzyRuleBase())
