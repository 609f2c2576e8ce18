"""Fuzzy selector tests.

Frozen scores were hand-derived by walking the Mamdani pipeline on the
shipped default membership config (single-rule cases reduce to trapezoid
centroids, which are checked analytically here).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (DomainError, FuzzyRuleBase, MembershipFunction,
                     NoRecommendationError, SelectorInput, classify, infer,
                     membership_degree, response_surface)
from dhtplan.fuzzy_selector import DEFAULT_OUTPUTS, UNIVERSES


def trapezoid_centroid(a, b, c, d):
    # independent moment integration on a fine grid
    xs = np.linspace(0, 1, 40001)
    mf = MembershipFunction("t", a, b, c, d)
    mu = np.array([membership_degree(x, mf) for x in xs])
    return float(np.trapezoid(mu * xs, xs) / np.trapezoid(mu, xs))


class TestMembership:
    def test_plateau_start(self):
        mf = MembershipFunction("m", 0.0, 0.2, 0.6, 1.0)
        assert membership_degree(0.2, mf) == 1.0

    def test_outside_support(self):
        mf = MembershipFunction("m", 0.1, 0.2, 0.6, 1.0)
        assert membership_degree(0.05, mf) == 0.0

    def test_ramp_midpoint(self):
        mf = MembershipFunction("m", 0.0, 0.2, 0.6, 1.0)
        assert membership_degree(0.1, mf) == pytest.approx(0.5)

    def test_breakpoint_order_enforced(self):
        with pytest.raises(DomainError):
            MembershipFunction("bad", 0.5, 0.2, 0.6, 1.0)


class TestInfer:
    def test_rule_one_dominant_bin(self):
        score, label, firings = infer(SelectorInput(0.001, 0.05, 3.0, 5e-4))
        assert label == "Bin"
        assert dict(firings)[1] == 1.0
        assert sum(s for _, s in firings) == 1.0
        # single clipped set: the score is the Bin trapezoid centroid
        assert score == pytest.approx(trapezoid_centroid(*DEFAULT_OUTPUTS["Bin"]),
                                      abs=1e-3)
        assert score == pytest.approx(0.125, abs=1e-6)

    def test_rule_four_dominant_norm_i(self):
        score, label, firings = infer(SelectorInput(0.03, 0.05, 0.2, 5e-4))
        assert label == "Norm_I"
        assert dict(firings)[4] == 1.0
        assert score == pytest.approx(0.519259, abs=1e-4)

    def test_rule_eight_regime_high_score(self):
        score, label, firings = infer(SelectorInput(0.03, 0.05, 3.0, 1e-6))
        assert label == "Norm_N"
        assert score > 0.8
        assert dict(firings)[8] == 1.0

    def test_mixed_firing_regression(self):
        score, label, _ = infer(SelectorInput(0.03, 0.05, 1.0, 1e-6))
        assert score == pytest.approx(0.707922, abs=1e-4)
        assert label == "Norm_I"

    def test_all_rules_silent(self):
        with pytest.raises(NoRecommendationError):
            infer(SelectorInput(0.001, 0.05, 0.2, 5e-4))

    def test_out_of_universe_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            score, label, _ = infer(SelectorInput(0.001, 0.05, 20.0, 5e-4))
        ref, _, _ = infer(SelectorInput(0.001, 0.05, 12.0, 5e-4))
        assert score == pytest.approx(ref, abs=1e-12)
        assert label == "Poiss"

    @given(st.floats(0, 0.2), st.floats(0, 0.5), st.floats(0, 12),
           st.floats(0, 1e-3))
    @settings(max_examples=120, deadline=None)
    def test_score_bounds_and_consistency(self, step, t_h, t_exec, prec):
        try:
            score, label, _ = infer(SelectorInput(step, t_h, t_exec, prec))
        except NoRecommendationError:
            return
        assert 0.0 <= score <= 1.0
        assert classify(score) == label

    def test_rule8_dominance_monotone(self):
        base = FuzzyRuleBase()
        for step, t_h, t_exec in [(0.03, 0.05, 3.0), (0.12, 0.05, 9.0),
                                  (0.03, 0.05, 1.0)]:
            last_strength = -1.0
            reached = False
            for prec in [8e-4, 4e-4, 2e-4, 1e-4, 5e-5, 1e-5, 1e-6, 0.0]:
                strengths = base.rule_strengths(
                    SelectorInput(step, t_h, t_exec, prec))
                assert strengths[7] >= last_strength - 1e-12
                last_strength = strengths[7]
                try:
                    _, label, _ = infer(SelectorInput(step, t_h, t_exec, prec), base)
                except NoRecommendationError:
                    continue
                if reached:
                    assert label == "Norm_N"
                reached = reached or label == "Norm_N"


def numpy_scorer(base):
    """The numpy aggregate (max of clipped output sets) and trapezoid-rule
    centroid on linspace(0, 1, 1001), kept as the oracle for the list code:
    a function from rule strengths to the score."""
    grid = np.linspace(0.0, 1.0, 1001)
    cfg = base.to_config()
    out_mfs = {label: np.array([membership_degree(x, MembershipFunction(label, *pts))
                                for x in grid])
               for label, pts in cfg["outputs"].items()}
    consequents = [rule["then"] for rule in cfg["rules"]]
    w = np.ones_like(grid)
    w[0] = w[-1] = 0.5

    def score(strengths):
        agg = np.zeros_like(grid)
        for s, out in zip(strengths, consequents):
            if s > 0.0:
                np.maximum(agg, np.minimum(s, out_mfs[out]), out=agg)
        mass = float(np.sum(w * agg))
        if mass == 0.0:
            raise NoRecommendationError("all rule strengths are zero")
        return float(np.sum(w * agg * grid) / mass)
    return score


#: output sets that overlap their neighbours, so that several consequents
#: share grid points
OVERLAPPING_OUTPUTS = {
    "Bin": (0.0, 0.15, 0.3, 0.5),
    "Poiss": (0.2, 0.35, 0.45, 0.7),
    "Norm_I": (0.4, 0.55, 0.6, 0.9),
    "Norm_N": (0.5, 0.8, 1.0, 1.0),
}


class TestAggregateAgainstNumpy:
    @pytest.mark.parametrize("outputs", [DEFAULT_OUTPUTS, OVERLAPPING_OUTPUTS],
                             ids=["default", "overlapping"])
    def test_scores_match_numpy_oracle(self, outputs):
        base = FuzzyRuleBase(outputs=outputs)
        numpy_score = numpy_scorer(base)
        rng = np.random.Generator(np.random.Philox(key=2024))
        raised = 0
        for i in range(1500):
            if i % 2:
                strengths = base.rule_strengths(SelectorInput(
                    *(rng.uniform(lo, hi) for lo, hi in UNIVERSES.values())))
            else:
                # each rule silent half the time, and at a strength tied with
                # other rules a quarter of the time
                strengths = [float(rng.choice([0.0, 0.0, 0.5, rng.uniform()]))
                             for _ in range(8)]
            try:
                ref = numpy_score(strengths)
            except NoRecommendationError:
                raised += 1
                with pytest.raises(NoRecommendationError):
                    base.centroid(base.aggregate(strengths))
                continue
            assert base.centroid(base.aggregate(strengths)) == pytest.approx(ref, abs=1e-12)
        assert 0 < raised < 1500


class TestClassify:
    @pytest.mark.parametrize("score,label", [
        (0.12, "Bin"), (0.2, "Poiss"), (0.5, "Norm_I"), (0.85, "Norm_N"),
        (0.15, "Bin"), (0.32, "Poiss"), (0.71, "Norm_I"), (1.0, "Norm_N"),
    ])
    def test_bands(self, score, label):
        assert classify(score) == label

    def test_below_first_band(self):
        with pytest.raises(NoRecommendationError):
            classify(0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            classify(1.5)


class TestConfig:
    def test_roundtrip_scores_identical(self, tmp_path):
        base = FuzzyRuleBase()
        path = tmp_path / "fuzzy.json"
        base.save(path)
        loaded = FuzzyRuleBase.load(path)
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(100):
            inp = SelectorInput(*(rng.uniform(lo, hi)
                                  for lo, hi in UNIVERSES.values()))
            try:
                s1, l1, f1 = infer(inp, base)
            except NoRecommendationError:
                with pytest.raises(NoRecommendationError):
                    infer(inp, loaded)
                continue
            s2, l2, f2 = infer(inp, loaded)
            assert s1 == s2
            assert l1 == l2
            assert f1 == f2

    @pytest.mark.parametrize("field,value", [(2, "false"), (2, 0), (0, 1), (1, ["S"])])
    def test_antecedent_types_refused(self, tmp_path, field, value):
        # a negation flag must be a JSON boolean, a variable and a label strings
        cfg = FuzzyRuleBase().to_config()
        cfg["rules"][7]["if"][0][field] = value
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(DomainError, match="rule 8: .* two strings and a boolean"):
            FuzzyRuleBase.load(path)

    def test_exactly_eight_rules_required(self):
        one_rule = (((("step", "I_zero", False),), "Bin"),)
        with pytest.raises(DomainError):
            FuzzyRuleBase(rules=one_rule)


class TestResponseSurface:
    def test_corner_scores_in_range(self):
        base = FuzzyRuleBase()
        fixed = SelectorInput(0.03, 0.05, 3.0, 5e-4)
        _, _, grid = response_surface(base, "step", "t_exec", fixed, grid=2)
        finite = grid[np.isfinite(grid)]
        assert ((finite >= 0) & (finite <= 1)).all()

    def test_constant_rule_base_constant_surface(self):
        full = {
            "step": {"Any": (0.0, 0.0, 0.2, 0.2)},
            "t_h": {"Any": (0.0, 0.0, 0.5, 0.5)},
            "t_exec": {"Any": (0.0, 0.0, 12.0, 12.0)},
            "prec_abs": {"Any": (0.0, 0.0, 1e-3, 1e-3)},
        }
        rules = tuple(((("step", "Any", False),), "Norm_I") for _ in range(8))
        base = FuzzyRuleBase(memberships=full, rules=rules)
        fixed = SelectorInput(0.1, 0.2, 6.0, 5e-4)
        _, _, grid = response_surface(base, "step", "t_h", fixed, grid=5)
        assert np.allclose(grid, grid[0, 0])

    def test_precision_slice_monotone_toward_norm_n(self):
        base = FuzzyRuleBase()
        hi = SelectorInput(0.03, 0.05, 3.0, 5e-4)
        lo = SelectorInput(0.03, 0.05, 3.0, 1e-6)
        _, _, g_hi = response_surface(base, "step", "t_exec", hi, grid=13)
        xs, _, g_lo = response_surface(base, "step", "t_exec", lo, grid=13)
        both = np.isfinite(g_hi) & np.isfinite(g_lo)
        assert (g_lo[both] >= g_hi[both] - 1e-9).all()
        # where only rule 8 can fire, the slice sits in the Norm_N band
        outside = xs > 0.08
        vals = g_lo[outside][np.isfinite(g_lo[outside])]
        assert (vals > 0.71).all()

    def test_axis_validation(self):
        base = FuzzyRuleBase()
        fixed = SelectorInput(0.03, 0.05, 3.0, 5e-4)
        with pytest.raises(DomainError):
            response_surface(base, "step", "step", fixed)
        with pytest.raises(DomainError):
            response_surface(base, "nope", "t_h", fixed)
        with pytest.raises(DomainError):
            response_surface(base, "step", "t_h", fixed, grid=1)
