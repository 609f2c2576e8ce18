"""Correctness gate of the benchmark.

Every checker returns None for a correct result and a one-line message for
a wrong one; a wrong result counts as a failed operation.  The checkers read
only public outputs: plan fields, verdict fields of the final inspection
state, OC points, Monte Carlo (rate, half-width) pairs and CLI stdout plus
exit code.  ``selftest.py`` shows each of them rejects a corrupted result.
"""

import math

#: (n, c, t_h) of every plan-discrete spec, as solved at the commit that
#: introduced the benchmark.  A speed-up must reproduce them exactly.
PINNED_DISCRETE = {
    ("Bin", 0.0, 0.02): (313, 3, 0.009584664536741214),
    ("Bin", 0.0, 0.0005): (12590, 3, 0.00023828435266084195),
    ("Bin", 0.02, 0.05): (527, 18, 0.03320683111954459),
    ("Bin", 0.05, 0.10): (422, 31, 0.07345971563981042),
    ("Bin", 0.10, 0.15): (632, 79, 0.12420886075949367),
    ("Bin", 0.02, 0.03): (2641, 66, 0.024801211662249148),
    ("Poiss", 0.0, 0.02): (315, 3, 0.009523809523809525),
    ("Poiss", 0.0, 0.0005): (12592, 3, 0.00023824650571791615),
    ("Poiss", 0.02, 0.05): (569, 19, 0.033391915641476276),
    ("Poiss", 0.05, 0.10): (452, 33, 0.07300884955752213),
    ("Poiss", 0.10, 0.15): (767, 95, 0.12385919165580182),
    ("Poiss", 0.02, 0.03): (3171, 79, 0.024755597603279722),
}

#: (method, n, c) of the twelve acceptance-criterion-9 plans, in fixture order.
PINNED_VERIFY = (
    ("Norm_N", 7360, 128), ("Norm_N", 383, 13), ("Norm_N", 289, 21),
    ("Norm_I", 381, 12), ("Norm_I", 288, 20), ("Norm_I", 1543, 22),
    ("Bin", 313, 3), ("Bin", 527, 18), ("Bin", 422, 31),
    ("Poiss", 315, 3), ("Poiss", 569, 19), ("Poiss", 452, 33),
)

#: (n, c, r) per level pair of the 0..0.08 step-0.01 table ladder.
PINNED_LADDER = (
    (628, 3, 3), (1513, 21, 4), (2544, 62, 4), (3543, 123, 5),
    (4517, 202, 5), (5469, 300, 5), (6399, 415, 6), (7308, 547, 6),
)

#: Criterion-5 rule: exact realized producer and consumer risks.
MAX_RISK = 0.08

#: OC points must lie within OC_REL of scipy.stats.binom.cdf, relative to
#: the reference, wherever the reference is at least OC_FLOOR; below it they
#: must lie within OC_FLOOR of it.  Checked against mpmath at 40 digits,
#: scipy is within 1e-12 relative above 1e-250 on every criterion-9 plan
#: and 1001-point grid, while below it scipy reads 0 or loses every digit.
#: The floor keeps the log-space branch of binom_cdf under the relative
#: bound: on the 7360-trial plan it serves points from about 1e-172 down.
OC_REL = 1e-9
OC_FLOOR = 1e-250
#: Where the leading term q**n is a subnormal double it carries an absolute
#: rounding error of up to 2**-1074, so a sum that starts from it may be off
#: by that much relative to q**n.  The package's linear recurrence does so
#: (1.6% at n=7360, c=127, p=0.096); those points get this extra share.
#: A switch to log space below DBL_MIN would bring them within OC_REL.
DBL_MIN = 2.2250738585072014e-308
SUBNORMAL_ULP = 2.0 ** -1074

#: CLI floats carry 8 significant digits.
CLI_REL = 1e-7

#: Monte Carlo estimates must land within this many 99% Wilson half-widths
#: of the exact value, the half-width taken at the exact value and the reps
#: the benchmark asked for.  A statistical check, so a change of random
#: stream still passes; a false alarm needs a deviation of about 7.7 sigma.
MC_HALF_WIDTHS = 3.0
#: z of the two-sided 99% interval.
Z99 = 2.5758293035489004


def check_plan(plan, key):
    """Plan equals the pinned (n, c, t_h)."""
    got = (plan.n, plan.c, plan.t_h)
    if got != PINNED_DISCRETE[key]:
        return "%s plan %r != pinned %r" % (key, got, PINNED_DISCRETE[key])
    return None


def check_risks(key, risks):
    """risks = exact (alpha_hat, beta_hat) of the pinned plan for key."""
    alpha, beta = risks
    if not (alpha <= MAX_RISK and beta <= MAX_RISK):
        return "%s realized risks (%g, %g) exceed %g" % (key, alpha, beta, MAX_RISK)
    return None


def check_verify_plan(plan, index):
    got = (plan.method, plan.n, plan.c)
    if got != PINNED_VERIFY[index]:
        return "verification plan %d is %r, pinned %r" % (index, got, PINNED_VERIFY[index])
    return None


def check_ladder(ladder):
    got = tuple((p.n, p.c, r) for p, r in zip(ladder.plans, ladder.run_limits))
    if got != PINNED_LADDER:
        return "table ladder %r != pinned %r" % (got, PINNED_LADDER)
    return None


def reference_verdict(outcomes):
    """Counters-only model of the engine's transition rule.

    Counts are cumulative across levels; after each outcome the level
    escalates while failures >= c or the failure run exceeds r (past the
    last level: reject), then accepts once trials reach the level's n.
    Returns (status, level, trials, failures).
    """
    level = trials = failures = run = 0
    last = len(PINNED_LADDER) - 1
    for value in outcomes:
        trials += 1
        if value:
            failures += 1
            run += 1
        else:
            run = 0
        while True:
            n, c, r = PINNED_LADDER[level]
            if failures >= c or run > r:
                if level == last:
                    return ("rejected_beyond_last", level, trials, failures)
                level += 1
                continue
            if trials >= n:
                return ("accepted", level, trials, failures)
            break
    return ("inconclusive", level, trials, failures)


def verdict_of(state):
    """(status, level, trials, failures) read from an engine state."""
    status = {"continue": "inconclusive"}.get(state.status, state.status)
    level = state.accepted_level if status == "accepted" else state.level_index
    return (status, level, state.trials, state.failures)


def check_verdict(state, expected):
    got = verdict_of(state)
    if got != expected:
        return "verdict %r != reference %r" % (got, expected)
    return None


def oc_tolerances(n, ps, reference):
    """Allowed absolute error of each P(X <= c) for X ~ Binomial(n, p)."""
    tolerances = []
    for p, ref in zip(ps, reference):
        if ref < OC_FLOOR:
            tolerances.append(OC_FLOOR)
            continue
        lead = pow(1.0 - p, float(n))
        extra = SUBNORMAL_ULP / lead if 0.0 < lead < DBL_MIN else 0.0
        tolerances.append((OC_REL + extra) * ref)
    return tolerances


def check_oc(values, reference, tolerances):
    """values and reference are equal-length sequences of P(accept)."""
    if len(values) != len(reference):
        return "OC has %d points, expected %d" % (len(values), len(reference))
    for i, (got, ref, tol) in enumerate(zip(values, reference, tolerances)):
        if not abs(got - ref) <= tol:
            return "OC point %d is %r, reference %r" % (i, got, ref)
    return None


def wilson_half_width(rate, reps):
    """Half-width of the 99% Wilson interval around rate over reps lots."""
    z2 = Z99 * Z99
    return (Z99 / (1.0 + z2 / reps)) * math.sqrt(rate * (1.0 - rate) / reps
                                                 + z2 / (4.0 * reps * reps))


def check_mc(rate, half_width, exact, reps, rel=1e-9):
    """rate and half_width as reported for reps lots; exact from scipy.

    The reported half-width must be the 99% Wilson half-width of the
    reported rate over the requested reps, so that neither a wider interval
    nor fewer lots go unnoticed.
    """
    stated = wilson_half_width(rate, reps)
    if not abs(half_width - stated) <= rel * stated:
        return ("Monte Carlo half-width %r is not the 99%% Wilson half-width %r of rate %r "
                "over %d lots" % (half_width, stated, rate, reps))
    allowed = MC_HALF_WIDTHS * wilson_half_width(exact, reps)
    if not abs(rate - exact) <= allowed:
        return ("Monte Carlo rate %r is more than %r (%g half-widths) from exact %r"
                % (rate, allowed, MC_HALF_WIDTHS, exact))
    return None


def _close(text, want, rel=CLI_REL):
    return abs(float(text) - want) <= rel * abs(want) + OC_FLOOR


def kv_lines(stdout):
    return [dict(tok.split("=", 1) for tok in line.split())
            for line in stdout.splitlines() if "=" in line]


def check_cli(expect, returncode, stdout):
    """expect = (exit code, validator(stdout) -> message or None)."""
    code, validate = expect
    if returncode != code:
        return "exit code %d, expected %d: %s" % (returncode, code, stdout[-200:].strip())
    try:
        return validate(stdout)
    except (KeyError, ValueError, IndexError) as exc:
        return "unparsable output (%s): %s" % (exc, stdout[-200:].strip())


def expect_fields(**want):
    """Validator: the last kv record carries these exact field strings."""
    def validate(stdout):
        rec = kv_lines(stdout)[-1]
        bad = {k: rec.get(k) for k, v in want.items() if rec.get(k) != v}
        return "fields %r, expected %r" % (bad, want) if bad else None
    return validate


def expect_table():
    def validate(stdout):
        got = tuple((int(r["n"]), int(r["c"]), int(r["r"])) for r in kv_lines(stdout))
        return None if got == PINNED_LADDER else "table %r != pinned %r" % (got, PINNED_LADDER)
    return validate


def expect_sfl(r, r_raw):
    def validate(stdout):
        rec = kv_lines(stdout)[-1]
        if rec["r"] != str(r) or not _close(rec["r_raw"], r_raw):
            return "sfl r=%s r_raw=%s, expected %d and %r" % (rec["r"], rec["r_raw"], r, r_raw)
        return None
    return validate


def expect_select(score, label):
    def validate(stdout):
        rec = kv_lines(stdout)[-1]
        if rec["label"] != label or abs(float(rec["score"]) - score) > 1e-6:
            return "select %s/%s, expected %r/%s" % (rec["score"], rec["label"], score, label)
        return None
    return validate


def expect_oc_csv(grid, reference):
    def validate(stdout):
        rows = [line.split(",") for line in stdout.splitlines()[2:] if line]
        if len(rows) != len(grid):
            return "oc printed %d rows, expected %d" % (len(rows), len(grid))
        for (p, prob), want_p, ref in zip(rows, grid, reference):
            if not (_close(p, want_p) and _close(prob, ref)):
                return "oc row %s,%s, expected %r,%r" % (p, prob, want_p, ref)
        return None
    return validate


def expect_simulate(exact, reps):
    def validate(stdout):
        rec = kv_lines(stdout)[-1]
        if rec["reps"] != str(reps):
            return "simulate ran reps=%s, requested %d" % (rec["reps"], reps)
        return check_mc(float(rec["rate"]), float(rec["half_width"]), exact, reps, CLI_REL)
    return validate


def expect_verdict(expected):
    def validate(stdout):
        rec = kv_lines(stdout)[-1]
        got = (rec["status"], int(rec["level"]), int(rec["trials"]), int(rec["failures"]))
        return None if got == expected else "inspect verdict %r != reference %r" % (got, expected)
    return validate
