"""Shows that the correctness gate cannot pass vacuously.

Each checker gets a real result of the program, which it must accept, and
a corrupted copy, which it must reject: a plan with c + 1, a verdict with
the wrong level, OC points off by 1e-6 (absolute, and relative on the
log-space branch), a Monte Carlo rate 4 half-widths from exact, a Monte
Carlo half-width doubled, and a CLI call with the wrong exit code.  ``run.py`` does this
before every measurement and reports the run as incorrect if any check
misbehaves.  Standalone:

    python3 perfbench/selftest.py
"""

import sys
import types

import checks
from spans import takes_log_branch


def run(bench):
    """Returns one message per checker that accepted a corruption or rejected a real result."""
    import dhtplan
    import workloads

    problems = []

    def expect(label, message, should_fail):
        if bool(message) != should_fail:
            problems.append("%s: checker %s" % (
                label, "accepted a corrupted result" if should_fail else "rejected: %s" % message))

    key = ("Bin", 0.0, 0.02)
    plan = dhtplan.solve(dhtplan.TestSpec(*key[1:]), key[0])
    expect("plan", checks.check_plan(plan, key), False)
    bad = types.SimpleNamespace(n=plan.n, c=plan.c + 1, t_h=plan.t_h)
    expect("plan c+1", checks.check_plan(bad, key), True)

    outcomes = workloads.bernoulli(workloads.generator("selftest"), 0.05, workloads.STREAM_LEN)
    state = dhtplan.run_stream(bench.fx.ladder, outcomes)
    want = checks.reference_verdict(outcomes)
    expect("verdict", checks.check_verdict(state, want), False)
    level = checks.verdict_of(state)[1]
    bad = types.SimpleNamespace(status=state.status, trials=state.trials, failures=state.failures,
                                accepted_level=level + 1, level_index=level + 1)
    expect("verdict with wrong level", checks.check_verdict(bad, want), True)

    index = 6  # Bin (0, 0.02), n=313: cheap, with points on both CDF branches
    oc = [a for _, a in dhtplan.oc_curve(bench.fx.plans[index][0], workloads.OC_GRID).points]
    ref, tol = bench.oc_ref[index], bench.oc_tol[index]
    expect("OC curve", checks.check_oc(oc, ref, tol), False)
    for i in (0, 10, 500, 990, len(oc) - 1):
        bad = list(oc)
        bad[i] += 1e-6
        expect("OC point %d + 1e-6" % i, checks.check_oc(bad, ref, tol), True)
        if bad[i] >= 2e-6:
            bad[i] -= 2e-6
            expect("OC point %d - 1e-6" % i, checks.check_oc(bad, ref, tol), True)

    # the log-space branch of binom_cdf serves values far below 1e-6: scale
    # the first and the last of its points that the relative bound covers
    # on the 7360-trial plan
    big = bench.fx.plans[0][0]
    ref, tol = bench.oc_ref[0], bench.oc_tol[0]
    logs = [i for i, p in enumerate(workloads.OC_GRID)
            if takes_log_branch(big.c - 1, big.n, p) and ref[i] >= checks.OC_FLOOR]
    picked = [logs[0], logs[-1]]
    got = [a for _, a in dhtplan.oc_curve(big, [workloads.OC_GRID[i] for i in picked]).points]
    ref, tol = [ref[i] for i in picked], [tol[i] for i in picked]
    expect("OC log-branch points", checks.check_oc(got, ref, tol), False)
    for j, i in enumerate(picked):
        bad = list(got)
        bad[j] *= 1 + 1e-6
        expect("OC log-branch point %d * (1 + 1e-6)" % i, checks.check_oc(bad, ref, tol), True)

    plan, _, p1 = bench.fx.plans[index]
    reps = 2000
    rate, hw = dhtplan.monte_carlo_accept(plan, p1, reps, 1)
    exact = bench.exact[index][1]
    expect("Monte Carlo", checks.check_mc(rate, hw, exact, reps), False)
    expect("MC half-width doubled", checks.check_mc(rate, 2 * hw, exact, reps), True)
    for sign in (1, -1):
        bad = exact + sign * 4 * checks.wilson_half_width(exact, reps)
        expect("MC rate %+d half-widths" % (4 * sign),
               checks.check_mc(bad, checks.wilson_half_width(bad, reps), exact, reps), True)

    args, cli_expect = bench.cli["inspect"]
    code, out, _ = workloads.spawn(["-m", "dhtplan.cli"] + args, bench.env)
    expect("cli inspect", checks.check_cli(cli_expect, code, out), False)
    for wrong in (0, 1, 2, 3):
        expect("cli inspect exit %d" % wrong, checks.check_cli(cli_expect, wrong, out), True)
    return problems


def main():
    import os

    sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    import workloads

    bench = workloads.Bench(seed=0)
    try:
        problems = run(bench)
    finally:
        bench.close()
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "every checker rejects its corruption"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
