"""Command-line surface.

Subcommands: plan, table, inspect, sfl, select, oc, simulate.

Output is key=value lines by default; ``--format csv`` and ``--format
jsonl`` switch to machine formats.  Exit codes are a stable contract:
0 success/accept, 1 usage or parse error, 2 solver/computation failure,
3 reject verdict, 4 inconclusive.  Bad input (a value out of range, a
missing or unreadable file, malformed JSON) ends with one ``error:`` line on
stderr and exit 1, never a traceback.

Each subcommand imports only the modules it runs, so a process pays for
no solver, engine or selector it does not use.
"""

import argparse
import math
import os
import sys
import types
import warnings
from contextlib import nullcontext

from .errors import DhtError, DomainError, NoConvergenceError, NoRecommendationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_REJECT = 3
EXIT_INCONCLUSIVE = 4

_METHOD_FLAGS = {"bin": "Bin", "poiss": "Poiss", "norm-n": "Norm_N", "norm-i": "Norm_I"}
_TOKENS = {"0": 0, "1": 1}

#: the most points an ``oc --grid`` may ask for
_MAX_GRID_POINTS = 10**6
#: the most rows a ``table`` may ask for: each row solves one plan
_MAX_TABLE_ROWS = 1000
#: the largest ``oc --c``: each point sums up to c binomial terms
_MAX_OC_C = 10**6
#: the most trials one ``simulate`` call may simulate (n times reps); each
#: lot is one binomial draw, so this bounds the trials asked for, not memory
_MAX_SIMULATE_DRAWS = 10**10


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.8g" % v
    return str(v)


def _write(fmt, schema, out, records):
    """Write each field dict of records in one of the three output formats;
    csv heads the first record with the schema line and the field names."""
    if fmt == "jsonl":
        from json import dumps
        for fields in records:
            out.write(dumps(fields) + "\n")
    elif fmt == "csv":
        for i, fields in enumerate(records):
            if not i:
                out.write("# %s.v1\n%s\n" % (schema, ",".join(fields)))
            out.write(",".join(map(_fmt, fields.values())) + "\n")
    else:
        for fields in records:
            out.write(" ".join("%s=%s" % (k, _fmt(v)) for k, v in fields.items()) + "\n")


def _ladder_from_args(args, levels, err):
    """The ladder the table and inspect flags describe, or None after one
    error line when it cannot be built."""
    from .inspection_engine import build_ladder
    try:
        return build_ladder(levels, alpha_tail=args.alpha, beta_tail=args.beta,
                            method=_METHOD_FLAGS[args.method], ex=args.ex,
                            epsilon=args.eps,
                            first_method=_METHOD_FLAGS[args.first_method]
                            if args.first_method else None,
                            paper_compat_z=(args.z_mode == "paper"))
    except DhtError as exc:
        err.write("error: %s\n" % exc)
        return None


def cmd_plan(args, out, err):
    from .plan_solvers import TestSpec, solve
    spec = TestSpec(p0=args.p0, p1=args.p1, alpha_tail=args.alpha,
                    beta_tail=args.beta, epsilon=args.eps, max_n=args.max_n,
                    paper_compat_z=(args.z_mode == "paper"))
    try:
        plan = solve(spec, _METHOD_FLAGS[args.method])
    except NoConvergenceError as exc:
        err.write("no convergence: %s" % exc)
        if exc.best_gap is not None:
            err.write(" (best gap %.8g)" % exc.best_gap)
        err.write("\n")
        return EXIT_COMPUTE
    except DhtError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_COMPUTE
    _write(args.format, "dhtplan.plan", out, [{
        "method": plan.method,
        "n": plan.n,
        "c": plan.c,
        "t_h": plan.t_h,
        "np0": plan.np0,
        "iterations": plan.iterations,
        "converged": plan.converged,
        "np0_gt5": plan.applicability.np0_gt5,
        "nq0_gt5": plan.applicability.nq0_gt5,
        "p_lt_0.1": plan.applicability.p_lt_0_1,
    }])
    return EXIT_OK


def cmd_table(args, out, err):
    if not args.step > 0.0:
        err.write("error: --step must be positive, got %g\n" % args.step)
        return EXIT_USAGE
    # the last level, tested before any level is built
    if round(args.step * args.rows, 12) >= 0.5:
        err.write("error: %d rows at step %g exceed the 0.5 rate ceiling\n"
                  % (args.rows, args.step))
        return EXIT_USAGE
    if not 1 <= args.rows <= _MAX_TABLE_ROWS:
        err.write("error: --rows must be in [1, %d], got %d\n" % (_MAX_TABLE_ROWS, args.rows))
        return EXIT_USAGE
    levels = [round(args.step * i, 12) for i in range(args.rows + 1)]
    ladder = _ladder_from_args(args, levels, err)
    if ladder is None:
        return EXIT_COMPUTE
    _write(args.format, "dhtplan.table", out,
           ({"n": plan.n, "c": plan.c, "t_h": plan.t_h, "r": r}
            for plan, r in zip(ladder.plans, ladder.run_limits)))
    return EXIT_OK


def _read_outcomes(source):
    """Yield the outcome of each 0/1 token, one per line; blank lines skip."""
    for i, line in enumerate(source, start=1):
        tok = line.strip()
        if not tok:
            continue
        value = _TOKENS.get(tok)
        if value is None:
            raise DomainError("malformed token %r at line %d" % (tok, i))
        yield value


#: One event record per format, as ``_write`` would write it: the fields
#: are ints and one of five plain ASCII transition names, which ``str`` and
#: ``json.dumps`` write as these templates do.  An event is one ``%`` and
#: one write, the per-outcome cost of a long stream.
_EVENT_LINES = {
    "kv": "trial=%d outcome=%d level=%d failures=%d run=%d transition=%s\n",
    "csv": "%d,%d,%d,%d,%d,%s\n",
    "jsonl": '{"trial": %d, "outcome": %d, "level": %d, "failures": %d, "run": %d, '
             '"transition": "%s"}\n',
}
#: written with the first event only, so a stream with none writes no header
_EVENT_CSV_HEAD = "# dhtplan.events.v1\ntrial,outcome,level,failures,run,transition\n"


def cmd_inspect(args, out, err):
    from .inspection_engine import ACCEPTED, REJECTED, run_stream
    try:
        levels = [float(x) for x in args.levels.split(",")]
    except ValueError:
        err.write("error: --levels must be a comma-separated list of rates\n")
        return EXIT_USAGE
    ladder = _ladder_from_args(args, levels, err)
    if ladder is None:
        return EXIT_COMPUTE

    write = out.write
    line = _EVENT_LINES[args.format]
    first = _EVENT_CSV_HEAD + line if args.format == "csv" else line

    def record(e):
        nonlocal first
        write(first % (e.trial, e.outcome, e.level, e.failures, e.run, e.transition))
        first = line

    with nullcontext(sys.stdin) if args.input == "-" else open(args.input) as source:
        state = run_stream(ladder, _read_outcomes(source), sink=record)

    # a verdict's status value is the engine's, "accepted" or "rejected_beyond_last"
    code = {ACCEPTED: EXIT_OK, REJECTED: EXIT_REJECT}.get(state.status, EXIT_INCONCLUSIVE)
    verdict = {"status": "inconclusive" if code == EXIT_INCONCLUSIVE else state.status,
               "level": state.level_index}
    if code == EXIT_OK:
        verdict["t_h"] = state.accepted_t_h
    verdict.update(trials=state.trials, failures=state.failures)
    _write(args.format, "dhtplan.verdict", out, [verdict])
    return code


def cmd_sfl(args, out, err):
    from .run_limits import SflQuery, mean_recurrence, sfl_r
    try:
        raw, r = sfl_r(SflQuery(p=args.p, ex=args.ex))
        mean = mean_recurrence(args.p, r)
    except DomainError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_COMPUTE
    _write(args.format, "dhtplan.sfl", out,
           [{"p": args.p, "ex": args.ex, "r_raw": raw, "r": r, "mean_recurrence": mean}])
    return EXIT_OK


def cmd_select(args, out, err):
    from .fuzzy_selector import FuzzyRuleBase, SelectorInput, infer
    base = FuzzyRuleBase() if args.fuzzy_config is None else \
        FuzzyRuleBase.load(args.fuzzy_config)
    inp = SelectorInput(step=args.step, t_h=args.th, t_exec=args.texec,
                        prec_abs=args.prec)
    # one stderr line per clamped input, not the warnings module's two
    with warnings.catch_warnings(record=True) as clamps:
        warnings.simplefilter("always")
        inp = inp.clamped()
    for w in clamps:
        err.write("warning: %s\n" % w.message)
    try:
        score, label, firings = infer(inp, base)
    except NoRecommendationError as exc:
        err.write("no recommendation: %s\n" % exc)
        return EXIT_COMPUTE
    fields = {"score": score, "label": label}
    for idx, s in firings:
        fields["rule_%d" % idx] = s
    _write(args.format, "dhtplan.select", out, [fields])
    return EXIT_OK


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be start:stop:step")
    start, stop, step = (float(x) for x in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError("grid values must be finite")
    if step <= 0 or stop < start:
        raise DomainError("grid must advance from start to stop")
    if start < 0 or stop > 1:
        raise DomainError("grid must lie within [0, 1]")
    # count before building, the 1e-12 slack past stop too: a tiny step
    # would otherwise grow the list unbounded, even where start == stop
    if (stop - start + 1e-12) / step >= _MAX_GRID_POINTS:
        raise DomainError("grid step %g gives more than %d points"
                          % (step, _MAX_GRID_POINTS))
    pts = []
    k = 0
    while True:
        p = start + k * step
        if p > stop + 1e-12:
            break
        pts.append(min(p, stop))
        k += 1
    return pts


def cmd_oc(args, out, err):
    from .verification import accept_probability
    grid = _parse_grid(args.grid)
    if args.c < 1 or args.c > args.n:
        err.write("error: need 1 <= c <= n\n")
        return EXIT_USAGE
    if args.c > _MAX_OC_C:
        err.write("error: --c must be at most %d, got %d\n" % (_MAX_OC_C, args.c))
        return EXIT_USAGE
    _write("csv" if args.format == "kv" else args.format, "dhtplan.oc", out,
           ({"p": p, "accept_prob": accept_probability(args.n, args.c, p)} for p in grid))
    return EXIT_OK


def cmd_simulate(args, out, err):
    from .verification import monte_carlo_accept
    # n < 1 is left to monte_carlo_accept's DomainError (exit 2)
    if args.n >= 1 and not 1 <= args.c <= args.n:
        err.write("error: need 1 <= c <= n\n")
        return EXIT_USAGE
    if not 0 <= args.seed < 2**128:  # the Philox key is 128 bits
        err.write("error: --seed must be in [0, 2**128), got %d\n" % args.seed)
        return EXIT_USAGE
    # n past 2**63 - 1 is left to monte_carlo_accept too
    if args.n <= 2**63 - 1 and args.n * args.reps > _MAX_SIMULATE_DRAWS:
        err.write("error: --n times --reps must be at most %d draws, got %d\n"
                  % (_MAX_SIMULATE_DRAWS, args.n * args.reps))
        return EXIT_USAGE
    plan = types.SimpleNamespace(n=args.n, c=args.c)
    try:
        rate, hw = monte_carlo_accept(plan, args.p, args.reps, args.seed)
    except DomainError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_COMPUTE
    _write(args.format, "dhtplan.simulate", out,
           [{"n": args.n, "c": args.c, "p": args.p, "reps": args.reps,
             "seed": args.seed, "rate": rate, "half_width": hw}])
    return EXIT_OK


def _add_spec_flags(p):
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--max-n", type=int, default=200_000)
    _add_tail_flags(p)


def _add_tail_flags(p):
    p.add_argument("--alpha", type=float, default=0.05,
                   help="producer-risk tail mass (default 0.05)")
    p.add_argument("--beta", type=float, default=0.05,
                   help="consumer-risk tail mass (default 0.05)")
    p.add_argument("--eps", type=float, default=None,
                   help="solver tolerance (method default when omitted)")
    p.add_argument("--z-mode", choices=("paper", "exact"), default="paper",
                   help="paper: use the 1.64 constant at tail 0.05")


def _add_ladder_flags(p):
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="norm-i")
    p.add_argument("--first-method", choices=sorted(_METHOD_FLAGS), default=None,
                   help="method for the first level pair (default bin when "
                        "the ladder starts at 0)")
    p.add_argument("--ex", type=float, default=1e6,
                   help="run-limit recurrence horizon")


def build_parser():
    ap = argparse.ArgumentParser(prog="dhtplan")
    ap.add_argument("--format", choices=("kv", "csv", "jsonl"), default="kv")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute one sampling plan")
    _add_spec_flags(p)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("table", help="emit ladder rows (n, c, t_h, r)")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--rows", type=int, default=8)
    _add_tail_flags(p)
    _add_ladder_flags(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("inspect", help="run a 0/1 outcome stream through a ladder")
    p.add_argument("--levels", required=True,
                   help="comma-separated increasing rates, e.g. 0,0.03,0.06")
    p.add_argument("--input", default="-", help="token file, or - for stdin")
    _add_tail_flags(p)
    _add_ladder_flags(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("sfl", help="successive-failures limit")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--ex", type=float, default=1e6)
    p.set_defaults(fn=cmd_sfl)

    p = sub.add_parser("select", help="fuzzy method recommendation")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--th", type=float, required=True)
    p.add_argument("--texec", type=float, required=True)
    p.add_argument("--prec", type=float, required=True)
    p.add_argument("--fuzzy-config", default=None)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("oc", help="operating-characteristic curve as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--grid", default="0:1:0.05", help="start:stop:step")
    p.set_defaults(fn=cmd_oc)

    p = sub.add_parser("simulate", help="Monte Carlo acceptance rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--reps", type=int, default=100_000)
    # a string default goes through type=int only when simulate parses it
    p.add_argument("--seed", type=int, default=os.environ.get("DHTPLAN_SEED", "0"))
    p.set_defaults(fn=cmd_simulate)

    return ap


def main(argv=None, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out, err)
    except (OSError, ValueError) as exc:
        # bad input: DomainError and json.JSONDecodeError are ValueErrors too
        err.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
