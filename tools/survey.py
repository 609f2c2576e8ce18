"""Paired plan survey: solve one seeded set of Bin and Poiss specs on two trees.

    python tools/survey.py BASE HEAD [--specs N] [--seed S]

BASE and HEAD are checkouts of this repository (each with src/dhtplan),
for instance a `git archive` export of the parent commit and the working
tree.  Each tree runs in its own child process, which solves every spec
under a limit of LIMIT seconds of its own CPU time per solve (ITIMER_PROF,
so the other child's load does not count) and counts the passes of the
kernels' one term-sum loop, `_backend._term_sum`, that the solve makes.

The specs follow one recipe: method Bin or Poiss; p0 = 0 for a quarter of
them (the zero_scan path), else p0 < p1 both log-uniform over 0.0005-0.49;
alpha and beta log-uniform over TAIL-0.2; epsilon at the method default or
log-uniform over 1e-5-0.1; max_n log-uniform over 100-MAX_N.

One line per spec gives the outcome on each tree, (n, c, t_h) or the
error, the pass counts and the CPU seconds each solve took; a spec whose
outcomes differ, among those both trees finish, is marked MISMATCH, and
one that times out on one tree only is marked ONE-SIDED.  A summary
follows: specs finished, time-outs per tree, total passes on each side
over the specs both finish (all, and those with p0 = 0), every spec whose
passes rose by more than 10%, and every one-sided time-out, which needs a
rerun alone.  The exit status is 1 on any mismatch or one-sided time-out,
0 otherwise.
"""

import argparse
import json
import math
import os
import random
import signal
import subprocess
import sys
import time

TAIL = 1e-12  # the smallest alpha and beta drawn
MAX_N = 200_000  # the largest max_n drawn
LIMIT = 3.0  # CPU seconds per solve


class _Timeout(BaseException):
    """Raised by the per-solve timer; a BaseException so no handler in the
    package catches it."""


def make_specs(count, seed):
    """count specs as (method, p0, p1, alpha, beta, epsilon, max_n)."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    specs = []
    while len(specs) < count:
        if rng.random() < 0.25:
            p0, p1 = 0.0, log_uniform(0.0005, 0.49)
        else:
            p0, p1 = sorted(log_uniform(0.0005, 0.49) for _ in range(2))
            if p0 == p1:
                continue
        eps = None if rng.random() < 0.5 else log_uniform(1e-5, 0.1)
        specs.append((rng.choice(("Bin", "Poiss")), p0, p1, log_uniform(TAIL, 0.2),
                      log_uniform(TAIL, 0.2), eps, int(log_uniform(100, MAX_N))))
    return specs


def worker(tree):
    """Solve the specs read from stdin on tree, one JSON line out per spec:
    [outcome, passes, seconds], the outcome ["plan", n, c, t_h],
    ["error", message] or ["timeout"]."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import dhtplan
    from dhtplan import _backend

    passes = [0]
    term_sum = _backend._term_sum

    def counted(*args):
        passes[0] += 1
        return term_sum(*args)

    def expire(signum, frame):
        raise _Timeout

    _backend._term_sum = counted
    signal.signal(signal.SIGPROF, expire)
    for method, p0, p1, alpha, beta, eps, max_n in json.load(sys.stdin):
        passes[0] = 0
        start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, LIMIT)
        try:
            spec = dhtplan.TestSpec(p0, p1, alpha_tail=alpha, beta_tail=beta,
                                    epsilon=eps, max_n=max_n)
            plan = dhtplan.solve(spec, method)
            outcome = ["plan", plan.n, plan.c, plan.t_h]
        except _Timeout:
            outcome = ["timeout"]
        except Exception as exc:  # the message is part of the outcome
            outcome = ["error", "%s: %s" % (type(exc).__name__, exc)]
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
        print(json.dumps([outcome, passes[0], time.process_time() - start]), flush=True)


def run_tree(tree, specs):
    """A child process solving specs on tree, started but not awaited."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", os.path.abspath(tree)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    child.stdin.write(json.dumps(specs))
    child.stdin.close()
    return child


def results(child, tree):
    rows = [json.loads(line) for line in child.stdout]
    if child.wait() != 0:
        sys.exit("survey: the child on %s exited with status %d" % (tree, child.returncode))
    return rows


def show(outcome):
    if outcome[0] == "plan":
        return "(%d, %d, %r)" % tuple(outcome[1:])
    return outcome[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--specs", type=int, default=450)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if not (args.base and args.head):
        parser.error("BASE and HEAD are required")
    specs = make_specs(args.specs, args.seed)
    children = [run_tree(tree, specs) for tree in (args.base, args.head)]
    base, head = (results(child, tree) for child, tree in zip(children, (args.base, args.head)))
    if len(base) != len(specs) or len(head) != len(specs):
        sys.exit("survey: a child answered %d and %d of %d specs"
                 % (len(base), len(head), len(specs)))
    mismatches, one_sided, rose = [], [], []
    both, zero = [], []
    timeouts = [0, 0]
    for i, (spec, (b, b_passes, b_time), (h, h_passes, h_time)) in enumerate(
            zip(specs, base, head)):
        timeouts[0] += b == ["timeout"]
        timeouts[1] += h == ["timeout"]
        mark = ""
        if b != ["timeout"] and h != ["timeout"]:
            both.append((b_passes, h_passes))
            if spec[1] == 0.0:
                zero.append((b_passes, h_passes))
            if b != h:
                mark = "  MISMATCH"
                mismatches.append(i)
            if h_passes > 1.1 * b_passes:
                rose.append(i)
        elif b != h:
            mark = "  ONE-SIDED"
            one_sided.append(i)
        print("%4d %-5s p0=%.6g p1=%.6g alpha=%.3g beta=%.3g eps=%s max_n=%d: %s | %s"
              "  passes %d -> %d  seconds %.4f -> %.4f%s"
              % (i, *spec[:5], "default" if spec[5] is None else "%.3g" % spec[5],
                 spec[6], show(b), show(h), b_passes, h_passes, b_time, h_time, mark))
    print("%d specs (seed %d), %d finished on both trees, %d mismatches; "
          "time-outs: %d base, %d head" % (len(specs), args.seed, len(both),
                                           len(mismatches), *timeouts))
    print("kernel passes over the specs both finished: %d base, %d head; "
          "with p0 = 0: %d base, %d head"
          % (sum(b for b, _ in both), sum(h for _, h in both),
             sum(b for b, _ in zero), sum(h for _, h in zero)))
    for i in rose:
        print("passes rose by more than 10%% on spec %d: %d -> %d"
              % (i, base[i][1], head[i][1]))
    for i in one_sided:
        print("spec %d timed out on the %s tree only; rerun it alone"
              % (i, "base" if base[i][0] == ["timeout"] else "head"))
    return 1 if mismatches or one_sided else 0


if __name__ == "__main__":
    sys.exit(main())
