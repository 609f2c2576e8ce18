"""Two traced runs at the same seed must report identical counts.

    python3 perfbench/check_determinism.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice for each workload (all four by default)
and compares every per-layer metric whose unit is ``count``: CDF and
quantile calls, n values scanned, outcomes, events, escalations by cause,
log-branch points and Monte Carlo trials.  Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=["plan-discrete", "inspect-stream", "verify-plans", "cli-mix"])
    args = ap.parse_args()
    differ = False
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        bad = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        differ |= bool(bad)
        print("%s: %d counts %s" % (workload, len(first),
                                    "differ: %r" % bad if bad else "repeat exactly"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
