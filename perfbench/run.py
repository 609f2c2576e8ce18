"""dhtplan benchmark.

    python3 perfbench/run.py --workload plan-discrete --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
``src``, and scratch files go to ``.bench_build/perfbench``.  Workloads:
plan-discrete, inspect-stream, verify-plans, cli-mix (see workloads.py and
README.md).

--trace 0 times the workload untraced for --seconds (and at least 100
latency samples) and reports the end-to-end metrics.  --trace 1 runs a
fixed number of rounds untraced, then the same rounds traced, and reports
the per-layer metrics with the tracing overhead; its counts repeat exactly
for a seed.  Both print a report, then one JSON object as the last line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("plan-discrete", "inspect-stream", "verify-plans", "cli-mix")


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, dhtplan, numpy):
    from importlib import metadata
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "backend": getattr(dhtplan, "BACKEND", None),
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "dhtplan")):
        sys.exit("error: no package sources at %s; run from a dhtplan checkout" % SRC)

    # importing here also writes the bytecode caches that the timed set-ups
    # and CLI calls then read, as they would on a user's machine
    sys.path.insert(1, SRC)
    import numpy
    import dhtplan
    import selftest
    import workloads

    bench = workloads.Bench(args.seed)
    try:
        broken = selftest.run(bench)
        prov = provenance(args, dhtplan, numpy)
        t_start = time.perf_counter()
        if args.trace:
            metrics, absent = traced(bench, args)
        else:
            rounds = bench.run_measured(args.workload, args.seconds)
            metrics, absent = bench.end_to_end(args.workload), []
            bench.write_samples(os.path.join(
                workloads.WORK_DIR, "samples-%s-seed%d.json" % (args.workload, args.seed)))
        prov["measured_s"] = time.perf_counter() - t_start
    finally:
        bench.close()

    print("provenance: " + json.dumps(prov))
    if not args.trace:
        print("rounds: %d of %s, with %d probe slices" % (rounds, args.workload,
                                                          workloads.SLICES))
        print("%-46s %16s %-14s %-8s %s" % ("metric", "value", "unit", "samples",
                                               "as measured"))
    for name, (value, unit, *more) in metrics.items():
        print("%-46s %16.6g %-14s %s" % (name, value, unit, "n=%-6d %16.6g" % tuple(more)
                                         if more else ""))
    for name in absent:
        print("absent boundary: " + name)
    for msg in broken:
        print("SELFTEST: " + msg)
    for msg in bench.errors[:20]:
        print("FAILED: " + msg)
    print(json.dumps({
        "correct": not bench.errors and not broken,
        "attempted": bench.attempted,
        "failed": len(bench.errors),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))


def traced(bench, args):
    import spans
    import workloads

    rounds = workloads.TRACE_ROUNDS[args.workload]
    t0 = time.perf_counter()
    bench.run_rounds(args.workload, rounds)
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    bench.tr = tracer
    try:
        t0 = time.perf_counter()
        bench.run_rounds(args.workload, rounds)
        traced_s = time.perf_counter() - t0
        bench.probe_slice(args.workload, 0, setup=False)
        extra = bench.layer_extras()
    finally:
        tracer.uninstall()
    extra["trace.overhead_pct"] = ((traced_s / untraced - 1.0) * 100.0, "%")
    metrics = spans.layer_metrics(tracer, extra)
    path = os.path.join(workloads.WORK_DIR, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "counts": dict(tracer.counts), "absent": tracer.absent})
    return metrics, tracer.absent


if __name__ == "__main__":
    main()
