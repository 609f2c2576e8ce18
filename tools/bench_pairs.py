"""Alternating pairs of benchmark runs on two trees, written as one BENCH file.

    python tools/bench_pairs.py BASE HEAD --workload W --pairs N --seconds S
                                --seed K --out FILE

BASE and HEAD are checkouts of this repository, for instance `git archive`
exports of the parent commit and of the change in sibling directories.  A
tree that holds a `__pycache__` directory anywhere is refused: a bytecode
cache on one side only moves `setup_s` and the CLI times.

Pair i (0 to N - 1) runs seed K + i: each tree's
`perfbench/run.py --workload W --seed <seed> --seconds S --trace 0`, from
the tree's root, one process at a time, under PYTHONDONTWRITEBYTECODE=1.
BASE runs first on odd seeds and HEAD on even ones.  A run's last line of
output is its JSON result; one line per run is printed as it finishes.

FILE gets the shape that tests/test_bench_files.py checks: the `workload`,
`command`, `parent` and `change` (the two trees' directory names), `host`
and `runs` fields; `pairs`, each with its seed, its order and the two
results (`parent` for BASE, `change` for HEAD); and a `summary` row per
end-to-end metric of BENCHMARK.json that the first run reports, with each
side's median, q1 and q3 (`statistics.quantiles(n=4, method="inclusive")`,
or the one value of a single pair) and `pairs_better`, the number of
pairs in which HEAD is better in the metric's direction.  A run that exits non-zero
or ends without a JSON line stops the tool with status 1 before FILE is
written; a run that is not correct or has failed operations is kept in
FILE, and the status is then 1 too.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from importlib import metadata

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end():
    """{name: metric} for BENCHMARK.json's end-to-end metrics, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def check_tree(tree):
    if not (tree / "perfbench" / "run.py").is_file():
        raise SystemExit("%s has no perfbench/run.py" % tree)
    cache = next(tree.rglob("__pycache__"), None)
    if cache is not None:
        raise SystemExit("%s holds a bytecode cache (%s); benchmark a fresh export"
                         % (tree, cache))


def run_once(tree, argv):
    """The JSON result of one `perfbench/run.py` run on tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py"] + argv, cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s: perfbench/run.py exited %d\n%s"
                         % (tree, done.returncode, done.stderr[-2000:]))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise SystemExit("%s: the last line of perfbench/run.py is not JSON: %r"
                         % (tree, lines[-1])) from None


def spread(values):
    """{median, q1, q3} of values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, metrics):
    """The summary rows of the metrics that the first run reports."""
    summary = {}
    for name, metric in metrics.items():
        if name not in pairs[0]["parent"]["metrics"]:
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        wins = [(change < parent) if metric["better"] == "lower" else (change > parent)
                for parent, change in zip(values["parent"], values["change"])]
        summary[name] = {"parent": spread(values["parent"]),
                         "change": spread(values["change"]),
                         "unit": metric["unit"], "pairs_better": sum(wins)}
    return summary


def host():
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), **versions}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=pathlib.Path)
    ap.add_argument("head", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.base.resolve(), "change": args.head.resolve()}
    for tree in trees.values():
        check_tree(tree)
    argv = ["--workload", args.workload, "--seed", "<seed>", "--seconds",
            "%g" % args.seconds, "--trace", "0"]
    pairs = []
    for seed in range(args.seed, args.seed + args.pairs):
        order = list(SIDES) if seed % 2 else list(reversed(SIDES))
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run_once(trees[side], [str(seed) if a == "<seed>" else a
                                                for a in argv])
            print("seed %d %-6s correct=%s failed=%s" % (
                seed, side, pair[side]["correct"], pair[side]["failed"]), flush=True)
        pairs.append(pair)
    last = args.seed + args.pairs - 1
    record = {
        "workload": args.workload,
        "command": " ".join(["python3", "perfbench/run.py"] + argv),
        "parent": trees["parent"].name, "change": trees["change"].name,
        "host": host(),
        "runs": "one process at a time with PYTHONDONTWRITEBYTECODE=1, each side from its "
                "own tree with no __pycache__; odd seeds of %d-%d run the parent first, "
                "even seeds the change first; quartiles by statistics.quantiles(n=4, "
                "method='inclusive')" % (args.seed, last),
        "summary": summarize(pairs, end_to_end()),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    bad = [(pair["seed"], side) for pair in pairs for side in SIDES
           if (pair[side]["correct"], pair[side]["failed"]) != (True, 0)]
    if bad:
        print("not correct, or failed operations: %s" % bad, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
