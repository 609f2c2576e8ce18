"""Tests of tools/bench_pairs.py, the alternating A/B benchmark driver, on
fake trees whose perfbench/run.py prints a fixed JSON last line."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "bench_pairs.py")]

#: A stand-in for perfbench/run.py: it notes its tree, seed and arguments in
#: runs.log beside the tree, then prints a report line and a result whose
#: values it looks up by seed.  A run is correct only without bytecode writes.
STUB = '''import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
tree = os.path.basename(os.getcwd())
with open(os.path.join(os.path.dirname(os.getcwd()), "runs.log"), "a") as log:
    log.write(json.dumps([tree, seed, sys.argv[1:]]) + "\\n")
value = %r[str(seed)]
print("report of", tree)
print(json.dumps({
    "correct": os.environ.get("PYTHONDONTWRITEBYTECODE") == "1" and %r,
    "attempted": 10, "failed": 0,
    "metrics": {"outcomes_per_s": {"value": value, "unit": "outcomes/s"},
                "verdict_ms_p50": {"value": 1 / value, "unit": "ms"},
                "not_a_benchmark_metric": {"value": 1, "unit": "x"}}}))
'''


def fake_tree(path, values, correct=True):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        STUB % ({str(seed): value for seed, value in values.items()}, correct))
    return path


def run(*args):
    return subprocess.run(TOOL + [str(arg) for arg in args], capture_output=True, text=True,
                          timeout=120)


def test_alternating_pairs_and_their_summary(tmp_path):
    base_values = {7: 100.0, 8: 110.0, 9: 120.0, 10: 130.0}
    head_values = {7: 150.0, 8: 90.0, 9: 160.0, 10: 170.0}  # worse on seed 8
    base = fake_tree(tmp_path / "base", base_values)
    head = fake_tree(tmp_path / "head", head_values)
    out = tmp_path / "BENCH.json"
    done = run(base, head, "--workload", "inspect-stream", "--pairs", 4, "--seconds", 0.5,
               "--seed", 7, "--out", out)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())

    # odd seeds run the base first, each with the seed and settings asked for
    log = [json.loads(line) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert [(tree, seed) for tree, seed, _ in log] == [
        ("base", 7), ("head", 7), ("head", 8), ("base", 8),
        ("base", 9), ("head", 9), ("head", 10), ("base", 10)]
    assert {tuple(argv) for _, seed, argv in log} == {
        ("--workload", "inspect-stream", "--seed", str(seed), "--seconds", "0.5", "--trace",
         "0") for seed in range(7, 11)}
    assert [(pair["seed"], pair["order"]) for pair in record["pairs"]] == [
        (7, ["parent", "change"]), (8, ["change", "parent"]),
        (9, ["parent", "change"]), (10, ["change", "parent"])]
    assert [pair["parent"]["metrics"]["outcomes_per_s"]["value"]
            for pair in record["pairs"]] == list(base_values.values())
    assert all(pair[side]["correct"] for pair in record["pairs"]
               for side in ("parent", "change"))  # so PYTHONDONTWRITEBYTECODE=1

    assert (record["workload"], record["parent"], record["change"]) == (
        "inspect-stream", "base", "head")
    assert record["command"] == ("python3 perfbench/run.py --workload inspect-stream "
                                 "--seed <seed> --seconds 0.5 --trace 0")
    assert {"nproc", "cpu_count", "python", "numpy", "scipy"} <= set(record["host"])
    assert "7-10" in record["runs"]

    # only BENCHMARK.json's metrics, in its order and its directions
    assert list(record["summary"]) == ["outcomes_per_s", "verdict_ms_p50"]
    for name, values in (("outcomes_per_s", (base_values, head_values)),
                         ("verdict_ms_p50", ({k: 1 / v for k, v in base_values.items()},
                                             {k: 1 / v for k, v in head_values.items()}))):
        row = record["summary"][name]
        for side, side_values in zip(("parent", "change"), values):
            side_values = list(side_values.values())
            q1, _, q3 = statistics.quantiles(side_values, n=4, method="inclusive")
            assert row[side] == {"median": statistics.median(side_values), "q1": q1,
                                 "q3": q3}
        assert row["pairs_better"] == 3
    assert record["summary"]["verdict_ms_p50"]["unit"] == "ms"


def test_one_pair_has_its_value_as_both_quartiles(tmp_path):
    base = fake_tree(tmp_path / "base", {3: 1.0})
    head = fake_tree(tmp_path / "head", {3: 2.0})
    out = tmp_path / "BENCH.json"
    done = run(base, head, "--workload", "w", "--pairs", 1, "--seconds", 1, "--seed", 3,
               "--out", out)
    assert done.returncode == 0, done.stderr
    row = json.loads(out.read_text())["summary"]["outcomes_per_s"]
    assert row["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert (row["change"]["median"], row["pairs_better"]) == (2.0, 1)


def test_a_tree_with_a_bytecode_cache_is_refused(tmp_path):
    base = fake_tree(tmp_path / "base", {1: 1.0})
    head = fake_tree(tmp_path / "head", {1: 1.0})
    (head / "src" / "dhtplan" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    done = run(base, head, "--workload", "w", "--pairs", 1, "--seconds", 1, "--seed", 1,
               "--out", out)
    assert done.returncode == 1 and "holds a bytecode cache" in done.stderr
    assert not out.exists() and not (tmp_path / "runs.log").exists()


def test_an_incorrect_run_is_kept_and_fails_the_tool(tmp_path):
    base = fake_tree(tmp_path / "base", {1: 1.0, 2: 1.0})
    head = fake_tree(tmp_path / "head", {1: 1.0, 2: 1.0}, correct=False)
    out = tmp_path / "BENCH.json"
    done = run(base, head, "--workload", "w", "--pairs", 2, "--seconds", 1, "--seed", 1,
               "--out", out)
    assert done.returncode == 1 and "not correct" in done.stderr
    pairs = json.loads(out.read_text())["pairs"]
    assert [pair["change"]["correct"] for pair in pairs] == [False, False]


def test_a_run_that_fails_stops_the_tool(tmp_path):
    base = fake_tree(tmp_path / "base", {1: 1.0})
    head = fake_tree(tmp_path / "head", {})  # no value for the seed: a KeyError
    out = tmp_path / "BENCH.json"
    done = run(base, head, "--workload", "w", "--pairs", 1, "--seconds", 1, "--seed", 1,
               "--out", out)
    assert done.returncode == 1 and "KeyError" in done.stderr
    assert not out.exists()
