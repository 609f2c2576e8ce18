"""The committed benchmark files agree with their own runs.

Each ``BENCH_*.json`` at the root of the repository holds alternating pairs
of ``perfbench/run.py`` runs, one on a parent tree and one on a changed
tree, and a summary of them.  Every summary median and ``pairs_better``
count must follow from the file's own pairs, with each metric's direction
taken from ``BENCHMARK.json``, and every run must read correct with no
failed operation.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BETTER = {metric["name"]: metric["better"]
          for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


@pytest.fixture(params=FILES, ids=[path.name for path in FILES])
def bench(request):
    return json.loads(request.param.read_text())


def test_the_benchmark_files_are_found():
    assert FILES


def test_every_run_is_correct_with_no_failed_operation(bench):
    assert bench["pairs"]
    for pair in bench["pairs"]:
        for side in SIDES:
            assert (pair[side]["correct"], pair[side]["failed"]) == (True, 0), (
                pair["seed"], side)


def test_the_summary_follows_from_the_pairs(bench):
    assert bench["summary"]
    for name, row in bench["summary"].items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in bench["pairs"]]
                  for side in SIDES}
        for side in SIDES:
            assert row[side]["median"] == statistics.median(values[side]), (name, side)
        wins = [(change < parent) if BETTER[name] == "lower" else (change > parent)
                for parent, change in zip(values["parent"], values["change"])]
        assert row["pairs_better"] == sum(wins), name
