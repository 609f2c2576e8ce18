"""Smoke tests of tools/survey.py, the paired plan survey of two trees."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SURVEY = [sys.executable, str(ROOT / "tools" / "survey.py")]
SMALL = ["--specs", "3", "--seed", "1"]  # three specs that solve in milliseconds


def test_a_tree_against_itself_agrees():
    done = subprocess.run(SURVEY + [str(ROOT), str(ROOT)] + SMALL,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and "MISMATCH" not in done.stdout
    assert lines[3].startswith("3 specs (seed 1), 3 finished on both trees, 0 mismatches")
    assert lines[4].startswith("kernel passes over the specs both finished: ")


def fake_tree(root, solve_body):
    """A tree whose solve runs solve_body."""
    package = root / "src" / "dhtplan"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "import os, signal\n"
        "from types import SimpleNamespace\n"
        "def TestSpec(*args, **kwargs):\n"
        "    return args\n"
        "def solve(spec, method):\n"
        "    " + solve_body + "\n")
    (package / "_backend.py").write_text("def _term_sum(*args):\n    pass\n")


def test_a_mismatch_exits_one(tmp_path):
    fake_tree(tmp_path, "return SimpleNamespace(n=1, c=1, t_h=1.0)")
    done = subprocess.run(SURVEY + [str(ROOT), str(tmp_path)] + SMALL,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stdout.count("MISMATCH") == 3


def test_a_one_sided_timeout_exits_one(tmp_path):
    # the per-solve timer's signal, sent at once: every solve times out
    fake_tree(tmp_path, "os.kill(os.getpid(), signal.SIGPROF)")
    done = subprocess.run(SURVEY + [str(ROOT), str(tmp_path)] + SMALL,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stdout.count("ONE-SIDED") == 3 and "MISMATCH" not in done.stdout
    assert "0 finished on both trees, 0 mismatches; time-outs: 0 base, 3 head" in done.stdout
    for i in range(3):
        assert "spec %d timed out on the head tree only; rerun it alone" % i in done.stdout
