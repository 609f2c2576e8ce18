"""CLI contract tests: flags, exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhtplan import TestSpec, solve
from dhtplan.cli import _METHOD_FLAGS, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestPlan:
    def test_newton_reference(self):
        code, out, _ = run(["plan", "--method", "norm-n",
                            "--p0", "0.02", "--p1", "0.05"])
        assert code == 0
        assert "n=383" in out and "c=13" in out
        assert "t_h=0.031733" in out

    def test_no_convergence_exit_two(self):
        code, out, err = run(["plan", "--method", "norm-i", "--p0", "0.2",
                              "--p1", "0.4", "--eps", "1e-6"])
        assert code == 2
        assert out == ""
        assert "best gap" in err

    @pytest.mark.parametrize("method,alpha,words", [
        ("bin", "1e-15", "exceeded cap"), ("poiss", "1e-15", "exceeded cap")])
    def test_tiny_alpha_exit_two(self, method, alpha, words):
        # 1 - alpha/2 lies above every partial sum the kernels reach, so the
        # scan gives up at the cap (Bin used to scan every count up to n at
        # every n)
        code, out, err = run(["plan", "--method", method, "--p0", "0.02",
                              "--p1", "0.05", "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and words in err and err.count("\n") == 1

    def test_tiny_alpha_norm_n_plans(self):
        # 1 - 1e-17 rounds to 1.0, but z is inverted from the tail itself:
        # z = 8.4937932, so n = ((z s0 + 1.64 s1) / 0.03)**2 = 2657.6 -> 2658
        # with s = sqrt(p q), and c = ceil(t_h n) = ceil(114.45)
        code, out, err = run(["plan", "--method", "norm-n", "--p0", "0.02",
                              "--p1", "0.05", "--alpha", "1e-17"])
        assert (code, err) == (0, "")
        assert "n=2658" in out and "c=115" in out

    def test_exact_z_mode(self):
        # the exact z quantiles size n=385 where the paper's rounded ones give 383
        code, out, _ = run(["--format", "jsonl", "plan", "--method", "norm-n",
                            "--p0", "0.02", "--p1", "0.05", "--z-mode", "exact"])
        assert code == 0
        rec = json.loads(out)
        plan = solve(TestSpec(0.02, 0.05, paper_compat_z=False), "Norm_N")
        assert (rec["n"], rec["c"], rec["t_h"]) == (plan.n, plan.c, plan.t_h)
        assert (plan.n, plan.c) == (385, 13)

    def test_max_n_stops_the_scan(self):
        code, out, err = run(["plan", "--method", "bin", "--p0", "0.015",
                              "--p1", "0.02", "--max-n", "1000"])
        assert (code, out) == (2, "")
        assert err.startswith("no convergence: Bin scan reached max_n=1000")
        assert err.count("\n") == 1

    def test_bad_rate_order_exit_one(self):
        code, _, err = run(["plan", "--method", "bin",
                            "--p0", "0.05", "--p1", "0.02"])
        assert code == 1
        assert "p0" in err

    def test_jsonl_format(self):
        code, out, _ = run(["--format", "jsonl", "plan", "--method", "norm-i",
                            "--p0", "0.02", "--p1", "0.05"])
        assert code == 0
        rec = json.loads(out)
        assert (rec["n"], rec["c"]) == (381, 12)
        assert rec["converged"] is True

    def test_byte_identical_reruns(self):
        argv = ["plan", "--method", "poiss", "--p0", "0.02", "--p1", "0.05"]
        assert run(argv) == run(argv)

    def test_norm_i_at_millions_of_trials(self):
        code, out, _ = run(["plan", "--method", "norm-i", "--p0", "0.0001",
                            "--p1", "0.00012", "--eps", "4e-7", "--max-n", "5000000"])
        assert code == 0
        assert "n=2837475" in out and "c=311" in out


class TestTable:
    def test_step3_rows(self):
        code, out, _ = run(["--format", "csv", "table", "--step", "0.03"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,c,t_h,r"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 8
        assert [int(r[3]) for r in rows] == [4, 5, 6, 7, 8, 8, 9, 10]
        assert int(rows[1][0]) == 495 and int(rows[1][1]) == 21

    def test_step5_second_row(self):
        code, out, _ = run(["--format", "csv", "table", "--step", "0.05"])
        rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
        n, c, t_h, r = int(rows[1][0]), int(rows[1][1]), float(rows[1][2]), int(rows[1][3])
        assert (n, c, r) == (288, 20, 6)
        assert t_h == pytest.approx(0.0694, abs=0.004)

    @pytest.mark.parametrize("flags,first_row", [([], (628, 3)),
                                                 (["--first-method", "poiss"], (630, 3))],
                             ids=["bin", "poiss"])
    def test_first_method(self, flags, first_row):
        code, out, _ = run(["--format", "csv", "table", "--step", "0.01", "--rows", "2"]
                           + flags)
        assert code == 0
        n, c = out.strip().splitlines()[2].split(",")[:2]
        assert (int(n), int(c)) == first_row

    def test_zero_step_exit_one(self):
        code, _, err = run(["table", "--step", "0"])
        assert code == 1

    def test_too_many_rows_exit_one(self):
        code, _, _ = run(["table", "--step", "0.05", "--rows", "10"])
        assert code == 1

    @pytest.mark.parametrize("argv", [["table", "--step", "0.05", "--rows", "3"],
                                      ["inspect", "--levels", "0,0.03,0.06"]],
                             ids=["table", "inspect"])
    def test_max_n_is_a_plan_flag(self, argv, capsys):
        # build_ladder takes no max_n, so a ladder command would ignore it
        code, out, _ = run(argv + ["--max-n", "2"])
        assert (code, out) == (1, "")
        assert "error: unrecognized arguments: --max-n 2" in capsys.readouterr().err


class TestInspect:
    ARGS = ["inspect", "--levels", "0,0.03,0.06"]

    def test_accept_clean_stream(self, monkeypatch, tmp_path):
        # first plan n is below 250; 250 clean outcomes are ample
        code, out, _ = run(self.ARGS, stdin_text="0\n" * 250,
                           monkeypatch=monkeypatch)
        assert code == 0
        assert "status=accepted" in out
        assert "level=0" in out.splitlines()[-1]

    def test_malformed_token_names_line(self, monkeypatch):
        text = "0\n" * 6 + "2\n"
        code, _, err = run(self.ARGS, stdin_text=text, monkeypatch=monkeypatch)
        assert code == 1
        assert "line 7" in err

    def test_reject_dirty_stream(self, monkeypatch):
        code, out, _ = run(self.ARGS, stdin_text="1\n" * 60,
                           monkeypatch=monkeypatch)
        assert code == 3
        assert "rejected_beyond_last" in out

    def test_escalation_event_logged_before_decision(self, monkeypatch):
        code, out, _ = run(self.ARGS, stdin_text="1\n" * 5 + "0\n" * 600,
                           monkeypatch=monkeypatch)
        assert "escalate" in out

    def test_short_stream_inconclusive(self, monkeypatch):
        code, out, _ = run(self.ARGS, stdin_text="0\n" * 10,
                           monkeypatch=monkeypatch)
        assert code == 4
        assert "inconclusive" in out

    def test_reads_no_line_past_the_verdict(self, monkeypatch):
        # and writes each outcome's record before it reads the next line; the
        # csv header lines come with the first record
        for fmt, header in (("kv", 0), ("csv", 2), ("jsonl", 0)):
            out = io.StringIO()
            drawn = []

            def stdin():
                for i in range(250):
                    assert out.getvalue().count("\n") == (header + i if i else 0), (fmt, i)
                    drawn.append(i)
                    yield "0\n"
                raise AssertionError("line 251 was read")

            # the first plan is (n, c) = (208, 3)
            monkeypatch.setattr(sys, "stdin", stdin())
            code = main(["--format", fmt] + self.ARGS, out=out, err=io.StringIO())
            assert code == 0, fmt
            assert len(drawn) == 208, fmt
            if fmt == "kv":
                last = out.getvalue().splitlines()[-1]
                assert last.startswith("status=accepted level=0") and "trials=208" in last

    def test_blank_lines_are_skipped(self, monkeypatch):
        # an escalation and then an accept, with and without blank lines
        tokens = ["1"] * 5 + ["0"] * 600
        plain = run(self.ARGS, stdin_text="".join(t + "\n" for t in tokens),
                    monkeypatch=monkeypatch)
        spaced = run(self.ARGS, stdin_text="\n" + "".join(t + "\n\n  \n" for t in tokens),
                     monkeypatch=monkeypatch)
        assert spaced == plain
        assert plain[0] == 0 and "escalate" in plain[1]

    def test_file_input(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("0\n" * 250)
        code, out, _ = run(self.ARGS + ["--input", str(path)])
        assert code == 0
        assert "accepted" in out


def _stream_text(seed, rate, lines, bad_line=None):
    """A seeded 0/1 outcome file, with the token "x" at bad_line if given."""
    rng = random.Random(seed)
    rows = ["1" if rng.random() < rate else "0" for _ in range(lines)]
    if bad_line is not None:
        rows[bad_line - 1] = "x"
    return "".join(row + "\n" for row in rows)


#: the table ladder's levels 0, 0.01, ..., 0.08, as cli-mix runs them
TABLE_LEVELS = ",".join("%g" % (i / 100) for i in range(9))

# (levels, file arguments, exit code, sha256 of stdout per format) for
# `inspect`, recorded with the engine that ran the transition rule on every
# outcome in turn and the emitter that built one dict per event
INSPECT_GOLDEN = {
    "accepting": ("0,0.03,0.06", (11, 0.01, 600), 0, {
        "kv": "0365a51b7d1da411141b342d8583790dff5ef10a783502284e0c83cb96cfbefb",
        "csv": "1558e05ea7ac8f2138037a0bcda90db7c0261bc0094751e9a4a474f67ec1873c",
        "jsonl": "03bd8702e6ef8effd4199a112dbf87089678a05ebce91a2b32a76406cbdcd1e1"}),
    "rejecting": ("0,0.03,0.06", (12, 0.12, 600), 3, {
        "kv": "3989f7f40ecf97f5054b0aaa9a5cce91885c305934d27409a33311c0e99e9674",
        "csv": "dfe3a18582311a098c2e777eb5ad5ecf40b76a9c5e544b67b907326261e5d49f",
        "jsonl": "643a249353cb3b218cc7bf5a092b59356adb76aa0bc2a4eaaae6e1eed1a092bd"}),
    "inconclusive": ("0,0.03,0.06", (13, 0.03, 150), 4, {
        "kv": "a80ef5471a6094efbb4ec4c98de0fb2605c3d8adc3101f1644aaa2b69cee0c68",
        "csv": "89a5a9942930531f16f31dfb67ca0086d71a153e92a84f3bee8c1681267aae01",
        "jsonl": "5ea87e836468a8a969d2125426999521264c191d5d040803e92e0031bb3e5819"}),
    "malformed_at_line_7": ("0,0.03,0.06", (14, 0.2, 40, 7), 1, {
        "kv": "bd19417a6840030e56731ac23bd4201dd1464f33fba8301cabb1052f33b1ee64",
        "csv": "a2687e0f18729bd5f7cfc528266c310b403fc059e6a8e80f6d553471ff8935b9",
        "jsonl": "f627ad72e41d666a215d488fa4c49de53390a9e94aca207daa70f555c876a98d"}),
    # cli-mix's call: 3000 outcomes at 4.5% escalate four times on the table
    # ladder and end inconclusive at level 4
    "cli_mix": (TABLE_LEVELS, (15, 0.045, 3000), 4, {
        "kv": "9123749fdc99b91491bfd9c041debb6b02380e4afb2d13cf4827f67194f42268",
        "csv": "52dd713d043290309748393f429691c0c9aeb9027a8cac398adeb46732227f04",
        "jsonl": "f8e9133e54fe52fc9d4e5f335d444f71b502e08083de5f49275406b17ce9dec5"}),
    # no event comes before the error, so no csv header either
    "malformed_at_line_1": ("0,0.03,0.06", (16, 0.2, 40, 1), 1, {
        "kv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}),
    # the verdict record alone
    "empty": ("0,0.03,0.06", (17, 0.2, 0), 4, {
        "kv": "b8f3af9ff0d6e3f6123421cf66bcd6302df37976168f2fb97202ced96575e43f",
        "csv": "d1f01078d9e696907d242c0d7f4c6d9c4761bcce51204d08b053c0acbeb4618a",
        "jsonl": "e23be1e5048c8a136c6ffbf3b8435321fe1b5b25b7acbbbf82e452d5ac325050"}),
}


class TestInspectGolden:
    @pytest.mark.parametrize("fmt", ["kv", "csv", "jsonl"])
    @pytest.mark.parametrize("name", sorted(INSPECT_GOLDEN))
    def test_output_is_byte_identical(self, monkeypatch, name, fmt):
        levels, file_args, exit_code, digests = INSPECT_GOLDEN[name]
        code, out, err = run(["--format", fmt, "inspect", "--levels", levels],
                             stdin_text=_stream_text(*file_args), monkeypatch=monkeypatch)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]
        if exit_code == 1:
            # the records of the lines before the bad one come first, each a
            # success
            bad_line = file_args[3]
            assert err == "error: malformed token 'x' at line %d\n" % bad_line
            records = [line for line in out.splitlines() if "continue" in line]
            assert len(records) == bad_line - 1
        else:
            assert err == ""


class TestSmallCommands:
    def test_sfl(self):
        code, out, _ = run(["sfl", "--p", "0.02", "--ex", "1e6"])
        assert code == 0
        assert "r=4" in out
        assert "r_raw=3.5263875" in out

    def test_sfl_where_the_map_stops_contracting(self):
        code, out, _ = run(["sfl", "--p", "0.999", "--ex", "1000"])
        assert code == 0
        assert "r_raw=692.80055 r=693 " in out

    def test_sfl_no_fixed_point(self):
        code, _, err = run(["sfl", "--p", "0.4", "--ex", "1.5"])
        assert code == 2

    def test_select_bin(self):
        code, out, _ = run(["select", "--step", "0.001", "--th", "0.05",
                            "--texec", "3", "--prec", "5e-4"])
        assert code == 0
        assert "label=Bin" in out
        assert "rule_1=1" in out

    def test_select_no_recommendation(self):
        code, _, err = run(["select", "--step", "0.001", "--th", "0.05",
                            "--texec", "0.2", "--prec", "5e-4"])
        assert code == 2

    def test_select_clamp_is_one_line(self):
        code, out, err = run(["select", "--step", "0.001", "--th", "0.05",
                              "--texec", "20", "--prec", "5e-4"])
        assert code == 0
        assert "label=Poiss" in out
        assert err == "warning: t_exec=20 outside universe [0, 12]; clamped\n"
        assert ".py:" not in err

    def test_select_config_file(self, tmp_path, readme_fuzzy_config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(readme_fuzzy_config()))
        argv = ["select", "--step", "0.001", "--th", "0.05",
                "--texec", "3", "--prec", "5e-4"]
        assert run(argv + ["--fuzzy-config", str(path)]) == run(argv)

    def test_oc_grid(self):
        code, out, _ = run(["oc", "--n", "383", "--c", "13",
                            "--grid", "0:0.1:0.005"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "p,accept_prob"
        rows = lines[2:]
        assert len(rows) == 21
        assert rows[0] == "0,1"

    def test_oc_validation(self):
        assert run(["oc", "--n", "10", "--c", "0", "--grid", "0:1:0.5"])[0] == 1
        assert run(["oc", "--n", "10", "--c", "2", "--grid", "1:0:0.5"])[0] == 1

    def test_simulate_deterministic(self):
        argv = ["simulate", "--n", "383", "--c", "13", "--p", "0.02",
                "--reps", "2000", "--seed", "9"]
        first = run(argv)
        assert first[0] == 0
        assert "rate=" in first[1] and "half_width=" in first[1]
        assert run(argv) == first

    def test_simulate_seed_from_environment(self, monkeypatch):
        argv = ["simulate", "--n", "383", "--c", "13", "--p", "0.02",
                "--reps", "2000"]
        monkeypatch.setenv("DHTPLAN_SEED", "9")
        from_env = run(argv)
        assert from_env[0] == 0
        assert from_env == run(argv + ["--seed", "9"])

    def test_bad_seed_environment_only_breaks_simulate(self, monkeypatch, capsys):
        monkeypatch.setenv("DHTPLAN_SEED", "abc")
        code, out, _ = run(["sfl", "--p", "0.02"])
        assert code == 0 and "r=4" in out
        code, out, _ = run(["simulate", "--n", "383", "--c", "13", "--p", "0.02"])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "--seed: invalid int value: 'abc'" in err
        assert "Traceback" not in err

    def test_simulate_rep_floor(self):
        code, _, _ = run(["simulate", "--n", "10", "--c", "2", "--p", "0.1",
                          "--reps", "50"])
        assert code == 2

    def test_usage_error(self):
        assert run(["plan", "--method", "bogus", "--p0", "0.1",
                    "--p1", "0.2"])[0] == 1


#: Each ``$ dhtplan ...`` example in README: its command line and the lines
#: shown under it, up to the next blank line or code fence.
README_EXAMPLES = re.findall(r"^\$ dhtplan (.*)\n((?:(?!```).+\n)*)", README.read_text(),
                             re.M)


class TestReadmeExamples:
    def test_every_example_is_found(self):
        assert len(README_EXAMPLES) == 7

    @pytest.mark.parametrize("command, shown", README_EXAMPLES,
                             ids=[command for command, _ in README_EXAMPLES])
    def test_example_output_is_reproduced(self, tmp_path, command, shown):
        # "..." alone on a line stands for any lines, and within a line for
        # any text; the inspect example reads 208 clean outcomes
        stream = tmp_path / "outcomes.txt"
        stream.write_text("0\n" * 208)
        argv = [str(stream) if word == "outcomes.txt" else word
                for word in shlex.split(command)]
        pattern = "".join("(?:.*\n)*" if line == "..." else
                          ".*".join(map(re.escape, line.split("..."))) + "\n"
                          for line in shown.splitlines())
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert re.fullmatch(pattern, out), out


class TestErrorBoundary:
    SELECT = ["select", "--step", "0.001", "--th", "0.05", "--texec", "3",
              "--prec", "5e-4"]

    def _one_line_error(self, argv, exit_code=1):
        code, out, err = run(argv)
        assert code == exit_code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_oc_grid_beyond_unit_interval(self):
        err = self._one_line_error(["oc", "--n", "10", "--c", "2",
                                          "--grid", "0:2:0.5"])
        assert "[0, 1]" in err

    def test_oc_grid_not_finite(self):
        err = self._one_line_error(["oc", "--n", "10", "--c", "2",
                                    "--grid", "nan:1:0.1"])
        assert "finite" in err

    def test_oc_trials_beyond_2_53(self):
        # float(10**400) overflows; the kernel's domain check must come first
        for n in ("100000000000000000000", "1" + "0" * 400):
            err = self._one_line_error(["oc", "--n", n, "--c", "5",
                                        "--grid", "0:1:0.5"])
            assert "trial count n" in err

    def test_oc_grid_without_three_fields(self):
        err = self._one_line_error(["oc", "--n", "10", "--c", "2", "--grid", "0:1"])
        assert err == "error: grid must be start:stop:step\n"

    def test_oc_c_above_the_cap(self):
        # README: an oc --c above 10^6 exits 1
        err = self._one_line_error(["oc", "--n", "2000000", "--c", "1000001"])
        assert err == "error: --c must be at most 1000000, got 1000001\n"

    def test_inspect_levels_not_rates(self):
        err = self._one_line_error(["inspect", "--levels", "0,abc"])
        assert err == "error: --levels must be a comma-separated list of rates\n"

    def test_norm_n_iterate_leaves_the_positive_domain(self):
        err = self._one_line_error(["plan", "--method", "norm-n", "--p0", "0", "--p1", "0.49",
                                    "--alpha", "0.49", "--beta", "0.49"], exit_code=2)
        assert err == "error: Newton iterate left the positive domain\n"

    def test_table_rows_below_one(self):
        err = self._one_line_error(["table", "--step", "0.01", "--rows", "-1"])
        assert "--rows" in err

    def test_select_nan_input(self):
        argv = list(self.SELECT)
        argv[argv.index("--step") + 1] = "nan"
        err = self._one_line_error(argv)
        assert "step" in err and "nan" in err

    def test_simulate_zero_trials(self):
        err = self._one_line_error(["simulate", "--n", "0", "--c", "1",
                                    "--p", "0.1"], exit_code=2)
        assert "n must be >= 1" in err

    def test_simulate_trials_beyond_int64(self):
        err = self._one_line_error(["simulate", "--n", "100000000000000000000",
                                    "--c", "3", "--p", "0.1"], exit_code=2)
        assert "2**63 - 1" in err

    def test_simulate_rate_nan(self):
        err = self._one_line_error(["simulate", "--n", "383", "--c", "13",
                                    "--p", "nan"], exit_code=2)
        assert err == "error: p_true must be in [0, 1], got nan\n"

    @pytest.mark.parametrize("command", [["table", "--step", "0.05", "--rows", "3"],
                                         ["inspect", "--levels", "0,0.05,0.1", "--input", "-"]])
    def test_bin_tail_below_the_walker_floor(self, command):
        # without the floor the (0.05, 0.10) scan at this beta runs past 15 s
        err = self._one_line_error(command + ["--beta", "1e-320", "--method", "bin"],
                                   exit_code=2)
        assert "needs beta >= 2**-899" in err and "1e-320" in err

    @pytest.mark.parametrize("command", [["plan", "--p0", "0.10", "--p1", "0.15"],
                                         ["table", "--step", "0.05", "--rows", "3"]])
    def test_bin_alpha_whose_target_rounds_to_one(self, command):
        # plan exited 0 with (3386, 471) here, a plan that ignores alpha
        err = self._one_line_error(command + ["--alpha", "1e-20", "--method", "bin"],
                                   exit_code=2)
        assert "needs alpha > 2**-53" in err and "1e-20" in err

    def test_table_step_nan(self):
        err = self._one_line_error(["table", "--step", "nan"])
        assert "--step" in err and "nan" in err

    @pytest.mark.parametrize("p,ex,message", [
        ("0.1", "nan", "ex must be finite and >= 1, got nan"),
        ("0.1", "inf", "ex must be finite and >= 1, got inf"),
        ("nan", "1e6", "must be in (0, 1), got nan")])
    def test_sfl_flag_not_finite(self, p, ex, message):
        err = self._one_line_error(["sfl", "--p", p, "--ex", ex], exit_code=2)
        assert message in err

    @pytest.mark.parametrize("fmt", ["kv", "csv", "jsonl"])
    @pytest.mark.parametrize("p,r", [("1e-300", 2), ("0.5", 1023)],
                             ids=["underflow", "overflow"])
    def test_sfl_mean_recurrence_beyond_float_range(self, fmt, p, r):
        # r is found, but its mean recurrence (1e600, 2**1024) is no float:
        # no traceback, and no Infinity in a jsonl record
        err = self._one_line_error(["--format", fmt, "sfl", "--p", p, "--ex", "1e308"],
                                   exit_code=2)
        assert err == ("error: the mean recurrence of a %d-run at p = %s lies beyond "
                       "the float range\n" % (r, p))

    def test_plan_rate_nan(self):
        err = self._one_line_error(["plan", "--method", "bin", "--p0", "nan",
                                    "--p1", "0.05"])
        assert "p0 must be a finite rate, got nan" in err

    def test_inspect_level_nan(self):
        err = self._one_line_error(["inspect", "--levels", "0,nan"], exit_code=2)
        assert "p1 must be a finite rate, got nan" in err

    def test_inspect_plan_that_can_never_accept(self, tmp_path):
        # the first pair's Norm_I plan is (n, c) = (5032, 0)
        path = tmp_path / "stream.txt"
        path.write_text("0\n1\n0\n")
        err = self._one_line_error(["inspect", "--levels", "0.00001,0.0005,0.001",
                                    "--input", str(path)], exit_code=2)
        assert "(1e-05, 0.0005) has c = 0 and can never accept" in err

    def test_oc_grid_too_fine_returns_at_once(self):
        # the points are counted, not built: a 1e300-point grid must not hang,
        # nor one with 1e308 points in the 1e-12 slack past its stop
        for grid, step in (("0:1:1e-300", "1e-300"), ("0.5:0.5:1e-320", "9.99989e-321")):
            proc = subprocess.run(
                [sys.executable, "-m", "dhtplan.cli", "oc", "--n", "10", "--c", "2",
                 "--grid", grid],
                env=_env_with_src(), capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr == ("error: grid step %s gives more than "
                                   "1000000 points\n" % step)

    def test_oc_huge_c_returns_at_once(self):
        # each point would sum 5e10 binomial terms
        proc = subprocess.run(
            [sys.executable, "-m", "dhtplan.cli", "oc", "--n", "100000000000",
             "--c", "50000000000", "--grid", "0.5:0.5:0.1"],
            env=_env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: --c must be at most 1000000, got 50000000000\n"

    def test_table_too_many_rows_returns_at_once(self):
        # the row count is tested before any level is built: 10**12 levels
        # would not fit in memory, so the child may not map more than 2 GB.
        # At a step of 1e-13 they stay under the 0.5 ceiling, past the row cap
        def limit_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        for step, message in (
                ("0.01", "1000000000000 rows at step 0.01 exceed the 0.5 rate ceiling"),
                ("1e-13", "--rows must be in [1, 1000], got 1000000000000")):
            proc = subprocess.run(
                [sys.executable, "-m", "dhtplan.cli", "table", "--step", step,
                 "--rows", "1000000000000"],
                env=_env_with_src(), capture_output=True, text=True, timeout=60,
                preexec_fn=limit_memory)
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr == "error: %s\n" % message

    def test_simulate_too_many_draws(self):
        # the limit is on trials simulated, n times reps, not on lots
        err = self._one_line_error(["simulate", "--n", "100000000000", "--c", "5",
                                    "--p", "0.1", "--reps", "100", "--seed", "1"])
        assert err == ("error: --n times --reps must be at most 10000000000 draws, "
                       "got 10000000000000\n")

    @pytest.mark.parametrize("c", ["0", "384"])
    def test_simulate_c_outside_one_to_n(self, c):
        err = self._one_line_error(["simulate", "--n", "383", "--c", c,
                                    "--p", "0.02", "--reps", "1000"])
        assert "need 1 <= c <= n" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_simulate_seed_outside_philox_key(self, seed):
        err = self._one_line_error(["simulate", "--n", "383", "--c", "13",
                                    "--p", "0.02", "--reps", "1000",
                                    "--seed", seed])
        assert "--seed must be in [0, 2**128), got " + seed in err

    def test_table_ex_nan(self):
        err = self._one_line_error(["table", "--step", "0.01", "--ex", "nan"],
                                   exit_code=2)
        assert "ex" in err and "nan" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_plan_epsilon_not_finite(self, eps):
        err = self._one_line_error(["plan", "--method", "bin", "--p0", "0.02",
                                    "--p1", "0.05", "--eps", eps])
        assert "epsilon" in err

    def test_inspect_missing_input(self, tmp_path):
        missing = tmp_path / "missing.txt"
        err = self._one_line_error(["inspect", "--levels", "0,0.03,0.06",
                                          "--input", str(missing)])
        assert "missing.txt" in err

    def test_select_missing_fuzzy_config(self, tmp_path):
        missing = tmp_path / "nonexistent.json"
        err = self._one_line_error(self.SELECT + ["--fuzzy-config", str(missing)])
        assert "nonexistent.json" in err

    def test_select_fuzzy_config_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("memberships: [")
        err = self._one_line_error(self.SELECT + ["--fuzzy-config", str(path)])
        assert "Expecting value" in err

    def _bad_fuzzy_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return self._one_line_error(self.SELECT + ["--fuzzy-config", str(path)])

    def test_select_fuzzy_config_missing_key(self, tmp_path, readme_fuzzy_config):
        assert "'memberships'" in self._bad_fuzzy_config(tmp_path, {})
        cfg = readme_fuzzy_config()
        del cfg["outputs"]
        assert "'outputs'" in self._bad_fuzzy_config(tmp_path, cfg)

    def test_select_fuzzy_config_variable_sets_not_an_object(self, tmp_path,
                                                            readme_fuzzy_config):
        cfg = readme_fuzzy_config()
        cfg["memberships"]["step"] = list(cfg["memberships"]["step"].values())
        err = self._bad_fuzzy_config(tmp_path, cfg)
        assert err == "error: fuzzy config: memberships.step must be an object\n"

    def test_select_fuzzy_config_rules_not_a_list(self, tmp_path, readme_fuzzy_config):
        cfg = readme_fuzzy_config()
        cfg["rules"] = 3
        assert "'rules'" in self._bad_fuzzy_config(tmp_path, cfg)

    def test_select_fuzzy_config_rule_without_if_or_then(self, tmp_path,
                                                         readme_fuzzy_config):
        for key in ("if", "then"):
            cfg = readme_fuzzy_config()
            del cfg["rules"][2][key]
            err = self._bad_fuzzy_config(tmp_path, cfg)
            assert "rule 3" in err and repr(key) in err

    def test_select_fuzzy_config_trapezoid_without_four_points(self, tmp_path,
                                                               readme_fuzzy_config):
        cfg = readme_fuzzy_config()
        var, labs = next(iter(cfg["memberships"].items()))
        label = next(iter(labs))
        labs[label] = labs[label][:3]
        err = self._bad_fuzzy_config(tmp_path, cfg)
        assert "memberships.%s.%s" % (var, label) in err and "4" in err

    def test_select_fuzzy_config_string_negation_flag(self, tmp_path, readme_fuzzy_config):
        # a JSON "false" is no boolean; read as truthy it negated rule 8
        cfg = readme_fuzzy_config()
        cfg["rules"][7]["if"][0][2] = "false"
        err = self._bad_fuzzy_config(tmp_path, cfg)
        assert "rule 8" in err and "boolean" in err

    def test_select_fuzzy_config_unknown_input_variable(self, tmp_path,
                                                        readme_fuzzy_config):
        # a rule may name the set of a variable that is no selector input;
        # inference would find no value for it
        cfg = readme_fuzzy_config()
        cfg["memberships"]["speed"] = {"Fast": [0, 0, 1, 2]}
        cfg["rules"][0]["if"].append(["speed", "Fast", False])
        err = self._bad_fuzzy_config(tmp_path, cfg)
        assert "'speed'" in err and "step, t_h, t_exec, prec_abs" in err


# flag values at and past the edges of every domain; a flag draws from
# these or from a few usual values of its own, so that many calls get past
# the checks into the solvers, the engine and the kernels
ODD_FLOATS = ("nan", "inf", "-inf", "0", "-0", "-1", "1", "0.5", "1e-320", "1e-12", "1e308")
# "1.5" is no int, for argparse's own error
ODD_INTS = ("-1", "0", "1", str(2 ** 53 + 1), str(10 ** 30), "1.5")
METHODS = tuple(sorted(_METHOD_FLAGS))


@st.composite
def odd_argvs(draw):
    """A subcommand with odd values for its flags, each as --flag=value so
    that argparse reads a leading minus as part of the value; inspect reads
    the file STREAM.  Plans scan at most 500 n, to keep each call short."""

    def odd(*usual, values=ODD_FLOATS):
        # one flag in four takes an odd value
        if draw(st.integers(0, 3)):
            return st.sampled_from(usual)
        return st.sampled_from(values)

    def maybe(values):
        return st.none() | values

    def flags(**choices):
        argv = []
        for name, values in choices.items():
            value = draw(values)
            if value is not None:
                argv.append("--%s=%s" % (name.replace("_", "-"), value))
        return argv

    tails = dict(alpha=maybe(odd("0.05", "1e-6")), beta=maybe(odd("0.05", "0.1")),
                 eps=maybe(odd("0.01", "1e-5")), z_mode=st.sampled_from(["paper", "exact"]))
    ladder = dict(tails, method=st.sampled_from(METHODS),
                  first_method=maybe(st.sampled_from(METHODS)),
                  ex=maybe(odd("1e6", "10")))
    command = draw(st.sampled_from(["plan", "table", "inspect", "sfl", "select", "oc",
                                    "simulate"]))
    if command == "plan":
        argv = flags(p0=odd("0", "0.02", "0.2"), p1=odd("0.05", "0.3", "1e-300"),
                     method=st.sampled_from(METHODS),
                     max_n=odd("2", "500", values=("-1", "0", "1", "1.5")),
                     **tails)
    elif command == "table":
        argv = flags(step=odd("0.05", "0.1"), rows=odd("2", "3", values=ODD_INTS), **ladder)
    elif command == "inspect":
        levels = st.lists(odd("0", "0.05", "0.1", "0.2"), min_size=1, max_size=3, unique=True)
        levels = levels.map(lambda xs: ",".join(sorted(xs, key=float)))
        argv = flags(levels=levels, **ladder) + ["--input=STREAM"]
    elif command == "sfl":
        argv = flags(p=odd("0.02", "0.9"), ex=maybe(odd("1e6", "2")))
    elif command == "select":
        argv = flags(step=odd("0.001", "0.01"), th=odd("0.05", "0.3"), texec=odd("3", "10"),
                     prec=odd("5e-4", "1e-4"))
    elif command == "oc":
        grid = st.tuples(odd("0", "0.5"), odd("1", "0.5"), odd("0.05", "0.25")).map(":".join)
        argv = flags(n=odd("383", "10", values=ODD_INTS), c=odd("13", "2", values=ODD_INTS),
                     grid=maybe(grid))
    else:
        argv = flags(n=odd("383", "10", values=ODD_INTS), c=odd("13", "2", values=ODD_INTS),
                     p=odd("0.02", "0.3"), reps=odd("1000", "2", values=ODD_INTS),
                     seed=maybe(odd("7", values=ODD_INTS)))
    return flags(format=maybe(st.sampled_from(["kv", "csv", "jsonl"]))) + [command] + argv


def _refuse_constant(name):
    raise AssertionError("%s in a jsonl record" % name)


class TestOddArgv:
    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv") / "stream.txt"
        path.write_text("0\n1\n" * 20)
        return path

    @given(argv=odd_argvs())
    # rates at which 699 / rate, the walker's move length, overflows
    @example(argv=["plan", "--p0=0", "--p1=1e-320", "--method=bin"])
    @example(argv=["plan", "--p0=1e-321", "--p1=1e-320", "--method=poiss"])
    # a closed-form normal trial count beyond the float range
    @example(argv=["plan", "--p0=0", "--p1=5e-324", "--method=norm-n"])
    # mean recurrences beyond the float range, as p ** r underflows or not
    @example(argv=["sfl", "--p=1e-300", "--ex=1e308"])
    @example(argv=["--format=jsonl", "sfl", "--p=0.5", "--ex=1e308"])
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_line_message(self, stream, argv):
        # every exit is a documented code, and a failure (1 usage, 2 compute)
        # ends in one error: or no ... line; select may warn of clamps first.
        # Each jsonl line is JSON, with no NaN or Infinity
        argv = [a.replace("STREAM", str(stream)) for a in argv]
        usage = io.StringIO()
        with contextlib.redirect_stderr(usage):
            code, out, err = run(argv)
        assert code in (0, 1, 2, 3, 4), argv
        if "--format=jsonl" in argv:
            for line in out.splitlines():
                json.loads(line, parse_constant=_refuse_constant)
        if code in (3, 4):
            assert err == "" and out, argv  # a verdict, on stdout
        elif code in (1, 2) and not err:
            # argparse's usage block, on sys.stderr, is one message ending in
            # its error line
            assert code == 1 and ": error: " in usage.getvalue().splitlines()[-1], argv
        elif code in (1, 2):
            lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
            assert len(lines) == 1, (argv, err)
            assert lines[0].startswith(("error: ", "no ")), (argv, err)


class TestParserDefaults:
    """The parser repeats the library's defaults, so that building it
    imports no solver; each must equal the one it repeats."""

    def _parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_plan_defaults_are_test_specs(self):
        args = self._parse("plan", "--method", "bin", "--p0", "0.02", "--p1", "0.05")
        spec = TestSpec(0.02, 0.05)
        assert args.max_n == spec.max_n
        assert (args.alpha, args.beta, args.eps) == (spec.alpha_tail, spec.beta_tail,
                                                     spec.epsilon)
        assert (args.z_mode == "paper") is spec.paper_compat_z

    @pytest.mark.parametrize("argv", [["table", "--step", "0.03"],
                                      ["inspect", "--levels", "0,0.03,0.06"]])
    def test_ladder_defaults_are_build_ladders(self, argv):
        import inspect

        from dhtplan.inspection_engine import build_ladder
        from dhtplan.run_limits import DEFAULT_EX

        args = self._parse(*argv)
        defaults = {name: p.default
                    for name, p in inspect.signature(build_ladder).parameters.items()}
        assert (args.alpha, args.beta, args.eps) == (defaults["alpha_tail"],
                                                     defaults["beta_tail"],
                                                     defaults["epsilon"])
        assert args.ex == defaults["ex"] == DEFAULT_EX
        assert _METHOD_FLAGS[args.method] == defaults["method"]
        assert args.first_method is defaults["first_method"] is None
        assert (args.z_mode == "paper") is defaults["paper_compat_z"]

    def test_sfl_ex_is_run_limits(self):
        from dhtplan.run_limits import DEFAULT_EX, SflQuery

        assert self._parse("sfl", "--p", "0.02").ex == DEFAULT_EX == SflQuery(0.02).ex


class TestLeanImport:
    """Only Monte Carlo and oc_curve need numpy; every other path runs without it."""

    def test_numpy_loaded_only_by_simulate(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("0\n" * 250)
        script = """
import io, sys
import dhtplan
from dhtplan.cli import main
assert "numpy" not in sys.modules, "import dhtplan"
for argv in (["plan", "--method", "bin", "--p0", "0.02", "--p1", "0.05"],
             ["table", "--step", "0.03"],
             ["inspect", "--levels", "0,0.03,0.06", "--input", sys.argv[1]],
             ["sfl", "--p", "0.02"],
             ["select", "--step", "0.001", "--th", "0.05", "--texec", "3",
              "--prec", "5e-4"],
             ["oc", "--n", "383", "--c", "13"]):
    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
assert main(["simulate", "--n", "383", "--c", "13", "--p", "0.02", "--reps", "1000"],
            out=io.StringIO(), err=io.StringIO()) == 0
assert "numpy" in sys.modules, "simulate"
"""
        proc = subprocess.run([sys.executable, "-c", script, str(stream)],
                              env=_env_with_src(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_verification_imports_without_numpy(self):
        # oc_curve loads numpy only on a grid of _ARRAY_POINTS points or more;
        # a shorter one is the per-point loop
        script = """
import sys
import dhtplan.verification as v
assert "numpy" not in sys.modules, "import dhtplan.verification"
v.accept_probability(383, 13, 0.02)
plan = type("Plan", (), dict(n=383, c=13, converged=True))
v.oc_curve(plan, [0.0, 1.0])
assert "numpy" not in sys.modules, "oc_curve on endpoints"
v.oc_curve(type("Plan", (), dict(n=7360, c=128, converged=True)), [0.0, 0.015])
assert "numpy" not in sys.modules, "oc_curve on two points"
short = [i / 1000 for i in range(v._backend._ARRAY_POINTS - 1)]
v.oc_curve(plan, short)
assert "numpy" not in sys.modules, "oc_curve on a short grid"
v.oc_curve(plan, short + [0.5])
assert "numpy" in sys.modules, "oc_curve"
"""
        proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_loads_dataclasses(self):
        # the public records are built by dhtplan._record
        script = """
import importlib, pkgutil, sys
import dhtplan
names = [info.name for info in pkgutil.iter_modules(dhtplan.__path__)]
for name in names:
    importlib.import_module("dhtplan." + name)
assert "dataclasses" not in sys.modules, names
print(len(names))
"""
        proc = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) >= 10

    ALWAYS = {"dhtplan", "dhtplan.cli", "dhtplan.errors", "dhtplan._record"}
    KERNELS = {"dhtplan.stat_kernels", "dhtplan._backend"}
    ENGINE = {"dhtplan.inspection_engine", "dhtplan.plan_solvers",
              "dhtplan.run_limits"} | KERNELS

    @pytest.mark.parametrize("argv,expected", [
        (None, {"dhtplan"}),
        (["sfl", "--p", "0.02"], ALWAYS | {"dhtplan.run_limits"}),
        (["plan", "--method", "bin", "--p0", "0.02", "--p1", "0.05"],
         ALWAYS | {"dhtplan.plan_solvers"} | KERNELS),
        (["oc", "--n", "383", "--c", "13"], ALWAYS | {"dhtplan.verification"} | KERNELS),
        (["select", "--step", "0.001", "--th", "0.05", "--texec", "3", "--prec", "5e-4"],
         ALWAYS | {"dhtplan.fuzzy_selector"}),
        (["table", "--step", "0.03"], ALWAYS | ENGINE),
        (["inspect", "--levels", "0,0.03,0.06", "--input", "STREAM"], ALWAYS | ENGINE),
        (["simulate", "--n", "383", "--c", "13", "--p", "0.02", "--reps", "1000"],
         ALWAYS | {"dhtplan.verification", "numpy"} | KERNELS),
        # only a z at a tail other than the paper's 0.05 loads statistics
        (["plan", "--method", "norm-n", "--p0", "0.02", "--p1", "0.05", "--z-mode", "exact"],
         ALWAYS | {"dhtplan.plan_solvers", "statistics"} | KERNELS),
    ], ids=["import", "sfl", "plan", "oc", "select", "table", "inspect", "simulate",
            "plan-exact-z"])
    def test_each_subcommand_loads_only_its_modules(self, tmp_path, argv, expected):
        stream = tmp_path / "stream.txt"
        stream.write_text("0\n" * 250)
        script = """
import io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import dhtplan
else:
    from dhtplan.cli import main
    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("numpy", "statistics", "dataclasses")
                        or m.split(".")[0] == "dhtplan")))
"""
        if argv is not None:
            argv = [str(stream) if a == "STREAM" else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              env=_env_with_src(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == expected
