"""CLI contract tests: flags, exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dhtplan.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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
        ("bin", "1e-15", "exceeded cap"), ("poiss", "1e-15", "exceeded cap"),
        ("norm-n", "1e-17", "tail mass 1e-17")])
    def test_tiny_alpha_exit_two(self, method, alpha, words):
        # Bin and Poiss: 1 - alpha/2 lies above every partial sum the kernels
        # reach, so the scan gives up at the cap (Bin used to scan every
        # count up to n at every n); Norm_N: 1 - alpha rounds to 1.0
        code, out, err = run(["plan", "--method", method, "--p0", "0.02",
                              "--p1", "0.05", "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and words in err and err.count("\n") == 1

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

    def test_zero_step_exit_one(self):
        code, _, err = run(["table", "--step", "0"])
        assert code == 1

    def test_too_many_rows_exit_one(self):
        code, _, _ = run(["table", "--step", "0.05", "--rows", "10"])
        assert code == 1


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

    def test_file_input(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("0\n" * 250)
        code, out, _ = run(self.ARGS + ["--input", str(path)])
        assert code == 0
        assert "accepted" in out


class TestSmallCommands:
    def test_sfl(self):
        code, out, _ = run(["sfl", "--p", "0.02", "--ex", "1e6"])
        assert code == 0
        assert "r=4" in out
        assert "r_raw=3.5263875" in out

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

    def test_select_config_file(self, tmp_path):
        from dhtplan import FuzzyRuleBase
        path = tmp_path / "cfg.json"
        FuzzyRuleBase().save(path)
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

    def test_plan_rate_nan(self):
        err = self._one_line_error(["plan", "--method", "bin", "--p0", "nan",
                                    "--p1", "0.05"])
        assert "p0 must be a finite rate, got nan" in err

    def test_inspect_level_nan(self):
        err = self._one_line_error(["inspect", "--levels", "0,nan"], exit_code=2)
        assert "p1 must be a finite rate, got nan" in err

    def test_oc_grid_too_fine_returns_at_once(self):
        # the points are counted, not built: a 1e300-point grid must not hang
        proc = subprocess.run(
            [sys.executable, "-m", "dhtplan.cli", "oc", "--n", "10", "--c", "2",
             "--grid", "0:1:1e-300"],
            env=_env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: grid step 1e-300 gives more than "
                               "1000000 points\n")

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

    @staticmethod
    def _default_config():
        from dhtplan import FuzzyRuleBase
        return FuzzyRuleBase().to_config()

    def test_select_fuzzy_config_missing_key(self, tmp_path):
        assert "'memberships'" in self._bad_fuzzy_config(tmp_path, {})
        cfg = self._default_config()
        del cfg["outputs"]
        assert "'outputs'" in self._bad_fuzzy_config(tmp_path, cfg)

    def test_select_fuzzy_config_rules_not_a_list(self, tmp_path):
        cfg = self._default_config()
        cfg["rules"] = 3
        assert "'rules'" in self._bad_fuzzy_config(tmp_path, cfg)

    def test_select_fuzzy_config_rule_without_if_or_then(self, tmp_path):
        for key in ("if", "then"):
            cfg = self._default_config()
            del cfg["rules"][2][key]
            err = self._bad_fuzzy_config(tmp_path, cfg)
            assert "rule 3" in err and repr(key) in err

    def test_select_fuzzy_config_trapezoid_without_four_points(self, tmp_path):
        cfg = self._default_config()
        var, labs = next(iter(cfg["memberships"].items()))
        label = next(iter(labs))
        labs[label] = labs[label][:3]
        err = self._bad_fuzzy_config(tmp_path, cfg)
        assert "memberships.%s.%s" % (var, label) in err and "4" in err


class TestLeanImport:
    """Only Monte Carlo needs numpy; every other path runs without it."""

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

    ALWAYS = {"dhtplan", "dhtplan.cli", "dhtplan.errors"}
    KERNELS = {"dhtplan.stat_kernels", "dhtplan._backend", "dhtplan._backend.pure"}
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
    ], ids=["import", "sfl", "plan", "oc", "select", "table", "inspect", "simulate"])
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
                        if m == "numpy" or m.split(".")[0] == "dhtplan")))
"""
        if argv is not None:
            argv = [str(stream) if a == "STREAM" else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              env=_env_with_src(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == expected
