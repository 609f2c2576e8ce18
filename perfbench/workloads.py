"""The four workloads, the probe, and the extra measurements of a traced run.

Load comes from one closed loop: the next operation starts when the last
one has returned, in one process with no extra threads (the reference host
has 2 cores).  Each workload spends most of its run on one family of
operations, in rounds:

    plan-discrete   solve      a round is the 12 discrete specs, shuffled
    inspect-stream  stream     a round is one stream per rate class, shuffled
    verify-plans    verify     a round is the 12 criterion-9 plans, shuffled
    cli-mix         cli        a round is the 8 CLI calls, shuffled

Round i draws its inputs from (seed, i) alone, so a traced pass can repeat
the rounds of an untraced pass exactly.  Probe slices are interleaved with
the rounds: a small fixed set of operations of every other family, so that
every end-to-end metric exists on every workload.  The probe's inputs do
not depend on the seed.

Every operation checks its output (checks.py); an exception or a wrong
result counts as a failed operation.
"""

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict

import numpy as np

import dhtplan

import checks
import fixtures
import oracle
from spans import NullTracer, takes_log_branch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Rounds continue past --seconds until the workload's latency family has
#: this many samples: 9 rounds of the 12 specs or streams, 13 of the 8 CLI
#: calls.
MIN_LATENCY_SAMPLES = 100

#: inspect-stream: one stream per class in a round.  Low rates accept with
#: few failures, middle rates escalate, 0.1 and 0.2 reject through the
#: failure-count and run-limit cascades.
STREAM_RATES = (0.002, 0.005, 0.008, 0.012, 0.02, 0.03, 0.04, 0.05, 0.06,
                0.07, 0.1, 0.2)
#: The largest cumulative n of the table ladder: every stream reaches a verdict.
STREAM_LEN = 7308

OC_GRID = tuple(i / 1000 for i in range(1001))
#: Monte Carlo reps per realized_errors call: about this many simulated
#: trials per rate, and never fewer than 1000 lots.
MC_TRIALS_PER_RATE = 4_000_000

#: The CLI inspect file: 3000 outcomes at 4.5% stay inconclusive on the
#: table ladder (the level reached needs more trials), so inspect exits 4.
CLI_INSPECT_LEN = 3000
CLI_INSPECT_RATE = 0.045
CLI_OC_GRID = tuple(min(0.0 + k * 0.05, 1.0) for k in range(21))
SELECT_ARGS = dict(step=0.001, t_h=0.05, t_exec=3.0, prec_abs=5e-4)

#: Probe: per slice, six cheap solves, three streams made twice each (the
#: longest of them varies by 15% from one call to the next), two plans
#: verified and two CLI calls; the same inputs in every slice and for every
#: seed.
SLICES = 4
PROBE_RATES = (0.005, 0.03, 0.2)
PROBE_CLI = ("plan-norm-n", "inspect")
PROBE_METHODS = ("Bin", "Poiss")
PROBE_PAIRS = ((0.0, 0.02), (0.02, 0.05), (0.05, 0.10))
PROBE_PLANS = (1, 7)         # Norm_N 2%/5%, Bin 2%/5%
PROBE_KEY = 0x5EED

FAMILY = {"plan-discrete": "solve", "inspect-stream": "stream",
          "verify-plans": "verify", "cli-mix": "cli"}

#: Rounds of the fixed work a traced run repeats untraced, then traced.
TRACE_ROUNDS = {"plan-discrete": 1, "inspect-stream": 2, "verify-plans": 1, "cli-mix": 1}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, env):
    """Run the interpreter with args; returns (exit code, stdout+stderr, max RSS in KiB)."""
    proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 instead of Popen.wait: it returns this child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


def _rng(*key):
    return random.Random(":".join(map(str, key)))


def generator(*key):
    return np.random.Generator(np.random.Philox(key=int.from_bytes(
        _rng(*key).randbytes(16), "little")))


def bernoulli(gen, rate, length):
    return (gen.random(length) < rate).astype(np.int8).tolist()


def _mc_reps(n):
    return max(1000, MC_TRIALS_PER_RATE // n)


#: Host speed on this kind of shared 2-vCPU virtual machine swings by up to
#: 50% within a minute, and a pure-Python solve slows or speeds up with it.
#: So every timed operation is bracketed by a reference whose cost no change
#: to dhtplan can move, and its time is scaled by the reference's nominal
#: time over the mean of the reference times just before and just after it.
#: In-process operations use calibrate(), a fixed pure-Python loop; those in
#: a child process (CLI calls, set-up) use the start of a bare interpreter,
#: which tracks process start and import costs where the loop does not.  The
#: nominal times are about the references' median times on the reference
#: host (2 vCPUs, Python 3.11; 0.9-1.1 ms and 58-63 ms over several hours),
#: so there scaled times read about as measured; the report prints both.
REFERENCE_S = {"loop": 0.001, "spawn": 0.060}
CHILD_FAMILIES = ("cli", "setup")


def _reference_term(term, k, n, ratio):
    return term * ((n - k) / (k + 1.0)) * ratio


def calibrate():
    """Seconds taken by the fixed reference loop: calls, float arithmetic and
    small allocations, as in the package's pure-Python kernels and engine."""
    t0 = time.perf_counter()
    kept = []
    for rep in range(18):
        term = total = 2.0 ** -30
        comp = 0.0
        for k in range(200):
            term = _reference_term(term, k, 1000, 0.03 / 0.97)
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        kept.append((rep, total))
    return time.perf_counter() - t0


def _by_input(samples, scaled):
    """input class -> [(seconds, work)], at reference speed if scaled."""
    groups = defaultdict(list)
    for cls, dt, work, factor in samples:
        groups[cls].append((dt * factor if scaled else dt, work))
    return groups


def latency(samples, q, scaled=True):
    """Percentile q over the inputs, each input at its median latency.

    The median over rounds absorbs bursts of host noise; a percentile taken
    straight over the raw samples would, at a boundary between two inputs,
    read the extreme sample of each.
    """
    return pct([statistics.median(dt for dt, _ in g)
                for g in _by_input(samples, scaled).values()], q)


def throughput(samples, scaled=True):
    """Work per second over one of each input, each at its median cost per unit."""
    work = seconds = 0.0
    for g in _by_input(samples, scaled).values():
        w = statistics.fmean(w for _, w in g)
        work += w
        seconds += w * statistics.median(dt / w for dt, w in g)
    return work / seconds if seconds else 0.0


def pct(xs, q):
    """Percentile q of xs (linear interpolation); 0 for no samples."""
    if not xs:
        return 0.0
    if len(xs) == 1 or q == 50:
        return statistics.median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Bench:
    def __init__(self, seed):
        self.seed = seed
        self.tr = NullTracer()
        self.env = child_env()
        self.attempted = 0
        self.errors = []
        # family -> [(input class, seconds, work, factor to reference speed)]
        self.samples = defaultdict(list)
        self._last_reference = (None, 0.0)
        self.child_rss_kb = 0
        os.makedirs(WORK_DIR, exist_ok=True)

        self.fx = fixtures.build(dhtplan)
        self._attempt("table ladder", lambda: checks.check_ladder(self.fx.ladder))
        for i, (plan, _, _) in enumerate(self.fx.plans):
            self._attempt("verification plan %d" % i,
                          lambda: checks.check_verify_plan(plan, i))
        self._log_points = [sum(takes_log_branch(plan.c - 1, plan.n, p) for p in OC_GRID)
                            for plan, _, _ in self.fx.plans]

        gen = generator(seed, "cli-inspect")
        while True:
            self.inspect_outcomes = bernoulli(gen, CLI_INSPECT_RATE, CLI_INSPECT_LEN)
            self.inspect_verdict = checks.reference_verdict(self.inspect_outcomes)
            if self.inspect_verdict[0] == "inconclusive":
                break
        self.inspect_path = os.path.join(WORK_DIR, "inspect-%d-%d.txt" % (seed, os.getpid()))
        with open(self.inspect_path, "w") as f:
            f.write("".join("%d\n" % v for v in self.inspect_outcomes))
        gen = generator(PROBE_KEY, "stream")
        self._probe_streams = [(rate, bernoulli(gen, rate, STREAM_LEN)) for rate in PROBE_RATES]
        self._load_references()

    def close(self):
        if os.path.exists(self.inspect_path):
            os.remove(self.inspect_path)

    def _load_references(self):
        jobs = [[plan.c - 1, plan.n, list(OC_GRID) + [p0, p1]] for plan, p0, p1 in self.fx.plans]
        keys = sorted(checks.PINNED_DISCRETE)
        jobs += [[c - 1, n, [p0, p1]] for (_, p0, p1), (n, c, _) in
                 ((k, checks.PINNED_DISCRETE[k]) for k in keys)]
        jobs.append([12, 383, list(CLI_OC_GRID) + [0.02]])
        refs = oracle.reference(jobs, WORK_DIR)
        self.oc_ref = [r[:-2] for r in refs[:len(self.fx.plans)]]
        self.exact = [tuple(r[-2:]) for r in refs[:len(self.fx.plans)]]
        self.oc_tol = [checks.oc_tolerances(plan.n, OC_GRID, ref)
                       for (plan, _, _), ref in zip(self.fx.plans, self.oc_ref)]
        self.exact_tol = [checks.oc_tolerances(plan.n, (p0, p1), exact)
                          for (plan, p0, p1), exact in zip(self.fx.plans, self.exact)]
        for key, r in zip(keys, refs[len(self.fx.plans):-1]):
            self._attempt("pinned plan %s (%g, %g)" % key,
                          lambda: checks.check_risks(key, (1.0 - r[0], r[1])))
        cli_oc_ref, cli_sim_exact = refs[-1][:-1], refs[-1][-1]

        levels = ",".join("%g" % p for p in fixtures.TABLE_LEVELS)
        ok = checks.expect_fields
        self.cli = {
            "plan-norm-n": (["plan", "--method", "norm-n", "--p0", "0.02", "--p1", "0.05"],
                            (0, ok(method="Norm_N", n="383", c="13"))),
            "plan-bin": (["plan", "--method", "bin", "--p0", "0.02", "--p1", "0.05"],
                         (0, ok(method="Bin", n="527", c="18"))),
            "table": (["table", "--step", "0.01"], (0, checks.expect_table())),
            "inspect": (["inspect", "--levels", levels, "--input", self.inspect_path],
                        (4, checks.expect_verdict(self.inspect_verdict))),
            "sfl": (["sfl", "--p", "0.02"], (0, checks.expect_sfl(4, 3.5263875))),
            "select": (["select", "--step", "0.001", "--th", "0.05", "--texec", "3",
                        "--prec", "5e-4"], (0, checks.expect_select(0.125, "Bin"))),
            "oc": (["oc", "--n", "383", "--c", "13"],
                   (0, checks.expect_oc_csv(CLI_OC_GRID, cli_oc_ref))),
            "simulate": (["simulate", "--n", "383", "--c", "13", "--p", "0.02",
                          "--reps", "10000", "--seed", str(self.seed)],
                         (0, checks.expect_simulate(cli_sim_exact, 10000))),
        }

    # -- operations ---------------------------------------------------------

    def _attempt(self, what, op):
        self.attempted += 1
        try:
            msg = op()
        except Exception as exc:  # a crash is a failed operation, not a failed run
            msg = "raised %s: %s" % (type(exc).__name__, exc)
        if msg:
            self.errors.append("%s: %s" % (what, msg))

    def _reference(self, kind):
        """Seconds taken by the reference of this kind: calibrate() ("loop")
        or the start of a bare interpreter ("spawn")."""
        if kind == "spawn":
            t0 = time.perf_counter()
            spawn(["-c", "pass"], self.env)
            t = time.perf_counter() - t0
        else:
            t = calibrate()
        self._last_reference = (kind, t)
        return t

    def _record(self, family, cls, run):
        """run() -> (result, seconds, work); records the sample with its factor
        to reference speed and returns the result.  The reference after one
        operation serves as the one before the next of the same kind."""
        kind = "spawn" if family in CHILD_FAMILIES else "loop"
        last_kind, before = self._last_reference
        if last_kind != kind:
            before = self._reference(kind)
        result, dt, work = run()
        factor = 2 * REFERENCE_S[kind] / (before + self._reference(kind))
        self.samples[family].append((cls, dt, work, factor))
        return result

    def _timed(self, span, family, cls, work, fn, *args):
        """Call fn(*args) inside span (name, tag), record its wall time and
        return its result; work may be a function of the result."""
        def run():
            with self.tr.span(*span):
                t0 = time.perf_counter()
                result = fn(*args)
                dt = time.perf_counter() - t0
            return result, dt, work(result) if callable(work) else work
        return self._record(family, cls, run)

    def solve(self, method, p0, p1, spec):
        key = (method, p0, p1)

        def op():
            plan = self._timed(("plan_solvers.solve", method), "solve", key, 1,
                               dhtplan.solve, spec, method)
            return checks.check_plan(plan, key)
        self._attempt("solve %s (%g, %g)" % key, op)

    def stream(self, rate, outcomes):
        def op():
            state = self._timed(("inspection_engine.run_stream",), "stream", rate,
                                lambda st: st.trials, dhtplan.run_stream, self.fx.ladder,
                                outcomes)
            self.tr.counts["inspection_engine.outcomes"] += state.trials
            return checks.check_verdict(state, checks.reference_verdict(outcomes))
        self._attempt("stream at rate %g" % rate, op)

    def verify(self, index, mc_seed):
        plan, p0, p1 = self.fx.plans[index]
        reps = _mc_reps(plan.n)

        def op():
            oc = self._timed(("verification.oc_curve",), "oc", index, len(OC_GRID),
                             dhtplan.oc_curve, plan, OC_GRID)
            self.tr.counts["verification.oc_points"] += len(OC_GRID)
            self.tr.counts["backend.binom_cdf.log_branch_points"] += self._log_points[index]
            est = self._timed(("verification.realized_errors",), "mc", index,
                              2 * reps * plan.n, dhtplan.realized_errors, plan, p0, p1,
                              (reps, mc_seed))
            exact0, exact1 = self.exact[index]
            return (checks.check_oc([a for _, a in oc.points], self.oc_ref[index],
                                    self.oc_tol[index])
                    or checks.check_oc([1.0 - est.alpha_hat, est.beta_hat], self.exact[index],
                                       self.exact_tol[index])
                    or checks.check_mc(1.0 - est.mc_alpha[0], est.mc_alpha[1], exact0, reps)
                    or checks.check_mc(est.mc_beta[0], est.mc_beta[1], exact1, reps))
        self._attempt("verify plan %d" % index, op)

    def cli_call(self, name, record_rss=True):
        args, expect = self.cli[name]

        def op():
            code, out, rss_kb = self._timed(("cli", name), "cli", name, 1, spawn,
                                            ["-m", "dhtplan.cli"] + args, self.env)
            if record_rss:
                self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            return checks.check_cli(expect, code, out)
        self._attempt("cli " + name, op)

    # -- rounds -------------------------------------------------------------

    def round(self, workload, i):
        rng = _rng(self.seed, workload, i)
        if workload == "plan-discrete":
            specs = list(self.fx.specs)
            rng.shuffle(specs)
            for spec in specs:
                self.solve(*spec)
        elif workload == "inspect-stream":
            gen = generator(self.seed, workload, i)
            rates = list(STREAM_RATES)
            rng.shuffle(rates)
            for rate in rates:
                self.stream(rate, bernoulli(gen, rate, STREAM_LEN))
        elif workload == "verify-plans":
            order = list(range(len(self.fx.plans)))
            rng.shuffle(order)
            for pos, index in enumerate(order):
                self.verify(index, (self.seed * 10_000 + i) * 100 + pos)
        else:
            names = list(self.cli)
            rng.shuffle(names)
            for name in names:
                self.cli_call(name)

    def run_rounds(self, workload, rounds):
        """A fixed number of rounds (the traced run)."""
        for i in range(rounds):
            self.round(workload, i)

    def run_measured(self, workload, seconds):
        """Rounds until the workload's own operations have taken `seconds` and
        its latency metric has MIN_LATENCY_SAMPLES samples.  The SLICES probe
        slices are spread over the first `seconds`, so that they sample the
        host's speed across the run as the rounds do.  Returns the rounds run."""
        family = FAMILY[workload]
        need = 0 if family == "verify" else MIN_LATENCY_SAMPLES
        own = 0.0
        rounds = slices = 0
        while own < seconds or len(self.samples.get(family, ())) < need:
            if slices < SLICES and own >= slices * seconds / SLICES:
                self.probe_slice(workload, slices)
                slices += 1
                continue
            t0 = time.perf_counter()
            self.round(workload, rounds)
            own += time.perf_counter() - t0
            rounds += 1
        for j in range(slices, SLICES):
            self.probe_slice(workload, j)
        return rounds

    def probe_slice(self, workload, j, setup=True):
        """Slice j of the probe: the probe inputs of every family but the
        workload's own, plus one timed set-up in a fresh interpreter."""
        family = FAMILY[workload]
        if family != "solve":
            for method in PROBE_METHODS:
                for p0, p1 in PROBE_PAIRS:
                    self.solve(method, p0, p1, dhtplan.TestSpec(p0, p1))
        if family != "stream":
            for rate, outcomes in self._probe_streams * 2:
                self.stream(rate, outcomes)
        if family != "verify":
            for pos, index in enumerate(PROBE_PLANS):
                self.verify(index, PROBE_KEY + 10 * j + pos)
        if family != "cli":
            for name in PROBE_CLI:
                self.cli_call(name, record_rss=False)
        if setup:
            self._record("setup", "setup", self._setup_child)

    def _setup_child(self):
        code, out, _ = spawn([os.path.join(HERE, "setup_probe.py")], self.env)
        if code != 0:
            raise RuntimeError("set-up probe exited %d: %s" % (code, out[-500:]))
        return None, float(out.split()[-1]), 1

    # -- metrics ------------------------------------------------------------

    def write_samples(self, path):
        """The raw timings behind the end-to-end metrics, for offline analysis."""
        with open(path, "w") as f:
            json.dump({k: [[str(c)] + list(rest) for c, *rest in v]
                       for k, v in self.samples.items()}, f)

    def end_to_end(self, workload):
        """name -> (value, unit, samples, value as measured) of every
        end-to-end metric; times are at reference speed."""
        s = self.samples
        if FAMILY[workload] == "cli":
            rss_kb, rss_n = self.child_rss_kb, len(s["cli"])
        else:
            rss_kb, rss_n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
        rss = rss_kb / 1024.0

        def ms(family, q):
            return (latency(s[family], q) * 1e3, "ms", len(s[family]),
                    latency(s[family], q, scaled=False) * 1e3)

        def per_s(family, unit):
            return (throughput(s[family]), unit, len(s[family]),
                    throughput(s[family], scaled=False))

        return {
            "setup_s": (latency(s["setup"], 50), "s", len(s["setup"]),
                        latency(s["setup"], 50, scaled=False)),
            "peak_rss_mb": (rss, "MB", rss_n, rss),
            "plans_per_s": per_s("solve", "plans/s"),
            "solve_ms_p50": ms("solve", 50),
            "solve_ms_p90": ms("solve", 90),
            "outcomes_per_s": per_s("stream", "outcomes/s"),
            "verdict_ms_p50": ms("stream", 50),
            "verdict_ms_p90": ms("stream", 90),
            "oc_points_per_s": per_s("oc", "points/s"),
            "mc_trials_per_s": per_s("mc", "trials/s"),
            "cli_ms_p50": ms("cli", 50),
            "cli_ms_p90": ms("cli", 90),
        }

    # -- traced-run extras --------------------------------------------------

    def layer_extras(self):
        """Per-layer numbers measured around public calls rather than in spans:
        interpreter and import cost, and the in-process library time of each
        CLI call, so that CLI self time = wall - startup - import - library.
        Startup is the median bare interpreter, and import the median
        difference of adjacent bare and importing interpreters, so that host
        speed drift does not enter that difference."""
        def wall(args):
            t0 = time.perf_counter()
            code, out, _ = spawn(args, self.env)
            if code != 0:
                self.errors.append("python %s exited %d: %s" % (" ".join(args), code, out[-200:]))
            return time.perf_counter() - t0

        def best_of(fn, k=3, span=None):
            times = []
            for _ in range(k):
                t0 = time.perf_counter()
                if span:
                    with self.tr.span(span):
                        fn()
                else:
                    fn()
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        pairs = [(wall(["-c", "pass"]), wall(["-c", "import dhtplan.cli"])) for _ in range(5)]
        startup_s = statistics.median(bare for bare, _ in pairs)
        import_s = statistics.median(imported - bare for bare, imported in pairs)
        ex = {"cli.python_startup_ms": (startup_s * 1e3, "ms"),
              "cli.import_ms": (import_s * 1e3, "ms")}

        best_of(lambda: dhtplan.build_ladder(fixtures.TABLE_LEVELS), k=5,
                span="inspection_engine.build_ladder")
        ex["fuzzy_selector.rule_base.us"] = (best_of(dhtplan.FuzzyRuleBase, k=5) * 1e6, "us")
        inp = dhtplan.SelectorInput(**SELECT_ARGS)
        infer_s = [best_of(lambda: dhtplan.infer(inp, self.fx.rule_base), k=1)
                   for _ in range(21)]
        ex["fuzzy_selector.infer.us_p50"] = (statistics.median(infer_s) * 1e6, "us")

        observe_ns = []

        def replay_inspect():
            ladder = dhtplan.build_ladder(fixtures.TABLE_LEVELS)
            state = dhtplan.InspectionState()
            for v in self.inspect_outcomes:
                t0 = time.perf_counter_ns()
                state, _ = dhtplan.observe(state, ladder, v)
                observe_ns.append(time.perf_counter_ns() - t0)
                if state.status != "continue":
                    break

        spec25 = dhtplan.TestSpec(0.02, 0.05)
        sim_plan = types.SimpleNamespace(n=383, c=13)
        library = {
            "plan-norm-n": lambda: dhtplan.solve(spec25, "Norm_N"),
            "plan-bin": lambda: dhtplan.solve(spec25, "Bin"),
            "table": lambda: dhtplan.build_ladder(fixtures.TABLE_LEVELS),
            "inspect": replay_inspect,
            "sfl": lambda: dhtplan.mean_recurrence(0.02, dhtplan.sfl_r(dhtplan.SflQuery(0.02))[1]),
            "select": lambda: dhtplan.infer(inp, dhtplan.FuzzyRuleBase()),
            "oc": lambda: [dhtplan.accept_probability(383, 13, p) for p in CLI_OC_GRID],
            "simulate": lambda: dhtplan.monte_carlo_accept(sim_plan, 0.02, 10000, self.seed),
        }
        called = {name for name, *_ in self.samples["cli"]}
        for name in self.cli:
            if name not in called:
                self.cli_call(name, record_rss=False)
        walls = defaultdict(list)
        for name, dt, *_ in self.samples["cli"]:
            walls[name].append(dt)
        for name, fn in library.items():
            lib_s = best_of(fn)
            wall_s = statistics.median(walls[name])
            ex["cli.%s.ms_p50" % name] = (wall_s * 1e3, "ms")
            ex["cli.%s.self_ms" % name] = ((wall_s - startup_s - import_s - lib_s) * 1e3, "ms")
        ex["inspection_engine.observe.us_p50"] = (pct(observe_ns, 50) / 1e3, "us")
        ex["inspection_engine.observe.us_p90"] = (pct(observe_ns, 90) / 1e3, "us")
        return ex
