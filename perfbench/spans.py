"""Spans and counters at dhtplan's layer boundaries, kept in memory.

``Tracer.install`` replaces the module attributes that one layer calls the
next through with recording wrappers, and ``uninstall`` puts the originals
back.  Boundaries that a later version of the package no longer has are
listed in ``absent`` and their metrics read 0; they never fail the run.

A span is [name, tag, start_ns, end_ns, parent index, request id]; spans
opened while no other span is open start a new request.  The innermost
kernels (about 10^6 CDF calls per plan-discrete sweep) get counters only.
"""

import importlib
import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_now = time.perf_counter_ns


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def __init__(self):
        self.counts = Counter()

    def span(self, name, tag=None):
        return nullcontext()


def _bucket(trial):
    return "lt1k" if trial < 1000 else "1k-4k" if trial < 4000 else "ge4k"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()            # exact, repeatable counts
        self.samples = defaultdict(list)   # per-call values: ns, or MC peak bytes
        self.time_ns = Counter()           # summed durations in ns
        self.absent = []
        self._stack = []
        self._request = 0
        self._undo = []

    @contextmanager
    def span(self, name, tag=None):
        if not self._stack:
            self._request += 1
        rec = [name, tag, _now(), 0, self._stack[-1] if self._stack else -1, self._request]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[3] = _now()
            self._stack.pop()

    # -- boundaries ---------------------------------------------------------

    def install(self):
        backend, pure = "dhtplan._backend", "dhtplan._backend.pure"
        for attr in ("discrete_scan", "zero_scan", "norm_iter_scan"):
            self._patch(backend, attr, self._scan("backend." + attr))
        quantiles = ("binom_quantile_ge", "binom_quantile_le",
                     "poisson_quantile_ge", "poisson_quantile_le")
        cdfs = ("binom_cdf", "poisson_cdf")
        if getattr(importlib.import_module("dhtplan"), "BACKEND", "pure") != "pure":
            # the compiled scans call their own kernels, not these functions
            self.absent.extend("%s.%s" % (pure, attr) for attr in quantiles + cdfs)
        else:
            for attr in quantiles:
                self._patch(pure, attr, self._counter("backend.quantile_calls"))
            for attr in cdfs:
                self._patch(pure, attr, self._counter("backend.cdf_calls"))
        self._patch("dhtplan.inspection_engine", "solve", self._spanned("plan_solvers.solve"))
        self._patch("dhtplan.inspection_engine", "sfl_r", self._spanned("run_limits.sfl_r"))
        self._patch("dhtplan.inspection_engine", "observe", self._observe)
        self._patch("dhtplan.verification", "binom_cdf", self._binom_cdf)
        self._patch("dhtplan.verification", "monte_carlo_accept", self._monte_carlo)

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _patch(self, module, attr, make):
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.absent.append("%s.%s" % (module, attr))
            return
        setattr(mod, attr, make(fn))
        self._undo.append((mod, attr, fn))

    def _counter(self, key):
        counts = self.counts

        def make(fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper
        return make

    def _spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _scan(self, name):
        def make(fn):
            def wrapper(*args):
                with self.span(name):
                    result = fn(*args)
                self.counts["backend.n_scanned"] += result[1]
                return result
            return wrapper
        return make

    def _observe(self, fn):
        counts, samples, time_ns = self.counts, self.samples, self.time_ns

        def wrapper(state, ladder, outcome):
            before = len(getattr(state, "events", ()))
            bucket = _bucket(state.trials + 1)
            t0 = _now()
            result = fn(state, ladder, outcome)
            time_ns[bucket] += _now() - t0
            counts["observe." + bucket] += 1
            new_state, last = result
            events = getattr(new_state, "events", None)
            new = (events[before:] if events is not None
                   else last if isinstance(last, (list, tuple)) else (last,))
            counts["inspection_engine.events"] += len(new)
            counts["inspection_engine.cascade_events"] += len(new) - 1
            for e in new:
                if e.transition != "continue":
                    counts["inspection_engine." + e.transition] += 1
            return result
        return wrapper

    def _binom_cdf(self, fn):
        samples = self.samples

        def wrapper(c, n, p):
            t0 = _now()
            result = fn(c, n, p)
            dt = _now() - t0
            samples["cdf_log_ns" if takes_log_branch(c, n, p) else "cdf_linear_ns"].append(dt)
            return result
        return wrapper

    def _monte_carlo(self, fn):
        def wrapper(plan, p_true, reps, seed):
            tracemalloc.start()
            try:
                with self.span("verification.monte_carlo_accept"):
                    result = fn(plan, p_true, reps, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.samples["mc_peak_bytes"].append(peak)
            self.counts["verification.mc_trials"] += reps * plan.n
            return result
        return wrapper

    # -- reporting ----------------------------------------------------------

    def span_stats(self):
        """name -> {"self_ns": total self time, "dur": {tag: [durations]}}."""
        child_ns = [0] * len(self.spans)
        for name, tag, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = defaultdict(lambda: {"self_ns": 0, "dur": defaultdict(list)})
        for (name, tag, start, end, _, _), inner in zip(self.spans, child_ns):
            stats[name]["self_ns"] += end - start - inner
            stats[name]["dur"][tag].append(end - start)
        return stats

    def write(self, path, header):
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, tag, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "tag": tag, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "request": request}) + "\n")


def takes_log_branch(c, n, p):
    """True when P(X <= c) is summed in log space: the leading term q**n underflows."""
    return 0.0 < p < 1.0 and 0 <= c < n and pow(1.0 - p, float(n)) == 0.0


def _median(xs, scale):
    return statistics.median(xs) / scale if xs else 0.0


def layer_metrics(tr, extra):
    """Per-layer metrics of a traced run; extra holds those measured outside spans."""
    st = tr.span_stats()
    c = tr.counts

    def self_ms(name):
        return st[name]["self_ns"] / 1e6 if name in st else 0.0

    def durations(name, tag=None):
        if name not in st:
            return []
        by_tag = st[name]["dur"]
        return by_tag.get(tag, []) if tag is not None else [d for v in by_tag.values() for d in v]

    def per_outcome_us(bucket):
        k = c["observe." + bucket]
        return tr.time_ns[bucket] / k / 1e3 if k else 0.0

    outcomes = c["inspection_engine.outcomes"]
    m = {
        "backend.discrete_scan.self_ms": (self_ms("backend.discrete_scan"), "ms"),
        "backend.zero_scan.self_ms": (self_ms("backend.zero_scan"), "ms"),
        "backend.norm_iter_scan.self_ms": (self_ms("backend.norm_iter_scan"), "ms"),
        "backend.quantile_calls": (c["backend.quantile_calls"], "count"),
        "backend.cdf_calls": (c["backend.cdf_calls"], "count"),
        "backend.cdf_calls_per_quantile": (
            c["backend.cdf_calls"] / c["backend.quantile_calls"]
            if c["backend.quantile_calls"] else 0.0, "calls/quantile"),
        "backend.n_scanned": (c["backend.n_scanned"], "count"),
        "backend.binom_cdf.log_branch_points": (c["backend.binom_cdf.log_branch_points"], "count"),
        "backend.binom_cdf.log_branch_frac": (
            c["backend.binom_cdf.log_branch_points"] / c["verification.oc_points"]
            if c["verification.oc_points"] else 0.0, "fraction"),
        "stat_kernels.binom_cdf.linear_us_p50": (_median(tr.samples["cdf_linear_ns"], 1e3), "us"),
        "stat_kernels.binom_cdf.log_us_p50": (_median(tr.samples["cdf_log_ns"], 1e3), "us"),
        "run_limits.sfl_r.calls": (len(durations("run_limits.sfl_r")), "count"),
        "run_limits.sfl_r.self_us": (self_ms("run_limits.sfl_r") * 1e3, "us"),
        "inspection_engine.build_ladder.ms": (
            _median(durations("inspection_engine.build_ladder"), 1e6), "ms"),
        "plan_solvers.solve_ms_p50.Bin": (_median(durations("plan_solvers.solve", "Bin"), 1e6), "ms"),
        "plan_solvers.solve_ms_p50.Poiss": (
            _median(durations("plan_solvers.solve", "Poiss"), 1e6), "ms"),
        "plan_solvers.self_ms": (self_ms("plan_solvers.solve"), "ms"),
        "inspection_engine.us_per_outcome.lt1k": (per_outcome_us("lt1k"), "us"),
        "inspection_engine.us_per_outcome.1k-4k": (per_outcome_us("1k-4k"), "us"),
        "inspection_engine.us_per_outcome.ge4k": (per_outcome_us("ge4k"), "us"),
        "inspection_engine.outcomes": (outcomes, "count"),
        "inspection_engine.events": (c["inspection_engine.events"], "count"),
        "inspection_engine.events_per_outcome": (
            c["inspection_engine.events"] / outcomes if outcomes else 0.0, "events/outcome"),
        "verification.oc_curve.self_ms": (self_ms("verification.oc_curve"), "ms"),
        "verification.monte_carlo_accept.self_ms": (
            self_ms("verification.monte_carlo_accept"), "ms"),
        "verification.mc_trials": (c["verification.mc_trials"], "count"),
        "verification.monte_carlo_accept.peak_alloc_mb": (
            max(tr.samples["mc_peak_bytes"], default=0) / 2**20, "MB"),
    }
    for cause in ("escalate_failures", "escalate_run", "accept", "reject", "cascade_events"):
        m["inspection_engine." + cause] = (c["inspection_engine." + cause], "count")
    m.update(extra)
    return m
