"""Sequential multi-level lot inspection.

A ladder of increasing failure-rate levels is tested pairwise; the stream
of Bernoulli outcomes is consumed one at a time against the current level's
plan.  Trial and failure counts are cumulative across levels (escalating
never discards inspection work), and each plan's n is read as a cumulative
total from the start of inspection.

Transitions, checked in order after each outcome:
  a) failures >= c             -> escalate (acceptance is already impossible)
  b) run > r                   -> escalate (successive-failures limit breached)
  c) trials >= n, failures < c -> accept at this level

Escalation past the last level rejects the whole ladder.  On entry to a new
level the same checks cascade immediately with the carried counts, which
matters when a later plan's cumulative n is already met; a cascade emits
one event per step, all sharing the trial index that triggered it, and no
``continue`` event follows an escalation.

``run_stream`` is the one implementation of this rule: a loop over plain
counters that hands each transition to an optional event sink instead of
storing a log.  A ladder refuses a plan with c < 1 and a run limit below
0, and ``run_stream`` refuses a continuing state already past its level's
limits with ``StateError``, so only a failure can escalate.  Each outcome
is checked by one dict lookup (a value equal to 0 or 1 is a hit; any other
goes through ``int()`` and must give 0 or 1) and counted in C, and the loop
body runs once per failure, not once per outcome.  ``InspectionState``
holds the counters and the verdict only.  ``observe`` runs it on a single
outcome, and ``replay`` re-drives it from an event log.
"""

import sys
from dataclasses import dataclass
from itertools import compress, count, islice

from .errors import DomainError, LadderError, NoConvergenceError, StateError
from .plan_solvers import TestSpec, solve
from .run_limits import DEFAULT_EX, SflQuery, sfl_r

SUCCESS = 0
FAILURE = 1


class _Outcomes(dict):
    """The outcome check: a value equal to 0 or 1 is a hash hit giving the
    plain int; any other goes through ``int()``, and a miss is never stored."""

    __slots__ = ()

    def __missing__(self, value):
        value = int(value)
        if value != SUCCESS and value != FAILURE:
            raise DomainError("outcome value must be 0 or 1")
        return value


_OUTCOMES = _Outcomes({SUCCESS: SUCCESS, FAILURE: FAILURE})


@dataclass(frozen=True)
class LevelLadder:
    levels: tuple
    plans: tuple
    run_limits: tuple
    ex: float
    methods: tuple

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise LadderError("ladder levels must be strictly increasing")
        for (lo, hi), plan in zip(zip(self.levels, self.levels[1:]), self.plans):
            if not (lo < plan.t_h < hi):
                raise LadderError(
                    "plan threshold %g escapes its level pair (%g, %g)"
                    % (plan.t_h, lo, hi))
            if plan.c < 1:
                raise LadderError("the plan for level pair (%g, %g) has c = %d and can "
                                  "never accept" % (lo, hi, plan.c))
        if any(r < 0 for r in self.run_limits):
            raise LadderError("run limits must be at least 0")
        if any(b < a for a, b in zip(self.run_limits, self.run_limits[1:])):
            raise LadderError("run limits must be non-decreasing")


@dataclass(frozen=True)
class Event:
    trial: int
    outcome: int
    level: int
    failures: int
    run: int
    transition: str  # continue | escalate_failures | escalate_run | accept | reject


# status values
CONTINUE = "continue"
ACCEPTED = "accepted"
REJECTED = "rejected_beyond_last"


@dataclass(frozen=True)
class InspectionState:
    level_index: int = 0
    trials: int = 0
    failures: int = 0
    run: int = 0
    status: str = CONTINUE
    accepted_level: int | None = None
    accepted_t_h: float | None = None

    @property
    def terminal(self):
        return self.status != CONTINUE


def build_ladder(levels, alpha_tail=0.05, beta_tail=0.05, method="Norm_I",
                 ex=DEFAULT_EX, epsilon=None, first_method=None,
                 paper_compat_z=True):
    """Compute one plan per adjacent level pair plus each level's run limit.

    ``method`` applies to every pair; ``first_method`` overrides the first
    pair (commonly Bin when the ladder starts at zero, which the normal
    methods cannot size).  Construction fails fast, naming the offending
    pair, if any plan does not converge.
    """
    levels = tuple(float(p) for p in levels)
    if len(levels) < 2:
        raise LadderError("a ladder needs at least two levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise LadderError("ladder levels must be strictly increasing")
    if levels[-1] >= 0.5:
        raise LadderError("ladder levels must stay below 0.5")
    if first_method is None:
        first_method = "Bin" if levels[0] == 0.0 else method
    plans = []
    methods = []
    for i, (lo, hi) in enumerate(zip(levels, levels[1:])):
        m = first_method if i == 0 else method
        spec = TestSpec(p0=lo, p1=hi, alpha_tail=alpha_tail, beta_tail=beta_tail,
                        epsilon=epsilon, paper_compat_z=paper_compat_z)
        try:
            plans.append(solve(spec, m))
        except NoConvergenceError as exc:
            raise LadderError(
                "no converging %s plan for level pair (%g, %g): %s" % (m, lo, hi, exc)
            ) from exc
        methods.append(m)
    limits = tuple(sfl_r(SflQuery(p=hi, ex=ex))[1] for hi in levels[1:])
    return LevelLadder(levels=levels, plans=tuple(plans), run_limits=limits,
                       ex=ex, methods=tuple(methods))


def run_stream(ladder, outcomes, state=None, sink=None):
    """Consume outcomes from ``state`` (fresh by default) until a verdict.

    Stops at the first terminal status without drawing another outcome, so
    a lazy iterable is read no further than needed.  A stream that ends
    while the status is still ``continue`` yields an inconclusive state
    (the partial counts are preserved).  Each transition is passed to
    ``sink`` as an ``Event`` when a sink is given; without one no event is
    built.  A non-empty stream on a terminal state raises ``StateError``,
    and so does a continuing state whose failures or run already breach its
    level's c or run limit, before anything is drawn.

    Every outcome is checked by one dict lookup: a value equal to 0 or 1
    (``1.0``, ``True``, ``np.int64(1)``, ``Decimal(1)``) gives that plain
    int without calling ``int()``; any other goes through ``int()`` and
    raises ``DomainError`` off {0, 1}.  An unhashable value raises
    ``TypeError`` at its position, so ``bytearray(b"1")`` and a writable
    ``memoryview``, which ``int()`` parses, are refused.  A success can only
    count a trial and end the run, so each level draws from one C pipeline,
    capped at the trial where its cumulative n is met, that hands this loop
    only the failures' trial indices: Python work is O(1) per failure, plus
    one ``continue`` event per skipped success when a sink is given.
    """
    if state is None:
        state = InspectionState()
    level, trials, failures, run = state.level_index, state.trials, state.failures, state.run
    status, accepted_level, accepted_t_h = state.status, state.accepted_level, state.accepted_t_h
    plans, limits = ladder.plans, ladder.run_limits
    last = len(plans) - 1
    outcomes = iter(outcomes)
    if status != CONTINUE:
        for _ in outcomes:
            raise StateError("cannot observe after terminal status %r" % (status,))
    elif failures >= plans[level].c or run > limits[level]:
        raise StateError("state is past level %d's limits: failures %d (c = %d), run %d "
                         "(r = %d)" % (level, failures, plans[level].c, run, limits[level]))
    while status == CONTINUE:
        entered = level
        n, c, r = plans[level].n, plans[level].c, limits[level]
        # the last trial this pipeline may draw (islice takes at most maxsize)
        stop = min(max(n, trials + 1), trials + sys.maxsize)
        trial_no = count(trials + 1)
        fails = compress(trial_no, map(_OUTCOMES.__getitem__, islice(outcomes, stop - trials)))
        try:
            for t in fails:
                first, trials = trials + 1, t
                if first < t:
                    run = 0
                    if sink is not None:
                        for k in range(first, t):
                            sink(Event(k, SUCCESS, level, failures, 0, CONTINUE))
                failures += 1
                run += 1
                while failures >= c or run > r:
                    if level == last:
                        status = REJECTED
                        break
                    if sink is not None:
                        sink(Event(t, FAILURE, level, failures, run,
                                   "escalate_failures" if failures >= c else "escalate_run"))
                    level += 1
                    n, c, r = plans[level].n, plans[level].c, limits[level]
                if status == CONTINUE and t >= n:
                    status, accepted_level, accepted_t_h = ACCEPTED, level, plans[level].t_h
                if status != CONTINUE:
                    if sink is not None:
                        sink(Event(t, FAILURE, level, failures, run,
                                   "accept" if status == ACCEPTED else "reject"))
                    break
                if level != entered:
                    break  # no continue event after an escalation; new pipeline
                if sink is not None:
                    sink(Event(t, FAILURE, level, failures, run, CONTINUE))
        finally:
            # compress draws the count before each value, so the count has run
            # one past ``end``, the last trial drawn; unless the loop body broke
            # or raised, the trials after the last failure were successes
            end = next(trial_no) - 2
            if end > trials:
                first, trials, run = trials + 1, end, 0
                if end >= n:
                    status, accepted_level, accepted_t_h = ACCEPTED, level, plans[level].t_h
                if sink is not None:
                    for k in range(first, end if status == ACCEPTED else end + 1):
                        sink(Event(k, SUCCESS, level, failures, 0, CONTINUE))
                    if status == ACCEPTED:
                        sink(Event(end, SUCCESS, level, failures, 0, "accept"))
        if status == CONTINUE and level == entered:
            break  # the stream ran dry
    return InspectionState(level_index=level, trials=trials, failures=failures, run=run,
                           status=status, accepted_level=accepted_level,
                           accepted_t_h=accepted_t_h)


def observe(state, ladder, outcome):
    """Consume one outcome; returns (new state, tuple of this trial's events)."""
    events = []
    state = run_stream(ladder, (outcome,), state, events.append)
    return state, tuple(events)


def replay(ladder, events, sink=None):
    """Re-drive the engine from an event log; returns the final state.

    Cascaded events share a trial index, so the log is deduplicated to one
    outcome per trial before folding.
    """
    seen = -1
    seq = []
    for e in events:
        if e.trial != seen:
            seen = e.trial
            seq.append(e.outcome)
    return run_stream(ladder, seq, sink=sink)
