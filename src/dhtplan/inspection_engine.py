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

``run_stream`` applies this rule over plain counters and hands each
transition to an optional event sink instead of storing a log; ``_settle``
is the one copy of the escalate-then-accept order, called at each
transition.  A ladder refuses a plan with c < 1, a run limit below 0 and
tuples of mismatched lengths, and ``run_stream`` refuses with
``StateError`` a state outside the ladder (a level out of range or a
negative count) and a continuing state already past its level's limits,
so a level's state can change only at a failure or at its cumulative n.
Each outcome is checked as by one dict lookup (a value equal to 0 or 1 is
a hit; any other goes through ``int()`` and must give 0 or 1).  Without a
sink, a list or tuple is converted to bytes up to the ladder's horizon
(its largest n less the trials so far) by one call, and each level's next
transition is found by C searches over windows of the bytes, so Python
work runs once per transition or window; any other input, a list that
does not convert to 0s and 1s, or a call with a sink goes through one loop
that applies the rule to each outcome in turn.  ``InspectionState`` holds
the counters and the verdict only.  ``observe`` runs it on a single
outcome, and ``replay`` re-drives it from an event log.
"""

from itertools import count

from ._record import _Record
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

#: The longest window of the sink-less C searches.  Each ``find`` and
#: ``count`` reads its whole window, so the window stays short even though
#: the whole list is converted: on 7308-outcome streams over an eight-level
#: ladder, windows of 8192 ran rate-0.2 streams 43% slower, 2048 ran them
#: 14% slower, and 512 ran the whole set 7% slower (2-vCPU host, Python 3.11).
_WINDOW = 1024
#: The runs of failures the searches look for are cut from this: a run
#: longer than the window can never match in it, whatever the run limit.
_ONES = b"\x01" * (_WINDOW + 1)


class LevelLadder(_Record):
    levels: tuple
    plans: tuple
    run_limits: tuple
    ex: float
    methods: tuple

    def __post_init__(self):
        if not len(self.plans) == len(self.run_limits) == len(self.levels) - 1:
            raise LadderError("a ladder of %d levels needs %d plans and run limits, not "
                              "%d and %d" % (len(self.levels), len(self.levels) - 1,
                                             len(self.plans), len(self.run_limits)))
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


class Event(_Record):
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


class InspectionState(_Record):
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


def _settle(plans, limits, level, t, outcome, failures, run, sink):
    """Apply the transition rule at trial ``t`` with the updated counters:
    escalate while the level's c or run limit is breached (rejecting past
    the last level), then accept if the level's cumulative n is met.
    Returns (level, status); the transitions go to ``sink`` when given."""
    status = CONTINUE
    while failures >= plans[level].c or run > limits[level]:
        if level == len(plans) - 1:
            status = REJECTED
            break
        if sink is not None:
            sink(Event(t, outcome, level, failures, run, "escalate_failures"
                       if failures >= plans[level].c else "escalate_run"))
        level += 1
    if status == CONTINUE and t >= plans[level].n:
        status = ACCEPTED
    if status != CONTINUE and sink is not None:
        sink(Event(t, outcome, level, failures, run,
                   "accept" if status == ACCEPTED else "reject"))
    return level, status


def _bytes(seq):
    """``seq`` as a bytearray, or None if ``bytearray`` raises on it or reads
    a value other than 0 or 1."""
    try:
        data = bytearray(seq)
    except Exception:  # any error: the loop raises it at the value, if it gets there
        return None
    return None if data.translate(None, b"\x00\x01") else data


def _search(plans, limits, seq, level, trials, failures, run):
    """The sink-less rule over a list or tuple, read as bytes.

    The outcomes up to the horizon, ``max(largest plan n - trials, 1)``,
    are converted by one ``_bytes`` call; every stream has a verdict by
    trial max n, so nothing past the horizon can matter.  C searches over
    windows of at most ``_WINDOW`` bytes, stopping at the level's n, find
    its next transition: the first run longer than r, the (c - failures)-th
    failure, or trial n.  Returns (level, trials, failures, run, status),
    or None if ``_bytes`` refuses the outcomes, which then all go to the loop.
    """
    horizon = max(max([plan.n for plan in plans]) - trials, 1)
    data = _bytes(seq[:horizon] if len(seq) > horizon else seq)
    if data is None:
        return None
    status, at = CONTINUE, 0
    while at < len(data) and status == CONTINUE:
        n, c, r = plans[level].n, plans[level].c, limits[level]
        end = min(len(data), at + _WINDOW, at + max(n - trials, 1))
        # k: the index of the level's next transition, or end if none
        k = end - 1 if trials + end - at >= n else end
        if data.startswith(_ONES[:r + 1 - run], at, end):
            k = min(k, at + r - run)
        else:
            breach = data.find(_ONES[:r + 1], at, end)
            if breach >= 0:
                k = min(k, breach + r)
        ones = data.count(1, at, min(k + 1, end))
        if ones >= c - failures:
            ones = c - failures
            # marking the first ``ones`` failures leaves the last mark at the c-th
            k = at + data[at:end].replace(b"\x01", b"\x02", ones).rfind(2)
        used = min(k + 1, end) - at
        zero = data.rfind(0, at, at + used)
        run = at + used - 1 - zero if zero >= 0 else run + used
        failures += ones
        trials += used
        at += used
        if k < end:
            level, status = _settle(plans, limits, level, trials, data[k], failures, run, None)
    return level, trials, failures, run, status


def run_stream(ladder, outcomes, state=None, sink=None):
    """Consume outcomes from ``state`` (fresh by default) until a verdict.

    Stops at the first terminal status without drawing another outcome, so
    a lazy iterable is read no further than needed.  A stream that ends
    while the status is still ``continue`` yields an inconclusive state
    (the partial counts are preserved).  Each transition is passed to
    ``sink`` as an ``Event`` when a sink is given; without one no event is
    built.  A non-empty stream on a terminal state raises ``StateError``;
    so do a state whose level is not one of the ladder's or whose trials,
    failures or run is negative, and a continuing state whose failures or
    run already breach its level's c or run limit, before anything is drawn.

    Every outcome is checked as by one dict lookup: a value equal to 0 or
    1 (``1.0``, ``True``, ``np.int64(1)``, ``Decimal(1)``) gives that plain
    int without calling ``int()``; any other goes through ``int()`` and
    raises ``DomainError`` off {0, 1}.  An unhashable value raises
    ``TypeError`` at its position, so ``bytearray(b"1")`` and a writable
    ``memoryview``, which ``int()`` parses, are refused.  A success can only
    count a trial and end the run, so the rule fires only at a failure or
    at a level's cumulative n, and the outcomes take one of two paths:

    - Without a sink, a ``list`` or ``tuple`` (exactly those types) is
      converted to a ``bytearray`` by one call, up to the horizon: the
      largest plan n less the state's trials, and at least one outcome.
      Every stream has a verdict by then, so nothing past it is read.
      ``bytearray`` reads a value by its ``__index__``, the value itself
      for ints, bools and numpy integers.  C searches (``find``,
      ``count``, a counted ``replace``, ``rfind``) over windows of at most
      ``_WINDOW`` bytes locate each level's next transition: Python work is
      O(1) per transition or window.  If the conversion raises any
      ``Exception`` or reads a byte other than 0 or 1, the whole sequence
      goes to the loop below from the given state.  So a value past the
      verdict may be converted, but never raises or changes the result.
    - Any other iterable, a refused list or tuple, or any call with a sink
      goes through one loop that counts each outcome, hands ``_settle`` the
      outcomes that breach the level's c or run limit or meet its n, and
      passes every other one to the sink as a ``continue`` event.
    """
    if state is None:
        state = InspectionState()
    level, trials, failures, run = state.level_index, state.trials, state.failures, state.run
    status, accepted_level, accepted_t_h = state.status, state.accepted_level, state.accepted_t_h
    plans, limits = ladder.plans, ladder.run_limits
    if not 0 <= level < len(plans) or min(trials, failures, run) < 0:
        raise StateError("state is outside the ladder: level %d (levels 0-%d), trials %d, "
                         "failures %d, run %d" % (level, len(plans) - 1, trials, failures, run))
    if status != CONTINUE:
        for _ in outcomes:
            raise StateError("cannot observe after terminal status %r" % (status,))
        return state
    if failures >= plans[level].c or run > limits[level]:
        raise StateError("state is past level %d's limits: failures %d (c = %d), run %d "
                         "(r = %d)" % (level, failures, plans[level].c, run, limits[level]))
    found = None
    if sink is None and type(outcomes) in (list, tuple):
        found = _search(plans, limits, outcomes, level, trials, failures, run)
    if found is not None:
        level, trials, failures, run, status = found
    else:
        n, c, r = plans[level].n, plans[level].c, limits[level]
        for trials, outcome in zip(count(trials + 1), map(_OUTCOMES.__getitem__, outcomes)):
            if outcome:
                failures += 1
                run += 1
            else:
                run = 0
            if failures >= c or run > r or trials >= n:
                level, status = _settle(plans, limits, level, trials, outcome, failures, run,
                                        sink)
                if status != CONTINUE:
                    break
                n, c, r = plans[level].n, plans[level].c, limits[level]
            elif sink is not None:
                sink(Event(trials, outcome, level, failures, run, CONTINUE))
    if status == ACCEPTED:
        accepted_level, accepted_t_h = level, plans[level].t_h
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
