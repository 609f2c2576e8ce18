"""Inspection engine tests: ladder construction, transition semantics,
event-sourcing determinism, cumulative-count invariants, and agreement with
the per-outcome reference model."""

import hashlib
import random
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtplan import (DomainError, InspectionState, LadderError, LevelLadder, StateError,
                     build_ladder, inspection_engine, observe, replay, run_stream)
from dhtplan.inspection_engine import (ACCEPTED, CONTINUE, FAILURE, REJECTED, SUCCESS,
                                       Event)


def reference_run_stream(ladder, outcomes, state=None, sink=None):
    """Oracle: the transition rule applied to every outcome in turn, as
    ``run_stream`` ran it before successes were skipped in C."""
    if state is None:
        state = InspectionState()
    level, trials, failures, run = state.level_index, state.trials, state.failures, state.run
    status, accepted_level, accepted_t_h = state.status, state.accepted_level, state.accepted_t_h
    plans, limits = ladder.plans, ladder.run_limits
    last = len(plans) - 1
    n, c, r = plans[level].n, plans[level].c, limits[level]
    if status == CONTINUE and (failures >= c or run > r):
        raise StateError("state is past level %d's limits: failures %d (c = %d), run %d "
                         "(r = %d)" % (level, failures, c, run, r))
    for outcome in outcomes:
        if status != CONTINUE:
            raise StateError("cannot observe after terminal status %r" % (status,))
        value = int(outcome)
        if value == FAILURE:
            failures += 1
            run += 1
        elif value == SUCCESS:
            run = 0
        else:
            raise DomainError("outcome value must be 0 or 1")
        trials += 1
        escalated = False
        while failures >= c or run > r:
            if level == last:
                status = REJECTED
                break
            if sink is not None:
                sink(Event(trials, value, level, failures, run,
                           "escalate_failures" if failures >= c else "escalate_run"))
            level += 1
            n, c, r = plans[level].n, plans[level].c, limits[level]
            escalated = True
        if status == CONTINUE and trials >= n:
            status, accepted_level, accepted_t_h = ACCEPTED, level, plans[level].t_h
        if status != CONTINUE:
            if sink is not None:
                sink(Event(trials, value, level, failures, run,
                           "accept" if status == ACCEPTED else "reject"))
            break
        if sink is not None and not escalated:
            sink(Event(trials, value, level, failures, run, "continue"))
    return InspectionState(level_index=level, trials=trials, failures=failures, run=run,
                           status=status, accepted_level=accepted_level,
                           accepted_t_h=accepted_t_h)


def _run_recorded(ladder, outcomes):
    events = []
    return run_stream(ladder, outcomes, sink=events.append), events


@pytest.fixture(scope="module")
def step3_ladder():
    # Bin pair from zero, then the unit-step normal method
    return build_ladder([0.0, 0.03, 0.06])


@pytest.fixture(scope="module")
def newton_ladder():
    return build_ladder([0.02, 0.05, 0.10], method="Norm_N")


@pytest.fixture(scope="module")
def table_ladder():
    # eight levels with cumulative n from 628 to 7308
    return build_ladder([0.01 * i for i in range(9)])


class TestBuildLadder:
    def test_step3_reference(self, step3_ladder):
        lad = step3_ladder
        assert lad.methods == ("Bin", "Norm_I")
        assert lad.run_limits == (4, 5)
        n0, c0 = lad.plans[0].n, lad.plans[0].c
        assert abs(n0 - 250) <= 0.25 * 250
        assert abs(c0 - 4) <= 2
        assert lad.plans[0].t_h == pytest.approx(0.0143, abs=0.004)
        assert (lad.plans[1].n, lad.plans[1].c) == (495, 21)
        assert lad.plans[1].t_h == pytest.approx(0.0424, abs=0.004)

    def test_newton_reference(self, newton_ladder):
        lad = newton_ladder
        assert [(p.n, p.c) for p in lad.plans] == [(383, 13), (289, 21)]
        assert lad.run_limits == (5, 6)

    def test_single_level_rejected(self):
        with pytest.raises(LadderError):
            build_ladder([0.03])

    def test_levels_must_increase(self):
        with pytest.raises(LadderError):
            build_ladder([0.03, 0.03, 0.06])

    def test_levels_below_half(self):
        with pytest.raises(LadderError):
            build_ladder([0.3, 0.5])

    def test_no_convergence_names_pair(self):
        with pytest.raises(LadderError, match=r"0\.2.*0\.4"):
            build_ladder([0.2, 0.4], epsilon=1e-6)

    def test_plan_that_can_never_accept_names_pair(self):
        # the first pair's Norm_I plan is (n, c) = (5032, 0)
        with pytest.raises(LadderError, match=r"\(1e-05, 0\.0005\).*never accept"):
            build_ladder([1e-05, 0.0005, 0.001])

    def test_negative_run_limit(self, newton_ladder):
        with pytest.raises(LadderError, match="run limits must be at least 0"):
            LevelLadder(**{**vars(newton_ladder), "run_limits": (-1, 6)})

    @pytest.mark.parametrize("field", ["levels", "plans", "run_limits"])
    def test_mismatched_lengths(self, newton_ladder, field):
        # unchecked, one run limit short ends run_stream in a bare IndexError,
        # and one level short still runs both plans
        with pytest.raises(LadderError, match="plans and run limits, not"):
            LevelLadder(**{**vars(newton_ladder), field: getattr(newton_ladder, field)[:-1]})


class TestObserve:
    def test_accept_at_level_zero(self, step3_ladder):
        n0, c0 = step3_ladder.plans[0].n, step3_ladder.plans[0].c
        outcomes = [0] * 100 + [1] * (c0 - 1) + [0] * (n0 - 100 - (c0 - 1))
        state = run_stream(step3_ladder, outcomes)
        assert state.status == ACCEPTED
        assert state.accepted_level == 0
        assert state.accepted_t_h == step3_ladder.plans[0].t_h
        assert state.trials == n0
        assert state.failures == c0 - 1

    def test_escalation_keeps_counts(self, step3_ladder):
        c0 = step3_ladder.plans[0].c
        outcomes = [0, 1] * c0  # c0-th failure arrives at trial 2*c0
        state, events = _run_recorded(step3_ladder, outcomes)
        assert state.status == CONTINUE
        assert state.level_index == 1
        assert state.trials == 2 * c0
        assert state.failures == c0
        kinds = [e.transition for e in events]
        assert "escalate_failures" in kinds

    def test_escalated_level_accepts_cumulatively(self, step3_ladder):
        c0 = step3_ladder.plans[0].c
        n1, c1 = step3_ladder.plans[1].n, step3_ladder.plans[1].c
        lead = [0, 1] * c0
        state = run_stream(step3_ladder, lead + [0] * (n1 - len(lead)))
        assert state.status == ACCEPTED
        assert state.accepted_level == 1
        assert state.trials == n1            # cumulative target
        assert state.failures == c0 <= c1 - 1

    def test_run_limit_escalates_before_failure_count(self, newton_ladder):
        # 6 consecutive failures exceed r=5 at level 0 while failures < c=13
        state, events = _run_recorded(newton_ladder, [0, 1, 0] * 3 + [1] * 6)
        assert state.level_index == 1
        assert state.status == CONTINUE
        assert state.failures == 9
        assert any(e.transition == "escalate_run" for e in events)

    def test_run_limit_cascades_to_rejection(self, newton_ladder):
        # 8 straight failures: run 6 > 5 escalates, then run 7 > 6 rejects
        state = run_stream(newton_ladder, [1] * 8)
        assert state.status == REJECTED

    def test_accept_on_entry_when_cumulative_n_already_met(self, newton_ladder):
        # spread 13 failures so the 13th lands past level 1's n=289 with a
        # short run; the cascade accepts at level 1 immediately
        block = [0] * 26 + [1]
        state = run_stream(newton_ladder, block * 13)
        assert state.status == ACCEPTED
        assert state.accepted_level == 1
        assert state.trials == 13 * 27
        assert state.trials > newton_ladder.plans[1].n

    def test_observe_after_terminal(self, step3_ladder):
        state = run_stream(step3_ladder, [0] * step3_ladder.plans[0].n)
        with pytest.raises(StateError):
            observe(state, step3_ladder, 0)
        with pytest.raises(StateError):
            run_stream(step3_ladder, [0], state)
        assert run_stream(step3_ladder, [], state) == state

    def test_outcome_validation(self, step3_ladder):
        with pytest.raises(DomainError):
            observe(InspectionState(), step3_ladder, 7)
        outcomes = iter([0, 1, 2, 0])
        with pytest.raises(DomainError):
            run_stream(step3_ladder, outcomes)
        assert list(outcomes) == [0]  # raised at the bad outcome


class TestRunStream:
    def test_empty_stream_inconclusive(self, step3_ladder):
        state = run_stream(step3_ladder, [])
        assert state.status == CONTINUE
        assert state.trials == 0

    def test_stops_at_decision_and_ignores_rest(self, step3_ladder):
        n0 = step3_ladder.plans[0].n
        state = run_stream(step3_ladder, [0] * (n0 + 500))
        assert state.status == ACCEPTED
        assert state.trials == n0

    def test_reads_a_generator_lazily(self, step3_ladder):
        n0 = step3_ladder.plans[0].n
        outcomes = (0 for _ in range(n0 + 5))
        state = run_stream(step3_ladder, outcomes)
        assert state.status == ACCEPTED
        assert len(list(outcomes)) == 5  # nothing past the verdict was drawn

    @pytest.mark.parametrize("state", [InspectionState(failures=13), InspectionState(run=6)],
                             ids=["failures", "run"])
    def test_state_past_its_level_limits(self, newton_ladder, state):
        # level 0 has c = 13 and r = 5
        outcomes = iter([0, 1, 0])
        with pytest.raises(StateError, match="past level 0's limits"):
            run_stream(newton_ladder, outcomes, state)
        assert list(outcomes) == [0, 1, 0]  # nothing was drawn

    @pytest.mark.parametrize("state", [
        InspectionState(level_index=-1), InspectionState(level_index=2),
        InspectionState(level_index=5, status=ACCEPTED), InspectionState(trials=-1),
        InspectionState(failures=-4), InspectionState(run=-1)],
        ids=["level-1", "level2", "terminal-level5", "trials", "failures", "run"])
    def test_state_outside_the_ladder(self, newton_ladder, state):
        # levels 0 and 1 only; unchecked, level -1 read the last plan and
        # accepted 400 successes there, and level 2 raised a bare IndexError
        outcomes = iter([0] * 400)
        with pytest.raises(StateError, match="outside the ladder"):
            run_stream(newton_ladder, outcomes, state)
        assert len(list(outcomes)) == 400  # nothing was drawn


#: Inputs that int() rejects or maps off {0, 1}, and some it maps onto it.
ODD_VALUES = (2, -1, "x", None, "", 1.9, 0.7, "1", np.int64(1), np.float64(0.3),
              np.bool_(True))


def _drive(engine, ladder, stream, state, with_sink, raise_at, container):
    """Run one engine on ``container(stream)``, or on a generator that
    raises at ``raise_at`` when container is None; returns (final state or
    exception, event log, number of elements drawn from the generator)."""
    events, drawn = [], [0]

    def source():
        for i, value in enumerate(stream):
            if i == raise_at:
                raise DomainError("malformed token at line %d" % (i + 1))
            drawn[0] += 1
            yield value

    try:
        result = repr(engine(ladder, source() if container is None else container(stream),
                             state, events.append if with_sink else None))
    except Exception as exc:  # the exception is the result
        result = (type(exc), str(exc))
    return result, repr(events), drawn[0]


@st.composite
def engine_cases(draw, sinkless=False):
    """(ladder index, stream, state, with_sink, raise_at, container, window);
    ``sinkless`` draws only the inputs of the bytearray search path."""
    which = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.002, 0.01, 0.03, 0.06, 0.12, 0.3]))
    # the table ladder's levels run past a default search window
    length = draw(st.integers(0, 3000 if which == 2 else 700))
    stream = [int(rng.random() < rate) for _ in range(length)]
    for pos, value in draw(st.lists(st.tuples(st.integers(0, 2999),
                                              st.sampled_from(ODD_VALUES)), max_size=2)):
        if pos < len(stream):
            stream[pos] = value
    kind = draw(st.sampled_from(["fresh", "resumed", "made"]))
    if kind == "resumed":
        state = [int(rng.random() < rate) for _ in range(draw(st.integers(0, 500)))]
    elif kind == "made":
        # user-made counters, trials past a level's n and terminal ones
        # included; made_state fits them to the ladder drawn
        state = (draw(st.integers(0, 7)), draw(st.integers(0, 800 if which < 2 else 8000)),
                 draw(st.integers(0, 2**16)), draw(st.integers(0, 2**16)),
                 draw(st.sampled_from([CONTINUE] * 4 + [ACCEPTED])),
                 draw(st.sampled_from([False] * 9 + [True])))
    else:
        state = None
    window = draw(st.sampled_from([1, 7, 64, inspection_engine._WINDOW]))
    if sinkless:
        return which, stream, state, False, -1, draw(st.sampled_from([list, tuple])), window
    raise_at = draw(st.one_of(st.just(-1), st.integers(0, len(stream))))
    return (which, stream, state, draw(st.booleans()), raise_at,
            draw(st.sampled_from([None, list, tuple])), window)


def made_state(ladder, level, trials, f, r, status, past):
    """A hand-made state at a level (taken modulo the ladder's levels):
    failures below the level's c and a run of at most min(r, failures), or,
    when past, failures at c or beyond or a run beyond r, which a continuing
    state refuses."""
    level %= len(ladder.plans)
    c, limit = ladder.plans[level].c, ladder.run_limits[level]
    failures = f % c
    run = r % (min(limit, failures) + 1)
    if past and f % 2:
        failures = c + f % 3
    elif past:
        run = limit + 1 + r % 3
    return InspectionState(level_index=level, trials=trials, failures=failures, run=run,
                           status=status)


class TestAgainstReferenceModel:
    @staticmethod
    def _compare(ladders, case):
        which, stream, state, with_sink, raise_at, container, window = case
        ladder = ladders[which]
        if isinstance(state, list):  # resume from a state the model reached
            state = reference_run_stream(ladder, state)
        elif isinstance(state, tuple):
            state = made_state(ladder, *state)
        args = (ladder, stream, state, with_sink, raise_at, container)
        with mock.patch.object(inspection_engine, "_WINDOW", window), \
                mock.patch.object(inspection_engine, "_bytes",
                                  wraps=inspection_engine._bytes) as spy:
            assert _drive(run_stream, *args) == _drive(reference_run_stream, *args)
        if container is not None and not with_sink:
            # one conversion at most, and never past the horizon
            trials = 0 if state is None else state.trials
            horizon = max(max(plan.n for plan in ladder.plans) - trials, 1)
            assert [len(call.args[0]) for call in spy.call_args_list] in (
                [], [min(len(stream), horizon)])

    @settings(max_examples=400, deadline=None)
    @given(engine_cases())
    def test_same_states_events_exceptions_and_reads(self, step3_ladder, newton_ladder,
                                                     table_ladder, case):
        self._compare((step3_ladder, newton_ladder, table_ladder), case)

    @settings(max_examples=400, deadline=None)
    @given(engine_cases(sinkless=True))
    def test_same_states_and_exceptions_without_a_sink(self, step3_ladder, newton_ladder,
                                                       table_ladder, case):
        self._compare((step3_ladder, newton_ladder, table_ladder), case)

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    def test_transitions_at_every_chunk_offset(self, step3_ladder, newton_ladder, window):
        # a run breach, a run one short of it, the c-th failure, trial n, a
        # run past the breach and a run that breaches two levels at once,
        # each placed at every offset from a search window's boundary
        for ladder in (step3_ladder, newton_ladder):
            (n, c), r = (ladder.plans[0].n, ladder.plans[0].c), ladder.run_limits[0]
            tails = ([1] * (r + 1), [1] * r + [0], [1, 0] * c, [0] * n, [1] * (r + 2),
                     [1] * r + [0] + [1] * (ladder.run_limits[1] + 1))
            for lead in range(2 * window + 1):
                for tail in tails:
                    stream = [0] * lead + tail + [0, 1, 0]
                    with mock.patch.object(inspection_engine, "_WINDOW", window):
                        state = run_stream(ladder, stream)
                    assert state == reference_run_stream(ladder, stream), (lead, tail)

    def test_failure_driven_reject_reads_no_further(self, newton_ladder):
        # run 6 > 5 escalates, then run 7 > 6 rejects at trial 7 of 57
        outcomes = iter([0] + [1] * 7 + [0] * 49)
        state = run_stream(newton_ladder, outcomes)
        assert (state.status, state.trials) == (REJECTED, 8)
        assert len(list(outcomes)) == 49

    def test_accept_on_entry_reads_no_further(self, newton_ladder):
        # the 13th failure escalates past level 1's n = 289: accepted at 351
        outcomes = iter(([0] * 26 + [1]) * 13 + [1] * 30)
        state = run_stream(newton_ladder, outcomes)
        assert (state.status, state.accepted_level, state.trials) == (ACCEPTED, 1, 351)
        assert len(list(outcomes)) == 30

    @pytest.mark.parametrize("tail", ["accept", "c-th failure", "run breach"])
    @pytest.mark.parametrize("split", [0, 500, 1000])
    def test_a_transition_on_the_last_readable_outcome(self, table_ladder, tail, split):
        # the last level is entered at trial 829; the tail puts its verdict
        # at trial 7308, the largest n, so the list from ``split`` is exactly
        # as long as the horizon, and converted whole; with one more outcome,
        # only the outcomes up to the horizon are converted
        plans, limits = table_ladder.plans, table_ladder.run_limits
        horizon = max(plan.n for plan in plans)
        head = [1, 0] * plans[-2].c
        end = {"accept": [0],
               "c-th failure": [0, 1] * (plans[-1].c - plans[-2].c),
               "run breach": [1] * (limits[-1] + 1)}[tail]
        stream = head + [0] * (horizon - len(head) - len(end)) + end
        state = reference_run_stream(table_ladder, stream[:split])
        for rest in (stream[split:], stream[split:] + [0]):
            with mock.patch.object(inspection_engine, "_bytes",
                                   wraps=inspection_engine._bytes) as spy:
                result = run_stream(table_ladder, rest, state)
            assert result == reference_run_stream(table_ladder, rest, state)
            assert (result.trials, result.status) == (
                horizon, ACCEPTED if tail == "accept" else REJECTED)
            assert [len(call.args[0]) for call in spy.call_args_list] == [
                horizon - state.trials]

    def test_successes_before_a_raising_source_are_logged(self, step3_ladder):
        def source():
            yield from [0, 0, 1, 0, 0]
            raise DomainError("malformed token 'y' at line 6")

        events = []
        with pytest.raises(DomainError, match="line 6"):
            run_stream(step3_ladder, source(), sink=events.append)
        assert [(e.trial, e.outcome, e.run, e.transition) for e in events] == [
            (1, 0, 0, "continue"), (2, 0, 0, "continue"), (3, 1, 1, "continue"),
            (4, 0, 0, "continue"), (5, 0, 0, "continue")]


class _StrictOne(int):
    """Equal to 1, but refuses int(): counted only if 0/1 take the lookup."""

    def __int__(self):
        raise AssertionError("int() called on an outcome equal to 1")


class TestOutcomeCheck:
    @pytest.mark.parametrize("value", [1.0, True, np.int8(1), np.bool_(False),
                                       Decimal(1), Fraction(1)], ids=repr)
    def test_values_equal_to_0_or_1_give_plain_ints(self, step3_ladder, newton_ladder,
                                                    value):
        rng = random.Random(7)
        for ladder in (step3_ladder, newton_ladder):
            stream = [value if rng.random() < 0.3 else int(rng.random() < 0.05)
                      for _ in range(400)]
            events, expected = [], []
            state = run_stream(ladder, stream, sink=events.append)
            assert state == reference_run_stream(ladder, stream, sink=expected.append)
            assert events == expected
            assert {type(e.outcome) for e in events} == {int}
            assert run_stream(ladder, stream) == state  # the sink-less path

    def test_odd_values_leave_the_table_alone(self, step3_ladder, newton_ladder):
        for ladder in (step3_ladder, newton_ladder):
            for value in ODD_VALUES:
                try:
                    run_stream(ladder, [0, 1, value, 0], sink=[].append)
                except (DomainError, TypeError, ValueError):
                    pass
        table = inspection_engine._OUTCOMES
        assert table == {0: 0, 1: 1}
        assert [type(k) for k in table] == [int, int]

    def test_an_int_equal_to_1_is_a_failure_without_int(self, step3_ladder,
                                                         newton_ladder):
        for ladder in (step3_ladder, newton_ladder):
            state, events = observe(InspectionState(), ladder, _StrictOne(1))
            assert (state.trials, state.failures) == (1, 1)
            assert type(events[0].outcome) is int
            for seq in ([0, _StrictOne(1), 0], (_StrictOne(1), 0, 0)):  # no sink
                state = run_stream(ladder, seq)
                assert (state.trials, state.failures, state.run) == (3, 1, 0)

    @pytest.mark.parametrize("bad", [[1], bytearray(b"1")], ids=repr)
    @pytest.mark.parametrize("pos", [0, 2, 5])
    def test_unhashable_raises_type_error_at_its_position(self, step3_ladder, bad, pos):
        head = [0, 0, 1, 0, 0, 0][:pos]
        outcomes = iter(head + [bad, 0, 1])
        events = []
        with pytest.raises(TypeError):
            run_stream(step3_ladder, outcomes, sink=events.append)
        assert [(e.trial, e.outcome, e.transition) for e in events] == [
            (k, v, "continue") for k, v in enumerate(head, start=1)]
        assert list(outcomes) == [0, 1]  # nothing after it was drawn


class TestSinklessReads:
    @pytest.mark.parametrize("container", [list, tuple])
    @pytest.mark.parametrize("bad, error", [(2, DomainError), ("x", ValueError)])
    def test_a_bad_value_is_read_only_before_the_verdict(self, newton_ladder, container,
                                                         bad, error):
        # run 6 > 5 escalates, then run 7 > 6 rejects at trial 7, before the
        # bad value that sends the list to the loop
        state = run_stream(newton_ladder, container([1] * 7 + [bad, 0]))
        assert (state.status, state.trials) == (REJECTED, 7)
        with pytest.raises(error):
            run_stream(newton_ladder, container([1] * 6 + [bad, 1]))

    def test_an_error_past_the_verdict_does_not_escape(self, newton_ladder):
        class Boom:
            def __index__(self):
                raise RuntimeError("an outcome past the verdict was converted")

        # run 6 > 5 escalates, then run 7 > 6 rejects at trial 7
        stream = [1] * 8 + [0] * 5 + [Boom()]
        state = reference_run_stream(newton_ladder, stream)
        assert (state.status, state.trials) == (REJECTED, 7)
        assert run_stream(newton_ladder, iter(stream)) == state
        for container in (list, tuple):
            assert run_stream(newton_ladder, container(stream)) == state

    def test_list_tuple_and_iterator_agree_at_a_huge_run_limit(self, step3_ladder):
        # no run of failures can reach r, so every window searches for one
        ladder = LevelLadder(levels=step3_ladder.levels, plans=step3_ladder.plans,
                             run_limits=(sys.maxsize - 1,) * 2, ex=step3_ladder.ex,
                             methods=step3_ladder.methods)
        rng = random.Random(11)
        for rate in (0, 0.01, 0.05, 0.5, 1):
            stream = [int(rng.random() < rate) for _ in range(5000)]
            state = reference_run_stream(ladder, stream)
            for outcomes in (stream, tuple(stream), iter(stream)):
                assert run_stream(ladder, outcomes) == state, (rate, type(outcomes))

    def test_run_limits_about_the_window_size(self):
        # c of 2640 and more, so only the runs decide: r ones and a success,
        # then r + 1 ones, at several offsets from a window's boundary
        base = build_ladder([0.40, 0.42, 0.44])
        window = inspection_engine._WINDOW
        for r in (window - 1, window, window + 1):
            ladder = LevelLadder(levels=base.levels, plans=base.plans, run_limits=(r, r),
                                 ex=base.ex, methods=base.methods)
            for lead in (0, 1, window - 1, window + 5):
                stream = [0] * lead + [1] * r + [0] + [1] * (r + 1) + [0] * 9
                state = reference_run_stream(ladder, stream)
                assert (state.status, state.trials) == (REJECTED, lead + 2 * r + 2)
                assert run_stream(ladder, stream) == state, (r, lead)

    def test_nothing_past_the_horizon_is_converted(self, step3_ladder):
        # longer than the horizon, so converted up to it only
        converted = []

        class Spy:
            def __index__(self):
                converted.append(self)
                raise AssertionError("an outcome past the verdict was converted")

            __hash__ = __int__ = __index__

        n0, horizon = step3_ladder.plans[0].n, max(plan.n for plan in step3_ladder.plans)
        state = run_stream(step3_ladder, [0] * horizon + [Spy()] + [0] * n0)
        assert (state.status, state.trials) == (ACCEPTED, n0)
        assert converted == []

    @pytest.mark.parametrize("error", [AssertionError, RuntimeError, TypeError, ValueError,
                                       OverflowError, KeyError, ZeroDivisionError])
    def test_a_value_past_the_verdict_within_the_horizon_changes_nothing(
            self, step3_ladder, error):
        # within the horizon, so the value past the verdict is converted, and
        # its error sends the whole list to the loop, which stops at the verdict
        class Raising:
            def __index__(self):
                raise error("an outcome past the verdict")

            __hash__ = __int__ = __index__

        n0 = step3_ladder.plans[0].n
        state = run_stream(step3_ladder, [0] * n0 + [Raising()])
        assert state == run_stream(step3_ladder, [0] * (n0 + 1))
        assert (state.status, state.trials) == (ACCEPTED, n0)


class TestEventSourcing:
    @pytest.mark.parametrize("p_true", [0.01, 0.05, 0.12])
    def test_replay_reproduces_state(self, newton_ladder, p_true):
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(40):
            stream = (rng.random(400) < p_true).astype(int).tolist()
            state, events = _run_recorded(newton_ladder, stream)
            assert run_stream(newton_ladder, stream) == state
            again = []
            assert replay(newton_ladder, events, sink=again.append) == state
            assert again == events

    def test_cumulative_monotonicity_and_terminal_exclusivity(self, newton_ladder):
        rng = np.random.Generator(np.random.Philox(key=1234))
        for _ in range(60):
            stream = (rng.random(400) < 0.08).astype(int)
            state = InspectionState()
            prev_trials = prev_failures = 0
            terminal_seen = False
            for tok in stream:
                if state.terminal:
                    terminal_seen = True
                    break
                state, _ = observe(state, newton_ladder, int(tok))
                assert state.trials >= prev_trials
                assert state.failures >= prev_failures
                assert state.failures <= state.trials
                assert state.run <= state.failures
                prev_trials, prev_failures = state.trials, state.failures
            if state.status == ACCEPTED:
                plan = newton_ladder.plans[state.accepted_level]
                assert state.failures <= plan.c - 1
                assert state.trials >= plan.n
            assert not (terminal_seen and not state.terminal)

    def test_sfl_escalations_record_run_breach(self, newton_ladder):
        rng = np.random.Generator(np.random.Philox(key=5))
        seen = 0
        for _ in range(200):
            stream = (rng.random(400) < 0.2).astype(int)
            _, events = _run_recorded(newton_ladder, stream.tolist())
            for e in events:
                if e.transition == "escalate_run":
                    level_at = e.level
                    assert e.run > newton_ladder.run_limits[level_at]
                    seen += 1
        assert seen > 0


# Event logs written by the engine as it was before the counters rewrite,
# when each state carried its whole log: (ladder fixture, stream, number of
# events, every event other than `continue` as (trial, outcome, level,
# failures, run, transition), sha256 of repr() of the full log in that form).
GOLDEN = {
    "run_breach_cascades_to_reject": (
        "newton_ladder", [1] * 8, 7,
        [(6, 1, 0, 6, 6, "escalate_run"), (7, 1, 1, 7, 7, "reject")],
        "ded0cf05c3733017af68961c08a3398d52df4db30b4abae34c28feee567916a2"),
    "failures_escalate_then_continue": (
        "step3_ladder", [0, 1, 0, 1, 1, 0, 0], 7,
        [(5, 1, 0, 3, 2, "escalate_failures")],
        "28cba64d7bbbb57dd1fd603def5371061f705af973c9099e0da6f65183c8b3a5"),
    "failures_escalate_then_run_rejects": (
        "step3_ladder", [0, 1, 0, 1, 0, 1] + [1] * 6, 11,
        [(6, 1, 0, 3, 1, "escalate_failures"), (11, 1, 1, 8, 6, "reject")],
        "a2f6ca4071cfae89564df0dbd1356f968165adb1b8a6f847a1e85e0c491196d0"),
    "clean_stream_accepts": (
        "step3_ladder", [0] * 208, 208,
        [(208, 0, 0, 0, 0, "accept")],
        "edbeb8c3f70e57fb066078cd8bfdceb9e4a10bc7e9fdebf7d32d96db39be2605"),
    "failure_count_beats_acceptance_at_n": (
        "step3_ladder", [0] * 205 + [1] * 3 + [0], 209,
        [(208, 1, 0, 3, 3, "escalate_failures")],
        "083cf8ee1e54dc42317a7d3cdaafcdce61987c0bbe57260258e448cf2b66f158"),
    "run_escalation_cascades_to_accept": (
        "newton_ladder", [0] * 289 + [1] * 6, 296,
        [(295, 1, 0, 6, 6, "escalate_run"), (295, 1, 1, 6, 6, "accept")],
        "4466886513f97925fe29cd290686cabcf176c085465655d16ee23b2627de2c43"),
    "failure_escalation_cascades_to_accept": (
        "newton_ladder", [0] * 300 + [1, 0] * 13, 326,
        [(325, 1, 0, 13, 1, "escalate_failures"), (325, 1, 1, 13, 1, "accept")],
        "e6571488aa309edc317dbe10a0103eb89f2980228c3a78a190d88a65c7fc2912"),
}


class TestEventLog:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_event_log(self, request, name):
        fixture, stream, count, transitions, digest = GOLDEN[name]
        ladder = request.getfixturevalue(fixture)
        state, events = _run_recorded(ladder, stream)
        log = [(e.trial, e.outcome, e.level, e.failures, e.run, e.transition)
               for e in events]
        assert [e for e in log if e[5] != "continue"] == transitions
        assert len(log) == count
        assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
        # observe, one outcome at a time, returns each trial's events
        stepped, step_state = [], InspectionState()
        for value in stream[:state.trials]:
            step_state, new = observe(step_state, ladder, value)
            stepped.extend(new)
        assert step_state == state
        assert stepped == events

    def test_no_event_built_without_a_sink(self, monkeypatch):
        built = []
        real = inspection_engine.Event

        def counted(*fields):
            built.append(fields)
            return real(*fields)

        monkeypatch.setattr(inspection_engine, "Event", counted)
        ladder = build_ladder([0.01 * i for i in range(9)])
        stream = ([0] * 13 + [1]) * 522  # 7308 outcomes, through every level
        state = run_stream(ladder, stream)
        assert (state.status, state.level_index, state.trials) == (ACCEPTED, 7, 7308)
        assert built == []
        events = []
        assert run_stream(ladder, stream, sink=events.append) == state
        assert len(built) == len(events) == 7308
