"""The contract of the 12 public records: fields, repr, equality, hashing,
immutability, signature, pickling and ``__post_init__`` validation."""

import copy
import inspect
import pickle
from types import SimpleNamespace

import pytest

from dhtplan import (Applicability, DomainError, ErrorEstimate, InspectionState,
                     LadderError, LevelLadder, MembershipFunction, OcCurve, SamplingPlan,
                     SelectorInput, SflQuery, TailMass, TestSpec)
from dhtplan.inspection_engine import Event

_APP = Applicability(np0_gt5=True, nq0_gt5=True, p_lt_0_1=True)
_PLAN = SamplingPlan(n=383, c=13, t_h=0.031733647962134105, np0=7.66, method="Norm_N",
                     iterations=2, converged=True, applicability=_APP,
                     n_real=382.8931825271519)

#: the default of a field without one, as inspect.signature gives it
REQ = inspect.Parameter.empty

#: One instance of each record, and its fields with their defaults.
RECORDS = [
    (TailMass(0.1), [("value", REQ)]),
    (TestSpec(0.02, 0.05),
     [("p0", REQ), ("p1", REQ), ("alpha_tail", 0.05), ("beta_tail", 0.05),
      ("epsilon", None), ("max_n", 200_000), ("paper_compat_z", True)]),
    (_APP, [("np0_gt5", REQ), ("nq0_gt5", REQ), ("p_lt_0_1", REQ)]),
    (_PLAN, [("n", REQ), ("c", REQ), ("t_h", REQ), ("np0", REQ), ("method", REQ),
             ("iterations", REQ), ("converged", REQ), ("applicability", REQ),
             ("n_real", None)]),
    (SflQuery(0.02), [("p", REQ), ("ex", 1e6)]),
    (LevelLadder((0.02, 0.05), (_PLAN,), (4,), 1e6, ("Norm_N",)),
     [("levels", REQ), ("plans", REQ), ("run_limits", REQ), ("ex", REQ),
      ("methods", REQ)]),
    (Event(12, 1, 0, 2, 1, "continue"),
     [("trial", REQ), ("outcome", REQ), ("level", REQ), ("failures", REQ),
      ("run", REQ), ("transition", REQ)]),
    (InspectionState(),
     [("level_index", 0), ("trials", 0), ("failures", 0), ("run", 0),
      ("status", "continue"), ("accepted_level", None), ("accepted_t_h", None)]),
    (MembershipFunction("Low", 0.0, 0.1, 0.2, 0.3),
     [("label", REQ), ("a", REQ), ("b", REQ), ("c", REQ), ("d", REQ)]),
    (SelectorInput(0.01, 0.1, 3.0, 1e-4),
     [("step", REQ), ("t_h", REQ), ("t_exec", REQ), ("prec_abs", REQ)]),
    (OcCurve(383, 13, ((0.02, 0.95),)), [("n", REQ), ("c", REQ), ("points", REQ)]),
    (ErrorEstimate(0.04, 0.05, seed=7),
     [("alpha_hat", REQ), ("beta_hat", REQ), ("mc_alpha", None), ("mc_beta", None),
      ("seed", None)]),
]

_IDS = [type(record).__name__ for record, fields in RECORDS]


def _values(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_fields_signature_and_defaults(record, fields):
    cls = type(record)
    names = [name for name, default in fields]
    assert list(cls.__match_args__) == names
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == fields
    for name, default in fields:
        if default is not REQ:
            assert getattr(cls, name) == default, name
    # keywords build the same record as positions
    assert cls(**{name: getattr(record, name) for name in names}) == cls(*_values(record))


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_equality_and_hashing(record, fields):
    cls = type(record)
    twin = cls(*_values(record))
    assert twin == record and not twin != record and twin is not record
    assert hash(twin) == hash(record) == hash(_values(record))
    assert len({record, twin}) == 1
    # another class with the same field values is not equal
    assert record != SimpleNamespace(**vars(record))
    assert record != _values(record)


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    name = fields[0][0]
    before = _values(record)
    with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
        setattr(record, name, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field '%s'" % name):
        delattr(record, name)
    assert _values(record) == before


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_pickle_and_copy(record, fields):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record)


def test_repr():
    assert repr(TestSpec(0.02, 0.05)) == (
        "TestSpec(p0=0.02, p1=0.05, alpha_tail=0.05, beta_tail=0.05, epsilon=None, "
        "max_n=200000, paper_compat_z=True)")
    assert repr(_PLAN) == (
        "SamplingPlan(n=383, c=13, t_h=0.031733647962134105, np0=7.66, method='Norm_N', "
        "iterations=2, converged=True, applicability=Applicability(np0_gt5=True, "
        "nq0_gt5=True, p_lt_0_1=True), n_real=382.8931825271519)")
    assert repr(InspectionState()) == (
        "InspectionState(level_index=0, trials=0, failures=0, run=0, status='continue', "
        "accepted_level=None, accepted_t_h=None)")
    assert repr(Event(12, 1, 0, 2, 1, "continue")) == (
        "Event(trial=12, outcome=1, level=0, failures=2, run=1, transition='continue')")
    assert repr(MembershipFunction("Low", 0.0, 0.1, 0.2, 0.3)) == (
        "MembershipFunction(label='Low', a=0.0, b=0.1, c=0.2, d=0.3)")
    assert repr(SflQuery(0.02)) == "SflQuery(p=0.02, ex=1000000.0)"
    assert repr(TailMass(0.1)) == "TailMass(value=0.1)"


def test_match_args():
    match TestSpec(0.02, 0.05, max_n=1000):
        case TestSpec(p0, p1, alpha, beta, eps, max_n):
            assert (p0, p1, alpha, beta, eps, max_n) == (0.02, 0.05, 0.05, 0.05, None, 1000)


def test_post_init_validation():
    with pytest.raises(DomainError, match=r"tail mass must be in \(0, 0\.5\), got 0\.7"):
        TailMass(0.7)
    spec = TestSpec(0.02, 0.05, max_n=1e5)
    assert spec.max_n == 100_000 and type(spec.max_n) is int
    assert spec == TestSpec(0.02, 0.05, max_n=100_000)
    with pytest.raises(DomainError, match="max_n must be a whole number, got 100000.5"):
        TestSpec(0.02, 0.05, max_n=100000.5)
    with pytest.raises(LadderError, match="a ladder of 2 levels needs 1 plans and run "
                                          "limits, not 1 and 2"):
        LevelLadder((0.02, 0.05), (_PLAN,), (4, 5), 1e6, ("Norm_N",))
    with pytest.raises(DomainError, match="trapezoid breakpoints must be ordered: "
                                          r"MembershipFunction\(label='x', a=1"):
        MembershipFunction("x", 1, 0, 2, 3)
    with pytest.raises(TypeError, match=r"TestSpec\.__init__\(\) missing 1 required "
                                        "positional argument: 'p1'"):
        TestSpec(0.02)


class _PlainSpec(TestSpec):
    """A subclass that declares no field of its own."""


def test_plain_subclass_keeps_the_fields():
    spec = _PlainSpec(0.02, 0.05, max_n=1e5)
    assert _PlainSpec.__match_args__ == TestSpec.__match_args__
    assert inspect.signature(_PlainSpec) == inspect.signature(TestSpec)
    assert repr(spec) == (
        "_PlainSpec(p0=0.02, p1=0.05, alpha_tail=0.05, beta_tail=0.05, epsilon=None, "
        "max_n=100000, paper_compat_z=True)")
    twin = TestSpec(0.02, 0.05, max_n=100_000)
    assert spec == _PlainSpec(*_values(twin)) and spec != twin and hash(spec) == hash(twin)
    with pytest.raises(AttributeError, match="cannot assign to field 'p0'"):
        spec.p0 = 0.01
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(DomainError, match="max_n must be a whole number"):
        _PlainSpec(0.02, 0.05, max_n=0.5)


def test_subclass_fields_follow_the_base_fields():
    class Tagged(TestSpec):
        tag: str = "x"

    spec = Tagged(0.02, 0.05, tag="y")
    assert Tagged.__match_args__ == TestSpec.__match_args__ + ("tag",)
    assert [p.name for p in inspect.signature(Tagged).parameters.values()][-2:] == [
        "paper_compat_z", "tag"]
    assert repr(spec).endswith("max_n=200000, paper_compat_z=True, tag='y')")
    assert spec != Tagged(0.02, 0.05) and spec == Tagged(0.02, 0.05, tag="y")
