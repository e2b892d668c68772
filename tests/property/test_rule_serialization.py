"""Rule and plan dicts: the round trip, and the format stored plans use.

Every fault and schedule rule kind serializes through one generic
``to_dict``/``from_dict`` pair (repro.sim.faults.Rule).  The property
tests build rules of every registered kind from generated valid field
values and check that a dict survives JSON and ``from_dict`` unchanged,
alone and inside whole plans.  The table test pins the exact dict of
one instance per kind: repro bundles on disk and the benchmark's pinned
plans (hostbench/workloads.json, loaded here too) use this format.
"""

import json
import os
from dataclasses import MISSING, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import Errno
from repro.sim.faults import (AcceptStall, ConnDrop, CrashStorm, FaultPlan,
                              FaultRule, LwpCrash, PacketDelay,
                              PageFaultStorm, PeerReset, SyscallFault,
                              TimerJitter)
from repro.sim.schedule import (ForcedPreempt, PctPriorities, RandomPick,
                                RandomPreempt, SchedulePlan, ScheduleRule,
                                SchedulerChoice)

_GLOB = st.text(alphabet="abcz-:#*?0123456789", max_size=12)
_USEC = st.floats(0.0, 1e7)

#: Valid values per constructor field name, shared by every kind that
#: takes the field.  A kind with a field missing here fails the tests.
FIELD_VALUES = {
    "probability": st.floats(0.0, 1.0),
    "every": st.none() | st.integers(1, 100),
    "max_count": st.none() | st.integers(0, 100),
    "skip": st.integers(0, 100),
    "call": st.sampled_from(["lwp_create", "brk", "getpid", "connect"]),
    "errno": st.sampled_from([e.name for e in Errno]) | st.sampled_from(
        list(Errno)),
    "at_usec": _USEC,
    "pattern": _GLOB,
    "max_usec": _USEC,
    "pid": st.none() | st.integers(1, 64),
    "lwp_id": st.none() | st.integers(1, 64),
    "start_usec": _USEC,
    "interval_usec": st.floats(1.0, 1e7),
    "count": st.integers(1, 100),
    "target": _GLOB,
    "port": st.none() | st.integers(1, 65_535),
    "mode": st.sampled_from(ConnDrop.MODES),
    "timeout_usec": _USEC,
    "stall_usec": _USEC,
    "op": st.sampled_from(PacketDelay.OPS),
    "ops": st.none() | st.lists(_GLOB, max_size=4),
    "points": st.lists(st.integers(0, 10_000), max_size=20),
    "change_every": st.integers(0, 50),
    "sched_class": st.sampled_from(["TS", "RT", "CFS", "MLFQ", "SJF"]),
}

FAMILIES = [(FaultPlan, FaultRule), (SchedulePlan, ScheduleRule)]
KINDS = [(family, cls) for _, family in FAMILIES
         for cls in family.KINDS.values()]


def rules_of(cls):
    """Rules of kind ``cls``: every required field drawn, each optional
    one drawn or left to its default."""
    params = [f for f in fields(cls) if f.init]
    required = {f.name for f in params
                if f.default is MISSING and f.default_factory is MISSING}
    return st.fixed_dictionaries(
        {f.name: FIELD_VALUES[f.name] for f in params if f.name in required},
        optional={f.name: FIELD_VALUES[f.name] for f in params
                  if f.name not in required},
    ).map(lambda kwargs: cls(**kwargs))


def _stored(data: dict) -> dict:
    """``data`` after a trip through a JSON file."""
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("family, cls", KINDS,
                         ids=[cls.KIND for _, cls in KINDS])
@given(data=st.data())
def test_every_rule_kind_round_trips(family, cls, data):
    rule = data.draw(rules_of(cls))
    expected = rule.to_dict()
    rebuilt = family.from_dict(_stored(expected))
    assert type(rebuilt) is cls
    assert rebuilt.to_dict() == expected


@pytest.mark.parametrize("plan_cls, family", FAMILIES,
                         ids=["faults", "schedule"])
@given(data=st.data())
def test_every_plan_round_trips(plan_cls, family, data):
    kinds = st.one_of([rules_of(cls) for cls in family.KINDS.values()])
    expected = plan_cls(data.draw(st.lists(kinds, max_size=6))).to_dict()
    assert plan_cls.from_dict(_stored(expected)).to_dict() == expected


#: One instance of each kind and the dict it serializes to.
PINNED = [
    (SyscallFault("lwp_create", "EAGAIN", probability=0.25, max_count=10,
                  skip=3),
     {"kind": "syscall", "call": "lwp_create", "errno": "EAGAIN",
      "probability": 0.25, "every": None, "max_count": 10, "skip": 3}),
    (PageFaultStorm(2_000.0, pattern="file:*"),
     {"kind": "storm", "at_usec": 2000.0, "pattern": "file:*"}),
    (TimerJitter(500.0, probability=0.9),
     {"kind": "jitter", "max_usec": 500.0, "probability": 0.9}),
    (LwpCrash(10_000.0, pid=1, lwp_id=2),
     {"kind": "crash", "at_usec": 10000.0, "pid": 1, "lwp_id": 2}),
    (CrashStorm(5_000.0, 2_000.0, 4, target="worker-*", pid=1),
     {"kind": "crash-storm", "start_usec": 5000.0, "interval_usec": 2000.0,
      "count": 4, "target": "worker-*", "pid": 1}),
    (ConnDrop(port=7000, mode="timeout", timeout_usec=5_000.0,
              probability=0.5, skip=1),
     {"kind": "conn-drop", "port": 7000, "mode": "timeout",
      "timeout_usec": 5000.0, "probability": 0.5, "every": None,
      "max_count": None, "skip": 1}),
    (AcceptStall(port=None, stall_usec=1_500.0, every=4),
     {"kind": "accept-stall", "port": None, "stall_usec": 1500.0,
      "probability": 1.0, "every": 4, "max_count": None, "skip": 0}),
    (PacketDelay(op="recv", max_usec=750.0, probability=0.3),
     {"kind": "packet-delay", "op": "recv", "max_usec": 750.0,
      "probability": 0.3, "every": None, "max_count": None, "skip": 0}),
    (PeerReset(op="send", pattern="sock:7000#*", max_count=2),
     {"kind": "peer-reset", "op": "send", "pattern": "sock:7000#*",
      "probability": 1.0, "every": None, "max_count": 2, "skip": 0}),
    (RandomPreempt(probability=0.25, ops=["acquire", "cell-*"],
                   max_count=6, skip=2),
     {"kind": "random", "probability": 0.25, "ops": ["acquire", "cell-*"],
      "max_count": 6, "skip": 2}),
    (ForcedPreempt([112, 17, 17]), {"kind": "forced", "points": [17, 112]}),
    (RandomPick(probability=0.4), {"kind": "pick", "probability": 0.4}),
    (PctPriorities(change_every=7), {"kind": "pct", "change_every": 7}),
    (SchedulerChoice("CFS"), {"kind": "scheduler", "sched_class": "CFS"}),
]


def test_pinned_table_covers_every_kind():
    assert sorted(rule.KIND for rule, _ in PINNED) == sorted(
        cls.KIND for _, cls in KINDS)


@pytest.mark.parametrize("rule, expected", PINNED,
                         ids=[rule.KIND for rule, _ in PINNED])
def test_to_dict_format_is_pinned(rule, expected):
    assert rule.to_dict() == expected
    # Key order too: stored JSON written without sort_keys keeps it.
    assert list(rule.to_dict()) == list(expected)


def test_benchmark_plans_load_unchanged():
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "hostbench", "workloads.json")
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    plans = workloads["explore_sweep"]["input"]["plans"]
    assert plans
    for plan in plans:
        assert SchedulePlan.from_dict(plan).to_dict() == plan
