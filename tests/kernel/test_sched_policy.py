"""Tests for the pluggable scheduling-class framework.

Covers the SchedPolicy implementations (CFS/MLFQ/SJF/HRR) as pure
queue-discipline units, the SchedClassTable arbitration, the priocntl
class-change protocol (error paths + requeue semantics), the GangGroup
fixes (per-kernel ids, class reset on remove), and the SchedulerChoice
perturbation rule end-to-end.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Simulator
from repro.errors import SimulationError, SyscallError
from repro.hw.context import Activity, as_generator
from repro.hw.isa import Charge, Syscall
from repro.kernel.lwp import Lwp, SchedClass
from repro.kernel.sched.policy import (CfsPolicy, GangPolicy, HrrPolicy,
                                       MlfqPolicy, RealtimePolicy,
                                       SchedClassTable, SjfPolicy,
                                       TimesharePolicy)
from repro.kernel.syscalls.lwp_calls import (PC_GETPARMS, PC_JOIN_GANG,
                                             PC_LEAVE_GANG, PC_SETCLASS)
from repro.sim.clock import usec
from repro.sim.schedule import SchedulePlan, SchedulerChoice
from tests.conftest import run_program


class FakeProc:
    def __init__(self, pid):
        self.pid = pid


class FakeLwp:
    """Just enough LWP for policy unit tests."""

    def __init__(self, lwp_id, prio=30, pid=1, sched_class=SchedClass.CFS):
        self.lwp_id = lwp_id
        self.priority = prio
        self.effective_priority = prio
        self.name = f"lwp-{pid}.{lwp_id}"
        self.bound_cpu = None
        self.sched_class = sched_class
        self.sched_state = None
        self.process = FakeProc(pid)


def everyone(_lwp):
    return True


class TestCfsPolicy:
    def test_least_vruntime_first(self):
        pol = CfsPolicy()
        a, b = FakeLwp(1), FakeLwp(2)
        pol.enqueue(a)
        pol.enqueue(b)
        assert pol.peek(everyone) is a  # tie broken by lwp_id
        pol.take(a)
        pol.on_offcpu(a, 5_000)
        pol.enqueue(a)
        assert pol.peek(everyone) is b  # b has run less

    def test_new_arrival_starts_at_min_vruntime(self):
        pol = CfsPolicy()
        a = FakeLwp(1)
        pol.enqueue(a)
        pol.take(a)
        pol.on_offcpu(a, 9_000)
        pol.enqueue(a)
        # A brand-new LWP must not be able to starve the queue from
        # vruntime 0, nor be starved: it starts at the floor.
        c = FakeLwp(3)
        pol.enqueue(c)
        assert c.sched_state["vruntime"] == pol._min_vruntime

    def test_offcpu_without_state_is_noop(self):
        pol = CfsPolicy()
        a = FakeLwp(1)
        pol.on_offcpu(a, 1_000)  # never enqueued: no state, no crash
        assert a.sched_state is None


class TestSjfPolicy:
    def test_shortest_estimated_burst_first(self):
        pol = SjfPolicy()
        hog, sprinter = FakeLwp(1), FakeLwp(2)
        for lwp, span in ((hog, 8_000_000), (sprinter, 10_000)):
            pol.enqueue(lwp)
            pol.take(lwp)
            pol.on_offcpu(lwp, span)
        pol.enqueue(hog)
        pol.enqueue(sprinter)
        assert pol.peek(everyone) is sprinter

    def test_burst_estimate_is_exponential_average(self):
        pol = SjfPolicy()
        a = FakeLwp(1)
        pol.enqueue(a)
        est0 = a.sched_state["burst_ns"]
        pol.take(a)
        pol.on_offcpu(a, 3_000_000)
        assert a.sched_state["burst_ns"] == (est0 + 3_000_000) // 2


class TestMlfqPolicy:
    def test_expiry_demotes_and_wakeup_boosts(self):
        pol = MlfqPolicy()
        a = FakeLwp(1)
        pol.enqueue(a)
        assert a.sched_state["level"] == 0
        pol.on_quantum_expired(a)
        assert a.sched_state["level"] == 1
        for _ in range(10):
            pol.on_quantum_expired(a)
        assert a.sched_state["level"] == MlfqPolicy.LEVELS - 1
        pol.on_wakeup(a)
        assert a.sched_state["level"] == 0

    def test_quantum_doubles_per_level(self):
        pol = MlfqPolicy()
        a = FakeLwp(1)
        pol.enqueue(a)
        base = 1_000
        assert pol.quantum_ns(a, base) == base
        pol.on_quantum_expired(a)
        assert pol.quantum_ns(a, base) == base * 2

    def test_higher_level_queue_goes_first(self):
        pol = MlfqPolicy()
        hog, fresh = FakeLwp(1), FakeLwp(2)
        pol.enqueue(hog)
        pol.take(hog)
        pol.on_quantum_expired(hog)   # hog sinks to level 1
        pol.enqueue(hog)
        pol.enqueue(fresh)            # fresh joins level 0
        assert pol.peek(everyone) is fresh

    def test_periodic_boost_repromotes(self):
        pol = MlfqPolicy()
        hog = FakeLwp(1)
        pol.enqueue(hog)
        pol.take(hog)
        for _ in range(MlfqPolicy.LEVELS):
            pol.on_quantum_expired(hog)
        pol.enqueue(hog)
        # Churn enqueues until the deterministic boost clock fires.
        filler = FakeLwp(2)
        for _ in range(MlfqPolicy.BOOST_EVERY):
            pol.enqueue(filler)
            pol.take(filler)
        assert hog.sched_state["level"] == 0


class TestHrrPolicy:
    def test_groups_share_round_robin(self):
        pol = HrrPolicy()
        # Process 1 floods; process 2 has a single LWP.
        a1, a2, a3 = (FakeLwp(i, pid=1) for i in (1, 2, 3))
        b1 = FakeLwp(1, pid=2)
        for lwp in (a1, a2, a3, b1):
            pol.enqueue(lwp)
        picked = []
        while len(pol):
            lwp = pol.peek(everyone)
            pol.take(lwp)
            picked.append(lwp)
        # Group 1 gets QUOTA picks, then group 2 gets its turn: the
        # single-LWP process is not crowded out until the flood drains.
        assert picked.index(b1) == HrrPolicy.QUOTA

    def test_remove_drops_empty_group(self):
        pol = HrrPolicy()
        a = FakeLwp(1, pid=7)
        pol.enqueue(a)
        assert pol.remove(a)
        assert len(pol) == 0
        assert pol.peek(everyone) is None


class TestSchedClassTable:
    def test_duplicate_class_rejected(self):
        with pytest.raises(SimulationError):
            SchedClassTable([TimesharePolicy(), TimesharePolicy()])

    def test_unknown_class_name_rejected(self):
        table = SchedClassTable.default()
        with pytest.raises(SimulationError):
            table.class_for_name("FIFO")

    def test_unregistered_class_name_rejected(self):
        table = SchedClassTable([TimesharePolicy()])
        with pytest.raises(SimulationError):
            table.class_for_name("CFS")

    def test_pick_prefers_higher_band(self):
        table = SchedClassTable.default()
        ts = FakeLwp(1, prio=59, sched_class=SchedClass.TIMESHARE)
        rt = FakeLwp(2, prio=0, sched_class=SchedClass.REALTIME)
        rt.effective_priority = 200
        ts.effective_priority = 59
        table.insert(ts)
        table.insert(rt)
        assert table.pick(everyone) is rt
        assert table.pick(everyone) is ts

    def test_remove_finds_lwp_after_class_change(self):
        table = SchedClassTable.default()
        lwp = FakeLwp(1, sched_class=SchedClass.TIMESHARE)
        table.insert(lwp)
        lwp.sched_class = SchedClass.MLFQ  # changed while queued
        assert table.remove(lwp)
        assert len(table) == 0


#: The classes sharing the priority-FIFO queue, between which an LWP
#: may change class while queued (``GangGroup.add`` does).
_FIFO_CLASSES = (SchedClass.TIMESHARE, SchedClass.REALTIME,
                 SchedClass.GANG)

_TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 5), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 5)),
    st.tuples(st.just("pick"), st.just(0), st.frozensets(st.integers(0, 5))),
    st.tuples(st.just("best"), st.just(0)),
    st.tuples(st.just("class"), st.integers(0, 5),
              st.sampled_from(list(SchedClass))),
    st.tuples(st.just("prio"), st.integers(0, 5), st.integers(0, 59)),
), max_size=40)


def _peek_every_policy(table, eligible):
    """The reference pick, peeking every policy, empty or not: the
    highest effective priority among the nominees wins, ties to the
    earlier policy in table order."""
    best = None
    for pol in table.ordered:
        cand = pol.peek(eligible)
        if cand is not None and (
                best is None
                or cand.effective_priority > best.effective_priority):
            best = cand
    return best


class TestSchedClassTableCounts:
    @settings(max_examples=60, deadline=None)
    @given(ops=_TABLE_OPS)
    # A class change while queued, then a remove and a pick: both find
    # the LWP in its old class's queue, whose count must drop.
    @example(ops=[("insert", 0, False), ("class", 0, SchedClass.GANG),
                  ("remove", 0), ("insert", 1, True),
                  ("class", 1, SchedClass.REALTIME),
                  ("pick", 0, frozenset())])
    # A remove of an LWP no policy holds asks MLFQ too, which must not
    # read another class's state blob as its own.
    @example(ops=[("class", 0, SchedClass.CFS), ("insert", 0, False),
                  ("remove", 0), ("remove", 0)])
    def test_counts_match_the_policies_after_every_step(self, ops):
        table = SchedClassTable.default()
        lwps = [Lwp(i + 1, FakeProc(1 + i % 2), None) for i in range(6)]
        queued = set()
        for kind, i, *arg in ops:
            lwp = lwps[i]
            if kind == "insert" and lwp not in queued:
                table.insert(lwp, front=arg[0])
                queued.add(lwp)
            elif kind == "remove":
                assert table.remove(lwp) == (lwp in queued)
                queued.discard(lwp)
            elif kind == "pick":
                def eligible(l, out=arg[0]):
                    return l.lwp_id - 1 not in out
                want = _peek_every_policy(table, eligible)
                assert table.pick(eligible) is want
                queued.discard(want)
            elif kind == "best":
                prios = [p.best_priority() for p in table.ordered]
                assert table.best_priority() == max(
                    (p for p in prios if p is not None), default=None)
            elif kind == "class":
                if lwp not in queued:
                    # The priocntl hand-off: a fresh state blob.
                    lwp.sched_class = arg[0]
                    lwp.sched_state = None
                elif lwp.sched_class in _FIFO_CLASSES \
                        and arg[0] in _FIFO_CLASSES:
                    lwp.sched_class = arg[0]
            elif kind == "prio":
                lwp.priority = arg[0]
            assert len(table) == sum(map(len, table.ordered)) == len(queued)
            assert [table.counts[p] for p in table.ordered] == \
                [len(p) for p in table.ordered]


class TestPriocntlClassChange:
    def test_esrch_for_unknown_lwp(self):
        caught = []

        def main():
            try:
                yield Syscall("priocntl", PC_SETCLASS, 999,
                              SchedClass.CFS)
            except SyscallError as err:
                caught.append(err.errno.name)

        run_program(main)
        assert caught == ["ESRCH"]

    def test_einval_for_non_class_argument(self):
        caught = []

        def main():
            try:
                yield Syscall("priocntl", PC_SETCLASS, 0, "CFS")
            except SyscallError as err:
                caught.append(err.errno.name)

        run_program(main)
        assert caught == ["EINVAL"]

    def test_einval_for_unregistered_class(self):
        caught = []

        def main():
            try:
                yield Syscall("priocntl", PC_SETCLASS, 0, SchedClass.CFS)
            except SyscallError as err:
                caught.append(err.errno.name)

        sim = Simulator(ncpus=1)
        sim.kernel.dispatcher.table = SchedClassTable(
            [TimesharePolicy(), RealtimePolicy(), GangPolicy()])
        sim.spawn(main)
        sim.run()
        assert caught == ["EINVAL"]

    def test_change_to_new_class_and_back(self):
        seen = {}

        def main():
            yield Syscall("priocntl", PC_SETCLASS, 0, SchedClass.MLFQ)
            seen["mlfq"] = yield Syscall("priocntl", PC_GETPARMS)
            yield Syscall("priocntl", PC_SETCLASS, 0,
                          SchedClass.TIMESHARE)
            seen["ts"] = yield Syscall("priocntl", PC_GETPARMS)

        run_program(main)
        assert seen["mlfq"]["class"] is SchedClass.MLFQ
        assert seen["ts"]["class"] is SchedClass.TIMESHARE

    def test_runnable_lwp_is_requeued_under_new_class(self):
        """Class change of a queued LWP moves it to the new class's
        queue (the handoff protocol), dropping the old state blob."""
        seen = {}

        def burn():
            yield Charge(usec(5_000))

        def main():
            # One CPU: the created LWP stays RUNNABLE behind main.
            lwp_id = yield Syscall(
                "lwp_create", Activity(as_generator(burn), name="burn"))
            target = sim.kernel.processes[1].lwps[lwp_id]
            table = sim.kernel.dispatcher.table
            seen["before"] = sim.kernel.dispatcher.table.for_class(
                SchedClass.CFS).queued()
            yield Syscall("priocntl", PC_SETCLASS, lwp_id, SchedClass.CFS)
            seen["state"] = target.state.value
            seen["after"] = table.for_class(SchedClass.CFS).queued()
            seen["ts_queue"] = table.for_class(
                SchedClass.TIMESHARE).queued()
            seen["target"] = target

        sim = Simulator(ncpus=1)
        sim.spawn(main)
        sim.run()
        assert seen["before"] == []
        assert seen["state"] == "runnable"
        assert seen["after"] == [seen["target"]]
        assert seen["target"] not in seen["ts_queue"]


class TestGangFixes:
    def test_gang_remove_resets_class(self):
        """Regression: a departing member must not stay GANG-classed."""
        seen = {}

        def main():
            gang = yield Syscall("priocntl", PC_JOIN_GANG)
            seen["joined"] = (yield Syscall("priocntl", PC_GETPARMS))
            gang.remove(sim.kernel.processes[1].lwps[1])
            seen["left"] = (yield Syscall("priocntl", PC_GETPARMS))

        sim = Simulator(ncpus=1)
        sim.spawn(main)
        sim.run()
        assert seen["joined"]["class"] is SchedClass.GANG
        assert seen["left"]["class"] is SchedClass.TIMESHARE

    def test_leave_gang_still_resets_class(self):
        seen = {}

        def main():
            yield Syscall("priocntl", PC_JOIN_GANG)
            yield Syscall("priocntl", PC_LEAVE_GANG)
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)

        run_program(main)
        assert seen["parms"]["class"] is SchedClass.TIMESHARE

    def test_gang_ids_are_per_kernel(self):
        """Two engines in one host process must hand out the same gang
        ids (a class-level counter would leak across them)."""
        def observed():
            seen = {}

            def main():
                gang = yield Syscall("priocntl", PC_JOIN_GANG)
                seen["gang_id"] = gang.gang_id

            run_program(main)
            return seen["gang_id"]

        assert observed() == observed() == 1


class TestSchedulerChoice:
    def test_dict_roundtrip(self):
        plan = SchedulePlan([SchedulerChoice("MLFQ")])
        rebuilt = SchedulePlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == {
            "rules": [{"kind": "scheduler", "sched_class": "MLFQ"}]}

    def test_override_rehomes_default_class(self):
        seen = {}

        def main():
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)

        sim = Simulator(ncpus=1,
                        schedule=SchedulePlan([SchedulerChoice("CFS")]))
        sim.spawn(main)
        sim.run()
        assert seen["parms"]["class"] is SchedClass.CFS

    def test_explicit_realtime_wins_over_override(self):
        seen = {}

        def rt_main():
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)

        def main():
            yield Syscall(
                "lwp_create", Activity(as_generator(rt_main), name="rt"),
                SchedClass.REALTIME)
            yield Charge(usec(1_000))

        sim = Simulator(ncpus=2,
                        schedule=SchedulePlan([SchedulerChoice("SJF")]))
        sim.spawn(main)
        sim.run(check_deadlock=False)
        assert seen["parms"]["class"] is SchedClass.REALTIME

    def test_unknown_class_fails_loudly(self):
        def main():
            yield Charge(usec(1))

        sim = Simulator(
            ncpus=1, schedule=SchedulePlan([SchedulerChoice("FIFO")]))
        with pytest.raises(SimulationError):
            sim.spawn(main)
