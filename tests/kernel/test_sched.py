"""Tests for the run queue, scheduling classes, and dispatcher policy."""

import pytest

from repro.api import Simulator
from repro.hw.isa import Charge, Syscall
from repro.kernel.lwp import PRIO_MAX, PRIO_MIN, SchedClass
from repro.kernel.sched import GangGroup
from repro.kernel.sched.policy import RealtimePolicy, TimesharePolicy
from repro.kernel.sched.runqueue import RunQueue
from repro.kernel.syscalls.lwp_calls import (PC_BIND_CPU, PC_GETPARMS,
                                             PC_JOIN_GANG, PC_SETCLASS,
                                             PC_SETPRIO, PC_UNBIND)
from repro.sim.clock import usec
from tests.conftest import run_program


class FakeLwp:
    """Just enough LWP for run-queue unit tests."""

    def __init__(self, prio, name="x"):
        self.effective_priority = prio
        self.bound_cpu = None
        self.name = name


class TestRunQueue:
    def test_picks_highest_priority(self):
        q = RunQueue()
        low, high = FakeLwp(10), FakeLwp(50)
        q.insert(low)
        q.insert(high)
        assert q.pick(lambda l: True) is high

    def test_fifo_within_priority(self):
        q = RunQueue()
        a, b = FakeLwp(10, "a"), FakeLwp(10, "b")
        q.insert(a)
        q.insert(b)
        assert q.pick(lambda l: True) is a
        assert q.pick(lambda l: True) is b

    def test_front_insert(self):
        q = RunQueue()
        a, b = FakeLwp(10), FakeLwp(10)
        q.insert(a)
        q.insert(b, front=True)
        assert q.pick(lambda l: True) is b

    def test_eligibility_filter(self):
        q = RunQueue()
        high, low = FakeLwp(50), FakeLwp(10)
        q.insert(high)
        q.insert(low)
        assert q.pick(lambda l: l is low) is low
        assert len(q) == 1

    def test_remove(self):
        q = RunQueue()
        a = FakeLwp(10)
        q.insert(a)
        assert q.remove(a)
        assert not q.remove(a)
        assert len(q) == 0

    def test_remove_after_priority_change(self):
        q = RunQueue()
        a = FakeLwp(10)
        q.insert(a)
        a.effective_priority = 20  # changed while queued
        assert q.remove(a)

    def test_best_priority(self):
        q = RunQueue()
        assert q.best_priority() is None
        q.insert(FakeLwp(5))
        q.insert(FakeLwp(7))
        assert q.best_priority() == 7

    def test_snapshot_best_first(self):
        q = RunQueue()
        q.insert(FakeLwp(1, "lo"))
        q.insert(FakeLwp(9, "hi"))
        assert [l.name for l in q.snapshot()] == ["hi", "lo"]


class TestSchedClasses:
    def test_rt_outranks_all_ts(self):
        assert (SchedClass.REALTIME.base + PRIO_MIN
                > SchedClass.TIMESHARE.base + PRIO_MAX)

    def test_rt_has_no_quantum(self):
        class L:
            sched_class = SchedClass.REALTIME
            priority = 10

        assert RealtimePolicy().quantum_ns(L(), 1000) is None

    def test_ts_low_priority_longer_quantum(self):
        class L:
            sched_class = SchedClass.TIMESHARE
            priority = 0

        class H:
            sched_class = SchedClass.TIMESHARE
            priority = 59

        ts = TimesharePolicy()
        assert ts.quantum_ns(L(), 1000) > ts.quantum_ns(H(), 1000)

    def test_priority_feedback(self):
        class L:
            sched_class = SchedClass.TIMESHARE
            priority = 30

        lwp = L()
        ts = TimesharePolicy()
        ts.on_quantum_expired(lwp)
        assert lwp.priority == 29
        ts.on_wakeup(lwp)
        assert lwp.priority == 30

    def test_feedback_clamped(self):
        class L:
            sched_class = SchedClass.TIMESHARE
            priority = PRIO_MIN

        lwp = L()
        TimesharePolicy().on_quantum_expired(lwp)
        assert lwp.priority == PRIO_MIN

    def test_gang_group_membership(self):
        gang = GangGroup()

        class L:
            sched_class = SchedClass.TIMESHARE
            gang = None

        a = L()
        gang.add(a)
        assert a.gang is gang
        assert a.sched_class is SchedClass.GANG
        gang.remove(a)
        assert a.gang is None


class TestPriocntl:
    def test_setprio_and_getparms(self):
        seen = {}

        def main():
            yield Syscall("priocntl", PC_SETPRIO, 0, 45)
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)

        run_program(main)
        assert seen["parms"]["priority"] == 45

    def test_bad_priority_rejected(self):
        from repro.errors import SyscallError
        caught = []

        def main():
            try:
                yield Syscall("priocntl", PC_SETPRIO, 0, 999)
            except SyscallError as err:
                caught.append(err.errno.name)

        run_program(main)
        assert caught == ["EINVAL"]

    def test_realtime_requires_privilege(self):
        from repro.errors import SyscallError
        caught = []

        def main():
            yield Syscall("setuid", 100)
            try:
                yield Syscall("priocntl", PC_SETCLASS, 0,
                              SchedClass.REALTIME)
            except SyscallError as err:
                caught.append(err.errno.name)

        run_program(main)
        assert caught == ["EPERM"]

    def test_root_can_go_realtime(self):
        seen = {}

        def main():
            yield Syscall("priocntl", PC_SETCLASS, 0, SchedClass.REALTIME)
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)

        run_program(main)
        assert seen["parms"]["class"] is SchedClass.REALTIME

    def test_cpu_binding(self):
        seen = {}

        def main():
            yield Syscall("priocntl", PC_BIND_CPU, 0, 1)
            seen["parms"] = yield Syscall("priocntl", PC_GETPARMS)
            yield Syscall("priocntl", PC_UNBIND, 0)
            seen["after"] = yield Syscall("priocntl", PC_GETPARMS)

        run_program(main, ncpus=2)
        assert seen["parms"]["bound_cpu"] == 1
        assert seen["after"]["bound_cpu"] is None

    def test_bind_bad_cpu(self):
        from repro.errors import SyscallError
        caught = []

        def main():
            try:
                yield Syscall("priocntl", PC_BIND_CPU, 0, 5)
            except SyscallError as err:
                caught.append(err.errno.name)

        run_program(main, ncpus=2)
        assert caught == ["EINVAL"]


class TestDispatcherBehaviour:
    def test_higher_priority_process_finishes_first(self):
        """An RT LWP preempts a long-running TS LWP on one CPU."""
        order = []

        def ts_burner():
            yield Charge(usec(50_000))
            order.append("ts")

        def rt_sprinter():
            yield Syscall("priocntl", PC_SETCLASS, 0, SchedClass.REALTIME)
            yield Charge(usec(5_000))
            order.append("rt")

        sim = Simulator(ncpus=1)
        sim.spawn(ts_burner)
        sim.spawn(rt_sprinter)
        sim.run()
        assert order == ["rt", "ts"]

    def test_timeslicing_interleaves_equal_priority(self):
        """Two CPU hogs at equal priority must share the CPU via quantum
        round-robin, finishing within one quantum of each other."""
        finish = {}

        def burner(tag):
            def main():
                yield Charge(usec(30_000))
                t = yield Syscall("gettimeofday")
                finish[tag] = t
            return main

        sim = Simulator(ncpus=1)
        sim.spawn(burner("a"))
        sim.spawn(burner("b"))
        sim.run()
        spread = abs(finish["a"] - finish["b"])
        assert spread <= usec(31_000)

    def test_cpu_binding_serializes_bound_work(self):
        """Two processes bound to the same CPU cannot overlap even on a
        2-CPU machine."""
        def bound_burner():
            yield Syscall("priocntl", PC_BIND_CPU, 0, 0)
            yield Charge(usec(10_000))

        sim = Simulator(ncpus=2)
        sim.spawn(bound_burner)
        sim.spawn(bound_burner)
        sim.run()
        assert sim.now_usec >= 20_000

    def test_gang_codispatch(self):
        """Gang members land on CPUs together when space allows."""
        seen = {}

        def leader():
            gang = yield Syscall("priocntl", PC_JOIN_GANG)
            seen["gang"] = gang
            yield Charge(usec(1_000))

        sim = Simulator(ncpus=2)
        sim.spawn(leader)
        sim.run()
        assert seen["gang"].members
