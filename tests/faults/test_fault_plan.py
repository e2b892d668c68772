"""Tests for the deterministic fault-injection plans (repro.sim.faults)."""

import pytest

from repro import (FaultPlan, LwpCrash, PageFaultStorm, Simulator,
                   SyscallFault, TimerJitter)
from repro.errors import Errno, SimulationError, SyscallError
from repro.hw.context import Activity
from repro.hw.isa import Syscall
from repro.runtime import unistd
from repro.sim.faults import FaultRule
from repro.sim.schedule import SchedulePlan
from repro.workloads import window_system
from tests.conftest import run_program


def _getpid_outcomes(n: int, results: list):
    """Program: call getpid ``n`` times, record True per injected EAGAIN."""
    for _ in range(n):
        try:
            yield from unistd.getpid()
            results.append(False)
        except SyscallError as err:
            assert err.errno == Errno.EAGAIN
            results.append(True)


class TestSyscallFault:
    def test_every_nth_injection(self):
        outcomes = []
        plan = FaultPlan([SyscallFault("getpid", "EAGAIN", every=3)])
        run_program(_getpid_outcomes, 9, outcomes, faults=plan)
        assert outcomes == [False, False, True] * 3

    def test_skip_and_max_count(self):
        outcomes = []
        plan = FaultPlan([SyscallFault("getpid", Errno.EAGAIN,
                                       probability=1.0, skip=2,
                                       max_count=1)])
        run_program(_getpid_outcomes, 6, outcomes, faults=plan)
        assert outcomes == [False, False, True, False, False, False]

    def test_probability_draws_are_seed_deterministic(self):
        def run(seed):
            outcomes = []
            plan = FaultPlan([SyscallFault("getpid", "EAGAIN",
                                           probability=0.5)])
            run_program(_getpid_outcomes, 40, outcomes,
                        faults=plan, seed=seed)
            return outcomes

        first = run(seed=7)
        assert run(seed=7) == first
        assert any(first) and not all(first)  # 0.5 actually injects some
        assert run(seed=8) != first

    def test_untargeted_calls_unaffected(self):
        got = {}

        def main():
            got["pid"] = yield from unistd.getpid()

        plan = FaultPlan([SyscallFault("lwp_create", "EAGAIN")])
        run_program(main, faults=plan)
        assert got["pid"] == 1

    def test_injection_counted_and_traced(self):
        plan = FaultPlan([SyscallFault("getpid", "EAGAIN", every=2)])
        sim, _ = run_program(_getpid_outcomes, 4, [], faults=plan,
                             trace=True)
        assert sim.kernel.faults_injected["getpid"] == 2
        assert plan.injections == 2
        assert sim.tracer.count(category="fault") == 2

    def test_bad_rule_parameters_rejected(self):
        with pytest.raises(SimulationError):
            SyscallFault("getpid", "EAGAIN", every=0)
        with pytest.raises(SimulationError):
            SyscallFault("getpid", "EAGAIN", probability=1.5)
        with pytest.raises(SimulationError):
            TimerJitter(-1.0)
        with pytest.raises(SimulationError):
            TimerJitter(1.0, probability=2.0)


class TestSerialization:
    def test_round_trip_all_rule_kinds(self):
        from repro.sim.faults import (AcceptStall, ConnDrop, CrashStorm,
                                      PacketDelay, PeerReset)
        plan = FaultPlan([
            SyscallFault("lwp_create", "EAGAIN", probability=0.25,
                         max_count=10, skip=3),
            SyscallFault("brk", "ENOMEM", every=5),
            PageFaultStorm(2_000.0, pattern="file:*"),
            TimerJitter(500.0, probability=0.9),
            LwpCrash(10_000.0, pid=1, lwp_id=2),
            CrashStorm(5_000.0, 2_000.0, 4, target="worker-*", pid=1),
            ConnDrop(port=7000, mode="timeout", timeout_usec=5_000.0,
                     probability=0.5, skip=1),
            AcceptStall(port=None, stall_usec=1_500.0, every=4),
            PacketDelay(op="recv", max_usec=750.0, probability=0.3),
            PeerReset(op="send", pattern="sock:7000#*", max_count=2),
        ])
        data = plan.to_dict()
        rebuilt = FaultPlan.from_dict(data)
        assert rebuilt.to_dict() == data
        # Every rule kind in the registry is covered by this round trip.
        assert {r["kind"] for r in data["rules"]} == set(FaultRule.KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultRule.from_dict({"kind": "cosmic-ray"})

    @pytest.mark.parametrize("plan_cls, data, bad", [
        # A typo must not silently run the default p=0.1 ...
        (SchedulePlan, {"rules": [{"kind": "random", "probabilty": 0.9}]},
         "schedule rule 'random': unknown field 'probabilty'"),
        # ... nor jitter every sleep at the default p=1.0.
        (FaultPlan, {"rules": [{"kind": "jitter", "max_usec": 1.0,
                                "probabilty": 0.0}]},
         "fault rule 'jitter': unknown field 'probabilty'"),
        (FaultPlan, {"rules": [{"kind": "syscall"}]},
         "fault rule 'syscall': missing field 'call', "
         "missing field 'errno'"),
        (FaultPlan, {"rule": []}, "unknown field(s) ['rule']"),
    ], ids=["misspelled", "misspelled-default", "missing", "plan-key"])
    def test_bad_fields_rejected(self, plan_cls, data, bad):
        with pytest.raises(SimulationError) as err:
            plan_cls.from_dict(data)
        assert bad in str(err.value)

    def test_plan_attaches_once(self):
        plan = FaultPlan([SyscallFault("getpid", "EAGAIN")])
        Simulator(faults=plan)
        with pytest.raises(SimulationError):
            Simulator(faults=plan)
        with pytest.raises(SimulationError):
            plan.add(SyscallFault("brk", "ENOMEM"))


class TestTimerJitter:
    def _timed_sleep(self, plan, seed=0):
        got = {}

        def main():
            start = yield from unistd.gettimeofday()
            yield from unistd.sleep_usec(100.0)
            end = yield from unistd.gettimeofday()
            got["elapsed_ns"] = end - start

        run_program(main, faults=plan, seed=seed)
        return got["elapsed_ns"]

    def test_jitter_stretches_sleeps(self):
        baseline = self._timed_sleep(None)
        jittered = self._timed_sleep(FaultPlan([TimerJitter(500.0)]))
        assert jittered > baseline

    def test_jitter_is_seed_deterministic(self):
        a = self._timed_sleep(FaultPlan([TimerJitter(500.0)]), seed=3)
        b = self._timed_sleep(FaultPlan([TimerJitter(500.0)]), seed=3)
        assert a == b


class TestPageFaultStorm:
    def test_storm_evicts_and_refaults(self):
        from repro.runtime import mapped

        got = {}
        npages, pagesize = 8, 4096

        def main():
            region = yield from mapped.map_shared_file(
                "/tmp/storm.dat", length=npages * pagesize)
            # Fault the pages in, then linger past the storm.
            for i in range(npages):
                yield from region.write(i * pagesize, bytes([i + 1]))
            got["resident_before"] = len(region.mobj.resident)
            yield from unistd.sleep_usec(300_000.0)
            got["resident_after"] = len(region.mobj.resident)
            # Touch again: every page must refault after the eviction.
            data = []
            for i in range(npages):
                chunk = yield from region.read(i * pagesize, 1)
                data.append(chunk[0])
            got["data"] = data

        # Well after the initial (disk-paced) fault-in completes: eight
        # major faults take ~150ms of virtual time.
        storm = PageFaultStorm(250_000.0, pattern="*storm*")
        plan = FaultPlan([storm])
        run_program(main, faults=plan)
        # (Background page replacement may have trimmed residency
        # already, so compare against what was actually resident.)
        assert got["resident_before"] > 0
        assert got["resident_after"] == 0
        assert got["data"] == [i + 1 for i in range(npages)]
        assert storm.evicted >= 1


class TestLwpCrash:
    def test_targeted_crash_kills_lwp_and_wakes_joiner(self):
        got = {}

        def victim_body():
            yield from unistd.sleep_usec(50_000.0)
            got["survived"] = True  # pragma: no cover - must not happen

        def main():
            activity = Activity(victim_body(), name="victim")
            lwp_id = yield Syscall("lwp_create", activity)
            got["lwp_id"] = lwp_id
            yield Syscall("lwp_wait", lwp_id)
            got["joined"] = True

        crash = LwpCrash(5_000.0, pid=1, lwp_id=2)
        run_program(main, faults=FaultPlan([crash]))
        assert got["lwp_id"] == 2
        assert got.get("joined")
        assert "survived" not in got
        assert crash.victim_name is not None


class TestWindowSystemDegradation:
    """The acceptance scenario: 50% of lwp_create calls fail with EAGAIN,
    yet the 1:1 window-system benchmark completes (degraded), and the
    same seed replays to the identical event trace."""

    def _run(self, plan):
        main, results = window_system.build(
            n_widgets=12, n_events=48, event_cost_usec=20.0,
            bound_threads=True, event_spacing_usec=50.0)
        sim, _ = run_program(main, faults=plan, seed=11, ncpus=2,
                             trace=True)
        return sim, results

    def test_completes_degraded_and_replays_identically(self):
        plan = FaultPlan([SyscallFault("lwp_create", "EAGAIN",
                                       probability=0.5)])
        sim, results = self._run(plan)
        assert results["processed"] == 48
        assert sim.kernel.faults_injected["lwp_create"] > 0
        lib = results["lib"]
        assert lib["lwp_create_retries"] > 0

        # Replay from the serialized plan: bit-identical trace.
        replay_plan = FaultPlan.from_dict(plan.to_dict())
        sim2, results2 = self._run(replay_plan)
        assert results2["processed"] == 48
        assert sim2.tracer.records == sim.tracer.records
        assert sim2.now_usec == sim.now_usec
