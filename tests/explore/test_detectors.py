"""The torture harness's acceptance gates, as unit tests.

Every seeded-bug program in the corpus must be caught within a bounded
schedule budget, and every clean twin (plus the paper workloads) must
stay finding-free — the detectors are only useful if both directions
hold.
"""

import pytest

from repro.explore.corpus import BUGGY, CLEAN
from repro.explore.explorer import Explorer, run_one, default_plan_dicts

#: Budget for the hunting tests.  The corpus bugs are designed to fall
#: within a handful of schedules; CI uses a larger K for margin.
HUNT_RUNS = 12
CLEAN_RUNS = 6


class TestCorpusCaught:
    @pytest.mark.parametrize("name", sorted(BUGGY))
    def test_bug_found_within_budget(self, name):
        factory, expected = BUGGY[name]
        report = Explorer(factory, program=name, runs=HUNT_RUNS,
                          seed=1).explore()
        assert report.finding_kinds & expected, (
            f"{name}: expected one of {sorted(expected)} within "
            f"{HUNT_RUNS} runs, saw {sorted(report.finding_kinds)}")

    def test_racy_counter_names_the_cell(self):
        factory, _ = BUGGY["racy_counter"]
        report = Explorer(factory, program="racy_counter", runs=HUNT_RUNS,
                          seed=1).explore()
        races = [f for r in report.results for f in r.findings
                 if f.kind == "data-race"]
        assert races
        assert any(f.subject.endswith("+0") for f in races)

    def test_lock_order_cycle_names_both_locks(self):
        factory, _ = BUGGY["ab_ba_locks"]
        report = Explorer(factory, program="ab_ba_locks", runs=HUNT_RUNS,
                          seed=1).explore()
        cycles = [f for r in report.results for f in r.findings
                  if f.kind == "lock-order"]
        assert cycles
        assert any("lockA" in f.message and "lockB" in f.message
                   for f in cycles)


class TestCleanGate:
    @pytest.mark.parametrize("name", sorted(CLEAN))
    def test_clean_program_stays_clean(self, name):
        factory = CLEAN[name]
        report = Explorer(factory, program=name, runs=CLEAN_RUNS,
                          seed=1).explore()
        assert not report.failures, report.summary()


class TestWorkloadsClean:
    """The paper's own workloads are the highest-value false-positive
    gate: they use every primitive (shared mutexes across processes,
    CVs, semaphores, multi-LWP concurrency)."""

    @pytest.mark.parametrize("module_name", [
        "array_compute", "database", "network_server", "window_system"])
    def test_workload_clean_under_mild_preemption(self, module_name):
        import importlib
        mod = importlib.import_module(f"repro.workloads.{module_name}")
        plans = default_plan_dicts(4)
        for k, plan in enumerate(plans):
            result = run_one(lambda: mod.build()[0],
                             program=module_name, run_index=k,
                             seed=1 + k, schedule_dict=plan)
            assert not result.failed, result.summary()


class TestRequestLedger:
    """Unit coverage for the lost-request detector: each violation class
    is triggered by a minimal ledger-event program."""

    @staticmethod
    def _run_ledger(ops):
        """Run a program that replays ``ops`` = [(op, rid), ...]."""
        from repro.hw.isa import GetContext
        from repro.sync.events import sync_event

        def factory():
            def main():
                ctx = yield GetContext()
                for op, rid in ops:
                    sync_event(ctx, op, None, id=rid)
            return main

        return run_one(factory, program="ledger")

    def test_admit_then_serve_is_clean(self):
        result = self._run_ledger([("net-admit", "r1"),
                                   ("net-serve", "r1")])
        assert not result.findings

    def test_admit_then_shed_is_clean(self):
        result = self._run_ledger([("net-admit", "r1"),
                                   ("net-shed", "r1")])
        assert not result.findings

    def test_shed_without_admit_is_legal(self):
        # Rejection at the door (backlog RST, admission refusal).
        result = self._run_ledger([("net-shed", "r1")])
        assert not result.findings

    def test_serve_without_admit_is_flagged(self):
        result = self._run_ledger([("net-serve", "r1")])
        kinds = {f.kind for f in result.findings}
        assert kinds == {"lost-request"}
        assert "never admitted" in result.findings[0].message

    def test_admit_without_disposition_is_flagged(self):
        result = self._run_ledger([("net-admit", "r1"),
                                   ("net-admit", "r2"),
                                   ("net-serve", "r2")])
        msgs = [f.message for f in result.findings
                if f.kind == "lost-request"]
        assert len(msgs) == 1
        assert "r1" in msgs[0] and "dropped on the floor" in msgs[0]

    def test_double_admit_is_flagged(self):
        result = self._run_ledger([("net-admit", "r1"),
                                   ("net-admit", "r1"),
                                   ("net-serve", "r1")])
        assert any("admitted twice" in f.message
                   for f in result.findings)

    def test_double_disposition_is_flagged(self):
        result = self._run_ledger([("net-admit", "r1"),
                                   ("net-serve", "r1"),
                                   ("net-shed", "r1")])
        assert any("disposed twice" in f.message
                   for f in result.findings)

    def test_events_without_ids_are_ignored(self):
        from repro.hw.isa import GetContext
        from repro.sync.events import sync_event

        def factory():
            def main():
                ctx = yield GetContext()
                sync_event(ctx, "net-admit", None)
                sync_event(ctx, "net-serve", None, id=None)
            return main

        result = run_one(factory, program="ledger")
        assert not result.findings


class TestHeldLocks:
    def test_a_new_actor_never_inherits_a_dead_actors_locks(self):
        """An actor that dies holding a lock keeps its table entry; an
        object allocated afterwards, possibly at the dead actor's
        address, must not see that entry as its own."""
        from types import SimpleNamespace
        from repro.explore.detectors import _HeldLocks

        class Actor:
            name = "actor"

        held = _HeldLocks()
        lock = Actor()
        dead = Actor()
        held.update(SimpleNamespace(thread=dead, lwp=None), "acquire",
                    lock, {"mode": "mutex"})
        del dead
        candidates = [Actor() for _ in range(64)]
        assert [c for c in candidates if held.held_of(c)] == []


class TestOrphanedResourceDetector:
    """Crash-reclaim coverage: real crash runs through ``run_one`` for
    the repair verdicts, direct event drive for the missed-reclaim case
    (which the real kernel walk should make unreachable)."""

    @staticmethod
    def _crash_run(after_crash):
        """Bound holder dies at t=3ms holding a mutex; ``after_crash``
        is a generator function given the mutex, run from main."""
        from repro import FaultPlan, LwpCrash, threads
        from repro.runtime import libc
        from repro.sync import Mutex

        def factory():
            m = Mutex(name="estate")

            def holder(_):
                yield from m.enter()
                yield from libc.compute(100_000.0)   # crash lands here

            def main():
                yield from threads.thread_create(
                    holder, None, flags=threads.THREAD_BIND_LWP)
                yield from libc.compute(6_000.0)     # crash has happened
                yield from after_crash(m)

            return main

        faults = FaultPlan([LwpCrash(3_000.0, pid=1, lwp_id=2)])
        return run_one(factory, program="crash-estate",
                       faults_dict=faults.to_dict())

    def test_reclaimed_and_repaired_is_clean(self):
        from repro.errors import Errno

        def repair(m):
            res = yield from m.enter()
            assert res is Errno.EOWNERDEAD
            m.consistent()
            yield from m.exit()

        result = self._crash_run(repair)
        assert not result.failed, result.summary()

    def test_never_repaired_lock_is_reported(self):
        def ignore(m):
            return
            yield   # pragma: no cover — generator shape only

        result = self._crash_run(ignore)
        orphans = [f for f in result.findings if f.kind == "orphaned-lock"]
        assert orphans
        assert any("still owner-dead" in f.message for f in orphans)

    def test_bricked_lock_is_reported(self):
        def brick(m):
            yield from m.enter()        # EOWNERDEAD
            yield from m.exit()         # released without consistent()

        result = self._crash_run(brick)
        orphans = [f for f in result.findings if f.kind == "orphaned-lock"]
        assert orphans
        assert any("ENOTRECOVERABLE" in f.message for f in orphans)

    @staticmethod
    def _fake_ctx(thread):
        from types import SimpleNamespace
        return SimpleNamespace(thread=thread, lwp=None)

    class _Stub:
        """A stand-in thread or lock: hashable, as the detectors key
        their tables by the object."""

        def __init__(self, name):
            self.name = name

    def test_missed_reclaim_is_an_orphan(self):
        from repro.explore.detectors import OrphanedResourceDetector

        det = OrphanedResourceDetector()
        victim = self._Stub("victim")
        sv = self._Stub("m")
        ctx = self._fake_ctx(victim)
        det.on_sync(ctx, "acquire", sv, {"mode": "write"})
        # Crash with NO owner-dead announcement: the walk missed it.
        det.on_sync(ctx, "thread-crash", None, {})
        assert [f.kind for f in det.findings] == ["orphaned-lock"]
        assert "never transitioned" in det.findings[0].message

    def test_announced_reclaim_is_not_an_orphan(self):
        from repro.explore.detectors import OrphanedResourceDetector

        det = OrphanedResourceDetector()
        victim = self._Stub("victim")
        sv = self._Stub("m")                 # owner_dead absent -> False
        ctx = self._fake_ctx(victim)
        det.on_sync(ctx, "acquire", sv, {"mode": "write"})
        det.on_sync(ctx, "owner-dead", sv, {"mode": "write"})
        det.on_sync(ctx, "thread-crash", None, {})
        det.finalize(sim=None)
        assert det.reclaims == 1 and det.crashes == 1
        assert not det.findings


class TestRestartStormDetector:
    @staticmethod
    def _ctx(now_usec):
        from types import SimpleNamespace
        return SimpleNamespace(
            engine=SimpleNamespace(now_ns=int(now_usec * 1_000)),
            thread=None, lwp=None)

    def test_give_up_is_always_reported(self):
        from repro.explore.detectors import RestartStormDetector

        det = RestartStormDetector()
        det.on_sync(self._ctx(500.0), "sup-give-up", None,
                    {"child": "kid", "supervisor": "sup", "restarts": 3})
        assert [f.kind for f in det.findings] == ["restart-storm"]
        assert "gave up" in det.findings[0].message

    def test_unthrottled_burst_is_reported(self):
        from repro.explore.detectors import RestartStormDetector

        det = RestartStormDetector()
        for i in range(5):
            det.on_sync(self._ctx(100.0 * i), "sup-restart", None,
                        {"child": "kid", "supervisor": "sup"})
        assert [f.kind for f in det.findings] == ["restart-storm"]
        assert "unthrottled" in det.findings[0].message

    def test_backed_off_restarts_are_clean(self):
        from repro.explore.detectors import RestartStormDetector

        det = RestartStormDetector()
        for i in range(5):                     # 1000µs apart: legal pace
            det.on_sync(self._ctx(1_000.0 * i), "sup-restart", None,
                        {"child": "kid", "supervisor": "sup"})
        assert not det.findings

    def test_bursts_of_distinct_children_are_clean(self):
        from repro.explore.detectors import RestartStormDetector

        det = RestartStormDetector()
        for i in range(5):                     # one restart each: fine
            det.on_sync(self._ctx(100.0 * i), "sup-restart", None,
                        {"child": f"kid-{i}", "supervisor": "sup"})
        assert not det.findings
