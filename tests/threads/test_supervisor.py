"""Supervision layer: restarts, budgets, policies, watchdog.

The Supervisor is passive when healthy (no monitor thread, no events);
everything here therefore drives it through real crashes —
``kernel.crash_lwp`` scheduled from engine timers, exactly what a
``CrashStorm`` fault rule does — and asserts on the ``sup-*`` event
stream plus the specs' own counters.
"""

from repro.api import Simulator
from repro.errors import Errno
from repro.hw.isa import GetContext
from repro.kernel.signals import SIG_BLOCK, Sig, Sigset
from repro.runtime import libc, unistd
from repro.sim.clock import usec
from repro.sync import CondVar, Mutex
from repro import threads
from repro.threads import Supervisor


class _SupEvents:
    """Listener capturing the supervision event stream."""

    def __init__(self):
        self.events = []

    def on_sync(self, ctx, op, sv, detail):
        if op.startswith("sup-") or op == "thread-crash":
            self.events.append((op, detail.get("child")
                                or getattr(ctx.thread, "name", None)))


def _run(main, ncpus=2, max_events=2_000_000):
    sim = Simulator(ncpus=ncpus)
    listener = _SupEvents()
    sim.engine.sync_listeners.append(listener)
    proc = sim.spawn(main)
    sim.run(max_events=max_events)
    return sim, proc, listener.events


class TestOneForOneRestart:
    def _run(self):
        state = {"incarnations": 0, "spec": None}
        sup = Supervisor(backoff_base_usec=100.0)

        def child(arg):
            state["incarnations"] += 1
            for _ in range(40):
                yield from libc.compute(100.0)

        def main():
            ctx = yield GetContext()
            spec = yield from sup.spawn(child, "payload", name="kid",
                                        flags=threads.THREAD_NEW_LWP)
            state["spec"] = spec

            def kill():
                t = spec.thread
                if t is not None and t.lwp is not None:
                    ctx.kernel.crash_lwp(t.lwp)

            ctx.engine.call_after(usec(1_000.0), kill)
            while not (spec.done or spec.gave_up):
                yield from libc.compute(200.0)
            sup.drain()

        sim, proc, events = _run(main)
        return state, events

    def test_child_is_restarted_and_completes(self):
        state, events = self._run()
        spec = state["spec"]
        assert state["incarnations"] == 2       # original + one respawn
        assert spec.restarts == 1
        assert spec.done and not spec.gave_up
        assert ("thread-crash", "kid") in events
        assert ("sup-restart", "kid") in events

    def test_restart_is_announced_after_the_crash(self):
        _, events = self._run()
        crash = events.index(("thread-crash", "kid"))
        restart = events.index(("sup-restart", "kid"))
        assert crash < restart


class TestGiveUp:
    def _run(self):
        state = {"give_up": None}
        sup = Supervisor(max_restarts=1, backoff_base_usec=100.0,
                         on_give_up=lambda spec, dead, kernel:
                         state.__setitem__("give_up", spec.name))

        def child(_):
            while True:
                yield from libc.compute(100.0)

        def main():
            ctx = yield GetContext()
            spec = yield from sup.spawn(child, None, name="doomed",
                                        flags=threads.THREAD_NEW_LWP)
            state["spec"] = spec

            def kill():
                t = spec.thread
                if t is not None and t.lwp is not None:
                    ctx.kernel.crash_lwp(t.lwp)
                if not spec.gave_up:
                    ctx.engine.call_after(usec(500.0), kill)

            ctx.engine.call_after(usec(500.0), kill)
            while not spec.gave_up:
                yield from libc.compute(200.0)
            sup.drain()
            yield from unistd.exit(0)

        sim, proc, events = _run(main)
        return state, events

    def test_budget_exhaustion_escalates(self):
        state, events = self._run()
        spec = state["spec"]
        assert spec.gave_up
        assert spec.restarts == 1               # budget was 1
        assert state["give_up"] == "doomed"
        assert ("sup-give-up", "doomed") in events
        # No restart after the give-up.
        give_up = events.index(("sup-give-up", "doomed"))
        assert ("sup-restart", "doomed") not in events[give_up:]


class TestOneForAll:
    def test_sibling_dies_and_restarts_with_the_victim(self):
        state = {"starts": []}
        sup = Supervisor(policy="one-for-all", backoff_base_usec=100.0)

        def child(tag):
            state["starts"].append(tag)
            for _ in range(60):
                yield from libc.compute(100.0)

        def main():
            ctx = yield GetContext()
            a = yield from sup.spawn(child, "a", name="child-a",
                                     flags=threads.THREAD_NEW_LWP)
            b = yield from sup.spawn(child, "b", name="child-b",
                                     flags=threads.THREAD_NEW_LWP)
            state["a"], state["b"] = a, b

            def kill():
                # Let both originals run first — one-for-all would
                # legitimately also reap a never-dispatched sibling, but
                # this test wants the full kill-and-respawn round trip.
                if "b" not in state["starts"] or "a" not in state["starts"]:
                    ctx.engine.call_after(usec(500.0), kill)
                    return
                t = a.thread
                if t is not None and t.lwp is not None:
                    ctx.kernel.crash_lwp(t.lwp)

            ctx.engine.call_after(usec(1_000.0), kill)
            while not all(s.done or s.gave_up for s in (a, b)):
                yield from libc.compute(200.0)
            sup.drain()

        sim, proc, events = _run(main, ncpus=3)
        # One crash, but BOTH children were torn down and restarted.
        assert state["a"].restarts == 1
        assert state["b"].restarts == 1
        assert state["starts"].count("a") == 2
        assert state["starts"].count("b") == 2
        assert ("sup-restart", "child-a") in events
        assert ("sup-restart", "child-b") in events


class TestRestartArgHandover:
    def test_respawn_receives_the_chosen_argument(self):
        state = {"args": []}
        sup = Supervisor(backoff_base_usec=100.0,
                         restart_arg=lambda spec, dead: "handover")

        def child(arg):
            state["args"].append(arg)
            for _ in range(40):
                yield from libc.compute(100.0)

        def main():
            ctx = yield GetContext()
            spec = yield from sup.spawn(child, "original", name="kid",
                                        flags=threads.THREAD_NEW_LWP)

            def kill():
                t = spec.thread
                if t is not None and t.lwp is not None:
                    ctx.kernel.crash_lwp(t.lwp)

            ctx.engine.call_after(usec(1_000.0), kill)
            while not (spec.done or spec.gave_up):
                yield from libc.compute(200.0)
            sup.drain()

        _run(main)
        assert state["args"] == ["original", "handover"]


class TestRespawnIsAWholeThread:
    def test_respawn_has_tls_and_the_spec_priority_and_mask(self):
        """The respawned incarnation is built by the same constructor
        as a created thread: its own TLS block, plus the priority and
        signal mask its spec took from the spawner."""
        seen = []
        sup = Supervisor(backoff_base_usec=100.0)

        def child(arg):
            ctx = yield GetContext()
            me = ctx.thread
            yield from threads.tls_set("slot", me.thread_id)
            slot = yield from threads.tls_get("slot")
            seen.append((slot == me.thread_id, me.priority,
                         Sig.SIGUSR1 in me.sigmask))
            for _ in range(40):
                yield from libc.compute(100.0)

        def main():
            ctx = yield GetContext()
            yield from threads.tls_declare("slot")
            yield from threads.thread_priority(None, 40)
            yield from threads.thread_sigsetmask(
                SIG_BLOCK, Sigset([Sig.SIGUSR1]))
            spec = yield from sup.spawn(child, None, name="kid",
                                        flags=threads.THREAD_NEW_LWP)
            yield from threads.thread_priority(None, 30)

            def kill():
                t = spec.thread
                if t is not None and t.lwp is not None:
                    ctx.kernel.crash_lwp(t.lwp)

            ctx.engine.call_after(usec(1_000.0), kill)
            while not (spec.done or spec.gave_up):
                yield from libc.compute(200.0)
            sup.drain()

        _run(main)
        assert seen == [(True, 40, True), (True, 40, True)]


class TestWatchdog:
    def _run(self):
        state = {}
        m = Mutex(name="wedge-lock")
        cv = CondVar(name="never-signaled")
        sup = Supervisor(max_restarts=0, heartbeat_timeout_usec=2_000.0)

        def child(_):
            # Heartbeat once, then wedge forever on a cv nobody signals.
            sup.heartbeat(state["spec"])
            yield from m.enter()
            while True:
                yield from cv.wait(m)

        def main():
            spec = yield from sup.spawn(child, None, name="hung",
                                        flags=threads.THREAD_NEW_LWP)
            state["spec"] = spec
            while not spec.gave_up:
                yield from libc.compute(500.0)
            sup.drain()
            yield from unistd.exit(0)

        sim, proc, events = _run(main)
        return state, events

    def test_silent_child_is_killed_and_reported(self):
        state, events = self._run()
        assert ("sup-watchdog-kill", "hung") in events
        # Budget 0: the watchdog kill escalates straight to give-up.
        assert state["spec"].gave_up
        assert ("sup-give-up", "hung") in events

    def test_watchdog_kill_names_the_blocking_resource(self):
        sim_events = []

        class L:
            def on_sync(self, ctx, op, sv, detail):
                if op == "sup-watchdog-kill":
                    sim_events.append(detail.get("waiting_on"))

        state = {}
        m = Mutex(name="wedge-lock")
        cv = CondVar(name="never-signaled")
        sup = Supervisor(max_restarts=0, heartbeat_timeout_usec=2_000.0)

        def child(_):
            sup.heartbeat(state["spec"])
            yield from m.enter()
            while True:
                yield from cv.wait(m)

        def main():
            spec = yield from sup.spawn(child, None, name="hung",
                                        flags=threads.THREAD_NEW_LWP)
            state["spec"] = spec
            while not spec.gave_up:
                yield from libc.compute(500.0)
            sup.drain()
            yield from unistd.exit(0)

        sim = Simulator(ncpus=2)
        sim.engine.sync_listeners.append(L())
        sim.spawn(main)
        sim.run()
        assert sim_events and "never-signaled" in sim_events[0]


class TestPassiveWhenHealthy:
    def test_healthy_run_emits_no_supervision_events(self):
        sup = Supervisor(backoff_base_usec=100.0)

        def child(arg):
            for _ in range(10):
                yield from libc.compute(100.0)

        def main():
            spec = yield from sup.spawn(
                child, None, name="calm",
                flags=threads.THREAD_WAIT | threads.THREAD_NEW_LWP)
            while not spec.done:
                yield from libc.compute(200.0)
            sup.drain()

        sim, proc, events = _run(main)
        assert events == []
        assert sup.children[0].restarts == 0


class TestSpawnRacesChildLifetime:
    """Regression: a non-waitable child can live its ENTIRE life inside
    the creator's ``thread_create`` tail (other CPUs run it while the
    creator pays the THREAD_NEW_LWP growth charges), retiring its own
    thread id before ``spawn`` resumes — and with a storm running, the
    id may even be gone because the child crashed before adoption.
    ``spawn`` must survive both, not KeyError on the retired id."""

    def test_spawn_survives_children_faster_than_creation(self):
        from repro import CrashStorm, FaultPlan
        from repro.api import Simulator
        from repro.errors import Errno

        done = []
        sup = Supervisor(backoff_base_usec=200.0)
        m = Mutex(name="estate")

        def worker(tag):
            res = yield from m.enter()
            if res is Errno.EOWNERDEAD:
                m.consistent()
            yield from libc.compute(1_500.0)
            yield from m.exit()
            done.append(tag)

        def main():
            specs = []
            for i in range(3):
                spec = yield from sup.spawn(
                    worker, f"job-{i}", name=f"worker-{i}",
                    flags=threads.THREAD_NEW_LWP)
                specs.append(spec)
            while not all(s.done or s.gave_up for s in specs):
                yield from libc.compute(300.0)
            sup.drain()
            yield from unistd.exit(0)

        # seed 11 + these exact rates made the pre-fix spawn KeyError
        # on a retired thread id (child crashed mid-create).
        storm = CrashStorm(start_usec=500.0, interval_usec=800.0,
                           count=2, target="worker-*")
        sim = Simulator(ncpus=2, seed=11, faults=FaultPlan([storm]))
        sim.spawn(main)
        sim.run(max_events=2_000_000)
        assert sorted(done) == ["job-0", "job-1", "job-2"]
        assert storm.killed >= 1
        assert sum(s.restarts for s in sup.children) >= 1
