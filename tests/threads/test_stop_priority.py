"""Tests for thread_stop / thread_continue / thread_priority."""

import pytest

from repro.errors import ThreadError
from repro.hw.isa import Charge, GetContext
from repro.runtime import unistd
from repro import threads
from repro.threads.thread import ThreadState
from repro.sim.clock import usec
from tests.conftest import run_program


class TestStopContinue:
    def test_stop_runnable_thread(self):
        ran = []

        def worker(_):
            ran.append(1)
            return
            yield

        def main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            # Worker is runnable but has not run (we hold the only LWP).
            yield from threads.thread_stop(tid)
            yield from threads.thread_yield()
            assert ran == []
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert ran == [1]

    def test_stop_self_until_continued(self):
        order = []

        def sleeper(_):
            order.append("stopping")
            yield from threads.thread_stop(None)
            order.append("resumed")

        def main():
            tid = yield from threads.thread_create(
                sleeper, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()
            yield from unistd.sleep_usec(1_000)
            order.append("continuing")
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert order == ["stopping", "continuing", "resumed"]

    def test_stop_running_thread_waits_for_switch_point(self):
        """thread_stop on a thread running on another LWP returns only
        once that thread reached a scheduling point and stopped."""
        phases = []

        def cooperative(_):
            for _ in range(50):
                yield Charge(usec(200))
                yield from threads.thread_yield()
            phases.append("finished")

        def main():
            tid = yield from threads.thread_create(
                cooperative, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from unistd.sleep_usec(2_000)  # it is mid-run
            yield from threads.thread_stop(tid)
            phases.append("stopped")
            yield from unistd.sleep_usec(10_000)
            assert phases == ["stopped"]  # made no progress while stopped
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert phases == ["stopped", "finished"]

    def test_stop_sleeping_thread_defers_wakeup(self):
        """A thread stopped while blocked on a sync variable parks in
        STOPPED when the wakeup arrives, and resumes with the wakeup's
        value after thread_continue."""
        from repro.sync import Semaphore
        got = []

        def waiter(sem):
            yield from sem.p()
            got.append("woke")

        def main():
            sem = Semaphore()
            tid = yield from threads.thread_create(
                waiter, sem, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()   # let it block on the sema
            yield from threads.thread_stop(tid)
            yield from sem.v()                  # wakeup while stopped
            yield from threads.thread_yield()
            assert got == []                    # still stopped
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert got == ["woke"]

    def test_stop_waiter_unparked_promptly(self):
        """Regression: waking a thread_stop() caller must not strand a
        parked pool LWP — the unpark happens at the stop, not at the
        eventual thread_continue."""
        got = {}

        def cooperative(_):
            for _ in range(200):
                yield Charge(usec(200))
                yield from threads.thread_yield()

        def stopper(tid):
            yield from threads.thread_stop(tid)
            t = yield from unistd.gettimeofday()
            got["stop_returned_at"] = t / 1000

        def main():
            from repro.hw.isa import GetContext
            ctx = yield GetContext()
            yield from threads.thread_setconcurrency(3)
            target = yield from threads.thread_create(
                cooperative, None, flags=threads.THREAD_WAIT)
            s = yield from threads.thread_create(
                stopper, target, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(s)
            # No pool LWP may be lost: parked + running LWPs must still
            # account for the whole pool.
            lib = ctx.process.threadlib
            from repro.kernel.lwp import LwpState
            stranded = [
                l for l in lib.pool_lwps.values()
                if l.state is LwpState.SLEEPING and l not in lib.parked
                and l.channel is l.park_channel]
            got["stranded"] = stranded
            yield from threads.thread_continue(target)
            yield from threads.thread_wait(target)

        run_program(main, ncpus=2)
        assert got["stranded"] == []
        assert "stop_returned_at" in got

    def test_stop_of_thread_that_exits_first_returns(self):
        """The target exits before its next switch point: its exit
        releases the stopper, whose thread_stop returns 0."""
        got = {}

        def target(_):
            yield Charge(usec(2_000))

        def stopper(tid):
            got["stop"] = yield from threads.thread_stop(tid)

        def main():
            yield from threads.thread_setconcurrency(2)
            tid = yield from threads.thread_create(
                target, None, flags=threads.THREAD_WAIT)
            yield Charge(usec(500))     # the target is mid-compute
            s = yield from threads.thread_create(
                stopper, tid, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(s)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert got == {"stop": 0}

    def test_stopped_stop_waiter_resumes_on_continue(self):
        """W waits in thread_stop for running T and is stopped itself.
        T's wake commits both stops; thread_continue(W) then runs W,
        whose thread_stop returns (W used to go back to sleep on T's
        emptied stop-waiter list)."""
        from repro.sync import Semaphore
        log = []

        def target(sem):
            yield Charge(usec(1_000))
            yield from sem.p()
            log.append("T resumed")

        def waiter(tid):
            yield from threads.thread_stop(tid)
            log.append("W stop returned")

        def main():
            yield from threads.thread_setconcurrency(3)
            sem = Semaphore()
            t = yield from threads.thread_create(
                target, sem, flags=threads.THREAD_WAIT)
            w = yield from threads.thread_create(
                waiter, t, flags=threads.THREAD_WAIT)
            yield Charge(usec(200))     # W sleeps until T stops
            yield from threads.thread_stop(w)
            yield Charge(usec(1_500))   # T blocks on the semaphore
            yield from sem.v()          # T's wake commits both stops
            yield from threads.thread_yield()
            assert log == []
            log.append("continue W")
            yield from threads.thread_continue(w)
            yield from threads.thread_wait(w)
            log.append("continue T")
            yield from threads.thread_continue(t)
            yield from threads.thread_wait(t)

        run_program(main, ncpus=3)
        assert log == ["continue W", "W stop returned", "continue T",
                       "T resumed"]

    def test_stop_sleeping_bound_thread(self):
        """A bound thread stopped asleep on a semaphore stops as its
        LWP: the post wakes the thread, which reads RUNNABLE while its
        LWP reads STOPPED, and it runs no user code until continued,
        then resumes holding the semaphore's token."""
        from repro.kernel.lwp import LwpState
        from repro.sync import Semaphore
        log = []
        seen = {}

        def waiter(sem):
            log.append("sleep")
            yield from sem.p()
            log.append("woke")

        def main():
            ctx = yield GetContext()
            sem = Semaphore()
            tid = yield from threads.thread_create(
                waiter, sem,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            thread = ctx.process.threadlib.get_thread(tid)
            yield Charge(usec(200))     # it is asleep on the semaphore
            yield from threads.thread_stop(tid)
            seen["stopped asleep"] = thread.state
            yield from sem.v()
            yield Charge(usec(1_000))
            seen["woken"] = (thread.state, thread.lwp.state)
            log.append("continue")
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)
            seen["count"] = sem.count

        run_program(main, ncpus=2)
        assert log == ["sleep", "continue", "woke"]
        assert seen == {"stopped asleep": ThreadState.SLEEPING,
                        "woken": (ThreadState.RUNNABLE, LwpState.STOPPED),
                        "count": 0}

    def test_bound_thread_stops_itself_until_continued(self):
        """thread_stop(None) on a bound thread suspends its LWP; the
        thread runs no user code until thread_continue."""
        log = []

        def stopper(_):
            log.append("stopping")
            yield from threads.thread_stop(None)
            log.append("resumed")

        def main():
            tid = yield from threads.thread_create(
                stopper, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield Charge(usec(500))
            log.append("continue")
            yield from threads.thread_continue(tid)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert log == ["stopping", "continue", "resumed"]

    def test_continue_releases_the_pending_stops_waiter(self):
        """S's thread_stop of T, running on another LWP, waits for T's
        next switch point; main's thread_continue(T) cancels the stop
        and releases S at once, not at T's exit."""
        got = {}

        def now():
            ctx = yield GetContext()
            return ctx.engine.now_ns

        def target(_):
            for _ in range(20):
                yield Charge(usec(5_000))
                yield from threads.thread_yield()
            got["t_exit"] = yield from now()

        def stopper(tid):
            got["stop"] = yield from threads.thread_stop(tid)
            got["stop_returned"] = yield from now()

        def main():
            yield from threads.thread_setconcurrency(3)
            t = yield from threads.thread_create(
                target, None, flags=threads.THREAD_WAIT)
            s = yield from threads.thread_create(
                stopper, t, flags=threads.THREAD_WAIT)
            yield Charge(usec(5_000))   # S waits on T's pending stop
            yield from threads.thread_continue(t)
            got["continued"] = yield from now()
            yield from threads.thread_wait(s)
            yield from threads.thread_wait(t)

        run_program(main, ncpus=3)
        assert got["stop"] == 0
        # S's LWP is unparked by the continue: one dispatch and a
        # syscall exit later, S runs.
        assert 0 <= got["stop_returned"] - got["continued"] < usec(500)
        assert got["t_exit"] - got["stop_returned"] > usec(90_000)

    def test_continue_of_running_thread_is_noop(self):
        def main():
            me = yield from threads.thread_get_id()

            def other(_):
                yield from threads.thread_continue(me)

            tid = yield from threads.thread_create(
                other, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        sim, proc = run_program(main)
        assert proc.exit_status == 0


class TestPriority:
    def test_returns_old_priority(self):
        got = []

        def main():
            old = yield from threads.thread_priority(None, 50)
            got.append(old)
            old = yield from threads.thread_priority(None, 10)
            got.append(old)

        run_program(main)
        assert got == [30, 50]

    def test_negative_priority_rejected(self):
        def main():
            with pytest.raises(ThreadError):
                yield from threads.thread_priority(None, -1)

        run_program(main)

    def test_higher_priority_thread_scheduled_first(self):
        order = []

        def tagger(tag):
            order.append(tag)
            return
            yield

        def main():
            lo = yield from threads.thread_create(
                tagger, "low", flags=threads.THREAD_WAIT)
            hi = yield from threads.thread_create(
                tagger, "high", flags=threads.THREAD_WAIT)
            yield from threads.thread_priority(hi, 55)
            yield from threads.thread_priority(lo, 5)
            yield from threads.thread_yield()
            yield from threads.thread_wait(lo)
            yield from threads.thread_wait(hi)

        run_program(main)
        assert order == ["high", "low"]

    def test_priority_of_other_thread(self):
        got = []

        def idler(_):
            yield from unistd.sleep_usec(5_000)

        def main():
            yield from threads.thread_setconcurrency(2)
            tid = yield from threads.thread_create(
                idler, None, flags=threads.THREAD_WAIT)
            old = yield from threads.thread_priority(tid, 12)
            got.append(old)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert got == [30]


class TestYield:
    def test_yield_rotates_equal_priority(self):
        order = []

        def tagger(tag):
            order.append(tag)
            return
            yield

        def main():
            yield from threads.thread_create(tagger, "a")
            yield from threads.thread_create(tagger, "b")
            order.append("main")
            yield from threads.thread_yield()
            order.append("main-back")

        run_program(main)
        assert order[0] == "main"
        assert set(order[1:3]) == {"a", "b"}

    def test_yield_with_empty_runq_is_noop(self):
        def main():
            yield from threads.thread_yield()

        sim, proc = run_program(main)
        assert proc.exit_status == 0
