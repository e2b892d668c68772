"""Tests for thread_wait and thread ID lifecycle rules."""

import pytest

from repro.errors import ThreadError
from repro.hw.isa import Charge
from repro.runtime import unistd
from repro.sim.clock import usec
from repro import threads
from tests.conftest import run_program


class TestWaitSemantics:
    def test_wait_returns_target_id(self):
        got = []

        def worker(_):
            yield from unistd.sleep_usec(1_000)

        def main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            got.append((yield from threads.thread_wait(tid)))

        run_program(main)
        assert got and got[0] == got[0]

    def test_wait_on_already_dead_thread(self):
        def worker(_):
            return
            yield

        def main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from unistd.sleep_usec(5_000)  # let it die first
            got = yield from threads.thread_wait(tid)
            assert got == tid

        run_program(main)

    def test_wait_without_flag_is_error(self):
        def worker(_):
            yield from unistd.sleep_usec(1_000)

        def main():
            tid = yield from threads.thread_create(worker, None)
            with pytest.raises(ThreadError):
                yield from threads.thread_wait(tid)
            yield from unistd.sleep_usec(5_000)

        run_program(main, check_deadlock=False)

    def test_wait_for_self_is_error(self):
        def main():
            me = yield from threads.thread_get_id()
            with pytest.raises(ThreadError):
                yield from threads.thread_wait(me)

        run_program(main)

    def test_double_wait_is_error(self):
        def worker(_):
            yield from unistd.sleep_usec(20_000)

        def waiter(tid):
            yield from threads.thread_wait(tid)

        def main():
            # Extra LWPs so the sleeping worker does not monopolize the
            # pool while the waiter claims its wait.
            yield from threads.thread_setconcurrency(3)
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            w1 = yield from threads.thread_create(
                waiter, tid, flags=threads.THREAD_WAIT)
            # Let the waiter run far enough to claim the wait.
            yield from threads.thread_yield()
            yield from unistd.sleep_usec(1_000)
            with pytest.raises(ThreadError):
                yield from threads.thread_wait(tid)
            yield from threads.thread_wait(w1)

        run_program(main)

    def test_wait_any(self):
        """thread_wait(None) returns when any THREAD_WAIT thread exits."""
        got = []

        def worker(delay):
            yield from unistd.sleep_usec(delay)

        def main():
            # Both sleepers need their own LWP to sleep concurrently
            # (bounded sleeps do not trigger SIGWAITING growth).
            yield from threads.thread_setconcurrency(3)
            slow = yield from threads.thread_create(
                worker, 50_000, flags=threads.THREAD_WAIT)
            fast = yield from threads.thread_create(
                worker, 1_000, flags=threads.THREAD_WAIT)
            first = yield from threads.thread_wait(None)
            got.append(("first", first == fast))
            second = yield from threads.thread_wait(None)
            got.append(("second", second == slow))

        run_program(main)
        assert got == [("first", True), ("second", True)]

    def test_wait_any_with_nothing_waitable_is_error(self):
        def main():
            with pytest.raises(ThreadError):
                yield from threads.thread_wait(None)

        run_program(main)

    def test_wait_any_reaps_an_exited_thread_once(self):
        """The exit hands thread 2 to the blocked any-waiter (thread 3)
        and claims it before unparking that waiter's LWP, so a second
        any-waiter (thread 4) that calls in during the unpark finds
        nothing left to wait for.  Its 1,100 us delay lands inside that
        unpark, which spans delays of 1,020-1,250 us."""
        got = {}

        def worker(_):
            yield Charge(usec(1_000))

        def first(_):
            got["first"] = yield from threads.thread_wait(None)

        def second(_):
            yield Charge(usec(1_100))
            with pytest.raises(ThreadError):
                yield from threads.thread_wait(None)
            got["second"] = "ThreadError"

        def main():
            got["worker"] = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            for body in (first, second):
                yield from threads.thread_create(
                    body, None, flags=threads.THREAD_BIND_LWP)

        run_program(main, ncpus=3)
        assert got == {"worker": 2, "first": 2, "second": "ThreadError"}

    def test_wait_any_loser_of_the_hand_off_gets_thread_error(self):
        """Two any-waiters asleep when the only THREAD_WAIT thread exits:
        it is handed to the first, and the exit wakes the second to scan
        again, which raises as the same call made after the hand-off
        does (it used to sleep forever)."""
        got = {}

        def worker(_):
            yield Charge(usec(1_000))

        def waiter(name):
            try:
                got[name] = yield from threads.thread_wait(None)
            except ThreadError:
                got[name] = "ThreadError"

        def main():
            got["worker"] = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            for name in ("a", "b"):
                yield from threads.thread_create(
                    waiter, name, flags=threads.THREAD_BIND_LWP)

        run_program(main, ncpus=3)
        assert got == {"worker": 2, "a": 2, "b": "ThreadError"}

    def test_wait_any_wakes_when_a_joiner_reaps_the_last_thread(self):
        """An any-waiter asleep while thread_wait(tid) reaps the only
        THREAD_WAIT thread wakes at that exit and raises."""
        got = {}

        def worker(_):
            yield Charge(usec(1_000))

        def any_waiter(_):
            try:
                got["any"] = yield from threads.thread_wait(None)
            except ThreadError:
                got["any"] = "ThreadError"

        def main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_create(
                any_waiter, None, flags=threads.THREAD_BIND_LWP)
            yield Charge(usec(200))     # the any-waiter is asleep
            got["joined"] = yield from threads.thread_wait(tid)

        run_program(main, ncpus=3)
        assert got == {"joined": 2, "any": "ThreadError"}


class TestIdReuse:
    def test_non_waitable_id_reused_after_exit(self):
        """"If the thread is not created with THREAD_WAIT, the thread ID
        may be reused at any time after the thread exits."""
        ids = []

        def worker(_):
            return
            yield

        def main():
            a = yield from threads.thread_create(worker, None)
            yield from threads.thread_yield()  # let it run and exit
            b = yield from threads.thread_create(worker, None)
            ids.extend([a, b])
            yield from threads.thread_yield()

        run_program(main, check_deadlock=False)
        assert ids[0] == ids[1]

    def test_waitable_id_not_reused_until_wait(self):
        """"the thread ID of a thread created with THREAD_WAIT will not
        be reused until the waiting thread returns"."""
        ids = []

        def worker(_):
            return
            yield

        def main():
            a = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from unistd.sleep_usec(5_000)  # a exits, unclaimed
            b = yield from threads.thread_create(worker, None)
            assert b != a  # still reserved
            got = yield from threads.thread_wait(a)
            assert got == a
            c = yield from threads.thread_create(worker, None)
            ids.append((a, c))
            yield from unistd.sleep_usec(5_000)

        run_program(main, check_deadlock=False)
        a, c = ids[0]
        assert c == a  # now reusable

    def test_id_unusable_after_successful_wait(self):
        """"the returned thread_id is unusable in any subsequent thread
        operation"."""
        def worker(_):
            return
            yield

        def main():
            tid = yield from threads.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            with pytest.raises(ThreadError):
                yield from threads.thread_kill(tid, 16)

        run_program(main)


class TestProcessExit:
    def test_last_thread_exit_ends_process(self):
        def main():
            return
            yield

        sim, proc = run_program(main)
        from repro.kernel.process import ProcState
        assert proc.state in (ProcState.ZOMBIE, ProcState.REAPED)
        assert proc.exit_status == 0

    def test_explicit_thread_exit_from_main(self):
        after = []

        def main():
            yield from threads.thread_exit()
            after.append("unreachable")

        sim, proc = run_program(main)
        assert after == []
        assert proc.exit_status == 0

    def test_main_may_exit_while_workers_run_on(self):
        """The process lives until the *last* thread exits, not until
        main does."""
        got = []

        def worker(_):
            yield from unistd.sleep_usec(10_000)
            got.append("worker finished")

        def main():
            yield from threads.thread_create(worker, None)
            yield from threads.thread_exit()

        run_program(main)
        assert got == ["worker finished"]
