"""Tests for the wait-for-graph hang diagnostics.

A hang used to die with a bare "no events left" complaint.  Now the
DeadlockError carries a report naming every blocked thread, the resource
it waits on, who holds it, since when — and the cycle, when there is one.
"""

import os
import subprocess
import sys

import pytest

from repro.errors import DeadlockError
from repro import threads
from repro.runtime import libc
from repro.sync import Mutex
from tests.conftest import run_program


class TestAbbaDeadlock:
    def _run_abba(self):
        """Two threads acquiring mutexes A and B in opposite orders, with
        yields placed so both take their first lock before either takes
        its second: the textbook AB/BA deadlock."""
        a = Mutex(name="A")
        b = Mutex(name="B")

        def t1(_):
            yield from a.enter()
            yield from threads.thread_yield()
            yield from b.enter()

        def t2(_):
            yield from b.enter()
            yield from threads.thread_yield()
            yield from a.enter()

        def main():
            tid1 = yield from threads.thread_create(
                t1, None, flags=threads.THREAD_WAIT)
            tid2 = yield from threads.thread_create(
                t2, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid1)
            yield from threads.thread_wait(tid2)

        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        return str(exc.value)

    def test_report_names_threads_mutexes_and_edges(self):
        report = self._run_abba()
        # Both mutexes by name, with hold/wait edges.
        assert "mutex 'A'" in report
        assert "mutex 'B'" in report
        assert "held by" in report
        # Both deadlocked threads by name (main is thread-1; the two
        # workers are created next).
        assert "thread-2" in report
        assert "thread-3" in report
        # The cycle itself is called out, with wait durations.
        assert "deadlock cycle detected:" in report
        assert "waiting" in report and "since t=" in report

    def test_cycle_contains_exactly_the_abba_pair(self):
        report = self._run_abba()
        cycle = report.split("deadlock cycle detected:", 1)[1]
        lines = [l for l in cycle.strip().splitlines() if l.strip()]
        assert len(lines) == 2
        text = "\n".join(lines)
        assert "mutex 'A'" in text and "mutex 'B'" in text
        # main (thread-1) waits on thread-exit, not in the cycle.
        assert "thread-1" not in text

    def test_original_complaint_preserved(self):
        report = self._run_abba()
        # The engine's original complaint still leads the message, so
        # pre-existing matchers keep working.
        assert "hang diagnosis" in report


class TestDiningPhilosophers:
    N = 5

    def _philosophers(self, naive: bool):
        forks = [Mutex(name=f"fork{i}") for i in range(self.N)]

        def philosopher(i):
            left, right = forks[i], forks[(i + 1) % self.N]
            yield from libc.compute(100)  # think
            if naive:
                # Everyone grabs the left fork first: circular wait.
                yield from left.enter()
                yield from threads.thread_yield()  # fatal window
                yield from right.enter()
            else:
                while True:
                    yield from left.enter()
                    got = yield from right.tryenter()
                    if got:
                        break
                    yield from left.exit()
                    yield from threads.thread_yield()
            yield from libc.compute(200)  # eat
            yield from right.exit()
            yield from left.exit()

        def main():
            tids = []
            for i in range(self.N):
                tid = yield from threads.thread_create(
                    philosopher, i, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)

        return main

    def test_naive_five_way_cycle_reported(self):
        with pytest.raises(DeadlockError) as exc:
            run_program(self._philosophers(naive=True))
        report = str(exc.value)
        assert "deadlock cycle detected:" in report
        for i in range(self.N):
            assert f"mutex 'fork{i}'" in report

    def test_tryenter_variant_completes(self):
        run_program(self._philosophers(naive=False))


class TestLostWakeup:
    def test_no_cycle_reported_as_lost_wakeup(self):
        """A thread waiting on a condvar nobody signals: blocked, but no
        cycle — the report must say so rather than claim a deadlock."""
        from repro.sync import CondVar

        m = Mutex(name="m")
        cv = CondVar(name="never-signaled")

        def waiter(_):
            yield from m.enter()
            yield from cv.wait(m)

        def main():
            tid = yield from threads.thread_create(
                waiter, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        report = str(exc.value)
        assert "condvar 'never-signaled'" in report
        assert "deadlock cycle detected:" not in report
        assert "no thread-level cycle found" in report


class TestDiagnoseHang:
    def test_empty_after_clean_run(self):
        def main():
            yield from threads.thread_yield()

        sim, _ = run_program(main)
        assert sim.engine.diagnose_hang() == ""

    def test_live_snapshot_of_blocked_threads(self):
        """diagnose_hang() works mid-run too: stop the clock while a
        thread holds a lock another wants."""
        m = Mutex(name="contended")
        state = {}

        def holder(_):
            yield from m.enter()
            from repro.runtime import unistd
            yield from unistd.sleep_usec(10_000)
            yield from m.exit()

        def second(_):
            yield from m.enter()
            yield from m.exit()

        def main():
            # Two pool LWPs, so `second` reaches the mutex while the
            # holder's kernel sleep has one LWP blocked.
            yield from threads.thread_setconcurrency(2)
            t1 = yield from threads.thread_create(
                holder, None, flags=threads.THREAD_WAIT)
            t2 = yield from threads.thread_create(
                second, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(t1)
            yield from threads.thread_wait(t2)
            state["done"] = True

        from repro.api import Simulator
        sim = Simulator(ncpus=2)
        sim.spawn(main)
        sim.run(until_usec=5_000, check_deadlock=False)
        report = sim.engine.diagnose_hang()
        assert "mutex 'contended'" in report
        assert "held by" in report
        sim.run()  # finishes cleanly
        assert state.get("done")


def _pauser():
    from repro.runtime import unistd
    yield from unistd.pause()


def _pause_main():
    from repro.runtime import unistd
    pid = yield from unistd.fork1(_pauser)
    yield from unistd.waitpid(pid)


def _shared_sema_main():
    from repro.runtime import mapped
    from repro.sync import Semaphore, THREAD_SYNC_SHARED
    region = yield from mapped.map_shared_file("/tmp/gate", 4096)
    gate = Semaphore(0, THREAD_SYNC_SHARED, cell=region.cell(0),
                     name="gate")
    yield from gate.p()


def print_hang_reports():
    """Print the DeadlockError text of a child stuck in pause() and of
    a process stuck on a process-shared semaphore (run in a fresh
    interpreter by the test below)."""
    for main in (_pause_main, _shared_sema_main):
        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        print(exc.value)


class TestReportIsTheSameInEveryProcess:
    def test_kernel_channel_names_carry_no_host_address(self):
        """Channel names become ``RunResult.hang`` and repro bundles, so
        two interpreters must print the same report: the pause() sleep
        is named after its LWP, the usync sleep after the shared
        object and offset."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root]))

        def report():
            return subprocess.run(
                [sys.executable, "-c",
                 "from tests.faults.test_deadlock_report import "
                 "print_hang_reports; print_hang_reports()"],
                cwd=root, env=env, capture_output=True, text=True,
                check=True).stdout

        first = report()
        assert "on channel 'lwp-2.1:pause'" in first
        assert "on channel 'sema:gate:file:gate+0'" in first
        assert report() == first
