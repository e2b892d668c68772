"""Wait-for-graph coverage for semaphore units and rwlock holders.

The hang report originally resolved holders for mutexes and condition
variables only; a deadlock through a semaphore or a reader/writer lock
showed the waiters but not who was sitting on the resource.  These pin
the per-primitive holder attribution, and the fixed name of a queue the
report cannot attribute.
"""

import re

import pytest

from repro.errors import DeadlockError
from repro.hw.isa import GetContext
from repro import threads
from repro.sync import Mutex, RwLock, RW_READER, RW_WRITER, Semaphore
from tests.conftest import run_program


class TestSemaphoreHolders:
    def _run(self):
        m = Mutex(name="gate")
        s = Semaphore(1, name="units")

        def worker(_):
            yield from s.p()                  # take the only unit
            yield from threads.thread_yield()
            yield from m.enter()              # blocks: main holds gate

        def main():
            yield from m.enter()
            yield from threads.thread_create(worker, None)
            yield from threads.thread_yield()
            yield from s.p()                  # blocks: worker holds unit

        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        return str(exc.value)

    def test_report_names_semaphore_and_holder(self):
        report = self._run()
        assert "semaphore 'units'" in report
        # thread-2 (the worker) holds the unit main waits for.
        assert "semaphore 'units' held by thread-2" in report

    def test_cycle_runs_through_the_semaphore(self):
        report = self._run()
        cycle = report.split("deadlock cycle detected:", 1)[1]
        assert "semaphore 'units'" in cycle
        assert "mutex 'gate'" in cycle


class TestRwlockHolders:
    def _run(self, first, second):
        m = Mutex(name="gate")
        rw = RwLock(name="rw")

        def worker(_):
            yield from rw.enter(first)        # hold the rwlock
            yield from threads.thread_yield()
            yield from m.enter()              # blocks: main holds gate

        def main():
            yield from m.enter()
            yield from threads.thread_create(worker, None)
            yield from threads.thread_yield()
            yield from rw.enter(second)       # blocks on the worker

        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        return str(exc.value)

    def test_reader_holder_blocks_writer(self):
        report = self._run(RW_READER, RW_WRITER)
        assert "rwlock(write) 'rw' held by thread-2" in report

    def test_writer_holder_blocks_reader(self):
        report = self._run(RW_WRITER, RW_READER)
        assert "rwlock(read) 'rw' held by thread-2" in report


class TestUnknownQueue:
    def test_report_names_no_host_address(self):
        """A thread asleep on a queue the library does not know is
        reported under a fixed name, never the queue's host address
        (which differs from run to run)."""
        def main():
            ctx = yield GetContext()
            yield from ctx.process.threadlib.block_current_on([])

        with pytest.raises(DeadlockError) as exc:
            run_program(main)
        report = str(exc.value)
        assert "thread-1 (pid 1) waits on wait-queue 'unknown'" in report
        assert re.search(r"@[0-9a-f]{6,}|0x[0-9a-f]+", report) is None
