"""Tests for the LWP system calls the threads library builds on."""

import pytest

from repro.errors import Errno, SyscallError
from repro.hw.context import Activity, Mode
from repro.hw.isa import Charge, Syscall
from repro.runtime import unistd
from repro.sim.clock import usec
from tests.conftest import run_program


def _raw_lwp_body(results, tag):
    """A root generator for a raw LWP (no threads library involvement)."""
    def body():
        yield Charge(usec(100))
        results.append(tag)
    return body()


class TestLwpCreate:
    def test_create_returns_new_id(self):
        got = {}
        results = []

        def main():
            got["self"] = yield Syscall("lwp_self")
            act = Activity(_raw_lwp_body(results, "worker"), name="w")
            got["new"] = yield Syscall("lwp_create", act)
            yield from unistd.sleep_usec(1_000)

        run_program(main, check_deadlock=False)
        assert got["new"] != got["self"]
        assert results == ["worker"]

    def test_create_charges_lwp_cost(self):
        def main():
            act = Activity(_raw_lwp_body([], "w"), name="w")
            t0 = yield Syscall("gettimeofday")
            yield Syscall("lwp_create", act, runnable=False)
            t1 = yield Syscall("gettimeofday")
            times.append((t1 - t0) / 1000)

        times = []
        run_program(main, check_deadlock=False)
        assert times[0] >= 2241  # the calibrated kernel service time

    def test_created_suspended_does_not_run(self):
        results = []

        def main():
            act = Activity(_raw_lwp_body(results, "never"), name="w")
            yield Syscall("lwp_create", act, runnable=False)
            yield from unistd.sleep_usec(5_000)

        run_program(main, check_deadlock=False)
        assert results == []

    def test_lwp_continue_starts_suspended(self):
        results = []

        def main():
            act = Activity(_raw_lwp_body(results, "late"), name="w")
            lwp_id = yield Syscall("lwp_create", act, runnable=False)
            yield from unistd.sleep_usec(1_000)
            yield Syscall("lwp_continue", lwp_id)
            yield from unistd.sleep_usec(1_000)

        run_program(main, check_deadlock=False)
        assert results == ["late"]


class TestParkUnpark:
    def test_unpark_wakes_parked(self):
        log = []

        def parker():
            def body():
                log.append("parking")
                yield Syscall("lwp_park")
                log.append("unparked")
            return body()

        def main():
            act = Activity(parker(), name="p")
            lwp_id = yield Syscall("lwp_create", act)
            yield from unistd.sleep_usec(2_000)
            yield Syscall("lwp_unpark", lwp_id)
            yield from unistd.sleep_usec(2_000)

        run_program(main, check_deadlock=False, ncpus=2)
        assert log == ["parking", "unparked"]

    def test_permit_absorbs_unpark_before_park(self):
        """The unpark-before-park race: the permit makes the later park
        return immediately."""
        log = []

        def late_parker():
            def body():
                yield Syscall("nanosleep", usec(5_000))
                t0 = yield Syscall("gettimeofday")
                yield Syscall("lwp_park")  # permit pending: no block
                t1 = yield Syscall("gettimeofday")
                log.append((t1 - t0) / 1000)
            return body()

        def main():
            act = Activity(late_parker(), name="p")
            lwp_id = yield Syscall("lwp_create", act)
            yield Syscall("lwp_unpark", lwp_id)  # before the park
            yield from unistd.sleep_usec(20_000)

        run_program(main, check_deadlock=False, ncpus=2)
        assert len(log) == 1
        # No dispatch wait: just syscall + service costs (well under 1ms).
        assert log[0] < 1_000

    def test_unpark_unknown_lwp(self):
        caught = []

        def main():
            try:
                yield Syscall("lwp_unpark", 99)
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.ESRCH]


class TestLwpWaitExit:
    def test_lwp_wait_returns_exited_id(self):
        got = {}

        def worker():
            def body():
                yield Charge(usec(50))
                yield Syscall("lwp_exit")
            return body()

        def main():
            lwp_id = yield Syscall("lwp_create", Activity(worker()))
            got["waited"] = yield Syscall("lwp_wait", lwp_id)

        run_program(main, ncpus=2, check_deadlock=False)
        assert got["waited"] == 2  # the created LWP

    def test_lwp_wait_any(self):
        got = {}

        def worker():
            def body():
                yield Syscall("lwp_exit")
            return body()

        def main():
            yield Syscall("lwp_create", Activity(worker()))
            got["waited"] = yield Syscall("lwp_wait", 0)

        run_program(main, ncpus=2, check_deadlock=False)
        assert got["waited"] == 2


class TestUsync:
    def test_expected_value_check_avoids_sleep(self):
        """Futex semantics: if the cell changed, usync_block returns 1
        without sleeping."""
        got = []

        def main():
            from repro.hw.isa import GetContext
            ctx = yield GetContext()
            mobj = ctx.kernel.machine.memory.allocate(4096, resident=True)
            mobj.store_cell(0, 99)
            result = yield Syscall("usync_block", mobj, 0, 0)  # expect 0
            got.append(result)

        run_program(main)
        assert got == [1]

    def test_timed_block_returns_2_at_the_deadline(self):
        got = []

        def main():
            from repro.hw.isa import GetContext
            ctx = yield GetContext()
            mobj = ctx.kernel.machine.memory.allocate(4096, resident=True)
            t0 = yield from unistd.gettimeofday()
            result = yield Syscall("usync_block", mobj, 0, 0,
                                   timeout_ns=usec(500))
            t1 = yield from unistd.gettimeofday()
            got.append((result, t1 - t0 >= usec(500)))

        run_program(main)
        assert got == [(2, True)]

    def test_wake_returns_count(self):
        got = []

        def main():
            from repro.hw.isa import GetContext
            ctx = yield GetContext()
            mobj = ctx.kernel.machine.memory.allocate(4096, resident=True)
            n = yield Syscall("usync_wake", mobj, 0, 5)
            got.append(n)  # nobody sleeping

        run_program(main)
        assert got == [0]
