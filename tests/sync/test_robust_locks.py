"""Robust-lock protocol at the synch-variable layer.

The contract after the crash-reclaim walk hands a dead holder's lock to
the next acquirer:

* the acquire *succeeds* but returns ``EOWNERDEAD`` — the new owner
  holds the lock and must judge the protected state;
* ``consistent()`` repairs it: subsequent acquires are clean;
* releasing *without* ``consistent()`` bricks the lock permanently —
  every later acquire raises ``ENOTRECOVERABLE``;
* for readers/writer locks only a dead *writer* poisons state (readers
  never mutate), so a dead reader is reclaimed silently.
"""

import pytest

from repro import threads
from repro.errors import Errno, SyscallError
from repro.hw.isa import GetContext
from repro.runtime import libc, unistd
from repro.sim.clock import usec
from repro.sync import (CondVar, Mutex, RW_READER, RW_WRITER, RwLock,
                        cv_wait, rw_enter)
from tests.conftest import run_program


def _crash_holding(sv_hold, observed, hold_usec=500_000.0):
    """Spawn a bound thread that acquires via ``sv_hold`` and dies
    mid-hold; returns the generator to drive from main."""

    def holder(_):
        ctx = yield GetContext()
        observed["victim"] = ctx.thread
        yield from sv_hold()
        yield from libc.compute(hold_usec)   # never reached past crash

    def start():
        ctx = yield GetContext()
        yield from threads.thread_create(
            holder, None, flags=threads.THREAD_BIND_LWP)
        _arm_crash(ctx, observed)
        yield from libc.compute(5_000.0)     # crash + reclaim done

    return start


def _arm_crash(ctx, observed):
    """Crash ``observed["victim"]``'s LWP 2 ms from now."""
    def kill():
        victim = observed.get("victim")
        if victim is not None and victim.lwp is not None:
            ctx.kernel.crash_lwp(victim.lwp)
        else:
            ctx.engine.call_after(usec(500.0), kill)

    ctx.engine.call_after(usec(2_000.0), kill)


class TestRobustMutex:
    def test_owner_dead_then_consistent_then_clean(self):
        observed = {}
        m = Mutex(name="robust")
        start = _crash_holding(m.enter, observed)

        def main():
            yield from start()
            observed["first"] = yield from m.enter()
            observed["repair"] = m.consistent()
            yield from m.exit()
            observed["second"] = yield from m.enter()
            yield from m.exit()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert observed["repair"] == 0
        assert observed["second"] is None          # clean acquire
        assert not m.owner_dead and not m.unrecoverable

    def test_release_without_consistent_bricks_the_lock(self):
        observed = {}
        m = Mutex(name="bricked")
        start = _crash_holding(m.enter, observed)

        def main():
            yield from start()
            observed["first"] = yield from m.enter()
            yield from m.exit()                    # no consistent(): brick
            try:
                yield from m.enter()
            except SyscallError as err:
                observed["enter_err"] = err.errno
            try:
                yield from m.tryenter()
            except SyscallError as err:
                observed["tryenter_err"] = err.errno
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert m.unrecoverable and not m.owner_dead
        assert observed["enter_err"] is Errno.ENOTRECOVERABLE
        assert observed["tryenter_err"] is Errno.ENOTRECOVERABLE

    def test_consistent_without_owner_death_is_einval(self):
        m = Mutex(name="healthy")
        observed = {}

        def main():
            yield from m.enter()
            observed["repair"] = m.consistent()
            yield from m.exit()
            yield from unistd.exit(0)

        run_program(main)
        assert observed["repair"] is Errno.EINVAL


class TestRobustCondWait:
    @pytest.mark.parametrize("call", ["wait", "cv_wait", "timedwait"])
    def test_wait_returns_the_reacquires_eownerdead(self, call):
        """The mutex's next holder dies while we sit in the wait: the
        re-acquire's EOWNERDEAD reaches the caller of every wait, even
        one that timed out, so it can repair before releasing."""
        observed = {}
        m, cv = Mutex(name="cv-mutex"), CondVar(name="cv")

        def holder(_):
            ctx = yield GetContext()
            observed["victim"] = ctx.thread
            yield from m.enter()         # handed over by main's wait
            yield from libc.compute(500_000.0)   # never reached past crash

        def signaler(_):
            yield from libc.compute(10_000.0)    # well after the crash
            yield from cv.signal()

        def main():
            ctx = yield GetContext()
            yield from m.enter()
            timed = call == "timedwait"
            for body in (holder,) if timed else (holder, signaler):
                yield from threads.thread_create(
                    body, None, flags=threads.THREAD_BIND_LWP)
            _arm_crash(ctx, observed)
            if timed:
                observed["wait"] = yield from cv.timedwait(m, 20_000)
            elif call == "cv_wait":
                observed["wait"] = yield from cv_wait(cv, m)
            else:
                observed["wait"] = yield from cv.wait(m)
            observed["repair"] = m.consistent()
            yield from m.exit()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["wait"] is Errno.EOWNERDEAD
        assert observed["repair"] == 0
        assert not m.owner_dead and not m.unrecoverable


class TestRobustRwLock:
    @pytest.mark.parametrize("call", ["enter", "rw_enter"])
    def test_dead_writer_surfaces_eownerdead(self, call):
        """The method and the Figure 4 name both hand the next writer
        the EOWNERDEAD it must repair before releasing."""
        observed = {}
        rw = RwLock(name="robust-rw")
        start = _crash_holding(lambda: rw.enter(RW_WRITER), observed)

        def main():
            yield from start()
            if call == "rw_enter":
                observed["first"] = yield from rw_enter(rw, RW_WRITER)
            else:
                observed["first"] = yield from rw.enter(RW_WRITER)
            observed["repair"] = rw.consistent()
            yield from rw.exit()
            observed["second"] = yield from rw.enter(RW_READER)
            yield from rw.exit()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert observed["repair"] == 0
        assert observed["second"] is None
        assert not rw.owner_dead

    def test_dead_reader_is_reclaimed_silently(self):
        observed = {}
        rw = RwLock(name="reader-rw")
        start = _crash_holding(lambda: rw.enter(RW_READER), observed)

        def main():
            yield from start()
            # A reader cannot have corrupted anything: the next writer
            # gets a *clean* acquire, no EOWNERDEAD.
            observed["acquire"] = yield from rw.enter(RW_WRITER)
            yield from rw.exit()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["acquire"] is None
        assert not rw.owner_dead
        assert observed["victim"] not in rw.reader_holders

    def test_tryenter_surfaces_eownerdead(self):
        """tryenter follows the robust protocol as enter does: the
        owner-dead lock comes back as a truthy EOWNERDEAD, and after
        consistent() later acquires are clean."""
        observed = {}
        rw = RwLock(name="try-rw")
        start = _crash_holding(lambda: rw.enter(RW_WRITER), observed)

        def main():
            yield from start()
            observed["first"] = yield from rw.tryenter(RW_WRITER)
            observed["repair"] = rw.consistent()
            yield from rw.exit()
            observed["second"] = yield from rw.tryenter(RW_READER)
            yield from rw.exit()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert observed["repair"] == 0
        assert observed["second"] is True
        assert not rw.owner_dead and not rw.unrecoverable

    def test_tryenter_on_bricked_lock_raises(self):
        """Released without consistent() after a tryenter, the lock
        bricks, and tryenter then raises ENOTRECOVERABLE as enter does
        (the Mutex.tryenter contract)."""
        observed = {}
        rw = RwLock(name="try-bricked-rw")
        start = _crash_holding(lambda: rw.enter(RW_WRITER), observed)

        def main():
            yield from start()
            observed["first"] = yield from rw.tryenter(RW_WRITER)
            yield from rw.exit()                   # no consistent(): brick
            for name, acquire in (("enter", rw.enter),
                                  ("tryenter", rw.tryenter)):
                try:
                    observed[name] = yield from acquire(RW_READER)
                except SyscallError as err:
                    observed[name] = err.errno
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert rw.unrecoverable and not rw.owner_dead
        assert observed["enter"] is Errno.ENOTRECOVERABLE
        assert observed["tryenter"] is Errno.ENOTRECOVERABLE
