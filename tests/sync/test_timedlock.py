"""Timed-wait parity: mutex_timedenter, sema_timedp, and the POSIX
pthread_mutex_timedlock veneer.

CondVar.timedwait existed alone for a while; these cover the rest of
the timed family in both the private and process-shared (cell/futex)
variants.
"""

import pytest

from repro.hw.isa import GetContext
from repro.pthreads.sync import (PthreadMutex, pthread_mutex_lock,
                                 pthread_mutex_timedlock,
                                 pthread_mutex_unlock)
from repro.runtime import libc, mapped, unistd
from repro.sim.clock import usec
from repro.sync import CondVar, Mutex, Semaphore, THREAD_SYNC_SHARED
from repro import threads
from tests.conftest import run_program


class TestMutexTimedenter:
    def test_uncontended_acquires_immediately(self):
        got = []

        def main():
            m = Mutex(name="m")
            ok = yield from m.timedenter(1_000)
            got.append(ok)
            yield from m.exit()

        run_program(main)
        assert got == [True]

    def test_timeout_when_held(self):
        got = []

        def holder(m):
            yield from m.enter()
            yield from libc.compute(50_000)
            yield from m.exit()

        def main():
            m = Mutex(name="m")
            tid = yield from threads.thread_create(
                holder, m, flags=threads.THREAD_WAIT
                | threads.THREAD_BIND_LWP)
            yield from libc.compute(1_000)    # let the holder take it
            t0 = yield from unistd.gettimeofday()
            ok = yield from m.timedenter(5_000)
            t1 = yield from unistd.gettimeofday()
            got.append((ok, (t1 - t0) / 1000))
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        ok, elapsed = got[0]
        assert ok is False
        assert 5_000 <= elapsed < 50_000

    def test_acquires_when_released_in_time(self):
        got = []

        def holder(m):
            yield from m.enter()
            yield from libc.compute(2_000)
            yield from m.exit()

        def main():
            m = Mutex(name="m")
            tid = yield from threads.thread_create(
                holder, m, flags=threads.THREAD_WAIT
                | threads.THREAD_BIND_LWP)
            yield from libc.compute(500)      # let the holder take it
            ok = yield from m.timedenter(1_000_000)
            got.append((ok, m.owner is not None))
            yield from m.exit()
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert got == [(True, True)]

    def test_shared_variant_times_out_and_recovers(self):
        got = []

        def main():
            region = yield from mapped.map_anon_shared(4096)
            cell = region.cell(0)

            def holder(_):
                m = Mutex(THREAD_SYNC_SHARED, cell=cell, name="sm")
                yield from m.enter()
                yield from libc.compute(20_000)
                yield from m.exit()

            tid = yield from threads.thread_create(
                holder, None, flags=threads.THREAD_WAIT
                | threads.THREAD_BIND_LWP)
            yield from libc.compute(1_000)
            m = Mutex(THREAD_SYNC_SHARED, cell=cell, name="sm")
            ok1 = yield from m.timedenter(2_000)
            got.append(ok1)                    # too early: timeout
            ok2 = yield from m.timedenter(1_000_000)
            got.append(ok2)                    # after release: acquired
            yield from m.exit()
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert got == [False, True]


class TestSemaTimedp:
    def test_timeout_on_empty_semaphore(self):
        got = []

        def main():
            s = Semaphore(0, name="s")
            t0 = yield from unistd.gettimeofday()
            ok = yield from s.timedp(3_000)
            t1 = yield from unistd.gettimeofday()
            got.append((ok, (t1 - t0) / 1000))

        run_program(main)
        ok, elapsed = got[0]
        assert ok is False
        assert elapsed >= 3_000

    def test_v_before_deadline_acquires(self):
        got = []

        def poker(s):
            yield from libc.compute(2_000)
            yield from s.v()

        def main():
            s = Semaphore(0, name="s")
            tid = yield from threads.thread_create(
                poker, s, flags=threads.THREAD_WAIT)
            ok = yield from s.timedp(1_000_000)
            got.append((ok, s.value))
            yield from threads.thread_wait(tid)

        run_program(main)
        assert got == [(True, 0)]

    def test_shared_variant_timeout(self):
        got = []

        def main():
            region = yield from mapped.map_anon_shared(4096)
            s = Semaphore(0, THREAD_SYNC_SHARED, cell=region.cell(0),
                          name="ss")
            ok = yield from s.timedp(3_000)
            got.append(ok)
            yield from s.v()
            ok = yield from s.timedp(3_000)
            got.append(ok)

        run_program(main)
        assert got == [False, True]


class TestPthreadMutexTimedlock:
    def test_posix_veneer_returns_0_or_etimedout(self):
        from repro.errors import Errno
        got = []

        def holder(m):
            yield from pthread_mutex_lock(m)
            yield from libc.compute(30_000)
            yield from pthread_mutex_unlock(m)

        def main():
            m = PthreadMutex()
            tid = yield from threads.thread_create(
                holder, m, flags=threads.THREAD_WAIT
                | threads.THREAD_BIND_LWP)
            yield from libc.compute(1_000)    # let the holder take it
            got.append((yield from pthread_mutex_timedlock(m, 4_000)))
            got.append((yield from pthread_mutex_timedlock(m, 1_000_000)))
            yield from pthread_mutex_unlock(m)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert got == [Errno.ETIMEDOUT, 0]


class TestShortTimeouts:
    """A timeout that runs out during the block's own charges (the
    sync_user_op charge before a mutex sleep, the user-level thread
    pick) still expires on time: the block sees the passed deadline and
    declines the sleep, instead of sleeping past a timer that already
    fired or arming one in the past."""

    @pytest.mark.parametrize("timeout_usec", [0, 1, 30, 60])
    @pytest.mark.parametrize("primitive", ["mutex", "sema", "cv"])
    def test_expires(self, primitive, timeout_usec):
        got = []
        m, s, cv = Mutex(name="m"), Semaphore(0, name="s"), CondVar()

        def waiter(_):
            if primitive == "cv":
                yield from m.enter()
            ctx = yield GetContext()
            t0 = ctx.engine.now_ns
            if primitive == "mutex":
                ok = yield from m.timedenter(timeout_usec)
            elif primitive == "sema":
                ok = yield from s.timedp(timeout_usec)
            else:
                ok = yield from cv.timedwait(m, timeout_usec)
                yield from m.exit()
            got.append((ok, ctx.engine.now_ns - t0))

        def main():
            if primitive == "mutex":
                yield from m.enter()     # held until the waiter gave up
            tid = yield from threads.thread_create(
                waiter, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            if primitive == "mutex":
                yield from m.exit()

        run_program(main)
        (ok, elapsed), = got
        assert ok is False
        assert elapsed >= usec(timeout_usec)
