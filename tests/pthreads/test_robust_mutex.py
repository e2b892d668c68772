"""POSIX robust-mutex attribute over the SunOS robust-lock machinery.

``PTHREAD_MUTEX_ROBUST`` surfaces the owner-death protocol to the
application (EOWNERDEAD / pthread_mutex_consistent / ENOTRECOVERABLE);
the default ``PTHREAD_MUTEX_STALLED`` hides it — the library repairs the
lock itself and the acquire looks clean, matching pre-robust pthreads
where an owner death was invisible (if no longer a hang, thanks to the
kernel reclaim walk underneath).
"""

import pytest

from repro import threads
from repro.errors import Errno, SyncError
from repro.hw.isa import GetContext
from repro.pthreads import (PTHREAD_MUTEX_ROBUST, PTHREAD_PROCESS_SHARED,
                            PthreadCond, PthreadMutex, PthreadMutexAttr,
                            pthread_mutex_consistent)
from repro.pthreads.sync import (pthread_cond_signal, pthread_cond_wait,
                                 pthread_mutex_lock, pthread_mutex_unlock)
from repro.runtime import libc, unistd
from repro.sim.clock import usec
from tests.conftest import run_program


def _crash_holding(mutex, observed):
    """Bound holder thread dies mid-hold; drive from main via start()."""

    def holder(_):
        ctx = yield GetContext()
        observed["victim"] = ctx.thread
        yield from mutex.lock()
        yield from libc.compute(500_000.0)   # never reached past crash

    def start():
        ctx = yield GetContext()
        yield from threads.thread_create(
            holder, None, flags=threads.THREAD_BIND_LWP)

        def kill():
            victim = observed.get("victim")
            if victim is not None and victim.lwp is not None:
                ctx.kernel.crash_lwp(victim.lwp)
            else:
                ctx.engine.call_after(usec(500.0), kill)

        ctx.engine.call_after(usec(2_000.0), kill)
        yield from libc.compute(5_000.0)     # crash + reclaim done

    return start


class TestRobustAttr:
    def test_lock_surfaces_eownerdead_and_consistent_repairs(self):
        observed = {}
        m = PthreadMutex(PthreadMutexAttr(robust=PTHREAD_MUTEX_ROBUST),
                         name="robust")
        start = _crash_holding(m, observed)

        def main():
            yield from start()
            observed["first"] = yield from m.lock()
            observed["repair"] = pthread_mutex_consistent(m)
            yield from m.unlock()
            observed["second"] = yield from m.lock()
            yield from m.unlock()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert observed["repair"] == 0
        assert observed["second"] == 0             # clean relock

    def test_unlock_without_consistent_poisons_the_mutex(self):
        observed = {}
        m = PthreadMutex(PthreadMutexAttr(robust=PTHREAD_MUTEX_ROBUST),
                         name="poisoned")
        start = _crash_holding(m, observed)

        def main():
            yield from start()
            observed["first"] = yield from m.lock()
            yield from m.unlock()                  # no consistent()
            observed["after"] = yield from m.lock()
            observed["try"] = yield from m.trylock()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] is Errno.EOWNERDEAD
        assert observed["after"] is Errno.ENOTRECOVERABLE
        assert observed["try"] is Errno.ENOTRECOVERABLE

    def test_consistent_on_healthy_robust_mutex_is_einval(self):
        m = PthreadMutex(PthreadMutexAttr(robust=PTHREAD_MUTEX_ROBUST))
        observed = {}

        def main():
            yield from m.lock()
            observed["repair"] = pthread_mutex_consistent(m)
            yield from m.unlock()
            yield from unistd.exit(0)

        run_program(main)
        assert observed["repair"] is Errno.EINVAL

    def test_consistent_on_non_robust_mutex_is_einval(self):
        m = PthreadMutex()
        assert pthread_mutex_consistent(m) is Errno.EINVAL

    def test_robust_process_shared_combination_rejected(self):
        with pytest.raises(SyncError):
            PthreadMutexAttr(pshared=PTHREAD_PROCESS_SHARED,
                             robust=PTHREAD_MUTEX_ROBUST)


class TestStalledAttr:
    def test_default_attr_auto_repairs_after_owner_death(self):
        observed = {}
        m = PthreadMutex(name="stalled")        # default: STALLED
        start = _crash_holding(m, observed)

        def main():
            yield from start()
            # The library swallows the EOWNERDEAD and marks the state
            # consistent itself: the caller sees an ordinary acquire.
            observed["first"] = yield from m.lock()
            yield from m.unlock()
            observed["second"] = yield from m.lock()
            yield from m.unlock()
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        assert observed["first"] == 0
        assert observed["second"] == 0
        assert not m.impl.owner_dead and not m.impl.unrecoverable


class TestCondWaitOwnerDeath:
    """The mutex's next holder dies while a thread sits in
    pthread_cond_wait: the wait's re-acquire reports the death exactly
    as pthread_mutex_lock would for the same attribute."""

    @pytest.mark.parametrize("robust", [False, True],
                             ids=["stalled", "robust"])
    def test_cond_wait_maps_owner_death_like_lock(self, robust):
        observed = {}
        attr = PthreadMutexAttr(robust=PTHREAD_MUTEX_ROBUST) if robust \
            else PthreadMutexAttr()
        m = PthreadMutex(attr, name="cond-mutex")
        cond = PthreadCond(name="cond")

        def holder(_):
            ctx = yield GetContext()
            observed["victim"] = ctx.thread
            yield from pthread_mutex_lock(m)     # handed over by the wait
            yield from libc.compute(500_000.0)   # never reached past crash

        def signaler(_):
            yield from libc.compute(10_000.0)    # well after the crash
            yield from pthread_cond_signal(cond)

        def main():
            ctx = yield GetContext()
            yield from pthread_mutex_lock(m)
            for body in (holder, signaler):
                yield from threads.thread_create(
                    body, None, flags=threads.THREAD_BIND_LWP)

            def kill():
                ctx.kernel.crash_lwp(observed["victim"].lwp)

            ctx.engine.call_after(usec(2_000.0), kill)
            observed["wait"] = yield from pthread_cond_wait(cond, m)
            if observed["wait"] is Errno.EOWNERDEAD:
                observed["repair"] = pthread_mutex_consistent(m)
            yield from pthread_mutex_unlock(m)
            observed["relock"] = yield from pthread_mutex_lock(m)
            yield from pthread_mutex_unlock(m)
            yield from unistd.exit(0)

        run_program(main, ncpus=2)
        if robust:
            assert observed["wait"] is Errno.EOWNERDEAD
            assert observed["repair"] == 0
        else:
            assert observed["wait"] == 0
        assert observed["relock"] == 0
        assert not m.impl.owner_dead and not m.impl.unrecoverable
