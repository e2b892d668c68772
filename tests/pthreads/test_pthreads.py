"""Tests for the POSIX pthreads layer built over SunOS threads."""

import pytest

from repro.errors import Errno, SyncError, ThreadError
from repro import pthreads
from repro.pthreads.api import (PTHREAD_CREATE_DETACHED,
                                PTHREAD_SCOPE_SYSTEM, PthreadAttr,
                                pthread_once, pthread_once_init)
from repro.pthreads import sync as psync
from repro.pthreads.sync import (PTHREAD_MUTEX_ERRORCHECK,
                                 PthreadCond, PthreadMutex,
                                 PthreadMutexAttr, pthread_cond_signal,
                                 pthread_cond_wait, pthread_mutex_lock,
                                 pthread_mutex_unlock)
from repro.runtime import mapped, unistd
from repro import threads
from tests.conftest import run_program


class TestCreateJoin:
    def test_join_returns_start_routine_value(self):
        got = []

        def start(arg):
            return arg * 2
            yield

        def main():
            t = yield from pthreads.pthread_create(start, 21)
            got.append((yield from pthreads.pthread_join(t)))

        run_program(main)
        assert got == [42]

    def test_pthread_exit_value_reaches_joiner(self):
        got = []

        def start(_):
            yield from pthreads.pthread_exit("early out")
            got.append("unreachable")

        def main():
            t = yield from pthreads.pthread_create(start, None)
            got.append((yield from pthreads.pthread_join(t)))

        run_program(main)
        assert got == ["early out"]

    def test_self_and_equal(self):
        got = []

        def start(_):
            me = yield from pthreads.pthread_self()
            got.append(me)

        def main():
            t = yield from pthreads.pthread_create(start, None)
            yield from pthreads.pthread_join(t)
            got.append(pthreads.pthread_equal(t, got[0]))

        run_program(main)
        assert got[1] is True

    def test_detached_at_creation_not_joinable(self):
        def start(_):
            return
            yield

        def main():
            attr = PthreadAttr(detachstate=PTHREAD_CREATE_DETACHED)
            t = yield from pthreads.pthread_create(start, None, attr)
            with pytest.raises(ThreadError):
                yield from pthreads.pthread_join(t)
            yield from threads.thread_yield()

        run_program(main, check_deadlock=False)

    def test_detach_after_creation_recycles(self):
        def start(_):
            yield from unistd.sleep_usec(1_000)

        def main():
            t = yield from pthreads.pthread_create(start, None)
            yield from pthreads.pthread_detach(t)
            with pytest.raises(ThreadError):
                yield from pthreads.pthread_join(t)
            yield from unistd.sleep_usec(10_000)

        run_program(main, check_deadlock=False)

    def test_scope_system_creates_bound_thread(self):
        got = {}

        def start(_):
            me = yield from threads.current_thread()
            got["bound"] = me.bound

        def main():
            attr = PthreadAttr(scope=PTHREAD_SCOPE_SYSTEM)
            t = yield from pthreads.pthread_create(start, None, attr)
            yield from pthreads.pthread_join(t)

        run_program(main, ncpus=2)
        assert got["bound"]

    def test_attr_priority_applied(self):
        got = {}

        def start(_):
            me = yield from threads.current_thread()
            got["prio"] = me.priority

        def main():
            attr = PthreadAttr(priority=50)
            t = yield from pthreads.pthread_create(start, None, attr)
            yield from pthreads.pthread_join(t)

        run_program(main)
        assert got["prio"] == 50


class TestOnce:
    def test_init_runs_exactly_once(self):
        runs = []
        once = pthread_once_init()

        def init():
            runs.append(1)

        def worker(_):
            yield from pthread_once(once, init)

        def main():
            ts = []
            for _ in range(4):
                t = yield from pthreads.pthread_create(worker, None)
                ts.append(t)
            for t in ts:
                yield from pthreads.pthread_join(t)
            yield from pthread_once(once, init)

        run_program(main, ncpus=2)
        assert runs == [1]


class TestMutexCond:
    def test_mutex_lock_unlock(self):
        def main():
            m = PthreadMutex()
            yield from pthread_mutex_lock(m)
            assert not (yield from m.trylock())
            yield from pthread_mutex_unlock(m)
            assert (yield from m.trylock())
            yield from m.unlock()

        run_program(main)

    def test_errorcheck_kind_detects_recursion(self):
        def main():
            m = PthreadMutex(PthreadMutexAttr(
                kind=PTHREAD_MUTEX_ERRORCHECK))
            assert (yield from m.lock()) == 0
            # POSIX errorcheck: a relock by the owner reports EDEADLK
            # instead of deadlocking or raising.
            assert (yield from m.lock()) == Errno.EDEADLK
            assert (yield from pthread_mutex_lock(m)) == Errno.EDEADLK
            yield from m.unlock()

        run_program(main)

    def test_cond_wait_signal(self):
        got = []

        def waiter(shared):
            m, cv = shared["m"], shared["cv"]
            yield from pthread_mutex_lock(m)
            while not shared["ready"]:
                yield from pthread_cond_wait(cv, m)
            got.append("woke")
            yield from pthread_mutex_unlock(m)

        def main():
            shared = {"m": PthreadMutex(), "cv": PthreadCond(),
                      "ready": False}
            t = yield from pthreads.pthread_create(waiter, shared)
            yield from threads.thread_yield()
            yield from pthread_mutex_lock(shared["m"])
            shared["ready"] = True
            yield from pthread_cond_signal(shared["cv"])
            yield from pthread_mutex_unlock(shared["m"])
            yield from pthreads.pthread_join(t)

        run_program(main)
        assert got == ["woke"]

    def test_process_shared_mutex(self):
        """PTHREAD_PROCESS_SHARED through a mapped file — the interaction
        the paper said P1003.4a was missing."""
        got = {}

        def peer():
            region = yield from mapped.map_shared_file("/tmp/pm", 4096)
            m = PthreadMutex(PthreadMutexAttr(
                pshared=pthreads.PTHREAD_PROCESS_SHARED,
                cell=region.cell(0)))
            yield from m.lock()
            got["peer_locked_at"] = yield from unistd.gettimeofday()
            yield from m.unlock()

        def main():
            region = yield from mapped.map_shared_file("/tmp/pm", 4096)
            m = PthreadMutex(PthreadMutexAttr(
                pshared=pthreads.PTHREAD_PROCESS_SHARED,
                cell=region.cell(0)))
            yield from m.lock()
            pid = yield from unistd.fork1(peer)
            yield from unistd.sleep_usec(20_000)
            got["parent_released_at"] = yield from unistd.gettimeofday()
            yield from m.unlock()
            yield from unistd.waitpid(pid)

        run_program(main)
        assert got["peer_locked_at"] >= got["parent_released_at"]

    def test_pshared_without_cell_rejected(self):
        with pytest.raises(SyncError):
            PthreadMutexAttr(pshared=pthreads.PTHREAD_PROCESS_SHARED)


class TestFreeFunctions:
    @pytest.mark.parametrize("name", sorted(
        name for name in vars(psync)
        if name.startswith(("pthread_mutex_", "pthread_cond_"))))
    def test_name_is_the_method_it_names(self, name):
        """``pthread_mutex_lock`` is ``PthreadMutex.lock``, and so on."""
        _, kind, op = name.split("_", 2)
        cls = {"mutex": PthreadMutex, "cond": PthreadCond}[kind]
        assert getattr(psync, name) is getattr(cls, op)


class TestTsd:
    def test_specific_values_per_thread(self):
        got = {}

        def worker(tag):
            key = keybox["key"]
            yield from pthreads.pthread_setspecific(key, tag * 10)
            yield from pthreads.pthread_yield()
            got[tag] = yield from pthreads.pthread_getspecific(key)

        keybox = {}

        def main():
            keybox["key"] = yield from pthreads.pthread_key_create()
            ts = []
            for tag in (1, 2):
                t = yield from pthreads.pthread_create(worker, tag)
                ts.append(t)
            for t in ts:
                yield from pthreads.pthread_join(t)

        run_program(main)
        assert got == {1: 10, 2: 20}

    def test_destructor_runs(self):
        freed = []

        def worker(_):
            key = keybox["key"]
            yield from pthreads.pthread_setspecific(key, "buffer")

        keybox = {}

        def main():
            keybox["key"] = yield from pthreads.pthread_key_create(
                destructor=freed.append)
            t = yield from pthreads.pthread_create(worker, None)
            yield from pthreads.pthread_join(t)

        run_program(main)
        assert freed == ["buffer"]

    def test_key_delete(self):
        def main():
            key = yield from pthreads.pthread_key_create()
            yield from pthreads.pthread_key_delete(key)
            from repro.errors import ThreadError
            with pytest.raises(ThreadError):
                yield from pthreads.pthread_setspecific(key, 1)

        run_program(main)
