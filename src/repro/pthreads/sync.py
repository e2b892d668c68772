"""pthread mutexes and condition variables over the SunOS primitives.

The process-shared attribute (missing from the draft standard's
interaction with mapped files, the paper notes) maps directly onto
``THREAD_SYNC_SHARED`` + a cell in shared memory.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import Errno, SyncError, SyscallError
from repro.hw.isa import GetContext
from repro.pthreads.api import (PTHREAD_PROCESS_PRIVATE,
                                PTHREAD_PROCESS_SHARED)
from repro.sync import (CondVar, Mutex, SYNC_DEBUG, THREAD_SYNC_SHARED,
                        SharedCell)

#: Mutex kinds (errorcheck layers on the paper's "extra debugging"
#: variant).
PTHREAD_MUTEX_NORMAL = 0
PTHREAD_MUTEX_ERRORCHECK = 1

#: Robustness attribute (pthread_mutexattr_setrobust).  The underlying
#: SunOS mutex is always reclaimed by the kernel when its holder's LWP
#: dies; the attribute only controls whether the *caller* is told.  A
#: robust mutex surfaces ``EOWNERDEAD`` from the acquire and expects
#: ``pthread_mutex_consistent`` before unlock (else the lock bricks to
#: ``ENOTRECOVERABLE``); a stalled (default) mutex repairs silently so
#: legacy callers never see an errno they predate.
PTHREAD_MUTEX_STALLED = 0
PTHREAD_MUTEX_ROBUST = 1


class PthreadMutexAttr:
    """pthread_mutexattr_t."""

    def __init__(self, pshared: int = PTHREAD_PROCESS_PRIVATE,
                 kind: int = PTHREAD_MUTEX_NORMAL,
                 cell: Optional[SharedCell] = None,
                 robust: int = PTHREAD_MUTEX_STALLED):
        if pshared == PTHREAD_PROCESS_SHARED and cell is None:
            raise SyncError(
                "PTHREAD_PROCESS_SHARED needs a cell in shared memory")
        if robust == PTHREAD_MUTEX_ROBUST \
                and pshared == PTHREAD_PROCESS_SHARED:
            # The futex-cell variant keeps no owner identity for the
            # kernel to reclaim — same simplification as the crash walk.
            raise SyncError(
                "PTHREAD_MUTEX_ROBUST is not supported for "
                "PTHREAD_PROCESS_SHARED mutexes (no cross-process "
                "owner identity to reclaim)")
        self.pshared = pshared
        self.kind = kind
        self.cell = cell
        self.robust = robust

    def _vtype(self) -> int:
        vtype = 0
        if self.pshared == PTHREAD_PROCESS_SHARED:
            vtype |= THREAD_SYNC_SHARED
        if self.kind == PTHREAD_MUTEX_ERRORCHECK:
            vtype |= SYNC_DEBUG
        return vtype


class PthreadMutex:
    """pthread_mutex_t, backed by a SunOS mutex."""

    def __init__(self, attr: Optional[PthreadMutexAttr] = None,
                 name: str = ""):
        attr = attr or PthreadMutexAttr()
        self._impl = Mutex(attr._vtype(), cell=attr.cell, name=name)
        self.attr = attr

    def _owner_dead_result(self):
        """Map the primitive's EOWNERDEAD to this mutex's robustness."""
        if self.attr.robust == PTHREAD_MUTEX_ROBUST:
            return Errno.EOWNERDEAD
        # Stalled (default): the kernel reclaimed the lock either way;
        # repair silently so the acquire reports plain success.
        self._impl.consistent()
        return 0

    def lock(self):
        """pthread_mutex_lock: 0, EDEADLK (errorcheck), EOWNERDEAD
        (robust, previous holder crashed), or ENOTRECOVERABLE."""
        return self._lock(None)

    def timedlock(self, timeout_usec: float):
        """pthread_mutex_timedlock: :meth:`lock`, or ETIMEDOUT when
        ``timeout_usec`` passes first."""
        return self._lock(timeout_usec)

    def _lock(self, timeout_usec):
        if (self.attr.kind == PTHREAD_MUTEX_ERRORCHECK
                and not self._impl.is_shared):
            # POSIX errorcheck semantics: a relock by the owner returns
            # EDEADLK instead of deadlocking (the paper's SYNC_DEBUG
            # variant raises; pthreads report the errno).  Shared mutexes
            # keep no cross-process owner identity, so no check there.
            ctx = yield GetContext()
            if self._impl.owner is not None and self._impl.owner is ctx.thread:
                return Errno.EDEADLK
        try:
            if timeout_usec is None:
                result = yield from self._impl.enter()
            else:
                result = yield from self._impl.timedenter(timeout_usec)
        except SyscallError as err:
            if err.errno == Errno.ENOTRECOVERABLE:
                return Errno.ENOTRECOVERABLE
            raise
        if result is Errno.EOWNERDEAD:
            return self._owner_dead_result()
        return Errno.ETIMEDOUT if result is False else 0

    def trylock(self):
        """pthread_mutex_trylock: truthy on acquire (True, or
        EOWNERDEAD for a robust mutex whose holder crashed), False when
        busy; ENOTRECOVERABLE as an errno return on a bricked robust
        mutex."""
        try:
            result = yield from self._impl.tryenter()
        except SyscallError as err:
            if (err.errno == Errno.ENOTRECOVERABLE
                    and self.attr.robust == PTHREAD_MUTEX_ROBUST):
                return Errno.ENOTRECOVERABLE
            raise
        if result is Errno.EOWNERDEAD:
            mapped = self._owner_dead_result()
            return True if mapped == 0 else mapped
        return result

    def unlock(self):
        yield from self._impl.exit()

    def consistent(self) -> int:
        """pthread_mutex_consistent (plain call, no yields): 0, or
        EINVAL when the mutex is not robust or not owner-dead."""
        if self.attr.robust != PTHREAD_MUTEX_ROBUST:
            return Errno.EINVAL
        return self._impl.consistent()

    @property
    def impl(self) -> Mutex:
        return self._impl


class PthreadCondAttr:
    """pthread_condattr_t."""

    def __init__(self, pshared: int = PTHREAD_PROCESS_PRIVATE,
                 cell: Optional[SharedCell] = None):
        if pshared == PTHREAD_PROCESS_SHARED and cell is None:
            raise SyncError(
                "PTHREAD_PROCESS_SHARED needs a cell in shared memory")
        self.pshared = pshared
        self.cell = cell

    def _vtype(self) -> int:
        return (THREAD_SYNC_SHARED
                if self.pshared == PTHREAD_PROCESS_SHARED else 0)


class PthreadCond:
    """pthread_cond_t, backed by a SunOS condition variable."""

    def __init__(self, attr: Optional[PthreadCondAttr] = None,
                 name: str = ""):
        attr = attr or PthreadCondAttr()
        self._impl = CondVar(attr._vtype(), cell=attr.cell, name=name)
        self.attr = attr

    def wait(self, mutex: PthreadMutex):
        """pthread_cond_wait: 0, or EOWNERDEAD when the re-acquired
        robust mutex came back from a crashed holder (a stalled one is
        repaired silently, as :meth:`PthreadMutex.lock` does)."""
        result = yield from self._impl.wait(mutex.impl)
        if result is Errno.EOWNERDEAD:
            return mutex._owner_dead_result()
        return 0

    def signal(self):
        yield from self._impl.signal()

    def broadcast(self):
        yield from self._impl.broadcast()


# POSIX-style free functions: each is the method it names, so
# ``yield from pthread_mutex_lock(m)`` is ``yield from m.lock()``.
pthread_mutex_lock = PthreadMutex.lock
pthread_mutex_trylock = PthreadMutex.trylock
pthread_mutex_timedlock = PthreadMutex.timedlock
pthread_mutex_unlock = PthreadMutex.unlock
pthread_mutex_consistent = PthreadMutex.consistent
pthread_cond_wait = PthreadCond.wait
pthread_cond_signal = PthreadCond.signal
pthread_cond_broadcast = PthreadCond.broadcast
