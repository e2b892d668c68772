"""Thread synchronization: mutexes, condition variables, semaphores,
readers/writer locks — with spin/adaptive/debug and process-shared
variants.

Both styles of the interface are provided:

* object methods: ``yield from m.enter()``;
* the paper's C names (Figure 4): ``yield from mutex_enter(m)``.
"""

from repro.sync.condvar import CondVar
from repro.sync.mutex import Mutex
from repro.sync.rwlock import RW_READER, RW_WRITER, RwLock, RwType
from repro.sync.semaphore import Semaphore
from repro.sync.structures import Barrier, BoundedQueue, Latch
from repro.sync.variants import (SPIN_POLL_US, SYNC_ADAPTIVE, SYNC_DEBUG,
                                 SYNC_DEFAULT, SYNC_SPIN,
                                 THREAD_SYNC_SHARED, SharedCell,
                                 SyncVariable)

__all__ = [
    "CondVar", "Mutex", "RwLock", "RwType", "RW_READER", "RW_WRITER",
    "Semaphore", "Barrier", "BoundedQueue", "Latch",
    "SPIN_POLL_US", "SYNC_ADAPTIVE", "SYNC_DEBUG", "SYNC_DEFAULT",
    "SYNC_SPIN", "THREAD_SYNC_SHARED", "SharedCell", "SyncVariable",
    "mutex_init", "mutex_enter", "mutex_exit", "mutex_tryenter",
    "cv_init", "cv_wait", "cv_timedwait", "cv_signal", "cv_broadcast",
    "sema_init", "sema_p", "sema_v", "sema_tryp",
    "rw_init", "rw_enter", "rw_exit", "rw_tryenter", "rw_downgrade",
    "rw_tryupgrade",
]


# --------------------------------------------------------------------
# Figure 4 style procedural interface.  Each *_init returns the variable;
# the others are generators to be driven with `yield from`.
# --------------------------------------------------------------------

def mutex_init(vtype: int = 0, cell: SharedCell = None,
               name: str = "") -> Mutex:
    """mutex_init(mp, type, arg): create a mutex of the given variant."""
    return Mutex(vtype, cell=cell, name=name)


def mutex_enter(mp: Mutex):
    result = yield from mp.enter()
    return result


def mutex_exit(mp: Mutex):
    yield from mp.exit()


def mutex_tryenter(mp: Mutex):
    result = yield from mp.tryenter()
    return result


def cv_init(vtype: int = 0, cell: SharedCell = None,
            name: str = "") -> CondVar:
    return CondVar(vtype, cell=cell, name=name)


def cv_wait(cvp: CondVar, mutexp: Mutex):
    """Wait; returns None, or EOWNERDEAD from the mutex re-acquire."""
    result = yield from cvp.wait(mutexp)
    return result


def cv_timedwait(cvp: CondVar, mutexp: Mutex, timeout_usec: float):
    """Wait with a timeout; returns True if signaled, False on timeout."""
    result = yield from cvp.timedwait(mutexp, timeout_usec)
    return result


def cv_signal(cvp: CondVar):
    yield from cvp.signal()


def cv_broadcast(cvp: CondVar):
    yield from cvp.broadcast()


def sema_init(count: int = 0, vtype: int = 0, cell: SharedCell = None,
              name: str = "") -> Semaphore:
    return Semaphore(count, vtype, cell=cell, name=name)


def sema_p(sp: Semaphore):
    yield from sp.p()


def sema_v(sp: Semaphore):
    yield from sp.v()


def sema_tryp(sp: Semaphore):
    result = yield from sp.tryp()
    return result


def rw_init(vtype: int = 0, cells=None, name: str = "") -> RwLock:
    return RwLock(vtype, cells=cells, name=name)


def rw_enter(rwlp: RwLock, rw_type: RwType):
    yield from rwlp.enter(rw_type)


def rw_exit(rwlp: RwLock):
    yield from rwlp.exit()


def rw_tryenter(rwlp: RwLock, rw_type: RwType):
    result = yield from rwlp.tryenter(rw_type)
    return result


def rw_downgrade(rwlp: RwLock):
    yield from rwlp.downgrade()


def rw_tryupgrade(rwlp: RwLock):
    result = yield from rwlp.tryupgrade()
    return result
