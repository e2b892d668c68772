"""Thread synchronization: mutexes, condition variables, semaphores,
readers/writer locks — with spin/adaptive/debug and process-shared
variants.

Both styles of the interface are provided, and they are one interface:
each of the paper's C names (Figure 4) is the constructor or method it
names (``mutex_init is Mutex``, ``mutex_enter is Mutex.enter``), so
``yield from mutex_enter(m)`` and ``yield from m.enter()`` run the same
code, undriven-generator guard included.
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


# Figure 4's procedural interface.  Each *_init returns the variable;
# the others are generators to be driven with `yield from`.
mutex_init = Mutex
mutex_enter = Mutex.enter
mutex_exit = Mutex.exit
mutex_tryenter = Mutex.tryenter
cv_init = CondVar
cv_wait = CondVar.wait
cv_timedwait = CondVar.timedwait
cv_signal = CondVar.signal
cv_broadcast = CondVar.broadcast
sema_init = Semaphore
sema_p = Semaphore.p
sema_v = Semaphore.v
sema_tryp = Semaphore.tryp
rw_init = RwLock
rw_enter = RwLock.enter
rw_exit = RwLock.exit
rw_tryenter = RwLock.tryenter
rw_downgrade = RwLock.downgrade
rw_tryupgrade = RwLock.tryupgrade
