"""User-level thread objects.

"Threads are actually represented by data structures in the address space
of a program."  Per the paper, the state unique to each thread is:

* Thread ID
* Register state (our :class:`~repro.hw.context.Activity`)
* Stack
* Signal mask
* Priority
* Thread-local storage

Everything else is process state shared by all threads.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.hw.context import Activity
from repro.kernel.signals import Sigset

#: thread_create() flags (or'able), exactly the paper's set.
THREAD_STOP = 0x01
THREAD_NEW_LWP = 0x02
THREAD_BIND_LWP = 0x04
THREAD_WAIT = 0x08


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"   # on the library run queue (or unparking)
    RUNNING = "running"     # riding an LWP
    SLEEPING = "sleeping"   # blocked on a synchronization variable
    STOPPED = "stopped"     # thread_stop'd
    ZOMBIE = "zombie"       # exited; ID not yet reusable if THREAD_WAIT


class Thread:
    """One lightweight user-level thread."""

    def __init__(self, thread_id: int, func, arg, *, stack,
                 tls_block, priority: int, sigmask: Sigset,
                 waitable: bool, bound: bool):
        self.thread_id = thread_id
        # Read by traces and wait diagnostics; fixed at creation.
        self.name = f"thread-{thread_id}"
        self.func = func
        self.arg = arg
        self.state = ThreadState.RUNNABLE
        self.priority = priority
        self.sigmask = sigmask
        self.stack = stack
        self.tls = tls_block
        self.waitable = waitable
        self.bound = bound

        #: The saved execution context ("register state").
        self.activity: Optional[Activity] = None
        #: The LWP currently executing this thread, if any.
        self.lwp = None
        #: Signals posted via thread_kill() and not yet delivered.
        self.pending = Sigset()
        #: Threads blocked in thread_wait() on this thread.
        self.waiters: list[Thread] = []
        #: Set once a thread_wait() has been issued (at most one allowed).
        self.wait_claimed = False
        #: Exit bookkeeping.  "The exit status of a thread is always zero."
        self.exited = False
        self.exit_status = 0
        #: Deferred thread_stop of an unbound thread (takes effect at
        #: its next switch point).
        self.stop_pending = False
        #: Threads blocked in thread_stop() until this thread stops.
        self.stop_waiters: list[Thread] = []
        #: Sync-variable wait bookkeeping (which queue we are on).
        self.wait_queue: Optional[list] = None
        #: Virtual time the current sleep began (hang diagnostics).
        self.sleep_since_ns: Optional[int] = None
        #: Virtual time this thread last became RUNNABLE; set only when
        #: metrics are attached (ready-queue wait histogram).
        self.ready_since_ns: Optional[int] = None
        #: Value handed over by the waker (e.g. a semaphore handoff token).
        #: Kept off the activity's resume slot because a *bound* thread
        #: sleeps inside an lwp_park system call whose return value owns
        #: that slot.
        self.wake_value: Any = None
        #: Set by the crash-reclaim walk when this thread died with its
        #: LWP (fault injection, watchdog kill) rather than exiting.
        self.crashed = False
        #: Owning :class:`repro.threads.supervisor.Supervisor`, if any.
        self.supervisor = None

    @property
    def effective_priority(self) -> int:
        return self.priority

    def __repr__(self) -> str:
        kind = "bound" if self.bound else "unbound"
        return f"<Thread {self.thread_id} {kind} {self.state.value}>"
