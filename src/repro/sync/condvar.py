"""Condition variables.

"Condition variables are used to wait until a particular condition is
true.  Condition variables must be used in conjunction with a mutex lock.
... Since the re-acquiring of the mutex may be blocked by other threads
waiting for the mutex, the condition that caused the wait must be
re-tested."  The canonical usage loop from the paper::

    yield from m.enter()
    while some_condition:
        yield from cv.wait(m)
    ...
    yield from m.exit()

Waits may return spuriously (a signal that raced the release of the
mutex); the paper-mandated re-test loop makes that harmless.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SyncError
from repro.hw.isa import GET_CONTEXT, Syscall, Touch, charge
from repro.sim.clock import usec
from repro.sync import events
from repro.sync.guards import guarded
from repro.sync.mutex import Mutex
from repro.sync.variants import (SharedCell, SyncVariable, deadline_after,
                                 timed_result, usync_block_retry)
from repro.threads.scheduler import TIMED_OUT


class CondVar(SyncVariable):
    """A condition variable (cv_init / cv_wait / cv_signal / cv_broadcast)."""

    KIND = "cv"

    def __init__(self, vtype: int = 0, cell: Optional[SharedCell] = None,
                 name: str = ""):
        super().__init__(vtype, cell, name)
        self.waiters: list = []
        # Generation counter: bumped by every signal/broadcast.  A waiter
        # that observes a bump between releasing the mutex and sleeping
        # consumes the wakeup without sleeping (no lost wakeups).  For the
        # shared variant the counter lives in the shared cell.
        self.generation = 0
        # Statistics.
        self.waits = 0
        self.signals = 0
        self.broadcasts = 0

    def _gen(self) -> int:
        return self.cell.load() if self.is_shared else self.generation

    def _bump(self) -> None:
        if self.is_shared:
            self.cell.store(self.cell.load() + 1)
        else:
            self.generation += 1

    # --------------------------------------------------------------- wait

    @guarded
    def wait(self, mutex: Mutex):
        """Generator: release ``mutex``, sleep, re-acquire, return.

        The mutex must be held by the caller (checked for private
        mutexes; a shared mutex carries no owner identity to check).
        Returns the re-acquire's result — ``Errno.EOWNERDEAD`` when the
        mutex came back from a crashed holder (robust-mutex protocol),
        else None — so monitor loops can repair before retesting.
        """
        return self._wait(mutex, None)

    @guarded
    def timedwait(self, mutex: Mutex, timeout_usec: float):
        """Generator: wait, but give up after ``timeout_usec``.

        Returns True when (possibly spuriously) signaled, False on
        timeout, and ``Errno.EOWNERDEAD`` as :meth:`wait` does.  Either
        way the mutex is re-held on return, and the caller re-tests its
        condition as usual.  A Solaris-era extension; the timeout is
        driven by the kernel's timer facility (standing in for the
        per-LWP interval timers a real library would arm).
        """
        return timed_result(self._wait(mutex, timeout_usec))

    def _wait(self, mutex: Mutex, timeout_usec):
        """The wait; the re-acquire's result, or False when the deadline
        (untimed when ``timeout_usec`` is None) passed first."""
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        me = ctx.thread
        self.waits += 1
        self._m_count(ctx, "waits")
        t0 = ctx.engine.now_ns
        if not mutex.is_shared and mutex.owner is not me:
            raise SyncError(
                f"{self.name}: cv_wait with {mutex.name} not held")
        yield charge(ctx.costs.sync_user_op)
        events.sync_event(ctx, "cv-wait", self, mutex=mutex)

        target_gen = self._gen()
        yield from mutex.exit()
        if self.is_shared:
            cell = self.cell
            yield Touch(cell.mobj, cell.offset)
            # Kernel re-checks the generation before sleeping; EINTR is
            # just a spurious wake (the caller's retest loop absorbs it).
            timeout = None if timeout_usec is None else usec(timeout_usec)
            timed_out = (yield from usync_block_retry(
                cell, target_gen, f"cv:{self.name}", timeout)) == 2
        else:
            # NO_SLEEP means a signal landed in the window: treat it as
            # our wakeup (the paper's retest loop absorbs spurious ones).
            timed_out = (yield from lib.block_current_on(
                self.waiters, guard=lambda: self.generation == target_gen,
                deadline_ns=deadline_after(ctx, timeout_usec),
                thread=me)) is TIMED_OUT
        acquired = yield from mutex.enter()
        m = ctx.engine.metrics
        if m is not None:
            # Wall-to-wall wait including the mutex re-acquire — the
            # latency the paper's monitor pattern actually experiences.
            m.observe(self._metric_key("wait_ns"), ctx.engine.now_ns - t0)
        if timed_out and acquired is None:
            return False
        return acquired

    # ------------------------------------------------------------- signal

    @guarded
    def signal(self):
        """Generator: wake one waiter ("no guaranteed order" beyond FIFO
        fairness in this implementation)."""
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        self.signals += 1
        self._m_count(ctx, "signals")
        yield charge(ctx.costs.sync_user_op)
        self._bump()
        if self.is_shared:
            cell = self.cell
            yield Syscall("usync_wake", cell.mobj, cell.offset, 1,
                          label=f"cv:{self.name}")
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "cv-signal", self,
                                             woken=None)
        else:
            woken = yield from lib.wake_from_queue(self.waiters, n=1)
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "cv-signal", self,
                                             woken=woken)

    @guarded
    def broadcast(self):
        """Generator: wake all waiters.

        "Since cv_broadcast() causes all threads blocking on the condition
        to re-contend for the mutex, it should be used with care."
        """
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        self.broadcasts += 1
        self._m_count(ctx, "broadcasts")
        yield charge(ctx.costs.sync_user_op)
        self._bump()
        if self.is_shared:
            cell = self.cell
            yield Syscall("usync_wake_all", cell.mobj, cell.offset,
                          label=f"cv:{self.name}")
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "cv-broadcast", self,
                                             woken=None)
        else:
            woken = yield from lib.wake_from_queue(self.waiters,
                                                   n=len(self.waiters))
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "cv-broadcast", self,
                                             woken=woken)
