"""Counting semaphores.

"The semaphore synchronization facilities provide classic counting
semaphores.  They are not as efficient as mutex locks, but they need not
be bracketed so that they may be used for asynchronous event notification
(e.g. in signal handlers).  They also contain state so they may be used
asynchronously without acquiring a mutex as required by condition
variables."

This is also the primitive of the paper's Figure 6 benchmark: two threads
ping-ponging through ``sema_v``/``sema_p`` pairs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SyncError
from repro.hw.isa import GET_CONTEXT, Syscall, Touch, charge
from repro.sync import events
from repro.sync.guards import guarded
from repro.sync.variants import (SharedCell, SyncVariable, deadline_after,
                                 timed_result, usync_block_retry)
from repro.threads.scheduler import TIMED_OUT

#: Wake-token handed from sema_v to the thread it resumes.
_TOKEN = "sema-token"


class Semaphore(SyncVariable):
    """A counting semaphore (sema_init / sema_p / sema_v / sema_tryp)."""

    KIND = "sema"

    def __init__(self, count: int = 0, vtype: int = 0,
                 cell: Optional[SharedCell] = None, name: str = ""):
        super().__init__(vtype, cell, name)
        if count < 0:
            raise SyncError("semaphore count must be >= 0")
        # Initial count, kept for the exit-invariant detector: a V that
        # pushes the value past ``initial`` released a unit nobody ever
        # acquired (the in-use count underflowed).
        self.initial = count
        if self.is_shared:
            if cell.load() == 0 and count:
                cell.store(count)
        else:
            self.count = count
        self.waiters: list = []
        # Threads currently holding a unit (completed P, no V yet) —
        # best-effort, private variant only; read by the hang
        # diagnostics so semaphore waits name their likely holders.
        self.holders: list = []
        # Statistics.
        self.p_ops = 0
        self.v_ops = 0
        self.blocks = 0

    # ---------------------------------------------------------------- P

    @guarded
    def p(self):
        """Generator: decrement, blocking while the count is zero."""
        if self.is_shared:
            return self._p_shared(None)
        return self._p(None)

    @guarded
    def timedp(self, timeout_usec: float):
        """Generator: sema_p bounded by a timeout.

        Returns True once a unit is acquired, False when
        ``timeout_usec`` of virtual time passes first (timed-wait
        parity: the same P as :meth:`p`, plus a deadline).
        """
        if self.is_shared:
            return timed_result(self._p_shared(timeout_usec))
        return timed_result(self._p(timeout_usec))

    def _p(self, timeout_usec):
        """Private-variant P; None, or False once the deadline
        (untimed when ``timeout_usec`` is None) has passed."""
        self.p_ops += 1
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        me = ctx.thread
        t0 = ctx.engine.now_ns
        was_contended = False
        yield charge(ctx.costs.sync_user_op)
        deadline = deadline_after(ctx, timeout_usec)
        while True:
            if self.count > 0:
                self.count -= 1
                break
            if deadline is not None and ctx.engine.now_ns >= deadline:
                return False
            self.blocks += 1
            was_contended = True
            outcome = yield from lib.block_current_on(
                self.waiters, guard=lambda: self.count == 0,
                deadline_ns=deadline, thread=me)
            if outcome is TIMED_OUT:
                return False
            if outcome == _TOKEN:
                # Direct handoff from sema_v: count stays consumed.
                break
            # NO_SLEEP: a V slipped in before we slept; retry.
        self._note_hold(me)
        self._m_acquired(ctx, was_contended, t0, op="p")
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "sema-p", self,
                                         value=self.count)
        return None

    def _note_hold(self, thread) -> None:
        if thread is not None:
            self.holders.append(thread)

    def _note_release(self, thread) -> None:
        if thread is not None and thread in self.holders:
            self.holders.remove(thread)
        elif self.holders:
            # Asynchronous V from a non-holder (legal: semaphores "need
            # not be bracketed"): assume the oldest unit was released.
            self.holders.pop(0)

    @guarded
    def tryp(self):
        """Generator: decrement only if no blocking is required."""
        self.p_ops += 1
        if self.is_shared:
            result = yield from self._tryp_shared()
            return result
        ctx = yield GET_CONTEXT
        yield charge(ctx.costs.sync_user_op)
        if self.count > 0:
            self.count -= 1
            self._note_hold(ctx.thread)
            self._m_acquired(ctx, False, 0, op="p")
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "sema-p", self,
                                             value=self.count)
            return True
        return False

    # ---------------------------------------------------------------- V

    @guarded
    def v(self):
        """Generator: increment, waking one blocked thread if any."""
        self.v_ops += 1
        if self.is_shared:
            yield from self._v_shared()
            return
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        yield charge(ctx.costs.sync_user_op)
        self._m_count(ctx, "v")
        self._note_release(ctx.thread)
        if self.waiters:
            # Hand the unit straight to the longest waiter.
            yield from lib.wake_from_queue(self.waiters, n=1, value=_TOKEN)
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "sema-v", self,
                                             value=self.count, handoff=True)
        else:
            self.count += 1
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "sema-v", self,
                                             value=self.count, handoff=False)

    @property
    def value(self) -> int:
        if self.is_shared:
            return self.cell.load()
        return self.count

    # ==================================================== shared variant
    #
    # The cell holds the count; the kernel's expected-value check closes
    # the decide-to-sleep window.

    def _p_shared(self, timeout_usec):
        """Shared-variant P; None, or False once the deadline (untimed
        when ``timeout_usec`` is None) has passed."""
        self.p_ops += 1
        ctx = yield GET_CONTEXT
        cell = self.cell
        t0 = ctx.engine.now_ns
        was_contended = False
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.sync_user_op)
        deadline = deadline_after(ctx, timeout_usec)
        while True:
            count = cell.load()
            if count > 0:
                cell.store(count - 1)
                self._m_acquired(ctx, was_contended, t0, op="p")
                if events.sync_active(ctx):
                    yield from events.sync_point(ctx, "sema-p", self,
                                                 value=count - 1)
                return None
            timeout = None
            if deadline is not None:
                timeout = deadline - ctx.engine.now_ns
                if timeout <= 0:
                    return False
            self.blocks += 1
            was_contended = True
            if (yield from usync_block_retry(
                    cell, 0, f"sema:{self.name}", timeout)) == 2:
                return False

    def _tryp_shared(self):
        ctx = yield GET_CONTEXT
        cell = self.cell
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.sync_user_op)
        count = cell.load()
        if count > 0:
            cell.store(count - 1)
            self._m_acquired(ctx, False, 0, op="p")
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "sema-p", self,
                                             value=count - 1)
            return True
        return False

    def _v_shared(self):
        ctx = yield GET_CONTEXT
        cell = self.cell
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.sync_user_op)
        self._m_count(ctx, "v")
        value = cell.load() + 1
        cell.store(value)
        yield Syscall("usync_wake", cell.mobj, cell.offset, 1,
                      label=f"sema:{self.name}")
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "sema-v", self, value=value,
                                         handoff=False)
