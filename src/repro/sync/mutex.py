"""Mutual exclusion locks.

"Mutex locks provide simple mutual exclusion.  They are low overhead in
both space and time and are therefore suitable for high frequency usage.
Mutex locks are strictly bracketing in that it is an error for a thread to
release a lock not held by the thread."

Variants: default (sleep), spin, adaptive (spin while the owner runs on a
CPU — the classic Solaris adaptive mutex), debug (ownership checks), and
process-shared (futex-style protocol over a cell in shared memory).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import Errno, SyncError, SyscallError
from repro.hw.isa import GET_CONTEXT, Syscall, Touch, charge
from repro.sim.clock import usec
from repro.sync import events
from repro.sync.guards import guarded
from repro.sync.variants import (SPIN_POLL_US, SharedCell, SyncVariable,
                                 deadline_after, timed_result,
                                 usync_block_retry)
from repro.threads.scheduler import NO_SLEEP, TIMED_OUT


class Mutex(SyncVariable):
    """A mutual exclusion lock.

    Zero-argument construction gives the default variant, matching "any
    synchronization variable that is statically or dynamically allocated
    as zero may be used immediately".
    """

    KIND = "mutex"

    def __init__(self, vtype: int = 0, cell: Optional[SharedCell] = None,
                 name: str = ""):
        super().__init__(vtype, cell, name)
        # Private-variant state (ignored for shared mutexes, whose state
        # lives in the shared cell).
        self.owner = None            # Thread holding the lock
        self.waiters: list = []      # user-level sleep queue
        # Robust-mutex owner-death protocol (private variant only; a
        # shared mutex's holder is just a bit in the cell, so the crash
        # reclaim walk cannot attribute it).  When the holder's LWP dies
        # the reclaim walk sets ``owner_dead`` and hands the lock off;
        # the next acquirer gets ``Errno.EOWNERDEAD`` and must call
        # :meth:`consistent` before releasing, or the mutex becomes
        # permanently ``unrecoverable`` (every later acquire raises
        # ``SyscallError(ENOTRECOVERABLE)``).
        self.owner_dead = False
        self.unrecoverable = False
        # Contention statistics (read by the ablation benchmarks).
        self.acquisitions = 0
        self.contended = 0
        self.spins = 0

    # ------------------------------------------------------------ enter

    @guarded
    def enter(self):
        """Generator: acquire the lock (mutex_enter).

        Returns None, or ``Errno.EOWNERDEAD`` when the lock came back
        from a crashed holder (see :meth:`consistent`).
        """
        if self.is_shared:
            return self._enter_shared(None)
        return self._enter(None)

    @guarded
    def timedenter(self, timeout_usec: float):
        """Generator: mutex_enter bounded by a timeout.

        Returns True once the lock is acquired (``Errno.EOWNERDEAD`` as
        :meth:`enter` does), False when ``timeout_usec`` of virtual time
        passes first.  The same acquire as :meth:`enter`, plus a
        deadline, so every blocking primitive can be bounded (timed-wait
        parity).
        """
        if self.is_shared:
            return timed_result(self._enter_shared(timeout_usec))
        return timed_result(self._enter(timeout_usec))

    def _enter(self, timeout_usec):
        """Private-variant acquire; None/EOWNERDEAD, or False once the
        deadline (untimed when ``timeout_usec`` is None) has passed."""
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        me = ctx.thread
        t0 = ctx.engine.now_ns
        yield charge(ctx.costs.mutex_fast_path)
        if self.is_debug and self.owner is me:
            raise SyncError(f"{self.name}: recursive mutex_enter")
        deadline = deadline_after(ctx, timeout_usec)
        attempted = False
        while True:
            if self.unrecoverable:
                raise self._not_recoverable("mutex_enter")
            if self.owner is None:
                self.owner = me
                break
            self.contended += 1
            if not attempted:
                # Contended: announce the *attempt* so the lock-order
                # detector sees the edge even when this acquire never
                # completes (the deadlocked run is exactly the one
                # whose cycle must still be reported).
                attempted = True
                events.sync_event(ctx, "acquire-attempt", self,
                                  mode="mutex", cell=self.cell)
            if deadline is not None and ctx.engine.now_ns >= deadline:
                return False
            if self.is_spin or (self.is_adaptive and self._owner_running()):
                self.spins += 1
                yield charge(usec(SPIN_POLL_US))
                continue
            yield charge(ctx.costs.sync_user_op)
            outcome = yield from lib.block_current_on(
                self.waiters, guard=lambda: self.owner is not None,
                deadline_ns=deadline, thread=me)
            if outcome is TIMED_OUT:
                return False
            if outcome is NO_SLEEP or self.unrecoverable:
                continue         # released meanwhile, or bricked: retest
            # Direct handoff: the releaser made us the owner.
            assert self.owner is me
            break
        self.acquisitions += 1
        self._m_acquired(ctx, attempted, t0)
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "acquire", self,
                                         mode="mutex", blocking=True,
                                         cell=self.cell)
        return Errno.EOWNERDEAD if self.owner_dead else None

    def _not_recoverable(self, op: str) -> SyscallError:
        return SyscallError(Errno.ENOTRECOVERABLE, op,
                            f"{self.name}: owner died and the lock was "
                            "released without mutex_consistent")

    def _owner_running(self) -> bool:
        """Adaptive policy: is the holder on a CPU right now?"""
        owner = self.owner
        return (owner is not None and owner.lwp is not None
                and owner.lwp.cpu is not None)

    @guarded
    def tryenter(self):
        """Generator: acquire without blocking; returns True on success.

        "mutex_tryenter() can be used to avoid deadlock in operations that
        would normally violate the lock hierarchy."
        """
        if self.is_shared:
            result = yield from self._tryenter_shared()
            return result
        ctx = yield GET_CONTEXT
        yield charge(ctx.costs.mutex_fast_path)
        if self.unrecoverable:
            raise self._not_recoverable("mutex_tryenter")
        if self.owner is None:
            self.owner = ctx.thread
            self.acquisitions += 1
            self._m_acquired(ctx, False, 0)
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "acquire", self,
                                             mode="mutex", blocking=False,
                                             cell=self.cell)
            # Truthy either way; EOWNERDEAD tells the caller the previous
            # holder died and the protected state needs inspection.
            return Errno.EOWNERDEAD if self.owner_dead else True
        return False

    # ------------------------------------------------------------- exit

    @guarded
    def exit(self):
        """Generator: release the lock (mutex_exit).

        Strictly bracketing: releasing a lock you don't hold raises.
        """
        if self.is_shared:
            yield from self._exit_shared()
            return
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        me = ctx.thread
        yield charge(ctx.costs.mutex_fast_path)
        if self.owner is not me:
            raise SyncError(
                f"{self.name}: mutex_exit by non-owner "
                f"(owner={self.owner!r}, caller={me!r})")
        if self.owner_dead:
            # Released without mutex_consistent(): the protected state is
            # suspect forever (POSIX robust-mutex semantics).  Wake every
            # waiter; each raises ENOTRECOVERABLE when it resumes.
            self.owner_dead = False
            self.unrecoverable = True
            self._m_released(ctx)
            self.owner = None
            if self.waiters:
                yield charge(ctx.costs.sync_user_op)
                yield from lib.wake_from_queue(self.waiters,
                                               n=len(self.waiters))
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "release", self,
                                             mode="mutex", cell=self.cell)
            return
        self._m_released(ctx)
        if self.waiters:
            # Hand off directly to the longest waiter (no barging).
            yield charge(ctx.costs.sync_user_op)
            nxt = self.waiters[0]
            self.owner = nxt
            yield from lib.wake_from_queue(self.waiters, n=1)
        else:
            self.owner = None
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "release", self, mode="mutex",
                                         cell=self.cell)

    @property
    def held(self) -> bool:
        if self.is_shared:
            return self.cell.load() != 0
        return self.owner is not None

    # ------------------------------------------- owner-death reclamation

    def consistent(self, me=None) -> int:
        """Mark the protected state repaired after an EOWNERDEAD acquire.

        Plain call (no yields): guest code runs atomically between
        yields, so no event is needed.  Returns 0 on success and
        ``Errno.EINVAL`` when the mutex is not in the owner-dead state,
        mirroring ``pthread_mutex_consistent``.
        """
        if not self.owner_dead:
            return Errno.EINVAL
        if self.owner is None or (me is not None and self.owner is not me):
            raise SyncError(f"{self.name}: mutex_consistent by non-owner")
        self.owner_dead = False
        return 0

    def reclaim_dead_owner(self, lib):
        """Owner's LWP died: transition to owner-dead and hand off.

        Called by the kernel's crash-reclaim walk (plain kernel-context
        call, never from guest code).  Returns the thread the lock was
        handed to, or None when it was left free for the next acquirer.
        """
        self.owner = None
        self.owner_dead = True
        self._held_since = None      # hold-time metric ends with the owner
        if not self.waiters:
            return None
        nxt = self.owner = self.waiters[0]
        lib.unpark_lwps(lib.dequeue(self.waiters, 1, "owner-dead")[1])
        return nxt

    # ==================================================== shared variant
    #
    # Futex protocol over the shared cell: 0 free, 1 locked, 2 locked with
    # (possible) sleepers.  The kernel re-checks the cell before sleeping,
    # so a wake cannot be lost; and a waiter that has slept re-acquires
    # in state 2 (it cannot know whether other sleepers remain), so a
    # single wake cannot strand a second sleeper.

    def _enter_shared(self, timeout_usec):
        """Shared-variant acquire; None, or False once the deadline
        (untimed when ``timeout_usec`` is None) has passed."""
        ctx = yield GET_CONTEXT
        cell = self.cell
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.mutex_fast_path)
        t0 = ctx.engine.now_ns
        deadline = deadline_after(ctx, timeout_usec)
        attempted = False
        slept = False
        while True:
            state = cell.load()
            if state == 0:
                # A waiter that has slept cannot know whether other
                # sleepers remain on the cell (exit's single wake erased
                # the contended mark), so it must re-acquire in the
                # contended state to force the next exit to wake again.
                # Acquiring with 1 here strands any second sleeper
                # forever.
                cell.store(2 if slept else 1)
                self.acquisitions += 1
                self._m_acquired(ctx, attempted, t0)
                if events.sync_active(ctx):
                    yield from events.sync_point(ctx, "acquire", self,
                                                 mode="mutex", blocking=True,
                                                 cell=cell)
                return None
            self.contended += 1
            if not attempted:
                attempted = True
                events.sync_event(ctx, "acquire-attempt", self,
                                  mode="mutex", cell=cell)
            timeout = None
            if deadline is not None:
                timeout = deadline - ctx.engine.now_ns
                if timeout <= 0:
                    return False
            if self.is_spin:
                self.spins += 1
                yield charge(usec(SPIN_POLL_US))
                continue
            cell.store(2)  # mark contended before sleeping
            if (yield from usync_block_retry(
                    cell, 2, f"mutex:{self.name}", timeout)) == 2:
                return False
            slept = True

    def _tryenter_shared(self):
        ctx = yield GET_CONTEXT
        cell = self.cell
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.mutex_fast_path)
        if cell.load() == 0:
            cell.store(1)
            self.acquisitions += 1
            self._m_acquired(ctx, False, 0)
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "acquire", self,
                                             mode="mutex", blocking=False,
                                             cell=cell)
            return True
        return False

    def _exit_shared(self):
        ctx = yield GET_CONTEXT
        cell = self.cell
        yield Touch(cell.mobj, cell.offset, write=True)
        yield charge(ctx.costs.mutex_fast_path)
        state = cell.load()
        if state == 0:
            raise SyncError(f"{self.name}: mutex_exit of unheld shared "
                            "mutex")
        self._m_released(ctx)
        cell.store(0)
        if state == 2:
            yield Syscall("usync_wake", cell.mobj, cell.offset, 1,
                          label=f"mutex:{self.name}")
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "release", self, mode="mutex",
                                         cell=cell)
