"""Multiple readers, single writer locks.

"Multiple readers, single writer locks allow many threads simultaneous
read-only access to an object ... only one thread to access an object for
writing at any one time ... A good candidate ... is an object that is
searched more frequently than it is changed."

Semantics per the paper:

* ``rw_enter(RW_READER / RW_WRITER)``, ``rw_exit``, ``rw_tryenter``.
* ``rw_downgrade`` atomically converts a writer into a reader; "Any
  waiting writers remain waiting.  If there are no waiting writers it
  wakes up any pending readers."
* ``rw_tryupgrade`` attempts reader -> writer; fails if another upgrade is
  in progress or writers are waiting.

Writer preference: new readers queue behind a waiting writer, preventing
writer starvation (the standard kernel rwlock policy of the era).

The process-shared variant is composed from a shared mutex and two shared
condition variables — a legitimate layering the paper's uniform model
invites.  Both variants keep one contract and run one acquire path each,
driven by a two-row mode table: ``RW_READER`` and ``RW_WRITER`` each name
an event label, a metrics op, and the queue their waiters sleep on (a
threads-library wait list, or a shared condition variable).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import Errno, SyncError, SyscallError
from repro.hw.isa import GET_CONTEXT, charge
from repro.sync import events
from repro.sync.guards import guarded
from repro.sync.condvar import CondVar
from repro.sync.mutex import Mutex
from repro.sync.variants import THREAD_SYNC_SHARED, SyncVariable


class RwType(enum.Enum):
    RW_READER = "reader"
    RW_WRITER = "writer"


RW_READER = RwType.RW_READER
RW_WRITER = RwType.RW_WRITER


class RwLock(SyncVariable):
    """A readers/writer lock."""

    KIND = "rwlock"

    def __init__(self, vtype: int = 0,
                 cells: Optional[tuple] = None, name: str = ""):
        # For the shared variant, ``cells`` provides three shared cells:
        # (mutex cell, readers-cv cell, writers-cv cell).  State words are
        # kept in the mutex-protected Python-side mirror *only* for the
        # private variant; shared state lives in a fourth cell.
        shared = bool(vtype & THREAD_SYNC_SHARED)
        self._shared = shared  # must precede super().__init__ (property)
        super().__init__(vtype & ~THREAD_SYNC_SHARED, None, name)
        self.readers = 0
        self.writer = None
        self.reader_waiters: list = []
        self.writer_waiters: list = []
        # Owner-death protocol (private variant; writer deaths only — a
        # dead reader cannot have been mutating the protected object, so
        # its hold is reclaimed silently).  Mirrors Mutex.owner_dead.
        self.owner_dead = False
        self.unrecoverable = False
        # Threads currently holding the lock as readers (private variant
        # only) — read by the hang diagnostics so writer waits can name
        # the readers blocking them, not just a count.
        self.reader_holders: list = []
        # Statistics.
        self.read_acquires = 0
        self.write_acquires = 0
        self.downgrades = 0
        self.upgrades = 0

        queues = (self.reader_waiters, self.writer_waiters)
        if shared:
            if cells is None or len(cells) != 4:
                raise SyncError(
                    f"{name}: shared rwlock needs 4 shared cells "
                    "(mutex, readers-cv, writers-cv, state)")
            mcell, rcell, wcell, scell = cells
            self._m = Mutex(THREAD_SYNC_SHARED, cell=mcell,
                            name=f"{self.name}.m")
            self._rcv = CondVar(THREAD_SYNC_SHARED, cell=rcell,
                                name=f"{self.name}.rcv")
            self._wcv = CondVar(THREAD_SYNC_SHARED, cell=wcell,
                                name=f"{self.name}.wcv")
            self._state = scell  # dict cell: counts shared across procs
            # Protocol word, like a SyncVariable cell: detectors skip it.
            scell.mobj.sync_offsets.add(scell.offset)
            queues = (self._rcv, self._wcv)
        # The mode table: event label, _m_acquired op, waiter queue.
        self._modes = {RW_READER: ("reader", "read", queues[0]),
                       RW_WRITER: ("writer", "write", queues[1])}

    @property
    def is_shared(self) -> bool:  # override: flag stripped in __init__
        return self._shared

    def _mode(self, rw_type: RwType) -> tuple:
        """``rw_type``'s row of the mode table."""
        row = self._modes.get(rw_type)
        if row is None:
            raise SyncError(f"bad rw_enter type: {rw_type!r}")
        return row

    # =================================================== private variant

    @guarded
    def enter(self, rw_type: RwType):
        """Generator: acquire for reading or writing (rw_enter).

        Returns None, or ``Errno.EOWNERDEAD`` when a writer died holding
        the lock (see :meth:`consistent`).
        """
        label, _, queue = self._mode(rw_type)
        if self._shared:
            yield from self._enter_shared(rw_type, queue)
            return
        ctx = yield GET_CONTEXT
        me = ctx.thread
        t0 = ctx.engine.now_ns
        yield charge(ctx.costs.sync_user_op)
        attempted = False
        while not self._free(rw_type, "rw_enter"):
            if not attempted:
                # Announce the contended attempt so lock-order edges
                # exist even when this acquire deadlocks (see
                # Mutex.enter).
                attempted = True
                events.sync_event(ctx, "acquire-attempt", self, mode=label)
            yield from ctx.process.threadlib.block_current_on(
                queue, guard=lambda: not self._free(rw_type, "rw_enter"))
        result = yield from self._grant(ctx, me, rw_type, True,
                                        attempted, t0)
        return result

    @guarded
    def tryenter(self, rw_type: RwType):
        """Generator: acquire "if doing so would not require blocking".

        Truthy on success (True, or ``Errno.EOWNERDEAD`` as :meth:`enter`
        returns it), False when busy; raises ``ENOTRECOVERABLE`` on a
        bricked lock, as :meth:`Mutex.tryenter` does.
        """
        self._mode(rw_type)              # a bad type raises, as in enter
        if self._shared:
            result = yield from self._tryenter_shared(rw_type)
            return result
        ctx = yield GET_CONTEXT
        yield charge(ctx.costs.sync_user_op)
        if not self._free(rw_type, "rw_tryenter"):
            return False
        result = yield from self._grant(ctx, ctx.thread, rw_type, False)
        return result or True

    def _free(self, rw_type: RwType, op: str) -> bool:
        """Writer preference: may ``rw_type`` be granted now?  Raises
        ENOTRECOVERABLE once the lock is bricked."""
        if self.unrecoverable:
            raise SyscallError(
                Errno.ENOTRECOVERABLE, op,
                f"{self.name}: writer died and the lock was released "
                "without consistent()")
        if self.writer is not None:
            return False
        if rw_type is RW_READER:
            return not self.writer_waiters
        return self.readers == 0

    def _grant(self, ctx, me, rw_type: RwType, blocking: bool,
               contended: bool = False, t0: int = 0):
        """Generator: hand ``me`` the lock in ``rw_type``'s mode;
        EOWNERDEAD when a writer died holding it, else None."""
        label, op, _ = self._modes[rw_type]
        if rw_type is RW_READER:
            self.readers += 1
            self.read_acquires += 1
            if me is not None:
                self.reader_holders.append(me)
        else:
            self.writer = me
            self.write_acquires += 1
        self._m_acquired(ctx, contended, t0, op=op)
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "acquire", self, mode=label,
                                         blocking=blocking)
        return Errno.EOWNERDEAD if self.owner_dead else None

    @guarded
    def exit(self):
        """Generator: release a readers or writer lock (rw_exit)."""
        if self._shared:
            yield from self._exit_shared()
            return
        ctx = yield GET_CONTEXT
        me = ctx.thread
        yield charge(ctx.costs.sync_user_op)
        if self.writer is me:
            label = "writer"
            self.writer = None
            self._m_released(ctx)
        elif self.readers > 0:
            label = "reader"
            self.readers -= 1
            if me in self.reader_holders:
                self.reader_holders.remove(me)
        else:
            raise SyncError(f"{self.name}: rw_exit with lock not held")
        if self.readers == 0:
            lib = ctx.process.threadlib
            if self.owner_dead:
                yield from self._brick(lib)
            else:
                queue, n = self._next_waiters()
                yield from lib.wake_from_queue(queue, n=n)
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "release", self, mode=label)

    def _next_waiters(self) -> tuple:
        """Writer preference: the queue to wake and how many — one
        waiting writer, else every waiting reader."""
        if self.writer_waiters:
            return self.writer_waiters, 1
        return self.reader_waiters, len(self.reader_waiters)

    def _brick(self, lib):
        """Last holder out without consistent(): permanently unrecoverable.

        Every waiter is woken; each raises ENOTRECOVERABLE when its
        acquire loop re-checks.
        """
        self.owner_dead = False
        self.unrecoverable = True
        for queue in (self.writer_waiters, self.reader_waiters):
            yield from lib.wake_from_queue(queue, n=len(queue))

    @guarded
    def downgrade(self):
        """Generator: atomically convert a held writer lock to a reader
        lock (rw_downgrade)."""
        if self._shared:
            yield from self._downgrade_shared()
            return
        ctx = yield GET_CONTEXT
        lib = ctx.process.threadlib
        yield charge(ctx.costs.sync_user_op)
        if self.writer is not ctx.thread:
            raise SyncError(f"{self.name}: rw_downgrade by non-writer")
        self.writer = None
        self.readers = 1
        self.downgrades += 1
        if ctx.thread is not None:
            self.reader_holders.append(ctx.thread)
        events.sync_event(ctx, "release", self, mode="writer")
        # "Any waiting writers remain waiting.  If there are no waiting
        # writers it wakes up any pending readers."
        if not self.writer_waiters and self.reader_waiters:
            yield from lib.wake_from_queue(self.reader_waiters,
                                           n=len(self.reader_waiters))
        if events.sync_active(ctx):
            yield from events.sync_point(ctx, "acquire", self, mode="reader",
                                         blocking=False)

    @guarded
    def tryupgrade(self):
        """Generator: attempt reader -> writer; no blocking.

        Fails (returns False) "if there is another rw_tryupgrade() in
        progress or there are any writers waiting".
        """
        if self._shared:
            result = yield from self._tryupgrade_shared()
            return result
        ctx = yield GET_CONTEXT
        yield charge(ctx.costs.sync_user_op)
        if self.readers <= 0:
            raise SyncError(f"{self.name}: rw_tryupgrade without read lock")
        if self.writer_waiters:
            return False
        if self.readers == 1:
            self.readers = 0
            self.writer = ctx.thread
            self.upgrades += 1
            if ctx.thread in self.reader_holders:
                self.reader_holders.remove(ctx.thread)
            events.sync_event(ctx, "release", self, mode="reader")
            if events.sync_active(ctx):
                yield from events.sync_point(ctx, "acquire", self,
                                             mode="writer", blocking=False)
            return True
        # Other readers present: an upgrade would have to wait; the paper
        # keeps tryupgrade non-blocking, so report failure (and no
        # "upgrade in progress" state is retained).
        return False

    @property
    def state(self) -> str:
        """The lock's state in either variant: "writer", "readers:<n>"
        or "free"."""
        if self._shared:
            st = self._state.load()      # a zero cell is a free lock
            writer, readers = (st["writer"], st["readers"]) if st else (0, 0)
        else:
            writer, readers = self.writer is not None, self.readers
        if writer:
            return "writer"
        if readers:
            return f"readers:{readers}"
        return "free"

    # ------------------------------------------- owner-death reclamation

    def consistent(self, me=None) -> int:
        """Mark the protected state repaired after an EOWNERDEAD acquire.

        Any current holder may repair (readers included — unlike a mutex
        the EOWNERDEAD handoff can go to several readers at once).
        Returns 0, or ``Errno.EINVAL`` when not in the owner-dead state.
        """
        if not self.owner_dead:
            return Errno.EINVAL
        if self.writer is None and self.readers == 0:
            raise SyncError(f"{self.name}: consistent() while not held")
        if (me is not None and self.writer is not me
                and me not in self.reader_holders):
            raise SyncError(f"{self.name}: consistent() by non-holder")
        self.owner_dead = False
        return 0

    def reclaim_dead_owner(self, lib, thread) -> bool:
        """``thread``'s LWP died holding this lock; reclaim its hold.

        Kernel-context plain call (crash-reclaim walk).  A dead writer
        marks the lock owner-dead (its mutation may be half-done); a dead
        reader's hold is dropped silently.  Returns True when the death
        transitioned the lock to owner-dead.
        """
        marked = False
        if self.writer is thread:
            self.writer = None
            self.owner_dead = True
            self._held_since = None
            marked = True
        elif thread in self.reader_holders:
            self.reader_holders.remove(thread)
            self.readers -= 1
        else:
            return False
        if self.writer is None and self.readers == 0:
            queue, n = self._next_waiters()
            lib.unpark_lwps(lib.dequeue(queue, n, "owner-dead")[1])
        return marked

    # ==================================================== shared variant
    #
    # Built from a shared mutex + shared condition variables; the count
    # state lives in a shared cell holding a small dict.

    def _load_state(self) -> dict:
        state = self._state.load()
        if state == 0:
            state = {"readers": 0, "writer": 0, "wwaiting": 0}
            self._state.store(state)
        return state

    @staticmethod
    def _busy_shared(st: dict, rw_type: RwType) -> bool:
        """Writer preference over the state dict: must ``rw_type``
        wait?"""
        if rw_type is RW_READER:
            return bool(st["writer"] or st["wwaiting"])
        return bool(st["writer"] or st["readers"])

    def _take_shared(self, ctx, st: dict, rw_type: RwType, blocking: bool,
                     waited: bool = False, t0: int = 0) -> None:
        """Record ``rw_type``'s hold in the state dict (mutex held)."""
        label, op, _ = self._modes[rw_type]
        if rw_type is RW_READER:
            st["readers"] += 1
            self.read_acquires += 1
        else:
            st["writer"] = 1
            self.write_acquires += 1
        self._m_acquired(ctx, waited, t0, op=op)
        events.sync_event(ctx, "acquire", self, mode=label,
                          blocking=blocking, cell=self._state)

    def _enter_shared(self, rw_type: RwType, cv: CondVar):
        # A writer counts as waiting from its first look, so readers that
        # arrive while it waits queue behind it.
        pending = 1 if rw_type is RW_WRITER else 0
        ctx = yield GET_CONTEXT
        t0 = ctx.engine.now_ns
        waited = False
        yield from self._m.enter()
        st = self._load_state()
        st["wwaiting"] += pending
        while self._busy_shared(st, rw_type):
            waited = True
            yield from cv.wait(self._m)
            st = self._load_state()
        st["wwaiting"] -= pending
        self._take_shared(ctx, st, rw_type, True, waited, t0)
        yield from self._m.exit()

    def _tryenter_shared(self, rw_type: RwType):
        ctx = yield GET_CONTEXT
        yield from self._m.enter()
        st = self._load_state()
        ok = not self._busy_shared(st, rw_type)
        if ok:
            self._take_shared(ctx, st, rw_type, False)
        yield from self._m.exit()
        return ok

    def _exit_shared(self):
        ctx = yield GET_CONTEXT
        yield from self._m.enter()
        st = self._load_state()
        if st["writer"]:
            st["writer"] = 0
            self._m_released(ctx)
            events.sync_event(ctx, "release", self, mode="writer",
                              cell=self._state)
        elif st["readers"] > 0:
            st["readers"] -= 1
            events.sync_event(ctx, "release", self, mode="reader",
                              cell=self._state)
        else:
            yield from self._m.exit()
            raise SyncError(f"{self.name}: rw_exit with lock not held")
        if st["readers"] == 0 and not st["writer"]:
            if st["wwaiting"]:
                yield from self._wcv.signal()
            else:
                yield from self._rcv.broadcast()
        yield from self._m.exit()

    def _downgrade_shared(self):
        ctx = yield GET_CONTEXT
        yield from self._m.enter()
        st = self._load_state()
        if not st["writer"]:
            yield from self._m.exit()
            raise SyncError(f"{self.name}: rw_downgrade by non-writer")
        st["writer"] = 0
        st["readers"] = 1
        self.downgrades += 1
        events.sync_event(ctx, "release", self, mode="writer",
                          cell=self._state)
        events.sync_event(ctx, "acquire", self, mode="reader",
                          blocking=False, cell=self._state)
        if not st["wwaiting"]:
            yield from self._rcv.broadcast()
        yield from self._m.exit()

    def _tryupgrade_shared(self):
        ctx = yield GET_CONTEXT
        yield from self._m.enter()
        st = self._load_state()
        if st["readers"] <= 0:
            yield from self._m.exit()
            raise SyncError(f"{self.name}: rw_tryupgrade without read lock")
        ok = st["readers"] == 1 and not st["wwaiting"]
        if ok:
            st["readers"] = 0
            st["writer"] = 1
            self.upgrades += 1
            events.sync_event(ctx, "release", self, mode="reader",
                              cell=self._state)
            events.sync_event(ctx, "acquire", self, mode="writer",
                              blocking=False, cell=self._state)
        yield from self._m.exit()
        return ok
