"""Synchronization variable variants.

"The programmer may choose the particular implementation variant of the
synchronization semantic at the time the variable is initialized.  If the
variable is initialized to zero, a default implementation is used. ...
The programmer may bitwise-or THREAD_SYNC_SHARED into the variant type to
specify that the variable is to be shared between processes."

Variants provided (or'able where sensible):

* ``SYNC_DEFAULT`` — sleep on contention (the zero-initialized default).
* ``SYNC_SPIN`` — busy-wait; only sane when the holder runs on another
  CPU.
* ``SYNC_ADAPTIVE`` — the Solaris adaptive mutex: spin while the owner is
  running on a CPU, sleep otherwise.
* ``SYNC_DEBUG`` — extra checking (ownership tracking, double-release and
  recursive-enter detection).
* ``THREAD_SYNC_SHARED`` — the variable lives in shared memory / a mapped
  file and synchronizes threads across processes.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.errors import Errno, SyncError, SyscallError
from repro.hw.isa import Syscall
from repro.sim.clock import usec

SYNC_DEFAULT = 0x0
SYNC_SPIN = 0x1
SYNC_ADAPTIVE = 0x2
SYNC_DEBUG = 0x4
THREAD_SYNC_SHARED = 0x100

#: How long one spin poll costs (roughly an atomic probe + backoff).
SPIN_POLL_US = 2


class SharedCell:
    """Handle on one word in a shared memory object.

    Holds the (object, offset) pair that identifies a process-shared
    synchronization variable.  Distinct handles over the same pair alias
    the same state — that is the whole point.
    """

    __slots__ = ("mobj", "offset")

    def __init__(self, mobj, offset: int):
        self.mobj = mobj
        self.offset = offset

    def load(self):
        return self.mobj.load_cell(self.offset)

    def store(self, value) -> None:
        self.mobj.store_cell(self.offset, value)

    def __repr__(self) -> str:
        return f"<SharedCell {self.mobj.name}+{self.offset}>"


#: Weak registry of every live synchronization variable, for the crash
#: reclaim walk and the hang diagnostics.  A dict keeps insertion order,
#: which is creation order, so a walk never depends on host addresses.
_SYNC_VARIABLES: "weakref.WeakKeyDictionary[SyncVariable, None]" = \
    weakref.WeakKeyDictionary()


def sync_variables() -> list:
    """Snapshot of the live sync variables, in creation order."""
    return list(_SYNC_VARIABLES)


#: Acquire operation -> (uncontended, contended) counter stems.
_ACQUIRE_STEMS = {op: (f"{op}_uncontended", f"{op}_contended")
                  for op in ("acquires", "p", "read", "write")}


class SyncVariable:
    """Common base: variant decoding and shared-cell plumbing."""

    KIND = "sync"

    def __init__(self, vtype: int = SYNC_DEFAULT,
                 cell: Optional[SharedCell] = None, name: str = ""):
        self.vtype = vtype
        self.name = name or f"{self.KIND}@{id(self):x}"
        self.cell = cell
        # Per-variable metric names (see _metric_key) and the start of
        # the current hold, both used only while metrics are attached.
        self._metric_keys: dict[str, str] = {}
        self._held_since: Optional[int] = None
        if cell is not None:
            # Mark the protocol word so dynamic detectors (repro.explore)
            # skip it: futex-style state words are accessed racily by
            # design, unlike the program data the variable protects.
            cell.mobj.sync_offsets.add(cell.offset)
        _SYNC_VARIABLES[self] = None
        # Check the raw flag, not the is_shared property: subclasses that
        # compose shared primitives (RwLock) override the property.
        flag_shared = bool(vtype & THREAD_SYNC_SHARED)
        if flag_shared and cell is None:
            raise SyncError(
                f"{self.KIND} initialized THREAD_SYNC_SHARED needs a cell "
                "in shared memory (mmap a file and place it there)")
        if not flag_shared and cell is not None:
            raise SyncError(
                f"{self.KIND} has a shared-memory cell but was not "
                "initialized with THREAD_SYNC_SHARED")

    @property
    def is_shared(self) -> bool:
        return bool(self.vtype & THREAD_SYNC_SHARED)

    @property
    def metric_label(self) -> str:
        """Stable label for per-object metrics.

        The default name embeds ``id(self)`` — fine for diagnostics,
        fatal for determinism (addresses vary between interpreter runs).
        Unnamed variables therefore all fold into ``<anon>``; name your
        variables to see them individually in the contention report.
        """
        if self.name.startswith(f"{self.KIND}@"):
            return "<anon>"
        return self.name

    # ------------------------------------------------------------ metrics
    #
    # Shared helpers for the concrete primitives' instrumentation sites.
    # All are no-ops unless a MetricsRegistry is attached to the engine;
    # callers pass the ExecContext they already hold, so the cost when
    # disabled is one call + one attribute load + an is-None test.

    def _metric_key(self, stem: str) -> str:
        """``sync.<KIND>.<stem>.<metric_label>``, built once per stem."""
        key = self._metric_keys.get(stem)
        if key is None:
            key = self._metric_keys[stem] = (
                f"sync.{self.KIND}.{stem}.{self.metric_label}")
        return key

    def _m_acquired(self, ctx, contended: bool, t0: int,
                    op: str = "acquires") -> None:
        """Count an acquisition; record wait time when it contended."""
        m = ctx.engine.metrics
        if m is None:
            return
        now = ctx.engine.now_ns
        uncontended, contended_stem = _ACQUIRE_STEMS[op]
        if contended:
            m.count(self._metric_key(contended_stem))
            m.observe(self._metric_key("wait_ns"), now - t0)
        else:
            m.count(self._metric_key(uncontended))
        self._held_since = now

    def _m_released(self, ctx) -> None:
        """Record hold time since the matching :meth:`_m_acquired`."""
        m = ctx.engine.metrics
        if m is None:
            return
        held = self._held_since
        if held is not None:
            m.observe(self._metric_key("hold_ns"), ctx.engine.now_ns - held)
            self._held_since = None

    def _m_count(self, ctx, op: str) -> None:
        """Count a bare operation (v, signal, broadcast, ...)."""
        m = ctx.engine.metrics
        if m is not None:
            m.count(self._metric_key(op))

    @property
    def is_spin(self) -> bool:
        return bool(self.vtype & SYNC_SPIN)

    @property
    def is_adaptive(self) -> bool:
        return bool(self.vtype & SYNC_ADAPTIVE)

    @property
    def is_debug(self) -> bool:
        return bool(self.vtype & SYNC_DEBUG)


def deadline_after(ctx, timeout_usec) -> Optional[int]:
    """Absolute virtual time ``timeout_usec`` from now, or None (no
    deadline) for an untimed call."""
    if timeout_usec is None:
        return None
    return ctx.engine.now_ns + usec(timeout_usec)


def timed_result(body):
    """Generator: drive an acquire/wait body for a timed entry point.

    The bodies return the untimed call's result (None, or
    ``Errno.EOWNERDEAD`` from a robust mutex) or False when their
    deadline passed; a timed call reports a plain success as True.
    """
    result = yield from body
    return True if result is None else result


def usync_block_retry(cell: SharedCell, expected, label: str,
                      timeout_ns: Optional[int] = None):
    """Generator: kernel sleep on a shared cell, retrying on EINTR.

    Signals (notably SIGWAITING, which the kernel sends precisely when
    a process's LWPs are all in indefinite waits like this one) interrupt
    the sleep; after the handler runs, the wait simply resumes — the
    surrounding user-level retry loop re-checks the cell either way.
    Returns 0 if it slept and was woken, 1 if the kernel's expected-value
    check declined the sleep, 2 if ``timeout_ns`` expired first.

    A sleep with a timeout is not indefinite, so it never raises
    SIGWAITING; it is not retried either (the retry would restart the
    timeout): EINTR returns 1 and the caller re-checks the cell against
    its own deadline.
    """
    while True:
        try:
            result = yield Syscall("usync_block", cell.mobj, cell.offset,
                                   expected, label=label,
                                   timeout_ns=timeout_ns)
            return result
        except SyscallError as err:
            if err.errno != Errno.EINTR:
                raise
            if timeout_ns is not None:
                return 1
