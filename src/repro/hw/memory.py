"""Physical memory and shared memory objects.

The simulator does not model memory content at byte granularity for
ordinary program data (Python object references inside a simulated process
stand in for its private memory).  What it *does* model faithfully is the
part the paper depends on: **memory objects that can be mapped by several
address spaces**, so that synchronization variables placed in shared memory
or in files behave per the paper — "synchronization primitives apply to the
shared variable as part of the underlying mapped object ... even though
they are mapped at different virtual addresses."

A :class:`MemoryObject` is a page-granular container.  Each page can hold
byte data and *cells*.  A cell is a word-sized slot identified by its byte
offset within the object; synchronization variables live in cells.  Two
processes that map the same object see the same cells regardless of the
virtual addresses of their mappings.
"""

from __future__ import annotations

from typing import Any

PAGE_SIZE = 4096


def page_of(offset: int) -> int:
    """Page number containing byte ``offset``."""
    return offset // PAGE_SIZE


def page_count(nbytes: int) -> int:
    """Number of pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


class MemoryObject:
    """A mappable memory object: anonymous memory or file backing store.

    Attributes:
        name: diagnostic label ("anon#4", "file:/db/records").
        nbytes: current size.  Files can grow; anonymous objects are fixed.
        cells: shared word cells keyed by byte offset (see module docstring).
        resident: set of page numbers currently "in core".  Touching a
            non-resident page takes a (simulated) page fault.
    """

    def __init__(self, nbytes: int, name: str = "anon",
                 resident: bool = False):
        self.name = name
        self.nbytes = nbytes
        self.cells: dict[int, Any] = {}
        self.data = bytearray(nbytes)
        self.resident: set[int] = (
            set(range(page_count(nbytes))) if resident else set()
        )
        # Offsets holding synchronization-variable state (registered by
        # repro.sync when a primitive is laid over a cell).  Dynamic
        # detectors skip these: sync protocol words are accessed racily
        # by design (futex-style), unlike program data.
        self.sync_offsets: set[int] = set()
        # Owning PhysicalMemory pool, when allocated through one.  The
        # pool may carry an access observer (schedule-exploration
        # instrumentation); hand-built objects have no pool and thus no
        # observation overhead.
        self.pool = None

    # ------------------------------------------------------------- cells

    def load_cell(self, offset: int) -> Any:
        """Read the word cell at ``offset``.  Unwritten cells read as 0.

        Reading zero from an unwritten cell is load-bearing: the paper
        specifies that a synchronization variable statically allocated as
        zero is usable immediately with default semantics.
        """
        self._check(offset)
        pool = self.pool
        if pool is not None and pool.observer is not None:
            pool.observer(self, offset, False)
        return self.cells.get(offset, 0)

    def store_cell(self, offset: int, value: Any) -> None:
        """Write the word cell at ``offset``."""
        self._check(offset)
        pool = self.pool
        if pool is not None and pool.observer is not None:
            pool.observer(self, offset, True)
        self.cells[offset] = value

    # -------------------------------------------------------------- bytes

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read raw bytes (used by the file system for file content)."""
        self._check(offset)
        return bytes(self.data[offset:offset + length])

    def write_bytes(self, offset: int, payload: bytes) -> None:
        """Write raw bytes, growing the object if needed (file semantics)."""
        end = offset + len(payload)
        if end > self.nbytes:
            self.grow(end)
        self.data[offset:end] = payload

    def grow(self, new_nbytes: int) -> None:
        """Extend the object (files grow on write; anon objects via brk)."""
        if new_nbytes <= self.nbytes:
            return
        self.data.extend(b"\x00" * (new_nbytes - len(self.data)))
        self.nbytes = new_nbytes

    # -------------------------------------------------------------- pages

    def is_resident(self, pageno: int) -> bool:
        return pageno in self.resident

    def make_resident(self, pageno: int) -> None:
        self.resident.add(pageno)

    def evict(self, pageno: int) -> None:
        """Simulate the pager stealing a page."""
        self.resident.discard(pageno)

    def _check(self, offset: int) -> None:
        if offset < 0 or offset >= max(self.nbytes, 1):
            raise IndexError(
                f"offset {offset} outside {self.name} (size {self.nbytes})")

    def __repr__(self) -> str:
        return f"<MemoryObject {self.name} {self.nbytes}B>"


class PhysicalMemory:
    """Machine-wide pool of memory objects.

    Tracks total allocation so experiments can report memory footprint —
    the paper's argument for M:N hinges on threads needing no kernel memory.
    """

    def __init__(self, total_bytes: int = 64 * 1024 * 1024):
        self.total_bytes = total_bytes
        self.allocated_bytes = 0
        self.objects: list[MemoryObject] = []
        # Anonymous objects are named per pool, not per Python process,
        # so two simulators built back to back name their objects
        # identically — replay bundles depend on stable names.
        self._anon_counter = 0
        # Cell-access observer: callable (mobj, offset, is_write) or
        # None.  Installed by repro.explore detectors; pure observation.
        self.observer = None

    def allocate(self, nbytes: int, name: str = "",
                 resident: bool = False) -> MemoryObject:
        """Create a new memory object, accounting for its size."""
        if not name:
            self._anon_counter += 1
            name = f"anon#{self._anon_counter}"
        obj = MemoryObject(nbytes, name=name, resident=resident)
        obj.pool = self
        self.allocated_bytes += nbytes
        self.objects.append(obj)
        return obj

    def release(self, obj: MemoryObject) -> None:
        """Return an object's pages to the pool."""
        if obj in self.objects:
            self.objects.remove(obj)
            self.allocated_bytes -= obj.nbytes

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.allocated_bytes
