"""Event queue for the discrete-event engine.

A simple binary-heap priority queue of :class:`Event` records.  Events carry
a monotonically increasing sequence number so that events scheduled for the
same instant fire in FIFO order, which keeps the whole simulation
deterministic.

Cancellation is lazy: cancelled events stay in the heap and are skipped when
popped.  This is the standard technique (used by e.g. ``sched`` and most
network simulators) and keeps cancellation O(1).  Nothing is counted at
push, pop or cancel time: ``len()`` counts the live entries when asked,
so it stays exact however an event is cancelled, before or after it
fired.

Host performance: the heap stores ``(time_ns, seq, event)`` tuples rather
than bare events, so every sift comparison ``heapq`` makes is a C-level
tuple comparison instead of a Python ``__lt__`` call.  A CPU step that
sorts first never enters the heap at all (the engine's step slots, see
:mod:`repro.sim.engine`); it only reserves a sequence number here.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class Event:
    """A scheduled callback.

    Attributes:
        time_ns: absolute virtual time at which the event fires.
        seq: tie-breaker preserving scheduling order at equal times.
        fn: zero-argument callable invoked when the event fires.
        cancelled: set by :meth:`cancel`; a cancelled event never fires.
    """

    __slots__ = ("time_ns", "seq", "fn", "cancelled", "tag")

    def __init__(self, time_ns: int, seq: int, fn: Callable[[], None],
                 tag: str = ""):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.tag = tag

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time_ns != other.time_ns:
            return self.time_ns < other.time_ns
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        tag = f" {self.tag}" if self.tag else ""
        return f"<Event t={self.time_ns}ns seq={self.seq}{tag}{state}>"


class EventQueue:
    """Min-heap of ``(time_ns, seq, event)`` entries."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0

    def push(self, time_ns: int, fn: Callable[[], None],
             tag: str = "") -> Event:
        """Schedule ``fn`` at absolute time ``time_ns`` and return the event."""
        seq = self._seq
        ev = Event(time_ns, seq, fn, tag)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ns, seq, ev))
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty.

        Cancelled events are discarded transparently.
        """
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if not ev.cancelled:
                return ev
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the next live event without removing it, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def pop_next(self, until_ns: Optional[int] = None):
        """Fused peek+pop for the engine's hot loop.

        Returns ``(time_ns, event)`` for the next live event, popping it;
        ``(time_ns, None)`` (without popping) when the next live event
        lies beyond ``until_ns``; ``(None, None)`` when the queue is
        empty.  One call replaces a peek_time/pop pair, and cancelled
        entries are skipped once instead of twice.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heapq.heappop(heap)
                continue
            t = entry[0]
            if until_ns is not None and t > until_ns:
                return t, None
            heapq.heappop(heap)
            return t, entry[2]
        return None, None

    def __len__(self) -> int:
        """Number of live (uncancelled) queued events; O(n)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
