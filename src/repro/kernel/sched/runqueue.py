"""Dispatcher run queues.

A classic multilevel queue: one FIFO per effective priority, scanned from
the highest.  Effective priority is ``class base + in-class priority`` (see
:mod:`repro.kernel.lwp`), which makes every real-time LWP outrank every
timeshare LWP, matching the paper's answer to Chorus's real-time critique.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Callable, Optional

from repro.kernel.lwp import Lwp


class RunQueue:
    """Priority-indexed FIFO queues of runnable LWPs.

    Only non-empty levels are kept: a level is added when its first LWP
    arrives and dropped when its last leaves, and ``_prios`` holds their
    priorities in ascending order, so a scan walks it from the end and
    never sorts.
    """

    def __init__(self):
        self._queues: dict[int, deque[Lwp]] = {}
        self._prios: list[int] = []
        self._count = 0

    def insert(self, lwp: Lwp, front: bool = False) -> None:
        prio = lwp.effective_priority
        q = self._queues.get(prio)
        if q is None:
            q = self._queues[prio] = deque()
            insort(self._prios, prio)
        if front:
            q.appendleft(lwp)
        else:
            q.append(lwp)
        self._count += 1

    def _take(self, prio: int, lwp: Lwp) -> bool:
        """Remove ``lwp`` from level ``prio``, dropping the level if it
        empties; False when it is not queued there."""
        q = self._queues.get(prio)
        if q is None:
            return False
        try:
            q.remove(lwp)
        except ValueError:
            return False
        self._count -= 1
        if not q:
            del self._queues[prio]
            self._prios.remove(prio)
        return True

    def remove(self, lwp: Lwp) -> bool:
        """Remove a specific LWP (it was stopped or killed while queued)."""
        prio = lwp.effective_priority
        if self._take(prio, lwp):
            return True
        # Priority may have changed while queued; scan everything.
        for other in self._prios:
            if other != prio and self._take(other, lwp):
                return True
        return False

    def pick(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """Highest-priority LWP satisfying ``eligible`` (e.g. CPU binding).

        FIFO within a priority level.
        """
        queues = self._queues
        for prio in reversed(self._prios):
            for lwp in queues[prio]:
                if eligible(lwp):
                    self._take(prio, lwp)
                    return lwp
        return None

    def peek(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """The LWP :meth:`pick` would return, without removing it."""
        queues = self._queues
        for prio in reversed(self._prios):
            for lwp in queues[prio]:
                if eligible(lwp):
                    return lwp
        return None

    def best_priority(self) -> Optional[int]:
        """Highest priority with a queued LWP, or None when empty."""
        prios = self._prios
        return prios[-1] if prios else None

    def __len__(self) -> int:
        return self._count

    def __contains__(self, lwp: Lwp) -> bool:
        return any(lwp in q for q in self._queues.values())

    def snapshot(self) -> list[Lwp]:
        """All queued LWPs, best priority first (diagnostics)."""
        out: list[Lwp] = []
        for prio in reversed(self._prios):
            out.extend(self._queues[prio])
        return out
