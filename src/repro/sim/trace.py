"""Structured tracing for the simulator: records, sinks, and gates.

Every interesting transition (dispatch, block, wakeup, syscall, signal,
thread switch) can be recorded as a :class:`TraceRecord`.  Tests use traces
to assert *how* something happened (e.g. "no kernel entry occurred during
unbound synchronization" — the paper's central claim), not just the end
state.

Hot-path contract
-----------------

Tracing must be priced for the simulator's innermost loop:

* **Disabled tracer:** one attribute check.  Emit sites test the tracer's
  per-category gate flag (``tracer.want_sched`` and friends) *before*
  building any arguments, so a disabled category costs neither an f-string
  nor a kwargs dict::

      if tracer.want_sched:
          tracer.emit(now, "sched", "dispatch", lwp.name, cpu=self.name)

* **Enabled tracer:** one ``TraceRecord`` (``__slots__``, no dataclass
  machinery) plus one call per attached sink.

Sinks
-----

Where records go is a pluggable *sink* — any object with an
``on_record(rec)`` method (a bare callable is adapted).  Provided sinks:

* :class:`ListSink` — append to a list (the default; backs
  ``tracer.records`` so existing tests and analysis tooling keep working).
* :class:`JsonlSink` — stream records to a file as JSON lines.
* :class:`DigestSink` — fold records into a SHA-256 *without storing
  them*; bit-for-bit compatible with :func:`trace_digest` over a record
  list, so :mod:`repro.explore` replays verify against digests computed
  either way.

Category gates: ``Tracer(categories=[...])`` precomputes one boolean per
known category (``want_<cat>``); arbitrary categories still work through
:meth:`Tracer.wants`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Iterator, Optional

#: Categories with a precomputed ``want_<category>`` gate attribute on
#: Tracer.  Hot emit sites may only use the flag form for these.
KNOWN_CATEGORIES = ("sched", "syscall", "thread", "signal", "vm", "lwp",
                    "proc", "fault", "sync")


class TraceRecord:
    """One traced transition.

    Attributes:
        time_ns: virtual time of the transition.
        category: coarse grouping, e.g. ``"sched"``, ``"syscall"``,
            ``"thread"``, ``"signal"``, ``"vm"``, ``"sync"``.
        event: the specific transition, e.g. ``"dispatch"``.
        subject: the acting entity's name ("lwp-3", "thread-12", "cpu-0").
        detail: free-form extra fields.
    """

    __slots__ = ("time_ns", "category", "event", "subject", "detail")

    def __init__(self, time_ns: int, category: str, event: str,
                 subject: str, detail: Optional[dict] = None):
        self.time_ns = time_ns
        self.category = category
        self.event = event
        self.subject = subject
        self.detail = detail if detail is not None else {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, TraceRecord)
                and self.time_ns == other.time_ns
                and self.category == other.category
                and self.event == other.event
                and self.subject == other.subject
                and self.detail == other.detail)

    def __hash__(self) -> int:
        return hash((self.time_ns, self.category, self.event, self.subject))

    def to_dict(self) -> dict:
        return {"time_ns": self.time_ns, "category": self.category,
                "event": self.event, "subject": self.subject,
                "detail": {k: str(v) for k, v in self.detail.items()}}

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return (f"[{self.time_ns / 1000:12.3f}us] "
                f"{self.category}/{self.event} {self.subject} {extras}")

    def __repr__(self) -> str:
        return (f"TraceRecord({self.time_ns}, {self.category!r}, "
                f"{self.event!r}, {self.subject!r}, {self.detail!r})")


# ===================================================================== sinks

class ListSink:
    """Store every record in a list (the classic in-memory trace)."""

    __slots__ = ("records",)

    def __init__(self, records: Optional[list] = None):
        self.records: list[TraceRecord] = records if records is not None \
            else []

    def on_record(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def clear(self) -> None:
        self.records.clear()


class JsonlSink:
    """Stream records to a file object as JSON lines."""

    __slots__ = ("fh", "count", "_owns")

    def __init__(self, target):
        """``target`` is an open file object or a path string."""
        if hasattr(target, "write"):
            self.fh = target
            self._owns = False
        else:
            self.fh = open(target, "w")
            self._owns = True
        self.count = 0

    def on_record(self, rec: TraceRecord) -> None:
        self.fh.write(json.dumps(rec.to_dict(), sort_keys=True))
        self.fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._owns:
            self.fh.close()


class DigestSink:
    """Fold records into a SHA-256 without storing them.

    The update per record is ``f"{time_ns}|{category}|{event}|{subject}\\n"``
    — byte-for-byte what :func:`trace_digest` hashes over a stored record
    list, so a digest computed on the fly (no memory growth, no record
    retention) equals one computed after the fact.  ``detail`` is excluded
    because it may hold object reprs whose addresses vary between
    interpreter runs.
    """

    __slots__ = ("_hash", "count")

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def on_record(self, rec: TraceRecord) -> None:
        self._hash.update(
            f"{rec.time_ns}|{rec.category}|{rec.event}|"
            f"{rec.subject}\n".encode())
        self.count += 1

    def update_fields(self, time_ns: int, category: str, event: str,
                      subject: str) -> None:
        """Fold the digest-relevant fields directly (record-free emit)."""
        self._hash.update(
            f"{time_ns}|{category}|{event}|{subject}\n".encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class _CallableSink:
    """Adapter: wrap a bare ``record -> None`` callable as a sink."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[TraceRecord], None]):
        self.fn = fn

    def on_record(self, rec: TraceRecord) -> None:
        self.fn(rec)


# ==================================================================== tracer

class Tracer:
    """Routes trace records to sinks, gated per category.

    By default an enabled tracer stores records in ``self.records`` (a
    :class:`ListSink`); additional sinks attach with :meth:`add_sink`.
    Pass ``store=False`` to skip in-memory retention entirely (e.g. a
    digest-only exploration run).

    Emit sites check the per-category gate flag first — ``want_sched``,
    ``want_syscall``, ``want_thread``, ``want_signal``, ``want_vm``,
    ``want_lwp``, ``want_proc``, ``want_fault``, ``want_sync`` — so a
    disabled tracer (or a filtered-out category) costs one attribute
    check and no argument construction.
    """

    def __init__(self, enabled: bool = False,
                 categories: Optional[Iterable[str]] = None,
                 sink: Optional[Callable[[TraceRecord], None]] = None,
                 store: bool = True):
        self._enabled = enabled
        self._categories = set(categories) if categories else None
        self._sinks: list = []
        self._list_sink: Optional[ListSink] = None
        if store:
            self._list_sink = ListSink()
            self._sinks.append(self._list_sink)
        if sink is not None:
            self._sinks.append(sink if hasattr(sink, "on_record")
                               else _CallableSink(sink))
        self._recompute_sinks()
        self._recompute_gates()

    # ------------------------------------------------------------- gating

    def _recompute_gates(self) -> None:
        for cat in KNOWN_CATEGORIES:
            setattr(self, f"want_{cat}", self.wants(cat))

    def wants(self, category: str) -> bool:
        """Would a record in ``category`` be kept right now?"""
        if not self._enabled:
            return False
        return self._categories is None or category in self._categories

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._recompute_gates()

    @property
    def categories(self) -> Optional[set]:
        return self._categories

    @categories.setter
    def categories(self, value: Optional[Iterable[str]]) -> None:
        self._categories = set(value) if value else None
        self._recompute_gates()

    # -------------------------------------------------------------- sinks

    def _recompute_sinks(self) -> None:
        """Refresh the digest-only fast path (see :meth:`emit`)."""
        if (len(self._sinks) == 1
                and isinstance(self._sinks[0], DigestSink)):
            self._digest_only = self._sinks[0]
        else:
            self._digest_only = None

    def add_sink(self, sink) -> None:
        """Attach a sink (an ``on_record`` object or a bare callable)."""
        self._sinks.append(sink if hasattr(sink, "on_record")
                           else _CallableSink(sink))
        self._recompute_sinks()

    def remove_sink(self, sink) -> None:
        self._sinks = [s for s in self._sinks
                       if s is not sink and getattr(s, "fn", None)
                       is not sink]
        self._recompute_sinks()

    @property
    def records(self) -> list[TraceRecord]:
        """The stored records (empty when constructed with store=False)."""
        if self._list_sink is None:
            return []
        return self._list_sink.records

    # --------------------------------------------------------------- emit

    def emit(self, time_ns: int, category: str, event: str, subject: str,
             **detail) -> None:
        """Record one transition if tracing is enabled for its category.

        Hot paths should guard with the ``want_<category>`` flag before
        calling; emit re-checks for correctness of unguarded call sites.
        """
        if not self._enabled:
            return
        if self._categories is not None \
                and category not in self._categories:
            return
        if self._digest_only is not None:
            # Sole sink is a DigestSink and the digest ignores detail:
            # fold the fields straight into the hash, no record object.
            self._digest_only.update_fields(time_ns, category, event,
                                            subject)
            return
        rec = TraceRecord(time_ns, category, event, subject, detail)
        for sink in self._sinks:
            sink.on_record(rec)

    # ------------------------------------------------------------ queries

    def clear(self) -> None:
        """Drop all stored records."""
        if self._list_sink is not None:
            self._list_sink.clear()

    def find(self, category: Optional[str] = None,
             event: Optional[str] = None,
             subject: Optional[str] = None) -> list[TraceRecord]:
        """Return stored records matching all the given criteria."""
        return [r for r in self.records
                if (category is None or r.category == category)
                and (event is None or r.event == event)
                and (subject is None or r.subject == subject)]

    def count(self, category: Optional[str] = None,
              event: Optional[str] = None,
              subject: Optional[str] = None) -> int:
        """Number of stored records matching the criteria."""
        return len(self.find(category, event, subject))

    def between(self, start_ns: int, end_ns: int) -> Iterator[TraceRecord]:
        """Iterate stored records with ``start_ns <= time < end_ns``."""
        return (r for r in self.records if start_ns <= r.time_ns < end_ns)

    def __len__(self) -> int:
        return len(self.records)


def trace_digest(source) -> str:
    """Stable digest of a trace: (time, category, event, subject) per
    record.  ``source`` is a Tracer, a record list, or a
    :class:`DigestSink` (whose incremental hash is returned directly).
    """
    if isinstance(source, DigestSink):
        return source.hexdigest()
    records = source.records if hasattr(source, "records") else source
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.time_ns}|{rec.category}|{rec.event}|"
                 f"{rec.subject}\n".encode())
    return h.hexdigest()
