"""Trace post-processing: timelines and schedules from trace records.

Turn a :class:`~repro.sim.trace.Tracer`'s records into per-LWP execution
intervals, per-thread switch histories, and a text Gantt chart — the
views that need the ordered event stream.  Totals the simulator already
keeps live (per-LWP on-CPU time, per-syscall latency) come from the
metrics registry instead: ``Simulator(metrics=True)`` and its
``sched.oncpu_ns_by_lwp.*`` counters and ``syscall.latency_ns.*``
histograms (:mod:`repro.obs`).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Optional

from repro.sim.trace import Tracer

#: Categories this module consumes; pass to ``Tracer(categories=...)`` (or
#: trace everything).
CATEGORIES = ("sched", "thread")


@dataclasses.dataclass(frozen=True)
class Interval:
    """A half-open [start, end) occupancy of a CPU by an LWP."""

    subject: str
    cpu: str
    start_ns: int
    end_ns: Optional[int]  # None: still running at trace end

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns


def lwp_intervals(tracer: Tracer) -> list[Interval]:
    """Reconstruct CPU occupancy intervals from dispatch/block traces.

    An interval opens at ``sched/dispatch`` and closes at the subject's
    next ``sched/block``, the next dispatch of *another* LWP onto the same
    CPU (preemption), or trace end.
    """
    open_by_cpu: dict[str, tuple[str, int]] = {}
    intervals: list[Interval] = []

    def close(cpu: str, end_ns: int) -> None:
        started = open_by_cpu.pop(cpu, None)
        if started is not None:
            subject, start = started
            intervals.append(Interval(subject, cpu, start, end_ns))

    lwp_cpu: dict[str, str] = {}
    for rec in tracer.records:
        if rec.category != "sched":
            continue
        if rec.event == "dispatch":
            cpu = rec.detail.get("cpu", "cpu-?")
            close(cpu, rec.time_ns)
            open_by_cpu[cpu] = (rec.subject, rec.time_ns)
            lwp_cpu[rec.subject] = cpu
        elif rec.event == "block":
            cpu = lwp_cpu.get(rec.subject)
            if cpu is not None and open_by_cpu.get(cpu, ("",))[0] == \
                    rec.subject:
                close(cpu, rec.time_ns)
    for cpu, (subject, start) in list(open_by_cpu.items()):
        intervals.append(Interval(subject, cpu, start, None))
    return intervals


def thread_switches(tracer: Tracer) -> list[tuple[int, str, str, str]]:
    """User-level context switches: (time, lwp, from, to)."""
    return [(r.time_ns, r.subject, r.detail.get("frm", "?"),
             r.detail.get("to", "?"))
            for r in tracer.records
            if r.category == "thread" and r.event == "switch"]


def gantt(tracer: Tracer, width: int = 72,
          until_ns: Optional[int] = None) -> str:
    """Render per-CPU occupancy as a text Gantt chart."""
    intervals = lwp_intervals(tracer)
    if not intervals:
        return "(no dispatch records)"
    t0 = min(iv.start_ns for iv in intervals)
    t1 = until_ns if until_ns is not None else max(
        (iv.end_ns or iv.start_ns) for iv in intervals)
    span = max(t1 - t0, 1)
    by_cpu: dict[str, list[Interval]] = defaultdict(list)
    for iv in intervals:
        by_cpu[iv.cpu].append(iv)

    # Stable one-letter codes per LWP.
    subjects = sorted({iv.subject for iv in intervals})
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    code = {s: letters[i % len(letters)] for i, s in enumerate(subjects)}

    lines = [f"t0={t0 / 1000:.0f}us  span={span / 1000:.0f}us   "
             + "  ".join(f"{code[s]}={s}" for s in subjects)]
    for cpu in sorted(by_cpu):
        row = ["."] * width
        for iv in by_cpu[cpu]:
            start = int((iv.start_ns - t0) / span * width)
            end_ns = iv.end_ns if iv.end_ns is not None else t1
            end = max(start + 1, int((end_ns - t0) / span * width))
            for x in range(start, min(end, width)):
                row[x] = code[iv.subject]
        lines.append(f"{cpu:8s} {''.join(row)}")
    return "\n".join(lines)
