#!/usr/bin/env python
"""Observability: CPU timelines from the tracer, totals from the registry.

Runs a small mixed workload with tracing and metrics enabled.  The event
stream becomes a text Gantt chart of CPU occupancy; the metrics registry,
which records them live, gives per-LWP busy time and per-syscall latency
summaries — the kind of view a researcher uses to *see* the two-level
scheduling at work.

Run:  python examples/trace_timeline.py
"""

from repro.analysis import tracetools
from repro.api import Simulator
from repro.runtime import libc, unistd
from repro.sync import Semaphore
from repro import threads


def main_program():
    gate = Semaphore()

    def bursty(_):
        for _ in range(3):
            yield from libc.compute(2_000)
            yield from unistd.sleep_usec(3_000)

    def batch(_):
        yield from libc.compute(12_000)

    def waiter(_):
        yield from gate.p()
        yield from libc.compute(1_000)

    tids = []
    for body, flags in ((bursty, threads.THREAD_BIND_LWP),
                        (batch, threads.THREAD_BIND_LWP),
                        (waiter, 0)):
        tid = yield from threads.thread_create(
            body, None, flags=threads.THREAD_WAIT | flags)
        tids.append(tid)
    yield from unistd.sleep_usec(8_000)
    yield from gate.v()
    for tid in tids:
        yield from threads.thread_wait(tid)


def main():
    sim = Simulator(ncpus=2, trace=True, metrics=True)
    sim.spawn(main_program)
    sim.run()

    print("=== CPU occupancy (text Gantt) ===")
    print(tracetools.gantt(sim.tracer, width=70,
                           until_ns=sim.engine.now_ns))

    print("\n=== busy time per LWP ===")
    busy = "sched.oncpu_ns_by_lwp."
    for name, c in sorted(sim.metrics.counters.items()):
        if name.startswith(busy):
            print(f"  {name[len(busy):]:12s} {c.value / 1000:10,.0f} usec")

    print("\n=== syscall latencies (usec) ===")
    latency = "syscall.latency_ns."
    for name, h in sorted(sim.metrics.histograms.items()):
        if name.startswith(latency):
            print(f"  {name[len(latency):]:14s} n={h.count:3d}"
                  f"  mean={h.mean / 1000:9.1f}  max={h.max / 1000:9.1f}")

    switches = tracetools.thread_switches(sim.tracer)
    print(f"\nuser-level thread switches observed: {len(switches)}")


if __name__ == "__main__":
    main()
