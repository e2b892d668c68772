"""Wall-clock (host-time) perf workloads.

These measure the *simulator's* speed — how fast the host executes
simulated work — not the virtual-time results, which are covered by the
figure benchmarks in ``benchmarks/``.  Four workloads bracket the hot
paths of ARCHITECTURE §10:

* ``engine_events``   — raw event-loop throughput (events/sec): a single
  self-rescheduling timer, nothing else.  Exercises EventQueue push/pop
  and the engine run loop, no CPU stepping.
* ``thread_creations`` — unbound thread create/wait cycles per second:
  the paper's Table 4 microbenchmark shape, run for host throughput.
  Exercises the full stack: trampolines, scheduler, syscalls, effects.
* ``window_system``   — the paper's motivating workload end-to-end
  (Figure: one mouse-event pipeline per widget).  Mutex/condvar heavy.
* ``explore_corpus``  — one schedule-exploration sweep (8 plans) of eight
  named seeded-bug and clean corpus entries end-to-end (detectors +
  schedule plans + digests): the CI stress job's inner loop.
* ``sched_classes``   — Figure 5 and the network server rerun under
  every registered scheduling class (the SchedulerChoice axis): the
  pluggable-policy dispatch path end-to-end.
* ``load_bakeoff``    — the three-architecture open-loop bakeoff on a
  small Poisson trace: the kernel-edge synthetic-client driver, the
  select()-based event loop, and the ``repro.load`` summary path —
  the scaling study's inner loop (requests/sec of host time).

Every workload performs a fixed amount of simulated work, so host
seconds are comparable across commits; each returns ``(elapsed_s,
units)`` where ``units`` is the work count for rate metrics.

Imports of ``repro`` happen inside the functions so the harness can
point ``sys.path`` at a different checkout (``run.py --src``) to measure
an older tree with the same workload definitions.
"""

from __future__ import annotations

import time


def engine_events() -> tuple:
    from repro.sim.engine import Engine

    n = 200_000
    eng = Engine()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            eng.call_after(10, tick)

    eng.call_after(0, tick)
    t0 = time.perf_counter()
    eng.run(check_deadlock=False)
    elapsed = time.perf_counter() - t0
    assert count[0] == n
    return elapsed, n


def thread_creations() -> tuple:
    from repro.api import Simulator
    from repro.threads import api

    n = 2_000

    def main():
        for _ in range(n):
            tid = yield from api.thread_create(lambda a: None, None,
                                               flags=api.THREAD_WAIT)
            yield from api.thread_wait(tid)

    sim = Simulator(ncpus=1)
    sim.spawn(main, name="creator")
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, n


def window_system() -> tuple:
    from repro.api import Simulator
    from repro.workloads import window_system as ws

    main, _results = ws.build(n_widgets=200, n_events=2000)
    sim = Simulator(ncpus=2)
    sim.spawn(main, name="winsys")
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, 2000


#: The corpus entries ``explore_corpus`` sweeps: the eight that existed
#: when its BENCH_PERF.json reference was measured.  Named, not "all of
#: BUGGY/CLEAN", so a growing corpus cannot silently change the work.
EXPLORE_CORPUS_PROGRAMS = (
    "racy_counter", "ab_ba_locks", "lost_wakeup", "sema_underflow",
    "exit_holding_lock", "clean_counter", "clean_ordered_locks",
    "clean_queue")


def explore_corpus() -> tuple:
    from repro.explore.corpus import BUGGY, CLEAN
    from repro.explore.explorer import default_plan_dicts, run_one

    plans = default_plan_dicts(8)
    runs = 0
    t0 = time.perf_counter()
    for name in EXPLORE_CORPUS_PROGRAMS:
        factory = BUGGY[name][0] if name in BUGGY else CLEAN[name]
        for k, plan in enumerate(plans):
            run_one(factory, program=name, run_index=k, seed=k,
                    schedule_dict=plan)
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 64
    return elapsed, runs


def sched_classes() -> tuple:
    from repro.analysis.experiments import run_fig5
    from repro.api import Simulator
    from repro.kernel.sched.policy import SchedClassTable
    from repro.sim.schedule import SchedulePlan, SchedulerChoice
    from repro.workloads import network_server

    names = [pol.name for pol in SchedClassTable.default().ordered]
    units = 0
    t0 = time.perf_counter()
    for name in names:
        run_fig5(n=4, sched_class=name)
        main, results = network_server.build(n_clients=3,
                                             requests_per_client=8)
        sim = Simulator(ncpus=2,
                        schedule=SchedulePlan([SchedulerChoice(name)]))
        sim.spawn(main, name="netserver")
        sim.run()
        units += 1
    return time.perf_counter() - t0, units


def load_bakeoff() -> tuple:
    from repro.load import run_bakeoff

    spec = {"kind": "poisson", "params": {"rate_per_sec": 1_000.0},
            "clients": 300, "seed": 0, "start_usec": 1_000.0}
    t0 = time.perf_counter()
    result = run_bakeoff(spec)
    elapsed = time.perf_counter() - t0
    total = sum(sum(r["outcomes"].values())
                for r in result["architectures"].values())
    assert total == 3 * 300
    return elapsed, total


#: name -> (callable, metric kind).  "rate" reports units/elapsed
#: (higher is better); "time" reports elapsed seconds (lower is better).
WORKLOADS = {
    "engine_events": (engine_events, "rate"),
    "thread_creations": (thread_creations, "rate"),
    "window_system": (window_system, "time"),
    "explore_corpus": (explore_corpus, "time"),
    "sched_classes": (sched_classes, "time"),
    "load_bakeoff": (load_bakeoff, "rate"),
}
