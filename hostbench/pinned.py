"""The pinned workloads, the counter wrapper and the simulation fingerprint.

Every input lives in ``workloads.json`` next to this file, written out in
full and versioned; nothing is inherited from library defaults or from
whatever the explore corpus holds today.  The benchmark reaches the
program only through public entry points:

* ``repro.load.bakeoff.run_arch`` for the bakeoff workloads;
* ``repro.explore.explorer.run_one`` (with the corpus factories looked
  up by name) for the exploration sweep;
* :class:`Counters`, a wrapper around ``Simulator.run`` that reads the
  simulator's public counters after each simulation.

A *pass* is the whole pinned input once: every sub-trace of a bakeoff
workload, or every program under every plan.  Each pass yields a
:class:`PassResult`; the SHA-256 of its deterministic (virtual-time)
outputs is the ``sim_fingerprint``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "workloads.json")

#: Outcomes that count as a miss (``busy`` is an answer, as in SCALING.md).
MISSED = ("refused", "timeout", "reset", "eof")


class BenchError(Exception):
    """A broken invariant: the benchmark exits non-zero."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


class Counters:
    """Wraps ``Simulator.run`` to read public counters after each run."""

    def __init__(self):
        self.runs: list[dict] = []

    def install(self) -> None:
        from repro.api import Simulator

        inner = Simulator.run
        runs = self.runs

        def run(sim, *args, **kwargs):
            try:
                return inner(sim, *args, **kwargs)
            finally:
                runs.append(_read_counters(sim))

        Simulator.run = run


def _read_counters(sim) -> dict:
    util = sim.utilization()
    return {
        "events": sim.engine.events_fired,
        "syscalls": sim.syscall_counts(),
        "busy_ns": util["busy_ns"],
        "capacity_ns": sim.engine.now_ns * len(sim.machine.cpus),
        "dispatches": util["dispatches"],
        "threads_created": sum(p.threadlib.threads_created
                               for p in sim.kernel.processes.values()
                               if p.threadlib is not None),
        "end_ns": sim.engine.now_ns,
        "registry": sim.metrics,
    }


class PassResult:
    """One pass: its timing samples plus its deterministic outputs.

    ``samples`` holds one ``(host seconds, units, simulations)`` triple
    per timed call: per ``run_arch`` call, or per whole sweep.
    """

    def __init__(self, samples: list, attempted: int,
                 failed: int, det: dict, layer: dict, latency_us: dict,
                 latency_samples: int):
        self.samples = samples
        self.elapsed_s = sum(s[0] for s in samples)
        self.units = sum(s[1] for s in samples)  # requests or runs
        self.attempted = attempted        # requests or verdicts
        self.failed = failed              # missed requests, wrong verdicts
        self.fingerprint = digest(det)    # det itself is not kept
        self.layer = layer                # per-unit counter metrics
        self.latency_us = latency_us      # p50 / p99 / mean, virtual
        self.latency_samples = latency_samples


def _per_unit(runs: list, units: int) -> dict:
    """Counter-based per-layer metrics, each per unit of work."""
    events = sum(r["events"] for r in runs)
    busy = sum(r["busy_ns"] for r in runs)
    capacity = sum(r["capacity_ns"] for r in runs)
    out = {
        "sim.events": events / units,
        "hw.util": busy / capacity if capacity else 0.0,
        "kernel.syscalls.count":
            sum(sum(r["syscalls"].values()) for r in runs) / units,
        "kernel.sched.dispatches":
            sum(r["dispatches"] for r in runs) / units,
        "threads.created": sum(r["threads_created"] for r in runs) / units,
        "explore.points": 0.0,
        "explore.preemptions": 0.0,
        "explore.findings": 0.0,
    }
    # Registry-backed metrics exist only where metrics are on.
    acquires = contended = errors = 0
    wait_ns = {"sched": 0, "threads": 0, "sync": 0}
    for reg in (r["registry"] for r in runs if r["registry"] is not None):
        for name, c in reg.counters.items():
            parts = name.split(".")
            if name.startswith("syscall.errno."):
                errors += c.value
            elif parts[0] == "sync" and parts[2].endswith("contended"):
                acquires += c.value       # {op}_{contended,uncontended}
                contended += c.value if parts[2].endswith("_contended") \
                    else 0
        for name, h in reg.histograms.items():
            parts = name.split(".")
            if name == "sched.dispatch_latency_ns":
                wait_ns["sched"] += h.total
            elif name == "threads.ready_wait_ns":
                wait_ns["threads"] += h.total
            elif parts[0] == "sync" and parts[1] != "cv" \
                    and parts[2] == "wait_ns":
                wait_ns["sync"] += h.total
    out.update({
        "kernel.syscalls.errors": errors / units,
        "kernel.sched.wait_us": wait_ns["sched"] / 1000.0 / units,
        "threads.ready_wait_us": wait_ns["threads"] / 1000.0 / units,
        "sync.acquires": acquires / units,
        "sync.contended_ratio": contended / acquires if acquires else 0.0,
        "sync.wait_us": wait_ns["sync"] / 1000.0 / units,
    })
    return out


def _counts_det(runs: list) -> list:
    """The counters that enter the fingerprint (registry as a hash)."""
    return [{k: (digest(v.snapshot()) if k == "registry" and v is not None
                 else v) for k, v in r.items()} for r in runs]


def timed(fn, profiler=None):
    """``(host seconds, fn())``, profiled when a profiler is given."""
    if profiler is not None:
        profiler.enable()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    if profiler is not None:
        profiler.disable()
    return elapsed, out


def merge_histograms(hists):
    """Sum ``repro.obs`` log2-bucket histograms into a new one."""
    from repro.obs.registry import Histogram

    out = Histogram()
    for h in hists:
        if h is None or not h.count:
            continue
        out.count += h.count
        out.total += h.total
        out.min = h.min if out.min is None else min(out.min, h.min)
        out.max = max(out.max, h.max)
        for b, c in h.buckets.items():
            out.buckets[b] = out.buckets.get(b, 0) + c
    return out


def log2_percentile(hist, p: float) -> float:
    """Percentile of a log2-bucket histogram, interpolated linearly
    inside its bucket and clamped to the exact [min, max].

    ``Histogram.percentile`` reports a bucket's upper bound, and the 2x
    bucket steps are too coarse to compare runs within a 25% bound."""
    rank = p / 100.0 * hist.count
    seen = 0
    for b in sorted(hist.buckets):
        c = hist.buckets[b]
        if seen + c >= rank:
            lo = max(hist.min, (1 << (b - 1)) if b else 0)
            hi = min(hist.max, (1 << b) if b else 0)
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return float(hist.max)


class Bakeoff:
    """One architecture serving open-loop arrival traces.

    A pass is ``traces`` separate ``run_arch`` calls, one per sub-trace;
    sub-trace j of workload seed s uses arrival seed ``s * 1000 + j``.
    Each call is one timing sample, so a run holds dozens of samples and
    a burst of host noise moves the median little.  The virtual-time
    latency metrics merge all sub-traces' histograms.
    """

    def __init__(self, name: str, spec: dict, seed: int,
                 counters: Counters):
        self.name = name
        self.version = spec["version"]
        self.unit = spec["unit"]
        self.input = spec["input"]
        self.arrivals = [dict(self.input["arrival"], seed=seed * 1000 + j)
                         for j in range(self.input["traces"])]
        self.counters = counters

    def setup(self) -> None:
        """Imports, trace generation, and an untimed warm-up run."""
        from repro.load.arrivals import ArrivalTrace
        from repro.load.bakeoff import run_arch

        self._run_arch = run_arch
        self.trace_digests = [ArrivalTrace.from_spec(a).digest()
                              for a in self.arrivals]
        self._call(dict(self.arrivals[0],
                        clients=self.input["warmup_clients"]))

    def _call(self, arrival: dict) -> dict:
        i = self.input
        return self._run_arch(
            i["arch"], arrival, server=i["server"],
            deadline_usec=i["deadline_usec"], closed=i["closed"],
            faults=i["faults"], ncpus=i["ncpus"], windows=i["windows"],
            with_digest=i["with_digest"], max_events=i["max_events"])

    def run_pass(self, profiler=None) -> PassResult:
        arch = self.input["arch"]
        samples, results, runs = [], [], []
        for arrival in self.arrivals:
            self.counters.runs.clear()
            elapsed, out = timed(lambda: self._call(arrival), profiler)
            clients = arrival["clients"]
            if len(self.counters.runs) != 1:
                raise BenchError(f"{self.name}: {len(self.counters.runs)} "
                                 f"simulations in one run_arch call")
            if out["offered"] != clients:
                raise BenchError(f"{self.name}: offered {out['offered']} "
                                 f"!= clients {clients}")
            if sum(out["outcomes"].values()) != out["offered"]:
                raise BenchError(f"{self.name}: outcomes {out['outcomes']} "
                                 f"do not add up to offered "
                                 f"{out['offered']}")
            samples.append((elapsed, clients, 1))
            results.append(out)
            runs.extend(self.counters.runs)
        hist = merge_histograms(r["registry"].histograms.get(
            f"load.latency_ns.{arch}") for r in runs)
        ok = sum(out["outcomes"]["ok"] for out in results)
        if hist.count != ok or ok == 0:
            raise BenchError(f"{self.name}: {hist.count} latency "
                             f"samples for {ok} ok replies")
        missed = sum(out["outcomes"][o] for out in results for o in MISSED)
        det = {"workload": self.name, "version": self.version,
               "trace_digests": self.trace_digests, "results": results,
               "latency_hist": hist.snapshot(), "counts": _counts_det(runs)}
        latency_us = {"p50": log2_percentile(hist, 50) / 1000.0,
                      "p99": log2_percentile(hist, 99) / 1000.0,
                      "mean": hist.mean / 1000.0}
        units = sum(s[1] for s in samples)
        return PassResult(samples, units, missed, det,
                          _per_unit(runs, units), latency_us, ok)


class ExploreSweep:
    """Every pinned corpus program under every pinned schedule plan."""

    def __init__(self, name: str, spec: dict, seed: int,
                 counters: Counters):
        self.name = name
        self.version = spec["version"]
        self.unit = spec["unit"]
        self.input = spec["input"]
        self.seed = seed
        self.programs = self.input["programs"]
        self.plans = self.input["plans"]
        self.units = len(self.programs) * len(self.plans)
        self.counters = counters

    def setup(self) -> None:
        """Imports, factory lookup, and an untimed warm-up: every
        program once under the first ``warmup_plans`` plans."""
        from repro.explore import corpus
        from repro.explore.explorer import run_one

        self._run_one = run_one
        self.factories = {}
        for name in self.programs:
            factory = getattr(corpus, name, None)
            if not callable(factory):
                raise BenchError(f"corpus has no program {name!r}")
            self.factories[name] = factory
        self._sweep(self.plans[:self.input["warmup_plans"]])

    def _sweep(self, plans: list) -> list:
        i = self.input
        results = []
        for name, factory in self.factories.items():
            for k, plan in enumerate(plans):
                results.append(self._run_one(
                    factory, program=name, run_index=k, seed=self.seed + k,
                    ncpus=i["ncpus"], schedule_dict=plan,
                    faults_dict=i["faults"], max_events=i["max_events"],
                    with_digest=i["with_digest"],
                    with_metrics=i["with_metrics"]))
        return results

    def run_pass(self, profiler=None) -> PassResult:
        runs = self.counters.runs
        runs.clear()
        elapsed, results = timed(lambda: self._sweep(self.plans), profiler)
        if len(results) != self.units or len(runs) != self.units:
            raise BenchError(f"{self.name}: {len(results)} runs and "
                             f"{len(runs)} simulations, expected "
                             f"programs x plans = {self.units}")
        wrong = []
        per_run = []
        plans = len(self.plans)
        for p, name in enumerate(self.programs):
            kinds = set()
            for r in results[p * plans:(p + 1) * plans]:
                kinds |= {f.kind for f in r.findings}
                if r.hang is not None:
                    kinds.add("hang")
                if r.error is not None:
                    kinds.add("error")
                per_run.append({
                    "program": r.program, "run": r.run_index,
                    "seed": r.seed, "digest": r.digest,
                    "findings": [f.to_dict() for f in r.findings],
                    "hang": r.hang, "error": r.error, "events": r.events,
                    "points": r.points_seen,
                    "preemptions": r.preemptions, "fired": r.fired})
            expected = set(self.programs[name])
            right = (bool(kinds & expected) if expected else not kinds)
            if not right:
                wrong.append(name)
        makespans_us = [r["end_ns"] / 1000.0 for r in runs]
        layer = _per_unit(runs, self.units)
        layer.update({
            "explore.points": sum(r.points_seen for r in results)
            / self.units,
            "explore.preemptions": sum(r.preemptions for r in results)
            / self.units,
            "explore.findings": sum(len(r.findings) for r in results)
            / self.units,
        })
        det = {"workload": self.name, "version": self.version,
               "seed": self.seed, "runs": per_run, "wrong": wrong,
               "counts": _counts_det(runs)}
        cuts = statistics.quantiles(makespans_us, n=100, method="inclusive")
        latency_us = {"p50": cuts[49], "p99": cuts[98],
                      "mean": statistics.fmean(makespans_us)}
        return PassResult([(elapsed, self.units, len(runs))],
                          len(self.programs), len(wrong), det, layer,
                          latency_us, len(makespans_us))


KINDS = {"bakeoff": Bakeoff, "explore": ExploreSweep}


def make(name: str, seed: int, counters: Counters):
    spec = load_spec()["workloads"].get(name)
    if spec is None:
        raise BenchError(f"unknown workload {name!r}")
    return KINDS[spec["kind"]](name, spec, seed, counters)
