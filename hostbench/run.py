"""Host-speed benchmark of the simulator: end to end, then layer by layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload pool_poisson --seed 0 \\
        --seconds 30 --trace 0

Workloads and every input they use are pinned in ``workloads.json``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: the fastest of seven to eleven fresh processes, launched
  between the timed passes, of the time from process start until the
  first timed unit could begin (imports, arrival-trace generation, the
  untimed warm-up);
* ``req_per_s`` / ``runs_per_s``: the rate of the fastest timing sample
  (one per ``run_arch`` call, one per sweep) taken over ``--seconds``
  of whole passes (at least three).  A request is one simulated client
  request; on ``explore_sweep`` the request is the exploration run
  itself.  A run is one hermetic simulation: one ``run_arch`` or
  ``run_one`` call.

  Both take the fast end because the host's speed, not the work, is
  what varies between samples.  On a shared 2-vCPU Xeon VM, whose speed
  dropped by up to 1.6x for spells of tens of seconds, ten runs of
  ``eventloop_poisson`` spread (IQR / median) by 22% on the median
  sample, 10% on the 90th percentile and 6% on the fastest sample; the
  median of six set-up probes moved by 36% between two sets of ten
  runs, the fastest by 9%;
* ``peak_rss_mb``: peak resident memory of this process;
* ``sim_latency_*``: virtual time.  Bakeoff: client request latency from
  the ``load.latency_ns.<arch>`` log2 histogram (percentiles interpolated
  inside their bucket, exact mean).  Explore: each run's virtual
  makespan.

``--trace 1`` runs the same timed passes untraced, then one more pass
under ``cProfile``, and prints the per-layer metrics (see ``layers.py``),
the caller-layer -> callee-layer edge table and the tracing overhead.
``<layer>.self_us`` is the layer's traced share of host time times the
untraced host us per unit (``1e6 / req_per_s``), so the layers add up
to the headline; ``<layer>.calls`` and the counter metrics are per unit.

Every pass must produce the same ``sim_fingerprint`` -- across passes,
and between traced and untraced passes -- and the unit counts and the
outcome ledger must add up; otherwise the benchmark exits 1.  Modelled
failures (missed requests, wrong corpus verdicts) are not errors: they
are the ``failed`` count of the result line, and ``fail_ratio`` is
``failed / attempted``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import subprocess
import sys
import time

from layers import LAYERS, LayerFold, LayerMapError
from pinned import BenchError, Counters, load_spec, make

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_PROBES = 10
MIN_PASSES = 3


#: Units of the counter-based per-layer metrics (all per unit of work).
LAYER_UNITS = {
    "sim.events": "count", "sim.queue_pushes": "count",
    "sim.fired_per_push": "ratio", "hw.util": "fraction",
    "kernel.syscalls.count": "count", "kernel.syscalls.errors": "count",
    "kernel.sched.dispatches": "count", "kernel.sched.wait_us": "us",
    "threads.created": "count", "threads.ready_wait_us": "us",
    "sync.acquires": "count", "sync.contended_ratio": "fraction",
    "sync.wait_us": "us", "explore.points": "count",
    "explore.preemptions": "count", "explore.findings": "count",
}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process until it is set up."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


def timed_passes(wl, seconds: float, probe=None) -> tuple:
    """Repeat whole passes for ``seconds`` (at least ``MIN_PASSES``).

    With ``probe``, about ``SETUP_PROBES`` set-up probes run between
    passes, spread over the window like the passes themselves, so a slow
    spell of the host weighs on both alike."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            return passes, setups
        if probe is not None and \
                len(setups) < 1 + SETUP_PROBES * elapsed / seconds:
            setups.append(probe())
        passes.append(wl.run_pass())


def check_same(passes: list, what: str) -> None:
    prints = {p.fingerprint for p in passes}
    if len(prints) != 1:
        raise BenchError(f"{what}: deterministic outputs differ between "
                         f"passes: {sorted(prints)}")


def rate(samples: list, field: int) -> float:
    """Reported rate of ``(seconds, units, simulations)`` timing samples:
    the fastest sample's ``sample[field] / seconds``."""
    return max(s[field] / s[0] for s in samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, args) -> tuple:
    wl.setup()
    passes, setups = timed_passes(
        wl, args.seconds, lambda: probe_setup(args.workload, args.seed))
    check_same(passes, wl.name)
    first = passes[0]
    samples = [s for p in passes for s in p.samples]
    metrics = {
        "req_per_s": metric(rate(samples, 1), "1/s"),
        "runs_per_s": metric(rate(samples, 2), "1/s"),
        "setup_s": metric(min(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "sim_latency_p50_us": metric(first.latency_us["p50"], "us"),
        "sim_latency_p99_us": metric(first.latency_us["p99"], "us"),
        "sim_latency_mean_us": metric(first.latency_us["mean"], "us"),
    }
    print(f"{len(passes)} timed passes of {first.units} {wl.unit}s in "
          f"{len(samples)} samples; host us per {wl.unit} by pass: "
          + " ".join(f"{p.elapsed_s / p.units * 1e6:.1f}" for p in passes))
    print(f"set-up probes (s): " + " ".join(f"{s:.3f}" for s in setups))
    print(f"sim_latency samples: {first.latency_samples}")
    return passes, metrics


def layer_by_layer(wl, args) -> tuple:
    from repro.sim.events import Event

    wl.setup()
    passes, _ = timed_passes(wl, args.seconds)
    profiler = cProfile.Profile()
    traced = wl.run_pass(profiler=profiler)
    check_same(passes + [traced], f"{wl.name} traced vs untraced")
    stats = pstats.Stats(profiler).stats
    fold = LayerFold(stats, SRC)
    profiled_s = sum(entry[2] for entry in stats.values())
    if abs(fold.total_s - profiled_s) > 1e-9 * profiled_s:
        raise BenchError(f"the layers hold {fold.total_s} s of the "
                         f"{profiled_s} s of profiled self time")
    shares = fold.shares()
    us_per_unit = 1e6 / rate([s for p in passes for s in p.samples], 1)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us"] = metric(shares[layer] * us_per_unit,
                                             "us")
        metrics[f"{layer}.calls"] = metric(
            fold.calls[layer] / traced.units, "count")
    pushes = fold.calls_of(Event.__init__)
    events = traced.layer["sim.events"] * traced.units
    extra = dict(traced.layer)
    extra["sim.queue_pushes"] = pushes / traced.units
    extra["sim.fired_per_push"] = events / pushes if pushes else 0.0
    for name, value in extra.items():
        metrics[name] = metric(value, LAYER_UNITS[name])
    print(f"untraced host us per {wl.unit}: {us_per_unit:.1f} "
          f"(as req_per_s, over {len(passes)} passes)")
    print(f"tracing overhead: traced / untraced wall = "
          f"{traced.elapsed_s / traced.units * 1e6 / us_per_unit:.2f}x")
    print(f"{'layer':<16} {'share':>7} {'self_us':>10} {'calls':>10}")
    for layer in sorted(LAYERS, key=lambda k: -shares[k]):
        print(f"{layer:<16} {shares[layer]:>7.2%} "
              f"{metrics[layer + '.self_us']['value']:>10.2f} "
              f"{metrics[layer + '.calls']['value']:>10.2f}")
    print("caller-layer -> callee-layer edges (traced pass):")
    print(fold.edge_table())
    return passes + [traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 hostbench/run.py",
        description="host-speed benchmark of the simulator")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.json "
                             "default_seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a profiled pass")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seed is None:
        args.seed = load_spec()["default_seed"]
    counters = Counters()
    counters.install()
    try:
        wl = make(args.workload, args.seed, counters)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        print(f"workload {wl.name} v{wl.version} seed {args.seed}")
        run = layer_by_layer if args.trace else end_to_end
        passes, metrics = run(wl, args)
        correct = True
    except (BenchError, LayerMapError) as err:
        print(f"hostbench: {err}", file=sys.stderr)
        passes, metrics, correct = [], {}, False
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if passes:
        what = ("requests missed" if wl.unit == "request"
                else "corpus verdicts wrong")
        print(f"sim_fingerprint {passes[0].fingerprint}")
        print(f"fail_ratio {failed / attempted} "
              f"({failed} of {attempted} {what})")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
