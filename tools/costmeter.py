#!/usr/bin/env python
"""Exact host cost of one unit of simulated work, in all and per layer.

Usage (from the repository root; Python 3.12 or later)::

    python tools/costmeter.py --workload pool_poisson [--seed 0]

It builds a hostbench workload through ``hostbench/pinned.py``'s
``make()``, as ``tools/hostbench_fingerprints.py`` does, runs its untimed
set-up, collects garbage, and meters one call with the cyclic GC off:

* a bakeoff workload (``pool_poisson``, ``eventloop_poisson``): the
  seed's first sub-trace, cut to ``CLIENTS`` (300) clients; the unit
  is a request;
* ``explore_sweep``: one whole sweep; the unit is a run.

With the GC off, no collection's finalizers (which resume the suspended
generators of dead threads) land inside the metered call.

The cost is the bytecodes executed plus 45 x the Python frame entries,
generator resumes included, counted with ``sys.monitoring``
(``INSTRUCTION``, ``PY_START``, ``PY_RESUME``).  It differs between
Python minor versions, so compare costs from one interpreter version
only.  It repeats exactly from run to run and under any
``PYTHONHASHSEED`` (CI's ``perf-smoke`` job checks this on
``explore_sweep``).  Each code object's cost goes to the layer of its
module in hostbench's ``MODULE_LAYER``; code outside ``src/repro``
counts as ``other``.

It prints the cost per unit in all and per layer, then one JSON object
on the last line.  On Python older than 3.12 it exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: Bytecodes one Python frame entry is worth.
FRAME_WEIGHT = 45

#: Clients of the metered bakeoff sub-trace.  A request's cost depends
#: on the slice's size, so every published number uses this one.
CLIENTS = 300


def meter(fn) -> dict:
    """Run ``fn()`` under ``sys.monitoring``; returns ``{code object:
    [bytecodes, frame entries]}``.

    Counts are keyed by ``id(code)``, which is far cheaper per event than
    a code object's own hash.  Every code object entered is kept until
    the end, so no id is reused; the only code that runs without an
    entry is this function's own, which then counts for nothing."""
    mon = sys.monitoring
    events = mon.events
    tool = mon.PROFILER_ID
    ops: dict = defaultdict(int)
    frames: dict = defaultdict(int)
    codes: dict = {}

    def on_instruction(code, offset, _id=id):
        ops[_id(code)] += 1

    def on_frame(code, offset, _id=id):
        key = _id(code)
        frames[key] += 1
        codes[key] = code

    mon.use_tool_id(tool, "costmeter")
    try:
        mon.register_callback(tool, events.INSTRUCTION, on_instruction)
        mon.register_callback(tool, events.PY_START, on_frame)
        mon.register_callback(tool, events.PY_RESUME, on_frame)
        mon.set_events(tool, events.INSTRUCTION | events.PY_START
                       | events.PY_RESUME)
        fn()
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return {code: [ops.get(key, 0), frames[key]]
            for key, code in codes.items()}


def fold(counts: dict) -> dict:
    """``{layer: [bytecodes, frame entries]}`` over every layer."""
    from layers import LAYERS, MODULE_LAYER, module_of

    out = {layer: [0, 0] for layer in (*LAYERS, "other")}
    for code, (ops, frames) in counts.items():
        module = module_of(code.co_filename, SRC)
        layer = "other" if module is None else MODULE_LAYER.get(module)
        if layer is None:
            raise SystemExit(f"costmeter: module {module} is not in "
                             f"hostbench's layer map")
        out[layer][0] += ops
        out[layer][1] += frames
    return out


def measure(workload: str, seed: int, clients: int = CLIENTS) -> dict:
    """Meter one call of ``workload`` (a bakeoff's sub-trace cut to
    ``clients``); needs ``src`` and ``hostbench`` on ``sys.path``."""
    from pinned import Counters, make

    wl = make(workload, seed, Counters())
    wl.setup()
    if wl.unit == "request":
        def call():
            wl._call(dict(wl.arrivals[0], clients=clients))
        units = clients
    else:
        def call():
            wl._sweep(wl.plans)
        units = wl.units
    gc.collect()
    gc.disable()
    try:
        counts = meter(call)
    finally:
        gc.enable()
    layers = fold(counts)
    total_ops = sum(n for n, _ in layers.values())
    total_frames = sum(f for _, f in layers.values())
    return {
        "workload": workload, "seed": seed, "unit": wl.unit,
        "units": units,
        "python": ".".join(map(str, sys.version_info[:3])),
        "frame_weight": FRAME_WEIGHT,
        "bytecodes": total_ops, "frames": total_frames,
        "cost_per_unit": (total_ops + FRAME_WEIGHT * total_frames) / units,
        "layers": {layer: (n + FRAME_WEIGHT * f) / units
                   for layer, (n, f) in layers.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/costmeter.py",
        description="exact host cost per unit of a hostbench workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if sys.version_info < (3, 12):
        print("costmeter: needs Python 3.12 or later (sys.monitoring)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, os.path.join(REPO, "hostbench")]
    from pinned import BenchError
    try:
        result = measure(args.workload, args.seed)
    except BenchError as err:
        print(f"costmeter: {err}", file=sys.stderr)
        return 1
    unit = result["unit"]
    print(f"{result['workload']} seed {result['seed']}: "
          f"{result['units']} {unit}s, Python {result['python']}")
    print(f"cost per {unit}: {result['cost_per_unit']:.1f} "
          f"(bytecodes {result['bytecodes'] / result['units']:.1f} + "
          f"{FRAME_WEIGHT} x frames "
          f"{result['frames'] / result['units']:.2f})")
    print(f"{'layer':<16} {'cost':>12} {'share':>7}")
    for layer, cost in sorted(result["layers"].items(),
                              key=lambda kv: (-kv[1], kv[0])):
        if cost:
            print(f"{layer:<16} {cost:>12.1f} "
                  f"{cost / result['cost_per_unit']:>7.2%}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
