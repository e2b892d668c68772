#!/usr/bin/env python
"""Print the hostbench ``sim_fingerprint`` of every workload at the
default and the held-out seed, as JSON.

One pass of each workload in ``hostbench/workloads.json`` (after its
untimed set-up), built by ``hostbench/pinned.py``'s ``make()`` exactly as
``hostbench/run.py`` builds it, at seeds 0 and 1991.  The fingerprint
hashes a pass's virtual-time outputs, so it pins "same behaviour" on the
benchmark: a host-speed change must leave all six unchanged.

Run:  python tools/hostbench_fingerprints.py > hostbench-fingerprints.json
      cmp hostbench-fingerprints.json tests/hostbench_fingerprints.json
The CI ``golden-digests`` job runs this comparison (about 15 s).
"""

from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprints() -> dict:
    """``{workload: {seed: sim_fingerprint}}`` for every pinned workload
    at the spec's default and held-out seeds."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "hostbench")]
    from pinned import Counters, load_spec, make

    spec = load_spec()
    seeds = (spec["default_seed"], spec["held_out_seed"])
    counters = Counters()
    counters.install()
    out = {}
    for name in sorted(spec["workloads"]):
        out[name] = {}
        for seed in seeds:
            wl = make(name, seed, counters)
            wl.setup()
            out[name][str(seed)] = wl.run_pass().fingerprint
    return out


def main() -> int:
    print(json.dumps(fingerprints(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
