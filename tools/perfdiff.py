#!/usr/bin/env python
"""Per-layer host-time diff of two commits on one hostbench workload.

Usage (from the repository root)::

    python tools/perfdiff.py A B --workload eventloop_poisson \\
        [--seed 0] [--pairs 10]

A and B are any git commit-ish.  Each is checked out as a detached git
worktree in a temporary directory, and each tree's own
``hostbench/run.py`` runs there, so each side measures its own code and
its own benchmark definitions, for hostbench's default run length
(``--seconds 30``):

1. ``--trace 1`` once per side.  The two ``sim_fingerprint``s must be
   equal (same virtual-time behaviour), otherwise the tool exits 1.
   It prints each layer's ``calls`` and ``self_us`` per unit of work on
   both sides with the delta, next to the exact counts ``sim.events``,
   ``sim.queue_pushes`` and ``kernel.syscalls.count``.
2. With ``--pairs N``: N interleaved ``--trace 0`` pairs in ABBA order
   (A then B, then B then A, ...), so a slow spell of the host weighs
   on both sides alike.  It prints each run's rate (``req_per_s``, or
   ``runs_per_s`` for a workload whose unit is a run), each side's
   median and quartiles, the ratio of the medians, how many pairs B
   won, and whether the difference of the medians exceeds A's
   interquartile range; then each side's median of every end-to-end
   metric (set-up time, peak memory and the virtual latencies too).

Worktrees go under ``$TMPDIR`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Exact (deterministic) per-unit counts printed under the layer table.
COUNTS = ("sim.events", "sim.queue_pushes", "kernel.syscalls.count")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", REPO, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def hostbench(tree: str, workload: str, seed: int, trace: int) -> tuple:
    """Run ``tree``'s hostbench; ``(sim_fingerprint, metric values)``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfdiff: hostbench failed in {tree} "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    prints = [ln.split()[1] for ln in lines
              if ln.startswith("sim_fingerprint ")]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return prints[0], metrics


def layer_table(a: dict, b: dict) -> str:
    layers = sorted({k.rsplit(".", 1)[0] for k in a
                     if k.endswith(".self_us")},
                    key=lambda layer: -a[layer + ".self_us"])
    rows = [f"{'layer':<16} {'calls A':>9} {'calls B':>9} {'delta':>9}"
            f" {'self_us A':>10} {'self_us B':>10} {'delta':>9}"]
    for layer in layers:
        ca, cb = a[layer + ".calls"], b[layer + ".calls"]
        sa, sb = a[layer + ".self_us"], b[layer + ".self_us"]
        rows.append(f"{layer:<16} {ca:>9.2f} {cb:>9.2f} {cb - ca:>+9.2f}"
                    f" {sa:>10.2f} {sb:>10.2f} {sb - sa:>+9.2f}")
    rows.append(f"{'total':<16} {'':>9} {'':>9} {'':>9} "
                f"{sum(a[x + '.self_us'] for x in layers):>10.2f} "
                f"{sum(b[x + '.self_us'] for x in layers):>10.2f}")
    for name in COUNTS:
        rows.append(f"{name:<24} A {a[name]:.6f}  B {b[name]:.6f}  "
                    f"delta {b[name] - a[name]:+.6f}")
    return "\n".join(rows)


def quartiles(xs: list) -> tuple:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def pairs(trees: dict, args, rate: str) -> int:
    runs = {"A": [], "B": []}
    wins = 0
    for i in range(args.pairs):
        order = "AB" if i % 2 == 0 else "BA"
        got = {}
        for side in order:
            _, got[side] = hostbench(trees[side], args.workload, args.seed,
                                     0)
            runs[side].append(got[side])
        a, b = got["A"][rate], got["B"][rate]
        wins += b > a
        print(f"pair {i + 1:>2} ({order}): A {a:.1f}  B {b:.1f}  "
              f"B/A {b / a:.3f}", flush=True)
    a_q = quartiles([m[rate] for m in runs["A"]])
    b_q = quartiles([m[rate] for m in runs["B"]])
    for side, (q1, med, q3) in (("A", a_q), ("B", b_q)):
        print(f"{side}: {rate} median {med:.1f} "
              f"(quartiles {q1:.1f}-{q3:.1f}, IQR {q3 - q1:.1f})")
    iqr_a = a_q[2] - a_q[0]
    print(f"median ratio B/A {b_q[1] / a_q[1]:.3f}; B won {wins} of "
          f"{args.pairs} pairs; median difference {b_q[1] - a_q[1]:+.1f} "
          f"{'exceeds' if abs(b_q[1] - a_q[1]) > iqr_a else 'within'} "
          f"A's IQR {iqr_a:.1f}")
    print("medians of every end-to-end metric:")
    for name in runs["A"][0]:
        a = statistics.median(m[name] for m in runs["A"])
        b = statistics.median(m[name] for m in runs["B"])
        print(f"  {name:<22} A {a:>12.4f}  B {b:>12.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/perfdiff.py",
        description="per-layer host-time diff of two commits")
    parser.add_argument("a", metavar="A", help="base commit-ish")
    parser.add_argument("b", metavar="B", help="changed commit-ish")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=0,
                        help="ABBA --trace 0 pairs to run: 0 (the "
                             "default) or at least 2, for quartiles")
    args = parser.parse_args(argv)
    if args.pairs == 1 or args.pairs < 0:
        parser.error("--pairs must be 0 or at least 2")

    commits = {"A": git("rev-parse", "--verify", args.a + "^{commit}"),
               "B": git("rev-parse", "--verify", args.b + "^{commit}")}
    with tempfile.TemporaryDirectory(prefix="perfdiff-") as tmp:
        trees = {}
        try:
            for side, commit in commits.items():
                trees[side] = os.path.join(tmp, side)
                git("worktree", "add", "--detach", trees[side], commit)
            traced = {side: hostbench(tree, args.workload, args.seed, 1)
                      for side, tree in trees.items()}
            print(f"{args.workload} seed {args.seed}: A {commits['A'][:12]}"
                  f"  B {commits['B'][:12]}  (per unit of work)")
            (fa, ma), (fb, mb) = traced["A"], traced["B"]
            if fa != fb:
                print(f"perfdiff: sim_fingerprint differs: A {fa} B {fb}",
                      file=sys.stderr)
                return 1
            print(f"sim_fingerprint {fa} (same on both sides)")
            print(layer_table(ma, mb))
            if args.pairs:
                with open(os.path.join(trees["A"], "hostbench",
                                       "workloads.json")) as fh:
                    unit = json.load(fh)["workloads"][args.workload]["unit"]
                rate = "req_per_s" if unit == "request" else "runs_per_s"
                return pairs(trees, args, rate)
            return 0
        finally:
            for tree in trees.values():
                subprocess.run(["git", "-C", REPO, "worktree", "remove",
                                "--force", tree], capture_output=True)
            git("worktree", "prune")


if __name__ == "__main__":
    sys.exit(main())
