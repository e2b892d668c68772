"""Wall-clock perf harness: measure, record, and gate host performance.

Usage::

    # Measure this checkout; print a table and the result JSON.
    python benchmarks/perf/run.py

    # Measure, overwrite the repo's reference numbers (BENCH_PERF.json
    # "current" section) and append the run -- the measured checkout's
    # commit, the date and the results -- to its "history" list.
    python benchmarks/perf/run.py --update

    # CI smoke gate: re-measure and fail if any workload is more than
    # --tolerance x slower than the checked-in reference.  Generous by
    # design: CI machines vary wildly; the gate catches order-of-
    # magnitude regressions (an accidentally quadratic hot path), not
    # percent-level drift.
    python benchmarks/perf/run.py --check --tolerance 3.0

    # Measure an older checkout with the same workload definitions
    # (how the pre-refactor baseline in BENCH_PERF.json was produced).
    python benchmarks/perf/run.py --src /path/to/old/src --out old.json

Each workload runs once to warm caches, then ``--best-of`` timed
repetitions; the fastest is recorded (wall-clock minima are the stable
statistic on a noisy host).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
REFERENCE = os.path.join(REPO, "BENCH_PERF.json")


def measure(best_of: int, only=None) -> dict:
    from workloads import WORKLOADS

    results = {}
    for name, (fn, kind) in WORKLOADS.items():
        if only and name not in only:
            continue
        fn()  # warm-up: imports, bytecode, allocator
        best, units = None, None
        for _ in range(best_of):
            elapsed, units = fn()
            if best is None or elapsed < best:
                best = elapsed
        entry = {"elapsed_s": round(best, 6), "metric": kind}
        if kind == "rate":
            entry["units"] = units
            entry["per_sec"] = round(units / best, 1)
        results[name] = entry
    return results


def commit_of(src: str) -> str:
    """``git describe`` of the checkout holding ``src`` (suffixed
    ``-dirty`` when it has uncommitted changes), or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=src,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def table(results: dict) -> str:
    lines = [f"{'workload':<20} {'elapsed':>10}  {'rate':>14}"]
    for name, r in results.items():
        rate = (f"{r['per_sec']:>11,.0f}/s" if r.get("per_sec")
                else f"{'-':>12}")
        lines.append(f"{name:<20} {r['elapsed_s']:>9.4f}s  {rate}")
    return "\n".join(lines)


def check(fresh: dict, reference_path: str, tolerance: float) -> int:
    with open(reference_path) as fh:
        ref = json.load(fh)["current"]
    failures = 0
    for name, r in fresh.items():
        base = ref.get(name)
        if base is None:
            print(f"  {name}: no reference entry — skipped")
            continue
        ratio = r["elapsed_s"] / base["elapsed_s"]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(f"  {name}: {r['elapsed_s']:.4f}s vs reference "
              f"{base['elapsed_s']:.4f}s ({ratio:.2f}x, limit "
              f"{tolerance:.1f}x) {verdict}")
        if ratio > tolerance:
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/run.py",
        description="wall-clock perf suite (host seconds, not virtual "
                    "time)")
    parser.add_argument("--best-of", type=int, default=3,
                        help="timed repetitions per workload (default 3)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="restrict to these workloads")
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="path to the repro source tree to measure")
    parser.add_argument("--out", default=None,
                        help="write the fresh numbers to this JSON file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the reference file's 'current' "
                             "section with the fresh numbers and append "
                             "them to its 'history' list")
    parser.add_argument("--check", action="store_true",
                        help="compare against the reference and exit "
                             "non-zero on a regression")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="slowdown factor tolerated by --check "
                             "(default 3.0)")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference JSON (default BENCH_PERF.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    sys.path.insert(0, HERE)  # for `from workloads import ...`

    fresh = measure(args.best_of, only=args.only)
    print(table(fresh))

    payload = {
        "results": fresh,
        "meta": {
            "best_of": args.best_of,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")

    if args.update:
        ref = {}
        if os.path.exists(args.reference):
            with open(args.reference) as fh:
                ref = json.load(fh)
        ref["current"] = fresh
        ref.setdefault("meta", {}).update(payload["meta"])
        ref.setdefault("history", []).append({
            "commit": commit_of(args.src),
            "date": datetime.datetime.now(datetime.timezone.utc)
                            .isoformat(timespec="seconds"),
            "results": fresh,
        })
        if "pre_refactor" in ref:
            speedup = {}
            for name, r in fresh.items():
                base = ref["pre_refactor"].get(name)
                if base:
                    speedup[name] = round(
                        base["elapsed_s"] / r["elapsed_s"], 2)
            ref["speedup_vs_pre_refactor"] = speedup
        with open(args.reference, "w") as fh:
            json.dump(ref, fh, indent=2, sort_keys=True)
        print(f"updated {args.reference}")

    if args.check:
        print("\nchecking against reference:")
        failures = check(fresh, args.reference, args.tolerance)
        if failures:
            print(f"{failures} workload(s) regressed beyond "
                  f"{args.tolerance:.1f}x")
            return 1
        print("within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
