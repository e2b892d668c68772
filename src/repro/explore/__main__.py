"""CLI for the schedule-exploration harness (what the CI stress job runs).

Examples::

    # Hunt the seeded-bug corpus: exit 1 unless EVERY bug is found.
    python -m repro.explore --corpus --runs 25 --out bundles/

    # False-positive gate: clean corpus + seed workloads, exit 1 on ANY
    # finding.
    python -m repro.explore --clean --workloads --runs 25

    # Overload gate: network server at several times capacity, under a
    # composed net-fault plan and perturbed schedules; exit 1 if the
    # request ledger ever fails to balance (or anything hangs).
    python -m repro.explore --overload --runs 8 --out bundles/

    # Chaos gate: the supervised network server under a crash storm
    # (better than one crash per ten requests); exit 1 if any seeded
    # schedule ends with a lost request, an orphaned owner-dead lock,
    # restart churn, a hang, or an error.
    python -m repro.explore --chaos --runs 8 --out bundles/

    # Scheduler matrix: one clean corpus entry + Fig 5 under every
    # registered scheduling class; each class must reproduce its own
    # trace digest twice (determinism) and finish clean.
    python -m repro.explore --sched-matrix --matrix-out sched-matrix.json

    # Replay a repro bundle produced by a failing run.
    python -m repro.explore --replay bundles/racy_counter.json
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.explore import corpus, registry
from repro.explore.explorer import Explorer, ReproBundle
from repro.explore.minimize import minimize_schedule


def _example_factories() -> dict:
    """Clean example programs (repo's examples/ dir, when present).

    The tryenter (never hold-and-wait) variant: must stay clean — its
    reverse-order tryenter backs off, which the lock-order detector
    must not count as a cycle edge.
    """
    name = "ex_dining_philosophers"
    factory = registry.example_factory(name)
    if factory is None:
        return {}
    return {name: (factory, f"example:{name}", None)}


def _explore(name: str, factory, args, ref: str = None,
             faults_dict: dict = None) -> "ExploreReport":
    explorer = Explorer(factory, program=name, runs=args.runs,
                        seed=args.seed, ncpus=args.ncpus,
                        max_events=args.max_events,
                        jobs=args.jobs, factory_ref=ref,
                        faults_dict=faults_dict)
    return explorer.explore()


def _dump_bundle(result, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"{result.program}-run{result.run_index}.json")
    result.bundle().dump(path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="schedule-exploration torture harness")
    parser.add_argument("--corpus", action="store_true",
                        help="hunt the seeded-bug corpus (fail unless "
                             "every expected bug is found)")
    parser.add_argument("--clean", action="store_true",
                        help="run the clean corpus (fail on any finding)")
    parser.add_argument("--workloads", action="store_true",
                        help="include the seed workloads in the clean "
                             "gate")
    parser.add_argument("--examples", action="store_true",
                        help="include example programs in the clean gate "
                             "(needs the repo's examples/ dir as cwd)")
    parser.add_argument("--overload", action="store_true",
                        help="overload gate: the network server at "
                             "several times capacity under net faults; "
                             "fail on any lost request, hang, or error")
    parser.add_argument("--chaos", action="store_true",
                        help="chaos gate: the supervised network server "
                             "under a crash storm; fail on any lost "
                             "request, orphaned lock, restart churn, "
                             "hang, or error")
    parser.add_argument("--programs", nargs="*", default=None,
                        help="restrict to these program names")
    parser.add_argument("--runs", "-k", type=int, default=25,
                        help="schedules per program (default 25)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ncpus", type=int, default=2)
    parser.add_argument("--max-events", type=int, default=400_000)
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="fan each program's K runs across N host "
                             "processes; results (output, bundles, "
                             "digests) are identical to a serial run")
    parser.add_argument("--out", default=None,
                        help="directory for failing-run repro bundles")
    parser.add_argument("--minimize", action="store_true",
                        help="delta-debug each first failure to a "
                             "minimal forced schedule")
    parser.add_argument("--replay", metavar="BUNDLE",
                        help="replay a saved repro bundle against its "
                             "corpus program")
    parser.add_argument("--sched-matrix", action="store_true",
                        help="scheduler matrix gate: one clean corpus "
                             "entry + Fig 5 under every registered "
                             "scheduling class; fail on any finding or "
                             "non-reproducible digest")
    parser.add_argument("--matrix-out", default=None,
                        help="write the per-class matrix results "
                             "(digests + metrics) to this JSON file")
    parser.add_argument("--list-sched-classes", action="store_true",
                        help="list the registered scheduling classes "
                             "and exit")
    args = parser.parse_args(argv)

    if args.list_sched_classes:
        from repro.kernel.sched.policy import SchedClassTable
        for pol in SchedClassTable.default().ordered:
            print(f"{pol.name}: {pol.DOC}")
        return 0
    if args.replay:
        return _replay(args)
    if not (args.corpus or args.clean or args.workloads or args.examples
            or args.overload or args.chaos or args.sched_matrix):
        parser.error("pick at least one of --corpus / --clean / "
                     "--workloads / --examples / --overload / --chaos / "
                     "--sched-matrix (or --replay)")

    failures = 0

    if args.sched_matrix:
        failures += _sched_matrix(args)

    if args.corpus:
        for name, (factory, expected) in corpus.BUGGY.items():
            if args.programs and name not in args.programs:
                continue
            report = _explore(name, factory, args, ref=f"buggy:{name}")
            found = report.finding_kinds & expected
            print(report.summary())
            first = report.first_failure()
            if not found:
                failures += 1
                print(f"  MISSED: expected one of {sorted(expected)}, "
                      f"saw {sorted(report.finding_kinds) or 'nothing'}")
            elif first is not None:
                if args.out:
                    path = _dump_bundle(first, args.out)
                    print(f"  bundle: {path}")
                if args.minimize and first.fired:
                    mres = minimize_schedule(
                        factory, first, ncpus=args.ncpus,
                        max_events=args.max_events)
                    print("  " + mres.summary())

    # Every program below must come back finding-free.
    gate = {}   # name -> (factory, registry ref, fault-plan dict)
    if args.clean:
        gate.update({name: (factory, f"clean:{name}", None)
                     for name, factory in corpus.CLEAN.items()})
    if args.workloads:
        gate.update({name: (registry.workload_factory(name),
                            f"workload:{name}", None)
                     for name in registry.WORKLOAD_MODULES})
    if args.examples:
        gate.update(_example_factories())
    for kind, spec in registry.GATES.items():
        if getattr(args, kind):
            gate.update({name: (registry.gate_factory(kind, name),
                                f"{kind}:{name}", spec["faults"])
                         for name in spec["scenarios"]})
    for name, (factory, ref, faults_dict) in gate.items():
        if args.programs and name not in args.programs:
            continue
        report = _explore(name, factory, args, ref=ref,
                          faults_dict=faults_dict)
        print(report.summary())
        if report.failures:
            failures += 1
            if args.out:
                for res in report.failures:
                    print(f"  bundle: {_dump_bundle(res, args.out)}")

    if failures:
        print(f"\n{failures} program(s) FAILED the gate")
        return 1
    print("\nall gates passed")
    return 0


def _sched_matrix(args) -> int:
    """The scheduler-matrix gate: every registered class runs one clean
    corpus entry twice (digests must match run-to-run and the run must
    stay clean) plus a small Fig 5; per-class results optionally land in
    ``--matrix-out`` as JSON."""
    import json

    from repro.analysis.experiments import run_fig5
    from repro.explore.explorer import run_one
    from repro.kernel.sched.policy import SchedClassTable

    program = "clean_queue"
    factory = registry.resolve(f"clean:{program}")
    failures = 0
    matrix = {}
    for pol in SchedClassTable.default().ordered:
        name = pol.name
        plan = {"rules": [{"kind": "scheduler", "sched_class": name}]}
        runs = [run_one(factory, program=program, seed=args.seed,
                        ncpus=args.ncpus, max_events=args.max_events,
                        schedule_dict=plan, with_metrics=True)
                for _ in range(2)]
        fig5 = run_fig5(n=8, sched_class=name)
        bad = []
        if runs[0].digest != runs[1].digest:
            bad.append("digest not reproducible")
        for res in runs:
            if res.failed:
                bad.append(res.summary())
                break
        status = "FAIL: " + "; ".join(bad) if bad else "ok"
        print(f"sched-matrix {name:5s} {program}: {status}  "
              f"fig5 unbound={fig5['unbound_create']:.1f}us")
        if bad:
            failures += 1
        matrix[name] = {
            "digest": runs[0].digest,
            "reproducible": runs[0].digest == runs[1].digest,
            "fig5": fig5,
            "metrics": json.loads(runs[0].metrics_json),
        }
    if args.matrix_out:
        with open(args.matrix_out, "w") as fh:
            json.dump(matrix, fh, indent=2, sort_keys=True)
        print(f"sched-matrix results written to {args.matrix_out}")
    return failures


def _replay(args) -> int:
    bundle = ReproBundle.load(args.replay)
    try:
        factory = registry.resolve(bundle.program)
    except KeyError:
        print(f"unknown program {bundle.program!r}; replay only knows "
              "the built-in corpus, workloads, and overload scenarios",
              file=sys.stderr)
        return 2
    result = bundle.replay(factory, ncpus=args.ncpus,
                           max_events=args.max_events)
    print(result.summary())
    for f in result.findings:
        print(f"  - [{f.kind}] {f.message}")
    if bundle.digest and result.digest != bundle.digest:
        print("trace digest MISMATCH: replay diverged from the "
              "recorded run", file=sys.stderr)
        return 1
    if not result.failed:
        print("replay did not reproduce the failure", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
