"""CLI for the open-loop load generator and the architecture bakeoff.

Examples::

    # The headline run: 10^5 clients, Poisson arrivals, all three
    # architectures on one shared trace, deterministic JSON out.
    python -m repro.load bakeoff --clients 100000 --out bakeoff.json

    # Burst arrivals at 3x the service capacity, architectures fanned
    # across host processes (byte-identical to the serial run).
    python -m repro.load bakeoff --clients 20000 --arrival burst \\
        --rate-per-sec 6000 --jobs 3

    # Compose the overload gate's net-fault mix into every run.
    python -m repro.load bakeoff --clients 10000 --net-faults

    # Closed-loop comparison (see docs/SCALING.md for why open loop is
    # the default): 500 clients x 20 requests each.
    python -m repro.load bakeoff --clients 500 --arrival closed \\
        --requests-per-client 20

    # Just write a trace (inspect or diff arrival processes).
    python -m repro.load trace --clients 1000 --arrival burst \\
        --out trace.json

    # The arrival-process catalogue (docs drift check reads this).
    python -m repro.load --list-arrivals
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.load.arrivals import ARRIVALS, ArrivalTrace
from repro.load.bakeoff import (ARCHITECTURES, DEFAULT_MAX_EVENTS,
                                run_bakeoff, to_json)


def _arrival_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clients", type=int, default=10_000,
                   help="client count = requests in the open-loop trace "
                        "(default 10000; the acceptance run uses 10^5, "
                        "the ceiling 10^6)")
    p.add_argument("--arrival", choices=sorted(ARRIVALS),
                   default="poisson",
                   help="arrival process (see --list-arrivals)")
    p.add_argument("--rate-per-sec", type=float, default=1_000.0,
                   help="mean arrival rate, arrivals per virtual "
                        "second (default 1000, just under the "
                        "single-acceptor knee)")
    p.add_argument("--burst-rate-per-sec", type=float, default=None,
                   help="burst-state rate for --arrival burst "
                        "(default 5x --rate-per-sec)")
    p.add_argument("--dwell-usec", type=float, default=20_000.0,
                   help="mean base-state dwell for --arrival burst")
    p.add_argument("--burst-dwell-usec", type=float, default=5_000.0,
                   help="mean burst-state dwell for --arrival burst")
    p.add_argument("--think-usec", type=float, default=1_000.0,
                   help="mean think time (closed loop)")
    p.add_argument("--start-usec", type=float, default=1_000.0,
                   help="offset of the first arrival (server setup "
                        "headroom)")
    p.add_argument("--seed", type=int, default=0)


def _trace_spec(args) -> dict:
    params: dict = {}
    if args.arrival in ("poisson", "burst", "uniform"):
        params["rate_per_sec"] = args.rate_per_sec
    if args.arrival == "burst":
        if args.burst_rate_per_sec is not None:
            params["burst_rate_per_sec"] = args.burst_rate_per_sec
        params["dwell_usec"] = args.dwell_usec
        params["burst_dwell_usec"] = args.burst_dwell_usec
    if args.arrival == "closed":
        params["think_usec"] = args.think_usec
    return {"kind": args.arrival, "params": params,
            "clients": args.clients, "seed": args.seed,
            "start_usec": args.start_usec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="open-loop load generator and server-architecture "
                    "bakeoff (docs/SCALING.md is the guide)")
    parser.add_argument("--list-arrivals", action="store_true",
                        help="list the arrival-process catalogue and "
                             "exit")
    sub = parser.add_subparsers(dest="cmd")

    bake = sub.add_parser(
        "bakeoff",
        help="run every architecture on one shared arrival trace")
    _arrival_args(bake)
    bake.add_argument("--arch", action="append",
                      choices=list(ARCHITECTURES), default=None,
                      help="architecture to run (repeatable; default "
                           "all three)")
    bake.add_argument("--requests-per-client", type=int, default=10,
                      help="closed loop: requests each client issues")
    bake.add_argument("--deadline-usec", type=float, default=50_000.0,
                      help="per-request virtual-time deadline")
    bake.add_argument("--workers", type=int, default=4,
                      help="pool workers / setconcurrency hint")
    bake.add_argument("--backlog", type=int, default=64,
                      help="listen-queue bound")
    bake.add_argument("--admission-limit", type=int, default=64,
                      help="admission-queue / concurrent-handler cap")
    bake.add_argument("--service-usec", type=float, default=200.0,
                      help="per-request compute cost")
    bake.add_argument("--shed", choices=["reject-newest", "oldest"],
                      default="reject-newest")
    bake.add_argument("--windows", type=int, default=10,
                      help="trace windows for the saturation profile")
    bake.add_argument("--ncpus", type=int, default=2)
    bake.add_argument("--jobs", "-j", type=int, default=1,
                      help="fan architectures across N host processes "
                           "(results byte-identical to serial)")
    bake.add_argument("--max-events", type=int,
                      default=DEFAULT_MAX_EVENTS)
    bake.add_argument("--digest", action="store_true",
                      help="also record each run's trace digest "
                           "(slower; the golden tests use this)")
    bake.add_argument("--net-faults", action="store_true",
                      help="compose the overload gate's net-fault mix")
    bake.add_argument("--faults", metavar="FILE",
                      help="compose a FaultPlan dict (JSON file, as "
                           "produced by FaultPlan.to_dict)")
    bake.add_argument("--out", metavar="FILE",
                      help="write the result JSON here (stdout gets "
                           "the readable table either way)")

    tr = sub.add_parser(
        "trace", help="generate and serialize one arrival trace")
    _arrival_args(tr)
    tr.add_argument("--out", metavar="FILE",
                    help="write the canonical trace bytes here")

    args = parser.parse_args(argv)

    if args.list_arrivals:
        for kind in sorted(ARRIVALS):
            print(f"{kind}: {ARRIVALS[kind][1]}")
        return 0
    if args.cmd is None:
        parser.error("pick a subcommand: bakeoff or trace "
                     "(or --list-arrivals)")

    if args.cmd == "trace":
        trace = ArrivalTrace.from_spec(_trace_spec(args))
        blob = trace.to_bytes().decode()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(blob + "\n")
            print(f"{trace.clients} arrivals ({trace.kind}) -> "
                  f"{args.out}  digest {trace.digest()[:16]}")
        else:
            print(blob)
        return 0

    faults = None
    if args.net_faults:
        from repro.explore.registry import GATES
        faults = GATES["overload"]["faults"]
    if args.faults:
        with open(args.faults) as fh:
            faults = json.load(fh)
    closed = None
    if args.arrival == "closed":
        closed = (args.requests_per_client, args.think_usec)
    server = {"n_workers": args.workers, "backlog": args.backlog,
              "admission_limit": args.admission_limit,
              "service_compute_usec": args.service_usec,
              "shed": args.shed}
    archs = tuple(args.arch) if args.arch else ARCHITECTURES
    result = run_bakeoff(_trace_spec(args), archs=archs, server=server,
                         deadline_usec=args.deadline_usec,
                         closed=closed, faults=faults, ncpus=args.ncpus,
                         windows=args.windows, with_digest=args.digest,
                         jobs=args.jobs, max_events=args.max_events)
    blob = to_json(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob)
        print(f"result JSON -> {args.out}")
    _print_table(result)
    return 0


def _print_table(result: dict) -> None:
    print(f"bakeoff: {result['clients']} clients, "
          f"{result['arrival']['kind']} arrivals, seed "
          f"{result['seed']}, trace {result['trace_digest'][:16]}")
    hdr = (f"{'architecture':16s} {'ok':>8s} {'busy':>6s} {'ref':>6s} "
           f"{'tmo':>6s} {'rst':>5s} {'eof':>5s} {'p50us':>8s} "
           f"{'p99us':>8s} {'p999us':>8s} {'req/s':>9s} {'knee':>5s}")
    print(hdr)
    for arch, r in result["architectures"].items():
        o = r["outcomes"]
        lat = r["latency_ns"]
        kn = r["saturation"]["knee_window"]
        print(f"{arch:16s} {o['ok']:8d} {o['busy']:6d} "
              f"{o['refused']:6d} {o['timeout']:6d} {o['reset']:5d} "
              f"{o['eof']:5d} {lat['p50'] / 1000:8.1f} "
              f"{lat['p99'] / 1000:8.1f} {lat['p999'] / 1000:8.1f} "
              f"{r['throughput_per_sec']:9.1f} "
              f"{'-' if kn is None else kn:>5}")


if __name__ == "__main__":
    sys.exit(main())
