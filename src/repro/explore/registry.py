"""Program-factory registry: resolve a name to a factory in any process.

Parallel exploration (``Explorer(jobs=N)`` / ``python -m repro.explore
--jobs N``) ships *references*, not callables, to worker processes: a
corpus factory defined at module level pickles fine, but the CLI's
workload and example factories are closures, and pickling them would tie
the wire format to implementation details.  A reference is a plain
string resolved freshly on the worker — hermetic by construction, since
every resolution returns a factory that builds new program state.

Reference syntax: ``kind:name`` with kind one of ``buggy``, ``clean``,
``workload``, ``overload``, ``chaos``, ``example``; a bare ``name``
searches all kinds in that order.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Callable, Optional

from repro.sim.faults import (AcceptStall, ConnDrop, CrashStorm, FaultPlan,
                              PacketDelay, PeerReset)

#: Seed-workload programs exposed to the explorer.  Values are module
#: paths; each module's ``build()`` returns ``(main, results)``.
WORKLOAD_MODULES = {
    "wl_array_compute": "repro.workloads.array_compute",
    "wl_database": "repro.workloads.database",
    "wl_network_server": "repro.workloads.network_server",
    "wl_window_system": "repro.workloads.window_system",
}


def workload_factory(name: str) -> Optional[Callable]:
    """Factory for a seed workload, or None if ``name`` is not one."""
    modpath = WORKLOAD_MODULES.get(name)
    if modpath is None:
        return None
    mod = importlib.import_module(modpath)
    return lambda: mod.build()[0]


#: The fault-composed gates (``python -m repro.explore --overload`` /
#: ``--chaos``).  Each names its ``scenarios`` (``network_server.build``
#: kwargs) and the ``faults`` plan dict composed with every explored
#: schedule; ``repro.load bakeoff --net-faults`` reuses the overload
#: gate's.
GATES = {
    # The network server pushed far past capacity.  Two workers at 2 ms
    # of compute per request serve ~1000 req/s; twelve clients on a
    # 200 us think time offer several times that, so the admission
    # queue (limit 4) is saturated for the whole run — every schedule
    # exercises the shed path, and the request ledger must still
    # balance.  One scenario per shedding policy plus the
    # thread-per-connection architecture under its handler cap.  The
    # net-fault mix: refused connects, stalled accepts (backlog
    # pressure), congested transfers, and the occasional mid-stream
    # reset.  All probabilities are modest — the point is that *no*
    # combination may lose an admitted request, not that the server
    # survives a massacre.
    "overload": dict(
        scenarios={
            "ov_pool_reject_newest": dict(
                n_clients=12, requests_per_client=8, n_workers=2,
                service_compute_usec=2_000.0, client_think_usec=200.0,
                admission_limit=4, shed="reject-newest"),
            "ov_pool_shed_oldest": dict(
                n_clients=12, requests_per_client=8, n_workers=2,
                service_compute_usec=2_000.0, client_think_usec=200.0,
                admission_limit=4, shed="oldest"),
            "ov_thread_per_conn": dict(
                n_clients=12, requests_per_client=8, n_workers=2,
                service_compute_usec=2_000.0, client_think_usec=200.0,
                admission_limit=4, mode="thread-per-conn"),
        },
        faults=FaultPlan([
            ConnDrop(mode="refuse", probability=0.05),
            AcceptStall(stall_usec=2_000.0, probability=0.1),
            PacketDelay(op="*", max_usec=500.0, probability=0.2),
            PeerReset(op="send", probability=0.02),
        ]).to_dict(),
    ),
    # The *supervised* network server under a crash storm: twenty
    # requests against three supervised workers, and three worker kills
    # across the run (comfortably past the one-crash-per-ten-requests
    # bar), aimed only at pool workers — killing the acceptor or main
    # is process death, a different test.  The restart budget
    # comfortably exceeds the storm, so a give-up (or any lost request,
    # orphaned lock, or restart churn) is a genuine self-healing
    # failure, not a tuning artifact.
    "chaos": dict(
        scenarios={
            "ch_supervised_pool": dict(
                n_clients=4, requests_per_client=5, n_workers=3,
                service_compute_usec=800.0, client_think_usec=300.0,
                admission_limit=8, supervise=True, max_restarts=8),
        },
        faults=FaultPlan([
            CrashStorm(start_usec=2_000.0, interval_usec=2_500.0,
                       count=3, target="worker-*"),
        ]).to_dict(),
    ),
}


def gate_factory(gate: str, name: str) -> Optional[Callable]:
    """Factory for one of ``gate``'s scenarios, or None if ``name`` is
    not one."""
    params = GATES[gate]["scenarios"].get(name)
    if params is None:
        return None
    from repro.workloads import network_server
    return lambda: network_server.build(**params)[0]


def example_factory(name: str) -> Optional[Callable]:
    """Factory for a clean example program (repo ``examples/`` as cwd)."""
    if name != "ex_dining_philosophers" or not os.path.isdir("examples"):
        return None
    if "examples" not in sys.path:
        sys.path.insert(0, "examples")
    try:
        dp = importlib.import_module("dining_philosophers")
    except ImportError:
        return None
    return lambda: dp.build(naive=False)[0]


def resolve(ref: str) -> Callable:
    """Resolve a factory reference; raises KeyError when unknown."""
    from repro.explore import corpus

    kind, sep, name = ref.partition(":")
    if not sep:
        kind, name = "", ref
    if kind in ("", "buggy") and name in corpus.BUGGY:
        return corpus.BUGGY[name][0]
    if kind in ("", "clean") and name in corpus.CLEAN:
        return corpus.CLEAN[name]
    if kind in ("", "workload"):
        factory = workload_factory(name)
        if factory is not None:
            return factory
    for gate in GATES:
        factory = gate_factory(gate, name) if kind in ("", gate) else None
        if factory is not None:
            return factory
    if kind in ("", "example"):
        factory = example_factory(name)
        if factory is not None:
            return factory
    raise KeyError(f"unknown program reference {ref!r}")
