"""Shared test helpers.

Most tests build a small simulated program (a generator function), run it
to completion with :func:`run_program`, and assert on state collected in
closures or on kernel structures afterwards.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Simulator
from repro.sync import guards


def run_program(main, *args, ncpus: int = 1, seed: int = 0, costs=None,
                trace: bool = False, trace_categories=None,
                until_usec=None, check_deadlock: bool = True,
                runtime_factory=None, max_events: int = 2_000_000,
                faults=None):
    """Spawn ``main`` in a fresh Simulator and run to completion.

    Returns ``(sim, process)``.
    """
    sim = Simulator(ncpus=ncpus, seed=seed, costs=costs, trace=trace,
                    trace_categories=trace_categories,
                    threads_runtime_factory=runtime_factory,
                    faults=faults)
    proc = sim.spawn(main, *args)
    sim.run(until_usec=until_usec, check_deadlock=check_deadlock,
            max_events=max_events)
    return sim, proc


@pytest.fixture
def sim():
    """A bare simulator (no process yet), single CPU."""
    return Simulator(ncpus=1)


@pytest.fixture
def sim2():
    """A dual-CPU simulator."""
    return Simulator(ncpus=2)


@pytest.fixture(scope="session", autouse=True)
def sync_guard_check():
    """With ``REPRO_SYNC_GUARD=1``, fail the session if any sync generator
    was built but never driven (a missing ``yield from``)."""
    yield
    if guards.enabled():
        gc.collect()
        guards.check()
