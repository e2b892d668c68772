"""Tests for trace post-processing."""

import pytest

from repro.analysis import tracetools
from repro.api import Simulator
from repro.hw.isa import Charge
from repro.sim.trace import Tracer
from repro import threads
from repro.sim.clock import usec


def traced_run(main, ncpus=1):
    sim = Simulator(ncpus=ncpus, trace=True)
    sim.spawn(main)
    sim.run()
    return sim


class TestIntervals:
    def test_single_process_one_interval_per_dispatch(self):
        def main():
            yield Charge(usec(1_000))

        sim = traced_run(main)
        ivs = tracetools.lwp_intervals(sim.tracer)
        assert ivs
        assert all(iv.cpu == "cpu-0" for iv in ivs)


class TestThreadSwitches:
    def test_switches_recorded(self):
        def main():
            def t(_):
                yield from threads.thread_yield()

            tid = yield from threads.thread_create(
                t, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        sim = traced_run(main)
        switches = tracetools.thread_switches(sim.tracer)
        assert switches
        times = [t for t, *_ in switches]
        assert times == sorted(times)


class TestGantt:
    def test_renders_rows_per_cpu(self):
        def burner():
            yield Charge(usec(3_000))

        sim = Simulator(ncpus=2, trace=True)
        sim.spawn(burner)
        sim.spawn(burner)
        sim.run()
        chart = tracetools.gantt(sim.tracer)
        assert "cpu-0" in chart and "cpu-1" in chart

    def test_empty_trace(self):
        assert "no dispatch" in tracetools.gantt(Tracer(enabled=True))
