"""The engine's front slot: in-place steps are exactly queued steps.

A CPU parks its next step in the engine's front slot and the engine runs
it in place when it sorts first (see ``repro.sim.engine``).  These tests
pin that this is a pure host-side shortcut:

* generated guest programs give the same trace digest, ``events_fired``
  and final clock as with every step forced through the heap (the
  reference is built here by patching ``CPU._schedule_step`` to unpark
  at once, so every step becomes an ordinary Event with its reserved
  ``(time, seq)``);
* the ``max_events`` and ``until_ns`` guards stop a run of in-place
  steps exactly where they stop queued events.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.errors import SimulationError
from repro.hw.cpu import CPU
from repro.hw.isa import Charge, GetContext
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.schedule import RandomPreempt, SchedulePlan
from repro.sim.trace import DigestSink
from repro.sync import Mutex

SIM_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

OPS = st.one_of(
    st.tuples(st.just("charge"), st.integers(0, 40)),
    st.just(("ctx",)),
    st.just(("getpid",)),
    st.tuples(st.just("sleep"), st.integers(1, 30)),
    st.tuples(st.just("locked"), st.integers(0, 20)),
    st.tuples(st.just("timer"), st.integers(0, 2)),
)

#: One op list for the main thread, then one per created thread.
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4)


def _body(arg):
    ops, mutex = arg
    for op in ops:
        kind = op[0]
        if kind == "charge":
            yield Charge(usec(op[1]))
        elif kind == "ctx":
            yield GetContext()
        elif kind == "getpid":
            yield from unistd.getpid()
        elif kind == "sleep":
            yield from unistd.sleep_usec(op[1])
        elif kind == "timer":
            # Queued events due at (or just after) the next steps, so
            # in-place steps meet heap events, and a cancelled entry
            # ahead of them, at equal times.
            ctx = yield GetContext()
            engine = ctx.engine
            engine.cancel(engine.call_after(usec(op[1]), lambda: None))
            engine.call_after(usec(op[1]), lambda: engine.tracer.emit(
                engine.now_ns, "user", "timer", "guest"))
            yield Charge(0)
        else:
            yield from mutex.enter()
            yield Charge(usec(op[1]))
            yield from mutex.exit()


def _guest(program, bound):
    main_ops, *workers = program

    def main():
        mutex = Mutex()
        flags = threads.THREAD_WAIT
        if bound:
            flags |= threads.THREAD_BIND_LWP
        tids = []
        for ops in workers:
            tid = yield from threads.thread_create(
                _body, (ops, mutex), flags=flags)
            tids.append(tid)
        yield from _body((main_ops, mutex))
        for tid in tids:
            yield from threads.thread_wait(tid)
    return main


def _run(program, ncpus, bound, preempt, seed):
    sink = DigestSink()
    plan = (SchedulePlan([RandomPreempt(probability=0.3)])
            if preempt else None)
    sim = Simulator(ncpus=ncpus, seed=seed, trace=True, trace_sink=sink,
                    trace_store=False, schedule=plan)
    sim.spawn(_guest(program, bound))
    sim.run(max_events=100_000)
    return sink.hexdigest(), sim.engine.events_fired, sim.engine.now_ns


def _queued_only(mp):
    """Force every step through the heap: unpark right after parking."""
    inner = CPU._schedule_step

    def schedule_step(self, delay_ns):
        inner(self, delay_ns)
        if self.engine.parked is self:
            self.unpark()

    mp.setattr(CPU, "_schedule_step", schedule_step)


class TestSameResultWithAndWithoutTheSlot:
    @SIM_SETTINGS
    @given(program=PROGRAMS, ncpus=st.integers(1, 2), bound=st.booleans(),
           preempt=st.booleans(), seed=st.integers(0, 999))
    def test_digest_events_and_clock_match(self, program, ncpus, bound,
                                           preempt, seed):
        got = _run(program, ncpus, bound, preempt, seed)
        with pytest.MonkeyPatch.context() as mp:
            _queued_only(mp)
            want = _run(program, ncpus, bound, preempt, seed)
        assert got == want


def _spin():
    while True:
        yield Charge(usec(1))


def _spin_sim(sink=None):
    sim = Simulator(trace=sink is not None, trace_sink=sink,
                    trace_store=False)
    sim.spawn(_spin)
    return sim


class TestExactGuards:
    """Every event of ``_spin`` but the first few is an in-place step."""

    def test_steps_run_in_place(self, monkeypatch):
        unparks = []
        inner = CPU.unpark

        def unpark(self):
            unparks.append(self.engine.now_ns)
            inner(self)

        monkeypatch.setattr(CPU, "unpark", unpark)
        sim = _spin_sim()
        sim.run(until_usec=1_000)
        # One unpark at spawn (outside run()), one when run() returns.
        assert len(unparks) == 2
        assert sim.engine.events_fired > 900

    def test_max_events_stops_exactly(self):
        sim = _spin_sim()
        with pytest.raises(SimulationError,
                           match=r"max_events=1000 exhausted at "
                                 r"t=1077\.0us"):
            sim.run(max_events=1_000)
        assert sim.engine.events_fired == 1_000
        assert sim.engine.now_ns == usec(1_077)
        # The step that was parked when the guard fired is queued now.
        assert len(sim.engine.queue) == 2

    def test_run_after_max_events_matches_uninterrupted(self):
        whole_sink = DigestSink()
        whole = _spin_sim(whole_sink)
        whole.run(until_usec=3_000)

        sink = DigestSink()
        sim = _spin_sim(sink)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=777)
        sim.run(until_usec=3_000)
        assert sink.hexdigest() == whole_sink.hexdigest()
        assert sim.engine.events_fired == whole.engine.events_fired
        assert sim.engine.now_ns == whole.engine.now_ns

    def test_until_in_chunks_matches_one_run(self):
        whole_sink = DigestSink()
        whole = _spin_sim(whole_sink)
        whole.run(until_usec=2_000)

        sink = DigestSink()
        sim = _spin_sim(sink)
        for until in (0.5, 1, 333.3, 334, 1_000, 1_999.9, 2_000):
            sim.run(until_usec=until)
            assert sim.engine.now_ns == usec(until)
        assert sink.hexdigest() == whole_sink.hexdigest()
        assert sim.engine.events_fired == whole.engine.events_fired


def _park_then_release(queued_only):
    """Park a step and take the LWP off the CPU within one event."""
    sim = _spin_sim()
    cpu = sim.machine.cpus[0]
    parked = []

    def kick():
        cpu._schedule_step(0)
        parked.append(sim.engine.parked is cpu)
        cpu.release()

    sim.engine.call_at(usec(50), kick)
    with pytest.MonkeyPatch.context() as mp:
        if queued_only:
            _queued_only(mp)
        sim.run(until_usec=100, check_deadlock=False)
    return parked, sim.engine.events_fired, len(sim.engine.queue)


def test_release_drops_a_parked_step():
    parked, fired, queued = _park_then_release(queued_only=False)
    assert parked == [True]
    assert (fired, queued) == _park_then_release(queued_only=True)[1:]
