"""Tests for the discrete-event engine."""

import pytest

from repro.api import Simulator
from repro.errors import DeadlockError, SimulationError
from repro.hw.isa import Charge
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.engine import Engine


class TestScheduling:
    def test_call_after_advances_clock(self):
        eng = Engine()
        seen = []
        eng.call_after(1_000, lambda: seen.append(eng.now_ns))
        eng.run()
        assert seen == [1_000]

    def test_call_at_absolute(self):
        eng = Engine()
        seen = []
        eng.call_at(500, lambda: seen.append(True))
        eng.run()
        assert seen and eng.now_ns == 500

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.call_after(100, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_after(-1, lambda: None)

    def test_events_fired_counter(self):
        eng = Engine()
        for i in range(5):
            eng.call_after(i, lambda: None)
        assert eng.run() == 5
        assert eng.events_fired == 5

    def test_cascading_events(self):
        eng = Engine()
        seen = []

        def first():
            seen.append("first")
            eng.call_after(10, lambda: seen.append("second"))

        eng.call_after(5, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.now_ns == 15


class TestClock:
    """The engine's clock: ``now_ns`` starts at zero, the run loop
    advances it, and it never goes backward."""

    def test_starts_at_zero(self):
        eng = Engine()
        assert eng.now_ns == 0
        assert eng.now_usec == 0.0

    def test_advance(self):
        eng = Engine()
        eng.call_at(5_000, lambda: None)
        eng.run()
        assert eng.now_ns == 5_000
        assert eng.now_usec == 5.0

    def test_advance_to_same_time_allowed(self):
        eng = Engine()
        seen = []
        for _ in range(2):
            eng.call_at(100, lambda: seen.append(eng.now_ns))
        eng.run()
        assert seen == [100, 100]
        assert eng.now_ns == 100

    def test_time_never_goes_backward(self):
        eng = Engine()
        eng.call_at(10, lambda: None)
        eng.run()
        # Bypass call_at's guard: the run loop keeps its own check.
        eng.queue.push(9, lambda: None)
        with pytest.raises(ValueError, match="clock would go backward"):
            eng.run()
        assert eng.now_ns == 10


class TestRunLimits:
    def test_until_stops_before_later_events(self):
        eng = Engine()
        seen = []
        eng.call_after(10, lambda: seen.append("early"))
        eng.call_after(1_000, lambda: seen.append("late"))
        eng.run(until_ns=100)
        assert seen == ["early"]
        assert eng.now_ns == 100
        eng.run()
        assert seen == ["early", "late"]

    def test_run_for_relative_window(self):
        eng = Engine()
        seen = []
        eng.call_after(50, lambda: seen.append(1))
        eng.run_for(60)
        assert seen == [1]

    def test_max_events_guard(self):
        eng = Engine()

        def rearm():
            eng.call_after(1, rearm)

        eng.call_after(1, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=100)

    def test_engine_not_reentrant(self):
        eng = Engine()

        def nested():
            with pytest.raises(SimulationError):
                eng.run()

        eng.call_after(1, nested)
        eng.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        ev = eng.call_after(10, lambda: seen.append(1))
        eng.cancel(ev)
        eng.run()
        assert seen == []

    def test_double_cancel_safe(self):
        eng = Engine()
        ev = eng.call_after(10, lambda: None)
        eng.cancel(ev)
        eng.cancel(ev)
        eng.run()

    def test_cancel_from_within_running_event(self):
        eng = Engine()
        seen = []
        victim = eng.call_after(20, lambda: seen.append("victim"))
        eng.call_after(10, lambda: eng.cancel(victim))
        assert eng.run() == 1
        assert seen == []

    def test_cancelling_a_fired_event_keeps_the_live_count(self):
        # A timer that cancels itself from its own callback (the load
        # driver's deadline does) must not be counted out of the queue
        # a second time: it left the live count when it was popped.
        eng = Engine()
        box = []
        box.append(eng.call_at(10, lambda: eng.cancel(box[0])))
        eng.call_at(20, lambda: None)
        eng.call_at(30, lambda: None)
        eng.run(until_ns=15)
        assert len(eng.queue) == 2
        assert eng.queue
        assert eng.run() == 2
        assert len(eng.queue) == 0
        assert not eng.queue

    def test_cancel_all_pending_drains_clean(self):
        # A queue holding only cancelled events must fire nothing and
        # must not advance the clock: it drains exactly like an empty
        # queue (until_ns moves the clock only when a live event lies
        # beyond it).
        eng = Engine()
        for t in (10, 20):
            eng.cancel(eng.call_after(t, lambda: None))
        eng.idle_check = lambda: None
        assert eng.run(until_ns=50) == 0
        assert eng.now_ns == 0

    def test_until_exact_event_time_fires(self):
        eng = Engine()
        seen = []
        eng.call_after(100, lambda: seen.append(1))
        eng.run(until_ns=100)
        assert seen == [1]

    def test_zero_delay_event_fires_now(self):
        eng = Engine()
        eng.call_after(5, lambda: None)
        eng.run()
        seen = []
        eng.call_after(0, lambda: seen.append(eng.now_ns))
        eng.run()
        assert seen == [5]


class TestDeadlockProbe:
    def test_idle_check_raises_on_complaint(self):
        eng = Engine()
        eng.idle_check = lambda: "stuck entities"
        with pytest.raises(DeadlockError, match="stuck"):
            eng.run()

    def test_idle_check_quiet_when_none(self):
        eng = Engine()
        eng.idle_check = lambda: None
        eng.run()  # no raise

    def test_check_deadlock_false_skips_probe(self):
        eng = Engine()
        eng.idle_check = lambda: "stuck"
        eng.run(check_deadlock=False)  # no raise


class TestDeterminism:
    def test_same_seed_same_order(self):
        def trace_run():
            eng = Engine(seed=7)
            seen = []
            for i in range(20):
                eng.call_after(eng.rng.randint("t", 0, 5),
                               lambda i=i: seen.append(i))
            eng.run()
            return seen

        assert trace_run() == trace_run()

    def test_rng_streams_independent(self):
        eng = Engine(seed=1)
        a1 = [eng.rng.stream("a").random() for _ in range(3)]
        eng2 = Engine(seed=1)
        # Drawing from "b" first must not perturb "a".
        eng2.rng.stream("b").random()
        a2 = [eng2.rng.stream("a").random() for _ in range(3)]
        assert a1 == a2


def _recording_cpus(ncpus):
    """A machine whose CPUs' steps only record ``(time, cpu index)``
    (the CPUs run no LWP)."""
    sim = Simulator(ncpus=ncpus)
    fired = []
    for cpu in sim.machine.cpus:
        def step(cpu=cpu):
            cpu._step()  # with no LWP it only clears the pending step
            fired.append((sim.engine.now_ns, cpu.index))
        cpu.step = step
    return sim, fired


class TestStepSlots:
    """Per-CPU step slots (see ``repro.sim.engine``): the engine merges
    the slotted steps with the heap in ``(time, seq)`` order."""

    def test_three_slotted_steps_fire_in_seq_order(self):
        sim, fired = _recording_cpus(3)
        eng = sim.engine
        cpus = sim.machine.cpus
        slotted = []

        def slot_all():
            for i in (2, 0, 1):
                cpus[i]._schedule_step(10)
            slotted.append([entry[2].index for entry in eng.slots])
            # Queued at the same time, with a later seq than all three.
            eng.call_after(10, lambda: fired.append((eng.now_ns, "event")))

        eng.call_at(100, slot_all)
        eng.run()
        assert slotted == [[2, 0, 1]]
        assert fired == [(110, 2), (110, 0), (110, 1), (110, "event")]

    def test_an_earlier_step_goes_before_slotted_later_ones(self):
        sim, fired = _recording_cpus(3)
        eng = sim.engine
        cpus = sim.machine.cpus

        def slot_all():
            cpus[0]._schedule_step(20)
            eng.call_after(15, lambda: fired.append((eng.now_ns, "event")))
            cpus[1]._schedule_step(10)
            cpus[2]._schedule_step(20)

        eng.call_at(100, slot_all)
        eng.run()
        assert fired == [(110, 1), (115, "event"), (120, 0), (120, 2)]

    def test_slotted_step_past_until_is_queued_after_run(self):
        sim, fired = _recording_cpus(1)
        eng = sim.engine
        cpu = sim.machine.cpus[0]
        eng.call_at(100, lambda: cpu._schedule_step(50))
        eng.run(until_ns=120)
        assert eng.now_ns == 120
        assert fired == []
        assert eng.slots == []
        assert len(eng.queue) == 1
        assert eng.queue.peek_time() == 150
        eng.run()
        assert fired == [(150, 0)]

    def test_max_events_stops_two_cpus_where_the_heap_did(self):
        """Two CPUs interleaving steps: the guard stops at the event,
        time and queue the heap-only engine gave."""
        def spin():
            while True:
                yield Charge(usec(1))

        def spin_calls():
            while True:
                yield Charge(usec(3))
                yield from unistd.getpid()

        sim = Simulator(ncpus=2)
        sim.spawn(spin)
        sim.spawn(spin_calls)
        with pytest.raises(SimulationError,
                           match=r"max_events=1000 exhausted at "
                                 r"t=979\.0us"):
            sim.run(max_events=1_000)
        assert sim.engine.events_fired == 1_000
        # Both CPUs' steps and both quantum timers are queued.
        assert len(sim.engine.queue) == 4
