"""The CPU's fast paths equal a plainly written reference.

``CPU._step`` slots its next step in the engine's step slots, and the
engine runs it in place when it sorts first (see ``repro.sim.engine``);
it also traps into and leaves the kernel inline (see
``repro.hw.cpu``).  ``ReferenceCPU`` (``tests/property/reference.py``)
queues every step as an ordinary Event and traps, returns and raises
through its own plain code.  These tests pin that the fast paths are
pure host-side shortcuts:

* generated programs (``tests/property/programs.py``) on one to three
  CPUs, with every thread flag, with and without preemption and an
  errno plan, give the same digest, ``events_fired``, clock, hang
  report and per-CPU and per-LWP booked time with the slot as with
  every step queued;
* the same programs, metrics on, give the same all that and metrics
  JSON with the inline trap and exit as with the reference's own, which
  traps once per counted syscall and exits once per observed kernel
  latency; and, metrics being passive, the same all but the metrics
  with metrics off;
* the ``max_events`` and ``until_ns`` guards stop a run of in-place
  steps exactly where they stop queued events;
* a step that ends its own process and hands its CPU to another one
  ends there, on both CPUs: the dead LWP's syscall exit neither runs
  nor is booked, and the new dispatch's first step stays where its own
  dispatch cost puts it.
"""

import json
from collections import Counter
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Simulator
from repro.errors import SimulationError
from repro.hw import machine
from repro.hw.cpu import CPU
from repro.hw.isa import Charge
from repro.kernel.signals import Sig
from repro.kernel.syscalls.time_calls import ITIMER_PROF
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.trace import DigestSink
from tests.property.programs import ERRNO_PLANS, FLAGS, PROGRAMS, run
from tests.property.reference import ReferenceCPU, installed

SIM_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


#: One draw of a generated program and the options it runs with.
DRAWS = dict(program=PROGRAMS, ncpus=st.integers(1, 3), flags=FLAGS,
             units=st.integers(1, 2), preempt=st.booleans(),
             errno=ERRNO_PLANS, seed=st.integers(0, 999))


class TestSameResultWithAndWithoutTheSlot:
    """Production slots its steps; the reference queues every one."""

    @SIM_SETTINGS
    @given(**DRAWS)
    def test_digest_events_and_clock_match(self, program, ncpus, flags,
                                           units, preempt, errno, seed):
        opts = dict(ncpus=ncpus, flags=flags, units=units, preempt=preempt,
                    errno=errno, seed=seed)
        got = run(program, **opts)
        with installed():
            want = run(program, **opts)
        assert got == want


def _tallied():
    """A ``ReferenceCPU`` that tallies its own traps, kernel exits and
    error exits; returns the class and the live tally."""
    tally = Counter()

    class TalliedCPU(ReferenceCPU):
        def _trap(self, lwp, activity, call):
            tally["traps"] += 1
            super()._trap(lwp, activity, call)

        def _kernel_exit(self, lwp, frame, value, error):
            tally["exits"] += 1
            tally["errors"] += error is not None
            super()._kernel_exit(lwp, frame, value, error)

    return TalliedCPU, tally


class TestSameResultInlineAndGeneric:
    """Production traps and leaves the kernel inline in ``CPU._step``;
    the reference through its own ``_trap`` and ``_kernel_exit``."""

    @SIM_SETTINGS
    @given(**DRAWS)
    def test_digest_events_clock_and_metrics_match(self, program, ncpus,
                                                   flags, units, preempt,
                                                   errno, seed):
        opts = dict(ncpus=ncpus, flags=flags, units=units, preempt=preempt,
                    errno=errno, seed=seed)
        got = run(program, metrics=True, **opts)
        cls, tally = _tallied()
        with installed(cls):
            want = run(program, metrics=True, **opts)
        assert got == want
        # Metrics are passive.
        assert run(program, **opts) == got._replace(metrics=None)
        # The reference's own paths ran: a trap for every counted
        # syscall, and a kernel exit, returned or raised, for every
        # kernel frame whose latency was observed.
        metrics = json.loads(want.metrics)
        counters, hists = metrics["counters"], metrics["histograms"]
        traps = sum(v for k, v in counters.items()
                    if k.startswith("syscall.count."))
        exits = sum(h["count"] for k, h in hists.items()
                    if k.startswith(("syscall.latency_ns.",
                                     "kernel.latency_ns.",
                                     "vm.pagefault_latency_ns")))
        errors = sum(v for k, v in counters.items()
                     if k.startswith("syscall.errno."))
        assert tally["traps"] == traps > 0
        assert (tally["exits"], tally["errors"]) == (exits, errors)


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

        class CountingCPU(CPU):
            def unpark(self):
                unparks.append(self.engine.now_ns)
                super().unpark()

        monkeypatch.setattr(machine, "CPU", CountingCPU)
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


def _kill_self_at_syscall_exit(prof_usec=None):
    """A victim that sends itself SIGTERM; with ``prof_usec``, it first
    arms ITIMER_PROF to run out after that much of its time."""
    def victim():
        if prof_usec is not None:
            yield from unistd.setitimer(ITIMER_PROF, usec(prof_usec))
        yield Charge(usec(10))
        me = yield from unistd.getpid()
        yield from unistd.kill(me, int(Sig.SIGTERM))
        yield Charge(usec(10))
    return victim


def _hand_over(reference, prof_usec=None):
    """Run the victim and a bystander process on one CPU; returns the
    bystander's first step as (clock, CPU busy time, its own system
    time), and the run."""
    first_step = []

    def bystander():
        lwp = sim.machine.cpus[0].lwp
        first_step.append((sim.engine.now_ns, sim.machine.cpus[0].busy_ns,
                           lwp.system_ns))
        yield Charge(usec(30))

    sink = DigestSink()
    with installed() if reference else nullcontext():
        sim = Simulator(ncpus=1, trace=True, trace_sink=sink,
                        trace_store=False)
    victim = sim.spawn(_kill_self_at_syscall_exit(prof_usec))
    sim.spawn(bystander)
    sim.run()
    assert victim.exit_status == 128 + int(Sig.SIGTERM)
    return first_step, sim, sink


def _books(sim):
    return {lwp.name: (lwp.user_ns, lwp.system_ns)
            for proc in sim.kernel.processes.values()
            for lwp in proc.lwps.values()}


def test_a_step_that_hands_its_cpu_over_keeps_the_heap_order():
    """A default SIGTERM posted by the kill ends the victim's process
    inside the stepping CPU's own step, and another process's LWP is
    dispatched onto that CPU (at 175 us, 80 us of dispatch booked)
    before the step's exit.  The exit, inline in ``CPU._step`` or in
    ``ReferenceCPU``'s own code, emits its trace record and ends the
    step: the bystander first runs at 255 us, when the CPU has booked
    exactly the clock."""
    for reference in (False, True):
        first_step, sim, sink = _hand_over(reference)
        assert [step[:2] for step in first_step] == [(usec(255), usec(255))]
        assert (sim.engine.events_fired, sim.engine.now_ns) == (17, usec(800))
        assert sink.hexdigest() == ("ffc18c487f3c8a3a86dff8f1c305a15a"
                                    "dee67b46bafd411a0710ce61f7a32e16")


def test_a_handed_over_step_books_no_exit():
    """The kill's 15 us syscall exit never runs, so nobody books it:
    the bystander has only its 80 us dispatch at its first step, and
    the CPU books the 800 us it ran (its bystander's last block, on the
    grave channel, takes no time and books none)."""
    for reference in (False, True):
        first_step, sim, _sink = _hand_over(reference)
        assert first_step[0][2] == usec(80)
        assert _books(sim) == {"lwp-1.1": (usec(10), usec(165)),
                               "lwp-2.1": (usec(30), usec(595))}
        assert sim.machine.cpus[0].busy_ns == sim.engine.now_ns == usec(800)


def test_a_dead_lwps_timer_posts_nothing_to_its_exited_process():
    """ITIMER_PROF is armed to run out 10 us into the kill's syscall
    exit, which never runs: the timer keeps those 10 us on the dead
    victim, and no SIGPROF is posted."""
    # The victim runs 110 us from arming the timer to the end of the
    # kill's call.
    armed = 120
    for reference in (False, True):
        _first_step, sim, _sink = _hand_over(reference, prof_usec=armed)
        victim = sim.kernel.processes[1].lwps[1]
        assert victim.ptimer_remaining_ns == usec(10)
        assert sim.kernel.signals_posted[Sig.SIGPROF] == 0


def _park_then_release(reference):
    """Slot a step and take the LWP off the CPU within one event."""
    with installed() if reference else nullcontext():
        sim = _spin_sim()
    cpu = sim.machine.cpus[0]
    parked = []

    def kick():
        cpu._schedule_step(0)
        parked.append([e[2] for e in sim.engine.slots] == [cpu])
        cpu.release()

    sim.engine.call_at(usec(50), kick)
    sim.run(until_usec=100, check_deadlock=False)
    return parked, sim.engine.events_fired, len(sim.engine.queue)


def test_release_drops_a_parked_step():
    parked, fired, queued = _park_then_release(reference=False)
    assert parked == [True]
    # The reference queues its step: nothing is slotted.
    assert _park_then_release(reference=True) == ([False], fired, queued)
