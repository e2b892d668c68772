"""The CPU's fast paths are exactly the plain paths they shortcut.

A CPU parks its next step in the engine's front slot and the engine runs
it in place when it sorts first (see ``repro.sim.engine``), and
``CPU._step`` traps and returns from the kernel inline (see
``repro.hw.cpu``).  These tests pin that both are pure host-side
shortcuts:

* generated guest programs give the same trace digest, ``events_fired``
  and final clock as with every step forced through the heap (the
  reference is built here by patching ``CPU._schedule_step`` to unpark
  at once, so every step becomes an ordinary Event with its reserved
  ``(time, seq)``);
* generated programs, metrics on, give the same digest, ``events_fired``,
  clock and metrics JSON as with every trap sent through
  ``_DISPATCH`` -> ``CPU._enter_kernel`` and every frame return through
  ``CPU._frame_returned`` (the reference patches out the inline paths'
  matches);
* the ``max_events`` and ``until_ns`` guards stop a run of in-place
  steps exactly where they stop queued events.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.errors import SimulationError, SyscallError
from repro.hw import cpu as cpu_mod
from repro.hw import isa
from repro.hw.cpu import CPU
from repro.hw.isa import Charge, GetContext, Touch
from repro.hw.memory import PAGE_SIZE, MemoryObject
from repro.kernel.signals import Sig
from repro.kernel.syscalls.time_calls import ITIMER_PROF
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.schedule import RandomPreempt, SchedulePlan
from repro.sim.trace import DigestSink
from repro.sync import Mutex

SIM_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

#: Pages of the memory object the ``touch`` op faults in.
PAGES = 4

OPS = st.one_of(
    st.tuples(st.just("charge"), st.integers(0, 40)),
    st.just(("ctx",)),
    st.just(("getpid",)),
    st.tuples(st.just("sleep"), st.integers(1, 30)),
    st.tuples(st.just("locked"), st.integers(0, 20)),
    st.tuples(st.just("timer"), st.integers(0, 2)),
    # A failing call: the error leaves the kernel by _frame_raised.
    st.just(("badread",)),
    # Up to 1.5 pipe buffers, so either side may block.
    st.tuples(st.just("pipe"), st.integers(1, 12_288)),
    # A select on an empty pipe: the generic path sleeps to its deadline.
    st.tuples(st.just("select"), st.integers(1, 30)),
    # A caught signal to self, delivered at the kill's syscall exit.
    st.just(("signal",)),
    # The first touch of a page faults: a "pagefault" kernel frame.
    st.tuples(st.just("touch"), st.integers(0, PAGES - 1)),
    # A caught SIGPROF once this LWP has run that many more us; at up
    # to 15 us it fires inside setitimer's own exit charge.
    st.tuples(st.just("prof"), st.integers(1, 60)),
)

#: One op list for the main thread, then one per created thread.
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4)


def _on_signal(sig):
    yield Charge(usec(3))


def _drain(arg):
    rfd, n = arg
    got = 0
    while got < n:
        got += len((yield from unistd.read(rfd, n - got)))


def _body(arg):
    ops, mutex, mobj = arg
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
        elif kind == "badread":
            try:
                yield from unistd.read(99, 1)
            except SyscallError:
                pass
        elif kind == "pipe":
            # A bound reader drains while this thread writes.
            rfd, wfd = yield from unistd.pipe()
            tid = yield from threads.thread_create(
                _drain, (rfd, op[1]),
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from unistd.write(wfd, b"p" * op[1])
            yield from threads.thread_wait(tid)
            yield from unistd.close(wfd)
            yield from unistd.close(rfd)
        elif kind == "select":
            rfd, wfd = yield from unistd.pipe()
            yield from unistd.select([rfd], timeout_ns=usec(op[1]))
            yield from unistd.close(wfd)
            yield from unistd.close(rfd)
        elif kind == "signal":
            # SA_RESTART: a sleeping LWP that takes it resumes its sleep.
            yield from unistd.sigaction(int(Sig.SIGUSR1), _on_signal,
                                        restart=True)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
        elif kind == "touch":
            yield Touch(mobj, op[1] * PAGE_SIZE)
        elif kind == "prof":
            yield from unistd.sigaction(int(Sig.SIGPROF), _on_signal,
                                        restart=True)
            yield from unistd.setitimer(ITIMER_PROF, usec(op[1]))
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
        mobj = MemoryObject(PAGES * PAGE_SIZE)
        flags = threads.THREAD_WAIT
        if bound:
            flags |= threads.THREAD_BIND_LWP
        tids = []
        for ops in workers:
            tid = yield from threads.thread_create(
                _body, (ops, mutex, mobj), flags=flags)
            tids.append(tid)
        yield from _body((main_ops, mutex, mobj))
        for tid in tids:
            yield from threads.thread_wait(tid)
    return main


def _run(program, ncpus, bound, preempt, seed, metrics=False):
    sink = DigestSink()
    plan = (SchedulePlan([RandomPreempt(probability=0.3)])
            if preempt else None)
    sim = Simulator(ncpus=ncpus, seed=seed, trace=True, trace_sink=sink,
                    trace_store=False, schedule=plan, metrics=metrics)
    sim.spawn(_guest(program, bound))
    sim.run(max_events=100_000)
    out = (sink.hexdigest(), sim.engine.events_fired, sim.engine.now_ns)
    if metrics:
        # The CPU time booked to each CPU and each LWP, too.
        booked = [(c.user_ns, c.kernel_ns) for c in sim.machine.cpus]
        booked += [(lwp.name, lwp.user_ns, lwp.system_ns)
                   for proc in sim.kernel.processes.values()
                   for lwp in proc.lwps.values()]
        out += (sim.metrics.to_json(), booked)
    return out


def _queued_only(mp):
    """Force every step through the heap: unpark right after parking."""
    inner = CPU._schedule_step

    def schedule_step(self, delay_ns):
        inner(self, delay_ns)
        if self.engine.parked is self:
            self.unpark()

    mp.setattr(CPU, "_schedule_step", schedule_step)


class _NotAnEffect:
    """Stands in for ``isa.Syscall`` in the inline trap's exact-type
    match, which then never matches."""


def _count_generic(mp):
    """Count the calls of the generic trap (``_DISPATCH`` ->
    ``CPU._enter_kernel``) and frame return (``CPU._frame_returned``);
    returns the live ``[traps, returns]`` tally."""
    seen = [0, 0]
    enter = cpu_mod._DISPATCH[isa.Syscall]
    returned = CPU._frame_returned

    def enter_kernel(self, lwp, activity, effect):
        seen[0] += 1
        enter(self, lwp, activity, effect)

    def frame_returned(self, lwp, activity, value):
        seen[1] += 1
        returned(self, lwp, activity, value)

    mp.setitem(cpu_mod._DISPATCH, isa.Syscall, enter_kernel)
    mp.setattr(CPU, "_frame_returned", frame_returned)
    return seen


def _generic_route(mp):
    """Force every trap and every frame return onto the generic paths.

    The inline trap matches the exact type ``repro.hw.cpu._Syscall`` and
    the inline return a frame of mode ``repro.hw.cpu._USER`` below the
    returning one; a stand-in for each turns both off.
    """
    mp.setattr(cpu_mod, "_Syscall", _NotAnEffect)
    mp.setattr(cpu_mod, "_USER", object())


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


class TestSameResultInlineAndGeneric:
    @SIM_SETTINGS
    @given(program=PROGRAMS, ncpus=st.integers(1, 2), bound=st.booleans(),
           preempt=st.booleans(), seed=st.integers(0, 999))
    def test_digest_events_clock_and_metrics_match(self, program, ncpus,
                                                   bound, preempt, seed):
        with pytest.MonkeyPatch.context() as mp:
            inline = _count_generic(mp)
            got = _run(program, ncpus, bound, preempt, seed, metrics=True)
        with pytest.MonkeyPatch.context() as mp:
            generic = _count_generic(mp)
            _generic_route(mp)
            want = _run(program, ncpus, bound, preempt, seed, metrics=True)
        assert got == want
        # Only the reference traps through _enter_kernel, and the two
        # runs differ in _frame_returned calls by exactly the kernel
        # frames (syscalls and faults) that returned to user mode
        # rather than raised: the inline return's cases.
        metrics = json.loads(want[3])
        counters, hists = metrics["counters"], metrics["histograms"]
        traps = sum(v for k, v in counters.items()
                    if k.startswith("syscall.count."))
        exits = sum(h["count"] for k, h in hists.items()
                    if k.startswith(("syscall.latency_ns.",
                                     "kernel.latency_ns.",
                                     "vm.pagefault_latency_ns")))
        raised = sum(v for k, v in counters.items()
                     if k.startswith("syscall.errno."))
        assert inline[0] == 0
        assert generic[0] == traps > 0
        assert generic[1] - inline[1] == exits - raised


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
