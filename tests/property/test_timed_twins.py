"""A timed sync call is its untimed twin plus a deadline.

``Mutex.timedenter``, ``Semaphore.timedp`` and ``CondVar.timedwait`` run
the same acquire/wait body as ``enter``, ``p`` and ``wait``; the only
addition is a deadline, which a private-variant block turns into one
timer armed before the sleep and cancelled after it.  A cancelled timer
never fires, so:

* a generated program that finishes untimed gives the same trace digest,
  ``events_fired`` and final clock when every blocking call is swapped
  for its timed twin with a timeout past the end of the run;
* a reachable timeout never returns before its deadline.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.errors import DeadlockError
from repro.hw.isa import Charge, GetContext
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.trace import DigestSink
from repro.sync import CondVar, Mutex, Semaphore

SIM_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])

OPS = st.one_of(
    st.tuples(st.just("charge"), st.integers(0, 40)),
    st.tuples(st.just("sleep"), st.integers(1, 30)),
    st.tuples(st.just("locked"), st.integers(0, 300)),
    st.tuples(st.just("sema"), st.integers(0, 300)),
    st.tuples(st.just("await"), st.integers(1, 3)),
    st.just(("tick",)),
)

#: One op list for the main thread, then one per created thread.
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4)


class _Shared:
    """The program's sync variables, and how to block on them."""

    def __init__(self, units, ticks_due, timeout_usec):
        self.m = Mutex(name="m")
        self.s = Semaphore(units, name="s")
        self.cv = CondVar(name="cv")
        self.gate = Semaphore(0, name="gate")
        self.arrived = self.ticks = 0
        self.ticks_due = ticks_due       # an await waits for at most these
        self.timeout = timeout_usec

    def enter(self):
        if self.timeout is None:
            return self.m.enter()
        return self.m.timedenter(self.timeout)

    def p(self, sema):
        if self.timeout is None:
            return sema.p()
        return sema.timedp(self.timeout)

    def wait(self):
        if self.timeout is None:
            return self.cv.wait(self.m)
        return self.cv.timedwait(self.m, self.timeout)


def _hold(n):
    """Hold for ``n`` us: CPU time when even, a sleep when odd."""
    if n % 2:
        yield from unistd.sleep_usec(n)
    else:
        yield Charge(usec(n))


def _worker(arg):
    ops, sh = arg
    sh.arrived += 1
    assert (yield from sh.p(sh.gate)) in (None, True)
    yield from _body(ops, sh)


def _body(ops, sh):
    for op in ops:
        kind = op[0]
        if kind == "charge":
            yield Charge(usec(op[1]))
        elif kind == "sleep":
            yield from unistd.sleep_usec(op[1])
        elif kind == "locked":
            assert (yield from sh.enter()) in (None, True)
            yield from _hold(op[1])
            yield from sh.m.exit()
        elif kind == "sema":
            assert (yield from sh.p(sh.s)) in (None, True)
            yield from _hold(op[1])
            yield from sh.s.v()
        elif kind == "await":
            yield from sh.enter()
            while sh.ticks < min(op[1], sh.ticks_due):
                assert (yield from sh.wait()) in (None, True)
            yield from sh.m.exit()
        else:
            yield from sh.enter()
            sh.ticks += 1
            yield from sh.cv.broadcast()
            yield from sh.m.exit()


def _guest(program, bound, units, timeout_usec):
    main_ops, *workers = program

    ticks_due = sum(op == ("tick",) for ops in program for op in ops)

    def main():
        sh = _Shared(units, ticks_due, timeout_usec)
        # Unbound workers each add an LWP, so they too can overlap.
        flags = threads.THREAD_WAIT | (
            threads.THREAD_BIND_LWP if bound else threads.THREAD_NEW_LWP)
        tids = []
        for ops in workers:
            tid = yield from threads.thread_create(
                _worker, (ops, sh), flags=flags)
            tids.append(tid)
        while sh.arrived < len(workers):
            yield from unistd.sleep_usec(500)
        for _ in workers:                # start them all at once
            yield from sh.gate.v()
        yield from _body(main_ops, sh)
        for tid in tids:
            yield from threads.thread_wait(tid)
    return main


def _run(program, ncpus, bound, units, seed, timeout_usec=None):
    sink = DigestSink()
    sim = Simulator(ncpus=ncpus, seed=seed, trace=True, trace_sink=sink,
                    trace_store=False)
    sim.spawn(_guest(program, bound, units, timeout_usec))
    sim.run(max_events=200_000)
    return sink.hexdigest(), sim.engine.events_fired, sim.engine.now_ns


class TestUnreachableTimeoutIsTheUntimedCall:
    @SIM_SETTINGS
    @given(program=PROGRAMS, ncpus=st.integers(1, 2), bound=st.booleans(),
           units=st.integers(1, 2), seed=st.integers(0, 999))
    def test_digest_events_and_clock_match(self, program, ncpus, bound,
                                           units, seed):
        try:
            untimed = _run(program, ncpus, bound, units, seed)
        except DeadlockError:
            assume(False)        # an await nobody ticks for: not a case
        end_usec = untimed[2] / 1000
        timed = _run(program, ncpus, bound, units, seed,
                     timeout_usec=end_usec + 1_000)
        assert timed == untimed


# -------------------------------------------------- reachable timeouts

def _timed_out_at(primitive, timeout_usec, ncpus, bound):
    """Run one timed call that nothing satisfies; returns its result and
    the virtual ns between the call and its return."""
    got = {}
    m, s, cv = Mutex(name="m"), Semaphore(0, name="s"), CondVar(name="cv")

    def waiter(_):
        if primitive != "mutex":
            yield from m.enter()
        ctx = yield GetContext()
        t0 = ctx.engine.now_ns
        if primitive == "mutex":
            got["result"] = yield from m.timedenter(timeout_usec)
        elif primitive == "sema":
            got["result"] = yield from s.timedp(timeout_usec)
        else:
            got["result"] = yield from cv.timedwait(m, timeout_usec)
        got["elapsed_ns"] = ctx.engine.now_ns - t0
        if primitive != "mutex":
            yield from m.exit()

    def main():
        if primitive == "mutex":
            yield from m.enter()         # held until the waiter gave up
        flags = threads.THREAD_WAIT
        if bound:
            flags |= threads.THREAD_BIND_LWP
        tid = yield from threads.thread_create(waiter, None, flags=flags)
        yield from threads.thread_wait(tid)
        if primitive == "mutex":
            yield from m.exit()

    sim = Simulator(ncpus=ncpus)
    sim.spawn(main)
    sim.run(max_events=200_000)
    return got["result"], got["elapsed_ns"]


#: Timeouts shorter than the block's own charges are pinned separately
#: (tests/sync/test_timedlock.py::TestShortTimeouts).
REACHABLE = dict(timeout_usec=st.integers(100, 2_000),
                 ncpus=st.integers(1, 2), bound=st.booleans())


class TestReachableTimeoutWaitsForItsDeadline:
    @settings(max_examples=20, deadline=None)
    @given(**REACHABLE)
    def test_mutex_timedenter(self, timeout_usec, ncpus, bound):
        result, elapsed = _timed_out_at("mutex", timeout_usec, ncpus, bound)
        assert result is False
        assert elapsed >= usec(timeout_usec)

    @settings(max_examples=20, deadline=None)
    @given(**REACHABLE)
    def test_sema_timedp(self, timeout_usec, ncpus, bound):
        result, elapsed = _timed_out_at("sema", timeout_usec, ncpus, bound)
        assert result is False
        assert elapsed >= usec(timeout_usec)

    @settings(max_examples=20, deadline=None)
    @given(**REACHABLE)
    def test_cv_timedwait(self, timeout_usec, ncpus, bound):
        result, elapsed = _timed_out_at("cv", timeout_usec, ncpus, bound)
        assert result is False
        assert elapsed >= usec(timeout_usec)
