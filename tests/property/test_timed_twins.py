"""A timed sync call is its untimed twin plus a deadline.

``Mutex.timedenter``, ``Semaphore.timedp`` and ``CondVar.timedwait`` run
the same acquire/wait body as ``enter``, ``p`` and ``wait``; the only
addition is a deadline, which a private-variant block turns into one
timer armed before the sleep and cancelled after it.  A cancelled timer
never fires, so:

* a generated program (``tests/property/programs.py``) that finishes
  untimed gives the same trace digest, ``events_fired``, final clock
  and booked CPU time when every blocking sync call is swapped for its
  timed twin with a timeout past the end of the run;
* a reachable timeout never returns before its deadline.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.hw.isa import GetContext
from repro.sim.clock import usec
from repro.sync import CondVar, Mutex, Semaphore
from tests.property.programs import FLAGS, PROGRAMS, run

SIM_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])


class TestUnreachableTimeoutIsTheUntimedCall:
    @SIM_SETTINGS
    @given(program=PROGRAMS, ncpus=st.integers(1, 2), flags=FLAGS,
           units=st.integers(1, 2), seed=st.integers(0, 999))
    def test_digest_events_and_clock_match(self, program, ncpus, flags,
                                           units, seed):
        opts = dict(ncpus=ncpus, flags=flags, units=units, seed=seed)
        untimed = run(program, **opts)
        # An await nobody ticks for: not a case.
        assume(untimed.hang is None)
        timed = run(program, timeout_usec=untimed.now_ns / 1000 + 1_000,
                    **opts)
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
