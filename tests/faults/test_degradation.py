"""Graceful degradation under LWP exhaustion (rlimit or injected).

The robustness contract: running out of LWPs must never crash a process.
Bound creation retries with backoff and then falls back to unbound (or
raises a typed error under the "raise" policy); pool growth is
best-effort; the SIGWAITING handler survives and re-arms; micro-tasking
runs leftover slices serially on the master.
"""

import pytest

from repro import FaultPlan, LwpExhausted, SyscallFault, threads
from repro.hw.isa import Charge, GetContext
from repro.kernel.fs.file import O_RDONLY
from repro.kernel.syscalls.misc_calls import RLIMIT_NLWPS
from repro.models import kernel_only, microtasking
from repro.runtime import unistd
from repro.sim.clock import usec
from tests.conftest import run_program


def _lib():
    ctx = yield GetContext()
    return ctx.process.threadlib


class TestRlimit:
    def test_rlimit_caps_lwp_creation(self):
        got = {}

        def sleeper(_):
            # Pin the LWP well past the backoff window (~6.2ms), so the
            # limit stays saturated for the whole retry sequence.
            yield from unistd.sleep_usec(50_000)

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 2)
            got["limit"] = yield from unistd.getrlimit(RLIMIT_NLWPS)
            lib = yield from _lib()
            lib.lwp_exhaust_policy = "raise"
            # LWP 1 (main) exists; one more fits under the limit.
            t1 = yield from kernel_only.thread_create(
                sleeper, flags=threads.THREAD_WAIT)
            with pytest.raises(LwpExhausted):
                yield from kernel_only.thread_create(
                    sleeper, flags=threads.THREAD_WAIT)
            got["retries"] = lib.lwp_create_retries
            yield from threads.thread_wait(t1)
            got["lwps"] = len((yield GetContext()).process.live_lwps())

        run_program(main, check_deadlock=False)
        assert got["limit"] == 2
        assert got["retries"] >= 1
        assert got["lwps"] <= 2

    def test_raise_policy_rolls_back_bookkeeping(self):
        got = {}

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 1)
            lib = yield from _lib()
            lib.lwp_exhaust_policy = "raise"
            before = dict(created=lib.threads_created,
                          known=len(lib.threads))
            with pytest.raises(LwpExhausted):
                yield from kernel_only.thread_create(lambda _: None)
            got["created_delta"] = lib.threads_created - before["created"]
            got["known_delta"] = len(lib.threads) - before["known"]

        run_program(main, check_deadlock=False)
        assert got["created_delta"] == 0
        assert got["known_delta"] == 0


class TestBoundFallback:
    def test_bound_create_falls_back_to_unbound(self):
        """Default policy: when no LWP can be had, the thread still runs
        — unbound, on the existing pool."""
        ran = []

        def worker(i):
            # Stay alive past the backoff window so the limit remains
            # saturated while later creations retry.
            yield from unistd.sleep_usec(30_000)
            ran.append(i)

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 3)
            lib = yield from _lib()
            tids = []
            for i in range(6):
                tid = yield from kernel_only.thread_create(
                    worker, i, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)
            snap = lib.snapshot()
            got.update(snap)

        got = {}
        run_program(main, check_deadlock=False)
        assert sorted(ran) == list(range(6))
        assert got["bound_fallbacks"] >= 1
        assert got["lwp_create_retries"] >= 1

    def test_fallback_thread_is_unbound_and_well_formed(self):
        got = {}

        def worker(_):
            ctx = yield GetContext()
            got["bound"] = ctx.thread.bound
            got["lwp_is_pool"] = ctx.lwp.bound_thread is None

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 1)
            tid = yield from kernel_only.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        run_program(main, check_deadlock=False)
        assert got["bound"] is False
        assert got["lwp_is_pool"] is True


class TestSetConcurrency:
    def test_partial_growth_under_rlimit(self):
        got = {}

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 3)
            lib = yield from _lib()
            yield from threads.thread_setconcurrency(6)
            got["pool"] = len(lib.pool_lwps)
            got["failures"] = lib.pool_grow_failures

        run_program(main, ncpus=2, check_deadlock=False)
        assert got["pool"] == 3  # main's LWP + 2 more, then the cap
        assert got["failures"] == 1


class TestNewLwpFlag:
    def test_thread_runs_when_the_pool_cannot_grow(self):
        """THREAD_NEW_LWP at the LWP cap: the growth is skipped and
        counted, and the thread runs on the existing pool."""
        ran = []
        got = {}

        def worker(arg):
            ran.append(arg)
            yield Charge(usec(10))

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 1)
            lib = yield from _lib()
            tid = yield from threads.thread_create(
                worker, 7, flags=threads.THREAD_NEW_LWP | threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            got["pool"] = len(lib.pool_lwps)
            got["failures"] = lib.pool_grow_failures

        run_program(main, check_deadlock=False)
        assert ran == [7]
        assert got == {"pool": 1, "failures": 1}


class TestSigwaitingSurvival:
    def test_handler_survives_injected_eagain(self):
        """SIGWAITING fires while every lwp_create fails: the handler
        must absorb the failure, re-arm, and let the process finish once
        input arrives — not die of an unhandled SyscallError."""
        got = {}

        def blocked_reader(_):
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            yield from unistd.read(fd, 10)

        def compute(_):
            yield Charge(usec(3_000))
            got["computed"] = True

        def main():
            lib = yield from _lib()
            yield from threads.thread_create(blocked_reader, None)
            yield from threads.thread_yield()  # reader takes the LWP
            yield from threads.thread_create(compute, None)
            yield from unistd.sleep_usec(400_000)
            got["failures"] = lib.sigwaiting_failures
            got["grown"] = lib.lwps_grown_by_sigwaiting
            got["done"] = True

        from repro.api import Simulator
        plan = FaultPlan([SyscallFault("lwp_create", "EAGAIN")])
        sim = Simulator(ncpus=2, faults=plan)
        sim.spawn(main)
        sim.type_input(b"x", at_usec=200_000)  # eventually release reader
        sim.run(check_deadlock=False)
        assert got.get("done"), "process died instead of degrading"
        assert got["failures"] >= 1
        assert got["grown"] == 0
        # The compute thread ran once the reader's LWP came back.
        assert got.get("computed")

    def test_handler_rearms_after_transient_exhaustion(self):
        """First starvation hits injected EAGAINs; once the faults stop
        (max_count), a second starvation grows the pool again — proof
        the handler re-armed instead of wedging."""
        got = {}

        def blocked_reader(which):
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            yield from unistd.read(fd, 10)
            got[f"reader{which}"] = True

        def main():
            lib = yield from _lib()
            # Episode 1: the reader takes the only LWP and blocks; the
            # growth attempt eats all three injected EAGAINs.
            yield from threads.thread_create(blocked_reader, 1)
            yield from threads.thread_yield()
            got["failures_ep1"] = lib.sigwaiting_failures
            # Episode 2 (after input releases reader 1): injections are
            # spent, so this starvation grows the pool.
            yield from threads.thread_create(blocked_reader, 2)
            yield from threads.thread_yield()
            got["failures"] = lib.sigwaiting_failures
            got["grown"] = lib.lwps_grown_by_sigwaiting
            got["done"] = True

        from repro.api import Simulator
        # Exactly one SIGWAITING growth attempt's worth of failures
        # (3 tries), then injection stops.
        plan = FaultPlan([SyscallFault("lwp_create", "EAGAIN",
                                       max_count=3)])
        sim = Simulator(ncpus=2, faults=plan)
        sim.spawn(main)
        sim.type_input(b"x", at_usec=100_000)  # release reader 1
        sim.type_input(b"y", at_usec=400_000)  # release reader 2
        sim.run(check_deadlock=False)
        assert got.get("done")
        assert got["failures_ep1"] >= 1
        assert got["grown"] >= 1  # the re-armed handler succeeded later
        assert got.get("reader1") and got.get("reader2")


class TestMicrotasking:
    def test_parallel_for_degrades_serially(self):
        got = {}

        def main():
            yield from unistd.setrlimit(RLIMIT_NLWPS, 2)
            total = yield from microtasking.parallel_sum(
                list(range(10)), chunk_cost_usec=5.0, n_lwps=4)
            got["total"] = total

        run_program(main, ncpus=4, check_deadlock=False)
        assert got["total"] == sum(range(10))
