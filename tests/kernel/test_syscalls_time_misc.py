"""Tests for time, interval timers, resource usage/limits, profiling,
poll, and uname."""

import pytest

from repro.errors import Errno, SyscallError
from repro.hw.isa import Charge, GetContext, Syscall
from repro.kernel.signals import Sig
from repro.kernel.syscalls.misc_calls import (RLIMIT_CPU, RLIMIT_FSIZE,
                                              RUSAGE_LWP, RUSAGE_SELF)
from repro.kernel.syscalls.time_calls import (ITIMER_PROF, ITIMER_REAL,
                                              ITIMER_VIRTUAL)
from repro.runtime import unistd
from repro import threads
from repro.sim.clock import usec
from tests.conftest import run_program


class TestTime:
    def test_gettimeofday_monotonic(self):
        got = []

        def main():
            got.append((yield from unistd.gettimeofday()))
            yield Charge(usec(100))
            got.append((yield from unistd.gettimeofday()))

        run_program(main)
        assert got[1] >= got[0] + usec(100)

    def test_nanosleep_duration(self):
        got = []

        def main():
            t0 = yield from unistd.gettimeofday()
            yield from unistd.nanosleep(usec(12_345))
            t1 = yield from unistd.gettimeofday()
            got.append(t1 - t0)

        run_program(main)
        assert got[0] >= usec(12_345)

    def test_negative_nanosleep_rejected(self):
        caught = []

        def main():
            try:
                yield from unistd.nanosleep(-1)
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.EINVAL]

    def test_exit_cancels_a_sleeping_lwps_deadline(self):
        """A process that exits while one of its LWPs sleeps in
        nanosleep ends the run at its exit: the sleep's timer dies with
        the LWP instead of running the clock on to its deadline."""
        got = {}

        def sleeper(_):
            got["asleep_at"] = yield from unistd.gettimeofday()
            yield from unistd.nanosleep(usec(10_000))

        def main():
            yield from threads.thread_create(
                sleeper, None, flags=threads.THREAD_BIND_LWP)
            yield Charge(usec(4_000))
            got["exit_at"] = yield from unistd.gettimeofday()
            yield from unistd.exit(0)

        sim, _ = run_program(main, ncpus=2)
        assert got["asleep_at"] < got["exit_at"]
        assert sim.engine.now_ns < got["asleep_at"] + usec(10_000)


class TestIntervalTimers:
    def test_real_timer_sends_sigalrm(self):
        hits = []

        def handler(sig):
            hits.append("alarm")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGALRM), handler)
            yield from unistd.setitimer(ITIMER_REAL, usec(5_000))
            yield from unistd.sleep_usec(10_000)

        run_program(main)
        assert hits == ["alarm"]

    def test_real_timer_is_per_process(self):
        """"There is only one real-time interval timer per process":
        rearming replaces the previous timer."""
        hits = []

        def handler(sig):
            hits.append(1)
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGALRM), handler)
            yield from unistd.setitimer(ITIMER_REAL, usec(50_000))
            yield from unistd.setitimer(ITIMER_REAL, usec(5_000))
            yield from unistd.sleep_usec(100_000)

        run_program(main)
        assert len(hits) == 1

    def test_virtual_timer_counts_user_time_only(self):
        """ITIMER_VIRTUAL decrements only in LWP user time: sleeping does
        not advance it."""
        hits = []

        def handler(sig):
            hits.append("vtalrm")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGVTALRM), handler)
            yield from unistd.setitimer(ITIMER_VIRTUAL, usec(3_000))
            yield from unistd.sleep_usec(50_000)  # wall time, no user time
            assert hits == []
            yield Charge(usec(5_000))  # now burn user CPU
            yield from unistd.sleep_usec(100)

        run_program(main)
        assert hits == ["vtalrm"]

    def test_virtual_timer_is_per_lwp(self):
        """Another bound thread's CPU burn must not expire my timer."""
        hits = []

        def handler(sig):
            hits.append("fired")
            yield Charge(usec(1))

        def burner(_):
            yield Charge(usec(20_000))

        def main():
            yield from unistd.sigaction(int(Sig.SIGVTALRM), handler)
            yield from unistd.setitimer(ITIMER_VIRTUAL, usec(5_000))
            tid = yield from threads.thread_create(
                burner, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert hits == []  # only the *other* LWP burned CPU

    def test_prof_timer_counts_system_time_too(self):
        hits = []

        def handler(sig):
            hits.append("prof")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGPROF), handler)
            yield from unistd.setitimer(ITIMER_PROF, usec(500))
            # System time from repeated syscalls should expire it.
            for _ in range(30):
                yield from unistd.getpid()
            yield Charge(usec(1_000))
            yield from unistd.getpid()

        run_program(main)
        assert hits == ["prof"]

    def test_alarm_wrapper(self):
        hits = []

        def handler(sig):
            hits.append(1)
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGALRM), handler)
            yield from unistd.alarm(0.01)  # 10 ms
            yield from unistd.sleep_usec(20_000)

        run_program(main)
        assert hits == [1]


class TestRusage:
    def test_rusage_self_sums_lwps(self):
        got = {}

        def burner(_):
            yield Charge(usec(4_000))

        def main():
            yield Charge(usec(2_000))
            tid = yield from threads.thread_create(
                burner, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from threads.thread_wait(tid)
            got["self"] = yield from unistd.getrusage(RUSAGE_SELF)

        run_program(main, ncpus=2)
        assert got["self"]["user_ns"] >= usec(6_000)

    def test_rusage_lwp_is_narrower(self):
        got = {}

        def burner(_):
            yield Charge(usec(4_000))

        def main():
            yield Charge(usec(1_000))
            tid = yield from threads.thread_create(
                burner, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from threads.thread_wait(tid)
            got["lwp"] = yield from unistd.getrusage(RUSAGE_LWP)
            got["self"] = yield from unistd.getrusage(RUSAGE_SELF)

        run_program(main, ncpus=2)
        assert got["lwp"]["total_ns"] < got["self"]["total_ns"]


class TestRlimits:
    def test_cpu_limit_sends_sigxcpu(self):
        hits = []

        def handler(sig):
            hits.append("xcpu")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGXCPU), handler)
            yield from unistd.setrlimit(RLIMIT_CPU, usec(2_000))
            yield Charge(usec(10_000))
            yield from unistd.getpid()  # delivery point

        run_program(main)
        assert hits == ["xcpu"]

    @staticmethod
    def _sigxcpu_taker(limit_first: bool):
        """A bound thread burns ten 1 ms charges while main waits;
        main sets RLIMIT_CPU before or after creating it.  Returns the
        (LWP id, virtual time) of each SIGXCPU handler run."""
        hits = []

        def handler(sig):
            ctx = yield GetContext()
            hits.append((ctx.lwp.lwp_id, ctx.engine.now_ns))
            yield Charge(usec(1))

        def burner(_):
            for _ in range(10):
                yield Charge(usec(1_000))
                yield from unistd.getpid()  # delivery point

        def main():
            yield from unistd.sigaction(int(Sig.SIGXCPU), handler)
            if limit_first:
                yield from unistd.setrlimit(RLIMIT_CPU, usec(5_000))
            tid = yield from threads.thread_create(
                burner, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            if not limit_first:
                yield from unistd.setrlimit(RLIMIT_CPU, usec(5_000))
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        return hits

    def test_cpu_limit_set_by_one_lwp_signals_a_sibling(self):
        """The process total crosses the limit in the sibling's charge,
        so the sibling takes SIGXCPU.  The total counts only time spent
        on a CPU (a block books none), so it crosses 5 ms in the
        sibling's fifth 1 ms charge."""
        assert self._sigxcpu_taker(limit_first=False) == [(2, usec(5_577))]

    def test_cpu_limit_signals_an_lwp_created_after_it(self):
        assert self._sigxcpu_taker(limit_first=True) == [(2, usec(5_612))]

    def test_fsize_limit_sends_sigxfsz_and_fails_write(self):
        from repro.kernel.fs.file import O_CREAT, O_RDWR
        hits = []
        caught = []

        def handler(sig):
            hits.append("xfsz")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGXFSZ), handler)
            yield from unistd.setrlimit(RLIMIT_FSIZE, 4)
            fd = yield from unistd.open("/tmp/f", O_CREAT | O_RDWR)
            try:
                yield from unistd.write(fd, b"too big for limit")
            except SyscallError as err:
                caught.append(err.errno)
            yield from unistd.sleep_usec(100)

        run_program(main)
        assert caught == [Errno.ENOSPC]
        assert hits == ["xfsz"]

    def test_getrlimit_roundtrip(self):
        got = []

        def main():
            # Large enough that it is not consumed (and auto-cleared)
            # during the test itself.
            yield from unistd.setrlimit(RLIMIT_CPU, usec(10 ** 9))
            got.append((yield from unistd.getrlimit(RLIMIT_CPU)))

        run_program(main)
        assert got == [usec(10 ** 9)]


class TestProfiling:
    def test_profiling_accumulates_user_time(self):
        got = {}

        def main():
            buf = yield from unistd.profil()
            yield Charge(usec(3_000))
            got["buf"] = buf

        run_program(main)
        assert got["buf"].total_ns >= usec(3_000)

    def test_shared_buffer_accumulates_both_lwps(self):
        got = {}

        def burner(buf):
            yield from unistd.profil(buf)
            yield Charge(usec(2_000))

        def main():
            buf = yield from unistd.profil()
            yield Charge(usec(2_000))
            tid = yield from threads.thread_create(
                burner, buf,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from threads.thread_wait(tid)
            got["buf"] = buf

        run_program(main, ncpus=2)
        assert got["buf"].total_ns >= usec(4_000)

    def test_lwp_create_inherits_profiling(self):
        """A bound thread's LWP, created by a profiling LWP, books its
        user time into the creator's buffer."""
        got = {}

        def child(_):
            yield Charge(usec(2_000))

        def main():
            buf = yield from unistd.profil()
            yield Charge(usec(1_000))
            tid = yield from threads.thread_create(
                child, None,
                flags=threads.THREAD_WAIT | threads.THREAD_BIND_LWP)
            yield from threads.thread_wait(tid)
            got["samples"] = dict(buf.samples)

        run_program(main, ncpus=2)
        assert got["samples"] == {"pid1-main": usec(1_189), "t2": usec(2_000),
                                  "lwp-1.1-idle": usec(157)}

    def test_disable(self):
        got = {}

        def main():
            buf = yield from unistd.profil()
            yield Charge(usec(1_000))
            before = buf.total_ns
            yield from unistd.profil(enable=False)
            yield Charge(usec(1_000))
            got["delta"] = buf.total_ns - before

        run_program(main)
        assert got["delta"] == 0


class TestPollYieldUname:
    def test_poll_waits_for_tty_input(self):
        from repro.kernel.fs.file import O_RDONLY
        got = []

        def main():
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            got.append((yield from unistd.poll(fd)))

        from repro.api import Simulator
        sim = Simulator()
        sim.spawn(main)
        sim.type_input(b"x", at_usec=3_000)
        sim.run()
        assert got == [1]
        assert sim.now_usec >= 3_000

    def test_uname_reports_ncpus(self):
        got = []

        def main():
            got.append((yield from unistd.uname()))

        run_program(main, ncpus=3)
        assert got[0]["ncpus"] == 3
        assert "SunOS" in got[0]["sysname"]

    def test_sched_yield_is_harmless_alone(self):
        def main():
            yield from unistd.sched_yield()

        sim, proc = run_program(main)
        assert proc.exit_status == 0
