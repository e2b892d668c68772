"""Tests for the CPU executor: effect interpretation, time charging,
kernel boundary costs, preemption mechanics.

These run real (tiny) programs through a full Simulator and assert on
timing and accounting, since the CPU cannot meaningfully run without a
kernel behind it.
"""

import pytest

from repro.api import Simulator
from repro.errors import SimulationError
from repro.hw.isa import Block, Charge, GetContext, Setjmp, Longjmp, Syscall
from repro.sim.clock import usec
from tests.conftest import run_program


class TestCharging:
    def test_charge_advances_time(self):
        def main():
            yield Charge(usec(100))

        sim, _ = run_program(main)
        # Boot dispatch + 100us compute.
        assert sim.now_usec >= 100

    def test_charge_accounted_to_lwp_and_cpu(self):
        def main():
            yield Charge(usec(250))

        sim, proc = run_program(main)
        cpu = sim.machine.cpus[0]
        assert cpu.user_ns >= usec(250)
        assert proc.rusage()["user_ns"] >= usec(250)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Charge(-5)

    def test_zero_charge_is_free(self):
        def main():
            before = yield Syscall("gettimeofday")
            yield Charge(0)
            after = yield Syscall("gettimeofday")
            deltas.append(after - before)

        deltas = []
        run_program(main)
        # Only the two gettimeofday syscalls cost anything.
        assert deltas[0] == usec(15 + 5 + 15)


class TestGetContext:
    def test_context_fields(self):
        seen = {}

        def main():
            ctx = yield GetContext()
            seen["pid"] = ctx.process.pid
            seen["thread"] = ctx.thread
            seen["lwp"] = ctx.lwp
            seen["kernel"] = ctx.kernel

        sim, proc = run_program(main)
        assert seen["pid"] == proc.pid
        assert seen["lwp"].process is proc
        assert seen["thread"].thread_id == 1
        assert seen["kernel"] is sim.kernel


class TestSetjmpLongjmp:
    def test_pair_costs_59us(self):
        def main():
            t0 = yield Syscall("gettimeofday")
            token = yield Setjmp()
            yield Longjmp(token)
            t1 = yield Syscall("gettimeofday")
            times.append((t1 - t0) / 1000)

        times = []
        run_program(main)
        timer_overhead = 15 + 5 + 15
        assert times[0] == pytest.approx(59 + timer_overhead)


class TestSyscallBoundary:
    def test_entry_exit_charged_as_kernel_time(self):
        def main():
            yield Syscall("getpid")

        sim, _ = run_program(main)
        assert sim.machine.cpus[0].kernel_ns >= usec(35)

    def test_unknown_syscall_is_enosys(self):
        from repro.errors import Errno, SyscallError

        caught = []

        def main():
            try:
                yield Syscall("frobnicate")
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.ENOSYS]

    def test_syscall_counted(self):
        def main():
            yield Syscall("getpid")
            yield Syscall("getpid")

        sim, _ = run_program(main)
        assert sim.syscall_counts()["getpid"] == 2


class TestBlockEffectRules:
    def test_user_mode_block_is_rejected(self):
        from repro.hw.isa import WaitChannel

        def main():
            yield Block(WaitChannel("nope"))

        with pytest.raises(SimulationError, match="user mode"):
            run_program(main)


class TestUnknownEffect:
    """An effect type missing from the CPU's dispatch table is an error,
    and so is a subclass of an effect: none is resolved to its base."""

    def test_a_non_effect_is_unknown(self):
        def main():
            yield 42

        with pytest.raises(SimulationError, match="unknown effect: 42"):
            run_program(main)

    def test_a_syscall_subclass_is_unknown(self):
        class Getpid(Syscall):
            __slots__ = ()

        def main():
            yield Getpid("getpid")

        with pytest.raises(SimulationError, match="unknown effect: "
                                                  r"Syscall\(getpid"):
            run_program(main)


class TestMultiCpu:
    def test_two_processes_run_in_parallel(self):
        """On 2 CPUs, two compute-bound processes overlap, halving
        wall-clock versus serial execution."""
        def burner():
            yield Charge(usec(10_000))

        sim = Simulator(ncpus=2)
        sim.spawn(burner)
        sim.spawn(burner)
        sim.run()
        assert sim.now_usec < 10_000 * 1.5  # clearly overlapped

    def test_uniprocessor_serializes(self):
        def burner():
            yield Charge(usec(10_000))

        sim = Simulator(ncpus=1)
        sim.spawn(burner)
        sim.spawn(burner)
        sim.run()
        assert sim.now_usec >= 20_000

    def test_utilization_report(self):
        def burner():
            yield Charge(usec(1_000))

        sim = Simulator(ncpus=2)
        sim.spawn(burner)
        sim.run()
        util = sim.utilization()
        assert util["busy_ns"] > 0
        assert 0 < util["utilization"] <= 1
