"""Tests for the comparison models: liblwp, 1:1 kernel threads, and
scheduler activations."""

import pytest

from repro.api import Simulator
from repro.errors import ThreadError
from repro.hw.isa import Charge, GetContext
from repro.kernel.fs.file import O_RDONLY
from repro.models import activations, kernel_only, liblwp
from repro.runtime import unistd
from repro import threads
from repro.sim.clock import usec
from tests.conftest import run_program


class TestLiblwp:
    def test_threads_schedule_within_one_lwp(self):
        got = []

        def worker(tag):
            got.append(tag)
            yield from threads.thread_yield()
            got.append(tag + "-again")

        def main():
            a = yield from liblwp.lwp_create(worker, "a")
            b = yield from liblwp.lwp_create(worker, "b")
            yield from threads.thread_wait(a)
            yield from threads.thread_wait(b)
            ctx = yield GetContext()
            got.append(("lwps", len(ctx.process.live_lwps())))

        run_program(main, runtime_factory=liblwp.bootstrap_process)
        assert ("lwps", 1) in got

    def test_blocking_syscall_stalls_every_thread(self):
        """The defining liblwp deficiency: one blocking call freezes the
        whole application."""
        progress = []

        def compute(_):
            for _ in range(10):
                yield Charge(usec(100))
                t = yield from unistd.gettimeofday()
                progress.append(t)
                yield from threads.thread_yield()

        def main():
            yield from threads.thread_create(compute, None)
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            yield from unistd.read(fd, 1)  # blocks the only LWP
            yield from threads.thread_yield()

        sim = Simulator(ncpus=2)
        sim.kernel.runtime_factory = liblwp.bootstrap_process
        sim.spawn(main)
        sim.type_input(b"x", at_usec=100_000)
        sim.run(check_deadlock=False)
        # No compute progress before the input arrived at 100ms.
        assert all(t >= usec(100_000) for t in progress)

    def test_no_sigwaiting_growth(self):
        def main():
            ctx = yield GetContext()
            lib = ctx.process.threadlib
            assert isinstance(lib, liblwp.LiblwpLibrary)
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            yield from unistd.read(fd, 1)
            assert len(ctx.process.live_lwps()) == 1

        sim = Simulator()
        sim.kernel.runtime_factory = liblwp.bootstrap_process
        sim.spawn(main)
        sim.type_input(b"x", at_usec=100_000)
        sim.run()

    def test_lwp_flags_rejected(self):
        """One LWP, ever: every way to ask for another raises."""
        got = {}

        def body(_):
            yield Charge(usec(1))

        def main():
            ctx = yield GetContext()
            for flags in (threads.THREAD_BIND_LWP, threads.THREAD_NEW_LWP):
                with pytest.raises(ThreadError):
                    yield from threads.thread_create(body, None, flags=flags)
            with pytest.raises(ThreadError):
                yield from threads.thread_setconcurrency(3)
            got["lwps"] = len(ctx.process.live_lwps())

        run_program(main, runtime_factory=liblwp.bootstrap_process)
        assert got["lwps"] == 1

    def test_nbio_read_lets_other_threads_run(self):
        """The paper's mitigation: a non-blocking I/O library keeps the
        application alive during waits."""
        progress = []
        got = []

        def compute(_):
            for _ in range(5):
                yield Charge(usec(100))
                progress.append((yield from unistd.gettimeofday()))
                yield from threads.thread_yield()

        def main():
            from repro.kernel.fs.file import O_NONBLOCK
            yield from threads.thread_create(compute, None)
            fd = yield from unistd.open("/dev/tty",
                                        O_RDONLY | O_NONBLOCK)
            data = yield from liblwp.nbio_read(fd, 1)
            got.append(data)

        sim = Simulator()
        sim.kernel.runtime_factory = liblwp.bootstrap_process
        sim.spawn(main)
        sim.type_input(b"z", at_usec=10_000)
        sim.run(check_deadlock=False)
        assert got == [b"z"]
        # Compute progressed while the read was pending.
        assert any(t < usec(10_000) for t in progress)


class TestKernelOnly:
    def test_every_thread_gets_an_lwp(self):
        got = {}

        def worker(_):
            yield from unistd.sleep_usec(5_000)

        def main():
            ctx = yield GetContext()
            for _ in range(3):
                yield from kernel_only.thread_create(
                    worker, None, flags=threads.THREAD_WAIT)
            got["lwps"] = len(ctx.process.live_lwps())
            got["footprint"] = kernel_only.footprint(ctx.process)
            for _ in range(3):
                yield from threads.thread_wait(None)

        run_program(main, ncpus=2)
        assert got["lwps"] == 4  # main + 3 bound
        assert got["footprint"]["kernel_bytes"] == 4 * (8 * 1024 + 512)

    def test_model_detection(self):
        got = []

        def worker(_):
            yield from unistd.sleep_usec(2_000)

        def main():
            yield from kernel_only.thread_create(
                worker, None, flags=threads.THREAD_WAIT)
            got.append((yield from kernel_only.current_model()))
            yield from threads.thread_wait(None)

        run_program(main, ncpus=2)
        # main itself is unbound, so a mixed process reports M:N.
        assert got[0] in ("M:N", "1:1")


class TestActivations:
    def test_upcall_on_any_block(self):
        """Activations react to a *bounded* kernel block (nanosleep),
        which SIGWAITING would ignore, and the block keeps its deadline."""
        got = {}

        def sleeper(_):
            t0 = yield from unistd.gettimeofday()
            yield from unistd.sleep_usec(30_000)
            got["slept"] = (yield from unistd.gettimeofday()) - t0

        def compute(_):
            yield Charge(usec(500))
            got["computed_at"] = yield from unistd.gettimeofday()

        def main():
            yield from activations.enable_current()
            ctx = yield GetContext()
            tid1 = yield from threads.thread_create(
                sleeper, None, flags=threads.THREAD_WAIT)
            tid2 = yield from threads.thread_create(
                compute, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid2)
            got["pool"] = len(ctx.process.threadlib.pool_lwps)
            yield from threads.thread_wait(tid1)

        run_program(main, ncpus=2)
        # compute ran long before the sleeper's 30ms block ended.
        assert got["computed_at"] < usec(30_000)
        assert got["pool"] >= 2
        assert usec(30_000) <= got["slept"] < usec(31_000)

    def test_sigwaiting_alone_is_coarser(self):
        """Same scenario without activations: the bounded sleep never
        triggers SIGWAITING, so compute waits for the sleeper."""
        got = {}

        def sleeper(_):
            yield from unistd.sleep_usec(30_000)

        def compute(_):
            yield Charge(usec(500))
            got["computed_at"] = yield from unistd.gettimeofday()

        def main():
            yield from threads.thread_create(sleeper, None)
            tid = yield from threads.thread_create(
                compute, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert got["computed_at"] >= usec(30_000)
