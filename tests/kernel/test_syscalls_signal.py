"""Tests for kernel signal delivery: handlers, masks, traps vs
interrupts, process pending, default actions, counted delivery."""

import pytest

from repro.errors import Errno, SyscallError
from repro.hw.isa import Charge, Syscall
from repro.kernel.signals import (SIG_BLOCK, SIG_DFL, SIG_IGN, SIG_UNBLOCK,
                                  Sig, Sigset)
from repro.runtime import unistd
from repro.sim.clock import usec
from tests.conftest import run_program


class TestHandlers:
    def test_handler_runs_on_kill(self):
        hits = []

        def handler(sig):
            hits.append(sig)
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(100)

        run_program(main)
        assert hits == [int(Sig.SIGUSR1)]

    def test_handler_may_be_plain_function(self):
        hits = []

        def handler(sig):
            hits.append(sig)

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR2), handler)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR2))
            yield from unistd.sleep_usec(100)

        run_program(main)
        assert hits == [int(Sig.SIGUSR2)]

    def test_sigaction_returns_previous(self):
        got = []

        def h1(sig):
            yield

        def main():
            old = yield from unistd.sigaction(int(Sig.SIGUSR1), h1)
            got.append(old)
            old = yield from unistd.sigaction(int(Sig.SIGUSR1), SIG_IGN)
            got.append(old)

        run_program(main)
        assert got == [SIG_DFL, h1]

    def test_ignored_signal_dropped(self):
        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), SIG_IGN)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(100)

        sim, proc = run_program(main)
        assert proc.exit_status == 0

    def test_cannot_catch_sigkill(self):
        caught = []

        def main():
            try:
                yield from unistd.sigaction(int(Sig.SIGKILL), SIG_IGN)
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.EINVAL]


class TestDefaultActions:
    def test_sigterm_kills_process(self):
        def victim():
            yield from unistd.pause()

        def main():
            pid = yield from unistd.fork1(victim)
            yield from unistd.sleep_usec(1_000)
            yield from unistd.kill(pid, int(Sig.SIGTERM))
            got.append((yield from unistd.waitpid(pid)))

        got = []
        run_program(main)
        assert got[0][1] == 128 + int(Sig.SIGTERM)

    def test_sigkill_unconditional(self):
        def victim():
            # Even "catching" SIGKILL is impossible; it just dies.
            while True:
                yield Charge(usec(1_000))

        def main():
            pid = yield from unistd.fork1(victim)
            yield from unistd.sleep_usec(2_000)
            yield from unistd.kill(pid, int(Sig.SIGKILL))
            got.append((yield from unistd.waitpid(pid)))

        got = []
        run_program(main)
        assert got[0][1] == 128 + int(Sig.SIGKILL)

    def test_stop_and_continue(self):
        progress = []

        def victim():
            for i in range(20):
                yield Charge(usec(500))
                progress.append((yield from unistd.gettimeofday()))

        def main():
            pid = yield from unistd.fork1(victim)
            yield from unistd.sleep_usec(1_200)
            yield from unistd.kill(pid, int(Sig.SIGSTOP))
            yield from unistd.sleep_usec(20_000)   # stopped window
            yield from unistd.kill(pid, int(Sig.SIGCONT))
            yield from unistd.waitpid(pid)

        run_program(main, ncpus=2)
        gaps = [b - a for a, b in zip(progress, progress[1:])]
        # There must be one huge gap (the stopped window).
        assert max(gaps) >= usec(15_000)

    def test_sigchld_ignored_by_default(self):
        def kid():
            return
            yield

        def main():
            pid = yield from unistd.fork1(kid)
            yield from unistd.waitpid(pid)

        sim, proc = run_program(main)
        assert proc.exit_status == 0


class TestMasks:
    def test_masked_signal_pends_then_delivers(self):
        hits = []

        def handler(sig):
            hits.append("handled")
            yield Charge(usec(1))

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            yield from unistd.sigprocmask(SIG_BLOCK,
                                          Sigset([Sig.SIGUSR1]))
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(500)
            hits.append("before-unmask")
            yield from unistd.sigprocmask(SIG_UNBLOCK,
                                          Sigset([Sig.SIGUSR1]))
            yield from unistd.sleep_usec(100)

        run_program(main)
        assert hits == ["before-unmask", "handled"]

    def test_sigprocmask_returns_old(self):
        got = []

        def main():
            old = yield from unistd.sigprocmask(
                SIG_BLOCK, Sigset([Sig.SIGUSR1]))
            got.append(Sig.SIGUSR1 in old)
            old = yield from unistd.sigprocmask(
                SIG_BLOCK, Sigset([Sig.SIGUSR2]))
            got.append(Sig.SIGUSR1 in old)

        run_program(main)
        assert got == [False, True]

    def test_sigpending_reports(self):
        got = []

        def handler(sig):
            yield

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            yield from unistd.sigprocmask(SIG_BLOCK,
                                          Sigset([Sig.SIGUSR1]))
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(100)
            pending = yield from unistd.syscall("sigpending")
            got.append(Sig.SIGUSR1 in pending)

        run_program(main)
        assert got == [True]

    def test_handler_masks_own_signal_during_run(self):
        order = []

        def handler(sig):
            order.append("enter")
            # Re-raising during the handler must not recurse.
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield Charge(usec(10))
            order.append("exit")

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(1_000)

        run_program(main)
        # Second delivery happens only after the first handler returned.
        assert order[:2] == ["enter", "exit"]


class TestInterruption:
    def test_signal_interrupts_sleep_with_eintr(self):
        caught = []

        def handler(sig):
            yield Charge(usec(1))

        def sleeper():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            try:
                yield from unistd.nanosleep(usec(1_000_000))
            except SyscallError as err:
                caught.append(err.errno)

        def main():
            pid = yield from unistd.fork1(sleeper)
            yield from unistd.sleep_usec(5_000)
            yield from unistd.kill(pid, int(Sig.SIGUSR1))
            yield from unistd.waitpid(pid)

        run_program(main)
        assert caught == [Errno.EINTR]

    def test_pause_returns_on_signal(self):
        resumed = []

        def handler(sig):
            yield Charge(usec(1))

        def pauser():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            try:
                yield from unistd.pause()
            except SyscallError as err:
                resumed.append(err.errno)

        def main():
            pid = yield from unistd.fork1(pauser)
            yield from unistd.sleep_usec(5_000)
            yield from unistd.kill(pid, int(Sig.SIGUSR1))
            yield from unistd.waitpid(pid)

        run_program(main)
        assert resumed == [Errno.EINTR]

    def test_restart_handler_resumes_sleep(self):
        """SA_RESTART: the interrupted nanosleep completes in full."""
        hits = []
        got = {}

        def handler(sig):
            hits.append(sig)
            yield Charge(usec(1))

        def sleeper():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler,
                                        restart=True)
            t0 = yield from unistd.gettimeofday()
            got["ret"] = yield from unistd.nanosleep(usec(50_000))
            t1 = yield from unistd.gettimeofday()
            got["slept_usec"] = (t1 - t0) / 1000

        def main():
            pid = yield from unistd.fork1(sleeper)
            yield from unistd.sleep_usec(10_000)
            yield from unistd.kill(pid, int(Sig.SIGUSR1))
            yield from unistd.waitpid(pid)

        run_program(main)
        assert hits  # the handler did run
        assert got["ret"] == 0
        assert 50_000 <= got["slept_usec"] < 50_500  # the sleep completed


class TestCountedDelivery:
    def test_delivered_never_exceeds_sent(self):
        """"the number of signals received by the process is less than or
        equal to the number sent"."""
        hits = []

        def handler(sig):
            hits.append(1)
            yield Charge(usec(5))

        def main():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler)
            me = yield from unistd.getpid()
            for _ in range(5):
                yield from unistd.kill(me, int(Sig.SIGUSR1))
            yield from unistd.sleep_usec(5_000)

        sim, proc = run_program(main)
        sent = proc.signals.sent_count[Sig.SIGUSR1]
        delivered = proc.signals.delivered_count[Sig.SIGUSR1]
        assert sent == 5
        assert delivered <= sent
        assert len(hits) == delivered

    def test_kill_bad_pid_esrch(self):
        caught = []

        def main():
            try:
                yield from unistd.kill(999, int(Sig.SIGUSR1))
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.ESRCH]
