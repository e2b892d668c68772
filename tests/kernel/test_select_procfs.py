"""Tests for select() multi-descriptor waiting and /proc as real files."""

import pytest

from repro.api import Simulator
from repro.errors import Errno, SyscallError
from repro.kernel.fs.file import O_NONBLOCK, O_RDONLY, O_WRONLY
from repro.runtime import unistd
from repro import threads
from tests.conftest import run_program


class TestSelect:
    def test_timeout_returns_empty(self):
        got = []

        def main():
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            t0 = yield from unistd.gettimeofday()
            r = yield from unistd.select([fd], timeout_ns=3_000_000)
            t1 = yield from unistd.gettimeofday()
            got.append((r, t1 - t0 >= 3_000_000))

        run_program(main)
        assert got == [([], True)]

    def test_wakes_on_tty_input(self):
        got = []

        def main():
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            r = yield from unistd.select([fd])
            got.append(r == [fd])

        sim = Simulator()
        sim.spawn(main)
        sim.type_input(b"x", at_usec=10_000)
        sim.run()
        assert got == [True]
        assert sim.now_usec >= 10_000

    def test_multiple_fds_first_ready_wins(self):
        got = []

        def writer():
            fd = yield from unistd.open("/tmp/b", O_WRONLY)
            yield from unistd.sleep_usec(5_000)
            yield from unistd.write(fd, b"data")
            yield from unistd.close(fd)

        def main():
            yield from unistd.mkfifo("/tmp/a")
            yield from unistd.mkfifo("/tmp/b")
            pid_b = yield from unistd.fork1(writer)
            afd = yield from unistd.open("/tmp/a",
                                         O_RDONLY | O_NONBLOCK)
            bfd = yield from unistd.open("/tmp/b", O_RDONLY)
            # Keep /tmp/a writable so it is not EOF-ready.
            awfd = yield from unistd.open("/tmp/a",
                                          O_WRONLY | O_NONBLOCK)
            r = yield from unistd.select([afd, bfd])
            got.append(r == [bfd])
            yield from unistd.waitpid(pid_b)

        run_program(main)
        assert got == [True]

    @pytest.mark.parametrize("kind", ["socket", "pipe"])
    def test_timeout_ends_the_sleep_at_the_deadline(self, kind):
        """Both select paths (all-socket and generic) sleep until the
        deadline and return []."""
        got = []

        def main():
            if kind == "socket":
                fd = yield from unistd.socket()
                yield from unistd.bind(fd, 6400)
                yield from unistd.listen(fd, 4)
            else:
                fd, _wfd = yield from unistd.pipe()
            t0 = yield from unistd.gettimeofday()
            r = yield from unistd.select([fd], timeout_ns=3_000_000)
            t1 = yield from unistd.gettimeofday()
            got.append((r, t1 - t0))

        run_program(main)
        [(ready, elapsed)] = got
        assert ready == []
        assert 3_000_000 <= elapsed < 3_500_000

    def test_zero_timeout_is_probe(self):
        got = []

        def main():
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            r = yield from unistd.select([fd], timeout_ns=0)
            got.append(r)

        run_program(main)
        assert got == [[]]

    def test_regular_file_always_ready(self):
        got = []

        def main():
            fd = yield from unistd.creat("/tmp/f")
            r = yield from unistd.select([fd])
            got.append(r == [fd])

        run_program(main)
        assert got == [True]

    def test_select_sleep_is_indefinite_for_sigwaiting(self):
        """A select with no timeout counts as an indefinite wait, so
        SIGWAITING can rescue starved threads behind it."""
        from repro.hw.isa import Charge, GetContext
        from repro.sim.clock import usec
        got = {}

        def selector(_):
            fd = yield from unistd.open("/dev/tty", O_RDONLY)
            yield from unistd.select([fd])

        def compute(_):
            yield Charge(usec(500))
            got["done"] = yield from unistd.gettimeofday()

        def main():
            yield from threads.thread_create(selector, None)
            tid = yield from threads.thread_create(
                compute, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)

        sim = Simulator(ncpus=2)
        sim.spawn(main)
        sim.type_input(b"x", at_usec=500_000)
        sim.run(check_deadlock=False)
        assert got["done"] < 100_000_000  # freed long before the input


class TestProcFiles:
    def test_read_own_status(self):
        got = []

        def main():
            me = yield from unistd.getpid()
            fd = yield from unistd.open(f"/proc/{me}/status", O_RDONLY)
            got.append((yield from unistd.read(fd, 4096)).decode())

        run_program(main)
        assert "pid:\t1" in got[0]
        assert "lwp 1:" in got[0]

    def test_read_other_process_lwps(self):
        got = []

        def sleeper():
            yield from unistd.sleep_usec(50_000)

        def main():
            pid = yield from unistd.fork1(sleeper)
            yield from unistd.sleep_usec(5_000)
            fd = yield from unistd.open(f"/proc/{pid}/lwps", O_RDONLY)
            got.append((yield from unistd.read(fd, 4096)).decode())
            yield from unistd.waitpid(pid)

        run_program(main)
        assert "sleeping" in got[0]

    def test_status_reflects_live_state(self):
        """/proc regenerates on read: LWP counts change between reads."""
        got = []

        def idler(_):
            yield from unistd.sleep_usec(30_000)

        def main():
            me = yield from unistd.getpid()
            fd = yield from unistd.open(f"/proc/{me}/status", O_RDONLY)
            first = (yield from unistd.read(fd, 4096)).decode()
            yield from threads.thread_create(
                idler, None, flags=threads.THREAD_BIND_LWP)
            yield from unistd.sleep_usec(5_000)
            fd2 = yield from unistd.open(f"/proc/{me}/status", O_RDONLY)
            second = (yield from unistd.read(fd2, 4096)).decode()
            got.append((first, second))
            yield from unistd.sleep_usec(50_000)

        run_program(main, ncpus=2, check_deadlock=False)
        first, second = got[0]
        assert "nlwp:\t1" in first
        assert "nlwp:\t2" in second

    def test_unknown_pid_enoent(self):
        caught = []

        def main():
            try:
                yield from unistd.open("/proc/999/status", O_RDONLY)
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.ENOENT]

    def test_proc_files_read_only(self):
        caught = []

        def main():
            me = yield from unistd.getpid()
            fd = yield from unistd.open(f"/proc/{me}/status", O_RDONLY)
            try:
                yield from unistd.write(fd, b"hack")
            except SyscallError as err:
                caught.append(err.errno)

        run_program(main)
        assert caught == [Errno.EBADF]
