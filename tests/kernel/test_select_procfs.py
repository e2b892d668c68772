"""Tests for select() multi-descriptor waiting, poll(), and /proc as
real files."""

import pytest

from repro.api import Simulator
from repro.errors import DeadlockError, Errno, SyscallError
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


    @pytest.mark.parametrize("timeout_ns", [None, 3_000_000])
    def test_no_descriptors_returns_at_once(self, timeout_ns):
        """Nothing can wake a wait on no descriptors: it never sleeps."""
        got = []

        def main():
            t0 = yield from unistd.gettimeofday()
            r = yield from unistd.select([], timeout_ns=timeout_ns)
            t1 = yield from unistd.gettimeofday()
            got.append((r, t1 - t0))

        run_program(main)
        [(ready, elapsed)] = got
        assert ready == []
        assert elapsed < 1_000_000

    def test_poll_on_an_empty_pipe_waits_for_the_writer(self):
        """An empty pipe with a writer is not readable: poll sleeps until
        the bound writer's data lands 5 ms in."""
        got = {}

        def writer(wfd):
            yield from unistd.sleep_usec(5_000)
            yield from unistd.write(wfd, b"x")

        def main():
            rfd, wfd = yield from unistd.pipe()
            yield from threads.thread_create(
                writer, wfd, flags=threads.THREAD_BIND_LWP)
            got["poll"] = yield from unistd.poll(rfd)
            got["t"] = yield from unistd.gettimeofday()
            got["data"] = yield from unistd.read(rfd, 1)

        run_program(main)
        assert got["poll"] == 1
        assert got["t"] >= 5_000_000
        assert got["data"] == b"x"

    def test_one_select_wakes_on_each_kind_in_turn(self):
        """A tty, a pipe and a listening socket in one select: tty input
        at 5 ms, then pipe data, then a connection from a bound thread,
        each consumed before the next select."""
        got = []
        sent = []

        def poker(wfd):
            yield from unistd.sleep_usec(10_000)
            sent.append((yield from unistd.gettimeofday()))
            yield from unistd.write(wfd, b"p")
            yield from unistd.sleep_usec(5_000)
            cfd = yield from unistd.socket()
            sent.append((yield from unistd.gettimeofday()))
            yield from unistd.connect(cfd, 6401)

        def main():
            tty = yield from unistd.open("/dev/tty", O_RDONLY)
            rfd, wfd = yield from unistd.pipe()
            lfd = yield from unistd.socket()
            yield from unistd.bind(lfd, 6401)
            yield from unistd.listen(lfd, 4)
            yield from threads.thread_create(
                poker, wfd, flags=threads.THREAD_BIND_LWP)
            for consume in ((unistd.read, tty, 1), (unistd.read, rfd, 1),
                            (unistd.accept, lfd)):
                r = yield from unistd.select([tty, rfd, lfd])
                t = yield from unistd.gettimeofday()
                got.append((r, t))
                call, *args = consume
                yield from call(*args)

        sim = Simulator()
        sim.spawn(main)
        sim.type_input(b"t", at_usec=5_000)
        sim.run()
        assert [r for r, _t in got] == [[0], [1], [3]]
        # Each wake follows its event within a millisecond.
        for (_r, woke), at in zip(got, [5_000_000] + sent):
            assert at <= woke < at + 1_000_000

    def test_last_writer_closing_makes_the_pipe_ready(self):
        """EOF is readable: the select returns the pipe when its last
        writer closes, and the read finds EOF."""
        got = []

        def closer(wfd):
            yield from unistd.sleep_usec(5_000)
            yield from unistd.close(wfd)

        def main():
            rfd, wfd = yield from unistd.pipe()
            yield from threads.thread_create(
                closer, wfd, flags=threads.THREAD_BIND_LWP)
            r = yield from unistd.select([rfd])
            t = yield from unistd.gettimeofday()
            data = yield from unistd.read(rfd, 1)
            got.append((r == [rfd], t >= 5_000_000, data))

        run_program(main)
        assert got == [(True, True, b"")]

    def test_a_hang_names_every_descriptor_the_select_waits_on(self):
        def main():
            tty = yield from unistd.open("/dev/tty", O_RDONLY)
            rfd, _wfd = yield from unistd.pipe()
            yield from unistd.select([tty, rfd])

        with pytest.raises(DeadlockError) as err:
            run_program(main)
        assert ("lwp-1.1:select [readable: fd 0 tty:tty, fd 1 fifo:pipe:1]"
                in str(err.value))


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
