"""Socket syscall semantics (repro.kernel.net + net_calls).

BSD stream-socket behavior, loopback-only: handshakes complete on the
backlog, EOF is an empty read, RST surfaces as ECONNRESET, and a send
into a closed peer is SIGPIPE-then-EPIPE.  Everything here runs threads
of one process talking to themselves — the network is a kernel-global
port namespace, not an interface.
"""

import pytest

from repro.errors import Errno, SyscallError
from repro.hw.isa import GetContext
from repro.kernel.fs.file import O_NONBLOCK
from repro.kernel.signals import SIG_IGN, Sig
from repro.runtime import unistd
from repro.threads import api as threads
from tests.conftest import run_program

PORT = 5000


def _listener(port=PORT, backlog=4):
    lfd = yield from unistd.socket()
    yield from unistd.bind(lfd, port)
    yield from unistd.listen(lfd, backlog)
    return lfd


class TestHandshake:
    def test_connect_send_accept_recv_round_trip(self):
        got = {}

        def main():
            lfd = yield from _listener()

            def client(_):
                fd = yield from unistd.socket()
                yield from unistd.connect(fd, PORT)
                yield from unistd.send(fd, b"ping")
                got["reply"] = yield from unistd.recv(fd, 16)
                yield from unistd.close(fd)

            tid = yield from threads.thread_create(
                client, None, flags=threads.THREAD_WAIT)
            conn = yield from unistd.accept(lfd)
            got["req"] = yield from unistd.recv(conn, 16)
            yield from unistd.send(conn, b"pong")
            yield from threads.thread_wait(tid)
            yield from unistd.close(conn)
            yield from unistd.close(lfd)

        run_program(main)
        assert got == {"req": b"ping", "reply": b"pong"}

    def test_connect_completes_before_accept(self):
        # BSD semantics: the handshake finishes on the backlog; the
        # client may send before the server ever calls accept.
        got = {}

        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            yield from unistd.send(fd, b"early")
            conn = yield from unistd.accept(lfd)
            got["data"] = yield from unistd.recv(conn, 16)

        run_program(main)
        assert got["data"] == b"early"

    def test_bind_in_use_raises_eaddrinuse(self):
        def main():
            yield from _listener()
            fd = yield from unistd.socket()
            with pytest.raises(SyscallError) as exc:
                yield from unistd.bind(fd, PORT)
            assert exc.value.errno == Errno.EADDRINUSE

        run_program(main)

    def test_connect_no_listener_refused(self):
        def main():
            fd = yield from unistd.socket()
            with pytest.raises(SyscallError) as exc:
                yield from unistd.connect(fd, 4999)
            assert exc.value.errno == Errno.ECONNREFUSED

        run_program(main)

    def test_backlog_overflow_refuses_and_counts(self):
        refused = []

        def main():
            yield from _listener(backlog=2)
            for _ in range(4):
                fd = yield from unistd.socket()
                try:
                    yield from unistd.connect(fd, PORT)
                except SyscallError as err:
                    assert err.errno == Errno.ECONNREFUSED
                    refused.append(fd)

        sim, _ = run_program(main)
        assert len(refused) == 2
        assert sim.kernel.net.backlog_drops == 2


class TestTeardown:
    def test_clean_close_is_eof(self):
        got = {}

        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.send(conn, b"bye")
            yield from unistd.close(conn)
            got["data"] = yield from unistd.recv(fd, 16)
            got["eof"] = yield from unistd.recv(fd, 16)

        run_program(main)
        assert got == {"data": b"bye", "eof": b""}

    def test_close_with_unread_data_resets_peer(self):
        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.send(fd, b"unread")
            # conn still has 6 buffered bytes: closing answers with RST.
            yield from unistd.close(conn)
            with pytest.raises(SyscallError) as exc:
                yield from unistd.recv(fd, 16)
            assert exc.value.errno == Errno.ECONNRESET

        sim, _ = run_program(main)
        assert sim.kernel.net.resets == 1

    def test_send_to_closed_peer_is_epipe_after_sigpipe(self):
        def main():
            yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.close(conn)
            with pytest.raises(SyscallError) as exc:
                yield from unistd.send(fd, b"into the void")
            assert exc.value.errno == Errno.EPIPE

        run_program(main)

    def test_sigpipe_default_kills_the_process(self):
        # Without SIG_IGN the same send never returns: SIGPIPE's default
        # disposition terminates the process mid-syscall.
        reached = []

        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.close(conn)
            try:
                yield from unistd.send(fd, b"x")
            finally:
                reached.append(True)

        sim, proc = run_program(main)
        assert not reached
        assert proc.exit_status == 128 + int(Sig.SIGPIPE)

    def test_closing_listener_aborts_pending_accept(self):
        got = {}

        def main():
            lfd = yield from _listener()

            def acceptor(_):
                try:
                    yield from unistd.accept(lfd)
                except SyscallError as err:
                    got["errno"] = err.errno

            # Bound: the acceptor must actually be parked inside
            # accept() (on its own LWP) when the listener goes away.
            tid = yield from threads.thread_create(
                acceptor, None,
                flags=threads.THREAD_WAIT | threads.THREAD_NEW_LWP)
            yield from unistd.sleep_usec(500.0)
            yield from unistd.close(lfd)
            yield from threads.thread_wait(tid)

        run_program(main)
        assert got["errno"] == Errno.ECONNABORTED


class TestNonBlockingAndSelect:
    def test_nonblock_accept_and_recv_eagain(self):
        def main():
            lfd = yield from unistd.socket(O_NONBLOCK)
            yield from unistd.bind(lfd, PORT)
            yield from unistd.listen(lfd, 4)
            with pytest.raises(SyscallError) as exc:
                yield from unistd.accept(lfd)
            assert exc.value.errno == Errno.EAGAIN

            fd = yield from unistd.socket(O_NONBLOCK)
            yield from unistd.connect(fd, PORT)
            with pytest.raises(SyscallError) as exc:
                yield from unistd.recv(fd, 16)
            assert exc.value.errno == Errno.EAGAIN

        run_program(main)

    def test_select_sees_socket_readiness(self):
        got = {}

        def main():
            lfd = yield from _listener()
            ready = yield from unistd.select([lfd], timeout_ns=1000)
            got["idle"] = list(ready)
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            ready = yield from unistd.select([lfd], timeout_ns=1000)
            got["pending"] = list(ready)
            conn = yield from unistd.accept(lfd)
            yield from unistd.send(fd, b"hi")
            ready = yield from unistd.select([conn], timeout_ns=1000)
            got["readable"] = list(ready)

        run_program(main)
        assert got["idle"] == []
        assert got["pending"] != []
        assert got["readable"] != []

    def test_timed_select_on_a_ready_socket_arms_no_timer(self):
        """A select that finds its socket readable never sleeps, so its
        timeout costs nothing: it takes exactly the event-queue sequence
        numbers the untimed call takes."""
        def seqs_taken(timeout_ns):
            got = {}

            def main():
                lfd = yield from _listener()
                fd = yield from unistd.socket()
                yield from unistd.connect(fd, PORT)
                ctx = yield GetContext()
                before = ctx.engine.queue._seq
                ready = yield from unistd.select([lfd], timeout_ns=timeout_ns)
                got["seqs"] = ctx.engine.queue._seq - before
                got["ready"] = ready == [lfd]

            run_program(main)
            assert got["ready"]
            return got["seqs"]

        assert seqs_taken(1_000_000) == seqs_taken(None)

    def test_shutdown_write_delivers_eof_not_reset(self):
        got = {}

        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.send(fd, b"last")
            yield from unistd.shutdown(fd)   # SHUT_WR
            got["data"] = yield from unistd.recv(conn, 16)
            got["eof"] = yield from unistd.recv(conn, 16)
            # The other direction still works.
            yield from unistd.send(conn, b"back")
            got["reply"] = yield from unistd.recv(fd, 16)

        run_program(main)
        assert got == {"data": b"last", "eof": b"", "reply": b"back"}
