"""The four network fault rules (repro.sim.faults) against real sockets.

Each rule is exercised at probability 1.0 for visible behavior, then the
whole composed plan is serialized, rebuilt, and replayed to an identical
trace digest — the property every CI repro bundle depends on.
"""

import pytest

from repro.api import Simulator
from repro.errors import Errno, SyscallError
from repro.hw.isa import Charge
from repro.kernel.signals import SIG_IGN, Sig
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.faults import (AcceptStall, ConnDrop, FaultPlan, PacketDelay,
                              PeerReset)
from repro.sim.trace import DigestSink
from repro.threads import api as threads
from tests.conftest import run_program

PORT = 5800


def _listener(port=PORT, backlog=4):
    lfd = yield from unistd.socket()
    yield from unistd.bind(lfd, port)
    yield from unistd.listen(lfd, backlog)
    return lfd


class TestConnDrop:
    def test_refuse_mode(self):
        def main():
            yield from _listener()
            fd = yield from unistd.socket()
            with pytest.raises(SyscallError) as exc:
                yield from unistd.connect(fd, PORT)
            assert exc.value.errno == Errno.ECONNREFUSED

        plan = FaultPlan([ConnDrop(port=PORT, mode="refuse")])
        run_program(main, faults=plan)

    def test_timeout_mode_waits_out_the_handshake(self):
        stamps = {}

        def main():
            yield from _listener()
            fd = yield from unistd.socket()
            stamps["start"] = yield from unistd.gettimeofday()
            with pytest.raises(SyscallError) as exc:
                yield from unistd.connect(fd, PORT)
            assert exc.value.errno == Errno.ETIMEDOUT
            stamps["end"] = yield from unistd.gettimeofday()

        plan = FaultPlan([ConnDrop(port=PORT, mode="timeout",
                                   timeout_usec=4_000.0)])
        run_program(main, faults=plan)
        assert 4_000.0 <= (stamps["end"] - stamps["start"]) / 1000.0 < 4_500.0

    def test_other_ports_unaffected(self):
        def main():
            yield from _listener(port=PORT + 1)
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT + 1)

        plan = FaultPlan([ConnDrop(port=PORT, mode="refuse")])
        run_program(main, faults=plan)


class TestAcceptStall:
    def test_stall_delays_the_accept(self):
        stamps = {}

        def main():
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            stamps["start"] = yield from unistd.gettimeofday()
            yield from unistd.accept(lfd)
            stamps["end"] = yield from unistd.gettimeofday()

        plan = FaultPlan([AcceptStall(port=PORT, stall_usec=3_000.0)])
        run_program(main, faults=plan)
        assert 3_000.0 <= (stamps["end"] - stamps["start"]) / 1000.0 < 3_500.0
        # The connection still lands: a stall is pressure, not loss.


class TestRestartSignalDuringTheWait:
    """A caught SA_RESTART signal wakes the injected wait early; the
    call sleeps out the rest of it, as nanosleep does."""

    @pytest.mark.parametrize("call", ["connect", "accept"])
    def test_the_wait_still_lasts_its_full_length(self, call):
        got = {}

        def handler(sig):
            got["signalled"] = True
            yield Charge(usec(1))

        def child():
            yield from unistd.sigaction(int(Sig.SIGUSR1), handler,
                                        restart=True)
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            if call == "accept":
                yield from unistd.connect(fd, PORT)
            start = yield from unistd.gettimeofday()
            if call == "accept":
                yield from unistd.accept(lfd)
            else:
                with pytest.raises(SyscallError) as exc:
                    yield from unistd.connect(fd, PORT)
                assert exc.value.errno == Errno.ETIMEDOUT
            end = yield from unistd.gettimeofday()
            got["waited_usec"] = (end - start) / 1000.0

        def main():
            pid = yield from unistd.fork1(child)
            yield from unistd.sleep_usec(1_000)
            yield from unistd.kill(pid, int(Sig.SIGUSR1))
            yield from unistd.waitpid(pid)

        rule = (AcceptStall(port=PORT, stall_usec=10_000.0)
                if call == "accept" else
                ConnDrop(port=PORT, mode="timeout", timeout_usec=10_000.0))
        run_program(main, faults=FaultPlan([rule]))
        assert got["signalled"]
        assert 10_000.0 <= got["waited_usec"] < 10_500.0


class TestPacketDelay:
    def test_transfer_latency_added(self):
        def run(plan):
            stamps = {}

            def main():
                lfd = yield from _listener()
                fd = yield from unistd.socket()
                yield from unistd.connect(fd, PORT)
                conn = yield from unistd.accept(lfd)
                stamps["start"] = yield from unistd.gettimeofday()
                yield from unistd.send(fd, b"x" * 64)
                yield from unistd.recv(conn, 64)
                stamps["end"] = yield from unistd.gettimeofday()

            run_program(main, faults=plan, seed=3)
            return (stamps["end"] - stamps["start"]) / 1000.0

        base = run(None)
        delayed = run(FaultPlan([PacketDelay(op="*", max_usec=2_000.0)]))
        assert delayed > base


class TestPeerReset:
    def test_send_reset_mid_stream(self):
        def main():
            yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            with pytest.raises(SyscallError) as exc:
                yield from unistd.send(fd, b"doomed")
            assert exc.value.errno == Errno.ECONNRESET
            # The other endpoint observes the same reset.
            with pytest.raises(SyscallError) as exc:
                yield from unistd.recv(conn, 16)
            assert exc.value.errno == Errno.ECONNRESET

        plan = FaultPlan([PeerReset(op="send")])
        sim, _ = run_program(main, faults=plan)
        assert sim.kernel.net.resets == 1

    def test_pattern_selects_one_side(self):
        # Pattern matches only server-side endpoints; the client's send
        # is untouched, the server's reply triggers the reset.
        def main():
            yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
            lfd = yield from _listener()
            fd = yield from unistd.socket()
            yield from unistd.connect(fd, PORT)
            conn = yield from unistd.accept(lfd)
            yield from unistd.send(fd, b"fine")
            with pytest.raises(SyscallError) as exc:
                yield from unistd.send(conn, b"doomed")
            assert exc.value.errno == Errno.ECONNRESET

        plan = FaultPlan([PeerReset(op="send", pattern=f"sock:{PORT}#*")])
        run_program(main, faults=plan)


class TestComposedReplay:
    """Serialized net-fault plans replay to identical trace digests."""

    PLAN = FaultPlan([
        ConnDrop(port=PORT, mode="refuse", probability=0.3),
        AcceptStall(port=PORT, stall_usec=500.0, probability=0.4),
        PacketDelay(op="*", max_usec=300.0, probability=0.5),
        PeerReset(op="send", probability=0.1),
    ])

    def _digest(self, faults_dict: dict, seed: int) -> str:
        stats = {"ok": 0, "failed": 0}

        def echo_main():
            yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
            lfd = yield from _listener()

            def server(_):
                for _ in range(6):
                    try:
                        conn = yield from unistd.accept(lfd)
                        data = yield from unistd.recv(conn, 16)
                        if data:
                            yield from unistd.send(conn, data)
                        yield from unistd.close(conn)
                    except SyscallError:
                        pass

            tid = yield from threads.thread_create(
                server, None,
                flags=threads.THREAD_WAIT | threads.THREAD_NEW_LWP)
            for i in range(6):
                fd = yield from unistd.socket()
                try:
                    yield from unistd.connect(fd, PORT)
                    yield from unistd.send(fd, b"ping")
                    yield from unistd.recv(fd, 16)
                    stats["ok"] += 1
                except SyscallError:
                    stats["failed"] += 1
                    # The server's accept loop still expects a turn:
                    # feed it a fresh connect so it never hangs.
                    fd2 = yield from unistd.socket()
                    try:
                        yield from unistd.connect(fd2, PORT)
                    except SyscallError:
                        pass
                yield from unistd.close(fd)
            yield from unistd.close(lfd)

        sink = DigestSink()
        sim = Simulator(ncpus=2, seed=seed, trace=True, trace_sink=sink,
                        trace_store=False,
                        faults=FaultPlan.from_dict(faults_dict))
        sim.spawn(echo_main)
        sim.run(check_deadlock=False, max_events=200_000)
        return sink.hexdigest()

    def test_round_trip_replays_bit_for_bit(self):
        data = self.PLAN.to_dict()
        assert FaultPlan.from_dict(data).to_dict() == data
        for seed in (1, 2):
            assert self._digest(data, seed) == self._digest(data, seed)

    def test_different_seeds_draw_different_faults(self):
        data = self.PLAN.to_dict()
        assert self._digest(data, 1) != self._digest(data, 2)
