"""The simulated network layer: sockets, listen queues, byte streams.

The paper's flagship scenario — "a multi-threaded network server that
creates a new thread for each client" — needs a kernel object for
threads to block *in*: accepts with an empty listen queue, receives with
an empty stream, sends against a full peer buffer.  This module provides
that object.  There is no wire: a connection is a pair of
:class:`Socket` endpoints joined in memory, with per-direction bounded
byte buffers and FIFO wait channels, so transfer timing comes from the
cost model and wakeup order from the deterministic engine — the same
recipe as the VFS FIFO, extended with a connection state machine.

Overload semantics are deliberate and deterministic:

* the listen queue is **bounded**; a connect against a full backlog is
  refused outright (the RST a SYN against a saturated queue earns),
  surfacing as ``ECONNREFUSED`` to the client — never a silent drop the
  simulation would have to time out on;
* closing an endpoint with unread inbound data resets the peer
  (``ECONNRESET``), closing it drained delivers EOF — the classic TCP
  distinction, and the difference between a lost request and a clean
  shutdown;
* closing a listening socket aborts queued, never-accepted connections
  (peers see ``ECONNRESET``) and wakes blocked acceptors with
  ``ECONNABORTED``.

Wait channels are named after the socket (``sockaccept:<port>``,
``sockrecv:<sock>``, ``socksend:<sock>``) and name it as their owner, so
the wait-for-graph walker (:mod:`repro.analysis.waitgraph`) can name the
socket, its peer, and the backlog depth
(:meth:`Socket.wait_annotation`) when diagnosing an LWP stuck in
``accept``/``recv``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import Errno, SyscallError
from repro.hw.isa import WaitChannel
from repro.kernel.fs.vfs import Inode

#: Per-direction stream buffer capacity (bytes) — the "socket buffer".
STREAM_CAPACITY = 8192

#: Default listen-queue bound when listen() gives none.
DEFAULT_BACKLOG = 5

# shutdown(2) modes.
SHUT_RD = 0
SHUT_WR = 1
SHUT_RDWR = 2

# Socket states (the connection state machine).
S_IDLE = "idle"                # fresh socket(): neither bound nor connected
S_BOUND = "bound"              # bind() done, listen() not yet
S_LISTENING = "listening"      # accepting connections
S_ESTABLISHED = "established"  # connected endpoint, both ways open
S_RESET = "reset"              # connection destroyed mid-flight (RST)
S_CLOSED = "closed"            # last descriptor closed


class Socket(Inode):
    """One socket endpoint.

    Lives in the fd table like any inode (OpenFile refcounts, fork
    sharing, close-on-exit all come for free), but is never linked into
    the VFS namespace — its "name" exists only for diagnostics.

    A listening socket owns a bounded ``backlog`` of established-but-
    unaccepted connection endpoints plus the ``accept_channel`` LWPs
    sleep on.  A connection endpoint owns its *receive* buffer ``rbuf``;
    senders write into the peer's buffer and sleep on the peer's
    ``space_channel`` when it is full.
    """

    def __init__(self, name: str, owner_pid: Optional[int] = None):
        super().__init__(name)
        self.state = S_IDLE
        self.owner_pid = owner_pid
        self.port: Optional[int] = None
        # Listening half.
        self.backlog: deque = deque()
        self.backlog_limit = DEFAULT_BACKLOG
        self.accept_channel: Optional[WaitChannel] = None
        self.accepted = 0
        self.refused = 0
        # Connection half.
        self.peer: Optional["Socket"] = None
        self.rbuf = bytearray()
        self.read_channel: Optional[WaitChannel] = None
        self.space_channel: Optional[WaitChannel] = None
        self.rd_closed = False
        self.wr_closed = False
        # Readiness watchers: callbacks fired (synchronously) whenever
        # this socket *becomes* readable — data arrival, EOF, reset, a
        # queued connection on a listener.  This is the batching hook
        # the all-socket select() fast path and the load generator's
        # completion callbacks hang off; with no watchers registered
        # every notification site is a no-op.
        self.watchers: list = []

    @property
    def kind(self) -> str:
        return "socket"

    def size(self) -> int:
        return len(self.rbuf)

    # ------------------------------------------------------- predicates

    @property
    def is_connection(self) -> bool:
        return self.peer is not None

    def peer_send_open(self) -> bool:
        """Can the peer still deliver bytes to us?  False means a recv
        that finds ``rbuf`` empty must return EOF."""
        peer = self.peer
        return (peer is not None and peer.state is not S_CLOSED
                and not peer.wr_closed)

    def recv_ready(self) -> bool:
        """Readiness predicate for poll/select: data, EOF, or error."""
        if self.state is S_LISTENING:
            return bool(self.backlog)
        if self.state in (S_RESET, S_CLOSED):
            return True
        return bool(self.rbuf) or not self.peer_send_open()

    def recv_wait_channel(self) -> Optional[WaitChannel]:
        if self.state is S_LISTENING:
            return self.accept_channel
        return self.read_channel

    # ------------------------------------------------------ diagnostics

    def wait_annotation(self) -> str:
        """One-line description for hang reports: what this socket is
        and who the peer / backlog holder is."""
        if self.state is S_LISTENING:
            return (f"listening on port {self.port}, backlog "
                    f"{len(self.backlog)}/{self.backlog_limit}, "
                    f"{self.accepted} accepted")
        if self.peer is not None:
            peer = self.peer
            who = (f"pid {peer.owner_pid}" if peer.owner_pid is not None
                   else "?")
            return (f"{self.state} connection, peer {peer.name} ({who}, "
                    f"{peer.state}), {len(self.rbuf)}B buffered")
        return f"{self.state} socket"


class Network:
    """Kernel-global port namespace and socket bookkeeping.

    One per kernel (``kernel.net``).  Creating it allocates nothing the
    engine sees; programs that never touch sockets are unaffected.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.ports: dict[int, Socket] = {}
        self._next_conn = 0
        self._next_sock = 0
        # Machine-wide overload counters (mirrored into repro.obs when a
        # metrics registry is attached).
        self.backlog_drops = 0
        self.resets = 0

    # ----------------------------------------------------------- create

    def create_socket(self, pid: int) -> Socket:
        self._next_sock += 1
        return self.kernel.vfs.numbered(
            Socket(f"sock:{pid}.{self._next_sock}", owner_pid=pid))

    # -------------------------------------------------------- readiness

    def mark_readable(self, sock: Socket) -> None:
        """Notify readiness watchers that ``sock`` may now be readable.

        Called from every kernel site where a socket's readability can
        newly hold: bytes landing in ``rbuf``, a connection joining a
        listener's backlog, EOF, reset, listener close.  Watchers run
        synchronously; anything that must not happen mid-syscall (the
        load driver's completion handling, say) schedules itself onto
        the engine instead of acting inline.  No watchers — the common
        case for every pre-existing workload — costs one truth test.
        """
        if sock.watchers:
            for fn in list(sock.watchers):
                fn(sock)

    def push_bytes(self, sock: Socket, data: bytes) -> int:
        """Deliver bytes straight into ``sock.rbuf`` from outside any
        process — the load generator's kernel-edge injection path (a
        synthetic client "sending" without an LWP to charge).  Honors
        the stream bound; returns the count actually buffered.  Wakes
        blocked receivers and readiness watchers exactly like
        ``sys_send`` does on the guest path.
        """
        if sock.state is not S_ESTABLISHED or sock.rd_closed:
            return 0
        space = STREAM_CAPACITY - len(sock.rbuf)
        chunk = data[:space]
        if not chunk:
            return 0
        sock.rbuf.extend(chunk)
        if sock.read_channel is not None:
            self.kernel.wakeup_all(sock.read_channel)
        self.mark_readable(sock)
        return len(chunk)

    # ------------------------------------------------------ bind/listen

    def bind(self, sock: Socket, port: int) -> None:
        if sock.state is not S_IDLE or sock.is_connection:
            raise SyscallError(Errno.EINVAL, "bind",
                               f"socket is {sock.state}")
        if port in self.ports:
            raise SyscallError(Errno.EADDRINUSE, "bind", f"port {port}")
        self.ports[port] = sock
        sock.port = port
        sock.state = S_BOUND

    def listen(self, sock: Socket, backlog: int) -> None:
        if sock.state is S_LISTENING:
            sock.backlog_limit = max(1, backlog)
            return
        if sock.state is not S_BOUND:
            raise SyscallError(Errno.EINVAL, "listen",
                               f"socket is {sock.state}")
        sock.state = S_LISTENING
        sock.backlog_limit = max(1, backlog)
        sock.accept_channel = WaitChannel(f"sockaccept:{sock.port}", sock)

    # ---------------------------------------------------------- connect

    def queue_connection(self, client: Socket, port: int) -> None:
        """The SYN: pair ``client`` with a fresh server-side endpoint on
        the listener's backlog, or refuse (no listener / queue full).

        Connections are established as soon as they are queued — BSD
        semantics: the handshake completes while the connection waits in
        the backlog, and the client may start sending before accept().
        """
        if client.state is not S_IDLE or client.is_connection:
            raise SyscallError(Errno.EINVAL, "connect",
                               f"socket is {client.state}")
        listener = self.ports.get(port)
        if listener is None or listener.state is not S_LISTENING:
            raise SyscallError(Errno.ECONNREFUSED, "connect",
                               f"port {port}: no listener")
        if len(listener.backlog) >= listener.backlog_limit:
            # Deterministic RST on overflow: refuse the newest SYN.
            listener.refused += 1
            self.backlog_drops += 1
            m = self.kernel.engine.metrics
            if m is not None:
                m.count("net.backlog_drops")
            raise SyscallError(Errno.ECONNREFUSED, "connect",
                               f"port {port}: backlog full")
        self._next_conn += 1
        server = self.kernel.vfs.numbered(
            Socket(f"sock:{port}#c{self._next_conn}",
                   owner_pid=listener.owner_pid))
        self._establish(client, server)
        listener.backlog.append(server)
        self.kernel.wakeup_one(listener.accept_channel)
        self.mark_readable(listener)

    def _establish(self, a: Socket, b: Socket) -> None:
        for sock, peer in ((a, b), (b, a)):
            sock.peer = peer
            sock.state = S_ESTABLISHED
            sock.read_channel = WaitChannel(f"sockrecv:{sock.name}", sock)
            sock.space_channel = WaitChannel(f"socksend:{sock.name}", sock)

    # ------------------------------------------------------- reset/close

    def reset_connection(self, sock: Socket) -> None:
        """RST both endpoints: buffered data is discarded, every sleeper
        on either end wakes to observe the reset."""
        self.resets += 1
        m = self.kernel.engine.metrics
        if m is not None:
            m.count("net.resets")
        for end in (sock, sock.peer):
            if end is None or end.state in (S_RESET, S_CLOSED):
                continue
            end.state = S_RESET
            end.rbuf.clear()
            self._wake_all(end)
            self.mark_readable(end)

    def _wake_all(self, sock: Socket) -> None:
        for chan in (sock.read_channel, sock.space_channel,
                     sock.accept_channel):
            if chan is not None and chan.waiters:
                self.kernel.wakeup_all(chan)

    def close_socket(self, sock: Socket) -> None:
        """Last descriptor on ``sock`` closed (close(2) or process exit)."""
        if sock.state is S_CLOSED:
            return
        if sock.state is S_LISTENING:
            del self.ports[sock.port]
            sock.state = S_CLOSED
            # Queued, never-accepted connections are aborted: their
            # clients learn via RST, blocked acceptors via ECONNABORTED.
            while sock.backlog:
                self.reset_connection(sock.backlog.popleft())
            self._wake_all(sock)
            self.mark_readable(sock)
            return
        if sock.state is S_BOUND:
            del self.ports[sock.port]
        peer = sock.peer
        if sock.state is S_ESTABLISHED and peer is not None:
            if sock.rbuf:
                # Unread inbound data at close: TCP answers with RST.
                sock.state = S_CLOSED
                self.reset_connection(peer)
            else:
                sock.state = S_CLOSED
                # Peer's pending recv sees EOF; its pending send, EPIPE.
                self._wake_all(peer)
                self.mark_readable(peer)
        else:
            sock.state = S_CLOSED
        self._wake_all(sock)
        self.mark_readable(sock)
