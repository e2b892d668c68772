"""Socket system calls.

Same discipline as the file calls: one ``file_op_service`` charge to
enter, ``io_per_byte`` per byte moved, while-condition ``Block`` loops
so every wakeup re-checks its predicate, ``O_NONBLOCK`` turning a would-
block into ``EAGAIN``.  Accept and receive with nothing pending are
*indefinite, external* waits — exactly the paper's SIGWAITING trigger
("e.g. in poll()"), which is how a thread-per-connection server keeps
its process from deadlocking when every LWP is parked in the kernel.

The fault plan (:mod:`repro.sim.faults`) is consulted at the natural
failure points: connect (``ConnDrop``), accept (``AcceptStall``), and
each transfer (``PacketDelay`` latency, ``PeerReset`` destroying the
connection mid-stream).  All injected failures surface as the errnos a
real stack produces: ``ECONNREFUSED``, ``ECONNRESET``, ``ETIMEDOUT``,
``EAGAIN``.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, Charge, WaitChannel, charge
from repro.kernel.fs.file import O_NONBLOCK, O_RDWR, OpenFile
from repro.kernel.net import (S_ESTABLISHED, S_LISTENING, S_RESET, SHUT_RD,
                              SHUT_RDWR, SHUT_WR, STREAM_CAPACITY, Socket)
from repro.kernel.signals import Sig
from repro.kernel.syscalls import syscall
from repro.sim.clock import usec


def _sock_of(ctx, fd: int, call: str) -> tuple:
    of = ctx.process.fdtable.get(fd)
    if not isinstance(of.inode, Socket):
        raise SyscallError(Errno.EINVAL, call, f"fd {fd} is not a socket")
    return of, of.inode


def _conn_of(ctx, fd: int, call: str) -> tuple:
    of, sock = _sock_of(ctx, fd, call)
    if not sock.is_connection:
        raise SyscallError(Errno.ENOTCONN, call, f"fd {fd}")
    return of, sock


@syscall("socket")
def sys_socket(ctx, flags: int = 0):
    """Create a stream socket; returns the descriptor.

    ``flags`` may carry ``O_NONBLOCK`` to make every operation on the
    descriptor non-blocking.
    """
    yield charge(ctx.costs.file_op_service)
    sock = ctx.kernel.net.create_socket(ctx.process.pid)
    of = OpenFile(sock, O_RDWR | (flags & O_NONBLOCK))
    return ctx.process.fdtable.allocate(of)


@syscall("bind")
def sys_bind(ctx, fd: int, port: int):
    yield charge(ctx.costs.syscall_service_trivial)
    _of, sock = _sock_of(ctx, fd, "bind")
    ctx.kernel.net.bind(sock, port)
    return 0


@syscall("listen")
def sys_listen(ctx, fd: int, backlog: int = 5):
    yield charge(ctx.costs.syscall_service_trivial)
    _of, sock = _sock_of(ctx, fd, "listen")
    ctx.kernel.net.listen(sock, backlog)
    return 0


@syscall("connect")
def sys_connect(ctx, fd: int, port: int):
    """Connect to a listening port; completes as soon as the connection
    is queued on the listener's backlog (BSD handshake semantics)."""
    kernel = ctx.kernel
    yield charge(ctx.costs.file_op_service)
    _of, sock = _sock_of(ctx, fd, "connect")
    if kernel.faults is not None:
        rule = kernel.faults.net_connect_fault(port)
        if rule is not None:
            if rule.mode == "timeout":
                # The SYN vanished: wait out the handshake timer.
                chan = WaitChannel(f"{ctx.lwp.name}:connect-timeout")
                deadline = kernel.engine.now_ns + usec(rule.timeout_usec)
                while kernel.engine.now_ns < deadline:
                    yield Block(chan, deadline_ns=deadline)
                raise SyscallError(Errno.ETIMEDOUT, "connect",
                                   f"port {port}: injected drop")
            raise SyscallError(Errno.ECONNREFUSED, "connect",
                               f"port {port}: injected refusal")
    kernel.net.queue_connection(sock, port)
    m = kernel.engine.metrics
    if m is not None:
        m.count("net.connects")
    return 0


@syscall("accept")
def sys_accept(ctx, fd: int):
    """Dequeue one established connection; returns its new descriptor.

    With an empty backlog this blocks indefinitely (external event —
    SIGWAITING territory) unless the socket is ``O_NONBLOCK``.
    """
    kernel = ctx.kernel
    yield charge(ctx.costs.file_op_service)
    of, sock = _sock_of(ctx, fd, "accept")
    if sock.state is not S_LISTENING:
        raise SyscallError(Errno.EINVAL, "accept", "socket not listening")
    if kernel.faults is not None:
        stall_ns = kernel.faults.net_accept_stall_ns(sock.port)
        if stall_ns:
            chan = WaitChannel(f"{ctx.lwp.name}:accept-stall")
            deadline = kernel.engine.now_ns + stall_ns
            while kernel.engine.now_ns < deadline:
                yield Block(chan, deadline_ns=deadline)
    while not sock.backlog:
        if sock.state is not S_LISTENING:
            raise SyscallError(Errno.ECONNABORTED, "accept",
                               "listening socket closed")
        if of.flags & O_NONBLOCK:
            raise SyscallError(Errno.EAGAIN, "accept")
        yield Block(sock.accept_channel, interruptible=True,
                    indefinite=True)
        if sock.state is not S_LISTENING:
            raise SyscallError(Errno.ECONNABORTED, "accept",
                               "listening socket closed")
    conn = sock.backlog.popleft()
    sock.accepted += 1
    m = kernel.engine.metrics
    if m is not None:
        m.count("net.accepts")
    return ctx.process.fdtable.allocate(OpenFile(conn, O_RDWR))


def _send_open(ctx, sock: Socket, written: int) -> bool:
    """Whether ``send`` may go on writing to ``sock``.  Once bytes are
    written a reset or closed stream ends the call (False, the partial
    count is returned); before that it fails: ``ECONNRESET``, or
    ``SIGPIPE`` then ``EPIPE``."""
    if sock.state is S_RESET:
        if written:
            return False
        raise SyscallError(Errno.ECONNRESET, "send", sock.name)
    peer = sock.peer
    if (sock.wr_closed or peer.state is not S_ESTABLISHED
            or peer.rd_closed):
        if written:
            return False
        ctx.kernel.post_signal(ctx.process, Sig.SIGPIPE, target_lwp=ctx.lwp)
        raise SyscallError(Errno.EPIPE, "send", sock.name)
    return True


@syscall("send")
def sys_send(ctx, fd: int, data: bytes):
    """Send bytes into the peer's stream buffer; returns the count.

    Blocks (per chunk) while the peer's buffer is full; ``O_NONBLOCK``
    returns a partial count or ``EAGAIN``.  A reset connection raises
    ``ECONNRESET``; a peer that closed (or shut down reading) raises
    ``EPIPE`` after ``SIGPIPE``, the FIFO convention.
    """
    kernel = ctx.kernel
    yield charge(ctx.costs.file_op_service)
    of, sock = _conn_of(ctx, fd, "send")
    if kernel.faults is not None:
        if kernel.faults.net_peer_reset("send", sock.name):
            kernel.net.reset_connection(sock)
        delay_ns = kernel.faults.net_io_delay_ns("send")
        if delay_ns:
            yield Charge(delay_ns)

    _send_open(ctx, sock, 0)
    peer = sock.peer
    written = 0
    view = memoryview(bytes(data))
    while written < len(data):
        if not _send_open(ctx, sock, written):
            return written
        space = STREAM_CAPACITY - len(peer.rbuf)
        if space == 0:
            if of.flags & O_NONBLOCK:
                if written:
                    return written
                raise SyscallError(Errno.EAGAIN, "send")
            yield Block(peer.space_channel, interruptible=True)
            continue
        chunk = view[written:written + space]
        peer.rbuf.extend(chunk)
        written += len(chunk)
        yield Charge(ctx.costs.io_per_byte * len(chunk))
        kernel.wakeup_all(peer.read_channel)
        peer.mark_readable()
    return written


@syscall("recv")
def sys_recv(ctx, fd: int, length: int):
    """Receive up to ``length`` bytes; b"" is EOF (peer closed clean).

    An empty stream with a live peer is an indefinite external wait;
    a reset connection raises ``ECONNRESET``.
    """
    kernel = ctx.kernel
    yield charge(ctx.costs.file_op_service)
    of, sock = _conn_of(ctx, fd, "recv")
    if kernel.faults is not None:
        if kernel.faults.net_peer_reset("recv", sock.name):
            kernel.net.reset_connection(sock)
    while not sock.rbuf:
        if sock.state is S_RESET:
            raise SyscallError(Errno.ECONNRESET, "recv", sock.name)
        if sock.rd_closed or not sock.peer_send_open():
            return b""
        if of.flags & O_NONBLOCK:
            raise SyscallError(Errno.EAGAIN, "recv")
        yield Block(sock.read_channel, interruptible=True,
                    indefinite=True)
    data = bytes(sock.rbuf[:length])
    del sock.rbuf[:length]
    yield Charge(ctx.costs.io_per_byte * len(data))
    if kernel.faults is not None:
        delay_ns = kernel.faults.net_io_delay_ns("recv")
        if delay_ns:
            yield Charge(delay_ns)
    kernel.wakeup_all(sock.space_channel)
    return data


@syscall("shutdown")
def sys_shutdown(ctx, fd: int, how: int = SHUT_WR):
    """Close one or both directions without releasing the descriptor."""
    kernel = ctx.kernel
    yield charge(ctx.costs.syscall_service_trivial)
    _of, sock = _conn_of(ctx, fd, "shutdown")
    if how not in (SHUT_RD, SHUT_WR, SHUT_RDWR):
        raise SyscallError(Errno.EINVAL, "shutdown", f"how {how}")
    if how in (SHUT_WR, SHUT_RDWR):
        sock.wr_closed = True
        if sock.peer is not None:
            # The peer's pending recv must wake to observe EOF.
            kernel.wakeup_all(sock.peer.read_channel)
            sock.peer.mark_readable()
    if how in (SHUT_RD, SHUT_RDWR):
        sock.rd_closed = True
        sock.rbuf.clear()
        # Senders parked against our buffer must wake to observe EPIPE.
        kernel.wakeup_all(sock.space_channel)
        kernel.wakeup_all(sock.read_channel)
    return 0
