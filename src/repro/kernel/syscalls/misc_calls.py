"""Resource usage, limits, profiling, polling, and /proc access."""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, WaitChannel, charge
from repro.kernel.fs import procfs
from repro.kernel.fs.vfs import Fifo, TtyDevice
from repro.kernel.net import Socket
from repro.kernel.profil import ProfilingBuffer, ProfilingState
from repro.kernel.syscalls import syscall

RUSAGE_SELF = 0
RUSAGE_CHILDREN = -1
RUSAGE_LWP = 1

RLIMIT_CPU = 0
RLIMIT_FSIZE = 1
RLIMIT_NOFILE = 5
RLIMIT_NLWPS = 6


@syscall("getrusage")
def sys_getrusage(ctx, who: int = RUSAGE_SELF):
    """Resource usage: "the sum of the resource usage (including CPU
    usage) for all LWPs in the process is available via getrusage()"."""
    yield charge(ctx.costs.syscall_service_trivial)
    if who == RUSAGE_SELF:
        return ctx.process.rusage()
    if who == RUSAGE_CHILDREN:
        return ctx.process.rusage_children()
    if who == RUSAGE_LWP:
        lwp = ctx.lwp
        return {"user_ns": lwp.user_ns, "system_ns": lwp.system_ns,
                "total_ns": lwp.cpu_ns, "nlwp": 1}
    raise SyscallError(Errno.EINVAL, "getrusage", f"who {who}")


@syscall("setrlimit")
def sys_setrlimit(ctx, resource: int, limit):
    yield charge(ctx.costs.syscall_service_trivial)
    rl = ctx.process.rlimits
    if resource == RLIMIT_CPU:
        rl.cpu_ns = limit
    elif resource == RLIMIT_FSIZE:
        rl.fsize_bytes = limit
    elif resource == RLIMIT_NOFILE:
        rl.nofile = int(limit)
    elif resource == RLIMIT_NLWPS:
        rl.max_lwps = None if limit is None else int(limit)
    else:
        raise SyscallError(Errno.EINVAL, "setrlimit",
                           f"resource {resource}")
    return 0


@syscall("getrlimit")
def sys_getrlimit(ctx, resource: int):
    yield charge(ctx.costs.syscall_service_trivial)
    rl = ctx.process.rlimits
    if resource == RLIMIT_CPU:
        return rl.cpu_ns
    if resource == RLIMIT_FSIZE:
        return rl.fsize_bytes
    if resource == RLIMIT_NOFILE:
        return rl.nofile
    if resource == RLIMIT_NLWPS:
        return rl.max_lwps
    raise SyscallError(Errno.EINVAL, "getrlimit", f"resource {resource}")


@syscall("profil")
def sys_profil(ctx, buffer: ProfilingBuffer = None, enable: bool = True):
    """Attach the calling LWP to a profiling buffer (shared or private).

    Passing no buffer creates a private one; returns the buffer so the
    program can read the histogram.
    """
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.lwp
    if not enable:
        if lwp.profiling is not None:
            lwp.profiling.enabled = False
        return None
    if buffer is None:
        buffer = ProfilingBuffer(name=f"{lwp.name}:prof")
    lwp.profiling = ProfilingState(buffer)
    return buffer


@syscall("poll")
def sys_poll(ctx, fd: int):
    """Wait for input on a descriptor — the paper's example of an
    "indefinite, external event" (SIGWAITING territory)."""
    of = ctx.process.fdtable.get(fd)
    inode = of.inode
    yield charge(ctx.costs.syscall_service_trivial)
    if isinstance(inode, TtyDevice):
        while not inode.input_buffer:
            yield Block(inode.read_channel, interruptible=True,
                        indefinite=True)
        return 1
    if isinstance(inode, Socket):
        # Readable = data / EOF / error for connections, a pending
        # connection for listeners.
        while not inode.recv_ready():
            chan = inode.recv_wait_channel()
            if chan is None:
                return 1
            yield Block(chan, interruptible=True, indefinite=True)
        return 1
    # Everything else in our VFS is always ready.
    return 1


def _readable_now(inode) -> bool:
    """Readiness predicate for select/poll: ttys with input, FIFOs with
    data or no writers, sockets per ``recv_ready``; everything else in
    our VFS is always ready."""
    if isinstance(inode, TtyDevice):
        return bool(inode.input_buffer)
    if isinstance(inode, Fifo):
        return bool(inode.buffer) or inode.writers == 0
    if isinstance(inode, Socket):
        return inode.recv_ready()
    return True


def _read_channel_of(inode):
    if isinstance(inode, TtyDevice):
        return inode.read_channel
    if isinstance(inode, Fifo):
        return inode.read_channel
    if isinstance(inode, Socket):
        return inode.recv_wait_channel()
    return None


def _select_sockets(ctx, opens, deadline):
    """All-socket select: one ephemeral wait channel fed by readiness
    watchers, instead of a channel set over every descriptor.

    The generic path below re-scans every descriptor on each wakeup and
    rebuilds an N-member channel list each time it blocks — O(n) per
    spurious wakeup, which dominates once a single-LWP event loop
    watches thousands of connections.  Here each socket that *becomes*
    readable pushes itself onto ``pending`` via its watcher hook
    (:meth:`repro.kernel.net.Network.mark_readable`), so a wakeup only
    touches the sockets that actually changed.  The full fd-order scan
    runs once on entry and once per successful return, preserving the
    generic path's result order exactly.
    """
    kernel = ctx.kernel
    chan = WaitChannel(f"{ctx.lwp.name}:select")
    pending: list = []

    def on_ready(sock):
        pending.append(sock)
        if chan.waiters:
            kernel.wakeup_one(chan)

    socks = [of.inode for _fd, of in opens]
    for sock in socks:
        sock.watchers.append(on_ready)
    try:
        ready = [fd for fd, of in opens if _readable_now(of.inode)]
        while not ready:
            hot = {id(s) for s in pending if s.recv_ready()}
            pending.clear()
            if hot:
                ready = [fd for fd, of in opens if id(of.inode) in hot]
                continue
            if deadline is not None and kernel.engine.now_ns >= deadline:
                return []
            yield Block(chan, indefinite=deadline is None,
                        deadline_ns=deadline)
        return ready
    finally:
        for sock in socks:
            try:
                sock.watchers.remove(on_ready)
            except ValueError:
                pass


@syscall("select")
def sys_select(ctx, fds, timeout_ns=None):
    """Wait until any of ``fds`` is readable; returns the ready list.

    With no timeout this is an indefinite, external wait (SIGWAITING
    territory, like the paper's poll() example).  A zero timeout is a
    pure readiness probe.  When every descriptor is a socket the wait
    uses the batched watcher path (see :func:`_select_sockets`);
    otherwise the LWP sleeps on *all* the descriptors' wait channels at
    once and the first wakeup resumes it.
    """
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.syscall_service_trivial)
    opens = [(fd, proc.fdtable.get(fd)) for fd in fds]

    deadline = (kernel.engine.now_ns + timeout_ns
                if timeout_ns is not None else None)
    if opens and all(isinstance(of.inode, Socket) for _fd, of in opens):
        return (yield from _select_sockets(ctx, opens, deadline))
    while True:
        ready = [fd for fd, of in opens if _readable_now(of.inode)]
        if ready:
            return ready
        if deadline is not None and kernel.engine.now_ns >= deadline:
            return []
        channels = []
        for _fd, of in opens:
            chan = _read_channel_of(of.inode)
            if chan is not None and chan not in channels:
                channels.append(chan)
        if not channels:
            return []
        yield Block(channels, indefinite=deadline is None,
                    deadline_ns=deadline)


@syscall("yield")
def sys_yield(ctx):
    """Voluntarily surrender the CPU (LWP-level sched_yield)."""
    yield charge(ctx.costs.syscall_service_trivial)
    dispatcher = ctx.kernel.dispatcher
    if dispatcher.runnable_count() > 0 and ctx.lwp.cpu is not None:
        dispatcher.voluntary_switches += 1
        ctx.lwp.cpu.request_preempt()
    return 0


@syscall("proc_status")
def sys_proc_status(ctx, pid: int = 0):
    """Read another process's /proc status (debugger interface).

    Returns the parsed form; :mod:`repro.kernel.fs.procfs` renders the
    text the way /proc would expose it.
    """
    yield charge(ctx.costs.file_op_service)
    target = ctx.kernel.process_by_pid(pid or ctx.process.pid)
    return procfs.status_dict(target)


@syscall("uname")
def sys_uname(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    return {
        "sysname": "SunOS-repro",
        "release": "5.0-sim",
        "machine": "sim-sparc",
        "ncpus": ctx.kernel.machine.ncpus,
    }
