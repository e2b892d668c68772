"""Resource usage, limits, profiling, polling, and /proc access."""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, WaitChannel, charge
from repro.kernel.fs import procfs
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
        ctx.process.set_cpu_limit(limit)
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
    lwp.set_profiling(ProfilingState(buffer))
    return buffer


@syscall("poll")
def sys_poll(ctx, fd: int):
    """Wait for input on a descriptor — the paper's example of an
    "indefinite, external event" (SIGWAITING territory)."""
    of = ctx.process.fdtable.get(fd)
    yield charge(ctx.costs.syscall_service_trivial)
    yield from _wait_readable(ctx, [(fd, of)], None)
    return 1


class _Readiness:
    """Owner of a sleeping select's channel: a hang report names every
    descriptor it waits on."""

    __slots__ = ("opens",)

    def __init__(self, opens):
        self.opens = opens

    def wait_annotation(self) -> str:
        return "readable: " + ", ".join(
            f"fd {fd} {of.inode.kind}:{of.inode.name}"
            for fd, of in self.opens)


def _wait_readable(ctx, opens, deadline):
    """Wait until a descriptor of ``opens`` (``(fd, OpenFile)`` pairs) is
    readable or ``deadline`` passes; returns the ready fds, in the order
    of ``opens``.

    The LWP sleeps on one ephemeral wait channel fed by readiness
    watchers: an inode that *becomes* readable pushes itself onto
    ``pending`` (:meth:`repro.kernel.fs.vfs.Inode.mark_readable`), so a
    wakeup touches only the inodes that changed, not every descriptor
    (a single-LWP event loop watches thousands).  Only a call that
    sleeps registers anything; one with no descriptors never sleeps.
    """
    kernel = ctx.kernel
    ready = [fd for fd, of in opens if of.inode.readable()]
    if (ready or not opens
            or (deadline is not None and kernel.engine.now_ns >= deadline)):
        return ready
    chan = WaitChannel(f"{ctx.lwp.name}:select", _Readiness(opens))
    pending: list = []

    def on_ready(inode):
        pending.append(inode)
        if chan.waiters:
            kernel.wakeup_one(chan)

    for _fd, of in opens:
        of.inode.watchers.append(on_ready)
    try:
        while not ready:
            hot = {i for i in pending if i.readable()}
            pending.clear()
            if hot:
                ready = [fd for fd, of in opens if of.inode in hot]
                continue
            if deadline is not None and kernel.engine.now_ns >= deadline:
                return []
            yield Block(chan, indefinite=deadline is None,
                        deadline_ns=deadline)
        return ready
    finally:
        for _fd, of in opens:
            try:
                of.inode.watchers.remove(on_ready)
            except ValueError:
                pass


@syscall("select")
def sys_select(ctx, fds, timeout_ns=None):
    """Wait until any of ``fds`` is readable; returns the ready list.

    With no timeout this is an indefinite, external wait (SIGWAITING
    territory, like the paper's poll() example).  A zero timeout is a
    pure readiness probe.  See :func:`_wait_readable`.
    """
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.syscall_service_trivial)
    opens = [(fd, proc.fdtable.get(fd)) for fd in fds]
    deadline = (kernel.engine.now_ns + timeout_ns
                if timeout_ns is not None else None)
    return (yield from _wait_readable(ctx, opens, deadline))


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
