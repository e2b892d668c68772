"""Process lifecycle system calls: fork, fork1, exec, exit, wait.

``fork()`` "duplicates the address space and creates the same LWPs in the
same states as in the original"; ``fork1()`` "causes the current
thread/LWP to fork, but the other threads and LWPs ... are not duplicated".
The paper adds: "Calling fork() may cause interruptible system calls to
return EINTR when the calls are made by any LWP (thread) other than the
one calling fork()" — we reproduce that observable behaviour.

**Substitution note (documented in DESIGN.md):** Python generators cannot
be cloned, so the mid-execution continuations of the parent's threads
cannot be literally copied into the child.  The caller supplies the
``child_main`` the child's initial thread runs (this is where a real
fork's child-side return-of-0 resumes).  For full ``fork()`` the child
additionally receives the same *number* of LWPs as the parent, idle in its
threads-library pool, and pays the per-LWP duplication cost — preserving
both the cost shape and the LWP-count semantics the paper contrasts
``fork``/``fork1`` on.  Address-space contents — including held lock state
in private memory, the ``fork1()`` pitfall the paper warns about — are
copied for real either way.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, Charge, charge
from repro.kernel.process import Process
from repro.kernel.syscalls import syscall
from repro.kernel.vm import AddressSpace

#: waitid()-style id types (paper: P_THREAD / P_THREAD_ALL additions).
P_PID = 0
P_ALL = 7
P_THREAD = 100
P_THREAD_ALL = 101


@syscall("getpid")
def sys_getpid(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.process.pid


@syscall("getppid")
def sys_getppid(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    parent = ctx.process.parent
    return parent.pid if parent is not None else 0


@syscall("getuid")
def sys_getuid(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.process.ruid


@syscall("geteuid")
def sys_geteuid(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.process.euid


@syscall("setuid")
def sys_setuid(ctx, uid: int):
    # "There is only one set of user and group IDs for each process, so if
    # one thread changes one of these, it is changed for all of them."
    # The kernel samples the value atomically, once per system call.
    yield charge(ctx.costs.syscall_service_trivial)
    proc = ctx.process
    if proc.euid != 0 and uid not in (proc.ruid, proc.euid):
        raise SyscallError(Errno.EPERM, "setuid")
    proc.ruid = proc.euid = uid
    return 0


@syscall("setgid")
def sys_setgid(ctx, gid: int):
    yield charge(ctx.costs.syscall_service_trivial)
    proc = ctx.process
    if proc.euid != 0 and gid not in (proc.rgid, proc.egid):
        raise SyscallError(Errno.EPERM, "setgid")
    proc.rgid = proc.egid = gid
    return 0


def _fork_common(ctx, child_main, args, duplicate_lwps: bool):
    """Shared machinery of fork() and fork1()."""
    kernel = ctx.kernel
    parent = ctx.process
    costs = ctx.costs

    yield charge(costs.fork_base)
    # Pay for the address-space duplication.
    pages = max(1, parent.aspace.mapped_bytes // 4096)
    yield Charge(costs.fork_per_page * pages)

    nlwps = len(parent.live_lwps()) if duplicate_lwps else 1
    if duplicate_lwps:
        yield Charge(costs.fork_per_lwp * nlwps)

    child = Process(kernel.allocate_pid(), f"{parent.name}-child",
                    parent.aspace.fork_copy(name="child"), parent=parent)
    child.cwd = parent.cwd
    child.umask = parent.umask
    child.ruid, child.euid = parent.ruid, parent.euid
    child.rgid, child.egid = parent.rgid, parent.egid
    child.fdtable = parent.fdtable.fork_copy()
    child.signals = parent.signals.fork_copy()
    parent.children.append(child)
    kernel.adopt_process(child)

    # EINTR side effect on the parent's *other* LWPs.
    for lwp in parent.live_lwps():
        if lwp is not ctx.lwp:
            kernel.interrupt_sleep(lwp)

    # Build the child's initial thread (and, for fork(), its extra LWPs).
    kernel.start_main(child, child_main, args,
                      extra_lwps=nlwps - 1)
    return child.pid


@syscall("fork")
def sys_fork(ctx, child_main, *args):
    """Full fork: duplicates the address space and all LWPs."""
    pid = yield from _fork_common(ctx, child_main, args,
                                  duplicate_lwps=True)
    return pid


@syscall("fork1")
def sys_fork1(ctx, child_main, *args):
    """Fork only the calling thread/LWP (the cheap exec-setup fork)."""
    pid = yield from _fork_common(ctx, child_main, args,
                                  duplicate_lwps=False)
    return pid


@syscall("exec")
def sys_exec(ctx, new_main, *args):
    """Overlay the process: destroys every LWP, restarts with one.

    "Both calls block until all the LWPs (and therefore all active
    threads) are destroyed.  When exec() rebuilds the process, it creates
    a single LWP.  The process startup code then builds the initial
    thread."
    """
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.exec_service)
    others = [l for l in proc.live_lwps() if l is not ctx.lwp]
    yield Charge(ctx.costs.exit_per_lwp * len(others))
    for lwp in others:
        kernel.terminate_lwp(lwp)
    # Fresh address space; old mappings dropped.
    proc.aspace = AddressSpace(kernel.machine.memory,
                               name=f"pid{proc.pid}-exec")
    proc.threadlib = None
    proc.signals.pending = type(proc.signals.pending)()
    # Caught handlers cannot survive into the new image (their code is
    # gone); ignored and default dispositions persist — classic exec
    # semantics.  Descriptors stay open.
    from repro.kernel.signals import SIG_DFL
    for sig, action in proc.signals.actions.items():
        if action.is_caught():
            proc.signals.set_action(sig, SIG_DFL)
    kernel.start_main(proc, new_main, args)
    # The calling LWP never returns from exec.
    ctx.lwp.exited = True
    yield Block(kernel.grave, interruptible=False)


@syscall("exit")
def sys_exit(ctx, status: int = 0):
    """Destroy all LWPs and zombify the process; never returns."""
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.exit_service)
    others = [l for l in proc.live_lwps() if l is not ctx.lwp]
    yield Charge(ctx.costs.exit_per_lwp * len(others))
    ctx.lwp.exited = True
    kernel.exit_process(proc, status)
    yield Block(kernel.grave, interruptible=False)


@syscall("waitpid")
def sys_waitpid(ctx, pid: int = -1, nohang: bool = False):
    """Wait for a child to exit; returns (pid, status).

    With ``nohang`` (WNOHANG) a still-running child yields (0, 0)
    immediately instead of blocking.
    """
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.syscall_service_trivial)
    while True:
        if not proc.children:
            raise SyscallError(Errno.ECHILD, "waitpid")
        if pid > 0 and not any(c.pid == pid for c in proc.children):
            raise SyscallError(Errno.ECHILD, "waitpid", f"pid {pid}")
        for child in proc.zombie_children():
            if pid in (-1, child.pid):
                return kernel.reap(proc, child)
        if nohang:
            return (0, 0)
        yield Block(proc.child_wait, interruptible=True)


@syscall("waitid")
def sys_waitid(ctx, id_type: int, target_id=None):
    """SVID waitid, extended with P_THREAD / P_THREAD_ALL per the paper.

    The thread variants are serviced by the threads library in user mode;
    the kernel rejects them so misuse is visible.
    """
    if id_type in (P_THREAD, P_THREAD_ALL):
        raise SyscallError(
            Errno.EINVAL, "waitid",
            "P_THREAD waits are a threads-library service; call "
            "thread_wait()")
    if id_type == P_PID:
        result = yield from sys_waitpid(ctx, target_id)
    elif id_type == P_ALL:
        result = yield from sys_waitpid(ctx, -1)
    else:
        raise SyscallError(Errno.EINVAL, "waitid", f"id_type {id_type}")
    return result
