"""LWP system calls — the kernel interface the threads library is built on.

"Much as the UNIX stdio library routines ... are implemented using the
UNIX system calls, the thread interface is implemented using the LWP
interface."  These calls create and destroy LWPs, park idle ones, wake
parked ones, adjust scheduling (priocntl, gang, CPU binding), and provide
the kernel half of process-shared synchronization sleeps.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import TIMED_OUT, Block, Charge, WaitChannel, charge
from repro.kernel.lwp import LwpState, SchedClass, PRIO_MAX, PRIO_MIN
from repro.kernel.sched.policy import GangGroup
from repro.kernel.syscalls import syscall


@syscall("lwp_create")
def sys_lwp_create(ctx, activity, sched_class: SchedClass = None,
                   priority: int = None, runnable: bool = True):
    """Create a new LWP in the calling process running ``activity``.

    This is the expensive operation that makes bound-thread creation cost
    ~42x unbound creation (Figure 5): kernel stack, LWP structure,
    dispatcher entry.
    """
    limit = ctx.process.rlimits.max_lwps
    if limit is not None and len(ctx.process.live_lwps()) >= limit:
        # Refused before the expensive allocation work is charged.
        yield charge(ctx.costs.syscall_service_trivial)
        raise SyscallError(Errno.EAGAIN, "lwp_create",
                           f"process LWP limit ({limit}) reached")
    yield charge(ctx.costs.lwp_create_service)
    lwp = ctx.kernel.create_lwp(
        ctx.process, activity,
        sched_class=sched_class or SchedClass.TIMESHARE,
        priority=priority if priority is not None else ctx.lwp.priority,
        runnable=runnable)
    # Profiling state is inherited from the creating LWP.
    if ctx.lwp.profiling is not None:
        lwp.set_profiling(ctx.lwp.profiling.inherit())
    # So is the signal mask (a fresh thread/LWP starts with its creator's).
    lwp.sigmask = ctx.lwp.sigmask.copy()
    return lwp.lwp_id


@syscall("lwp_self")
def sys_lwp_self(ctx):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.lwp.lwp_id


@syscall("lwp_exit")
def sys_lwp_exit(ctx, status: int = 0):
    """Terminate the calling LWP; never returns."""
    kernel = ctx.kernel
    lwp = ctx.lwp
    yield charge(ctx.costs.exit_per_lwp)
    lwp.exit_status = status
    lwp.exited = True
    if lwp.gang is not None:
        lwp.gang.remove(lwp)
    yield Block(kernel.grave, interruptible=False)


@syscall("lwp_wait")
def sys_lwp_wait(ctx, lwp_id: int = 0):
    """Wait for an LWP of this process to exit; returns its id.

    ``lwp_id`` of 0 waits for any.
    """
    proc = ctx.process
    yield charge(ctx.costs.syscall_service_trivial)
    while True:
        if lwp_id:
            target = proc.lwps.get(lwp_id)
            if target is None:
                raise SyscallError(Errno.ESRCH, "lwp_wait",
                                   f"lwp {lwp_id}")
            if target.exited:
                proc.remove_lwp(target)
                return target.lwp_id
        else:
            zombies = [l for l in proc.lwps.values() if l.exited]
            if zombies:
                target = min(zombies, key=lambda l: l.lwp_id)
                proc.remove_lwp(target)
                return target.lwp_id
        yield Block(proc.lwp_wait, interruptible=True)


@syscall("lwp_park")
def sys_lwp_park(ctx):
    """Park the calling LWP until lwp_unpark (or a signal).

    The idle loop of the threads library parks LWPs that have no thread to
    run.  A permit absorbs the unpark-before-park race.  Parking is an
    indefinite wait, so a process whose every LWP is parked or blocked
    externally is SIGWAITING-eligible.
    """
    lwp = ctx.lwp
    yield charge(ctx.costs.lwp_park_service)
    if lwp.park_permit:
        lwp.park_permit = False
        return 0
    if lwp.park_channel is None:
        lwp.park_channel = WaitChannel(f"{lwp.name}:park")
    yield Block(lwp.park_channel, interruptible=True, indefinite=True)
    return 0


@syscall("lwp_unpark")
def sys_lwp_unpark(ctx, lwp_id: int):
    """Wake a parked LWP of the calling process."""
    lwp = ctx.process.lwps.get(lwp_id)
    if lwp is None or lwp.exited:
        raise SyscallError(Errno.ESRCH, "lwp_unpark", f"lwp {lwp_id}")
    yield charge(ctx.costs.lwp_unpark_service)
    if (lwp.state is LwpState.SLEEPING and lwp.park_channel is not None
            and lwp.channel is lwp.park_channel):
        yield charge(ctx.costs.kernel_wakeup)
    ctx.kernel.unpark_lwp(lwp)
    return 0


@syscall("lwp_suspend")
def sys_lwp_suspend(ctx, lwp_id: int):
    """Stop an LWP (thread_stop on a bound thread lands here)."""
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.process.lwps.get(lwp_id)
    if lwp is None or lwp.exited:
        raise SyscallError(Errno.ESRCH, "lwp_suspend", f"lwp {lwp_id}")
    ctx.kernel.stop_lwp(lwp)
    return 0


@syscall("lwp_continue")
def sys_lwp_continue(ctx, lwp_id: int):
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.process.lwps.get(lwp_id)
    if lwp is None or lwp.exited:
        raise SyscallError(Errno.ESRCH, "lwp_continue", f"lwp {lwp_id}")
    ctx.kernel.continue_lwp(lwp)
    return 0


# priocntl commands.
PC_SETCLASS = 1
PC_SETPRIO = 2
PC_BIND_CPU = 3
PC_UNBIND = 4
PC_JOIN_GANG = 5
PC_LEAVE_GANG = 6
PC_GETPARMS = 7


@syscall("priocntl")
def sys_priocntl(ctx, cmd: int, lwp_id: int = 0, arg=None):
    """Scheduling control: class, priority, CPU binding, gang membership.

    ``lwp_id`` 0 targets the calling LWP.
    """
    yield charge(ctx.costs.syscall_service_trivial)
    proc = ctx.process
    lwp = ctx.lwp if lwp_id == 0 else proc.lwps.get(lwp_id)
    if lwp is None or lwp.exited:
        raise SyscallError(Errno.ESRCH, "priocntl", f"lwp {lwp_id}")

    if cmd == PC_SETCLASS:
        if not isinstance(arg, SchedClass):
            raise SyscallError(Errno.EINVAL, "priocntl", f"class {arg!r}")
        table = ctx.kernel.dispatcher.table
        if table.for_class(arg) is None:
            raise SyscallError(Errno.EINVAL, "priocntl",
                               f"class {arg.value} not registered")
        if arg is SchedClass.REALTIME and proc.euid != 0:
            raise SyscallError(Errno.EPERM, "priocntl",
                               "real-time class requires privilege")
        if arg is not lwp.sched_class:
            # Class-change handoff: pull the LWP off its old class's
            # queue, drop the old class's state blob (the new policy
            # re-initializes at the next enqueue), and requeue under the
            # new class if it was waiting to run.
            requeue = lwp.state is LwpState.RUNNABLE
            if requeue:
                ctx.kernel.dispatcher.remove(lwp)
            lwp.sched_state = None
            lwp.sched_class = arg
            if requeue:
                ctx.kernel.dispatcher.make_runnable(lwp)
        return 0
    if cmd == PC_SETPRIO:
        prio = int(arg)
        if not PRIO_MIN <= prio <= PRIO_MAX:
            raise SyscallError(Errno.EINVAL, "priocntl", f"prio {prio}")
        lwp.priority = prio
        return 0
    if cmd == PC_BIND_CPU:
        cpus = ctx.kernel.machine.cpus
        if not 0 <= int(arg) < len(cpus):
            raise SyscallError(Errno.EINVAL, "priocntl", f"cpu {arg}")
        lwp.bound_cpu = cpus[int(arg)]
        if lwp.cpu is not None and lwp.cpu is not lwp.bound_cpu:
            # Migrate: requeue so the next dispatch honors the binding.
            lwp.cpu.request_preempt()
        return 0
    if cmd == PC_UNBIND:
        lwp.bound_cpu = None
        return 0
    if cmd == PC_JOIN_GANG:
        if isinstance(arg, GangGroup):
            gang = arg
        else:
            gang = GangGroup(gang_id=ctx.kernel.next_gang_id())
        gang.add(lwp)
        return gang
    if cmd == PC_LEAVE_GANG:
        if lwp.gang is not None:
            lwp.gang.remove(lwp)
            lwp.sched_class = SchedClass.TIMESHARE
        return 0
    if cmd == PC_GETPARMS:
        return {"class": lwp.sched_class, "priority": lwp.priority,
                "bound_cpu": (lwp.bound_cpu.index
                              if lwp.bound_cpu is not None else None)}
    raise SyscallError(Errno.EINVAL, "priocntl", f"cmd {cmd}")


def _cell_channel(ctx, mobj, offset: int, label: str):
    """The kernel sleep queue of a shared synchronization cell.

    Keyed by the underlying memory *object*, not any virtual address, so
    processes that map the same file at different addresses reach the same
    kernel sleep queue — "synchronization variables may be shared between
    processes even though they are mapped at different virtual addresses".
    Named from the label, the object's name and the offset, so a hang
    report reads the same in every run.
    """
    return ctx.kernel.shared_channel((mobj, offset),
                                     f"{label}:{mobj.name}+{offset}")


@syscall("usync_block")
def sys_usync_block(ctx, mobj, offset: int, expected,
                    label: str = "usync", timeout_ns=None):
    """Sleep on a process-shared synchronization variable (futex-style).

    The paper: synchronization variables in shared memory are "unknown to
    the kernel unless a thread is blocked on them.  In the latter case the
    thread is temporarily bound to the LWP that is blocked by the kernel,
    as in a system call."

    The kernel atomically re-checks that the shared cell still holds
    ``expected`` before sleeping; if not, it returns 1 immediately —
    closing the window between the user-mode check and the sleep (the
    waker updates the cell before waking).  Returns 0 after a wakeup, 1
    when the expected-value check declined the sleep, and 2 when the
    optional ``timeout_ns`` expired first.
    """
    yield charge(ctx.costs.shared_sync_service)
    if mobj.load_cell(offset) != expected:
        return 1
    chan = _cell_channel(ctx, mobj, offset, label)
    if timeout_ns is None:
        yield Block(chan, interruptible=True, indefinite=True)
        return 0
    value = yield Block(chan, deadline_ns=ctx.engine.now_ns + timeout_ns)
    return 2 if value is TIMED_OUT else 0


@syscall("usync_wake")
def sys_usync_wake(ctx, mobj, offset: int, count: int = 1,
                   label: str = "usync"):
    """Wake sleepers on a process-shared sync variable; returns the number
    woken."""
    yield charge(ctx.costs.shared_sync_service)
    chan = _cell_channel(ctx, mobj, offset, label)
    woken = 0
    while woken < count:
        if ctx.kernel.wakeup_one(chan, value=0) is None:
            break
        woken += 1
        yield charge(ctx.costs.kernel_wakeup)
    return woken


@syscall("usync_wake_all")
def sys_usync_wake_all(ctx, mobj, offset: int, label: str = "usync"):
    yield charge(ctx.costs.shared_sync_service)
    chan = _cell_channel(ctx, mobj, offset, label)
    n = ctx.kernel.wakeup_all(chan, value=0)
    yield Charge(ctx.costs.kernel_wakeup * n)
    return n
