"""Time, sleeping, and interval timers.

"There is only one real-time interval timer per process ... Each LWP has
two private interval timers; one decrements in LWP user time and the other
decrements in both LWP user time and when the system is running on behalf
of the LWP.  When these interval timers expire either SIGVTALRM or
SIGPROF, as appropriate, is sent to the LWP that owns the interval timer."
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, WaitChannel, charge
from repro.kernel.signals import Sig
from repro.kernel.syscalls import syscall

ITIMER_REAL = 0
ITIMER_VIRTUAL = 1
ITIMER_PROF = 2


@syscall("gettimeofday")
def sys_gettimeofday(ctx):
    """Current virtual time in nanoseconds."""
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.engine.now_ns


@syscall("nanosleep")
def sys_nanosleep(ctx, duration_ns: int):
    """Sleep for virtual time; interruptible by signals (EINTR).

    Restart-delivered signals (SA_RESTART, e.g. the threads library's
    SIGWAITING) resume the sleep for the *remaining* time, so callers
    observe the full duration.
    """
    if duration_ns < 0:
        raise SyscallError(Errno.EINVAL, "nanosleep")
    yield charge(ctx.costs.syscall_service_trivial)
    kernel = ctx.kernel
    if kernel.faults is not None:
        # Injected timer jitter: the wakeup arrives late, as on a busy
        # machine.  Deterministic (seeded stream).
        duration_ns += kernel.faults.timer_jitter_ns()
    chan = WaitChannel(f"{ctx.lwp.name}:nanosleep")
    deadline = kernel.engine.now_ns + duration_ns
    while kernel.engine.now_ns < deadline:
        # A spurious (restart) wake sleeps out the remainder.
        yield Block(chan, deadline_ns=deadline)
    return 0


@syscall("setitimer")
def sys_setitimer(ctx, which: int, interval_ns: int):
    """Arm (or disarm with 0) an interval timer; returns the old value.

    ITIMER_REAL is per-process; VIRTUAL and PROF are per-LWP.
    """
    yield charge(ctx.costs.syscall_service_trivial)
    kernel = ctx.kernel
    proc = ctx.process
    lwp = ctx.lwp
    if interval_ns < 0:
        raise SyscallError(Errno.EINVAL, "setitimer")

    if which == ITIMER_REAL:
        old = 0
        if proc.real_timer_event is not None:
            kernel.engine.cancel(proc.real_timer_event)
            proc.real_timer_event = None
        if interval_ns > 0:
            def fire():
                proc.real_timer_event = None
                kernel.post_signal(proc, Sig.SIGALRM)
            proc.real_timer_event = kernel.engine.call_after(
                interval_ns, fire, tag="itimer-real")
        return old
    if which == ITIMER_VIRTUAL:
        old = lwp.vtimer_remaining_ns
        lwp.vtimer_remaining_ns = interval_ns
        return old
    if which == ITIMER_PROF:
        old = lwp.ptimer_remaining_ns
        lwp.ptimer_remaining_ns = interval_ns
        return old
    raise SyscallError(Errno.EINVAL, "setitimer", f"which {which}")


@syscall("getitimer")
def sys_getitimer(ctx, which: int):
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.lwp
    if which == ITIMER_VIRTUAL:
        return lwp.vtimer_remaining_ns
    if which == ITIMER_PROF:
        return lwp.ptimer_remaining_ns
    if which == ITIMER_REAL:
        return 0 if ctx.process.real_timer_event is None else 1
    raise SyscallError(Errno.EINVAL, "getitimer", f"which {which}")


@syscall("alarm")
def sys_alarm(ctx, seconds: float):
    """Classic alarm(2) in terms of the per-process real timer."""
    result = yield from sys_setitimer(ctx, ITIMER_REAL,
                                      int(seconds * 1_000_000_000))
    return result
