"""Signal system calls.

Handlers are process-wide ("All threads in the same address space share
the set of signal handlers"); masks are per-LWP, and the threads library
keeps each LWP's mask synchronized with the thread riding it.  ``sigsend``
carries the paper's new id types for directing a signal at one thread or
all threads of the *calling* process — threads in other processes are
invisible, so cross-process thread signaling is impossible by design.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, charge
from repro.kernel.signals import (SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK,
                                  Sig, Sigset)
from repro.kernel.syscalls import syscall

#: sigsend() id types (paper additions are the P_THREAD pair).
P_PID = 0
P_ALL = 7
P_THREAD = 100
P_THREAD_ALL = 101


@syscall("sigaction")
def sys_sigaction(ctx, sig: int, handler, mask: Sigset = None,
                  restart: bool = False):
    """Install a handler; returns the previous handler.

    ``restart`` requests SA_RESTART semantics (interrupted system calls
    resume instead of failing with EINTR).
    """
    yield charge(ctx.costs.syscall_service_trivial)
    try:
        old = ctx.process.signals.set_action(Sig(sig), handler, mask,
                                             restart=restart)
    except ValueError as err:
        raise SyscallError(Errno.EINVAL, "sigaction", str(err))
    return old.handler


@syscall("sigprocmask")
def sys_sigprocmask(ctx, how: int, newset: Sigset = None):
    """Change the calling LWP's signal mask; returns the old mask.

    In a multi-threaded process this is the kernel half of
    ``thread_sigsetmask()``: the mask belongs to the LWP, and the threads
    library swaps it on thread switch.
    """
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.lwp
    old = lwp.sigmask.copy()
    if newset is not None:
        if how not in (SIG_BLOCK, SIG_UNBLOCK, SIG_SETMASK):
            raise SyscallError(Errno.EINVAL, "sigprocmask", f"how {how}")
        lwp.sigmask = lwp.sigmask.apply(how, newset)
    return old


@syscall("kill")
def sys_kill(ctx, pid: int, sig: int):
    """Send a signal to a process (classic inter-process kill)."""
    yield charge(ctx.costs.signal_post)
    target = ctx.kernel.process_by_pid(pid)
    ctx.kernel.post_signal(target, Sig(sig), sender=ctx.process)
    return 0


@syscall("sigsend")
def sys_sigsend(ctx, id_type: int, target_id, sig: int):
    """SVR4 sigsend with the paper's P_THREAD / P_THREAD_ALL extensions.

    P_THREAD directs the signal at one thread *within the calling
    process*; it behaves like a trap — only that thread may handle it.
    P_THREAD_ALL sends to all threads of the calling process.
    """
    yield charge(ctx.costs.signal_post)
    kernel = ctx.kernel
    sig = Sig(sig)
    if id_type == P_PID:
        kernel.post_signal(kernel.process_by_pid(target_id), sig,
                           sender=ctx.process)
        return 0
    if id_type in (P_THREAD, P_THREAD_ALL):
        lib = ctx.process.threadlib
        if lib is None:
            raise SyscallError(Errno.EINVAL, "sigsend", "no threads")
        if id_type == P_THREAD:
            targets = [target_id]
        else:
            targets = [t.thread_id for t in lib.all_threads()
                       if not t.exited]
        for tid in targets:
            lwp = lib.route_thread_signal(tid, sig)
            if lwp is not None:
                kernel.post_signal(ctx.process, sig, target_lwp=lwp)
        return 0
    raise SyscallError(Errno.EINVAL, "sigsend", f"id_type {id_type}")


@syscall("lwp_kill")
def sys_lwp_kill(ctx, lwp_id: int, sig: int):
    """Direct a signal at one LWP of the calling process.

    There is deliberately no cross-process variant: "There is no
    system-wide name space for threads or lightweight processes."
    """
    yield charge(ctx.costs.signal_post)
    proc = ctx.process
    lwp = proc.lwps.get(lwp_id)
    if lwp is None or lwp.exited:
        raise SyscallError(Errno.ESRCH, "lwp_kill", f"lwp {lwp_id}")
    ctx.kernel.post_signal(proc, Sig(sig), target_lwp=lwp)
    return 0


@syscall("sigaltstack")
def sys_sigaltstack(ctx, stack=None, disable: bool = False):
    """Install (or disable) an alternate signal stack for this LWP.

    Alternate-stack state is per-LWP ("Alternate signal stack and masks
    for alternate stack disable and onstack" in the paper's LWP state
    list); only bound threads can rely on it — the threads library
    refuses it for unbound threads, where keeping the state would cost a
    system call per context switch.
    """
    yield charge(ctx.costs.syscall_service_trivial)
    lwp = ctx.lwp
    old = lwp.altstack
    if disable:
        lwp.altstack_enabled = False
    else:
        if lwp.on_altstack:
            raise SyscallError(Errno.EPERM, "sigaltstack",
                               "cannot change while on the stack")
        lwp.altstack = stack
        lwp.altstack_enabled = stack is not None
    return old


@syscall("sigpending")
def sys_sigpending(ctx):
    """Signals pending for the calling LWP or the whole process."""
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.lwp.pending.union(ctx.process.signals.pending)


@syscall("sigsuspend")
def sys_sigsuspend(ctx, mask: Sigset):
    """Atomically set the mask and sleep until a signal arrives.

    A restart-delivered signal (e.g. the library's SIGWAITING) resumes the
    sleep; only a normal caught signal ends it, with EINTR, as POSIX
    specifies.
    """
    lwp = ctx.lwp
    old = lwp.sigmask
    lwp.sigmask = mask.apply(SIG_SETMASK, mask)
    chan = ctx.kernel.shared_channel(id(lwp), label="sigsuspend")
    try:
        while True:
            # A plain (value) resume is a restart-spurious wake: go back
            # to sleep.  A true interruption arrives as an exception and
            # propagates as EINTR.
            yield Block(chan, interruptible=True, indefinite=True)
    finally:
        lwp.sigmask = old


@syscall("pause")
def sys_pause(ctx):
    """Sleep until a (non-restarting) signal arrives; returns EINTR."""
    chan = ctx.kernel.shared_channel(id(ctx.lwp), label="pause")
    while True:
        yield Block(chan, interruptible=True, indefinite=True)
