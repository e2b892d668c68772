"""The thread interface (Figure 4 of the paper).

Every function here is a generator meant to be invoked from simulated
user code with ``yield from``::

    def worker(arg):
        tid = yield from api.thread_get_id()
        ...

    def main(_):
        tid = yield from api.thread_create(worker, 7,
                                           flags=api.THREAD_WAIT)
        yield from api.thread_wait(tid)

Names, flags, and semantics follow the paper; signatures are Pythonic
(``stack_addr``/``stack_size`` keep their meanings but stacks are modeled,
not raw memory).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import LwpExhausted, ThreadError
from repro.hw.context import Activity
from repro.hw.isa import Charge, GetContext, Syscall
from repro.kernel.signals import Sig, Sigset
from repro.threads.backoff import lwp_create_backoff
from repro.threads.thread import (THREAD_BIND_LWP, THREAD_NEW_LWP,
                                  THREAD_STOP, THREAD_WAIT, Thread,
                                  ThreadState)
from repro.threads.tls import TlsBlock

__all__ = [
    "THREAD_STOP", "THREAD_NEW_LWP", "THREAD_BIND_LWP", "THREAD_WAIT",
    "thread_create", "thread_exit", "thread_wait", "thread_get_id",
    "thread_sigsetmask", "thread_kill", "thread_stop", "thread_continue",
    "thread_priority", "thread_setconcurrency", "thread_yield",
    "tls_declare", "tls_get", "tls_set",
    "tsd_key_create", "tsd_get", "tsd_set",
    "current_thread", "threads_lib",
]

from repro.threads.scheduler import KEEP_VALUE as _KEEP


def threads_lib():
    """Generator: the calling process's threads library instance."""
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if lib is None:
        raise ThreadError("process has no threads library")
    return lib


def current_thread():
    """Generator: the calling thread's Thread object (library handle)."""
    ctx = yield GetContext()
    return ctx.thread


# ====================================================================
# creation / exit / wait
# ====================================================================

def thread_create(func, arg: Any = None, flags: int = 0,
                  stack_addr: Optional[int] = None, stack_size: int = 0):
    """Create a new thread executing ``func(arg)``; returns its ID.

    Flags are the paper's: THREAD_STOP (created suspended),
    THREAD_NEW_LWP (also grow the LWP pool), THREAD_BIND_LWP (permanently
    bound to a new LWP), THREAD_WAIT (another thread will thread_wait for
    it; the ID is not reused until then).

    "The initial thread priority and signal mask is set to the same values
    as its creator."  If ``func`` returns, the thread exits.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    lib.check_flags(flags)
    creator = ctx.thread
    costs = ctx.costs
    metrics = ctx.engine.metrics
    t_start = ctx.engine.now_ns if metrics is not None else 0

    if not lib.tls_layout.frozen:
        lib.tls_layout.freeze()

    own_stack = stack_addr is not None or (
        stack_size not in (0, lib.stack_alloc.default_size))
    yield Charge(costs.thread_create_user_own_stack if own_stack
                 else costs.thread_create_user)

    bound = bool(flags & THREAD_BIND_LWP)
    stopped = bool(flags & THREAD_STOP)
    thread = _new_thread(lib, func, arg, creator.priority,
                         creator.sigmask.copy(),
                         waitable=bool(flags & THREAD_WAIT), bound=bound,
                         stack_addr=stack_addr, stack_size=stack_size)

    if bound:
        # THREAD_BIND_LWP: "A new LWP is created and the new thread is
        # permanently bound to it."  The LWP's root context *is* the
        # thread's context.  lwp_create may fail with EAGAIN (LWP rlimit,
        # transient kernel shortage): retry with backoff, then apply the
        # library's exhaustion policy.
        try:
            lwp_id = yield from lwp_create_backoff(
                thread.activity, runnable=not stopped,
                on_retry=lib.note_lwp_retry)
        except LwpExhausted:
            if lib.lwp_exhaust_policy == "raise":
                # Undo the creation before surfacing the error.
                lib.stack_alloc.release(thread.stack)
                lib.retire_id(thread)
                lib.threads_created -= 1
                raise
            # Degrade: the thread runs unbound on the existing pool.  It
            # loses the bound-only guarantees (dedicated LWP, alternate
            # signal stack, real-time scheduling) but still runs.
            lib.bound_fallbacks += 1
            bound = False
            thread.bound = False
        else:
            lwp = ctx.process.lwps[lwp_id]
            lwp.bound_thread = thread
            lwp.current_thread = thread
            thread.lwp = lwp
            thread.state = (ThreadState.STOPPED if stopped
                            else ThreadState.RUNNABLE)
    if not bound:
        # Unbound, or demoted above: the library schedules it.
        if stopped:
            thread.state = ThreadState.STOPPED
        else:
            yield from lib.wake_thread(thread)

    if flags & THREAD_NEW_LWP:
        # "A new LWP is created along with the thread [and] added to the
        # pool of LWPs used to execute threads."  Pool growth is an
        # optimization: if LWPs are exhausted the thread still runs on the
        # existing pool, so swallow the failure (but count it).
        if not (yield from lib.grow_pool()):
            lib.pool_grow_failures += 1

    if metrics is not None:
        # Label by the *requested* boundness so the split is stable even
        # when LWP exhaustion downgrades a bound create (that fallback
        # has its own counter, threads.bound_fallbacks mirror).
        kind = "bound" if flags & THREAD_BIND_LWP else "unbound"
        metrics.count(f"threads.created.{kind}")
        metrics.observe(f"threads.create_ns.{kind}",
                        ctx.engine.now_ns - t_start)
    return thread.thread_id


def _new_thread(lib, func, arg, priority: int, sigmask: Sigset,
                waitable: bool = False, bound: bool = False,
                stack_addr: Optional[int] = None, stack_size: int = 0,
                name: Optional[str] = None) -> Thread:
    """Build and register a thread record (stack first, then ID, TLS
    block and activity): the one constructor, for ``thread_create``,
    process start and a supervisor's respawn.  Plain call, no charges;
    the caller decides where the thread first runs."""
    stack = lib.stack_alloc.allocate(
        stack_addr, stack_size, tls_reserved=lib.tls_layout.size_bytes)
    tid = lib.new_thread_id()
    thread = Thread(tid, func, arg, stack=stack,
                    tls_block=TlsBlock(lib.tls_layout), priority=priority,
                    sigmask=sigmask, waitable=waitable, bound=bound)
    thread.activity = Activity(_thread_body(lib, thread),
                               name=name or f"t{tid}")
    lib.threads[tid] = thread
    lib.threads_created += 1
    return thread


def _thread_body(lib, thread: Thread):
    """Root generator of every thread: run func(arg), then thread_exit."""
    ctx = yield GetContext()
    if ctx.lwp.current_thread is not thread:
        # First run of a bound thread: nobody adopted us yet.
        lib.adopt(ctx.lwp, thread)
    yield from lib.at_resume_point()
    # Run the body's generator directly rather than through an
    # as_generator trampoline: every effect the thread ever yields
    # passes through this frame, so the avoided indirection is one
    # generator resumption per simulated instruction.
    result = thread.func(thread.arg)
    if isinstance(result, Generator):
        result = yield from result
    yield from _exit_impl(lib, thread)
    return result  # pragma: no cover - _exit_impl never returns


def thread_exit():
    """Terminate the calling thread and release its library resources."""
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    yield from _exit_impl(lib, ctx.thread)


def _exit_impl(lib, thread: Thread):
    """The one true thread-exit path; never returns."""
    ctx = yield GetContext()

    # POSIX-style thread-specific data destructors (built on TLS).
    lib.tsd.run_destructors(thread.tls)

    from repro.sync.events import sync_event
    sync_event(ctx, "thread-exit", None, thread=thread)

    thread.exited = True
    thread.exit_status = 0  # "The exit status of a thread is always zero."
    thread.state = ThreadState.ZOMBIE
    m = ctx.engine.metrics
    if m is not None:
        m.count("threads.exited")
    lib.stack_alloc.release(thread.stack)

    # Release every thread we kept waiting.
    for lwp_id in lib.hand_off_exited(thread):
        yield Syscall("lwp_unpark", lwp_id)

    if lib.live_count() == 0:
        # Last thread gone: the process exits (classic Solaris rule).
        yield Syscall("exit", 0)

    if thread.bound:
        yield Syscall("lwp_exit")
        raise AssertionError("unreachable")  # pragma: no cover

    # Unbound: hand the LWP to the next thread (or the idle loop) and
    # vanish.  The switch never resumes this activity.
    yield Charge(lib.costs.thread_sched_pick)
    yield from lib._switch_away(ctx.lwp, thread)
    raise AssertionError("unreachable")  # pragma: no cover


def thread_wait(thread_id: Optional[int] = None):
    """Block until the given thread (or any THREAD_WAIT thread) exits.

    Returns the ID of the exited thread, after which that ID becomes
    "unusable in any subsequent thread operation" (and reusable by the
    library).  Errors per the paper: waiting on a non-THREAD_WAIT thread,
    on yourself, or double-waiting.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    me = ctx.thread
    yield Charge(lib.costs.sync_user_op)

    if thread_id is None:
        def dead_unclaimed():
            candidates = [t for t in lib.threads.values()
                          if t.exited and t.waitable and not t.wait_claimed]
            return (min(candidates, key=lambda t: t.thread_id)
                    if candidates else None)

        while True:
            target = dead_unclaimed()
            if target is not None:
                target.wait_claimed = True
                lib.retire_id(target)
                return target.thread_id
            if not any(t.waitable and not t.wait_claimed
                       for t in lib.threads.values() if t is not me):
                raise ThreadError("no THREAD_WAIT threads to wait for")
            # The guard closes the exit/publish race: if a waitable thread
            # died between the check above and the sleep, don't sleep.
            # An exit hands us its thread, or wakes us with None to scan
            # again.
            outcome = yield from lib.block_current_on(
                lib.any_waiters, guard=lambda: dead_unclaimed() is None)
            if isinstance(outcome, Thread):
                lib.retire_id(outcome)
                return outcome.thread_id

    if me is not None and thread_id == me.thread_id:
        raise ThreadError("a thread cannot wait for itself")
    target = lib.get_thread(thread_id)
    if not target.waitable:
        raise ThreadError(
            f"thread {thread_id} was created without THREAD_WAIT")
    if target.wait_claimed:
        raise ThreadError(f"thread {thread_id} already has a waiter")
    target.wait_claimed = True
    if not target.exited:
        # Guard again at publish time: the target may exit on another
        # LWP between the check and the sleep.
        yield from lib.block_current_on(target.waiters,
                                        guard=lambda: not target.exited)
    lib.retire_id(target)
    return target.thread_id


# ====================================================================
# identity, priority, concurrency
# ====================================================================

def thread_get_id():
    """The calling thread's ID ("meaning only within a process")."""
    ctx = yield GetContext()
    return ctx.thread.thread_id


def thread_priority(thread_id: Optional[int], priority: int):
    """Set a thread's scheduling priority; returns the old one.

    ``thread_id`` of None targets the caller.  Priority must be >= 0;
    higher values run first.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if priority < 0:
        raise ThreadError("priority must be >= 0")
    yield Charge(lib.costs.sync_user_op)
    target = (ctx.thread if thread_id is None
              else lib.get_thread(thread_id))
    old = target.priority
    if target.state is ThreadState.RUNNABLE and not target.bound:
        # Reposition in the run queue under the new priority.
        lib.runq.remove(target)
        target.priority = priority
        lib.runq.insert(target)
    else:
        target.priority = priority
    return old


def thread_setconcurrency(n: int):
    """Set the degree of real concurrency (number of pool LWPs).

    ``n == 0`` returns the library to automatic mode (grow on SIGWAITING
    to avoid deadlock).  Bound LWPs are not counted.  The library only
    guarantees *at least* this concurrency; the actual pool may vary.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if n < 0:
        raise ThreadError("concurrency must be >= 0")
    if n > len(lib.pool_lwps):
        lib.check_flags(THREAD_NEW_LWP)
    yield Charge(lib.costs.sync_user_op)
    lib.concurrency_target = n
    if n == 0:
        return 0
    current = len(lib.pool_lwps)
    if n > current:
        for _ in range(n - current):
            # "at least this concurrency" is best-effort: stop growing if
            # LWPs are exhausted and leave the rest to SIGWAITING.
            if not (yield from lib.grow_pool()):
                lib.pool_grow_failures += 1
                break
    elif n < current:
        lib._shrink_quota += current - n
        # Kick parked LWPs so they can notice and exit.
        kicks = min(lib._shrink_quota, len(lib.parked))
        for _ in range(kicks):
            lwp = lib.parked.pop(0)
            yield Syscall("lwp_unpark", lwp.lwp_id)
    return 0


def thread_yield():
    """Offer the LWP to another runnable thread (cooperative)."""
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if ctx.thread.bound or len(lib.runq) == 0:
        return
    yield from lib.reschedule()


# ====================================================================
# stop / continue
# ====================================================================

def thread_stop(thread_id: Optional[int] = None):
    """Prevent a thread from running until thread_continue.

    "If thread_id is NULL then the current thread is immediately stopped.
    ... thread_stop() does not return until the specified thread is
    stopped."  A bound thread stops as its LWP (``lwp_suspend``): at
    once, or when the LWP's sleep or CPU turn ends.  Stopped asleep, it
    keeps reading SLEEPING, and RUNNABLE once woken, while its LWP reads
    STOPPED.  An unbound thread stops in the library; for one running on
    another LWP the caller waits for its next switch point, or its exit.
    An exited thread counts as stopped.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    me = ctx.thread
    yield Charge(lib.costs.sync_user_op)
    target = me if thread_id is None else lib.get_thread(thread_id)

    if target.exited or target.state is ThreadState.STOPPED:
        return 0
    if target.bound:
        if target.state is not ThreadState.SLEEPING:
            target.state = ThreadState.STOPPED
        yield Syscall("lwp_suspend", target.lwp.lwp_id)
    elif target is me:
        yield from lib.reschedule(ThreadState.STOPPED)
    elif target.state is ThreadState.RUNNABLE:
        lib.runq.remove(target)
        target.state = ThreadState.STOPPED
    else:
        target.stop_pending = True
        if target.state is ThreadState.RUNNING:
            # Guard: if the target reached its stop (or exited) before
            # we sleep, don't sleep.
            yield from lib.block_current_on(
                target.stop_waiters,
                guard=lambda: target.stop_pending and not target.exited)
    return 0


def thread_continue(thread_id: int):
    """Start (or restart) a stopped thread.

    "The effect of thread_continue() may be delayed" — for an unbound
    thread it becomes runnable; an LWP picks it up when one is free.  A
    bound thread's LWP is continued whether or not it is stopped.  A
    continue that cancels a pending stop (an unbound target still
    running on another LWP) releases the ``thread_stop`` callers waiting
    for that stop, whose calls return 0.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    yield Charge(lib.costs.sync_user_op)
    target = lib.get_thread(thread_id)
    if target.bound and not target.exited:
        if target.state is ThreadState.STOPPED:
            target.state = (ThreadState.RUNNING if target.activity.started
                            else ThreadState.RUNNABLE)
        yield Syscall("lwp_continue", target.lwp.lwp_id)
    elif target.stop_pending:
        target.stop_pending = False
        waiters = target.stop_waiters
        yield from lib.wake_from_queue(waiters, len(waiters))
    elif target.state is ThreadState.STOPPED:
        yield from lib.wake_thread(target, value=_KEEP)
    return 0


# ====================================================================
# signals
# ====================================================================

def thread_sigsetmask(how: int, newset: Optional[Sigset] = None):
    """Set the calling thread's signal mask; returns the old mask.

    A pure user-level operation (the library caches the mask onto the LWP
    without entering the kernel); newly unmasked pending signals are
    delivered before this returns.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    me = ctx.thread
    old = me.sigmask.copy()
    if newset is not None:
        me.sigmask = me.sigmask.apply(how, newset)
        if me.lwp is not None:
            me.lwp.sigmask = me.sigmask
        # Deliver thread-pending signals we just unmasked.
        yield from lib.deliver_pending_signals(ctx)
        # If process-pending signals became deliverable, cross the kernel
        # boundary once so the kernel's delivery check runs.
        proc_pending = ctx.process.signals.pending
        if any(s not in me.sigmask for s in proc_pending.signals()):
            yield Syscall("sigpending")
    return old


def thread_kill(thread_id: int, sig: int):
    """Send a signal to a specific thread in this process.

    "the signal behaves like a trap and can be handled only by the
    specified thread."  Threads in other processes are invisible and
    cannot be signaled.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    me = ctx.thread
    sig = Sig(sig)
    yield Charge(lib.costs.sync_user_op)
    if me is not None and thread_id == me.thread_id:
        me.pending.add(sig)
        yield from lib.deliver_pending_signals(ctx)
        return 0
    lwp = lib.route_thread_signal(thread_id, sig)
    if lwp is not None:
        yield Syscall("lwp_kill", lwp.lwp_id, int(sig))
    return 0


def thread_set_time_slicing(quantum_usec: float):
    """Enable preemptive time slicing of unbound threads (0 disables).

    An extension in the spirit of the paper's tunability goals: the
    library arms each pool LWP's *virtual-time* interval timer (per-LWP
    state in the paper's list) and yields the processor from the
    SIGVTALRM handler, so compute-bound unbound threads share their LWP
    even without cooperative yields.  The handler is installed with
    SA_RESTART, so sliced threads never observe spurious EINTRs.
    """
    from repro.sim.clock import usec as _usec
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    quantum_ns = _usec(quantum_usec)
    if quantum_ns < 0:
        raise ThreadError("quantum must be >= 0")
    lib.time_slice_ns = quantum_ns
    if quantum_ns == 0:
        yield Syscall("setitimer", 1, 0)  # ITIMER_VIRTUAL off
        return
    yield Syscall("sigaction", int(Sig.SIGVTALRM), _timeslice_handler,
                  None, True)  # restart=True
    yield Syscall("setitimer", 1, quantum_ns)


def _timeslice_handler(sig: int):
    """SIGVTALRM handler: re-arm the LWP's quantum and yield the CPU."""
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if lib is None or not lib.time_slice_ns:
        return
    yield Syscall("setitimer", 1, lib.time_slice_ns)
    me = ctx.thread
    if me is None or me.bound or len(lib.runq) == 0:
        return
    lib.preemptive_slices += 1
    yield from lib.reschedule()


def thread_sigaltstack(stack=None, disable: bool = False):
    """Install an alternate signal stack — bound threads only.

    "Threads that are not bound to LWPs may not use alternate signal
    stacks.  Adding alternate signal stacks to the unbound thread state
    was deemed too expensive to implement because this would require a
    system call to establish the alternate stack for each context switch
    of a thread requiring it."
    """
    ctx = yield GetContext()
    me = ctx.thread
    if not me.bound:
        raise ThreadError(
            "alternate signal stacks require a bound thread "
            "(THREAD_BIND_LWP); per-switch kernel calls for unbound "
            "threads were deemed too expensive")
    old = yield Syscall("sigaltstack", stack, disable)
    return old


#: waitid() id types for the thread interface (paper's additions).
P_THREAD = 100
P_THREAD_ALL = 101


def thread_waitid(id_type: int, thread_id=None):
    """The paper's alternate wait interface: waitid with P_THREAD.

    ``P_THREAD`` waits for the specific thread; ``P_THREAD_ALL`` for any
    THREAD_WAIT thread.  Serviced entirely by the library, exactly as the
    paper specifies (the kernel rejects these id types).
    """
    if id_type == P_THREAD:
        result = yield from thread_wait(thread_id)
        return result
    if id_type == P_THREAD_ALL:
        result = yield from thread_wait(None)
        return result
    raise ThreadError(f"thread_waitid: bad id_type {id_type}")


# ====================================================================
# thread-local storage
# ====================================================================

def tls_declare(name: str):
    """Declare a thread-local variable (the ``#pragma unshared`` step).

    Must happen before the layout freezes at first thread creation.
    """
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    return lib.tls_layout.declare(name)


def tls_get(name: str):
    """Read the calling thread's copy of a thread-local variable."""
    ctx = yield GetContext()
    yield Charge(ctx.costs.tls_access)
    return ctx.thread.tls.get(name)


def tls_set(name: str, value: Any):
    """Write the calling thread's copy of a thread-local variable."""
    ctx = yield GetContext()
    yield Charge(ctx.costs.tls_access)
    ctx.thread.tls.set(name, value)


def tsd_key_create(destructor=None):
    """POSIX-style thread-specific-data key (built on TLS, per the paper)."""
    ctx = yield GetContext()
    return ctx.process.threadlib.tsd.key_create(destructor)


def tsd_get(key: int):
    ctx = yield GetContext()
    yield Charge(ctx.costs.tls_access)
    return ctx.process.threadlib.tsd.get_specific(ctx.thread.tls, key)


def tsd_set(key: int, value: Any):
    ctx = yield GetContext()
    yield Charge(ctx.costs.tls_access)
    ctx.process.threadlib.tsd.set_specific(ctx.thread.tls, key, value)
