"""The user-level threads library: multiplexing threads onto LWPs.

This is the paper's core contribution.  The library lives entirely in the
process's address space: thread creation, context switch, blocking on a
synchronization variable, and wakeup of an unbound thread all happen
without entering the kernel.  The kernel is entered only to:

* create/destroy LWPs (bound threads, pool growth, setconcurrency);
* park an LWP that has no thread to run, and unpark it when work arrives;
* sleep on *process-shared* synchronization variables;
* perform the thread's own system calls (during which "the thread needing
  the system service remains bound to the LWP executing it").

The library reacts to ``SIGWAITING`` — sent by the kernel when every LWP
of the process blocks in an indefinite wait — by creating another LWP if
runnable threads exist, which is how "the library automatically creates as
many LWPs for use in scheduling unbound threads as required to avoid
deadlock".

Concurrency-safety idiom: the simulator executes the code between two
``yield`` points atomically (one discrete event).  Costs are charged
*before* state is published, and the publish + run-queue pick + context
switch happen in a single yield-free block — the simulator analogue of the
short spin-protected critical sections the real library uses.  The one
unavoidable window (a bound thread publishing, then parking its LWP via a
system call) is closed by the kernel's park *permit*, exactly as on real
SunOS.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.errors import Errno, LwpExhausted, SyscallError, ThreadError
from repro.hw.context import Activity, as_generator
from repro.hw.isa import (GET_CONTEXT, TIMED_OUT, Charge, SwitchTo,
                          Syscall, charge)
from repro.kernel.signals import Disposition, Sig
from repro.threads.backoff import lwp_create_backoff
from repro.threads.stack import StackAllocator
from repro.threads.thread import Thread, ThreadState
from repro.threads.tls import TlsLayout, TsdKeys

#: Safety valve on automatic pool growth (per process).
MAX_AUTO_LWPS = 64

#: Sentinel for make_runnable: keep the resume value already stored on the
#: thread's activity (used by thread_continue, which must not clobber the
#: value a sync wakeup delivered while the thread was stopped).
KEEP_VALUE = object()

#: Returned by block_current_on when the guard predicate vetoed the sleep.
NO_SLEEP = object()


class _ThreadRunQueue:
    """Priority FIFO of runnable unbound threads (user-level dispatcher).

    The paper promises programs "no way to predict how the instructions of
    different threads are interleaved"; we keep FIFO per priority so
    simulations are nevertheless deterministic.
    """

    def __init__(self):
        self._queues: dict[int, deque[Thread]] = {}
        self._count = 0
        # Priorities, descending.  Maintained on insert (priorities are
        # few and stable) so pop_best never sorts.
        self._prios: list[int] = []

    def insert(self, thread: Thread, front: bool = False) -> None:
        q = self._queues.get(thread.priority)
        if q is None:
            q = self._queues[thread.priority] = deque()
            self._prios = sorted(self._queues, reverse=True)
        if front:
            q.appendleft(thread)
        else:
            q.append(thread)
        self._count += 1

    def pop_best(self) -> Optional[Thread]:
        if not self._count:
            return None
        for prio in self._prios:
            q = self._queues[prio]
            if q:
                self._count -= 1
                return q.popleft()
        return None

    def remove(self, thread: Thread) -> bool:
        for q in self._queues.values():
            try:
                q.remove(thread)
                self._count -= 1
                return True
            except ValueError:
                continue
        return False

    def snapshot(self) -> list[Thread]:
        """All runnable threads, best-first (read-only; for the
        schedule-perturbation pick hook)."""
        out: list[Thread] = []
        for prio in self._prios:
            out.extend(self._queues[prio])
        return out

    def __len__(self) -> int:
        return self._count

    def __contains__(self, thread: Thread) -> bool:
        return any(thread in q for q in self._queues.values())


class ThreadsLibrary:
    """Per-process user-level threads runtime (lives at proc.threadlib)."""

    def __init__(self, process, costs, engine):
        self.process = process
        self.costs = costs
        self.engine = engine  # instrumentation, time reads, wait deadlines

        self.threads: dict[int, Thread] = {}
        self._next_id = 1
        self._free_ids: list[int] = []
        self.runq = _ThreadRunQueue()

        # LWP pool for unbound threads.
        self.pool_lwps: dict[int, Any] = {}     # lwp_id -> Lwp
        self.parked: list = []                  # Lwps parked or parking
        self.concurrency_target = 0             # 0 = automatic
        self._shrink_quota = 0                  # idle LWPs asked to exit

        self.stack_alloc = StackAllocator()
        self.tls_layout = TlsLayout()
        self.tls_layout.declare("errno")
        self.tsd = TsdKeys(self.tls_layout)

        # thread_wait(None) blockers and their results.
        self.any_waiters: list[Thread] = []
        self.any_reaped: dict[int, int] = {}    # waiter tid -> reaped tid

        # Optional preemptive time slicing of unbound threads (armed via
        # per-LWP virtual timers + SIGVTALRM; 0 = cooperative only).
        self.time_slice_ns = 0

        # What thread_create(THREAD_BIND_LWP) does when lwp_create keeps
        # failing with EAGAIN after backoff: "fallback" demotes the new
        # thread to unbound (it still runs, degraded); "raise" surfaces
        # LwpExhausted to the creator.
        self.lwp_exhaust_policy = "fallback"

        # Statistics (read by experiments).
        self.user_switches = 0
        self.unparks_requested = 0
        self.threads_created = 0
        self.lwps_grown_by_sigwaiting = 0
        self.preemptive_slices = 0
        self.preemptions_injected = 0   # schedule-exploration preempts
        # Degradation statistics.
        self.lwp_create_retries = 0     # backed-off lwp_create attempts
        self.bound_fallbacks = 0        # bound creations demoted to unbound
        self.pool_grow_failures = 0     # THREAD_NEW_LWP/setconcurrency skips
        self.sigwaiting_failures = 0    # growth handler gave up (re-armed)

    # ================================================== identity / lookup

    def new_thread_id(self) -> int:
        """Allocate an ID, preferring recycled ones (the paper allows
        reuse as soon as a non-THREAD_WAIT thread exits)."""
        if self._free_ids:
            return self._free_ids.pop()
        tid = self._next_id
        self._next_id += 1
        return tid

    def retire_id(self, thread: Thread) -> None:
        """Make the ID reusable and drop the bookkeeping entry."""
        if self.threads.pop(thread.thread_id, None) is not None:
            self._free_ids.append(thread.thread_id)

    def get_thread(self, thread_id: int) -> Thread:
        thread = self.threads.get(thread_id)
        if thread is None:
            raise ThreadError(f"no such thread: {thread_id}")
        return thread

    def all_threads(self) -> list[Thread]:
        return [self.threads[i] for i in sorted(self.threads)]

    def live_count(self) -> int:
        return sum(1 for t in self.threads.values() if not t.exited)

    # ================================================== LWP bookkeeping

    def check_flags(self, flags: int) -> None:
        """Raise ThreadError for ``thread_create`` flags this library
        cannot honour (``thread_setconcurrency`` asks for
        ``THREAD_NEW_LWP`` when it would grow the pool); this library
        honours them all."""

    def register_pool_lwp(self, lwp) -> None:
        self.pool_lwps[lwp.lwp_id] = lwp

    def unregister_pool_lwp(self, lwp) -> None:
        self.pool_lwps.pop(lwp.lwp_id, None)
        if lwp in self.parked:
            self.parked.remove(lwp)

    def adopt(self, lwp, thread: Thread) -> None:
        """Put ``thread`` on ``lwp`` — "loading the registers and assuming
        the identity of the thread" (paper, Figure 2b)."""
        lwp.current_thread = thread
        thread.lwp = lwp
        thread.state = ThreadState.RUNNING
        m = self.engine.metrics
        if m is not None and thread.ready_since_ns is not None:
            m.observe("threads.ready_wait_ns",
                      self.engine.now_ns - thread.ready_since_ns)
            thread.ready_since_ns = None
        # The mask belongs to the thread; the library keeps the LWP's
        # kernel-visible mask in sync without a system call (the cached
        # user-level mask trick), so a switch stays pure user mode.
        lwp.sigmask = thread.sigmask
        self.user_switches += 1

    def detach(self, lwp, thread: Thread) -> None:
        """Take ``thread`` off ``lwp`` (Figure 2c: save state back)."""
        if lwp.current_thread is thread:
            lwp.current_thread = None
        if thread.lwp is lwp:
            thread.lwp = None

    # ================================================== wakeup machinery

    def make_runnable(self, thread: Thread,
                      value: Any = None) -> list[int]:
        """Transition a thread to RUNNABLE.

        Returns the (possibly empty) list of LWP ids the caller must
        ``lwp_unpark`` — a kernel call.  An empty list is the pure
        user-mode wakeup at the heart of Figure 6's unbound row.
        """
        if value is not KEEP_VALUE:
            thread.wake_value = value
        if thread.stop_pending:
            # A deferred thread_stop overtakes the wakeup.
            thread.stop_pending = False
            thread.state = ThreadState.STOPPED
            return self._collect_stop_waiter_unparks(thread)
        thread.state = ThreadState.RUNNABLE
        if self.engine.metrics is not None:
            thread.ready_since_ns = self.engine.now_ns
        if thread.bound:
            # Its dedicated LWP is parked (or about to park): wake it.
            self.unparks_requested += 1
            return [thread.lwp.lwp_id]
        self.runq.insert(thread)
        if self.parked:
            lwp = self.parked.pop(0)
            self.unparks_requested += 1
            return [lwp.lwp_id]
        return []

    def wake_thread(self, thread: Thread, value: Any = None):
        """Generator: make runnable and issue any required unparks."""
        for lwp_id in self.make_runnable(thread, value):
            yield Syscall("lwp_unpark", lwp_id)

    def unpark_lwps(self, lwp_ids: list[int]) -> None:
        """Kernel-context twin of the ``lwp_unpark`` calls: unpark the
        LWPs :meth:`make_runnable` asked for, from a timer callback or
        the crash-reclaim walk, where no guest can issue the syscall."""
        lwps = self.process.lwps
        for lwp_id in lwp_ids:
            lwp = lwps.get(lwp_id)
            if lwp is not None:
                lwp.kernel.unpark_lwp(lwp)

    def wake_from_queue(self, queue: list, n: int = 1, value: Any = None):
        """Generator: wake up to ``n`` threads off a user wait queue;
        returns how many were woken."""
        woken = 0
        unparks: list[int] = []
        while queue and woken < n:
            thread = queue.pop(0)
            thread.wait_queue = None
            unparks.extend(self.make_runnable(thread, value))
            woken += 1
        for lwp_id in unparks:
            yield Syscall("lwp_unpark", lwp_id)
        return woken

    # ================================================== blocking / switch

    def block_current_on(self, queue: list, reason: str = "sync",
                         guard: Optional[Callable[[], bool]] = None,
                         deadline_ns: Optional[int] = None,
                         thread: Optional[Thread] = None):
        """Generator: sleep the current thread on a user-level wait queue.

        Returns the value passed by the waker.  Cost is charged first;
        then the guard check, enqueue, run-queue pick, and context switch
        execute in one atomic (yield-free) block, so there is no
        lost-wakeup window.

        ``guard``, if given, is evaluated inside the atomic block: when it
        returns False the thread does not sleep and :data:`NO_SLEEP` is
        returned — the check-then-block primitive the sync package builds
        semaphores and condition variables from.

        ``deadline_ns`` (absolute virtual time) makes this the timed
        block of ``thread``, the calling thread: one timer, armed before
        the block, takes the thread back off ``queue`` at the deadline,
        and a deadline already past when the atomic block runs declines
        the sleep; either way :data:`TIMED_OUT` is returned.  The timer
        is cancelled as soon as the block returns, and a cancelled timer
        never fires, so a wakeup in time leaves no trace of the deadline.
        """
        timer = None
        if deadline_ns is not None:
            timer = self._arm_timeout(deadline_ns, thread, queue)
        ctx = yield GET_CONTEXT
        thread = ctx.thread
        if not thread.bound:
            yield charge(self.costs.thread_sched_pick)
        # ---- atomic from here to the switch ----
        if guard is not None and not guard():
            value = NO_SLEEP
        elif timer is not None and self.engine.now_ns >= deadline_ns:
            value = TIMED_OUT        # the timer fired before we slept
        else:
            thread.state = ThreadState.SLEEPING
            thread.wait_queue = queue
            thread.sleep_since_ns = self.engine.now_ns
            queue.append(thread)
            value = yield from self._switch_away(ctx.lwp, thread)
        if timer is not None:
            self.engine.cancel(timer)
        return value

    def _arm_timeout(self, deadline_ns: int, thread: Thread, queue: list):
        """The timer of a timed block: at ``deadline_ns``, take
        ``thread`` off ``queue`` if it still sleeps there and resume it
        with :data:`TIMED_OUT`."""
        engine = self.engine

        def time_out():
            if thread in queue:
                queue.remove(thread)
                thread.wait_queue = None
                self.unpark_lwps(self.make_runnable(thread, TIMED_OUT))

        return engine.call_after(max(0, deadline_ns - engine.now_ns),
                                 time_out, tag="sync-timeout")

    def pick_next(self) -> Optional[Thread]:
        """Take the next thread off the run queue.

        The default policy is strict priority FIFO (deterministic).  An
        attached :class:`repro.sim.schedule.SchedulePlan` may override
        single reschedule decisions — picking a different runnable
        thread is always legal (the paper promises no interleaving
        order), merely adversarial.
        """
        plan = getattr(self.engine, "schedule", None)
        if plan is not None and len(self.runq) > 1:
            choice = plan.pick_runnable(self.runq.snapshot())
            if choice is not None and self.runq.remove(choice):
                return choice
        return self.runq.pop_best()

    def preempt_current(self):
        """Generator: involuntarily reschedule the current thread.

        The schedule-exploration analogue of an ill-timed time-slice
        end: the running unbound thread goes to the back of its priority
        queue and the LWP picks someone else.  A no-op for bound
        threads, pure-LWP code, and when nobody else is runnable.
        """
        ctx = yield GET_CONTEXT
        me = ctx.thread
        if me is None or me.bound or len(self.runq) == 0:
            return
        self.preemptions_injected += 1
        # This LWP is about to take a runnable sibling and leave ``me``
        # on the run queue, so a parked LWP must be told about the extra
        # work — the unpark happens while the queue is already non-empty,
        # the ordering the park permit is built for.  Skipping it can
        # strand a preempted holder of a process-shared lock: every
        # sibling LWP ends up kernel-blocked on that lock while the
        # holder sits runnable, waiting for an LWP that never comes.
        if self.parked:
            idle = self.parked.pop(0)
            self.unparks_requested += 1
            yield Syscall("lwp_unpark", idle.lwp_id)

        def publish():
            me.state = ThreadState.RUNNABLE
            self.runq.insert(me)

        yield from self.reschedule(publish=publish)

    def reschedule(self, publish: Optional[Callable[[], None]] = None):
        """Generator: publish a state change and give up the LWP.

        ``publish`` runs atomically with the switch (after costs are
        charged).  Returns when the thread next runs.
        """
        ctx = yield GET_CONTEXT
        thread = ctx.thread
        if not thread.bound:
            yield charge(self.costs.thread_sched_pick)
        if publish is not None:
            publish()
        yield from self._switch_away(ctx.lwp, thread)

    def _switch_away(self, lwp, thread: Thread):
        """Atomic tail: hand the LWP to the next thread or the idle loop.

        Resumes (much later) when this thread is adopted again; returns
        the waker's value.
        """
        if thread.bound:
            # Publishing already happened; the park permit absorbs an
            # unpark that lands before the park syscall blocks.
            while thread.state not in (ThreadState.RUNNABLE,
                                       ThreadState.RUNNING):
                try:
                    yield Syscall("lwp_park")
                except SyscallError as err:
                    if err.errno != Errno.EINTR:
                        raise
            thread.state = ThreadState.RUNNING
        else:
            nxt = self.pick_next()
            self.detach(lwp, thread)
            if nxt is not None:
                self.adopt(lwp, nxt)
                yield SwitchTo(nxt.activity)
            else:
                yield SwitchTo(self.idle_activity(lwp))
        thread.wait_queue = None
        thread.sleep_since_ns = None
        value = thread.wake_value
        thread.wake_value = None
        yield from self.at_resume_point()
        return value

    def at_resume_point(self):
        """Generator: housekeeping when a thread gets the CPU back —
        deferred stops, stop-waiter wakeups, user-routed signals."""
        ctx = yield GET_CONTEXT
        thread = ctx.thread
        if thread is None:
            return
        if thread.stop_pending:
            thread.stop_pending = False
            # Wake thread_stop() callers *before* switching away: the
            # stop is committed (this thread runs no more user code), and
            # deferring their unparks would strand any LWP make_runnable
            # popped from the parked list.
            for lwp_id in self._collect_stop_waiter_unparks(thread):
                yield Syscall("lwp_unpark", lwp_id)
            yield from self.reschedule(
                publish=lambda: self._enter_stopped(thread))
            return
        # Empty pending set (the common case): skip the delivery
        # generator — with nothing pending it yields nothing.
        if thread.pending:
            yield from self.deliver_pending_signals(ctx)

    def _enter_stopped(self, thread: Thread) -> None:
        thread.state = ThreadState.STOPPED

    def _collect_stop_waiter_unparks(self, thread: Thread) -> list[int]:
        """Wake thread_stop() callers blocked until this thread stopped."""
        waiters = getattr(thread, "_stop_waiters", None)
        if not waiters:
            return []
        unparks: list[int] = []
        for waiter in list(waiters):
            unparks.extend(self.make_runnable(waiter, value=None))
        waiters.clear()
        return unparks

    # ================================================== the idle loop

    def idle_activity(self, lwp) -> Activity:
        """The per-LWP idle context: looks for work, parks when idle.

        Created lazily; an idle activity only ever runs on its own LWP.
        """
        act = getattr(lwp, "_idle_activity", None)
        if act is None:
            act = Activity(self._idle_loop(lwp), name=f"{lwp.name}-idle")
            lwp._idle_activity = act
        return act

    def _idle_loop(self, lwp):
        while True:
            if (self.time_slice_ns and lwp.vtimer_remaining_ns == 0):
                # Library time slicing is on: (re)arm this LWP's virtual
                # timer before handing it to a thread.
                yield Syscall("setitimer", 1, self.time_slice_ns)
            yield charge(self.costs.thread_sched_pick)
            nxt = self.pick_next()
            if nxt is not None:
                self.adopt(lwp, nxt)
                yield SwitchTo(nxt.activity)
                continue
            if self._shrink_quota > 0 and len(self.pool_lwps) > 1:
                # setconcurrency asked for fewer LWPs; oblige by exiting.
                self._shrink_quota -= 1
                self.unregister_pool_lwp(lwp)
                yield Syscall("lwp_exit")
            self.parked.append(lwp)
            try:
                yield Syscall("lwp_park")
            except SyscallError as err:
                if err.errno != Errno.EINTR:
                    raise
            if lwp in self.parked:  # woken by a signal, not an unpark
                self.parked.remove(lwp)

    def idle_boot(self):
        """Root generator for a brand-new pool LWP."""
        ctx = yield GET_CONTEXT
        lwp = ctx.lwp
        self.register_pool_lwp(lwp)
        lwp._idle_activity = lwp.current_activity
        yield from self._idle_loop(lwp)

    def new_pool_lwp_activity(self) -> Activity:
        return Activity(self.idle_boot(), name="pool-idle-boot")

    def note_lwp_retry(self, attempt: int) -> None:
        """Backoff hook: count a retried lwp_create (any site)."""
        self.lwp_create_retries += 1
        m = self.engine.metrics
        if m is not None:
            m.count("threads.lwp_create_retries")

    # ================================================== SIGWAITING growth

    #: Retry budget inside the SIGWAITING handler.  Small: the handler
    #: must not camp on the signal frame; on exhaustion it re-arms and
    #: lets the kernel post SIGWAITING again if starvation persists.
    SIGWAITING_GROW_ATTEMPTS = 3

    def sigwaiting_handler(self, sig: int):
        """User handler for SIGWAITING: add an LWP if threads are starving.

        "The threads package can use the receipt of SIGWAITING to cause
        extra LWPs to be created as required to avoid deadlock."

        Under EAGAIN (LWP rlimit, injected fault) the handler retries
        with a short backoff, then *re-arms* — clearing
        ``sigwaiting_posted`` so the kernel may post SIGWAITING again —
        instead of letting the error crash the process.
        """
        if len(self.runq) == 0 or self.parked:
            return
        if len(self.pool_lwps) >= MAX_AUTO_LWPS:
            return
        try:
            lwp_id = yield from lwp_create_backoff(
                self.new_pool_lwp_activity(),
                attempts=self.SIGWAITING_GROW_ATTEMPTS,
                on_retry=self.note_lwp_retry)
        except LwpExhausted:
            self.sigwaiting_failures += 1
            m = self.engine.metrics
            if m is not None:
                m.count("threads.sigwaiting_failures")
            self.process.sigwaiting_posted = False
            return
        self.lwps_grown_by_sigwaiting += 1
        m = self.engine.metrics
        if m is not None:
            m.count("threads.sigwaiting_grown")
        self.register_pool_lwp(self.process.lwps[lwp_id])

    # ================================================== signal routing

    def route_thread_signal(self, thread_id: int, sig: Sig):
        """thread_kill/sigsend(P_THREAD) routing decision.

        Marks the signal pending on the thread (trap semantics: only that
        thread handles it) and returns the LWP to poke via the kernel when
        the thread is currently riding one with the signal unmasked, else
        None (delivery happens at the thread's next resume point).
        """
        thread = self.get_thread(thread_id)
        if thread.exited:
            raise ThreadError(f"thread {thread_id} has exited")
        if thread.lwp is not None and sig not in thread.sigmask:
            # Riding an LWP (running, or temporarily bound inside a system
            # call) with the signal unmasked: the kernel can deliver it to
            # that LWP directly, which *is* this thread's context.
            return thread.lwp
        thread.pending.add(sig)
        return None

    def deliver_pending_signals(self, ctx):
        """Generator: run handlers for this thread's deliverable signals.

        thread_kill signals behave like traps: handled by this thread
        only, in signal-number order, respecting the thread's mask.
        """
        thread = ctx.thread
        proc = self.process
        for sig in thread.pending.signals():
            if sig in thread.sigmask:
                continue
            thread.pending.discard(sig)
            action = proc.signals.action(sig)
            if action.is_ignore():
                continue
            if action.is_default():
                disp = proc.signals.disposition(sig)
                if disp in (Disposition.EXIT, Disposition.CORE):
                    yield Syscall("exit", 128 + int(sig))
                elif disp is Disposition.STOP:
                    yield Syscall("kill", proc.pid, int(Sig.SIGSTOP))
                continue
            proc.signals.delivered_count[sig] += 1
            yield Charge(self.costs.signal_deliver)
            old_mask = thread.sigmask
            during = old_mask.union(action.mask)
            during.add(sig)
            thread.sigmask = during
            if thread.lwp is not None:
                thread.lwp.sigmask = during
            try:
                yield from as_generator(action.handler, int(sig))
            finally:
                thread.sigmask = old_mask
                if thread.lwp is not None:
                    thread.lwp.sigmask = old_mask
            yield Charge(self.costs.signal_return)

    # ================================================== debug / reporting

    def snapshot(self) -> dict:
        """Library state summary (debugger/threads-library cooperation)."""
        states: dict[str, int] = {}
        for t in self.threads.values():
            states[t.state.value] = states.get(t.state.value, 0) + 1
        return {
            "threads": len(self.threads),
            "live": self.live_count(),
            "states": states,
            "runq": len(self.runq),
            "pool_lwps": len(self.pool_lwps),
            "parked": len(self.parked),
            "user_switches": self.user_switches,
            "unparks": self.unparks_requested,
            "stack_cache": self.stack_alloc.cached_count,
            "lwp_create_retries": self.lwp_create_retries,
            "bound_fallbacks": self.bound_fallbacks,
            "pool_grow_failures": self.pool_grow_failures,
            "sigwaiting_failures": self.sigwaiting_failures,
        }
