"""Synchronization event emission and schedule-perturbation yield points.

Two thin hooks connect the synchronization package to the
schedule-exploration harness (:mod:`repro.explore`):

* :func:`sync_event` — notify passive listeners (dynamic detectors) that
  an acquire/release/wait/signal/exit transition happened.  Free when no
  listener is registered.
* :func:`sync_point` — an *instrumentable yield point*: emit the event,
  then consult the engine's active :class:`repro.sim.schedule.
  SchedulePlan` and, when it says so, preempt the current thread (a
  user-level reschedule, exactly a ``thread_yield``).  This is how the
  Explorer drives a program through many legal interleavings: the paper
  gives programs "no way to predict how the instructions of different
  threads are interleaved", so correct code must survive a preemption at
  every one of these points.

Neither hook imports anything above the sync layer; the threads library
is reached only through the execution context, keeping the layering
rules intact.
"""

from __future__ import annotations

from repro.hw.isa import GetContext

#: Event names emitted by the sync package (for reference; detectors
#: match on these strings):
#:
#: ``acquire`` / ``release``   mutex and rwlock ownership transitions
#:                             (detail: ``mode`` = "mutex"|"reader"|
#:                             "writer", ``blocking`` bool, ``shared``
#:                             bool, ``cell`` key or None)
#: ``cv-wait`` / ``cv-signal`` / ``cv-broadcast``
#:                             condition-variable traffic (detail:
#:                             ``mutex``, ``mutex_held``, ``waiters``)
#: ``sema-p`` / ``sema-v`` / ``sema-block``
#:                             semaphore traffic (detail: ``value``,
#:                             ``initial``)
#: ``thread-exit``             a user thread died (detail: ``thread``)
#: ``thread-crash``            a thread died with its LWP (detail:
#:                             ``thread``) — emitted by the crash-reclaim
#:                             walk *after* the per-lock ``owner-dead``
#:                             events
#: ``owner-dead``              a crashed thread's lock transitioned to
#:                             owner-dead (detail: ``thread``,
#:                             ``handoff`` = next holder's name or None)
#: ``sup-restart`` / ``sup-give-up`` / ``sup-watchdog-kill``
#:                             supervision-layer transitions (detail:
#:                             ``child``, ``supervisor``, ``restarts``)


class _NotifyCtx:
    """Minimal ExecContext stand-in for kernel-context emissions.

    The crash-reclaim walk and the supervisor run from engine timers and
    kernel callbacks where no CPU is mid-step, so there is no real
    ExecContext to pass to the listeners; they only read ``.thread``,
    ``.lwp``, and ``.engine``.
    """

    __slots__ = ("thread", "lwp", "engine", "cpu", "process")

    def __init__(self, engine, thread=None, lwp=None, process=None):
        self.engine = engine
        self.thread = thread
        self.lwp = lwp
        self.cpu = None
        self.process = process


def sync_notify(engine, op: str, sv, thread=None, lwp=None,
                process=None, **detail) -> None:
    """Kernel-context :func:`sync_event`: notify listeners without a CPU.

    Free when no listener is registered, like sync_event itself.
    """
    listeners = engine.sync_listeners
    if not listeners:
        return
    ctx = _NotifyCtx(engine, thread=thread, lwp=lwp, process=process)
    for listener in listeners:
        listener.on_sync(ctx, op, sv, detail)


def sync_active(ctx) -> bool:
    """True when a sync_point would do anything at all.

    Uncontended fast paths test this before ``yield from sync_point``:
    when no detector is listening and no schedule plan is attached (every
    normal run), the whole instrumentation generator is skipped — not
    even allocated.  This is behavior-identical because an inactive
    sync_point yields nothing.
    """
    engine = ctx.engine
    return bool(engine.sync_listeners) or engine.schedule is not None


def _fresh_ctx(ctx):
    """Re-resolve the execution context at delivery time.

    ``ctx`` was captured by a GetContext that may predate a block; when
    the thread resumed on a *different* LWP, ``ctx.thread`` would read
    the stale LWP's current thread and misattribute the event.  The CPU
    that is mid-step right now is the real emitter.
    """
    cpu = ctx.engine.stepping_cpu
    if cpu is not None and cpu.lwp is not None:
        if cpu is ctx.cpu and cpu.lwp is ctx.lwp:
            return ctx
        return cpu.ctx
    return ctx


def sync_event(ctx, op: str, sv, **detail) -> None:
    """Notify every registered listener of one sync transition.

    ``ctx`` is the current ExecContext (so listeners see the acting
    thread/LWP/process); ``sv`` is the primitive, or None for events
    that have no primitive (thread exit).
    """
    listeners = ctx.engine.sync_listeners
    if not listeners:
        return
    ctx = _fresh_ctx(ctx)
    for listener in listeners:
        listener.on_sync(ctx, op, sv, detail)


def sync_point(ctx, op: str, sv, **detail):
    """Emit the event, then maybe preempt (a yield point).

    Preemption is a plain user-level reschedule of the current unbound
    thread — the same state transition ``thread_yield`` makes — so it is
    always legal, merely adversarial.  Bound threads and pure-LWP code
    are never preempted here (they own their LWP).

    A plain function, not a generator: the overwhelmingly common verdict
    is "no preemption here", and returning ``()`` lets call sites'
    ``yield from`` consume an empty tuple — no generator object, no
    frame — while a positive verdict returns the preemption generator to
    be driven as before.  Call sites are oblivious either way.
    """
    sync_event(ctx, op, sv, **detail)
    plan = ctx.engine.schedule
    if plan is None:
        return ()
    if not plan.consult(op, getattr(sv, "name", None)):
        return ()
    lib = ctx.process.threadlib
    if lib is None:
        return ()
    return lib.preempt_current()


def maybe_sync_point(op: str, sv, **detail):
    """Generator: :func:`sync_point` that fetches its own context.

    For call sites that have not already paid for a GetContext.  When
    neither listeners nor a plan are active this costs a single free
    GetContext effect.
    """
    ctx = yield GetContext()
    yield from sync_point(ctx, op, sv, **detail)
