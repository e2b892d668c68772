"""Supervision: restart crashed threads, deterministically.

The crash-reclaim walk (:mod:`repro.threads.reclaim`) repairs what a
dead thread *held*; this layer repairs what it *was doing*.  A
:class:`Supervisor` owns a set of child threads; when one dies with its
LWP the reclaim walk notifies the supervisor (``thread.supervisor``
backref), which respawns the child after an exponential-backoff delay —
the same schedule constants the library's ``lwp_create`` retries use
(:mod:`repro.threads.backoff`) — until a per-child restart budget is
spent, at which point it gives up and reports the loss.

Design constraint: supervision must be *passive when healthy*.  A
supervised program that never crashes must produce the identical event
trace to an unsupervised one, so the exploration harness's golden
digests hold.  The supervisor is therefore not a monitor thread: it is a
plain object whose machinery runs entirely in kernel context —

* child bookkeeping on ``spawn()`` is plain attribute writes around an
  ordinary ``thread_create``;
* crash handling is a plain call from the reclaim walk (itself an
  engine-timer context);
* restarts are ``engine.call_after`` callbacks that respawn the thread
  through ``thread_create``'s constructor (no guest charges: the dead
  thread already paid for its stack and ID once);
* the watchdog is a repeating engine timer that compares heartbeat
  stamps — ``heartbeat()`` itself is one attribute store, yield-free.

Restart policies are the classic pair: ``one-for-one`` (restart only
the crashed child) and ``one-for-all`` (a crash kills and restarts every
sibling — for children that share in-memory state a half-dead cohort
would corrupt).

All transitions are announced via ``sync_notify`` (``sup-restart``,
``sup-give-up``, ``sup-watchdog-kill``) for the dynamic detectors, and
counted under ``supervisor.*`` metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hw.isa import GetContext
from repro.sim.clock import usec
from repro.sync.events import sync_notify
from repro.threads.api import _new_thread
from repro.threads.backoff import (DEFAULT_ATTEMPTS, DEFAULT_BASE_USEC,
                                   DEFAULT_FACTOR, DEFAULT_MAX_DELAY_USEC)
from repro.threads.thread import Thread, ThreadState

__all__ = ["ChildSpec", "Supervisor"]


class ChildSpec:
    """One supervised child: how to (re)build it, and its crash history."""

    def __init__(self, name: str, func: Callable, arg: Any,
                 priority: int, sigmask):
        self.name = name
        self.func = func
        self.arg = arg
        self.priority = priority
        self.sigmask = sigmask
        #: Respawned incarnations keep the original's waitability so a
        #: drain can still thread_wait the current thread.
        self.waitable = False
        #: The live thread currently embodying this child (None between
        #: a crash and the restart, and after exit/give-up).
        self.thread: Optional[Thread] = None
        self.restarts = 0
        self.gave_up = False
        self.done = False
        #: Virtual time of the last heartbeat() (watchdog liveness).
        self.last_beat_ns: Optional[int] = None

    def __repr__(self) -> str:
        return f"<ChildSpec {self.name} restarts={self.restarts}>"


class Supervisor:
    """Deterministic virtual-time supervisor for a set of child threads.

    Args:
        policy: ``"one-for-one"`` (default) or ``"one-for-all"``.
        max_restarts: per-child budget; the ``max_restarts+1``-th crash
            escalates to give-up.
        backoff_*: restart-delay schedule (exponential, capped), sharing
            the library's lwp_create retry constants by default.
        restart_arg: optional ``f(spec, crashed_thread) -> arg`` called in
            kernel context at crash time to choose the respawned child's
            argument (e.g. hand over the dead worker's in-flight work
            item).  Must be yield-free.  Defaults to the original arg.
        on_give_up: optional ``f(spec, crashed_thread, kernel)`` called in
            kernel context when a child's budget is spent.  Must be
            yield-free.
        heartbeat_timeout_usec: when set, arms the watchdog — a child
            whose last ``heartbeat()`` is older than this is killed
            through the crash path (and so restarted, on budget).
        watchdog_interval_usec: watchdog poll period (default: half the
            heartbeat timeout).
    """

    def __init__(self, *, policy: str = "one-for-one",
                 max_restarts: int = DEFAULT_ATTEMPTS,
                 backoff_base_usec: float = DEFAULT_BASE_USEC,
                 backoff_factor: float = DEFAULT_FACTOR,
                 backoff_max_usec: float = DEFAULT_MAX_DELAY_USEC,
                 restart_arg: Optional[Callable] = None,
                 on_give_up: Optional[Callable] = None,
                 heartbeat_timeout_usec: Optional[float] = None,
                 watchdog_interval_usec: Optional[float] = None,
                 name: str = "supervisor"):
        if policy not in ("one-for-one", "one-for-all"):
            raise ValueError(f"bad supervision policy {policy!r}")
        self.name = name
        self.policy = policy
        self.max_restarts = max_restarts
        self.backoff_base_usec = backoff_base_usec
        self.backoff_factor = backoff_factor
        self.backoff_max_usec = backoff_max_usec
        self.restart_arg = restart_arg
        self.on_give_up = on_give_up
        self.heartbeat_timeout_usec = heartbeat_timeout_usec
        self.watchdog_interval_usec = (
            watchdog_interval_usec
            if watchdog_interval_usec is not None
            else (heartbeat_timeout_usec / 2.0
                  if heartbeat_timeout_usec else None))
        self.children: list[ChildSpec] = []
        # Bound at first spawn() (the supervisor is built before boot).
        self._lib = None
        self._kernel = None
        self._draining = False
        self._cascading = False
        self._crashed_batch: list[tuple] = []
        self._watchdog_armed = False

    # ------------------------------------------------------------- guest API

    def spawn(self, func: Callable, arg: Any = None,
              name: Optional[str] = None, flags: int = 0):
        """Generator: create a supervised child thread; returns its spec.

        Runs an ordinary ``thread_create`` plus plain bookkeeping — a
        healthy supervised spawn is trace-identical to a bare one.
        ``flags`` pass through (e.g. THREAD_NEW_LWP to grow the pool).
        """
        from repro.threads import api
        ctx = yield GetContext()
        self._lib = ctx.process.threadlib
        self._kernel = ctx.kernel
        spec = ChildSpec(name or f"{self.name}-child-{len(self.children)}",
                         func, arg, priority=ctx.thread.priority,
                         sigmask=ctx.thread.sigmask.copy())
        self.children.append(spec)
        from repro.threads.thread import THREAD_WAIT
        spec.waitable = bool(flags & THREAD_WAIT)
        tid = yield from api.thread_create(self._child_body(spec), arg,
                                           flags=flags)
        thread = self._lib.threads.get(tid)
        if thread is None:
            # The child lived its whole life inside our thread_create
            # tail (other CPUs ran it while we paid the creation
            # charges) and, being non-waitable, retired its own id.  A
            # normal exit already ran _on_child_exited through the body
            # wrapper; anything else is a crash-at-birth the reclaim
            # walk could not route to us (the thread was never adopted,
            # so it carried no supervisor pointer) — restart it here.
            if not spec.done:
                self._after_crash(spec, None, ctx.kernel)
        else:
            self._adopt(spec, thread, ctx.engine)
        self._arm_watchdog(ctx.engine)
        m = ctx.engine.metrics
        if m is not None:
            m.count("supervisor.spawned")
        return spec

    def heartbeat(self, spec: ChildSpec) -> None:
        """Plain call (yield-free): stamp the child alive for the
        watchdog.  Children call this between work items."""
        spec.last_beat_ns = self._lib.engine.now_ns

    def drain(self) -> None:
        """Stop supervising: no further restarts or watchdog kills.

        Plain call; running children finish naturally.  The graceful-
        shutdown half of the protocol — without it, a server tearing
        down would see its exiting workers 'crash' and respawn them."""
        self._draining = True

    @property
    def live_children(self) -> list[ChildSpec]:
        return [s for s in self.children if s.thread is not None]

    # ----------------------------------------------------- child lifecycle

    def _child_body(self, spec: ChildSpec):
        """Wrap the child's function so a *normal* return is observed
        with zero extra yields (crashes never pass through here)."""
        func = spec.func

        def body(arg):
            result = func(arg)
            if hasattr(result, "send"):
                result = yield from result
            self._on_child_exited(spec)
            return result

        return body

    def _adopt(self, spec: ChildSpec, thread: Thread, engine) -> None:
        thread.supervisor = self
        thread.name = spec.name
        if thread.exited:
            # The child ran to completion (or crashed) before the
            # creator got here; its exit already cleared the spec.
            return
        spec.thread = thread
        spec.last_beat_ns = engine.now_ns

    def _on_child_exited(self, spec: ChildSpec) -> None:
        spec.done = True
        spec.thread = None
        if self._lib is not None:
            m = self._lib.engine.metrics
            if m is not None:
                m.count("supervisor.normal_exits")

    # ----------------------------------------------- crash path (kernel ctx)

    def on_child_crashed(self, thread: Thread, kernel) -> None:
        """Called by the crash-reclaim walk.  Kernel context, yield-free."""
        spec = None
        for s in self.children:
            if s.thread is thread:
                spec = s
                break
        if spec is None:
            return
        spec.thread = None
        engine = kernel.engine
        m = engine.metrics
        if m is not None:
            m.count("supervisor.child_crashes")
        if self._draining:
            return
        self._crashed_batch.append((spec, thread))
        if self._cascading:
            return
        if self.policy == "one-for-all":
            # A crash poisons the cohort: kill every sibling through the
            # same reclaim path (their on_child_crashed re-entries land
            # in _crashed_batch), then restart the lot.
            self._cascading = True
            for s in list(self.children):
                if s.thread is not None:
                    self._kill(s, kernel)
            self._cascading = False
        batch, self._crashed_batch = self._crashed_batch, []
        for s, dead in batch:
            self._after_crash(s, dead, kernel)

    def _after_crash(self, spec: ChildSpec, dead: Thread, kernel) -> None:
        engine = kernel.engine
        if spec.restarts >= self.max_restarts:
            spec.gave_up = True
            sync_notify(engine, "sup-give-up", None, thread=dead,
                        process=self._lib.process, child=spec.name,
                        supervisor=self.name, restarts=spec.restarts)
            m = engine.metrics
            if m is not None:
                m.count("supervisor.give_ups")
            if self.on_give_up is not None:
                self.on_give_up(spec, dead, kernel)
            return
        spec.restarts += 1
        if self.restart_arg is not None:
            spec.arg = self.restart_arg(spec, dead)
        delay = min(self.backoff_base_usec
                    * self.backoff_factor ** (spec.restarts - 1),
                    self.backoff_max_usec)
        engine.call_after(usec(delay), lambda: self._respawn(spec, kernel),
                          tag="sup-restart")

    def _respawn(self, spec: ChildSpec, kernel) -> None:
        """Kernel-context thread (re)creation: the library-bookkeeping
        half of ``thread_create``, minus the guest-side charges (the
        first incarnation paid them)."""
        lib = self._lib
        proc = lib.process
        if (self._draining or spec.gave_up or proc.dying
                or not proc.live_lwps()):
            return
        engine = kernel.engine
        thread = _new_thread(lib, self._child_body(spec), spec.arg,
                             spec.priority, spec.sigmask.copy(),
                             waitable=spec.waitable)
        self._adopt(spec, thread, engine)
        unparks = lib.make_runnable(thread)
        lib.unpark_lwps(unparks)
        if not unparks:
            # No parked vehicle picked the child up: the crash killed its
            # pool LWP, so restore the pool too (kernel-context twin of
            # the THREAD_NEW_LWP growth path — and of the progress
            # SIGWAITING would otherwise have to ask for).
            lwp = kernel.create_lwp(proc, lib.new_pool_lwp_activity())
            lib.register_pool_lwp(lwp)
        sync_notify(engine, "sup-restart", None, thread=thread,
                    process=proc, child=spec.name, supervisor=self.name,
                    restarts=spec.restarts)
        m = engine.metrics
        if m is not None:
            m.count("supervisor.restarts")

    def _kill(self, spec: ChildSpec, kernel) -> None:
        """Kill a live child through the crash-reclaim path (the reclaim
        walk calls back into on_child_crashed).  Kernel context."""
        from repro.threads.reclaim import reclaim_crashed_thread
        thread = spec.thread
        if thread is None or thread.exited:
            return
        lwp = thread.lwp
        if lwp is not None and (lwp.current_thread is thread
                                or lwp.bound_thread is thread):
            # Riding an LWP: the vehicle dies with the passenger, just
            # as a fault-injected crash would take both.
            kernel.crash_lwp(lwp)
        else:
            # Off-LWP (a sleeping unbound thread): reclaim it directly.
            reclaim_crashed_thread(kernel, self._lib, thread)

    # --------------------------------------------------------- watchdog

    def _arm_watchdog(self, engine) -> None:
        if (self._watchdog_armed or self.heartbeat_timeout_usec is None
                or self._kernel is None):
            return
        self._watchdog_armed = True
        engine.call_after(usec(self.watchdog_interval_usec),
                          self._watchdog_tick, tag="sup-watchdog")

    def _watchdog_tick(self) -> None:
        kernel = self._kernel
        engine = kernel.engine
        proc = self._lib.process
        if self._draining or proc.dying:
            self._watchdog_armed = False
            return
        timeout_ns = usec(self.heartbeat_timeout_usec)
        now = engine.now_ns
        for spec in list(self.children):
            thread = spec.thread
            if thread is None or spec.last_beat_ns is None:
                continue
            if now - spec.last_beat_ns <= timeout_ns:
                continue
            # Missed heartbeats: name what the child is stuck on (the
            # wait-for graph knows) and kill it through the crash path.
            waiting_on = self._stuck_on(kernel, thread)
            sync_notify(engine, "sup-watchdog-kill", None, thread=thread,
                        process=proc, child=spec.name,
                        supervisor=self.name, waiting_on=waiting_on,
                        silent_ns=now - spec.last_beat_ns)
            m = engine.metrics
            if m is not None:
                m.count("supervisor.watchdog_kills")
            self._kill(spec, kernel)
        if self.live_children:
            engine.call_after(usec(self.watchdog_interval_usec),
                              self._watchdog_tick, tag="sup-watchdog")
        else:
            self._watchdog_armed = False

    def _stuck_on(self, kernel, thread: Thread) -> Optional[str]:
        """What a hung child is blocked on, per the wait-for graph."""
        if thread.state is not ThreadState.SLEEPING:
            return None
        from repro.analysis.waitgraph import build_wait_graph
        edges, _ = build_wait_graph(kernel)
        for e in edges:
            if e.thread is thread:
                return f"{e.kind}:{e.resource}"
        return None
