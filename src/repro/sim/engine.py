"""The discrete-event engine.

The engine owns the virtual clock and the event queue and advances the
simulation by firing events in (time, sequence) order.  Everything above it
— hardware, kernel, threads library — expresses behaviour as events.

The engine knows nothing about CPUs or processes; it only runs callbacks.
Deadlock detection is delegated to an optional ``idle_check`` hook installed
by the machine, which can inspect kernel state when the event queue drains.

Step slots
----------

Most events are a CPU's next step, and most of those sort before
everything else in the queue.  So a *stepper* (a CPU) need not push an
:class:`Event` for its next step.  It reserves the step's
``(time_ns, seq)`` from the queue exactly as a push would, and inserts
the entry ``(time_ns, seq, stepper)`` into ``engine.slots``, a list
kept in key order with at most one entry per stepper.  The seq is the
newest, so the entry goes after every slotted entry whose time is not
later than its own: the order the heap would give.  :meth:`Engine.run`
merges the slots with the heap.  When ``slots[0]`` sorts before every
live queued event (cancelled heap tops are dropped on the way) it runs
the step in place with ``stepper.step()``: no ``Event``, no heap push
or pop.  It counts toward ``max_events`` like any event, and a slotted
step past ``until_ns`` stops the run there.  Otherwise the heap event
fires and the slots wait.  On its way out (return or raise) ``run()``
calls ``unpark()`` on every slotted stepper, which pushes the step as
an ordinary ``Event`` with its reserved key, so outside ``run()`` every
pending step is an ordinary queued event and ``len(queue)``,
``peek_time`` and deadlock detection stay exact.
"""

from __future__ import annotations

from heapq import heappop
from typing import Callable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.clock import NS_PER_US
from repro.sim.events import Event, EventQueue
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import Tracer


class Engine:
    """Discrete-event simulation driver.

    Attributes:
        now_ns: current virtual time in integer nanoseconds.  Only
            :meth:`run` advances it, and never backwards; everything
            else reads it.
        tracer: structured trace collector (off by default).
        rng: deterministic random source with named sub-streams.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None):
        self.now_ns = 0
        self.queue = EventQueue()
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = DeterministicRNG(seed)
        self._running = False
        self._events_fired = 0
        # Hook returning a human-readable description of blocked entities,
        # or None when being idle is legitimate.  Installed by the machine.
        self.idle_check: Optional[Callable[[], Optional[str]]] = None
        # Hook rendering a full wait-for-graph report of a hang (who
        # waits on what, held by whom).  Installed by the kernel.
        self.hang_reporter: Optional[Callable[[], str]] = None
        # Active fault-injection plan (repro.sim.faults.FaultPlan).
        self.faults = None
        # Active schedule-perturbation plan (repro.sim.schedule.
        # SchedulePlan): consulted at instrumented yield points.
        self.schedule = None
        # Scheduling-class override armed by a SchedulerChoice rule: a
        # plain class-name string ("CFS", "MLFQ", ...).  The kernel
        # interprets it at LWP creation; the engine itself stays
        # kernel-agnostic.
        self.sched_class_override: Optional[str] = None
        # Attached MetricsRegistry (repro.obs.registry), or None.
        # Instrumentation sites gate on `engine.metrics is not None` —
        # the same one-attribute-check price as the tracer gates — and
        # hooks are passive (clock reads + dict updates only), so
        # enabling metrics never perturbs virtual time or trace digests.
        self.metrics = None
        # Passive observers of synchronization events (acquire/release,
        # cv wait/signal, thread exit).  Appended to by the dynamic
        # detectors in repro.explore; empty in normal runs.
        self.sync_listeners: list = []
        # The CPU whose activity is mid-step right now (set/cleared by
        # CPU._step around the generator resume).  Lets observers
        # attribute an in-flight access to its executor without scanning
        # every CPU.
        self.stepping_cpu = None
        # The ``(time_ns, seq, stepper)`` entries of the steps that are
        # reserved but not queued, in key order (see the module
        # docstring); empty outside run().
        self.slots: list = []

    # ----------------------------------------------------------------- time

    @property
    def now_usec(self) -> float:
        """Current virtual time in microseconds."""
        return self.now_ns / NS_PER_US

    def _advance_to(self, t_ns: int) -> None:
        """Move the clock forward to ``t_ns``.  Time never goes backward."""
        if t_ns < self.now_ns:
            raise ValueError(
                f"clock would go backward: {t_ns} < {self.now_ns}")
        self.now_ns = t_ns

    # ------------------------------------------------------------ scheduling

    def call_at(self, time_ns: int, fn: Callable[[], None],
                tag: str = "") -> Event:
        """Schedule ``fn`` at absolute virtual time ``time_ns``."""
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule event in the past: {time_ns} < "
                f"{self.now_ns}")
        return self.queue.push(time_ns, fn, tag)

    def call_after(self, delay_ns: int, fn: Callable[[], None],
                   tag: str = "") -> Event:
        """Schedule ``fn`` after ``delay_ns`` nanoseconds of virtual time."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.queue.push(self.now_ns + delay_ns, fn, tag)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event.  Safe to call more than once, and a
        no-op for an event that has already fired."""
        event.cancelled = True

    # ----------------------------------------------------------------- run

    def run(self, until_ns: Optional[int] = None,
            max_events: Optional[int] = None,
            check_deadlock: bool = True) -> int:
        """Fire events until the queue drains (or a limit is reached).

        Args:
            until_ns: stop once the clock would pass this absolute time.
            max_events: stop after firing this many events (guard rail for
                runaway simulations; raises SimulationError if exhausted).
            check_deadlock: when the queue drains, consult ``idle_check``
                and raise :class:`DeadlockError` if entities remain blocked.

        Returns:
            The number of events fired by this call.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        fired = 0
        # Hot loop: hoist bound methods so each iteration is local loads
        # only (the loop body runs once per simulated effect).
        pop_next = self.queue.pop_next
        heap = self.queue._heap
        slots = self.slots
        try:
            while True:
                if slots:
                    entry = slots[0]
                    first = True
                    while heap:
                        top = heap[0]
                        if entry < top:  # keys are unique: never ties
                            break
                        if not top[2].cancelled:
                            first = False
                            break
                        heappop(heap)  # a cancelled entry: drop it
                    if first:
                        t = entry[0]
                        if until_ns is not None and t > until_ns:
                            self._advance_to(until_ns)
                            break
                        # Run the step in place.  Every event fired
                        # since it was slotted sorted before it, so
                        # t >= now.
                        del slots[0]
                        self.now_ns = t
                        entry[2].step()
                        fired += 1
                        if max_events is not None and fired >= max_events:
                            self._exhausted(max_events)
                        continue
                next_time, ev = pop_next(until_ns)
                if ev is None:
                    if next_time is not None:
                        # Next live event lies beyond until_ns.
                        self._advance_to(until_ns)
                        break
                    if check_deadlock and self.idle_check is not None:
                        complaint = self.idle_check()
                        if complaint:
                            report = self.diagnose_hang()
                            if report:
                                complaint = f"{complaint}\n{report}"
                            raise DeadlockError(complaint)
                    break
                if next_time < self.now_ns:
                    self._advance_to(next_time)  # raises: time went back
                self.now_ns = next_time
                ev.fn()
                fired += 1
                if max_events is not None and fired >= max_events:
                    self._exhausted(max_events)
        finally:
            self._running = False
            for entry in slots:
                entry[2].unpark()
            slots.clear()
            self._events_fired += fired
        return fired

    def _exhausted(self, max_events: int) -> None:
        raise SimulationError(
            f"max_events={max_events} exhausted at "
            f"t={self.now_usec:.1f}us; runaway simulation?")

    def diagnose_hang(self) -> str:
        """Render the wait-for graph of everything currently blocked.

        Delegates to the ``hang_reporter`` hook (installed by the kernel);
        callable at any time, not just at deadlock — useful from a
        debugger while a simulation seems wedged.  Returns "" when no
        reporter is installed.
        """
        if self.hang_reporter is None:
            return ""
        return self.hang_reporter()

    def run_for(self, delay_ns: int, **kw) -> int:
        """Run for ``delay_ns`` of virtual time from now."""
        return self.run(until_ns=self.now_ns + delay_ns, **kw)

    @property
    def events_fired(self) -> int:
        """Total events fired over the engine's lifetime."""
        return self._events_fired
