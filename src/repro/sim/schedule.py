"""Deterministic schedule perturbation.

A :class:`SchedulePlan` is the scheduling twin of
:class:`repro.sim.faults.FaultPlan`: a declarative, serializable list of
rules that perturb *when threads run* rather than *whether calls fail*.
All randomness comes from the engine's named seeded streams, so a
perturbed schedule is a pure function of ``(seed, plan, program)`` and a
failing interleaving replays bit-for-bit.

The simulator executes code between two ``yield`` points atomically, so
the only legal places to wedge a context switch in are the points where
the program already interacts with the concurrency machinery.  Those are
instrumented as *yield points* (see :mod:`repro.sync.events`):

* every synchronization operation (mutex/rwlock acquire and release,
  condition-variable wait/signal, semaphore P/V);
* every shared-memory cell access made through the mapped runtime
  (``cell-load`` / ``cell-store``);
* every run-queue pick in :class:`repro.threads.scheduler.ThreadsLibrary`
  (via :meth:`SchedulePlan.pick_runnable`).

Rule kinds:

* :class:`RandomPreempt` — at each yield point, preempt the current
  unbound thread with probability ``p`` (optionally filtered to a set of
  operation names).  The random-walk scheduler.
* :class:`ForcedPreempt` — preempt at an explicit list of global
  yield-point indices.  This is what delta-debugging minimizes: a
  recorded random walk is replayed as forced points, then shrunk.
* :class:`RandomPick` — with probability ``p``, a run-queue pick takes a
  uniformly random runnable thread instead of the best-priority FIFO
  head.
* :class:`PctPriorities` — PCT-style: every thread gets a random
  priority on first sight and picks follow those priorities strictly;
  optionally a random thread's priority is re-drawn every
  ``change_every`` picks (priority change points).
* :class:`SchedulerChoice` — run the workload under a different kernel
  scheduling class (CFS, MLFQ, SJF, HRR, ...): LWPs that would be
  created TIMESHARE are created in the chosen class instead.  Not a
  perturbation of *when* but of *policy* — the explorer's scheduler
  matrix axis.

Kinds and plans share the fault plans' base (:class:`repro.sim.faults.
Rule` / :class:`~repro.sim.faults.Plan`), with their own registry
(``ScheduleRule.KINDS``) and ``schedule/<name>`` streams.  Plans compose
with fault plans — ``Simulator(faults=..., schedule=...)`` — for fault ×
schedule stress, and serialize to the same strict plain dicts for repro
bundles (:meth:`SchedulePlan.to_dict` / :meth:`SchedulePlan.from_dict`).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError
from repro.sim.faults import Plan, Rule, check_probability


class ScheduleRule(Rule):
    """Base of the schedule rule kinds; ``KINDS`` is their registry."""

    FAMILY = "schedule"
    KINDS = {}

    def preempt_here(self, plan: "SchedulePlan", index: int, op: str,
                     name: Optional[str]) -> bool:
        """Consulted once per yield point; True forces a preemption."""
        return False

    def pick(self, plan: "SchedulePlan", snapshot: list):
        """Consulted once per run-queue pick; a thread from ``snapshot``
        overrides the default FIFO pick, None declines."""
        return None


@dataclass(eq=False)
class RandomPreempt(ScheduleRule):
    """Preempt at each yield point with probability ``probability``.

    ``ops`` optionally restricts the rule to yield points whose
    operation name matches one of the globs (e.g. ``["acquire",
    "cell-*"]``); None means every point.  ``max_count`` caps total
    preemptions; ``skip`` exempts the first N matching points (letting a
    program set up before the storm).
    """

    KIND = "random"

    probability: float = 0.1
    ops: Optional[list] = None
    max_count: Optional[int] = None
    skip: int = 0
    seen: int = field(default=0, init=False)
    injected: int = field(default=0, init=False)

    def __post_init__(self):
        check_probability(self.probability)
        # fnmatch.fnmatch re-resolves its pattern cache per call; on the
        # hot consult path we precompile the union once instead.
        if self.ops is None:
            self._ops_re = None
        else:
            self.ops = list(self.ops)
            # "(?!)" never matches: an explicit empty ops list means
            # "no op qualifies", same as the fnmatch-any over [].
            self._ops_re = re.compile("|".join(
                fnmatch.translate(p) for p in self.ops) or r"(?!)").match

    def arm(self, plan: "SchedulePlan", engine) -> None:
        self.seen = 0
        self.injected = 0
        # Bind the sub-stream once: consult runs at every yield point.
        self._random = plan.rng("preempt").random

    def _matches(self, op: str) -> bool:
        if self._ops_re is None:
            return True
        return self._ops_re(op) is not None

    def preempt_here(self, plan, index, op, name) -> bool:
        if not self._matches(op):
            return False
        self.seen += 1
        if self.seen <= self.skip:
            return False
        if self.max_count is not None and self.injected >= self.max_count:
            return False
        if self._random() >= self.probability:
            return False
        self.injected += 1
        return True


@dataclass(eq=False)
class ForcedPreempt(ScheduleRule):
    """Preempt at an explicit set of global yield-point indices.

    Indices count every yield point the plan sees (the ``index``
    argument of :meth:`SchedulePlan.consult`), so a recorded run's
    ``fired`` list replays the same preemptions — and delta debugging
    can bisect it down to the minimal failing subset.
    """

    KIND = "forced"

    points: list

    def __post_init__(self):
        self.points = sorted(set(int(p) for p in self.points))
        self._set = set(self.points)

    def preempt_here(self, plan, index, op, name) -> bool:
        return index in self._set


@dataclass(eq=False)
class RandomPick(ScheduleRule):
    """Replace the FIFO run-queue pick with a uniform random runnable.

    With probability ``probability`` per pick; priority order is ignored
    for the perturbed picks (legal: the paper leaves unbound scheduling
    order unspecified).
    """

    KIND = "pick"

    probability: float = 0.5
    perturbed: int = field(default=0, init=False)

    def __post_init__(self):
        check_probability(self.probability)

    def arm(self, plan: "SchedulePlan", engine) -> None:
        self.perturbed = 0
        self._rng = plan.rng("pick")

    def pick(self, plan, snapshot):
        if len(snapshot) < 2:
            return None
        rng = self._rng
        if rng.random() >= self.probability:
            return None
        self.perturbed += 1
        return rng.choice(snapshot)


@dataclass(eq=False)
class PctPriorities(ScheduleRule):
    """PCT-style scheduling: strict random priorities over threads.

    Each thread gets a random priority the first time it appears in a
    pick snapshot, and picks always take the highest-priority runnable.
    With ``change_every`` > 0, one random thread's priority is re-drawn
    every that many picks (the "priority change points" that let PCT
    hit bugs of depth > 1).
    """

    KIND = "pct"

    change_every: int = 0

    def __post_init__(self):
        if self.change_every < 0:
            raise SimulationError(f"bad change_every {self.change_every}")

    def arm(self, plan: "SchedulePlan", engine) -> None:
        # Keyed by the thread, not id(): holding every thread seen, no
        # new one can reuse a dead one's address and inherit its draw.
        self._prio: dict = {}
        self._picks = 0
        self._rng = plan.rng("pct")

    def pick(self, plan, snapshot):
        if not snapshot:
            return None
        rng = self._rng
        prio = self._prio
        for t in snapshot:
            if t not in prio:
                prio[t] = rng.random()
        self._picks += 1
        if self.change_every and self._picks % self.change_every == 0:
            victim = rng.choice(snapshot)
            prio[victim] = rng.random()
        return max(snapshot, key=prio.__getitem__)


@dataclass(eq=False)
class SchedulerChoice(ScheduleRule):
    """Run the workload under a named kernel scheduling class.

    Arming sets ``engine.sched_class_override`` to the class *name*
    (e.g. ``"CFS"``); the kernel resolves it against its class table at
    LWP creation, so an unknown or unregistered name fails loudly there.
    Explicitly requested RT/GANG LWPs keep their class — the rule only
    re-homes the TIMESHARE default.  Deterministic and replayable like
    every other rule: the class is part of the serialized plan.
    """

    KIND = "scheduler"

    sched_class: str = "TS"

    def __post_init__(self):
        self.sched_class = str(self.sched_class)

    def arm(self, plan: "SchedulePlan", engine) -> None:
        engine.sched_class_override = self.sched_class


class SchedulePlan(Plan):
    """A declarative, replayable schedule perturbation.

    Build one, then pass it to ``Simulator(schedule=plan)`` or call
    :meth:`attach` on an engine::

        plan = SchedulePlan([RandomPreempt(probability=0.2)])
        sim = Simulator(ncpus=2, seed=7, schedule=plan)

    Like a fault plan, a schedule plan attaches to exactly one engine
    (rule state and the fired-point record are per-attachment);
    serialize and rebuild to reuse one.

    After a run, :attr:`fired` holds the global yield-point indices
    where a preemption actually happened — feed them to
    ``ForcedPreempt`` to replay exactly that interleaving, or to
    :func:`repro.explore.minimize.minimize_schedule` to shrink it.
    """

    RULE = ScheduleRule
    STREAM = "schedule"

    def __init__(self, rules=()):
        super().__init__(rules)
        # Runtime record (reset on attach).
        self.points_seen = 0        # yield points consulted
        self.preemptions = 0        # preemptions requested
        self.fired: list[int] = []  # indices where preemption fired

    def _bind(self, engine):
        engine.schedule = self
        self.points_seen = 0
        self.preemptions = 0
        self.fired = []
        return engine

    # ------------------------------------------------------ consultations

    def consult(self, op: str, name: Optional[str]) -> bool:
        """One yield point reached; preempt the current thread here?

        Called from :func:`repro.sync.events.sync_point`.  Every call
        advances the global yield-point index, whether or not any rule
        fires, so indices are stable across replays of the same program.
        """
        index = self.points_seen
        self.points_seen += 1
        hit = False
        for rule in self.rules:
            # Consult every rule (each must see the point to keep its
            # seeded stream position stable), then OR the verdicts.
            if rule.preempt_here(self, index, op, name):
                hit = True
        if hit:
            self.preemptions += 1
            self.fired.append(index)
        return hit

    def pick_runnable(self, snapshot: list):
        """Override one run-queue pick, or None for default FIFO."""
        for rule in self.rules:
            choice = rule.pick(self, snapshot)
            if choice is not None:
                return choice
        return None
