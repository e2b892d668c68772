"""The pluggable scheduling-class framework: SchedPolicy + class table.

The paper: "all the LWPs in the system are scheduled by the kernel onto
the available CPU resources according to their scheduling class and
priority".  A :class:`SchedPolicy` is one such class: it owns its own
run queue (queue *discipline* is the policy's business, not the
dispatcher's) and a set of feedback hooks the dispatcher calls at the
scheduling events — enqueue, pick, quantum expiry, sleep, wakeup,
off-CPU accounting.  A :class:`SchedClassTable` is the per-kernel
registry of policies; the dispatcher only ever talks to the table.

Determinism contract: every policy decision is a pure function of the
queue contents and the per-LWP ``sched_state`` blobs — no host RNG, no
host time.  Ties always break by LWP id (then name), so two runs with
the same seed and plan produce the same dispatch order.

The paper's classes (TIMESHARE/REALTIME/GANG) share one queue
discipline, a multilevel priority FIFO
(:class:`~repro.kernel.sched.runqueue.RunQueue`):

* **TS**   — round-robin with a quantum scaled up for low priorities;
  priorities decay one step per expired quantum and recover on sleep,
  the classic UNIX feedback rule.
* **RT**   — fixed priority, no quantum: runs until it blocks or a
  higher-priority LWP appears.  Sits above every timeshare priority.
* **GANG** — timeshare-like, but members of one :class:`GangGroup` are
  co-dispatched onto idle CPUs whenever one member is dispatched.

Because their bands are disjoint (TS 0-59, GANG 100-159, RT 200-259),
per-class queues scanned by best queued priority reproduce a single
global queue's pick order exactly.

The pluggable classes live in the timeshare band (``base`` 0), so
they arbitrate against RT and GANG the way TS does:

* **CFS**  — virtual-runtime ordered list; the LWP that has run least
  goes next.  New arrivals start at the queue's minimum vruntime.
* **MLFQ** — four-level feedback queue: quantum expiry demotes, a sleep
  return boosts to the top, and a periodic starvation boost re-promotes
  everything queued.
* **SJF**  — shortest job first over an estimated next CPU burst; the
  estimate is an integer exponential average of the recorded on-CPU
  spans (the same spans ``repro.obs`` records as
  ``sched.oncpu_ns.{class}``, mirrored policy-side so scheduling never
  depends on whether metrics are attached).
* **HRR**  — hierarchical round-robin: CPU turns rotate over process
  groups with a fixed per-group quota, round-robin within the group.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.kernel.lwp import PRIO_MAX, PRIO_MIN, Lwp, SchedClass
from repro.kernel.sched.runqueue import RunQueue


class GangGroup:
    """A set of LWPs that want to run simultaneously.

    Gang ids are per-kernel (handed out by ``Kernel.next_gang_id``), not
    a class-level counter: a process-global counter leaks ids across
    engine instances and breaks run-to-run determinism when one worker
    process runs several simulations (``explore --jobs``).
    """

    def __init__(self, gang_id: int = 0):
        self.gang_id = gang_id
        self.members: list[Lwp] = []

    def add(self, lwp: Lwp) -> None:
        if lwp not in self.members:
            self.members.append(lwp)
            lwp.gang = self
            lwp.sched_class = SchedClass.GANG
            lwp.sched_state = None

    def remove(self, lwp: Lwp) -> None:
        if lwp in self.members:
            self.members.remove(lwp)
            lwp.gang = None
            # A departed member must not stay in the GANG class with no
            # gang: drop it back to timesharing (fresh state blob).
            if lwp.sched_class is SchedClass.GANG:
                lwp.sched_class = SchedClass.TIMESHARE
                lwp.sched_state = None


class SchedPolicy:
    """One scheduling class: a run queue plus the dispatcher hooks.

    Subclasses set :attr:`sched_class` and implement the queue methods;
    every hook has a no-op default so simple policies stay small.
    """

    #: The SchedClass this policy serves (subclass responsibility).
    sched_class: SchedClass = None
    #: One-line description (class catalogue; ``--list-sched-classes``).
    DOC = ""

    @property
    def name(self) -> str:
        return self.sched_class.value

    # ------------------------------------------------- queue ownership

    def enqueue(self, lwp: Lwp, front: bool = False) -> None:
        """Add a runnable LWP to this policy's queue."""
        raise NotImplementedError

    def peek(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """The LWP this policy would run next (among ``eligible`` ones),
        without removing it."""
        raise NotImplementedError

    def take(self, lwp: Lwp) -> None:
        """Remove a specific queued LWP (it is about to be dispatched)."""
        if not self.remove(lwp):
            raise SimulationError(f"{self.name}: take of unqueued {lwp!r}")

    def remove(self, lwp: Lwp) -> bool:
        """Remove a queued LWP; False when it is not queued here."""
        raise NotImplementedError

    def best_priority(self) -> Optional[int]:
        """Highest queued *effective* priority (cross-class arbitration
        and the quantum-expiry check), or None when empty."""
        best = None
        for lwp in self.queued():
            p = lwp.effective_priority
            if best is None or p > best:
                best = p
        return best

    def queued(self) -> list:
        """All queued LWPs in this policy's pick order (diagnostics)."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.queued())

    def __contains__(self, lwp) -> bool:
        return lwp in self.queued()

    # --------------------------------------------------- policy hooks

    def init_state(self, lwp: Lwp) -> None:
        """Install this class's per-LWP ``sched_state`` blob (None for
        stateless policies).  Called lazily at first enqueue after a
        class change (``lwp.sched_state`` is reset by the handoff)."""
        lwp.sched_state = None

    def quantum_ns(self, lwp: Lwp, base_quantum_ns: int) -> Optional[int]:
        """Quantum for one dispatch; None means run until block/preempt."""
        return base_quantum_ns

    def on_quantum_expired(self, lwp: Lwp) -> None:
        """Feedback when the LWP is preempted off a CPU."""

    def on_sleep(self, lwp: Lwp) -> None:
        """The LWP is going to sleep on a wait channel."""

    def on_wakeup(self, lwp: Lwp) -> None:
        """The LWP returned from a sleep (about to be requeued)."""

    def on_offcpu(self, lwp: Lwp, span_ns: int) -> None:
        """The LWP came off a CPU after running ``span_ns``.  Pure
        bookkeeping (vruntime, burst estimates); never schedules."""

    def preempt_check(self, lwp: Lwp, running: Lwp) -> bool:
        """Should a newly runnable ``lwp`` preempt ``running``?  The
        default is strict effective-priority order (the classic rule)."""
        return running.effective_priority < lwp.effective_priority


def _tiebreak(lwp) -> tuple:
    """Deterministic tie-break key: LWP id, then name (covers LWPs of
    different processes sharing an id)."""
    return (getattr(lwp, "lwp_id", 0), getattr(lwp, "name", ""))


class PriorityFifoPolicy(SchedPolicy):
    """Shared base for the classic classes: multilevel priority FIFO."""

    def __init__(self):
        self._queue = RunQueue()

    def enqueue(self, lwp, front: bool = False) -> None:
        self._queue.insert(lwp, front=front)

    def peek(self, eligible):
        return self._queue.peek(eligible)

    def remove(self, lwp) -> bool:
        return self._queue.remove(lwp)

    def best_priority(self) -> Optional[int]:
        return self._queue.best_priority()

    def queued(self) -> list:
        return self._queue.snapshot()

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, lwp) -> bool:
        return lwp in self._queue


class TimesharePolicy(PriorityFifoPolicy):
    """The paper's TS class: round-robin plus priority feedback."""

    sched_class = SchedClass.TIMESHARE
    DOC = ("round-robin with priority-scaled quantum; decays one step "
           "per expired quantum, recovers on sleep")

    def quantum_ns(self, lwp, base_quantum_ns):
        # Lower priorities get longer quanta (classic SVR4 TS table
        # shape: cheap compensation for running less often).
        return base_quantum_ns * (1 + (PRIO_MAX - lwp.priority) // 20)

    def on_quantum_expired(self, lwp) -> None:
        """Feedback: a CPU hog drifts to lower priority."""
        if lwp.priority > PRIO_MIN:
            lwp.priority -= 1

    def on_wakeup(self, lwp) -> None:
        """Feedback: interactive behaviour recovers priority."""
        if lwp.priority < PRIO_MAX:
            lwp.priority += 1


class RealtimePolicy(PriorityFifoPolicy):
    """Fixed priority, no quantum: runs until it blocks or a
    higher-priority LWP appears.  Sits above every timeshare priority."""

    sched_class = SchedClass.REALTIME
    DOC = "fixed priority above all timesharing; no quantum"

    def quantum_ns(self, lwp, base_quantum_ns):
        return None


class GangPolicy(PriorityFifoPolicy):
    """Timeshare-like band above TS; members of one gang are
    co-dispatched by the dispatcher whenever one member is dispatched."""

    sched_class = SchedClass.GANG
    DOC = "gang co-dispatch band; fixed quantum, no feedback"


class _OrderedListPolicy(SchedPolicy):
    """Shared base for CFS/SJF: a list kept sorted by a state key."""

    def __init__(self):
        self._queue: list = []

    def _key(self, lwp) -> tuple:
        raise NotImplementedError

    def ensure_state(self, lwp) -> None:
        if lwp.sched_state is None:
            self.init_state(lwp)

    def enqueue(self, lwp, front: bool = False) -> None:
        # Position comes from the order key, so `front` carries no
        # meaning here (requeue-at-front folds into the key order).
        self.ensure_state(lwp)
        key = self._key(lwp)
        at = len(self._queue)
        for i, queued in enumerate(self._queue):
            if key < self._key(queued):
                at = i
                break
        self._queue.insert(at, lwp)

    def peek(self, eligible):
        for lwp in self._queue:
            if eligible(lwp):
                return lwp
        return None

    def remove(self, lwp) -> bool:
        try:
            self._queue.remove(lwp)
            return True
        except ValueError:
            return False

    def queued(self) -> list:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class CfsPolicy(_OrderedListPolicy):
    """Completely-fair-ish scheduling: least virtual runtime first.

    Each LWP accrues ``vruntime`` equal to its on-CPU nanoseconds; the
    queue is ordered by (vruntime, LWP id).  A newly arriving LWP starts
    at the queue's minimum vruntime so it neither starves the queue nor
    is starved by it.  An ordered list stands in for the red-black tree
    (queues here are tens of LWPs, not thousands).
    """

    sched_class = SchedClass.CFS
    DOC = "fair share by virtual runtime; least-run LWP goes next"

    def __init__(self):
        super().__init__()
        self._min_vruntime = 0

    def init_state(self, lwp) -> None:
        lwp.sched_state = {"vruntime": self._min_vruntime}

    def _key(self, lwp) -> tuple:
        return (lwp.sched_state["vruntime"],) + _tiebreak(lwp)

    def take(self, lwp) -> None:
        super().take(lwp)
        self._min_vruntime = max(self._min_vruntime,
                                 lwp.sched_state["vruntime"])

    def on_offcpu(self, lwp, span_ns: int) -> None:
        if lwp.sched_state is not None:
            lwp.sched_state["vruntime"] += span_ns


class SjfPolicy(_OrderedListPolicy):
    """Shortest job first over an estimated next CPU burst.

    The estimate is an integer exponential average of the LWP's recorded
    on-CPU spans — the same spans the metrics registry records as
    ``sched.oncpu_ns.{class}`` — folded in policy-side so the schedule
    is identical whether or not ``repro.obs`` is attached.
    """

    sched_class = SchedClass.SJF
    DOC = "shortest estimated CPU burst first (on-CPU span average)"

    #: Optimistic prior for an LWP with no recorded burst yet: new jobs
    #: look short, so they get a quick first estimate.
    INITIAL_BURST_NS = 1_000_000

    def init_state(self, lwp) -> None:
        lwp.sched_state = {"burst_ns": self.INITIAL_BURST_NS}

    def _key(self, lwp) -> tuple:
        return (lwp.sched_state["burst_ns"],) + _tiebreak(lwp)

    def on_offcpu(self, lwp, span_ns: int) -> None:
        if lwp.sched_state is not None:
            st = lwp.sched_state
            st["burst_ns"] = (st["burst_ns"] + span_ns) // 2


class MlfqPolicy(SchedPolicy):
    """Multilevel feedback queue with a starvation-penalty boost.

    Four levels, FIFO within each.  Quantum expiry demotes one level
    (CPU hogs sink); a sleep return promotes to the top (interactive
    work floats).  Every :attr:`BOOST_EVERY` enqueues, everything queued
    is boosted back to the top level — the classic anti-starvation rule,
    on a deterministic enqueue-count clock rather than wall time.
    """

    sched_class = SchedClass.MLFQ
    DOC = "4-level feedback queue; demote on expiry, periodic boost"

    LEVELS = 4
    BOOST_EVERY = 64

    def __init__(self):
        self._levels = [deque() for _ in range(self.LEVELS)]
        self._enqueues = 0

    def init_state(self, lwp) -> None:
        lwp.sched_state = {"level": 0}

    def ensure_state(self, lwp) -> None:
        if lwp.sched_state is None:
            self.init_state(lwp)

    def _level(self, lwp) -> int:
        return lwp.sched_state["level"]

    def enqueue(self, lwp, front: bool = False) -> None:
        self.ensure_state(lwp)
        self._enqueues += 1
        if self._enqueues % self.BOOST_EVERY == 0:
            self._boost()
        q = self._levels[self._level(lwp)]
        if front:
            q.appendleft(lwp)
        else:
            q.append(lwp)

    def _boost(self) -> None:
        """Starvation penalty: promote everything queued to level 0,
        preserving level-then-FIFO order."""
        top = self._levels[0]
        for q in self._levels[1:]:
            while q:
                lwp = q.popleft()
                lwp.sched_state["level"] = 0
                top.append(lwp)

    def peek(self, eligible):
        for q in self._levels:
            for lwp in q:
                if eligible(lwp):
                    return lwp
        return None

    def remove(self, lwp) -> bool:
        state = lwp.sched_state  # maybe another class's (table fallback)
        if state is not None and "level" in state:
            q = self._levels[state["level"]]
            try:
                q.remove(lwp)
                return True
            except ValueError:
                pass
        for q in self._levels:
            try:
                q.remove(lwp)
                return True
            except ValueError:
                continue
        return False

    def queued(self) -> list:
        out = []
        for q in self._levels:
            out.extend(q)
        return out

    def __len__(self) -> int:
        return sum(map(len, self._levels))

    def quantum_ns(self, lwp, base_quantum_ns):
        # Longer quanta at lower levels (fewer, bigger turns for hogs).
        if lwp.sched_state is None:
            return base_quantum_ns
        return base_quantum_ns << self._level(lwp)

    def on_quantum_expired(self, lwp) -> None:
        if lwp.sched_state is not None:
            st = lwp.sched_state
            st["level"] = min(st["level"] + 1, self.LEVELS - 1)

    def on_wakeup(self, lwp) -> None:
        if lwp.sched_state is not None:
            lwp.sched_state["level"] = 0


class HrrPolicy(SchedPolicy):
    """Hierarchical round-robin: rotate over process groups, RR within.

    Each process (the group) gets :attr:`QUOTA` consecutive picks before
    the turn rotates to the next group, so a process with many runnable
    LWPs cannot crowd out a process with one.  Rotation order is
    first-seen order of the groups; all of it is deterministic.
    """

    sched_class = SchedClass.HRR
    DOC = "per-process-group quota, round-robin within the group"

    QUOTA = 2

    def __init__(self):
        self._groups: dict[int, deque] = {}
        self._rr: deque = deque()       # group rotation (pids)
        self._credits = self.QUOTA

    @staticmethod
    def _gid(lwp) -> int:
        proc = getattr(lwp, "process", None)
        return proc.pid if proc is not None else 0

    def enqueue(self, lwp, front: bool = False) -> None:
        gid = self._gid(lwp)
        q = self._groups.get(gid)
        if q is None:
            q = deque()
            self._groups[gid] = q
        if not q and gid not in self._rr:
            self._rr.append(gid)
        if front:
            q.appendleft(lwp)
        else:
            q.append(lwp)

    def peek(self, eligible):
        for gid in self._rr:
            for lwp in self._groups[gid]:
                if eligible(lwp):
                    return lwp
        return None

    def remove(self, lwp) -> bool:
        gid = self._gid(lwp)
        q = self._groups.get(gid)
        if q is None:
            return False
        try:
            q.remove(lwp)
        except ValueError:
            return False
        if not q:
            self._drop_group(gid)
        return True

    def take(self, lwp) -> None:
        gid = self._gid(lwp)
        head = self._rr[0] if self._rr else None
        if not self.remove(lwp):
            raise SimulationError(f"{self.name}: take of unqueued {lwp!r}")
        if gid != head:
            return
        # The head group used one of its turns.
        self._credits -= 1
        if self._credits <= 0 and self._rr and self._rr[0] == gid:
            self._rr.rotate(-1)
            self._credits = self.QUOTA

    def _drop_group(self, gid: int) -> None:
        try:
            self._rr.remove(gid)
        except ValueError:
            pass
        if self._rr and gid not in self._rr:
            self._credits = self.QUOTA
        del self._groups[gid]

    def queued(self) -> list:
        out = []
        for gid in self._rr:
            out.extend(self._groups[gid])
        return out

    def __len__(self) -> int:
        # Emptied groups are dropped, so every group here is queued.
        return sum(map(len, self._groups.values()))


class SchedClassTable:
    """Per-kernel registry of scheduling classes.

    The dispatcher's single point of contact: routing (``policy_for``),
    the cross-class pick (highest queued effective priority wins; a tie
    goes to the earlier policy in table order — descending class base,
    then name), and the aggregate queue views the old global run queue
    used to provide.

    Every queue operation goes through the table, which counts the
    queued LWPs per policy (``counts``) and in all (``total``,
    ``len(table)``): a pick or ``best_priority`` returns at once on an
    empty table and peeks only the policies that hold an LWP.
    """

    def __init__(self, policies: Iterable[SchedPolicy]):
        # Keyed by the class's value string, which hashes without a
        # Python-level Enum.__hash__ call.
        self._policies: dict[str, SchedPolicy] = {}
        for pol in policies:
            key = pol.sched_class._value_
            if key in self._policies:
                raise SimulationError(
                    f"duplicate scheduling class {key}")
            self._policies[key] = pol
        self.ordered: list[SchedPolicy] = sorted(
            self._policies.values(),
            key=lambda p: (-p.sched_class.base, p.sched_class._value_))
        self.counts: dict[SchedPolicy, int] = dict.fromkeys(self.ordered, 0)
        self.total = 0

    @classmethod
    def default(cls) -> "SchedClassTable":
        """All seven classes registered (the stock kernel table)."""
        return cls([TimesharePolicy(), RealtimePolicy(), GangPolicy(),
                    CfsPolicy(), MlfqPolicy(), SjfPolicy(), HrrPolicy()])

    # ---------------------------------------------------------- lookup

    def policy_for(self, lwp) -> SchedPolicy:
        pol = self._policies.get(lwp.sched_class._value_)
        if pol is None:
            raise SimulationError(
                f"scheduling class {lwp.sched_class.value} is not "
                f"registered with this kernel")
        return pol

    def for_class(self, sched_class: SchedClass) -> Optional[SchedPolicy]:
        return self._policies.get(sched_class._value_)

    def class_for_name(self, name: str) -> SchedClass:
        """Resolve a class *name* (e.g. from a SchedulerChoice rule);
        raises on unknown or unregistered names."""
        try:
            sched_class = SchedClass(name)
        except ValueError:
            raise SimulationError(
                f"unknown scheduling class {name!r} (choose from "
                f"{', '.join(p.name for p in self.ordered)})") from None
        if sched_class._value_ not in self._policies:
            raise SimulationError(
                f"scheduling class {name} is not registered with this "
                f"kernel")
        return sched_class

    # ----------------------------------------------------- queue views

    def insert(self, lwp, front: bool = False) -> SchedPolicy:
        """Queue ``lwp`` with its class's policy; returns the policy."""
        pol = self.policy_for(lwp)
        pol.enqueue(lwp, front=front)
        self.counts[pol] += 1
        self.total += 1
        return pol

    def remove(self, lwp) -> bool:
        pol = self._policies.get(lwp.sched_class._value_)
        if pol is None or not pol.remove(lwp):
            # The class may have changed while queued; scan everything
            # (same fallback the old global queue had for changed
            # priorities).
            for other in self.ordered:
                if other is not pol and other.remove(lwp):
                    pol = other
                    break
            else:
                return False
        self.counts[pol] -= 1
        self.total -= 1
        return True

    def pick(self, eligible: Callable[[Lwp], bool]) -> Optional[Lwp]:
        """Best eligible LWP across every class, and dequeue it.

        Each policy holding an LWP nominates its own next choice; the
        highest effective priority wins, ties to the earlier policy in
        table order.  With the disjoint classic bands this reproduces
        the old global multilevel queue's scan exactly.
        """
        if not self.total:
            return None
        counts = self.counts
        best_lwp, best_pol, best_prio = None, None, None
        for pol in self.ordered:
            if not counts[pol]:
                continue
            cand = pol.peek(eligible)
            if cand is None:
                continue
            prio = cand.effective_priority
            if best_lwp is None or prio > best_prio:
                best_lwp, best_pol, best_prio = cand, pol, prio
        if best_lwp is not None:
            best_pol.take(best_lwp)
            counts[best_pol] -= 1
            self.total -= 1
        return best_lwp

    def best_priority(self) -> Optional[int]:
        if not self.total:
            return None
        counts = self.counts
        best = None
        for pol in self.ordered:
            if counts[pol]:
                p = pol.best_priority()
                if p is not None and (best is None or p > best):
                    best = p
        return best

    def __len__(self) -> int:
        return self.total

    def __contains__(self, lwp) -> bool:
        return any(lwp in pol for pol in self.ordered)

    def snapshot(self) -> list:
        """All queued LWPs, table order then policy order (diagnostics)."""
        out = []
        for pol in self.ordered:
            out.extend(pol.queued())
        return out
