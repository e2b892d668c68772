"""Dynamic detectors: observe one run, report concurrency findings.

Each detector is a passive listener over the two instrumentation feeds:

* synchronization events (:func:`repro.sync.events.sync_event` — acquire,
  release, cv traffic, semaphore P/V, thread exit), delivered through
  ``engine.sync_listeners``;
* shared-memory cell accesses (``PhysicalMemory.observer`` in
  :mod:`repro.hw.memory`), delivered synchronously from ``load_cell`` /
  ``store_cell``.

Detectors never change behaviour — a run with detectors attached makes
exactly the same transitions as one without (they draw no randomness and
inject nothing), which is what lets a repro bundle replay findings
bit-for-bit.

The seven detectors:

:class:`LocksetDetector`
    Eraser-style lockset discipline checking over shared memory cells.
    A cell written by two live threads whose candidate lockset drains to
    empty is a data race, whether or not the racy interleaving happened
    on this run.
:class:`LockOrderDetector`
    Builds the lock acquisition-order graph (edges only from *blocking*
    acquires made while holding another lock — ``tryenter`` cannot
    complete a deadlock cycle and is excluded).  A cycle is a potential
    deadlock even when no hang occurred.
:class:`LostWakeupDetector`
    Flags "wasted" condition-variable signals: a signal that woke nobody,
    sent without holding the mutex that the variable's waiters pair it
    with — the classic check-then-signal race that strands a waiter.
:class:`ExitInvariantDetector`
    Thread-death and semaphore accounting invariants: a thread exiting
    while holding a mutex/rwlock, and a V that pushes a resource
    semaphore above its initial count (the in-use count underflowed —
    somebody released a unit they never acquired).
:class:`RequestLedgerDetector`
    The lost-request invariant for network servers: every request the
    server *admits* (ledger op ``net-admit``) must be served exactly
    once (``net-serve``) or explicitly rejected (``net-shed``) — never
    silently dropped, double-served, or answered without admission.
:class:`OrphanedResourceDetector`
    Crash-containment accounting: when a thread dies with its LWP, every
    lock it held must be reclaimed by the kernel walk (``owner-dead``
    events), and every lock that went owner-dead must be repaired
    (``mutex_consistent``) — not left owner-dead or bricked
    unrecoverable at the end of the run.
:class:`RestartStormDetector`
    Supervision-layer health: a supervisor that gives a child up, or
    restarts one child so fast that the restart backoff cannot be
    operating (a tight crash-restart loop), is reported — self-healing
    that spins is not healing.

Known bounds (see ARCHITECTURE.md for the full discussion): the lockset
detector approximates join ordering by dropping exited threads (false
negatives possible for true post-join races, no false positives for the
repo's join idioms); shared condition variables are skipped by the
lost-wakeup detector (no cross-process waiter counts); shared rwlocks
are excluded from the lock-order graph (their composition with an
internal mutex would self-report a cycle).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.process import ProcState
from repro.sync.rwlock import RwLock
from repro.threads.thread import Thread


class Finding:
    """One detector verdict, deduplicated by (kind, subject)."""

    def __init__(self, kind: str, subject: str, message: str, **detail):
        self.kind = kind
        self.subject = subject
        self.message = message
        self.detail = detail

    @property
    def key(self) -> tuple:
        return (self.kind, self.subject)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject,
                "message": self.message,
                "detail": {k: str(v) for k, v in self.detail.items()}}

    def __repr__(self) -> str:
        return f"<Finding {self.kind} {self.subject}: {self.message}>"


def _lock_key(sv, detail: dict) -> tuple:
    """Identity of a lock for detector bookkeeping.

    Process-shared primitives are keyed by their shared cell — two
    Python objects over the same (memory object, offset) are the same
    lock (the database workload builds a fresh Mutex per transaction
    over one cell).  Private primitives are keyed by the object itself:
    the key holds it, so no later object can take over its entry.
    """
    cell = detail.get("cell")
    if cell is not None:
        return ("cell", cell.mobj, cell.offset)
    return ("obj", sv)


def _actor(ctx):
    """The acting entity: the user thread, or the bare LWP outside one."""
    thread = ctx.thread
    return thread if thread is not None else ctx.lwp


class Detector:
    """Base class: finding collection and installation plumbing."""

    name = "detector"

    def __init__(self):
        self.findings: list[Finding] = []
        self._keys: set = set()

    def install(self, sim) -> None:
        sim.engine.sync_listeners.append(self)

    def report(self, kind: str, subject: str, message: str,
               **detail) -> None:
        finding = Finding(kind, subject, message, **detail)
        if finding.key in self._keys:
            return
        self._keys.add(finding.key)
        self.findings.append(finding)

    # Hooks ------------------------------------------------------------

    def on_sync(self, ctx, op: str, sv, detail: dict) -> None:
        """One synchronization event (see repro.sync.events)."""

    def finalize(self, sim) -> None:
        """End of run: emit any whole-run verdicts."""


class _HeldLocks:
    """Per-actor ordered list of currently held locks.

    Fed from acquire/release events; shared helper for every detector
    that needs "what does this thread hold right now".
    """

    def __init__(self, track_composite_shared_rwlock: bool = True):
        # actor -> list of (key, name, mode, blocking); keyed by the
        # actor itself, so a new actor never inherits a dead one's locks.
        self._held: dict = {}
        self._track_composite = track_composite_shared_rwlock

    def update(self, ctx, op: str, sv, detail: dict) -> Optional[tuple]:
        """Apply one event; returns the (key, name, mode, blocking)
        entry for an acquire, else None."""
        if op == "owner-dead":
            # The crash-reclaim walk released this entry on behalf of a
            # dead holder (who can never emit its own release); the
            # emitting ctx carries the dead thread as the actor.
            op = "release"
        elif op not in ("acquire", "release"):
            return None
        if (not self._track_composite and isinstance(sv, RwLock)
                and sv.is_shared):
            # Composite primitive: its internal mutex already appears in
            # the feed; tracking both would fabricate an m <-> rwlock
            # ordering cycle.
            return None
        actor = _actor(ctx)
        held = self._held.setdefault(actor, [])
        key = _lock_key(sv, detail)
        if op == "acquire":
            entry = (key, getattr(sv, "name", "?"), detail.get("mode"),
                     detail.get("blocking", True))
            held.append(entry)
            return entry
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == key:
                del held[i]
                break
        return None

    def held(self, ctx) -> list:
        return list(self._held.get(_actor(ctx), ()))

    def held_of(self, actor) -> list:
        return list(self._held.get(actor, ()))


# =====================================================================
# Eraser-style lockset data-race detection
# =====================================================================

#: Cell states in the lockset state machine.
_VIRGIN, _EXCLUSIVE, _SHARED, _MODIFIED = range(4)


class _CellRecord:
    __slots__ = ("state", "owner", "owner_proc", "lockset", "written",
                 "reported", "last_writer", "accessors")

    def __init__(self):
        self.state = _VIRGIN
        self.owner = None          # exclusive-phase accessor
        self.owner_proc = None     # its process (liveness check)
        self.lockset = None        # candidate locks, None until shared
        self.written = False
        self.reported = False
        self.last_writer = None    # name of last writing actor
        self.accessors = []        # [(actor, proc)] seen in shared phase


class LocksetDetector(Detector):
    """Eraser lockset algorithm over shared memory cells.

    Per cell: Virgin -> Exclusive(first thread) -> Shared /
    Shared-Modified once a second live thread touches it; from then on
    the candidate lockset is intersected with the accessor's held locks
    at every access, and an empty lockset with writes present is
    reported as a data race.

    Refinements over textbook Eraser, tuned to this simulator:

    * accesses from kernel mode are ignored (the usync protocol re-reads
      cells racily by design);
    * offsets registered in ``MemoryObject.sync_offsets`` (the state
      words of the sync primitives themselves) are ignored;
    * when the exclusive owner has exited (thread) or its process is
      gone, the next accessor restarts the exclusive phase — the
      join/wait that published the data is a happens-before edge the
      pure lockset algorithm cannot see.  This trades false positives
      on the repo's join idioms for false negatives on genuinely
      unsynchronized post-exit access.
    """

    name = "lockset"

    def __init__(self, machine, held=None):
        super().__init__()
        self.machine = machine
        self.held = held if held is not None else _HeldLocks()
        self.cells: dict[tuple, _CellRecord] = {}
        self.accesses_checked = 0

    def install(self, sim) -> None:
        super().install(sim)
        sim.machine.memory.observer = self.on_cell_access

    def on_sync(self, ctx, op, sv, detail) -> None:
        self.held.update(ctx, op, sv, detail)

    # ---------------------------------------------------------- accesses

    def _current(self):
        """Resolve the acting (thread-or-lwp, process, in_kernel) from
        the CPU that is mid-step right now; (None, None, True) when the
        access happens outside any simulated instruction."""
        cpu = self.machine.engine.stepping_cpu
        if cpu is not None and cpu.lwp is not None:
            act = cpu._stepping_activity
            if act is not None:
                lwp = cpu.lwp
                thread = lwp.current_thread
                return (thread if thread is not None else lwp,
                        lwp.process, act.in_kernel)
        return None, None, True

    @staticmethod
    def _gone(actor, proc) -> bool:
        """Is a previously recorded accessor dead (exit = HB edge)?"""
        if proc is not None and proc.state is not ProcState.ACTIVE:
            return True
        return isinstance(actor, Thread) and actor.exited

    def on_cell_access(self, mobj, offset: int, is_write: bool) -> None:
        if offset in mobj.sync_offsets:
            return
        actor, proc, in_kernel = self._current()
        if actor is None or in_kernel:
            return
        self.accesses_checked += 1
        key = (mobj, offset)
        rec = self.cells.get(key)
        if rec is None:
            rec = self.cells[key] = _CellRecord()
        name = getattr(actor, "name", repr(actor))
        if is_write:
            rec.last_writer = name

        if rec.state == _VIRGIN:
            rec.state = _EXCLUSIVE
            rec.owner, rec.owner_proc = actor, proc
            rec.written = is_write
            return
        if rec.state == _EXCLUSIVE:
            if rec.owner is actor:
                rec.written = rec.written or is_write
                return
            if self._gone(rec.owner, rec.owner_proc):
                # Previous owner exited before this access: treat the
                # exit/join as a happens-before edge and restart.
                rec.owner, rec.owner_proc = actor, proc
                rec.written = is_write
                return
            # Second live accessor: the cell is genuinely shared.
            held = {e[0] for e in self.held.held_of(actor)}
            rec.lockset = held
            rec.written = rec.written or is_write
            rec.state = _MODIFIED if rec.written else _SHARED
            rec.accessors = [(rec.owner, rec.owner_proc), (actor, proc)]
        else:
            if all(a is actor or self._gone(a, p)
                   for a, p in rec.accessors):
                # Every other accessor has exited: their exits (joined
                # by whoever runs now) are happens-before edges, so the
                # cell is exclusive again — the post-join read of a
                # worker-filled result is not a race.
                rec.state = _EXCLUSIVE
                rec.owner, rec.owner_proc = actor, proc
                rec.lockset = None
                rec.written = is_write
                rec.accessors = []
                return
            if all(a is not actor for a, _p in rec.accessors):
                rec.accessors.append((actor, proc))
            held = {e[0] for e in self.held.held_of(actor)}
            rec.lockset &= held
            if is_write:
                rec.written = True
                rec.state = _MODIFIED

        if rec.state == _MODIFIED and not rec.lockset and not rec.reported:
            rec.reported = True
            self.report(
                "data-race", f"{mobj.name}+{offset}",
                f"cell {mobj.name}+{offset} is written by multiple "
                f"threads with no common lock held "
                f"(last writer: {rec.last_writer})",
                accessor=name)


# =====================================================================
# Lock-order graph
# =====================================================================

class LockOrderDetector(Detector):
    """Flags cyclic lock acquisition orders (potential deadlocks).

    An edge A -> B is recorded when an actor *blocking*-acquires B while
    holding A.  ``tryenter`` acquisitions add no edges (a non-blocking
    acquire backs off instead of completing a cycle — the paper's own
    suggested use of ``mutex_tryenter`` "to avoid deadlock in operations
    that would normally violate the lock hierarchy"), but try-held locks
    do appear as sources of later blocking edges.  Cycles are reported
    at finalize even when every run happened to win the race.
    """

    name = "lock-order"

    def __init__(self):
        super().__init__()
        self.held = _HeldLocks(track_composite_shared_rwlock=False)
        # key -> set of keys acquired while key was held
        self.edges: dict[tuple, set] = {}
        self.names: dict[tuple, str] = {}
        self.witnesses: dict[tuple, str] = {}

    def on_sync(self, ctx, op, sv, detail) -> None:
        if op in ("acquire", "acquire-attempt"):
            if isinstance(sv, RwLock) and sv.is_shared:
                return
            holding = self.held.held(ctx)
            if op == "acquire":
                entry = self.held.update(ctx, op, sv, detail)
                if entry is None or not detail.get("blocking", True):
                    return
                key, name = entry[0], entry[1]
            else:
                # A contended acquire that may never complete — the
                # deadlocked run is exactly the one whose edge matters.
                key = _lock_key(sv, detail)
                name = getattr(sv, "name", "?")
            self.names[key] = name
            for (hkey, hname, _mode, _blocking) in holding:
                if hkey == key:
                    continue
                self.names.setdefault(hkey, hname)
                self.edges.setdefault(hkey, set()).add(key)
                self.witnesses.setdefault(
                    (hkey, key),
                    f"{getattr(_actor(ctx), 'name', '?')} acquired "
                    f"{name} while holding {hname}")
        elif op == "release":
            self.held.update(ctx, op, sv, detail)

    def finalize(self, sim) -> None:
        # DFS cycle detection over the acquisition-order graph.
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[tuple, int] = {}
        stack: list[tuple] = []

        def dfs(node):
            color[node] = GREY
            stack.append(node)
            for nxt in sorted(self.edges.get(node, ()),
                              key=lambda k: self.names.get(k, "")):
                c = color.get(nxt, WHITE)
                if c == GREY:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    names = [self.names.get(k, "?") for k in cycle]
                    why = "; ".join(
                        self.witnesses.get((a, b), "")
                        for a, b in zip(cycle, cycle[1:]))
                    self.report(
                        "lock-order", " -> ".join(sorted(set(names))),
                        "cyclic lock acquisition order (potential "
                        f"deadlock): {' -> '.join(names)} [{why}]")
                elif c == WHITE:
                    dfs(nxt)
            stack.pop()
            color[node] = BLACK

        for node in sorted(self.edges, key=lambda k: self.names.get(k, "")):
            if color.get(node, WHITE) == WHITE:
                dfs(node)


# =====================================================================
# Lost wakeups
# =====================================================================

class LostWakeupDetector(Detector):
    """Flags signals that can strand a waiter.

    A private condition variable's waiters always associate it with a
    predicate mutex (the cv-wait event records which).  A signal or
    broadcast that (a) woke nobody and (b) was sent while NOT holding
    that mutex is the check-then-signal race: had the waiter been a few
    instructions earlier, the signal would have slipped into the window
    between its predicate check and its sleep, and the wakeup would be
    lost.  Reported at finalize, only for variables that had a waiter at
    some point in the run (a pure notification nobody ever listens to is
    not an error).

    Shared (cross-process) condition variables are skipped: the woken
    count is unknowable from user mode.  A variable paired with more
    than one predicate mutex over the run is also skipped (ambiguous
    association; documented limitation).
    """

    name = "lost-wakeup"

    def __init__(self, held=None):
        super().__init__()
        # shared=True: another listener earlier in the chain maintains
        # ``held`` (see default_detectors); don't double-apply events.
        self._shared_held = held is not None
        self.held = held if held is not None else _HeldLocks()
        self.cv_mutex: dict = {}     # cv -> set of lock keys
        self.cv_waited: set = set()  # cvs that ever had a waiter
        self.wasted: dict = {}       # cv -> [(description, held keys)]

    def on_sync(self, ctx, op, sv, detail) -> None:
        if not self._shared_held:
            self.held.update(ctx, op, sv, detail)
        if op == "cv-wait":
            mutex = detail.get("mutex")
            self.cv_waited.add(sv)
            if mutex is not None:
                self.cv_mutex.setdefault(sv, set()).add(
                    _lock_key(mutex, {"cell": mutex.cell}))
        elif op in ("cv-signal", "cv-broadcast"):
            woken = detail.get("woken")
            if woken is None or woken > 0:
                return  # shared cv (unknowable) or a delivered wakeup
            held = frozenset(e[0] for e in self.held.held(ctx))
            who = getattr(_actor(ctx), "name", "?")
            # The predicate-mutex association may only be learned from a
            # *later* cv-wait, so judge the signal at finalize against
            # the held set it was sent under.
            self.wasted.setdefault(sv, []).append(
                (f"{op} by {who} woke nobody", held))

    def finalize(self, sim) -> None:
        for cv, wastes in self.wasted.items():
            if cv not in self.cv_waited:
                continue  # nobody ever waits on this cv; notification only
            assoc = self.cv_mutex.get(cv)
            if assoc is not None and len(assoc) > 1:
                continue  # shared across predicates; ambiguous — skip
            racy = [desc for desc, held in wastes
                    if not (assoc and assoc & held)]
            if not racy:
                continue  # every empty signal held the predicate mutex
            name = cv.name
            self.report(
                "lost-wakeup", name,
                f"condvar {name}: signal delivered with no waiter woken, "
                f"without holding the predicate mutex, on a variable "
                f"that does have waiters — a waiter checking its "
                f"predicate at that moment sleeps through the wakeup "
                f"({racy[0]}; {len(racy)} such signal(s))")


# =====================================================================
# Exit-time invariants
# =====================================================================

class ExitInvariantDetector(Detector):
    """Thread-death and semaphore accounting invariants.

    * A thread that exits while holding a mutex or rwlock leaves the
      lock orphaned: every later acquirer deadlocks.  (The simulator's
      strict bracketing makes this detectable at the exit event.)
    * A ``sema_v`` that pushes a semaphore above its initial count —
      for semaphores created with a positive initial count, i.e. those
      guarding a fixed pool of resources — means a unit was released
      that was never acquired: the in-use count underflowed, and the
      "pool" now admits more holders than resources.  Semaphores
      initialized to zero (pure event notification, like the paper's
      Figure 6 ping-pong) legitimately grow and are exempt.
    """

    name = "exit-invariant"

    def __init__(self, held=None):
        super().__init__()
        self._shared_held = held is not None
        self.held = held if held is not None else _HeldLocks()

    def on_sync(self, ctx, op, sv, detail) -> None:
        if not self._shared_held:
            self.held.update(ctx, op, sv, detail)
        if op == "thread-exit":
            thread = detail.get("thread")
            holding = self.held.held_of(thread) if thread is not None else []
            if holding:
                names = ", ".join(e[1] for e in holding)
                self.report(
                    "exit-holding-lock", thread.name,
                    f"{thread.name} exited while holding: {names} — "
                    "the lock(s) can never be released")
        elif op == "sema-v":
            if detail.get("handoff"):
                return  # a waiter consumed the unit; in-use was positive
            value = detail.get("value")
            initial = getattr(sv, "initial", 0)
            if initial > 0 and value is not None and value > initial:
                self.report(
                    "sema-underflow", sv.name,
                    f"semaphore {sv.name}: V pushed the count to {value} "
                    f"> initial {initial} — a unit was released that was "
                    "never acquired (in-use count underflow)")


# =====================================================================
# Request ledger (the lost-request invariant)
# =====================================================================

class RequestLedgerDetector(Detector):
    """Audits the server-side request ledger for exactly-once handling.

    Network servers declare their intent through three ledger events
    (:func:`repro.sync.events.sync_event` with a request ``id``):
    ``net-admit`` (the request is accepted for processing),
    ``net-serve`` (a response went out), ``net-shed`` (an explicit
    rejection went out).  The overload invariant: **every admitted
    request is served exactly once or explicitly shed** — under
    backlog overflow, load shedding, injected faults, and adversarial
    schedules alike.  A request that is admitted and then silently
    dropped is the bug this detector exists for: the client sees only a
    timeout, and the loss is invisible to every counter that only
    measures successes.

    Also flagged: double admission of one id, double disposition
    (served twice, or served *and* shed), and a response for a request
    that was never admitted (work the ledger never accounted).  A
    ``net-shed`` without a prior admit is legal — that is a rejection
    at the door (backlog RST, admission-control refusal).
    """

    name = "request-ledger"

    def __init__(self):
        super().__init__()
        self.admitted: dict[str, str] = {}   # id -> admitting actor
        self.disposed: dict[str, str] = {}   # id -> terminal op
        self.counts = {"net-admit": 0, "net-serve": 0, "net-shed": 0}

    def on_sync(self, ctx, op, sv, detail) -> None:
        if op not in self.counts:
            return
        rid = detail.get("id")
        if rid is None:
            return
        self.counts[op] += 1
        who = getattr(_actor(ctx), "name", "?")
        if op == "net-admit":
            if rid in self.admitted:
                self.report(
                    "lost-request", rid,
                    f"request {rid} admitted twice (first by "
                    f"{self.admitted[rid]}, again by {who}) — duplicate "
                    "processing ahead")
            self.admitted[rid] = who
            return
        prev = self.disposed.get(rid)
        if prev is not None:
            self.report(
                "lost-request", rid,
                f"request {rid} disposed twice ({prev}, then {op} by "
                f"{who}) — exactly-once violated")
            return
        self.disposed[rid] = op
        if op == "net-serve" and rid not in self.admitted:
            self.report(
                "lost-request", rid,
                f"request {rid} served by {who} but never admitted — "
                "work the ledger never accounted for")

    def finalize(self, sim) -> None:
        for rid, who in self.admitted.items():
            if rid not in self.disposed:
                self.report(
                    "lost-request", rid,
                    f"request {rid} admitted (by {who}) but neither "
                    "served nor shed — dropped on the floor; the client "
                    "saw only a timeout")


# =====================================================================
# Crash containment (the orphaned-lock invariant)
# =====================================================================

class OrphanedResourceDetector(Detector):
    """Proves the kernel's crash-reclaim walk left nothing behind.

    Two invariants, checked from the crash event stream
    (:mod:`repro.threads.reclaim` announces ``owner-dead`` per reclaimed
    lock, then one ``thread-crash`` per victim):

    * **No lock outlives its dead holder unreclaimed.**  At each
      ``thread-crash``, any lock the victim still holds per the
      acquire/release feed — i.e. one the reclaim walk did not announce
      ``owner-dead`` for — is orphaned: every later acquirer deadlocks,
      and no detector downstream would ever see a release.
    * **Every owner-dead lock is eventually repaired.**  At finalize, a
      lock that went owner-dead during the run must have been made
      consistent again (``mutex_consistent`` after an ``EOWNERDEAD``
      acquire).  Still-owner-dead means the inheritance protocol stalled
      with nobody repairing; ``unrecoverable`` means an inheritor
      released without repairing and bricked the lock for good.

    Semaphores are exempt: a dead holder's units are returned silently
    (holder annotations are advisory; there is no unit identity to
    repair).
    """

    name = "orphaned-resource"

    def __init__(self, held=None):
        super().__init__()
        self._shared_held = held is not None
        self.held = held if held is not None else _HeldLocks()
        self.crashes = 0
        self.reclaims = 0
        # Every lock that went owner-dead this run, in arrival order
        # (strong refs; bounded by the run's lock population).  The
        # process-wide sync-variable registry is not walked at finalize:
        # it may still hold variables from an earlier run.
        self._dead_locks: dict = {}   # lock -> None

    def on_sync(self, ctx, op, sv, detail) -> None:
        if not self._shared_held:
            self.held.update(ctx, op, sv, detail)
        if op == "owner-dead":
            self.reclaims += 1
            if sv is not None:
                self._dead_locks[sv] = None
        elif op == "thread-crash":
            self.crashes += 1
            # Crash events come from kernel context (sync_notify): the
            # victim rides the ctx, not the detail dict.
            thread = ctx.thread if ctx.thread is not None \
                else detail.get("thread")
            leftovers = (self.held.held_of(thread)
                         if thread is not None else [])
            for (_key, lname, mode, _blocking) in leftovers:
                self.report(
                    "orphaned-lock", lname,
                    f"{thread.name} crashed holding {lname} "
                    f"(mode={mode}) and the reclaim walk never "
                    "transitioned it to owner-dead — every later "
                    "acquirer deadlocks on a corpse's lock")

    def finalize(self, sim) -> None:
        for sv in self._dead_locks:
            name = getattr(sv, "name", "?")
            if getattr(sv, "unrecoverable", False):
                self.report(
                    "orphaned-lock", name,
                    f"{name} went owner-dead and an inheritor released "
                    "it without mutex_consistent — permanently "
                    "ENOTRECOVERABLE; the data it protects is lost")
            elif getattr(sv, "owner_dead", False):
                self.report(
                    "orphaned-lock", name,
                    f"{name} is still owner-dead at the end of the run — "
                    "the crashed holder's EOWNERDEAD was never repaired "
                    "by a surviving thread")


# =====================================================================
# Supervision health (restart storms)
# =====================================================================

class RestartStormDetector(Detector):
    """Flags supervision churn: give-ups and backoff-free restart loops.

    The supervisor announces its transitions (``sup-restart``,
    ``sup-give-up``, ``sup-watchdog-kill``).  Two verdicts:

    * any ``sup-give-up`` — a child burned through its whole restart
      budget and the supervisor abandoned it; whatever that child was
      responsible for is now permanently unserved;
    * ``burst_threshold`` restarts of the *same* child within
      ``window_usec`` of virtual time — with the default exponential
      backoff (200µs base, doubling) that many restarts cannot fit in
      the window, so hitting it means the crash-restart loop is running
      unthrottled (the classic restart storm).

    Watchdog kills alone are not reported: a kill that leads to a
    successful restart is the watchdog doing its job.
    """

    name = "restart-storm"

    #: Same-child restarts within the window that imply no backoff.
    BURST_THRESHOLD = 5
    #: Window, µs of virtual time (5 default-backoff restarts need
    #: 200+400+800+1600 = 3000µs of delay alone).
    WINDOW_USEC = 2_000.0

    def __init__(self, burst_threshold: int = BURST_THRESHOLD,
                 window_usec: float = WINDOW_USEC):
        super().__init__()
        self.burst_threshold = burst_threshold
        self.window_ns = int(window_usec * 1_000)
        self.restarts: dict[str, list] = {}   # child name -> [time_ns]
        self.give_ups = 0

    def on_sync(self, ctx, op, sv, detail) -> None:
        if op == "sup-restart":
            child = str(detail.get("child"))
            times = self.restarts.setdefault(child, [])
            times.append(ctx.engine.now_ns)
            recent = [t for t in times
                      if ctx.engine.now_ns - t <= self.window_ns]
            if len(recent) >= self.burst_threshold:
                sup = detail.get("supervisor", "?")
                self.report(
                    "restart-storm", child,
                    f"supervisor {sup} restarted {child} "
                    f"{len(recent)} times within "
                    f"{self.window_ns // 1000}µs — faster than the "
                    "restart backoff allows; the crash loop is "
                    "running unthrottled")
        elif op == "sup-give-up":
            self.give_ups += 1
            child = str(detail.get("child"))
            sup = detail.get("supervisor", "?")
            self.report(
                "restart-storm", child,
                f"supervisor {sup} gave up on {child} after "
                f"{detail.get('restarts', '?')} restarts — the child's "
                "responsibilities are permanently unserved")


def default_detectors(sim) -> list:
    """The standard detector suite for one run, installed.

    Lockset, lost-wakeup, exit-invariant, and orphaned-resource share
    one held-locks tracker: the lockset detector (first in listener
    order, so the state is current before anyone reads it) applies each
    event once instead of four identical applications.  The lock-order
    detector keeps its own — it excludes composite shared-rwlock
    internals, a different tracking config.
    """
    held = _HeldLocks()
    detectors = [LocksetDetector(sim.machine, held=held),
                 LockOrderDetector(),
                 LostWakeupDetector(held=held),
                 ExitInvariantDetector(held=held),
                 RequestLedgerDetector(),
                 OrphanedResourceDetector(held=held),
                 RestartStormDetector()]
    for det in detectors:
        det.install(sim)
    return detectors
