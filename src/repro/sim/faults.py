"""Deterministic fault injection, and the rule/plan base it shares with
schedule plans.

A :class:`FaultPlan` is a declarative list of fault rules attached to a
booted kernel.  All randomness is drawn from the engine's named seeded
streams (:mod:`repro.sim.rng`), so a fault schedule is a pure function of
``(seed, plan, program)``: a failing run replays bit-for-bit from the same
seed — something real fault-injection harnesses can only approximate.

Rule kinds:

* :class:`SyscallFault` — fail a named system call with an errno, by
  probability, every-Nth, or up to a count (e.g. every 3rd ``lwp_create``
  returns EAGAIN, ``brk`` returns ENOMEM at 10%).
* :class:`PageFaultStorm` — at a virtual time, evict the resident pages
  of every memory object matching a glob, forcing the fault path.
* :class:`TimerJitter` — stretch ``nanosleep`` durations by a random
  amount, perturbing timing-sensitive code deterministically.
* :class:`LwpCrash` — at a virtual time, terminate one LWP mid-run, as
  if the kernel reclaimed it.
* :class:`CrashStorm` — a repeating :class:`LwpCrash`: every
  ``interval_usec`` kill one LWP whose riding thread's name matches a
  glob, up to ``count`` kills.  The chaos gate (``explore --chaos``)
  drives the supervised server through these.

Network rules (consulted by :mod:`repro.kernel.syscalls.net_calls` at
the natural failure points of the simulated socket layer):

* :class:`ConnDrop` — a connect against a matching port is refused
  (``ECONNREFUSED``) or its SYN silently vanishes (the client waits out
  a handshake timer, then ``ETIMEDOUT``).
* :class:`AcceptStall` — an accept on a matching port is delayed before
  it checks the backlog, modeling a server-side interrupt storm.
* :class:`PacketDelay` — extra per-transfer latency on ``send``/``recv``
  (seeded, bounded), modeling a congested path.
* :class:`PeerReset` — a matching connection is destroyed mid-stream
  (both endpoints see ``ECONNRESET``), modeling a peer crash or a
  middlebox RST.

Fault and schedule plans (:mod:`repro.sim.schedule`) share one base.
Each rule kind is a dataclass :class:`Rule` whose constructor fields are
its serialized form, registered in its family's ``KINDS``.
:class:`Plan` owns the rule list, attaching once, arming, the seeded
sub-streams (``faults/<name>`` here) and the plan dict ``{"rules":
[...]}`` stored next to a bug report for exact replay.  Plan dicts are
strict: an unknown kind, an unknown or missing field, or a plan key
other than ``rules`` raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import fnmatch
from dataclasses import KW_ONLY, MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional

from repro.errors import Errno, SimulationError
from repro.sim.clock import usec


def _errno_of(value) -> Errno:
    try:
        if isinstance(value, str):
            return Errno[value]
        return Errno(value)
    except (KeyError, ValueError):
        raise SimulationError(f"unknown errno: {value!r}") from None


def check_probability(probability: float) -> None:
    """The range check every probability-taking rule kind shares."""
    if not 0.0 <= probability <= 1.0:
        raise SimulationError(f"bad probability {probability}")


def _params(cls) -> list:
    """``cls``'s constructor fields, in signature order."""
    return sorted((f for f in fields(cls) if f.init), key=lambda f: f.kw_only)


class Rule:
    """One declarative rule; kinds are ``@dataclass(eq=False)`` subclasses.

    A kind subclasses its family base (:class:`FaultRule` or
    :class:`repro.sim.schedule.ScheduleRule`) and sets ``KIND``, which
    registers it in the family's ``KINDS``.  Its constructor fields are
    what :meth:`to_dict` writes and :meth:`from_dict` reads back;
    ``init=False`` fields are runtime state that :meth:`arm` resets.
    """

    KIND = ""
    FAMILY = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "KIND" in vars(cls):
            cls.KINDS[cls.KIND] = cls

    def arm(self, plan: "Plan", host) -> None:
        """Bind runtime state when the plan attaches (``host`` is the
        kernel for fault rules, the engine for schedule rules)."""

    def to_dict(self) -> dict:
        """``kind`` plus every constructor field: lists are copied,
        enums written by name."""
        data = {"kind": self.KIND}
        for f in _params(type(self)):
            value = getattr(self, f.name)
            data[f.name] = (value.name if isinstance(value, Enum) else
                            list(value) if isinstance(value, list) else value)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Rule":
        """Rebuild a rule of this family from its :meth:`to_dict` form."""
        kwargs = dict(data)
        kind = kwargs.pop("kind", None)
        rule_cls = cls.KINDS.get(kind)
        if rule_cls is None:
            raise SimulationError(f"unknown {cls.FAMILY} rule kind: {kind!r}")
        params = _params(rule_cls)
        bad = [f"unknown field {k!r}"
               for k in sorted(kwargs.keys() - {f.name for f in params})]
        bad += [f"missing field {f.name!r}" for f in params
                if f.name not in kwargs and f.default is MISSING
                and f.default_factory is MISSING]
        if bad:
            raise SimulationError(f"{cls.FAMILY} rule {kind!r}: "
                                  + ", ".join(bad))
        return rule_cls(**kwargs)


class Plan:
    """A declarative, replayable rule list attached to one simulation.

    The shared base of :class:`FaultPlan` and
    :class:`repro.sim.schedule.SchedulePlan`.  A plan attaches exactly
    once (runtime rule state is per-attachment); serialize and rebuild
    to reuse one.
    """

    RULE = Rule    # the family base: from_dict resolves kinds through it
    STREAM = ""    # prefix of the plan's seeded sub-streams

    def __init__(self, rules=()):
        self.rules: list[Rule] = list(rules)
        self.engine = None

    def add(self, rule: Rule) -> "Plan":
        """Append a rule; chainable.  Must be called before attach."""
        if self.engine is not None:
            raise SimulationError("cannot add rules to an attached plan")
        self.rules.append(rule)
        return self

    def attach(self, host) -> None:
        """Bind this plan to ``host`` (a kernel for a fault plan, an
        engine for a schedule plan), then arm every rule against it."""
        if self.engine is not None:
            raise SimulationError(f"{type(self).__name__} is already "
                                  "attached")
        self.engine = self._bind(host)
        for rule in self.rules:
            rule.arm(self, host)

    def _bind(self, host):
        """Point ``host`` at this plan, reset the per-run record, and
        return the engine whose seeded streams the plan draws from."""
        raise NotImplementedError

    def rng(self, name: str):
        """The plan's seeded sub-stream for ``name``."""
        return self.engine.rng.stream(f"{self.STREAM}/{name}")

    def to_dict(self) -> dict:
        return {"rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "Plan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        unknown = sorted(set(data) - {"rules"})
        if unknown:
            raise SimulationError(f"{cls.__name__} dict: unknown "
                                  f"field(s) {unknown}")
        return cls(cls.RULE.from_dict(d) for d in data.get("rules", ()))


class FaultRule(Rule):
    """Base of the fault rule kinds; ``KINDS`` is their registry."""

    FAMILY = "fault"
    KINDS = {}


@dataclass(eq=False)
class SelectedRule(FaultRule):
    """Shared selection plumbing: which occurrences of an event fault.

    Exactly one selection mode applies: ``every`` (deterministic, every
    Nth matching occurrence fails) when given, else ``probability``
    (each occurrence fails independently, drawn from the plan's seeded
    stream).  ``max_count`` caps total injections; ``skip`` exempts the
    first N occurrences (letting a process boot before the storm
    starts).
    """

    _: KW_ONLY
    probability: float = 1.0
    every: Optional[int] = None
    max_count: Optional[int] = None
    skip: int = 0
    seen: int = field(default=0, init=False)
    injected: int = field(default=0, init=False)

    def __post_init__(self):
        if self.every is not None and self.every < 1:
            raise SimulationError(f"every must be >= 1, got {self.every}")
        check_probability(self.probability)

    def arm(self, plan: "FaultPlan", kernel) -> None:
        self.seen = 0
        self.injected = 0

    def decide(self, rng) -> bool:
        """One matching occurrence happened; inject this time?"""
        self.seen += 1
        if self.seen <= self.skip:
            return False
        if self.max_count is not None and self.injected >= self.max_count:
            return False
        if self.every is not None:
            hit = (self.seen - self.skip) % self.every == 0
        else:
            hit = rng.random() < self.probability
        if hit:
            self.injected += 1
        return hit


@dataclass(eq=False)
class SyscallFault(SelectedRule):
    """Fail a named system call with an injected errno.

    Selection modes are inherited from :class:`SelectedRule` (every-Nth,
    probability, max_count, skip).
    """

    KIND = "syscall"

    call: str
    errno: Errno

    def __post_init__(self):
        super().__post_init__()
        self.errno = _errno_of(self.errno)


@dataclass(eq=False)
class PageFaultStorm(FaultRule):
    """At ``at_usec``, evict resident pages of matching memory objects.

    ``pattern`` is an fnmatch glob over memory-object names (e.g.
    ``"file:*"``).  Every subsequent touch of an evicted page takes the
    full page-fault path — the storm a thrashing machine produces, on
    demand and replayable.
    """

    KIND = "storm"

    at_usec: float
    pattern: str = "*"
    evicted: int = field(default=0, init=False)

    def arm(self, plan: "FaultPlan", kernel) -> None:
        self.evicted = 0

        def fire():
            n = 0
            for mobj in kernel.machine.memory.objects:
                if not fnmatch.fnmatch(mobj.name, self.pattern):
                    continue
                for pageno in sorted(mobj.resident):
                    mobj.evict(pageno)
                    n += 1
            self.evicted += n
            plan.note(kernel, "storm", self.pattern, evicted=n)

        kernel.engine.call_at(usec(self.at_usec), fire, tag="fault-storm")


@dataclass(eq=False)
class TimerJitter(FaultRule):
    """Stretch nanosleep durations by up to ``max_usec`` (seeded).

    Models a busy machine delivering timer wakeups late.  Only ever adds
    delay; virtual time stays monotonic.
    """

    KIND = "jitter"

    max_usec: float
    probability: float = 1.0

    def __post_init__(self):
        if self.max_usec < 0:
            raise SimulationError(f"negative jitter {self.max_usec}")
        check_probability(self.probability)

    def jitter_ns(self, rng) -> int:
        if self.probability < 1.0 and rng.random() >= self.probability:
            return 0
        return rng.randint(0, usec(self.max_usec))


def _pick_victim(plan: "FaultPlan", kernel, pid: Optional[int], accept):
    """One live LWP that ``accept`` takes, from the active processes
    (only ``pid`` when given); several candidates draw from the plan's
    ``crash`` stream."""
    from repro.kernel.process import ProcState
    candidates = [lwp for p, proc in sorted(kernel.processes.items())
                  if proc.state is ProcState.ACTIVE and pid in (None, p)
                  for lwp in proc.live_lwps() if accept(lwp)]
    if len(candidates) < 2:
        return candidates[0] if candidates else None
    return plan.rng("crash").choice(candidates)


@dataclass(eq=False)
class LwpCrash(FaultRule):
    """At ``at_usec``, terminate one LWP as if the kernel reclaimed it.

    The victim is ``(pid, lwp_id)`` when given; otherwise one live LWP is
    chosen from the plan's seeded stream.  ``lwp_wait``-ers are woken so
    joiners observe the death instead of hanging.
    """

    KIND = "crash"

    at_usec: float
    pid: Optional[int] = None
    lwp_id: Optional[int] = None
    victim_name: Optional[str] = field(default=None, init=False)

    def arm(self, plan: "FaultPlan", kernel) -> None:
        self.victim_name = None

        def fire():
            victim = _pick_victim(
                plan, kernel, self.pid,
                lambda lwp: self.lwp_id in (None, lwp.lwp_id))
            if victim is None:
                return
            self.victim_name = victim.name
            kernel.crash_lwp(victim)
            plan.note(kernel, "lwp-crash", victim.name)

        kernel.engine.call_at(usec(self.at_usec), fire, tag="fault-crash")


@dataclass(eq=False)
class CrashStorm(FaultRule):
    """Kill one matching LWP every ``interval_usec``, ``count`` times.

    The chaos-engineering workhorse: starting at ``start_usec``, each
    tick picks one live LWP (seeded) whose *riding thread's* name
    matches the ``target`` glob and crashes it through the full
    owner-death reclaim path (:meth:`repro.kernel.kernel.Kernel.
    crash_lwp`).  Matching on the thread name rather than the LWP means
    a storm targeting ``worker-*`` only ever hits a worker mid-request —
    an idle unbound worker sleeping on a condvar is off-LWP and safe —
    which is exactly the discipline a supervised server must survive.

    A tick with no matching victim is skipped (it still counts against
    nothing; the storm keeps ticking until ``count`` kills land or the
    run ends).
    """

    KIND = "crash-storm"

    start_usec: float
    interval_usec: float
    count: int
    target: str = "*"
    pid: Optional[int] = None
    killed: int = field(default=0, init=False)
    victims: list[str] = field(default_factory=list, init=False)

    def __post_init__(self):
        if self.interval_usec <= 0:
            raise SimulationError(f"bad storm interval {self.interval_usec}")
        if self.count < 1:
            raise SimulationError(f"bad storm count {self.count}")

    def arm(self, plan: "FaultPlan", kernel) -> None:
        self.killed = 0
        self.victims = []

        def rides_target(lwp) -> bool:
            name = getattr(lwp.current_thread, "name", None)
            return name is not None and fnmatch.fnmatch(name, self.target)

        def tick():
            from repro.kernel.process import ProcState
            if self.killed >= self.count:
                return
            if not any(p.state is ProcState.ACTIVE
                       for p in kernel.processes.values()):
                return   # everyone exited; stop re-arming
            victim = _pick_victim(plan, kernel, self.pid, rides_target)
            if victim is not None:
                self.killed += 1
                self.victims.append(victim.name)
                thread = victim.current_thread
                kernel.crash_lwp(victim)
                plan.note(kernel, "crash-storm", victim.name,
                          thread=getattr(thread, "name", None),
                          kill=self.killed)
            if self.killed < self.count:
                kernel.engine.call_after(usec(self.interval_usec), tick,
                                         tag="fault-crash-storm")

        kernel.engine.call_at(usec(self.start_usec), tick,
                              tag="fault-crash-storm")


# =====================================================================
# Network rules (the simulated socket layer, repro.kernel.net)
# =====================================================================

@dataclass(eq=False)
class ConnDrop(SelectedRule):
    """Drop or refuse connects against a matching port.

    ``mode="refuse"`` is the immediate RST (``ECONNREFUSED``) a dead
    server answers with; ``mode="timeout"`` is the silently vanished SYN
    — the client waits out ``timeout_usec`` of handshake timer and gets
    ``ETIMEDOUT``.  ``port=None`` matches every port.
    """

    KIND = "conn-drop"
    MODES = ("refuse", "timeout")

    port: Optional[int] = None
    mode: str = "refuse"
    timeout_usec: float = 3_000.0

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in self.MODES:
            raise SimulationError(f"bad ConnDrop mode {self.mode!r}")
        if self.timeout_usec < 0:
            raise SimulationError(f"negative timeout {self.timeout_usec}")

    def matches(self, port: int) -> bool:
        return self.port is None or self.port == port


@dataclass(eq=False)
class AcceptStall(SelectedRule):
    """Stall an accept on a matching port for ``stall_usec`` before it
    looks at the backlog — a server-side interrupt storm or overloaded
    acceptor.  The connections keep queueing meanwhile, so a stall under
    offered load converts directly into backlog pressure."""

    KIND = "accept-stall"

    port: Optional[int] = None
    stall_usec: float = 2_000.0

    def __post_init__(self):
        super().__post_init__()
        if self.stall_usec < 0:
            raise SimulationError(f"negative stall {self.stall_usec}")

    def matches(self, port: int) -> bool:
        return self.port is None or self.port == port


@dataclass(eq=False)
class PacketDelay(SelectedRule):
    """Extra per-transfer latency on matching socket I/O.

    ``op`` is ``"send"``, ``"recv"``, or ``"*"``; each selected transfer
    is charged a seeded uniform delay in ``[0, max_usec]``.  Models a
    congested or lossy path (the retransmissions, not the loss itself —
    loss that kills the connection is :class:`PeerReset`).
    """

    KIND = "packet-delay"
    OPS = ("send", "recv", "*")

    op: str = "*"
    max_usec: float = 1_000.0

    def __post_init__(self):
        super().__post_init__()
        if self.op not in self.OPS:
            raise SimulationError(f"bad PacketDelay op {self.op!r}")
        if self.max_usec < 0:
            raise SimulationError(f"negative delay {self.max_usec}")

    def matches(self, op: str) -> bool:
        return self.op == "*" or self.op == op


@dataclass(eq=False)
class PeerReset(SelectedRule):
    """Destroy a matching connection mid-stream (RST both endpoints).

    ``op`` selects which transfer direction triggers the reset
    (``"send"``, ``"recv"``, or ``"*"``); ``pattern`` is an fnmatch glob
    over the acting socket's name (``sock:<pid>.<n>`` client side,
    ``sock:<port>#c<n>`` server side), so a plan can target one half of
    the conversation.
    """

    KIND = "peer-reset"
    OPS = ("send", "recv", "*")

    op: str = "*"
    pattern: str = "*"

    def __post_init__(self):
        super().__post_init__()
        if self.op not in self.OPS:
            raise SimulationError(f"bad PeerReset op {self.op!r}")

    def matches(self, op: str, sock_name: str) -> bool:
        return ((self.op == "*" or self.op == op)
                and fnmatch.fnmatch(sock_name, self.pattern))


class FaultPlan(Plan):
    """A declarative, replayable set of fault rules.

    Build one, then either pass it to ``Simulator(faults=plan)`` or call
    :meth:`attach` on a booted kernel::

        plan = FaultPlan([SyscallFault("lwp_create", "EAGAIN",
                                       probability=0.5)])
        sim = Simulator(ncpus=2, seed=7, faults=plan)

    A plan may be attached to exactly one kernel (runtime rule state is
    per-attachment); serialize and rebuild to reuse a schedule.
    """

    RULE = FaultRule
    STREAM = "faults"

    def __init__(self, rules=()):
        super().__init__(rules)
        self.kernel = None
        self.injections = 0

    def _bind(self, kernel):
        self.kernel = kernel
        kernel.faults = self
        kernel.engine.faults = self
        self.injections = 0
        return kernel.engine

    def note(self, kernel, event: str, subject: str, **detail) -> None:
        """Trace one injection (category ``"fault"``)."""
        self.injections += 1
        kernel.tracer.emit(kernel.engine.now_ns, "fault", event,
                           subject, **detail)

    # ------------------------------------------------------ consultations

    def syscall_errno(self, name: str) -> Optional[Errno]:
        """Called by the kernel once per trapped syscall: errno to
        inject, or None to let the call proceed."""
        for rule in self.rules:
            if isinstance(rule, SyscallFault) and rule.call == name:
                if rule.decide(self.rng(f"syscall/{name}")):
                    return rule.errno
        return None

    def timer_jitter_ns(self) -> int:
        """Called by nanosleep: extra delay to add to this sleep."""
        total = 0
        for rule in self.rules:
            if isinstance(rule, TimerJitter):
                total += rule.jitter_ns(self.rng("jitter"))
        return total

    # -------------------------------------------- network consultations

    def net_connect_fault(self, port: int) -> Optional[ConnDrop]:
        """Called by connect(2): the ConnDrop rule firing on this call,
        or None.  The caller turns it into ECONNREFUSED or a handshake
        timeout per ``rule.mode``."""
        for rule in self.rules:
            if isinstance(rule, ConnDrop) and rule.matches(port):
                if rule.decide(self.rng("net/conn-drop")):
                    self.note(self.kernel, "conn-drop", f"port:{port}",
                              mode=rule.mode)
                    return rule
        return None

    def net_accept_stall_ns(self, port: int) -> int:
        """Called by accept(2): total injected stall before the backlog
        check (0 when no rule fires)."""
        total = 0
        for rule in self.rules:
            if isinstance(rule, AcceptStall) and rule.matches(port):
                if rule.decide(self.rng("net/accept-stall")):
                    total += usec(rule.stall_usec)
        if total:
            self.note(self.kernel, "accept-stall", f"port:{port}",
                      stall_ns=total)
        return total

    def net_io_delay_ns(self, op: str) -> int:
        """Called per send/recv transfer: extra latency to charge."""
        total = 0
        for rule in self.rules:
            if isinstance(rule, PacketDelay) and rule.matches(op):
                if rule.decide(self.rng("net/packet-delay")):
                    total += self.rng("net/packet-delay").randint(
                        0, usec(rule.max_usec))
        if total:
            self.note(self.kernel, "packet-delay", op, delay_ns=total)
        return total

    def net_peer_reset(self, op: str, sock_name: str) -> bool:
        """Called per send/recv: destroy this connection now?"""
        for rule in self.rules:
            if isinstance(rule, PeerReset) and rule.matches(op, sock_name):
                if rule.decide(self.rng("net/peer-reset")):
                    self.note(self.kernel, "peer-reset", sock_name, op=op)
                    return True
        return False
