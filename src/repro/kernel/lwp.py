"""Lightweight processes (LWPs) — the kernel-supported thread of control.

Per the paper, the programmer-visible state unique to each LWP is:

* LWP ID
* Register state (here: the :class:`~repro.hw.context.Activity` it runs)
* Signal mask
* Alternate signal stack and its disable/onstack flags
* User and user+system virtual time alarms
* User time and system CPU usage
* Profiling state
* Scheduling class and priority

All other process state is shared by the LWPs within the process.  The LWP
is "a virtual CPU which is available for executing code or system calls";
it is separately dispatched by the kernel, blocks independently, and may
run in parallel on a multiprocessor.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.hw.context import Activity
from repro.kernel.signals import Sigset


class LwpState(enum.Enum):
    """Kernel view of an LWP."""

    RUNNABLE = "runnable"   # on a dispatcher run queue
    RUNNING = "running"     # on a CPU
    SLEEPING = "sleeping"   # blocked on a wait channel
    STOPPED = "stopped"     # lwp_stop / job control
    ZOMBIE = "zombie"       # exited, not yet reaped


class SchedClass(enum.Enum):
    """Scheduling classes (paper: class and priority are per-LWP state;
    a new "gang" class supports fine-grain parallelism).

    TIMESHARE/REALTIME/GANG are the paper's classes; the rest are
    pluggable policies hosted on the same :class:`SchedPolicy` framework
    (see :mod:`repro.kernel.sched.policy`): fair-share by virtual
    runtime (CFS), multilevel feedback queue (MLFQ), shortest job first
    (SJF), and hierarchical round-robin over process groups (HRR).

    Each member's ``base`` is its priority band; higher effective
    priority always dispatches first.  Real-time sits above every
    timeshare priority, per the Chorus comparison ("a thread [can] bind
    to an LWP ... and ask that the underlying LWP be made a member of a
    real-time scheduling class").  The pluggable timesharing-family
    classes share the timeshare band: they arbitrate against RT/GANG
    exactly as TS does.
    """

    def __new__(cls, value: str, base: int):
        member = object.__new__(cls)
        member._value_ = value
        member.base = base
        return member

    TIMESHARE = "TS", 0
    REALTIME = "RT", 200
    GANG = "GANG", 100
    CFS = "CFS", 0
    MLFQ = "MLFQ", 0
    SJF = "SJF", 0
    HRR = "HRR", 0


#: Priority range within a class.
PRIO_MIN = 0
PRIO_MAX = 59


class Lwp:
    """One kernel-supported thread of control."""

    def __init__(self, lwp_id: int, process, activity: Activity):
        self.lwp_id = lwp_id
        self.process = process
        # The display name is read on every traced transition and every
        # wait-channel diagnostic; both inputs are fixed at creation, so
        # build it once.
        pid = process.pid if process else "?"
        self.name = f"lwp-{pid}.{self.lwp_id}"
        self.state = LwpState.RUNNABLE
        self.current_activity: Optional[Activity] = activity
        # The user-level thread currently riding this LWP; maintained by the
        # threads library, invisible to the kernel scheduler.
        self.current_thread = None
        # Bound thread, if any (THREAD_BIND_LWP).  Also library-maintained.
        self.bound_thread = None

        # Signals.
        self.sigmask = Sigset()
        self.pending = Sigset()          # signals directed at this LWP
        self.altstack: Optional[Any] = None
        self.altstack_enabled = False
        self.on_altstack = False

        # Scheduling.
        self.sched_class = SchedClass.TIMESHARE
        self.priority = 30               # mid-band default
        self.bound_cpu = None            # CPU binding via priocntl
        self.gang = None                 # gang group membership
        # Class-owned scheduling state blob (vruntime, MLFQ level, burst
        # estimate, ...).  Owned by the LWP's current SchedPolicy; reset
        # to None on every class change (the priocntl handoff protocol).
        # None for policies that keep no per-LWP state (TS/RT/GANG).
        self.sched_state: Optional[dict] = None

        # Placement / blocking bookkeeping (kernel + dispatcher owned).
        self.cpu = None
        self.channel = None
        self.sleep_interruptible = False
        self.sleep_indefinite = False
        # Virtual time the current sleep began (hang diagnostics).
        self.sleep_since_ns: Optional[int] = None
        # The engine event that ends a sleep with a deadline (Block's
        # deadline_ns); cancelled by whatever else ends the sleep first.
        self.sleep_timer = None
        # Virtual time this LWP last entered the run queue; set only
        # when metrics are attached (dispatch-latency histogram).
        self.ready_since_ns: Optional[int] = None

        # Accounting (paper: "User time and system CPU usage" per LWP).
        self.user_ns = 0
        self.system_ns = 0

        # Per-LWP interval timers: ITIMER_VIRTUAL (user time) and
        # ITIMER_PROF (user+system); armed via setitimer.
        self.vtimer_remaining_ns = 0
        self.ptimer_remaining_ns = 0

        # Profiling (paper: "Profiling is enabled for each LWP
        # individually"; buffer may be shared).
        self.profiling = None            # kernel.profil.ProfilingState

        # True while an interval timer or profiling is armed, or the
        # process has RLIMIT_CPU set: only then does a charge run
        # meter().  Its inputs change only through set_itimer,
        # set_profiling, Process.set_cpu_limit and Process.add_lwp (and
        # a timer running out in meter()), each of which recomputes it.
        self.metered = False

        # lwp_park/lwp_unpark: the private sleep spot of this LWP, plus the
        # permit that absorbs an unpark arriving before the park.
        self.park_channel: Optional[object] = None
        self.park_permit = False

        # Set when the LWP has exited; used by lwp_wait.
        self.exited = False
        self.exit_status = 0
        # Job-control stop requested while not immediately stoppable.
        self.stop_pending = False
        # Backref installed by the kernel at creation (for timer expiry
        # notifications out of the accounting hot path).
        self.kernel = None

    # --------------------------------------------------------- accounting

    def meter(self, ns: int, kernel: bool) -> None:
        """The watchers of a charge (or, negative, a refund) the CPU has
        booked, in order: the interval timers, profiling, RLIMIT_CPU.  A
        timer that runs out recomputes :attr:`metered`."""
        if not kernel and self.vtimer_remaining_ns > 0:
            self.vtimer_remaining_ns = max(0, self.vtimer_remaining_ns - ns)
            if self.vtimer_remaining_ns == 0:
                if self.kernel is not None:
                    self.kernel.on_lwp_timer_expired(self, virtual=True)
                self.update_metered()
        if self.ptimer_remaining_ns > 0:
            self.ptimer_remaining_ns = max(0, self.ptimer_remaining_ns - ns)
            if self.ptimer_remaining_ns == 0:
                if self.kernel is not None:
                    self.kernel.on_lwp_timer_expired(self, virtual=False)
                self.update_metered()
        if self.profiling is not None and not kernel:
            self.profiling.accumulate(self, ns)
        if (self.kernel is not None and ns > 0
                and self.process.rlimits.cpu_ns is not None):
            self.kernel.check_cpu_rlimit(self)

    def set_itimer(self, ns: int, virtual: bool) -> int:
        """Arm ITIMER_VIRTUAL (``virtual``) or ITIMER_PROF to run out
        after ``ns`` more of this LWP's time (0 disarms it); returns the
        time the timer had left."""
        if virtual:
            old, self.vtimer_remaining_ns = self.vtimer_remaining_ns, ns
        else:
            old, self.ptimer_remaining_ns = self.ptimer_remaining_ns, ns
        self.update_metered()
        return old

    def set_profiling(self, state) -> None:
        """Attach a ``kernel.profil.ProfilingState`` to this LWP."""
        self.profiling = state
        self.update_metered()

    def update_metered(self) -> None:
        """Recompute :attr:`metered` from its four inputs."""
        self.metered = (self.vtimer_remaining_ns > 0
                        or self.ptimer_remaining_ns > 0
                        or self.profiling is not None
                        or self.process.rlimits.cpu_ns is not None)

    @property
    def cpu_ns(self) -> int:
        """Total CPU consumed (user + system)."""
        return self.user_ns + self.system_ns

    # --------------------------------------------------------- scheduling

    @property
    def effective_priority(self) -> int:
        """Global dispatch priority: class base + in-class priority."""
        return self.sched_class.base + self.priority

    @property
    def preemptible(self) -> bool:
        """Timeshare LWPs are quantum-preempted; RT runs until it blocks
        or a higher priority LWP appears."""
        return self.sched_class is SchedClass.TIMESHARE

    # ------------------------------------------------------------- states

    def is_blocked_indefinitely(self) -> bool:
        """True when sleeping on an indefinite, external event — the
        condition that feeds SIGWAITING."""
        return (self.state is LwpState.SLEEPING and self.sleep_indefinite)

    def __repr__(self) -> str:
        return f"<Lwp {self.name} {self.state.value} prio={self.priority}>"
