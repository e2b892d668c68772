"""UNIX processes.

Per the paper, a multi-threaded UNIX process "is no longer a thread of
control in itself, instead it is associated with one or more threads"; it
consists mainly of an address space and a set of LWPs sharing it.  All of
the classic shared state lives here: the descriptor table, the working
directory, the single set of user and group IDs, the signal handler table,
resource limits, and the one real-time interval timer per process.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.hw.isa import WaitChannel
from repro.kernel.fs.file import FdTable
from repro.kernel.fs.vfs import Directory
from repro.kernel.lwp import Lwp, LwpState
from repro.kernel.signals import SignalState
from repro.kernel.vm import AddressSpace


class ProcState(enum.Enum):
    ACTIVE = "active"
    ZOMBIE = "zombie"
    REAPED = "reaped"


class ResourceLimits:
    """Soft limits on whole-process resource usage.

    The paper: "The resource limits set limits on the resource usage of the
    entire process (i.e. the sum of the resource usage of all the LWPs in
    the process).  When a soft resource limit has been exceeded, the LWP
    that exceeded the limit is sent the appropriate signal."
    """

    def __init__(self):
        self.cpu_ns: Optional[int] = None      # RLIMIT_CPU -> SIGXCPU
        self.fsize_bytes: Optional[int] = None  # RLIMIT_FSIZE -> SIGXFSZ
        self.nofile: int = FdTable.MAX_FDS
        # RLIMIT_NLWPS: cap on live LWPs; lwp_create -> EAGAIN at the
        # cap (the process-wide resource-exhaustion failure mode the
        # threads library must degrade under).  None = unlimited.
        self.max_lwps: Optional[int] = None


class Process:
    """One UNIX process: address space + LWPs + shared state."""

    def __init__(self, pid: int, name: str, aspace: AddressSpace,
                 parent: Optional["Process"] = None):
        self.pid = pid
        self.name = name
        self.parent = parent
        self.children: list[Process] = []
        self.state = ProcState.ACTIVE
        self.exit_status: Optional[int] = None

        self.aspace = aspace
        self.fdtable = FdTable()
        self.cwd: Optional[Directory] = None  # set by the kernel at spawn
        self.ruid = 0
        self.euid = 0
        self.rgid = 0
        self.egid = 0
        self.umask = 0o022

        self.signals = SignalState()
        self.rlimits = ResourceLimits()
        # Children (dead or alive) are reported to waiters on this channel.
        self.child_wait = WaitChannel(f"proc-{pid}:childwait")
        # lwp_wait()ers block here.
        self.lwp_wait = WaitChannel(f"proc-{pid}:lwpwait")

        self.lwps: dict[int, Lwp] = {}
        self._next_lwp_id = 1
        # Accumulated usage of reaped children (getrusage RUSAGE_CHILDREN).
        self.child_user_ns = 0
        self.child_system_ns = 0

        # The single per-process real-time interval timer (ITIMER_REAL).
        self.real_timer_event = None

        # User-level runtime attach point.  The kernel never reads this —
        # "Threads are implemented by the library and are not known to the
        # kernel" — but user-mode library code reaches it through the
        # execution context.
        self.threadlib = None

        # Set once SIGWAITING has been posted and not yet consumed, to
        # avoid storms while all LWPs stay blocked; plus a rate limit so
        # a process that legitimately blocks all LWPs over and over (e.g.
        # a ping-pong through shared memory) is not pelted with signals.
        self.sigwaiting_posted = False
        self.last_sigwaiting_ns = -(10 ** 18)
        # A throttled SIGWAITING is deferred (re-checked when the rate
        # window closes), never dropped; this flag keeps one re-check
        # outstanding at a time.  The streak counts consecutive posts
        # with no sign of progress (no wakeup, no LWP growth); past a
        # limit the kernel gives up so true deadlocks stay detectable.
        self.sigwaiting_recheck_armed = False
        self.sigwaiting_streak = 0

        # Exit/exec coordination: both "block until all the LWPs ... are
        # destroyed".
        self.dying = False

    # --------------------------------------------------------------- LWPs

    def next_lwp_id(self) -> int:
        lwp_id = self._next_lwp_id
        self._next_lwp_id += 1
        return lwp_id

    def add_lwp(self, lwp: Lwp) -> None:
        self.lwps[lwp.lwp_id] = lwp
        lwp.update_metered()  # RLIMIT_CPU may be set already

    def live_lwps(self) -> list[Lwp]:
        """LWPs that have not exited, ascending by id (deterministic)."""
        return [self.lwps[i] for i in sorted(self.lwps)
                if self.lwps[i].state is not LwpState.ZOMBIE]

    def remove_lwp(self, lwp: Lwp) -> None:
        self.lwps.pop(lwp.lwp_id, None)

    def all_lwps_blocked_indefinitely(self) -> bool:
        """The SIGWAITING condition: every live LWP is in an indefinite,
        external wait."""
        live = False
        for lwp in self.lwps.values():
            if lwp.state is LwpState.ZOMBIE:
                continue
            if not lwp.is_blocked_indefinitely():
                return False
            live = True
        return live

    def set_cpu_limit(self, limit: Optional[int]) -> None:
        """Set RLIMIT_CPU (None clears it), which every LWP's charges
        check (``Lwp.metered``)."""
        self.rlimits.cpu_ns = limit
        for lwp in self.lwps.values():
            lwp.update_metered()

    # ---------------------------------------------------------- accounting

    def rusage(self) -> dict:
        """Sum of the resource usage of all the LWPs in the process."""
        user = sum(l.user_ns for l in self.lwps.values())
        system = sum(l.system_ns for l in self.lwps.values())
        return {
            "user_ns": user,
            "system_ns": system,
            "total_ns": user + system,
            "nlwp": len(self.live_lwps()),
        }

    def rusage_children(self) -> dict:
        return {
            "user_ns": self.child_user_ns,
            "system_ns": self.child_system_ns,
            "total_ns": self.child_user_ns + self.child_system_ns,
        }

    def cpu_ns(self) -> int:
        return sum(l.cpu_ns for l in self.lwps.values())

    # --------------------------------------------------------------- misc

    def zombie_children(self) -> list["Process"]:
        return [c for c in self.children if c.state is ProcState.ZOMBIE]

    def __repr__(self) -> str:
        return (f"<Process {self.pid} '{self.name}' {self.state.value} "
                f"lwps={len(self.lwps)}>")
