"""The "instruction set" of the simulated machine.

Simulated programs are Python generator functions.  Each ``yield`` hands the
CPU an *effect* — the analogue of executing an instruction sequence, a trap,
or a context-switch primitive.  Library routines compose with
``yield from``, exactly as C library routines compose by procedure call.

Effect vocabulary
-----------------

User mode (yielded by thread bodies and library code):

* :class:`Charge` — consume CPU time (straight-line computation).
* :class:`Syscall` — trap into the kernel; the value of the ``yield`` is
  the system call's return value, or a :class:`repro.errors.SyscallError`
  is thrown into the generator.
* :class:`SwitchTo` — user-level context switch to another thread.  This is
  the save-registers/restore-registers primitive of the paper's threads
  library; it never enters the kernel.
* :class:`GetContext` — read the current execution context (thread, LWP,
  process handles).  Free: the running code already "knows" this the way C
  code knows its own stack pointer.
* :class:`Setjmp` / :class:`Longjmp` — the non-local-goto baseline used by
  Figure 6's first row.

Kernel mode (yielded by system-call handler generators):

* :class:`Charge` — kernel service time.
* :class:`Block` — put the executing LWP to sleep on a wait channel,
  optionally until a deadline.  The value of the ``yield`` is whatever the
  waker passes, or :data:`TIMED_OUT` when the deadline came first.

The executor in :mod:`repro.hw.cpu` interprets these.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class Effect:
    """Base class for everything a simulated program can yield."""

    __slots__ = ()


class Charge(Effect):
    """Consume ``ns`` of CPU time in the current mode (user or kernel)."""

    __slots__ = ("ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.ns = ns

    def __repr__(self) -> str:
        return f"Charge({self.ns}ns)"


#: Interned Charge effects, keyed by duration.  Charges are immutable once
#: yielded (the executor only reads ``.ns``), so the same cost-model
#: constant can reuse one object instead of allocating per operation.
#: Capped so a pathological workload of distinct durations cannot grow it
#: without bound; misses simply allocate.
_CHARGE_CACHE: dict = {}
_CHARGE_CACHE_MAX = 512


def charge(ns: int) -> Charge:
    """An interned :class:`Charge` for ``ns`` (hot-path allocation saver)."""
    eff = _CHARGE_CACHE.get(ns)
    if eff is None:
        eff = Charge(ns)
        if len(_CHARGE_CACHE) < _CHARGE_CACHE_MAX:
            _CHARGE_CACHE[ns] = eff
    return eff


class Syscall(Effect):
    """Trap into the kernel to execute the named system call."""

    __slots__ = ("name", "args", "kwargs")

    def __init__(self, name: str, *args, **kwargs):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self) -> str:
        return f"Syscall({self.name}, args={self.args!r})"


class SwitchTo(Effect):
    """User-level thread switch.

    The currently running thread's continuation is left suspended at this
    yield; the target thread's continuation resumes on the same LWP.  The
    value sent back into the yield (when this thread is later resumed) is
    ``resume_value`` stored on the thread by whoever made it runnable.
    """

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def __repr__(self) -> str:
        return f"SwitchTo({self.target!r})"


class GetContext(Effect):
    """Yielded to obtain the current :class:`repro.hw.cpu.ExecContext`.

    Argless and stateless, so construction returns a process-wide interned
    instance (also exported as :data:`GET_CONTEXT`): the hottest effect in
    the simulator allocates nothing.
    """

    __slots__ = ()
    _instance: Optional["GetContext"] = None

    def __new__(cls) -> "GetContext":
        inst = cls._instance
        if inst is None:
            inst = cls._instance = super().__new__(cls)
        return inst

    def __repr__(self) -> str:
        return "GetContext()"


class Setjmp(Effect):
    """Save the current user context; cost-model charge only.

    Returns a jump-buffer token.  Used by the Figure 6 baseline and by the
    runtime's :func:`repro.runtime.libc.setjmp`.  Argless: interned like
    :class:`GetContext` (exported as :data:`SETJMP`).
    """

    __slots__ = ()
    _instance: Optional["Setjmp"] = None

    def __new__(cls) -> "Setjmp":
        inst = cls._instance
        if inst is None:
            inst = cls._instance = super().__new__(cls)
        return inst

    def __repr__(self) -> str:
        return "Setjmp()"


#: The interned argless-effect singletons.  ``yield GET_CONTEXT`` skips
#: even the ``__new__`` call on the fast path.
GET_CONTEXT = GetContext()
SETJMP = Setjmp()


class Longjmp(Effect):
    """Restore a previously saved user context (cost-model charge only)."""

    __slots__ = ("token",)

    def __init__(self, token: Any):
        self.token = token

    def __repr__(self) -> str:
        return f"Longjmp({self.token!r})"


class Touch(Effect):
    """Access a page of a mapped memory object.

    If the page is resident this is free; otherwise the CPU takes a
    (simulated) page fault: a kernel frame is pushed that charges fault
    service time and may block the LWP on disk I/O.  Per the paper, the
    fault blocks only the faulting LWP — other LWPs in the process keep
    running — which is one of the two reasons LWPs exist at all.
    """

    __slots__ = ("mobj", "offset", "write")

    def __init__(self, mobj, offset: int, write: bool = False):
        self.mobj = mobj
        self.offset = offset
        self.write = write

    def __repr__(self) -> str:
        rw = "w" if self.write else "r"
        return f"Touch({self.mobj!r}+{self.offset} {rw})"


class Block(Effect):
    """Kernel mode: sleep the executing LWP on ``channel``.

    Args:
        channel: a :class:`repro.hw.isa.WaitChannel`, or a list of them
            (turned into a :class:`ChannelSet`).
        interruptible: whether a signal may abort the sleep (the classic
            UNIX interruptible-sleep semantic; the sleep then raises
            ``SyscallError(EINTR)`` unless the syscall restarts).
        indefinite: marks sleeps with no bounded completion (e.g. waiting
            for user input).  The kernel uses this to decide when a process
            deserves ``SIGWAITING`` — the paper sends it only when *all*
            LWPs are "waiting for some indefinite, external event".
        deadline_ns: absolute virtual time at which the sleep ends by
            itself, resuming with :data:`TIMED_OUT`; None sleeps until a
            wakeup or a signal.
    """

    __slots__ = ("channel", "interruptible", "indefinite", "deadline_ns")

    def __init__(self, channel, interruptible: bool = True,
                 indefinite: bool = False,
                 deadline_ns: Optional[int] = None):
        if isinstance(channel, (list, tuple)):
            channel = ChannelSet(channel)
        self.channel = channel
        self.interruptible = interruptible
        self.indefinite = indefinite
        self.deadline_ns = deadline_ns

    def __repr__(self) -> str:
        return f"Block({self.channel!r})"


#: What a timed sleep returns when its deadline passed first: the value of
#: a kernel ``yield Block(..., deadline_ns=...)`` and of the threads
#: library's timed block.
TIMED_OUT = object()


class ChannelSet:
    """A select-style group of wait channels blocked on together.

    Blocking on a ChannelSet sleeps the LWP on *every* member; the first
    wakeup on any of them resumes the LWP and the kernel purges it from
    the rest.  Shares the wait-channel ``name`` protocol — ``.name`` is
    the comma-joined member names — so the CPU's block trace, the
    wait-for-graph renderer, and hang diagnostics render single channels
    and groups uniformly, without ad-hoc isinstance checks.
    """

    __slots__ = ("channels", "name")

    def __init__(self, channels: Iterable["WaitChannel"]):
        self.channels = tuple(channels)
        self.name = ",".join(c.name for c in self.channels)

    def __iter__(self):
        return iter(self.channels)

    def __len__(self) -> int:
        return len(self.channels)

    def __repr__(self) -> str:
        return f"<ChannelSet {self.name}>"


class WaitChannel:
    """A kernel sleep queue: the thing an LWP blocks on.

    Wakeups deliver a value to the sleeping LWP's resumption point.  The
    channel keeps FIFO order, which makes simulations deterministic.
    ``owner`` is the kernel object the channel belongs to (a socket), for
    hang reports; None when the name says it all.
    """

    __slots__ = ("name", "waiters", "owner")

    def __init__(self, name: str, owner: Any = None):
        self.name = name
        self.waiters: list = []  # LWPs, FIFO
        self.owner = owner

    def add(self, lwp) -> None:
        self.waiters.append(lwp)

    def remove(self, lwp) -> bool:
        """Remove a specific LWP (e.g. signal interrupted its sleep)."""
        try:
            self.waiters.remove(lwp)
            return True
        except ValueError:
            return False

    def pop_first(self) -> Optional[Any]:
        if self.waiters:
            return self.waiters.pop(0)
        return None

    def __len__(self) -> int:
        return len(self.waiters)

    def __repr__(self) -> str:
        return f"<WaitChannel {self.name} waiters={len(self.waiters)}>"
