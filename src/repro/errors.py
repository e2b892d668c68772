"""Exception hierarchy and simulated UNIX error numbers.

The simulated kernel reports failures to user code the way a UNIX kernel
does: with an errno.  Inside the simulator a failing system call raises
:class:`SyscallError`, which the syscall wrappers in
:mod:`repro.runtime.unistd` either propagate or convert to a ``(-1, errno)``
return, mirroring the C convention the paper's interfaces assume.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """Simulated UNIX error numbers (subset of SVID3 errno.h)."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EBUSY = 16
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOSPC = 28
    ESPIPE = 29
    EPIPE = 32
    EDEADLK = 45
    # Robust-mutex owner-death protocol (SVR4 slots; Linux reuses 130/131,
    # which here belong to the socket errnos below).
    EOWNERDEAD = 58
    ENOTRECOVERABLE = 59
    ENOSYS = 78
    EADDRINUSE = 125
    ECONNABORTED = 130
    ECONNRESET = 131
    ENOTCONN = 134
    ETIMEDOUT = 145
    ECONNREFUSED = 146


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class SimulationError(ReproError):
    """The simulation itself is misconfigured or internally inconsistent."""


class DeadlockError(SimulationError):
    """The engine ran out of events while entities were still blocked.

    Raised by :meth:`repro.sim.engine.Engine.run` when ``check_deadlock`` is
    enabled and no progress is possible.  This is the simulator-level
    analogue of a hung machine, and usually indicates a real deadlock in the
    simulated program (e.g. lock ordering violations the paper warns about
    in the ``fork1()`` discussion).
    """


class SyscallError(ReproError):
    """A simulated system call failed with an errno.

    Attributes:
        errno: the :class:`Errno` describing the failure.
        call: name of the failing system call, for diagnostics.
    """

    def __init__(self, errno: Errno, call: str = "", message: str = ""):
        self.errno = errno if errno.__class__ is Errno else Errno(errno)
        self.call = call
        detail = message or self.errno.name
        super().__init__(f"{call or 'syscall'}: {detail}")


class InterruptedSleep(ReproError):
    """Internal: a signal interrupted an LWP's interruptible kernel sleep.

    Thrown into the kernel frame suspended at its ``Block`` yield.  Kernel
    handlers normally let it propagate; the CPU converts it to
    ``SyscallError(EINTR)`` at the kernel/user boundary, after any pending
    signal handler has been queued to run — the classic UNIX ordering.
    """


class ThreadError(ReproError):
    """Misuse of the threads API detected by the threads library.

    The paper defines several usage errors (waiting on a thread created
    without ``THREAD_WAIT``, a thread releasing a mutex it does not hold,
    ``longjmp`` into another thread).  The library raises this exception for
    them rather than corrupting state silently.
    """


class SyncError(ThreadError):
    """Misuse of a synchronization variable (e.g. unlock not held)."""


class LwpExhausted(ThreadError):
    """``lwp_create`` kept failing with EAGAIN after bounded backoff.

    Raised by the threads library when the kernel refuses to create more
    LWPs (per-process ``max_lwps`` rlimit, or an injected fault) and the
    retry budget is spent.  Callers either degrade (bound creation falls
    back to an unbound thread, pool growth is skipped) or surface this,
    depending on the library's ``lwp_exhaust_policy``.
    """

    def __init__(self, attempts: int, message: str = ""):
        self.attempts = attempts
        super().__init__(
            message or f"lwp_create failed with EAGAIN after "
                       f"{attempts} attempt(s)")
