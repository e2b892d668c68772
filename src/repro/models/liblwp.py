"""The SunOS 4.0 liblwp model: user-level-only threads.

"The Sun LWP library supplied in SunOS 4.0 is a classic user-level-only
threads package.  It contained no explicit kernel support.  Threads
(called LWPs) synchronized with each other without kernel involvement.
If an LWP called a blocking system call or took a page fault, the entire
application blocked.  This could be mitigated somewhat by using a
non-blocking I/O library ... The application still blocked when a page
fault was taken."

We reproduce it as a configuration of the same machinery: the whole
process runs on exactly **one** kernel LWP, no ``SIGWAITING`` handler is
registered, and the pool never grows — so when any thread blocks in the
kernel, every thread stops, which is precisely the deficiency the paper's
architecture fixes (benchmark ABL3 measures it).

The mitigating non-blocking I/O library is provided too
(:func:`nbio_read`), so the comparison the paper sketches is runnable.
"""

from __future__ import annotations

from repro.errors import ThreadError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.runtime import unistd
from repro.threads import api as thread_api
from repro.threads.backoff import retry_on_eagain
from repro.threads.runtime import start_process
from repro.threads.scheduler import ThreadsLibrary
from repro.threads.thread import THREAD_BIND_LWP, THREAD_NEW_LWP


class LiblwpLibrary(ThreadsLibrary):
    """A ThreadsLibrary restricted to SunOS 4.0 liblwp semantics."""

    def check_flags(self, flags: int) -> None:
        if flags & (THREAD_BIND_LWP | THREAD_NEW_LWP):
            raise ThreadError(
                "liblwp model has no kernel threads: THREAD_BIND_LWP / "
                "THREAD_NEW_LWP are unavailable")


def install(kernel: Kernel) -> None:
    """Make new processes on ``kernel`` run under the liblwp model."""
    kernel.runtime_factory = bootstrap_process


def bootstrap_process(kernel: Kernel, proc: Process, main, args: tuple,
                      extra_lwps: int = 0) -> LiblwpLibrary:
    """liblwp bootstrap: one LWP, ever.  ``extra_lwps`` is ignored —
    SunOS 4.0 had nothing to duplicate — and no SIGWAITING handler is
    installed (the default action ignores it), so nothing grows the
    pool."""
    return start_process(kernel, proc, main, args, LiblwpLibrary)


def lwp_create(func, arg=None):
    """liblwp's thread creation (no LWP flags exist in this model)."""
    tid = yield from thread_api.thread_create(
        func, arg, flags=thread_api.THREAD_WAIT)
    return tid


def nbio_read(fd: int, length: int, poll_interval_usec: float = 500.0):
    """The non-blocking I/O mitigation.

    Opens the window for other liblwp threads to run by polling with
    O_NONBLOCK semantics and yielding between attempts, instead of
    blocking the process's only LWP.  (Page faults still block everyone;
    there is no mitigation for those, as the paper notes.)

    Built on the shared EAGAIN backoff helper in poll-loop mode: retry
    forever at a flat ``poll_interval_usec`` cadence, yielding the LWP to
    other liblwp threads before each sleep.
    """

    def attempt():
        data = yield from unistd.read(fd, length)
        return data

    def between(_tries):
        yield from thread_api.thread_yield()

    data = yield from retry_on_eagain(
        attempt, attempts=None, base_usec=poll_interval_usec,
        factor=1.0, on_retry=between)
    return data
