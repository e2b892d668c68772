"""C-library-ish helpers for simulated programs.

Includes the ``setjmp``/``longjmp`` pair used as Figure 6's baseline (and
subject to the paper's rule that a longjmp "work[s] only within a
particular thread"), errno access, and a ``compute`` helper standing in
for straight-line computation.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ThreadError
from repro.hw import isa
from repro.hw.isa import GetContext
from repro.sim.clock import usec


class JmpBuf:
    """A jump buffer: token + the thread that set it."""

    __slots__ = ("token", "thread")

    def __init__(self, token: Any, thread):
        self.token = token
        self.thread = thread


def setjmp():
    """Generator: save the current context; returns a :class:`JmpBuf`.

    Our model supports the cost/ownership semantics, not re-entry: a
    simulated longjmp returns control to the saving *point in the model's
    cost accounting*, which is all the Figure 6 baseline exercises.
    """
    ctx = yield GetContext()
    token = yield isa.Setjmp()
    return JmpBuf(token, ctx.thread)


def longjmp(buf: JmpBuf):
    """Generator: restore a saved context.

    "it is an error for a thread to longjmp() into another thread" —
    enforced here.
    """
    ctx = yield GetContext()
    if buf.thread is not ctx.thread:
        raise ThreadError(
            "longjmp into another thread (jump buffer was saved by "
            f"{buf.thread!r}, caller is {ctx.thread!r})")
    yield isa.Longjmp(buf.token)


def setjmp_longjmp_pair():
    """Generator: the Figure 6 baseline — setjmp + longjmp to self."""
    buf = yield from setjmp()
    yield from longjmp(buf)


def compute(usec_amount: float):
    """Generator: burn ``usec_amount`` microseconds of CPU (user mode)."""
    yield isa.charge(usec(usec_amount))


def errno():
    """Generator: read the calling thread's errno (from TLS)."""
    ctx = yield GetContext()
    return ctx.thread.tls.errno


def set_errno(value: int):
    """Generator: set the calling thread's errno."""
    ctx = yield GetContext()
    ctx.thread.tls.errno = value
