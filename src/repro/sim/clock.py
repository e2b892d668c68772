"""Virtual time.

All simulation time is kept in integer nanoseconds.  The paper reports its
measurements in microseconds from the SPARCstation 1+ built-in
microsecond-resolution real-time timer; integer nanoseconds give us headroom
below that resolution while keeping arithmetic exact and the event order
deterministic (no floating point).
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def usec(x: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(x * NS_PER_US))


def msec(x: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(x * NS_PER_MS))


def sec(x: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(x * NS_PER_SEC))


def to_usec(ns: int) -> float:
    """Convert integer nanoseconds to (float) microseconds for reporting."""
    return ns / NS_PER_US
