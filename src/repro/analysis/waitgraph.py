"""Hang diagnostics: the wait-for graph behind :class:`DeadlockError`.

When the event queue drains with entities still blocked, the engine used
to report only *which LWPs* were asleep.  This walker reconstructs the
full picture — processes → LWPs → sleep channels → user threads →
synchronization variables → owning threads — and renders who waits on
what, held by whom, since when (virtual ns), plus any cycle it finds.

It reads both kernel structures and per-process threads-library
structures.  That is deliberate and safe: like /proc's LWP view
(``repro.kernel.fs.procfs``), this is the debugger-cooperation path the
paper describes, read-only and outside any kernel behavior — the kernel
still never *acts* on thread state.

Process-shared (usync) sleeps appear in the LWP section: the kernel
channel a shared-variable sleep uses is labeled with the owning
primitive's name (e.g. ``mutex:lock:…``), so cross-process waits are
named even though no user-level queue exists for them.  Socket waits
(accept/recv/send) additionally carry the network-side story of the
socket that owns the channel (``Socket.wait_annotation``) — which port,
connection state, peer process, and bytes buffered — so "blocked in
recv" names its culprit.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.lwp import LwpState
from repro.kernel.process import ProcState
from repro.sync.condvar import CondVar
from repro.sync.mutex import Mutex
from repro.sync.rwlock import RwLock
from repro.sync.semaphore import Semaphore
from repro.sync.variants import all_sync_variables
from repro.threads.thread import Thread, ThreadState


class WaitEdge:
    """One blocked thread: waits on ``kind`` ``resource``, held by
    ``holders`` (threads), since ``since_ns``."""

    def __init__(self, pid: int, thread: Thread, kind: str, resource: str,
                 holders: list, since_ns: Optional[int]):
        self.pid = pid
        self.thread = thread
        self.kind = kind
        self.resource = resource
        self.holders = holders
        self.since_ns = since_ns

    def describe(self, now_ns: int) -> str:
        held = ""
        if self.holders:
            held = " held by " + ", ".join(
                f"{h.name} (dead)" if h.exited else h.name
                for h in self.holders)
        since = ""
        if self.since_ns is not None:
            since = (f" (waiting {now_ns - self.since_ns} ns, "
                     f"since t={self.since_ns} ns)")
        return (f"{self.thread.name} (pid {self.pid}) waits on "
                f"{self.kind} '{self.resource}'{held}{since}")


def _resolve_queue(queue: list, lib) -> tuple[str, str, list]:
    """Name the resource a user-level wait queue belongs to.

    Matches by queue identity against the live sync-variable registry,
    then against thread join/stop queues.  Returns (kind, name, holders).
    """
    for sv in all_sync_variables():
        if isinstance(sv, Mutex) and sv.waiters is queue:
            holders = [sv.owner] if sv.owner is not None else []
            return ("mutex", sv.name, holders)
        if isinstance(sv, CondVar) and sv.waiters is queue:
            return ("condvar", sv.name, [])
        if isinstance(sv, Semaphore) and sv.waiters is queue:
            # Semaphores have no owner, but the best-effort holder list
            # (threads that completed P without a matching V) lets the
            # cycle finder see through semaphores used as locks.
            return ("semaphore", sv.name, list(sv.holders))
        if isinstance(sv, RwLock):
            if sv.writer is not None:
                holders = [sv.writer]
            else:
                # Reader-held: name the readers, so a writer (or
                # would-be upgrader) wait shows who blocks it.
                holders = list(sv.reader_holders)
            if sv.reader_waiters is queue:
                return ("rwlock(read)", sv.name, holders)
            if sv.writer_waiters is queue:
                return ("rwlock(write)", sv.name, holders)
    for other in lib.threads.values():
        if other.waiters is queue:
            return ("thread-exit", other.name, [other])
        if getattr(other, "_stop_waiters", None) is queue:
            return ("thread-stop", other.name, [other])
    if lib.any_waiters is queue:
        return ("thread-exit", "any THREAD_WAIT thread", [])
    return ("wait-queue", f"@{id(queue):x}", [])


def build_wait_graph(kernel) -> tuple[list[WaitEdge], list[tuple]]:
    """Walk every active process; returns (thread_edges, lwp_waits).

    ``lwp_waits`` is ``[(lwp, channel, since_ns), ...]`` — the
    kernel-level view, which includes usync sleeps and bound threads
    parked inside system calls; ``channel`` is the channel's name plus
    its owner's annotation, if it has an owner.
    """
    edges: list[WaitEdge] = []
    lwp_waits: list[tuple] = []
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        if proc.state is not ProcState.ACTIVE:
            continue
        for lwp in proc.live_lwps():
            if lwp.state is LwpState.SLEEPING:
                chan = lwp.channel
                # `is None`, not truthiness: an empty WaitChannel is
                # falsy but still names the wait.
                if chan is None:
                    where = "?"
                elif chan.owner is None:
                    where = chan.name
                else:
                    # Socket waits get their network-side story: which
                    # port/connection, who the peer is, what state it is
                    # in — "blocked in recv" alone names no culprit.
                    where = f"{chan.name} [{chan.owner.wait_annotation()}]"
                lwp_waits.append((lwp, where, lwp.sleep_since_ns))
        lib = proc.threadlib
        if lib is None:
            continue
        for thread in lib.all_threads():
            if thread.exited or thread.state is not ThreadState.SLEEPING:
                continue
            queue = thread.wait_queue
            if queue is None:
                continue
            kind, resource, holders = _resolve_queue(queue, lib)
            # Keep dead holders: a lock orphaned by a crashed owner is
            # precisely the hang a report must name (describe() renders
            # them "<name> (dead)").  The cycle finder sees through them
            # naturally — a corpse blocks on nothing.
            holders = [h for h in holders if isinstance(h, Thread)]
            edges.append(WaitEdge(pid, thread, kind, resource, holders,
                                  thread.sleep_since_ns))
    return edges, lwp_waits


def find_cycles(edges: list[WaitEdge]) -> list[list[WaitEdge]]:
    """Cycles in the thread → holder graph (each reported once)."""
    by_thread: dict[Thread, WaitEdge] = {e.thread: e for e in edges}
    cycles: list[list[WaitEdge]] = []
    seen_keys: set = set()
    black: set = set()

    def dfs(t: Thread, path: list, on_path: dict) -> None:
        if t in on_path:
            cyc = path[on_path[t]:]
            key = frozenset(id(x) for x in cyc)
            if key not in seen_keys:
                seen_keys.add(key)
                cycles.append([by_thread[x] for x in cyc])
            return
        if t in black or t not in by_thread:
            return
        on_path[t] = len(path)
        path.append(t)
        for holder in by_thread[t].holders:
            dfs(holder, path, on_path)
        path.pop()
        del on_path[t]
        black.add(t)

    for start in by_thread:
        dfs(start, [], {})
    return cycles


def render_hang_report(kernel) -> str:
    """The human-readable report DeadlockError carries (and
    ``engine.diagnose_hang()`` returns)."""
    edges, lwp_waits = build_wait_graph(kernel)
    if not edges and not lwp_waits:
        return ""
    now = kernel.engine.now_ns
    lines = [f"=== hang diagnosis at t={now} ns ==="]
    if edges:
        lines.append("blocked threads (wait-for graph):")
        for e in edges:
            lines.append(f"  {e.describe(now)}")
    if lwp_waits:
        lines.append("sleeping LWPs:")
        for lwp, chan, since in lwp_waits:
            ago = f" since t={since} ns" if since is not None else ""
            lines.append(f"  {lwp.name}: on channel '{chan}'{ago}")
    cycles = find_cycles(edges)
    for cyc in cycles:
        lines.append("deadlock cycle detected:")
        for e in cyc:
            lines.append(f"  {e.describe(now)}")
    if edges and not cycles:
        lines.append("no thread-level cycle found: a resource may simply "
                     "never be signaled (lost wakeup or missing peer).")
    return "\n".join(lines)
