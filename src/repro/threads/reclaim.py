"""Crash containment: reclaim what a dead LWP's threads held.

The paper lets an LWP disappear mid-critical-section (a fatal signal, a
fault-injected crash, a watchdog kill).  A real SunOS kernel must then
repair what the dead context can no longer release; in this reproduction
the repair is a cooperation between the kernel and the user-level threads
library, on the same precedent as the debugger/waitgraph cooperation: the
kernel never *schedules* user threads, but it may read and fix the
library's bookkeeping on behalf of a thread that will never run again.

The walk, per victim thread (the thread riding the dead LWP, plus its
bound thread if any — sleeping *unbound* threads are off-LWP and
survive):

1. mark the thread dead (``crashed``/``exited``/ZOMBIE, crash status);
2. pull it off whatever wait queue or run queue it occupies, so condvar,
   semaphore, and mutex sleep queues never hold a corpse;
3. walk the live synchronization variables in creation order
   (deterministic across replays): held mutexes and written rwlocks
   transition to *owner-dead* — the next acquirer gets ``EOWNERDEAD``
   and must call ``consistent()`` or the lock becomes unrecoverable —
   and waiters are handed the lock directly; dead readers and semaphore
   holder annotations are dropped silently;
4. release every thread it kept waiting (``thread_stop`` and
   ``thread_wait`` callers), exactly as a normal exit would;
5. release its stack, retire its ID when unwaitable, and notify the
   owning :class:`~repro.threads.supervisor.Supervisor`, if any.

Every transition is announced to the dynamic detectors via
``sync_notify`` (``owner-dead`` per lock, then one ``thread-crash``), so
:class:`~repro.explore.detectors.OrphanedResourceDetector` can prove no
lock was left behind.
"""

from __future__ import annotations

from repro.sync.events import sync_notify
from repro.sync.variants import sync_variables
from repro.threads.thread import Thread, ThreadState

#: waitpid-visible status of a process whose last LWP/thread crashed
#: (as if killed by SIGABRT: 128 + 6).
CRASHED_STATUS = 134


def reclaim_dead_lwp(kernel, lwp) -> list:
    """Reclaim everything held by the threads that died with ``lwp``.

    Kernel-context plain call (no yields); returns the victim threads.
    """
    proc = lwp.process
    lib = proc.threadlib
    if lib is None:
        return []
    victims = []
    for t in (lwp.current_thread, lwp.bound_thread):
        if isinstance(t, Thread) and not t.exited and t not in victims:
            victims.append(t)
    for t in victims:
        reclaim_crashed_thread(kernel, lib, t, lwp=lwp)
    lib.unregister_pool_lwp(lwp)
    return victims


def reclaim_crashed_thread(kernel, lib, thread, lwp=None) -> dict:
    """The per-thread reclaim walk.  Returns a summary (diagnostics)."""
    engine = kernel.engine
    proc = lib.process
    m = engine.metrics

    thread.crashed = True
    thread.exited = True
    thread.exit_status = CRASHED_STATUS
    thread.state = ThreadState.ZOMBIE

    # (2) Off every queue: a corpse on a sleep queue would be handed a
    # lock or a wakeup that evaporates (the lost-wakeup bug class), and
    # one on the run queue would be dispatched into a dead generator.
    wq = thread.wait_queue
    if wq is not None:
        try:
            wq.remove(thread)
        except ValueError:
            pass
        thread.wait_queue = None
    lib.runq.remove(thread)
    ride = lwp if lwp is not None else thread.lwp
    if ride is not None:
        lib.detach(ride, thread)

    # (3) Held-resource walk, creation order for replay determinism.
    owner_dead = 0
    handoffs = 0
    for sv in sync_variables():
        kind = getattr(sv, "KIND", None)
        if kind == "mutex" and not sv.is_shared and sv.owner is thread:
            nxt = sv.reclaim_dead_owner(lib)
            owner_dead += 1
            if nxt is not None:
                handoffs += 1
            sync_notify(engine, "owner-dead", sv, thread=thread, lwp=ride,
                        process=proc, mode="mutex",
                        handoff=getattr(nxt, "name", None))
        elif kind == "rwlock" and not sv.is_shared:
            if sv.writer is thread or thread in sv.reader_holders:
                was_writer = sv.writer is thread
                if sv.reclaim_dead_owner(lib, thread):
                    owner_dead += 1
                # Announced for readers too: the detectors' held-locks
                # tracker must see the dead holder's entry released even
                # when the lock itself never marks owner-dead.
                sync_notify(engine, "owner-dead", sv, thread=thread,
                            lwp=ride, process=proc,
                            mode="writer" if was_writer else "reader",
                            handoff=None)
        elif kind == "sema":
            while thread in sv.holders:
                sv.holders.remove(thread)

    # (4) Everyone it kept waiting: the hand-off of a clean exit.
    joiners = len(thread.waiters)
    lib.unpark_lwps(lib.hand_off_exited(thread))

    # (5) Stack back to the cache; tell the detectors and the supervisor.
    # TSD destructors are guest code and cannot run here — a documented
    # difference from a clean thread_exit.
    lib.stack_alloc.release(thread.stack)
    sync_notify(engine, "thread-crash", None, thread=thread, lwp=ride,
                process=proc, locks=owner_dead)
    if m is not None:
        m.count("crash.threads_reclaimed")
        if owner_dead:
            m.count("crash.locks_owner_dead", owner_dead)
        if handoffs:
            m.count("crash.lock_handoffs", handoffs)
        if joiners:
            m.count("crash.joiners_woken", joiners)
    sup = thread.supervisor
    if sup is not None:
        sup.on_child_crashed(thread, kernel)
    return {"thread": thread.name, "locks_owner_dead": owner_dead,
            "handoffs": handoffs, "joiners_woken": joiners}
