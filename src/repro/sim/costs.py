"""Calibrated cost model for the simulated machine.

The paper's evaluation (Figures 5 and 6) was measured on a SPARCstation 1+
(Sun 4/65, 25 MHz SPARC) running an untuned prototype.  Our substrate is a
discrete-event simulator, so every primitive operation is assigned a cost in
virtual nanoseconds.  The constants below are calibrated so that the
*published* primitive measurements come out of the simulated code paths:

====================================  ==========  =======================
Paper measurement                     Paper       Produced by
====================================  ==========  =======================
Unbound thread create                 56 us       ``thread_create_user``
Bound thread create                   2327 us     + ``lwp_create`` syscall
setjmp/longjmp pair                   59 us       ``setjmp`` + ``longjmp``
Unbound thread sync (one way)         158 us      user sema ops + switch
Bound thread sync (one way)           348 us      sema ops + park/unpark
Cross-process sync (one way)          301 us      shared sema + kernel
====================================  ==========  =======================

The decomposition into primitives is ours (the paper reports only the
totals); what matters for reproduction is that the *totals and ratios*
emerge from executing the same code paths the paper describes: unbound
operations never enter the kernel, bound operations pay syscall entry/exit
plus kernel dispatch, and cross-process operations skip the threads-library
bookkeeping but pay the kernel sleep/wake path.

Costs with no published counterpart (page faults, fork, file I/O) are set
to plausible magnitudes for a 25 MHz workstation with a 1990s SCSI disk and
are flagged ``# unvalidated`` — they only need to be *ordered* correctly
relative to the validated ones.
"""

from __future__ import annotations

import dataclasses

from repro.sim.clock import usec


@dataclasses.dataclass(frozen=True)
class CostModel:
    """All primitive costs of the simulated machine, in nanoseconds.

    Instances are immutable; use :func:`dataclasses.replace` to derive
    variants (the ablation benchmarks do this to explore sensitivity).
    """

    # --- user-mode context primitives (Figure 6 baseline row) ----------
    setjmp: int = usec(20)
    longjmp: int = usec(39)

    # --- threads library, user mode (never enters the kernel) ---------
    # Creation with a cached default stack; Figure 5 row 1.
    thread_create_user: int = usec(56)
    # Creation when the caller supplies its own stack (no cache lookup).
    thread_create_user_own_stack: int = usec(48)
    # Picking the next thread off the library run queue.
    thread_sched_pick: int = usec(49)
    # Bookkeeping for a user-level block/unblock on a sync variable.
    sync_user_op: int = usec(25)
    # Fast path of an uncontended mutex (atomic test-and-set + bookkeeping).
    mutex_fast_path: int = usec(4)
    # Per-slot cost of reading/writing thread-local storage.
    tls_access: int = usec(2)
    # Stack-cache hit vs. building a fresh stack from the heap.
    stack_cache_hit: int = usec(6)
    stack_alloc_heap: int = usec(180)  # unvalidated

    # --- kernel boundary ----------------------------------------------
    syscall_entry: int = usec(15)
    syscall_exit: int = usec(15)
    trap_entry: int = usec(20)  # synchronous fault entry  # unvalidated

    # --- kernel services ------------------------------------------------
    # Service time of lwp_create: allocate kernel stack + LWP struct and
    # enter it in the dispatcher.  Dominates bound thread creation
    # (Figure 5 row 2: 2327 us total, ratio 42).
    lwp_create_service: int = usec(2241)
    # Waking an LWP (move to run queue, maybe cross-CPU poke).
    kernel_wakeup: int = usec(40)
    # Dispatch latency: a newly runnable LWP reaching a CPU.
    kernel_dispatch: int = usec(80)
    # Kernel part of park/unpark used by bound-thread synchronization
    # (sized so the full bound sema_v/sema_p path lands on Figure 6's
    # 348 us row: park/unpark carry the threads-library state handshake).
    lwp_park_service: int = usec(164)
    lwp_unpark_service: int = usec(162)
    # Kernel sleep/wake on a process-shared synchronization variable
    # (the "temporarily bound to the LWP" path of the paper).
    shared_sync_service: int = usec(65.5)
    # Generic short syscall service time (getpid and friends).
    syscall_service_trivial: int = usec(5)

    # --- memory management ---------------------------------------------
    page_fault_service: int = usec(450)  # unvalidated (soft fault)
    page_fault_disk: int = usec(18_000)  # unvalidated (major fault)
    mmap_service: int = usec(300)  # unvalidated
    brk_service: int = usec(120)  # unvalidated

    # --- process lifecycle ----------------------------------------------
    fork_base: int = usec(3_000)  # unvalidated
    fork_per_lwp: int = usec(600)  # unvalidated; why fork1() wins
    fork_per_page: int = usec(12)  # unvalidated (COW setup per page)
    exec_service: int = usec(4_000)  # unvalidated
    exit_service: int = usec(500)  # unvalidated
    exit_per_lwp: int = usec(120)  # unvalidated

    # --- files ------------------------------------------------------------
    file_op_service: int = usec(90)  # unvalidated (open/close/seek)
    io_per_byte: int = 40  # ns/byte ~ 25 MB/s memory copy  # unvalidated
    disk_latency: int = usec(16_000)  # unvalidated

    # --- signals ------------------------------------------------------------
    signal_post: int = usec(35)  # unvalidated (kernel posts a signal)
    signal_deliver: int = usec(60)  # unvalidated (frame setup to handler)
    signal_return: int = usec(30)  # unvalidated (sigreturn)

    # --- scheduling --------------------------------------------------------
    timeslice: int = usec(10_000)  # 10 ms quantum, classic timeshare
    preempt_cost: int = usec(55)  # unvalidated (involuntary LWP switch)

    @property
    def setjmp_longjmp_pair(self) -> int:
        """Cost of the Figure 6 baseline: setjmp + longjmp to self."""
        return self.setjmp + self.longjmp

    @property
    def thread_switch_user(self) -> int:
        """Save one user context and restore another (no kernel entry)."""
        return self.setjmp + self.longjmp

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every cost multiplied by ``factor``.

        Used by sensitivity ablations: the paper's qualitative claims must
        hold for machines faster or slower than a SPARCstation 1+.
        """
        fields = {
            f.name: int(round(getattr(self, f.name) * factor))
            for f in dataclasses.fields(self)
        }
        return CostModel(**fields)


#: The default model, calibrated to the paper's SPARCstation 1+ numbers.
SPARCSTATION_1PLUS = CostModel()


def default_cost_model() -> CostModel:
    """The cost model used when a simulation does not specify one."""
    return SPARCSTATION_1PLUS
