"""Scheduler-activations variant (University of Washington comparison).

"An upcall by a new scheduler activation informs the threads package
whenever a scheduler activation currently in use by the process blocks in
the kernel. ... This is similar to the function of the new SIGWAITING
signal in our architecture. ... The main difference is that the current
definition of SIGWAITING is much more coarse ... The former is sent only
when the LWP blocks in an indefinite wait.  The latter is sent whenever
the thread blocks in the kernel for any event.  In the future, we plan to
experiment with sending signals on 'faster' events."

This module is that future experiment: enabling activation mode on a
process makes the kernel notify the threads library on **every** LWP
block (not just indefinite ones), by immediately providing a fresh LWP
when runnable threads would otherwise starve.  Benchmark ABL3 contrasts
the reaction latency and LWP-count behaviour of the two policies.
"""

from __future__ import annotations

from repro.hw.isa import Block, GetContext
from repro.kernel.kernel import Kernel
from repro.kernel.lwp import Lwp
from repro.kernel.process import Process

#: Cap on LWPs created by upcalls (same spirit as MAX_AUTO_LWPS).
MAX_ACTIVATION_LWPS = 64


def enable(kernel: Kernel, proc: Process) -> None:
    """Turn on activation-style upcalls for ``proc``.

    Installs a block hook on the kernel (idempotent) and flags the
    process.
    """
    proc.scheduler_activations = True
    if getattr(kernel, "_activations_hooked", False):
        return
    kernel._activations_hooked = True
    original_block = kernel.block_lwp

    def block_with_upcall(lwp: Lwp, block: Block):
        original_block(lwp, block)
        proc_of = lwp.process
        if getattr(proc_of, "scheduler_activations", False):
            _upcall(kernel, proc_of)

    kernel.block_lwp = block_with_upcall


def enable_current(kernel_unused=None):
    """Generator: enable activations for the calling process."""
    ctx = yield GetContext()
    enable(ctx.kernel, ctx.process)


def _upcall(kernel: Kernel, proc: Process) -> None:
    """The upcall: if threads are starving, hand the library a new LWP.

    A real activation reuses the blocked activation's processor
    immediately; we model the effect by creating a pool LWP at once (no
    20 ms SIGWAITING throttle, no all-LWPs-blocked requirement).
    """
    lib = proc.threadlib
    if lib is None or proc.dying:
        return
    if len(lib.runq) == 0 or lib.parked:
        return
    if len(lib.pool_lwps) >= MAX_ACTIVATION_LWPS:
        return
    lib.lwps_grown_by_sigwaiting += 1  # same counter: "pool grown by hint"
    # Defer one event so we are not reentrant with the dispatch path.
    kernel.engine.call_after(
        0,
        lambda: (proc.state.value == "active"
                 and kernel.create_lwp(proc, lib.new_pool_lwp_activity())),
        tag="activation-upcall")
