"""Process startup glue for the threads library.

"One lightweight process is created by the kernel when a program is
started, and it starts executing the thread compiled as the main program."
This module is that startup code: it builds the per-process
:class:`~repro.threads.scheduler.ThreadsLibrary`, creates thread 1 running
``main``, puts it on the initial LWP, and registers the library's
``SIGWAITING`` handler so the pool can grow to avoid deadlock.

Install it on a kernel with :func:`install`; the ``Simulator`` facade does
this by default.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.kernel.signals import Sig, Sigset
from repro.threads.api import _new_thread
from repro.threads.scheduler import ThreadsLibrary
from repro.threads.thread import ThreadState


def install(kernel: Kernel) -> None:
    """Make every new process image in ``kernel`` thread-capable."""
    kernel.runtime_factory = bootstrap_process


def bootstrap_process(kernel: Kernel, proc: Process, main, args: tuple,
                      extra_lwps: int = 0) -> ThreadsLibrary:
    """Build the threads runtime and initial thread for one process."""
    lib = start_process(kernel, proc, main, args, ThreadsLibrary)

    # The library handles SIGWAITING by adding LWPs when threads starve.
    proc.signals.set_action(Sig.SIGWAITING, _sigwaiting_trampoline,
                            restart=True)

    for _ in range(extra_lwps):
        # Registration happens in the idle boot when the LWP first runs.
        kernel.create_lwp(proc, lib.new_pool_lwp_activity())
    return lib


def start_process(kernel: Kernel, proc: Process, main, args: tuple,
                  library: type) -> ThreadsLibrary:
    """Give ``proc`` an instance of ``library`` and its thread 1, which
    runs ``main(*args)`` on the process's first LWP."""
    lib = library(proc, kernel.costs, kernel.engine)
    proc.threadlib = lib

    # "The size [of TLS] is computed by the run-time linker at program
    # start time"; programs that need extra unshared variables declare
    # them in their first few instructions, before creating threads.
    # We leave the layout open until the first thread_create.
    thread = _new_thread(lib, _main_wrapper(main, args), None,
                         priority=30, sigmask=Sigset(),
                         name=f"pid{proc.pid}-main")
    lwp = kernel.create_lwp(proc, thread.activity)
    lib.register_pool_lwp(lwp)
    lwp.current_thread = thread
    thread.lwp = lwp
    thread.state = ThreadState.RUNNING
    return lib


def _main_wrapper(main, args: tuple):
    """Adapt main(*args) to the thread body convention func(arg).

    The body returns ``main``'s generator (or its plain result) rather
    than delegating to it, so ``_thread_body`` drives ``main`` directly:
    every effect the main thread ever yields would traverse a
    delegating frame, one more generator resumption per simulated
    instruction.
    """
    def body(_arg):
        return main(*args)
    return body


def _sigwaiting_trampoline(sig: int):
    """Process-wide SIGWAITING handler: defer to the library instance.

    Runs on whichever LWP the kernel picked; finds the library through the
    execution context rather than a global.
    """
    from repro.hw.isa import GetContext
    ctx = yield GetContext()
    lib = ctx.process.threadlib
    if lib is not None:
        yield from lib.sigwaiting_handler(sig)
