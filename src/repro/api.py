"""Top-level facade: build a machine, boot the kernel, run programs.

Typical use::

    from repro.api import Simulator
    from repro import threads

    def main():
        tid = yield from threads.thread_create(worker, 1,
                                               flags=threads.THREAD_WAIT)
        yield from threads.thread_wait(tid)

    sim = Simulator(ncpus=2)
    sim.spawn(main)
    sim.run()

Programs are generator functions; see :mod:`repro.runtime` for the
system-call wrappers and libc-style helpers they compose with.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.hw.machine import Machine
from repro.kernel.fs.vfs import TtyDevice
from repro.kernel.kernel import Kernel, build_kernel
from repro.kernel.process import Process
from repro.sim.clock import usec
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer
from repro.threads import runtime as threads_runtime


class Simulator:
    """One simulated machine + kernel + threads runtime."""

    def __init__(self, ncpus: int = 1, seed: int = 0,
                 costs: Optional[CostModel] = None,
                 trace: bool = False,
                 trace_categories: Optional[Iterable[str]] = None,
                 trace_sink=None, trace_store: bool = True,
                 threads_runtime_factory=None,
                 faults=None, schedule=None, metrics=None):
        # trace_sink: extra sink (see repro.sim.trace) receiving every
        # kept record; trace_store=False drops in-memory retention —
        # together they give digest-only tracing with O(1) memory.
        self.tracer = Tracer(enabled=trace, categories=trace_categories,
                             sink=trace_sink, store=trace_store)
        self.machine = Machine(ncpus=ncpus, costs=costs, seed=seed,
                               tracer=self.tracer)
        self.kernel: Kernel = build_kernel(self.machine)
        if threads_runtime_factory is None:
            threads_runtime.install(self.kernel)
        else:
            self.kernel.runtime_factory = threads_runtime_factory
        self.faults = faults
        if faults is not None:
            # A FaultPlan (repro.sim.faults): deterministic error
            # injection, page-fault storms, timer jitter, LWP crashes.
            faults.attach(self.kernel)
        self.schedule = schedule
        if schedule is not None:
            # A SchedulePlan (repro.sim.schedule): deterministic
            # preemption injection at yield points and perturbed
            # run-queue picks.  Composes with a fault plan.
            schedule.attach(self.machine.engine)
        if metrics:
            # True -> a fresh MetricsRegistry; or pass an existing one
            # (e.g. to aggregate several runs).  Attaching sets
            # engine.metrics, the gate every instrumentation site tests.
            if metrics is True:
                from repro.obs.registry import MetricsRegistry
                metrics = MetricsRegistry()
            metrics.attach(self.machine.engine)
        self.metrics = metrics or None

    # ------------------------------------------------------------- spawn

    def spawn(self, main, *args, name: str = "main") -> Process:
        """Create a process whose initial thread runs ``main(*args)``."""
        proc = self.kernel.create_process(name)
        self.kernel.start_main(proc, main, args)
        return proc

    # --------------------------------------------------------------- run

    def run(self, until_usec: Optional[float] = None,
            check_deadlock: bool = True,
            max_events: Optional[int] = None) -> int:
        """Run the simulation; returns the number of events fired."""
        until_ns = usec(until_usec) if until_usec is not None else None
        return self.machine.engine.run(until_ns=until_ns,
                                       max_events=max_events,
                                       check_deadlock=check_deadlock)

    @property
    def now_usec(self) -> float:
        return self.machine.engine.now_usec

    @property
    def engine(self):
        return self.machine.engine

    @property
    def costs(self) -> CostModel:
        return self.machine.costs

    # ------------------------------------------------------------ devices

    def tty(self, path: str = "/dev/tty") -> TtyDevice:
        """The console device (for injecting external input)."""
        node = self.kernel.vfs.lookup(path)
        assert isinstance(node, TtyDevice)
        return node

    def type_input(self, data: bytes, path: str = "/dev/tty",
                   at_usec: Optional[float] = None) -> None:
        """Inject terminal input (optionally at a future virtual time) and
        wake any readers."""
        tty = self.tty(path)

        def deliver():
            tty.push_input(data)
            self.kernel.wakeup_all(tty.read_channel)
            tty.mark_readable()

        if at_usec is None:
            deliver()
        else:
            self.engine.call_at(usec(at_usec), deliver, tag="tty-input")

    # ------------------------------------------------------------ reports

    def utilization(self) -> dict:
        return self.machine.utilization()

    def syscall_counts(self) -> dict:
        return dict(self.kernel.syscall_counts)
