"""The kernel dispatcher: places runnable LWPs onto CPUs.

"All the LWPs in the system are scheduled by the kernel onto the available
CPU resources according to their scheduling class and priority."  The
dispatcher owns quantum timers, priority preemption, CPU binding, and gang
co-dispatch; the run queues themselves belong to the scheduling classes
(one :class:`~repro.kernel.sched.policy.SchedPolicy` each), reached
through the per-kernel :class:`~repro.kernel.sched.policy.SchedClassTable`.
It knows nothing about user threads.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.lwp import Lwp, LwpState
from repro.kernel.sched.policy import SchedClassTable
from repro.obs.registry import MetricKeys

#: Per-policy / per-class metric names, each built once.
_RUNQ_DEPTH = MetricKeys("sched.runq_depth.{}".format)
_DISPATCHES = MetricKeys("sched.dispatches.{}".format)
_DISPATCH_LATENCY = MetricKeys("sched.dispatch_latency_ns.{}".format)


class Dispatcher:
    """Global dispatcher over all CPUs of the machine."""

    def __init__(self, machine, tracer=None, table: SchedClassTable = None):
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        # The scheduling-class registry; every queue operation and every
        # policy hook goes through it.
        self.table = table if table is not None else SchedClassTable.default()
        # Per-CPU quantum expiry events, indexed by cpu.index.
        self._quantum_events: dict[int, object] = {}
        # Statistics.
        self.preemptions = 0
        self.voluntary_switches = 0

    # ------------------------------------------------------------ entry

    def make_runnable(self, lwp: Lwp, front: bool = False) -> None:
        """An LWP became ready: queue it and place it if possible."""
        if lwp.state is LwpState.RUNNING:
            return
        lwp.state = LwpState.RUNNABLE
        table = self.table
        pol = table.insert(lwp, front=front)
        m = self.engine.metrics
        if m is not None:
            lwp.ready_since_ns = self.engine.now_ns
            m.observe("sched.runq_depth", table.total)
            m.observe(_RUNQ_DEPTH[pol.sched_class._value_],
                      table.counts[pol])
        self._place(lwp)

    def cpu_idle(self, cpu) -> None:
        """A CPU has nothing to run; give it the best eligible LWP."""
        if cpu.lwp is not None:
            # Someone already placed work here (a wakeup raced the block
            # path); nothing to do.
            return
        self._clear_quantum(cpu)
        lwp = self.table.pick(lambda l: self._eligible(l, cpu))
        if lwp is not None:
            self._dispatch(cpu, lwp)

    def on_preempted(self, lwp: Lwp) -> None:
        """CPU yielded this LWP back (quantum expiry / priority preempt)."""
        self.preemptions += 1
        if lwp.stop_pending:
            # A stop (SIGSTOP / lwp_suspend) was waiting for the LWP to
            # come off its CPU.
            lwp.stop_pending = False
            lwp.state = LwpState.STOPPED
            self.refill_idle_cpus()
            return
        self.table.policy_for(lwp).on_quantum_expired(lwp)
        lwp.state = LwpState.RUNNABLE
        self.table.insert(lwp, front=False)
        # Refill every idle CPU: the preempted LWP may only be eligible on
        # some other CPU (it may have just bound itself elsewhere).
        self.refill_idle_cpus()

    def refill_idle_cpus(self) -> None:
        for cpu in self.machine.cpus:
            if cpu.idle:
                self.cpu_idle(cpu)

    def remove(self, lwp: Lwp) -> None:
        """Pull a queued LWP out (stopped or killed before running)."""
        self.table.remove(lwp)

    # ------------------------------------------------------ policy hooks

    def on_sleep(self, lwp: Lwp) -> None:
        """The LWP is blocking on a wait channel."""
        self.table.policy_for(lwp).on_sleep(lwp)

    def on_sleep_return(self, lwp: Lwp) -> None:
        """The LWP's sleep ended: apply class feedback, then requeue."""
        self.table.policy_for(lwp).on_wakeup(lwp)
        self.make_runnable(lwp)

    def on_offcpu(self, lwp: Lwp, span_ns: int) -> None:
        """The LWP ran ``span_ns`` and came off a CPU (called by the CPU
        on release; pure accounting — vruntime, burst estimates)."""
        pol = self.table.for_class(lwp.sched_class)
        if pol is not None:
            pol.on_offcpu(lwp, span_ns)

    # ------------------------------------------------------------ placing

    def _eligible(self, lwp: Lwp, cpu) -> bool:
        return lwp.bound_cpu is None or lwp.bound_cpu is cpu

    def _place(self, lwp: Lwp) -> None:
        """Try to run a newly queued LWP right now."""
        # First choice: an idle CPU it may use.
        for cpu in self.machine.cpus:
            if cpu.idle and self._eligible(lwp, cpu):
                picked = self.table.pick(
                    lambda l: self._eligible(l, cpu))
                if picked is not None:
                    self._dispatch(cpu, picked)
                # If `picked` wasn't `lwp`, someone better went first; the
                # queue keeps `lwp` for the next opening.
                return
        # Otherwise: preempt the lowest-priority running LWP if the
        # newcomer's policy agrees it should win.
        pol = self.table.policy_for(lwp)
        victim_cpu = None
        victim_prio = lwp.effective_priority
        for cpu in self.machine.cpus:
            running = cpu.lwp
            if running is None or not self._eligible(lwp, cpu):
                continue
            if (running.effective_priority < victim_prio
                    and pol.preempt_check(lwp, running)):
                victim_prio = running.effective_priority
                victim_cpu = cpu
        if victim_cpu is not None:
            victim_cpu.request_preempt()

    def _dispatch(self, cpu, lwp: Lwp) -> None:
        lwp.state = LwpState.RUNNING
        m = self.engine.metrics
        if m is not None:
            cls = lwp.sched_class._value_
            m.count(_DISPATCHES[cls])
            ready = lwp.ready_since_ns
            if ready is not None:
                latency = self.engine.now_ns - ready
                m.observe("sched.dispatch_latency_ns", latency)
                m.observe(_DISPATCH_LATENCY[cls], latency)
                lwp.ready_since_ns = None
        cpu.assign(lwp)
        self._arm_quantum(cpu, lwp)
        if lwp.gang is not None:
            self._codispatch_gang(lwp)

    def _codispatch_gang(self, leader: Lwp) -> None:
        """Gang scheduling: pull the leader's gang-mates onto idle CPUs."""
        for member in leader.gang.members:
            if member is leader or member.state is not LwpState.RUNNABLE:
                continue
            for cpu in self.machine.cpus:
                if cpu.idle and self._eligible(member, cpu):
                    if self.table.remove(member):
                        self._dispatch(cpu, member)
                    break

    # ------------------------------------------------------------ quantum

    def _arm_quantum(self, cpu, lwp: Lwp) -> None:
        self._clear_quantum(cpu)
        q = self.table.policy_for(lwp).quantum_ns(lwp, self.costs.timeslice)
        if q is None:
            return
        self._quantum_events[cpu.index] = self.engine.call_after(
            q, lambda: self._quantum_expired(cpu, lwp), tag="quantum")

    def _clear_quantum(self, cpu) -> None:
        ev = self._quantum_events.pop(cpu.index, None)
        if ev is not None:
            self.engine.cancel(ev)

    def _quantum_expired(self, cpu, lwp: Lwp) -> None:
        self._quantum_events.pop(cpu.index, None)
        if cpu.lwp is not lwp:
            return  # it already left this CPU
        # Round-robin only if somebody comparable is waiting; otherwise
        # let it keep running (no useless switch).
        best = self.table.best_priority()
        if best is None:
            self._arm_quantum(cpu, lwp)
            return
        if best >= lwp.effective_priority:
            # Round-robin at equal priority; a waiting higher-priority LWP
            # always wins.
            cpu.request_preempt()
        else:
            self._arm_quantum(cpu, lwp)

    # ------------------------------------------------------------- stats

    def runnable_count(self) -> int:
        return len(self.table)

    def describe_blocked(self) -> Optional[str]:
        """Used by the engine's deadlock check via the kernel."""
        n = len(self.table)
        if n == 0:
            return None
        return f"{n} LWPs runnable but no CPU picked them"
