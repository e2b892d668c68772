"""The simulated UNIX kernel.

Ties together the process table, LWPs, the dispatcher, the VFS, virtual
memory, signals, and the system-call registry.  Everything the paper's
threads library needs from SunOS is provided here: independently blocking
LWPs, ``lwp_park``/``lwp_unpark``, ``SIGWAITING`` generation, shared-memory
synchronization sleeps, ``fork``/``fork1``, and the rest of the
(re-interpreted) UNIX semantics.

The kernel never sees user threads: "Threads are implemented by the
library and are not known to the kernel."
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Optional

from repro.errors import (Errno, InterruptedSleep, SimulationError,
                          SyscallError)
from repro.hw.context import Activity, Mode, as_generator
from repro.hw.cpu import ExecContext
from repro.hw import isa
from repro.hw.isa import WaitChannel
from repro.hw.machine import Machine
from repro.kernel.fs.vfs import Fifo, Vfs
from repro.kernel.lwp import Lwp, LwpState, SchedClass
from repro.kernel.net import Network, Socket
from repro.kernel.process import ProcState, Process
from repro.kernel.sched.dispatcher import Dispatcher
from repro.kernel.signals import Disposition, Sig
from repro.kernel.vm import AddressSpace
from repro.obs.registry import MetricKeys


class Kernel:
    """The operating system of one simulated machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        self.tracer = machine.engine.tracer
        self.vfs = Vfs(machine.memory)
        self.dispatcher = Dispatcher(machine)
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        # Gang ids are per-kernel (not a class-level counter) so reusing
        # one worker process for several simulations stays deterministic.
        self._next_gang_id = 0
        # Where self-terminating LWPs go; never woken.
        self.grave = WaitChannel("grave")
        # Channels for kernel-level sleeps on process-shared sync
        # variables, keyed by the shared cell (memory object, offset).
        self._shared_channels: dict[tuple, WaitChannel] = {}
        # The machine's network layer: port namespace, listen queues,
        # connection pairing (repro.kernel.net).
        self.net = Network(self)
        # Active fault-injection plan (repro.sim.faults.FaultPlan); set
        # by FaultPlan.attach().  Consulted once per trapped syscall.
        self.faults = None
        self.faults_injected: dict[str, int] = defaultdict(int)
        # Statistics.
        self.syscall_counts: dict[str, int] = defaultdict(int)
        self.signals_posted: dict[Sig, int] = defaultdict(int)
        self.sigwaiting_sent = 0
        # Factory installed by the user-level runtime (the threads library
        # by default): builds the initial thread of a new process image.
        # Signature: factory(kernel, process, main, args, extra_lwps).
        self.runtime_factory = None
        from repro.kernel.syscalls import SYSCALLS
        self._syscalls = SYSCALLS

    # ------------------------------------------------------------- boot

    def boot(self) -> None:
        """Attach to the machine and install the deadlock probe."""
        self.machine.install_kernel(self)
        self.engine.idle_check = self._idle_complaint
        self.engine.hang_reporter = self.describe_hang
        self.vfs.mount_proc(lambda: self)

    def _idle_complaint(self) -> Optional[str]:
        stuck = []
        for proc in self.processes.values():
            if proc.state is not ProcState.ACTIVE:
                continue
            for lwp in proc.live_lwps():
                if lwp.state is LwpState.SLEEPING:
                    # Note: `is not None`, not truthiness — an empty
                    # WaitChannel has len() == 0 and would read as falsy.
                    chan = (lwp.channel.name if lwp.channel is not None
                            else "?")
                    stuck.append(f"{lwp.name} sleeping on {chan}")
                elif lwp.state is LwpState.STOPPED:
                    stuck.append(f"{lwp.name} stopped")
        if stuck:
            return ("no events pending but LWPs are blocked: "
                    + "; ".join(stuck))
        # A runnable LWP nobody dispatched is a scheduler bug, not a
        # program bug — surface it just as loudly.
        complaint = self.dispatcher.describe_blocked()
        if complaint:
            return complaint
        return None

    def describe_hang(self) -> str:
        """Wait-for-graph report: who waits on what, held by whom.

        The walker lives in :mod:`repro.analysis.waitgraph` because it
        reads *both* kernel structures and per-process threads-library
        structures — the debugger-cooperation path (like /proc), not a
        kernel behavior dependency.
        """
        from repro.analysis.waitgraph import render_hang_report
        return render_hang_report(self)

    # ------------------------------------------------- process/LWP factory

    def create_process(self, name: str,
                       parent: Optional[Process] = None) -> Process:
        pid = self._next_pid
        self._next_pid += 1
        aspace = AddressSpace(self.machine.memory, name=f"pid{pid}")
        proc = Process(pid, name, aspace, parent=parent)
        proc.cwd = self.vfs.root
        if parent is not None:
            parent.children.append(proc)
            proc.ruid, proc.euid = parent.ruid, parent.euid
            proc.rgid, proc.egid = parent.rgid, parent.egid
        self.processes[pid] = proc
        return proc

    def adopt_process(self, proc: Process) -> None:
        """Install an externally built process (fork does this)."""
        self.processes[proc.pid] = proc

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def next_gang_id(self) -> int:
        self._next_gang_id += 1
        return self._next_gang_id

    def create_lwp(self, process: Process, activity: Activity,
                   sched_class: SchedClass = SchedClass.TIMESHARE,
                   priority: int = 30,
                   runnable: bool = True) -> Lwp:
        if sched_class is SchedClass.TIMESHARE:
            # A SchedulerChoice perturbation rule re-homes the default
            # timesharing class; explicit RT/GANG requests always win.
            override = getattr(self.engine, "sched_class_override", None)
            if override is not None:
                sched_class = self.dispatcher.table.class_for_name(override)
        lwp = Lwp(process.next_lwp_id(), process, activity)
        lwp.sched_class = sched_class
        lwp.priority = priority
        lwp.kernel = self
        process.add_lwp(lwp)
        # Growing the pool is exactly the progress SIGWAITING asks for.
        process.sigwaiting_streak = 0
        self.tracer.emit(self.engine.now_ns, "lwp", "create", lwp.name)
        if runnable:
            self.dispatcher.make_runnable(lwp)
        else:
            # Created suspended (THREAD_STOP | THREAD_BIND_LWP): it will
            # not run until lwp_continue.
            lwp.state = LwpState.STOPPED
        return lwp

    def start_main(self, proc: Process, main, args: tuple = (),
                   extra_lwps: int = 0) -> None:
        """Build the initial thread of a (new or exec'd) process image.

        "One lightweight process is created by the kernel when a program
        is started, and it starts executing the thread compiled as the
        main program."  The user-level runtime factory decides what that
        means (threads library, liblwp model, raw LWP, ...).
        """
        if self.runtime_factory is not None:
            self.runtime_factory(self, proc, main, args, extra_lwps)
            return
        activity = Activity(as_generator(main, *args),
                            name=f"pid{proc.pid}-main")
        self.create_lwp(proc, activity)

    # ------------------------------------------------------------ syscalls

    def trap(self, ctx: ExecContext, name: str, args: tuple,
             kwargs: dict):
        """Enter system call ``name``: count it, then build the handler
        generator the CPU pushes as the kernel frame (a fault-plan
        failure or ENOSYS when the call does not run).  The CPU's one
        kernel call per trap."""
        self.syscall_counts[name] += 1
        m = self.engine.metrics
        if m is not None:
            m.count(_SYSCALL_COUNT_KEYS[name])
        if self.faults is not None:
            errno = self.faults.syscall_errno(name)
            if errno is not None:
                return self._injected_failure(name, errno)
        handler = self._syscalls.get(name)
        if handler is None:
            return self._enosys(name)
        # Handlers are generator functions by registry contract, so the
        # call builds a suspended generator directly — nothing executes
        # until the entry charge elapses.
        return handler(ctx, *args, **kwargs)

    def _injected_failure(self, name: str, errno: Errno):
        """Handler generator for a fault-plan-injected syscall failure."""
        self.faults_injected[name] += 1
        self.faults.note(self, "inject", name, errno=errno.name)
        m = self.engine.metrics
        if m is not None:
            m.count(f"faults.injected.{name}.{errno.name}")

        def handler():
            yield isa.charge(self.costs.syscall_service_trivial)
            raise SyscallError(errno, name, f"injected {errno.name}")
        return handler()

    @staticmethod
    def _enosys(name: str):
        raise SyscallError(Errno.ENOSYS, name, "no such system call")
        yield  # pragma: no cover

    # ------------------------------------------------------ block / wakeup

    def block_lwp(self, lwp: Lwp, block: isa.Block) -> None:
        """Sleep an LWP as ``block`` says: on one wait channel, or on a
        ChannelSet (select-style: the first wakeup on any member resumes
        the LWP; the kernel purges it from the rest).  With a deadline,
        one timer ends the sleep with :data:`~repro.hw.isa.TIMED_OUT`."""
        channel = block.channel
        if channel is self.grave or lwp.exited:
            self._bury(lwp)
            return
        channels = (channel.channels if isinstance(channel, isa.ChannelSet)
                    else (channel,))
        lwp.state = LwpState.SLEEPING
        lwp.channel = channels[0]
        lwp.wait_channels = channels
        lwp.sleep_interruptible = block.interruptible
        lwp.sleep_indefinite = block.indefinite
        lwp.sleep_since_ns = self.engine.now_ns
        if block.deadline_ns is not None:
            lwp.sleep_timer = self.engine.call_after(
                block.deadline_ns - self.engine.now_ns,
                partial(self._unblock, lwp, isa.TIMED_OUT),
                tag="sleep-deadline")
        self.dispatcher.on_sleep(lwp)
        for chan in channels:
            chan.add(lwp)
        if block.indefinite:
            self._maybe_sigwaiting(lwp.process)

    def _purge_channels(self, lwp: Lwp) -> None:
        """End a sleep, however it ends (wakeup, deadline, EINTR,
        SA_RESTART, the LWP's death): take the LWP off every channel it
        sleeps on and cancel its deadline."""
        for chan in lwp.wait_channels or ():
            chan.remove(lwp)
        lwp.wait_channels = None
        lwp.channel = None
        lwp.sleep_indefinite = False
        timer = lwp.sleep_timer
        if timer is not None:
            lwp.sleep_timer = None
            self.engine.cancel(timer)

    #: Minimum spacing between SIGWAITINGs to one process.  The signal is
    #: a deadlock-avoidance hint; resending it faster than the library
    #: could possibly react just perturbs every blocking operation.
    SIGWAITING_THROTTLE_NS = 20_000_000  # 20 ms

    #: Consecutive SIGWAITINGs that produced neither an LWP (the library
    #: declined to grow) nor a real wakeup before the kernel concludes the
    #: process is wedged on something no amount of LWPs will fix and stops
    #: posting.  A genuine wakeup or lwp_create resets the count.
    SIGWAITING_STREAK_LIMIT = 8

    def _maybe_sigwaiting(self, proc: Process) -> None:
        """Post SIGWAITING when every LWP waits on an indefinite event."""
        if proc.sigwaiting_posted or proc.dying:
            return
        if not proc.all_lwps_blocked_indefinitely():
            return
        action = proc.signals.action(Sig.SIGWAITING)
        if not action.is_caught():
            return  # default is to ignore; don't bother
        if proc.sigwaiting_streak >= self.SIGWAITING_STREAK_LIMIT:
            # Every recent post was fruitless (handler bailed, nothing
            # woke): stop pelting the process so the event queue can
            # drain and deadlock detection can see the wedge.
            return
        now = self.engine.now_ns
        if now - proc.last_sigwaiting_ns < self.SIGWAITING_THROTTLE_NS:
            # Inside the throttle window the signal must be *deferred*,
            # not dropped: if the last LWP blocked just after a post,
            # nothing else will ever re-evaluate the condition and the
            # process starves permanently (a runnable thread with every
            # LWP asleep).  Re-check when the window closes.
            if not proc.sigwaiting_recheck_armed:
                proc.sigwaiting_recheck_armed = True
                wait = (proc.last_sigwaiting_ns
                        + self.SIGWAITING_THROTTLE_NS - now)

                def recheck():
                    proc.sigwaiting_recheck_armed = False
                    if proc.state is ProcState.ACTIVE:
                        self._maybe_sigwaiting(proc)

                self.engine.call_after(wait, recheck,
                                       tag="sigwaiting-recheck")
            return
        proc.last_sigwaiting_ns = now
        proc.sigwaiting_posted = True
        proc.sigwaiting_streak += 1
        self.sigwaiting_sent += 1
        m = self.engine.metrics
        if m is not None:
            m.count("kernel.sigwaiting_sent")
        if self.tracer.want_signal:
            self.tracer.emit(self.engine.now_ns, "signal", "sigwaiting",
                             f"pid-{proc.pid}")
        self.post_signal(proc, Sig.SIGWAITING)

    def wakeup_one(self, channel: WaitChannel,
                   value: Any = None) -> Optional[Lwp]:
        """Wake the longest-sleeping LWP on ``channel``."""
        lwp = channel.pop_first()
        if lwp is None:
            return None
        self._unblock(lwp, value)
        return lwp

    def wakeup_all(self, channel: WaitChannel, value: Any = None) -> int:
        n = 0
        while channel.waiters:
            lwp = channel.pop_first()
            self._unblock(lwp, value)
            n += 1
        return n

    def unblock_lwp(self, lwp: Lwp, value: Any = None) -> None:
        """Wake a specific sleeping LWP (targeted unpark)."""
        if lwp.state is not LwpState.SLEEPING:
            raise SimulationError(f"unblock of non-sleeping {lwp!r}")
        self._unblock(lwp, value)

    def _unblock(self, lwp: Lwp, value: Any) -> None:
        self._purge_channels(lwp)
        lwp.process.sigwaiting_posted = False
        lwp.process.sigwaiting_streak = 0
        if self.tracer.want_sched:
            self.tracer.emit(self.engine.now_ns, "sched", "wakeup",
                             lwp.name)
        if lwp.current_activity is not None:
            lwp.current_activity.set_resume(value)
        if lwp.stop_pending:
            lwp.stop_pending = False
            lwp.state = LwpState.STOPPED
            return
        self.dispatcher.on_sleep_return(lwp)

    def unpark_lwp(self, lwp: Lwp) -> bool:
        """Wake an LWP from lwp_park (or leave it a permit).

        Shared by the lwp_unpark system call and kernel-internal wakers
        (e.g. synchronization timeouts).  Returns True if a sleeping LWP
        was woken, False if the permit was set instead.
        """
        if (lwp.state is LwpState.SLEEPING
                and lwp.park_channel is not None
                and lwp.channel is lwp.park_channel):
            self.unblock_lwp(lwp, value=0)
            return True
        lwp.park_permit = True
        return False

    def interrupt_sleep(self, lwp: Lwp) -> bool:
        """Signal path: abort an interruptible sleep with EINTR semantics."""
        if (lwp.state is not LwpState.SLEEPING
                or not lwp.sleep_interruptible):
            return False
        self._purge_channels(lwp)
        if lwp.current_activity is not None:
            lwp.current_activity.set_resume_exc(InterruptedSleep())
        if self.tracer.want_signal:
            self.tracer.emit(self.engine.now_ns, "signal",
                             "interrupt-sleep", lwp.name)
        self.dispatcher.make_runnable(lwp)
        return True

    # -------------------------------------------------- shared sync sleeps

    def shared_channel(self, key: tuple, name: str = "usync") -> WaitChannel:
        """The kernel sleep queue for a process-shared sync variable,
        named ``name`` when first made.

        Keyed by the underlying shared cell itself (memory object and
        offset, never a virtual address), so all processes mapping the
        object reach the same queue — the kernel-side half of
        "synchronization variables ... mapped at different virtual
        addresses".
        """
        chan = self._shared_channels.get(key)
        if chan is None:
            chan = self._shared_channels[key] = WaitChannel(name)
        return chan

    # ------------------------------------------------------------- signals

    def post_signal(self, proc: Process, sig: Sig,
                    target_lwp: Optional[Lwp] = None,
                    sender: Optional[Process] = None) -> None:
        """Post a signal to a process (optionally directed at one LWP)."""
        sig = Sig(sig)
        if proc.state is not ProcState.ACTIVE:
            return
        self.signals_posted[sig] += 1
        proc.signals.sent_count[sig] += 1
        if self.tracer.want_signal:
            self.tracer.emit(
                self.engine.now_ns, "signal", "post", f"pid-{proc.pid}",
                sig=sig.name,
                target=target_lwp.name if target_lwp else "process")

        action = proc.signals.action(sig)

        # Uncatchable controls first.
        if sig == Sig.SIGKILL:
            self.exit_process(proc, status=128 + int(sig))
            return
        if sig == Sig.SIGCONT:
            self._continue_process(proc)
            if not action.is_caught():
                return
        if sig in (Sig.SIGSTOP,):
            self._stop_process(proc)
            return

        if action.is_ignore():
            return
        if action.is_default():
            disp = proc.signals.disposition(sig)
            if disp is Disposition.IGNORE:
                return
            if disp in (Disposition.EXIT, Disposition.CORE):
                self.exit_process(proc, status=128 + int(sig))
            elif disp is Disposition.STOP:
                self._stop_process(proc)
            elif disp is Disposition.CONTINUE:
                self._continue_process(proc)
            return

        # Caught: find a taker.
        if target_lwp is not None:
            self._mark_pending(proc, target_lwp, sig)
            return
        taker = self._choose_taker(proc, sig)
        if taker is None:
            # "If all threads mask a signal, it will pend on the process
            # until a thread unmasks that signal."
            proc.signals.pending.add(sig)
            return
        self._mark_pending(proc, taker, sig)

    def _choose_taker(self, proc: Process, sig: Sig) -> Optional[Lwp]:
        """Pick one LWP with the signal unmasked; sleepers preferred so
        delivery is prompt.  Deterministic: lowest LWP id wins ties."""
        candidates = [l for l in proc.live_lwps() if sig not in l.sigmask]
        if not candidates:
            return None
        sleeping = [l for l in candidates
                    if l.state is LwpState.SLEEPING and l.sleep_interruptible]
        pool = sleeping if sleeping else candidates
        return min(pool, key=lambda l: l.lwp_id)

    def _mark_pending(self, proc: Process, lwp: Lwp, sig: Sig) -> None:
        action = proc.signals.action(sig)
        if (lwp.state is LwpState.SLEEPING and lwp.sleep_interruptible
                and action.is_caught() and action.restart):
            # SA_RESTART delivery: run the handler now, then resume the
            # sleep as a spurious wakeup (every blocking kernel loop
            # re-checks its condition and re-blocks).  The interrupted
            # system call never observes EINTR.
            self._deliver_restart(lwp, sig)
            return
        lwp.pending.add(sig)
        if lwp.state is LwpState.SLEEPING and lwp.sleep_interruptible:
            self.interrupt_sleep(lwp)
            return
        if (lwp.state is LwpState.RUNNING and action.is_caught()
                and lwp.cpu is not None
                and lwp.current_activity is not None
                and not lwp.current_activity.in_kernel
                and lwp.cpu._stepping_activity is not lwp.current_activity
                and sig not in lwp.sigmask):
            # Clock-interrupt-style delivery: a caught signal reaches a
            # running user-mode LWP at its next instruction boundary, not
            # only at its next kernel exit.  This is what lets SIGVTALRM
            # preempt a compute-bound thread (library time slicing).
            lwp.pending.discard(sig)
            self._deliver_to_lwp(lwp.cpu.ctx, lwp, sig)
            return
        # Otherwise: delivered at the LWP's next kernel exit.

    def _deliver_restart(self, lwp: Lwp, sig: Sig) -> None:
        """Wake a sleeper, inject the handler frame above its kernel
        frame, and let the sleep restart afterwards."""
        proc = lwp.process
        activity = lwp.current_activity
        if activity is None or activity.finished:
            return
        self._purge_channels(lwp)
        proc.sigwaiting_posted = False
        proc.signals.delivered_count[sig] += 1
        self.tracer.emit(self.engine.now_ns, "signal", "deliver-restart",
                         lwp.name, sig=sig.name)
        frame = self._handler_frame(lwp, sig, proc.signals.action(sig))
        # Park the sleep's resumption (a spurious-wake None) under the
        # handler frame; when the handler returns, the kernel loop
        # re-checks its wait condition.
        activity.set_resume(None)
        activity.push(frame, Mode.USER, label=f"sig_{sig.name}")
        activity.top.saved_resume = ("value", None)
        self.dispatcher.make_runnable(lwp)

    @staticmethod
    def _handler_frame(lwp: Lwp, sig: Sig, action):
        """Block the handler's mask plus ``sig`` now, per sigaction
        semantics, and return the user frame that runs the handler and
        then restores the old mask."""
        old_mask = lwp.sigmask
        during = old_mask.union(action.mask)
        during.add(sig)
        lwp.sigmask = during

        def handler_body():
            try:
                result = yield from as_generator(action.handler, int(sig))
            finally:
                lwp.sigmask = old_mask
            return result

        return handler_body()

    def kernel_exit_check(self, ctx: ExecContext) -> None:
        """Deliver one deliverable pending signal at the kernel/user
        boundary (the classic delivery point)."""
        lwp = ctx.lwp
        proc = lwp.process
        # Fast bail: no pending signals anywhere (the common case — this
        # runs at every syscall exit), read off the two sets' bits.
        if not (lwp.pending._bits or proc.signals.pending._bits):
            return
        if proc.state is not ProcState.ACTIVE or lwp.exited:
            return
        sig = self._dequeue_deliverable(proc, lwp)
        if sig is None:
            return
        self._deliver_to_lwp(ctx, lwp, sig)

    def _dequeue_deliverable(self, proc: Process,
                             lwp: Lwp) -> Optional[Sig]:
        sig = lwp.pending.difference(lwp.sigmask).first()
        if sig is not None:
            lwp.pending.discard(sig)
            return sig
        sig = proc.signals.pending.difference(lwp.sigmask).first()
        if sig is not None:
            proc.signals.pending.discard(sig)
            return sig
        return None

    def _deliver_to_lwp(self, ctx: ExecContext, lwp: Lwp, sig: Sig) -> None:
        """Push the user handler frame onto the LWP's current activity."""
        proc = lwp.process
        action = proc.signals.action(sig)
        if not action.is_caught():
            # Disposition may have changed since posting; re-apply default.
            disp = proc.signals.disposition(sig)
            if disp in (Disposition.EXIT, Disposition.CORE):
                self.exit_process(proc, status=128 + int(sig))
            elif disp is Disposition.STOP:
                self._stop_process(proc)
            return
        proc.signals.delivered_count[sig] += 1
        self.tracer.emit(self.engine.now_ns, "signal", "deliver",
                         lwp.name, sig=sig.name)
        activity = lwp.current_activity
        if activity is None or activity.finished:
            return
        ctx.cpu.inject_user_frame(activity,
                                  self._handler_frame(lwp, sig, action),
                                  label=f"sig_{sig.name}")

    # ----------------------------------------------------- timers / limits

    def on_lwp_timer_expired(self, lwp: Lwp, virtual: bool) -> None:
        """A per-LWP interval timer ran out: SIGVTALRM or SIGPROF is sent
        "to the LWP that owns the interval timer"."""
        sig = Sig.SIGVTALRM if virtual else Sig.SIGPROF
        self.post_signal(lwp.process, sig, target_lwp=lwp)

    def check_cpu_rlimit(self, lwp: Lwp) -> None:
        """Soft RLIMIT_CPU: "the LWP that exceeded the limit is sent the
        appropriate signal" (SIGXCPU), once per limit setting."""
        proc = lwp.process
        limit = proc.rlimits.cpu_ns
        if limit is None:
            return
        if proc.cpu_ns() > limit:
            proc.rlimits.cpu_ns = None  # one notification per setting
            self.post_signal(proc, Sig.SIGXCPU, target_lwp=lwp)

    # ----------------------------------------------------------- stop/cont

    def _stop_process(self, proc: Process) -> None:
        for lwp in proc.live_lwps():
            self.stop_lwp(lwp)

    def stop_lwp(self, lwp: Lwp) -> None:
        if lwp.state is LwpState.RUNNABLE:
            self.dispatcher.remove(lwp)
            lwp.state = LwpState.STOPPED
        elif lwp.state is LwpState.RUNNING:
            lwp.stop_pending = True
            if lwp.cpu is not None:
                lwp.cpu.request_preempt()
        elif lwp.state is LwpState.SLEEPING:
            # Marked; takes effect when the sleep ends.
            lwp.stop_pending = True

    def _continue_process(self, proc: Process) -> None:
        for lwp in proc.live_lwps():
            self.continue_lwp(lwp)

    def continue_lwp(self, lwp: Lwp) -> None:
        lwp.stop_pending = False
        if lwp.state is LwpState.STOPPED:
            self.dispatcher.make_runnable(lwp)

    # -------------------------------------------------------- LWP lifetime

    def _bury(self, lwp: Lwp) -> None:
        """Self-termination: the LWP blocked on the grave channel."""
        lwp.exited = True
        lwp.state = LwpState.ZOMBIE
        lwp.channel = None
        self.tracer.emit(self.engine.now_ns, "lwp", "exit", lwp.name)
        proc = lwp.process
        self.wakeup_all(proc.lwp_wait, value=lwp.lwp_id)
        if proc.dying and not proc.live_lwps():
            self._finish_exit(proc)

    def terminate_lwp(self, lwp: Lwp) -> None:
        """Forcibly destroy an LWP (exit/exec/fatal signal path)."""
        if lwp.state is LwpState.ZOMBIE:
            return
        if lwp.state is LwpState.RUNNING and lwp.cpu is not None:
            cpu = lwp.cpu
            cpu.release()
            self.dispatcher.cpu_idle(cpu)
        elif lwp.state is LwpState.RUNNABLE:
            self.dispatcher.remove(lwp)
        elif lwp.state is LwpState.SLEEPING:
            self._purge_channels(lwp)
        lwp.exited = True
        lwp.state = LwpState.ZOMBIE
        lwp.channel = None
        self.tracer.emit(self.engine.now_ns, "lwp", "terminate", lwp.name)

    def crash_lwp(self, lwp: Lwp, status: Optional[int] = None) -> None:
        """An LWP died abruptly (fault injection, watchdog kill).

        Beyond :meth:`terminate_lwp`'s kernel-side teardown, this runs
        the crash-containment reclaim walk in cooperation with the
        user-level threads runtime (the debugger-cooperation precedent:
        the kernel never schedules user threads, but it may read and
        repair the library's bookkeeping on behalf of a thread that can
        no longer run), and turns the crash of the last LWP — or of the
        last live thread — into a process exit whose status is visible
        to ``waitpid``.
        """
        from repro.threads.reclaim import CRASHED_STATUS, reclaim_dead_lwp
        proc = lwp.process
        if lwp.state is LwpState.ZOMBIE:
            return
        if status is None:
            status = CRASHED_STATUS
        self.terminate_lwp(lwp)
        lwp.exit_status = status
        victims = []
        if not proc.dying and proc.threadlib is not None:
            victims = reclaim_dead_lwp(self, lwp)
        self.tracer.emit(self.engine.now_ns, "crash", "lwp", lwp.name,
                         threads=[t.name for t in victims])
        m = self.engine.metrics
        if m is not None:
            m.count("crash.lwps")
        self.wakeup_all(proc.lwp_wait, value=lwp.lwp_id)
        if not proc.dying and proc.state is ProcState.ACTIVE:
            lib = proc.threadlib
            no_threads = lib is not None and lib.live_count() == 0
            if not proc.live_lwps() or no_threads:
                self.exit_process(proc, status=status)

    def on_activity_finished(self, lwp: Lwp, activity: Activity,
                             value: Any) -> None:
        """An LWP's root activity returned (pure-LWP programming model)."""
        lwp.exit_status = value if isinstance(value, int) else 0
        self._bury(lwp)
        proc = lwp.process
        if proc.state is ProcState.ACTIVE and not proc.live_lwps():
            # Last LWP fell off the end: the process exits.
            self.exit_process(proc, status=lwp.exit_status)

    def on_activity_crashed(self, lwp: Lwp, activity: Activity,
                            exc: BaseException) -> None:
        """Uncaught exception at the bottom of an activity."""
        if isinstance(exc, SyscallError):
            # A simulated program died of an unhandled syscall failure.
            self.tracer.emit(self.engine.now_ns, "proc", "crash",
                             lwp.name, err=str(exc))
            self.exit_process(lwp.process, status=1)
            return
        # A bug in the simulation or the simulated program's Python code:
        # surface it with a full traceback.
        raise SimulationError(
            f"activity {activity.name} on {lwp.name} crashed") from exc

    # ---------------------------------------------------- process lifetime

    def exit_process(self, proc: Process, status: int) -> None:
        """Terminate a whole process (exit(), fatal signal, SIGKILL).

        Destroys all LWPs (and therefore all threads), closes descriptors,
        zombifies, and notifies the parent.
        """
        if proc.state is not ProcState.ACTIVE:
            return
        proc.dying = True
        proc.exit_status = status
        for lwp in list(proc.live_lwps()):
            if lwp.exited:
                # An LWP mid-way through its own exit path (the exit()
                # caller marks itself before getting here): it buries
                # itself; forcing it off its CPU now would corrupt the
                # dispatch state.
                continue
            self.terminate_lwp(lwp)
        self._finish_exit(proc)

    def _finish_exit(self, proc: Process) -> None:
        if proc.state is not ProcState.ACTIVE:
            return
        proc.state = ProcState.ZOMBIE
        for of in proc.fdtable.drain():
            self.release_open_file(of)
        if proc.real_timer_event is not None:
            self.engine.cancel(proc.real_timer_event)
            proc.real_timer_event = None
        if self.tracer.want_proc:
            self.tracer.emit(self.engine.now_ns, "proc", "exit",
                             f"pid-{proc.pid}", status=proc.exit_status)
        # Reparent children to nobody; auto-reap their zombies.
        for child in proc.children:
            child.parent = None
            if child.state is ProcState.ZOMBIE:
                child.state = ProcState.REAPED
        proc.children = [c for c in proc.children
                         if c.state is ProcState.ACTIVE]
        parent = proc.parent
        if parent is not None and parent.state is ProcState.ACTIVE:
            self.post_signal(parent, Sig.SIGCHLD)
            self.wakeup_all(parent.child_wait, value=proc.pid)
        else:
            proc.state = ProcState.REAPED

    def release_open_file(self, of) -> None:
        """Drop one reference to an open file, with device side effects.

        Shared by close(2) and process exit (which implicitly closes all
        descriptors): when a FIFO's last writer or reader goes away, the
        blocked peers must learn about it.
        """
        if of.unref() > 0:
            return
        inode = of.inode
        if isinstance(inode, Socket):
            self.net.close_socket(inode)
            return
        if isinstance(inode, Fifo):
            if of.readable:
                inode.readers -= 1
                if inode.readers == 0:
                    # Writers blocked for space would now block forever.
                    self.wakeup_all(inode.write_channel)
            if of.writable:
                inode.writers -= 1
                if inode.writers == 0:
                    # Readers must wake to observe EOF.
                    self.wakeup_all(inode.read_channel)

    def reap(self, parent: Process, child: Process) -> tuple[int, int]:
        """Collect a zombie child: returns (pid, status)."""
        child.state = ProcState.REAPED
        parent.children.remove(child)
        usage = child.rusage()
        parent.child_user_ns += usage["user_ns"] + child.child_user_ns
        parent.child_system_ns += (usage["system_ns"]
                                   + child.child_system_ns)
        return child.pid, child.exit_status

    # ----------------------------------------------------------- vm faults

    def page_fault_handler(self, ctx: ExecContext, mobj, pageno: int,
                           write: bool):
        """Kernel frame servicing a page fault on the faulting LWP only."""
        def handler():
            yield isa.charge(self.costs.page_fault_service)
            if mobj.nbytes > 0 and pageno * 4096 >= mobj.nbytes + 4096:
                raise SyscallError(Errno.EFAULT, "pagefault",
                                   f"page {pageno} beyond {mobj.name}")
            # File-backed, never-written pages come from "disk".
            if mobj.name.startswith("file:"):
                yield isa.charge(self.costs.page_fault_disk)
            mobj.make_resident(pageno)
            return None
        return handler()

    # ------------------------------------------------------------- lookup

    def process_by_pid(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None or proc.state is ProcState.REAPED:
            raise SyscallError(Errno.ESRCH, "pid", f"pid {pid}")
        return proc

    def active_processes(self) -> list[Process]:
        return [p for p in self.processes.values()
                if p.state is ProcState.ACTIVE]


#: ``syscall.count.<name>``, built once per call name.
_SYSCALL_COUNT_KEYS = MetricKeys("syscall.count.{}".format)


def build_kernel(machine: Machine) -> Kernel:
    """Construct and boot a kernel on ``machine``."""
    kernel = Kernel(machine)
    kernel.boot()
    return kernel
