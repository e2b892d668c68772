"""The CPU executor: steps activities, interprets effects.

A :class:`CPU` runs one LWP at a time.  Running means repeatedly stepping
the LWP's current activity: send the pending resume value into the top
generator frame, interpret the effect it yields, and schedule the next step
after the effect's cost.  The executor is the only place virtual time is
charged to computation.

The CPU is deliberately ignorant of policy.  It delegates:

* system-call dispatch, page faults, blocking, and signal checks to the
  kernel object installed by the machine;
* what to do when an activity's bottom frame returns to the activity's
  ``on_return`` hook (the threads library uses this for implicit
  ``thread_exit()``);
* what to run next, when its LWP blocks or exits, to the kernel dispatcher.

This mirrors the paper's structure: the hardware runs whatever context the
kernel dispatched; the kernel sees only LWPs; user-level thread switches
(the :class:`~repro.hw.isa.SwitchTo` effect) happen "without the kernel
knowing it".

Host performance
----------------

``_step`` and the effect interpreters are the simulator's innermost loop;
they obey the hot-path rules of ARCHITECTURE §10:

* A step normally allocates no event-queue entry at all.
  ``_schedule_step`` reserves the step's ``(time, seq)`` and parks it in
  the engine's front slot; the engine runs it in place when nothing
  queued sorts first, and otherwise (or outside ``run()``) it becomes an
  ordinary ``Event`` with the same key (:mod:`repro.sim.engine`).
* ``Charge``, ``GetContext`` and ``Syscall``, the most frequent effects,
  are handled inline in ``_step`` (matched by exact type), and so is the
  common kernel-to-user return: a kernel frame, not an injected signal
  handler, returning to the user frame below it.  A trap makes one
  kernel call (``Kernel.trap``) and a return one
  (``Kernel.kernel_exit_check``), besides the LWP's time accounting.
  The other effects dispatch through a *type-keyed table*
  (``_DISPATCH``), one dict lookup on ``type(effect)`` instead of an
  isinstance chain; their subclasses resolve through the MRO once and
  are cached.  ``_enter_kernel`` and ``_frame_returned`` are the generic
  trap and return, for subclasses, signal-handler frames and bottom
  frames; the inline paths do exactly what they do.
* Each dispatch builds one :class:`ExecContext`, shared by every
  GetContext, kernel entry and kernel exit until the LWP leaves the CPU.
* Trace emission is gated on the tracer's per-category flags before any
  argument is built, so a disabled tracer costs one attribute check.
* Step tags, frame labels and metric names are built once, not
  formatted per step.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Optional

from repro.errors import (Errno, InterruptedSleep, SimulationError,
                          SyscallError)
from repro.hw import isa
from repro.hw.context import Activity, Frame, Mode
from repro.hw.memory import page_of
from repro.obs.registry import MetricKeys
from repro.sim.events import Event

_KERNEL = Mode.KERNEL
_USER = Mode.USER


class ExecContext:
    """Handle on the current execution environment.

    Passed to kernel syscall handlers and returned to user code by the
    :class:`~repro.hw.isa.GetContext` effect.  User library code uses it to
    reach the per-process threads runtime; kernel code uses it to reach the
    LWP and process structures.
    """

    __slots__ = ("cpu", "lwp", "engine", "kernel", "process", "costs")

    def __init__(self, cpu: "CPU", lwp):
        self.cpu = cpu
        self.lwp = lwp
        self.engine = cpu.engine
        self.kernel = cpu.kernel
        self.process = lwp.process
        self.costs = cpu.costs

    @property
    def thread(self):
        """The user thread currently on this LWP (None in pure-LWP code)."""
        return self.lwp.current_thread

    def __repr__(self) -> str:
        return f"<ExecContext cpu={self.cpu.index} lwp={self.lwp!r}>"


class CPU:
    """One simulated processor."""

    def __init__(self, index: int, engine, costs):
        self.index = index
        self.engine = engine
        self.costs = costs
        self.tracer = engine.tracer
        self.kernel = None  # installed by the machine
        self.lwp = None  # currently running LWP
        # The ExecContext of the current dispatch (None while idle).
        self.ctx: Optional[ExecContext] = None
        # The next step is either an Event in the queue (_step_event) or
        # parked in the engine's front slot (engine.parked is self, key
        # in parked_ns / parked_seq), never both.
        self._step_event = None
        self.parked_ns = 0
        self.parked_seq = 0
        self._step_tag = f"cpu-{index}.step"
        # Hot-path caches: a step is (re)scheduled once per effect, so
        # the queue and the bound _step (the engine runs a parked step as
        # ``step()``) are resolved here rather than per call.
        self._queue = engine.queue
        self.step = self._step
        self._charge_end_ns: Optional[int] = None
        # Virtual time the current LWP was assigned.  Feeds both the
        # metrics (per-class / per-LWP on-CPU accounting) and the
        # scheduler policies' span bookkeeping (CFS vruntime, SJF burst
        # estimates) via dispatcher.on_offcpu() in release().
        self._oncpu_since: Optional[int] = None
        # The activity whose generator is live on the Python stack right
        # now (frame injection must defer while set).
        self._stepping_activity = None
        self._preempt_pending = False
        # Accounting (busy_ns is their sum).
        self.user_ns = 0
        self.kernel_ns = 0
        self.dispatch_count = 0

    @property
    def name(self) -> str:
        return f"cpu-{self.index}"

    @property
    def idle(self) -> bool:
        return self.lwp is None

    @property
    def busy_ns(self) -> int:
        return self.user_ns + self.kernel_ns

    # ------------------------------------------------------------ dispatch

    def assign(self, lwp) -> None:
        """Begin running ``lwp`` on this CPU (kernel dispatcher calls this)."""
        if self.lwp is not None:
            raise SimulationError(
                f"{self.name} already running {self.lwp!r}")
        self.lwp = lwp
        lwp.cpu = self
        self.ctx = ExecContext(self, lwp)
        self.dispatch_count += 1
        self._preempt_pending = False
        self._oncpu_since = self.engine.now_ns
        if self.tracer.want_sched:
            self.tracer.emit(self.engine.now_ns, "sched", "dispatch",
                             lwp.name, cpu=self.name)
        # Dispatch latency: run-queue removal, context load, cache warmup.
        self._account(self.costs.kernel_dispatch, kernel=True)
        self._schedule_step(self.costs.kernel_dispatch)

    def release(self) -> None:
        """Detach the current LWP (it blocked, exited, or was preempted)."""
        lwp = self.lwp
        if lwp is not None:
            lwp.cpu = None
            if self._oncpu_since is not None:
                span = self.engine.now_ns - self._oncpu_since
                m = self.engine.metrics
                if m is not None:
                    m.observe(_ONCPU_BY_CLASS[lwp.sched_class.value], span)
                    m.count(_ONCPU_BY_LWP[lwp.name], span)
                if self.kernel is not None:
                    # Policy span bookkeeping (CFS vruntime, SJF burst
                    # estimate) — pure accounting, schedules nothing.
                    self.kernel.dispatcher.on_offcpu(lwp, span)
        self._oncpu_since = None
        self.lwp = None
        self.ctx = None
        self._cancel_step()

    def request_preempt(self) -> None:
        """Ask the CPU to give up its LWP at the next preemption point.

        If the LWP is in the middle of a user-mode :class:`Charge`, the
        charge is interrupted immediately and the remainder saved.  Kernel
        charges are not interruptible (the simulated kernel runs
        non-preemptively, as SunOS of that era did inside the kernel).
        """
        if self.lwp is None:
            return
        activity = self.lwp.current_activity
        if (self._charge_end_ns is not None and activity is not None
                and not activity.in_kernel):
            remaining = self._charge_end_ns - self.engine.now_ns
            if remaining > 0:
                # The charge was accounted in full when it started; hand the
                # unused remainder back and re-charge it when the LWP next
                # runs.
                activity.pending_charge_ns += remaining
                self._account(-remaining, kernel=False)
            self._cancel_step()
            self._charge_end_ns = None
            lwp = self.lwp
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
        else:
            self._preempt_pending = True

    # ------------------------------------------------------------ stepping

    def _schedule_step(self, delay_ns: int) -> None:
        """Make the next step due ``delay_ns`` from now.

        Reserves the step's ``(time, seq)`` exactly as a queue push would
        and parks it in the engine's front slot, replacing this CPU's own
        pending step and unparking another CPU's.  Outside ``run()`` it
        goes straight on to the queue.  delay_ns comes from the cost model
        (validated non-negative at Charge construction).
        """
        ev = self._step_event
        if ev is not None:
            ev.cancelled = True
            self._step_event = None
        engine = self.engine
        parked = engine.parked
        if parked is not None and parked is not self:
            parked.unpark()
        q = self._queue
        seq = q._seq
        q._seq = seq + 1
        engine.parked = self
        self.parked_ns = engine.now_ns + delay_ns
        self.parked_seq = seq
        if not engine._running:
            self.unpark()

    def unpark(self) -> None:
        """Move the parked step into the queue as an ordinary Event with
        its reserved ``(time, seq)`` (called by the engine)."""
        self.engine.parked = None
        t = self.parked_ns
        seq = self.parked_seq
        ev = Event(t, seq, self.step, self._step_tag)
        heappush(self._queue._heap, (t, seq, ev))
        self._step_event = ev

    def _cancel_step(self) -> None:
        ev = self._step_event
        if ev is not None:
            ev.cancelled = True
            self._step_event = None
        elif self.engine.parked is self:
            self.engine.parked = None

    def _account(self, ns: int, kernel: bool = False) -> None:
        if kernel:
            self.kernel_ns += ns
        else:
            self.user_ns += ns
        if self.lwp is not None:
            self.lwp.account(ns, kernel=kernel)

    def _step(self) -> None:
        """Execute one effect of the current activity."""
        self._step_event = None
        self._charge_end_ns = None
        lwp = self.lwp
        if lwp is None:  # raced with preemption/block; nothing to do
            return
        activity = lwp.current_activity
        if activity is None:
            raise SimulationError(f"{lwp!r} dispatched with no activity")
        frames = activity.frames

        # Honor a preemption requested while we were mid-effect.
        if self._preempt_pending and frames[-1].mode is not _KERNEL:
            self._preempt_pending = False
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
            return

        ns = activity.pending_charge_ns
        if ns > 0:
            # Finish an interrupted charge before touching the generator.
            activity.pending_charge_ns = 0
        else:
            frame = frames[-1]
            activity.started = True
            # While the generator is live on the Python stack, nobody may
            # push frames onto this activity (kernel signal delivery
            # checks this flag and defers instead).
            self._stepping_activity = activity
            engine = self.engine
            engine.stepping_cpu = self
            try:
                if activity.resume_exc is not None:
                    exc = activity.resume_exc
                    activity.resume_exc = None
                    effect = frame.gen.throw(exc)
                else:
                    value = activity.resume_value
                    activity.resume_value = None
                    effect = frame.gen.send(value)
            except StopIteration as stop:
                if (frame.mode is _KERNEL and frame.saved_resume is None
                        and len(frames) > 1 and frames[-2].mode is _USER):
                    # Kernel-to-user return (a syscall or fault handler
                    # finished): _frame_returned's common case, inline.
                    frames.pop()
                    value = stop.value
                    activity.resume_value = value
                    activity.resume_exc = None
                    if self.tracer.want_syscall:
                        self.tracer.emit(
                            engine.now_ns, "syscall", "exit", lwp.name,
                            call=frame.label, ret=_brief(value))
                    m = engine.metrics
                    if m is not None and frame.enter_ns is not None:
                        m.observe(_LATENCY_KEYS[frame.label],
                                  engine.now_ns - frame.enter_ns)
                    ns = self.costs.syscall_exit
                    self.kernel_ns += ns
                    if self.lwp is not None:
                        self.lwp.account(ns, True)
                    ctx = self.ctx
                    if ctx is None or ctx.lwp is not lwp:
                        ctx = ExecContext(self, lwp)
                    self.kernel.kernel_exit_check(ctx)
                    self._schedule_step(ns)
                else:
                    self._frame_returned(lwp, activity, stop.value)
                return
            except (SyscallError, InterruptedSleep) as exc:
                self._frame_raised(lwp, activity, exc)
                return
            finally:
                self._stepping_activity = None
                engine.stepping_cpu = None

            cls = effect.__class__
            if cls is not _Charge:
                if cls is _GetContext:
                    activity.resume_value = self._context(lwp)
                    activity.resume_exc = None
                    self._schedule_step(0)
                    return
                if cls is _Syscall:
                    # Trap: _enter_kernel, inline.
                    name = effect.name
                    if self.tracer.want_syscall:
                        self.tracer.emit(engine.now_ns, "syscall", "enter",
                                         lwp.name, call=name)
                    ctx = self.ctx
                    if ctx is None or ctx.lwp is not lwp:
                        ctx = ExecContext(self, lwp)
                    frame = Frame(self.kernel.trap(ctx, name, effect.args,
                                                   effect.kwargs),
                                  _KERNEL, _SYS_LABELS[name])
                    if engine.metrics is not None:
                        frame.enter_ns = engine.now_ns
                    frames.append(frame)
                    activity.resume_value = None
                    activity.resume_exc = None
                    ns = self.costs.syscall_entry
                    self.kernel_ns += ns
                    if self.lwp is not None:
                        self.lwp.account(ns, True)
                    self._schedule_step(ns)
                    return
                handler = _DISPATCH.get(cls)
                if handler is None:
                    handler = _resolve_effect_handler(effect)
                handler(self, lwp, activity, effect)
                return
            ns = effect.ns

        # Consume CPU time, then step again: _account inlined.  The full
        # amount is booked up front; if a user-mode charge is preempted,
        # request_preempt() refunds the unused remainder.  The LWP booked
        # is the one on the CPU now, which the generator may have changed.
        if frames[-1].mode is _KERNEL:
            self.kernel_ns += ns
            if self.lwp is not None:
                self.lwp.account(ns, True)
        else:
            self.user_ns += ns
            if self.lwp is not None:
                self.lwp.account(ns, False)
            if ns > 0:
                self._charge_end_ns = self.engine.now_ns + ns
        self._schedule_step(ns)

    def _context(self, lwp) -> ExecContext:
        """The ExecContext of ``lwp`` on this CPU: the dispatch's shared
        one, or a fresh one when the step's LWP has left the CPU while
        its generator ran (a kill from inside the step)."""
        ctx = self.ctx
        if ctx is None or ctx.lwp is not lwp:
            ctx = ExecContext(self, lwp)
        return ctx

    # ----------------------------------------------------- effect handling

    def _do_setjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(object())  # opaque jump-buffer token
        self._charge_then_step(self.costs.setjmp, activity.in_kernel)

    def _do_longjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(None)
        self._charge_then_step(self.costs.longjmp, activity.in_kernel)

    def _charge_then_step(self, ns: int, kernel: bool) -> None:
        self._account(ns, kernel=kernel)
        self._schedule_step(ns)

    def _enter_kernel(self, lwp, activity: Activity,
                      effect: "isa.Syscall") -> None:
        """Trap: charge entry cost and push the handler frame."""
        name = effect.name
        if self.tracer.want_syscall:
            self.tracer.emit(self.engine.now_ns, "syscall", "enter",
                             lwp.name, call=name)
        handler = self.kernel.trap(
            self._context(lwp), name, effect.args, effect.kwargs)
        activity.push(handler, Mode.KERNEL, label=_SYS_LABELS[name])
        if self.engine.metrics is not None:
            activity.top.enter_ns = self.engine.now_ns
        activity.set_resume(None)
        self._account(self.costs.syscall_entry, kernel=True)
        self._schedule_step(self.costs.syscall_entry)

    def _switch_thread(self, lwp, activity: Activity,
                       effect: "isa.SwitchTo") -> None:
        """User-level context switch: no kernel involvement."""
        target = effect.target
        if target.finished:
            raise SimulationError(
                f"switch to finished activity {target.name}")
        if self.tracer.want_thread:
            self.tracer.emit(self.engine.now_ns, "thread", "switch",
                             lwp.name, frm=activity.name, to=target.name)
        lwp.current_activity = target
        self._account(self.costs.thread_switch_user, kernel=False)
        self._schedule_step(self.costs.thread_switch_user)

    def _touch(self, lwp, activity: Activity, effect: "isa.Touch") -> None:
        pageno = page_of(effect.offset)
        if effect.mobj.is_resident(pageno):
            activity.set_resume(None)
            self._schedule_step(0)
            return
        # Page fault: synchronous kernel entry on this LWP only.
        if self.tracer.want_vm:
            self.tracer.emit(self.engine.now_ns, "vm", "fault",
                             lwp.name, obj=effect.mobj.name, page=pageno)
        handler = self.kernel.page_fault_handler(
            self._context(lwp), effect.mobj, pageno, effect.write)
        activity.push(handler, Mode.KERNEL, label="pagefault")
        if self.engine.metrics is not None:
            activity.top.enter_ns = self.engine.now_ns
        activity.set_resume(None)
        self._account(self.costs.trap_entry, kernel=True)
        self._schedule_step(self.costs.trap_entry)

    def _block(self, lwp, activity: Activity, effect: "isa.Block") -> None:
        """Sleep the LWP on a kernel wait channel and free this CPU."""
        if not activity.in_kernel:
            raise SimulationError(
                "Block effect yielded from user mode; user code must "
                "block via the threads library or a system call")
        if self.lwp is not lwp:
            raise SimulationError(
                f"{self.name} blocking {lwp!r} but running {self.lwp!r}")
        if self.tracer.want_sched:
            # WaitChannel and ChannelSet both carry .name.
            self.tracer.emit(self.engine.now_ns, "sched", "block",
                             lwp.name, chan=effect.channel.name)
        self._account(self.costs.kernel_block, kernel=True)
        self.release()
        self.kernel.block_lwp(lwp, effect)
        self.kernel.dispatcher.cpu_idle(self)

    # ------------------------------------------------------- frame returns

    def _frame_returned(self, lwp, activity: Activity, value: Any) -> None:
        frame = activity.pop()
        if activity.frames:
            if frame.saved_resume is not None:
                # An injected frame (signal handler) finished: re-apply the
                # resumption it displaced.
                kind, payload = frame.saved_resume
                if kind == "exc":
                    activity.set_resume_exc(payload)
                else:
                    activity.set_resume(payload)
                self._account(self.costs.signal_return, kernel=False)
                self._schedule_step(self.costs.signal_return)
                return
            activity.set_resume(value)
            below = activity.top
            if frame.mode is Mode.KERNEL and below.mode is Mode.USER:
                # Returning from a system call (or fault): charge the exit
                # path and let the kernel deliver any pending signals.
                if self.tracer.want_syscall:
                    self.tracer.emit(
                        self.engine.now_ns, "syscall", "exit", lwp.name,
                        call=frame.label, ret=_brief(value))
                m = self.engine.metrics
                if m is not None and frame.enter_ns is not None:
                    m.observe(_LATENCY_KEYS[frame.label],
                              self.engine.now_ns - frame.enter_ns)
                self._exit_kernel(lwp)
            else:
                self._schedule_step(0)
            return

        # Bottom frame returned: the activity's body is done.
        if activity.on_return is not None:
            follow_on = activity.on_return(self._context(lwp), value)
            if follow_on is not None:
                activity.push(follow_on, Mode.USER, label="on_return")
                activity.set_resume(None)
                self._schedule_step(0)
                return
        activity.finished = True
        activity.result = value
        self.release()
        self.kernel.on_activity_finished(lwp, activity, value)
        self.kernel.dispatcher.cpu_idle(self)

    def _frame_raised(self, lwp, activity: Activity,
                      exc: BaseException) -> None:
        """An exception propagated out of the top frame."""
        frame = activity.pop()
        if isinstance(exc, InterruptedSleep):
            # Only meaningful across the kernel/user boundary.
            exc = SyscallError(Errno.EINTR, frame.label, "interrupted")
        if activity.frames:
            if frame.saved_resume is not None:
                # Injected frame died; still re-apply what it displaced?
                # No: the handler's failure takes precedence.
                pass
            activity.set_resume_exc(exc)
            below = activity.top
            if frame.mode is Mode.KERNEL and below.mode is Mode.USER:
                if self.tracer.want_syscall:
                    self.tracer.emit(
                        self.engine.now_ns, "syscall", "error", lwp.name,
                        call=frame.label, err=str(exc))
                m = self.engine.metrics
                if m is not None:
                    if frame.enter_ns is not None:
                        m.observe(_LATENCY_KEYS[frame.label],
                                  self.engine.now_ns - frame.enter_ns)
                    if isinstance(exc, SyscallError):
                        m.count(_ERRNO_KEYS[frame.label, exc.errno])
                self._exit_kernel(lwp)
            else:
                self._schedule_step(0)
            return
        # Uncaught at the bottom of an activity: the simulated program
        # failed.  Let the kernel decide (it kills the process).
        activity.finished = True
        self.release()
        self.kernel.on_activity_crashed(lwp, activity, exc)
        self.kernel.dispatcher.cpu_idle(self)

    def _exit_kernel(self, lwp) -> None:
        """Kernel-to-user return: charge the exit path, let the kernel
        deliver a pending signal, then step again."""
        self._account(self.costs.syscall_exit, kernel=True)
        self.kernel.kernel_exit_check(self._context(lwp))
        self._schedule_step(self.costs.syscall_exit)

    # ------------------------------------------------------------ kernel API

    def inject_user_frame(self, activity: Activity, gen, label: str) -> None:
        """Push a user frame (signal handler) on top of ``activity``.

        The activity's pending resumption is parked on the new frame and
        re-applied when it returns, so the interrupted code is unaffected.
        The caller ensures the activity is not mid-charge.
        """
        if activity.resume_exc is not None:
            saved = ("exc", activity.resume_exc)
        else:
            saved = ("value", activity.resume_value)
        activity.resume_exc = None
        activity.resume_value = None
        activity.push(gen, Mode.USER, label=label)
        activity.top.saved_resume = saved
        self._account(self.costs.signal_deliver, kernel=False)

    def throw_into(self, exc: BaseException) -> None:
        """Arrange for ``exc`` to be thrown at the next step (signal path)."""
        if self.lwp is not None and self.lwp.current_activity is not None:
            self.lwp.current_activity.set_resume_exc(exc)

    def __repr__(self) -> str:
        running = self.lwp.name if self.lwp else "idle"
        return f"<CPU {self.index}: {running}>"


_Charge = isa.Charge
_GetContext = isa.GetContext
_Syscall = isa.Syscall

#: The type-keyed effect dispatch table: effect class -> unbound CPU
#: method.  Shared by all CPUs; exact-type hits are one dict lookup.
#: _step handles exact Charge, GetContext and Syscall inline; the
#: Syscall entry serves its subclasses.
_DISPATCH = {
    isa.Syscall: CPU._enter_kernel,
    isa.SwitchTo: CPU._switch_thread,
    isa.Setjmp: CPU._do_setjmp,
    isa.Longjmp: CPU._do_longjmp,
    isa.Touch: CPU._touch,
    isa.Block: CPU._block,
}


def _resolve_effect_handler(effect):
    """Slow path: resolve an effect subclass through its MRO and cache
    the result so subsequent yields of that type are table hits."""
    for klass in type(effect).__mro__[1:]:
        handler = _DISPATCH.get(klass)
        if handler is not None:
            _DISPATCH[type(effect)] = handler
            return handler
    raise SimulationError(f"unknown effect: {effect!r}")


def _brief(value: Any) -> str:
    """Compact rendering of a syscall return value for traces."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _latency_key(frame_label: str) -> str:
    """Metric name for a kernel frame's entry-to-return latency."""
    if frame_label.startswith("sys_"):
        return f"syscall.latency_ns.{frame_label[4:]}"
    if frame_label == "pagefault":
        return "vm.pagefault_latency_ns"
    return f"kernel.latency_ns.{frame_label}"


def _errno_key(label_errno: tuple) -> str:
    """Metric name counting one errno of one kernel frame's call."""
    label, errno = label_errno
    call = label[4:] if label.startswith("sys_") else label
    return f"syscall.errno.{call}.{errno.name}"


#: Per-name strings of the step path, each built once.
_SYS_LABELS = MetricKeys("sys_{}".format)
_LATENCY_KEYS = MetricKeys(_latency_key)
_ERRNO_KEYS = MetricKeys(_errno_key)
_ONCPU_BY_CLASS = MetricKeys("sched.oncpu_ns.{}".format)
_ONCPU_BY_LWP = MetricKeys("sched.oncpu_ns_by_lwp.{}".format)
