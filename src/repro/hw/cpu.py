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

* A step normally allocates no event-queue entry at all.  It reserves
  its ``(time, seq)`` and takes this CPU's entry in the engine's step
  slots (``engine.slots``, one per CPU, in key order); the engine runs
  it in place when nothing queued sorts first, and ``run()`` queues it
  as an ordinary ``Event`` with the same key on its way out
  (:mod:`repro.sim.engine`).
* One way to book CPU time: the call that makes a step due books its
  cost to the CPU and to the LWP holding it (``_step`` inline, ``assign``
  and the ``_DISPATCH`` handlers through ``_spend``), and ``release``
  refunds the part that has not run, so booked time equals held time.
  A block or a signal delivery takes no time and books none.  The LWP's
  timers, profiling and RLIMIT_CPU see a booking (``Lwp.meter``) only
  while one is armed (``Lwp.metered``).
* ``_step`` has two exits: the kernel exit's, and one at the end, where
  every other inline path falls through with the step's cost.  Each
  inlines ``_schedule_step``'s common case (a step runs only inside
  ``run()``, so none is pending), then books.  A kernel call that kills
  its own LWP ends the step with no exit; a kill by a watcher or at the
  exit's signal check finds the step due, which ``release`` refunds.
* One trap and one kernel exit, both inline in ``_step``.  ``Charge``,
  ``GetContext`` and ``Syscall``, the most frequent effects, are matched
  by exact type; an exact ``Syscall`` is the only trap, and it makes one
  kernel call (``Kernel.trap``).  A kernel frame (a system call or a
  page fault) that returns, or raises, to the user frame below it
  leaves through the one kernel exit, which books ``syscall_exit`` and
  makes one kernel call (``Kernel.kernel_exit_check``).
  ``_frame_returned`` and ``_frame_raised`` take every other frame: a
  signal handler's, a nested one, the bottom one.
  The other effects dispatch through a *type-keyed table*
  (``_DISPATCH``), one dict lookup on ``type(effect)`` instead of an
  isinstance chain; a type the table lacks, even a subclass of an
  effect, is an unknown effect.  ``tests/property/reference.py`` holds
  a plainly written ``ReferenceCPU`` the inline paths must equal.
* Each dispatch builds one :class:`ExecContext`, shared by every
  GetContext, kernel entry and kernel exit until the LWP leaves the CPU.
* Trace emission is gated on the tracer's per-category flags before any
  argument is built, so a disabled tracer costs one attribute check.
* Step tags, frame labels and metric names are built once, not
  formatted per step.
"""

from __future__ import annotations

from bisect import insort
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
        # The next step: None, an Event in the queue, or this CPU's
        # ``(time_ns, seq, cpu)`` entry in ``engine.slots``.
        self._pending = None
        self._step_tag = f"cpu-{index}.step"
        # Hot-path caches: a step is (re)scheduled once per effect, so
        # the queue, the slot list and the bound _step (the engine runs
        # a slotted step as ``step()``) are resolved here, not per call.
        self._queue = engine.queue
        self._slots = engine.slots
        self.step = self._step
        # The ends of the user-mode Charge in flight (a preemption may cut
        # it short) and of the last user-time step _spend booked.
        self._charge_end_ns: Optional[int] = None
        self._spend_user_end_ns: Optional[int] = None
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
        self._spend(self.costs.kernel_dispatch, kernel=True)

    def release(self) -> None:
        """Detach the current LWP (it blocked, exited, was preempted or
        killed), refunding the unrun rest of its pending step, which was
        booked in full, as user or system time as it was booked."""
        lwp = self.lwp
        if lwp is not None:
            lwp.cpu = None
            pending = self._pending
            if pending is not None:
                end = (pending[0] if pending.__class__ is tuple
                       else pending.time_ns)
                rest = end - self.engine.now_ns
                if rest > 0:
                    user = (self._charge_end_ns is not None
                            or end == self._spend_user_end_ns)
                    if user:
                        self.user_ns -= rest
                        lwp.user_ns -= rest
                    else:
                        self.kernel_ns -= rest
                        lwp.system_ns -= rest
                    if lwp.metered:
                        lwp.meter(-rest, not user)
            if self._oncpu_since is not None:
                span = self.engine.now_ns - self._oncpu_since
                m = self.engine.metrics
                if m is not None:
                    m.observe(_ONCPU_BY_CLASS[lwp.sched_class._value_], span)
                    m.count(_ONCPU_BY_LWP[lwp.name], span)
                if self.kernel is not None:
                    # Policy span bookkeeping (CFS vruntime, SJF burst
                    # estimate) — pure accounting, schedules nothing.
                    self.kernel.dispatcher.on_offcpu(lwp, span)
        self._oncpu_since = None
        self.lwp = None
        self.ctx = None
        self._charge_end_ns = self._spend_user_end_ns = None
        self._cancel_step()

    def request_preempt(self) -> None:
        """Ask the CPU to give up its LWP at the next preemption point.

        If the LWP is in the middle of a user-mode :class:`Charge`, the
        charge is interrupted immediately and its rest charged again when
        the LWP next runs.  Other charges are not interruptible (the
        simulated kernel runs non-preemptively, as SunOS of that era did
        inside the kernel).
        """
        if self.lwp is None:
            return
        activity = self.lwp.current_activity
        if (self._charge_end_ns is not None and activity is not None
                and not activity.in_kernel):
            activity.pending_charge_ns += (self._charge_end_ns
                                           - self.engine.now_ns)
            lwp = self.lwp
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
        else:
            self._preempt_pending = True

    # ------------------------------------------------------------ stepping

    def _schedule_step(self, delay_ns: int) -> None:
        """Make the next step due ``delay_ns`` from now.

        Reserves the step's ``(time, seq)`` exactly as a queue push would,
        replacing this CPU's own pending step, and slots it in the engine
        (``engine.slots``, kept in key order).  Outside ``run()`` it goes
        straight on to the queue.  delay_ns comes from the cost model
        (validated non-negative at Charge construction).
        """
        if self._pending is not None:
            self._cancel_step()
        engine = self.engine
        q = self._queue
        seq = q._seq
        q._seq = seq + 1
        entry = (engine.now_ns + delay_ns, seq, self)
        self._pending = entry
        if engine._running:
            insort(self._slots, entry)
        else:
            self.unpark()

    def unpark(self) -> None:
        """Queue the slotted step as an ordinary Event with its reserved
        ``(time, seq)`` (the engine calls this as ``run()`` returns)."""
        t, seq, _ = self._pending
        ev = Event(t, seq, self.step, self._step_tag)
        heappush(self._queue._heap, (t, seq, ev))
        self._pending = ev

    def _cancel_step(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        if pending.__class__ is tuple:
            self._slots.remove(pending)
        else:
            pending.cancelled = True

    def _spend(self, ns: int, kernel: bool) -> None:
        """Make the next step due ``ns`` from now and book it to this CPU
        and its LWP as kernel or user time (``_step`` does so inline)."""
        self._schedule_step(ns)
        lwp = self.lwp
        if kernel:
            self.kernel_ns += ns
            lwp.system_ns += ns
        else:
            self.user_ns += ns
            lwp.user_ns += ns
            self._spend_user_end_ns = self.engine.now_ns + ns
        if lwp.metered:
            lwp.meter(ns, kernel)

    def _step(self) -> None:
        """Execute one effect of the current activity, then make the next
        step due after its cost and book it, at one of two exits."""
        self._pending = None
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

        # What the step costs: ``ns``, booked below as kernel time
        # (``kernel`` true), user time (false) or not at all (None).
        engine = self.engine
        ns = activity.pending_charge_ns
        if ns > 0:
            # Finish an interrupted charge before touching the generator.
            activity.pending_charge_ns = 0
            kernel = frames[-1].mode is _KERNEL
        else:
            frame = frames[-1]
            activity.started = True
            # While the generator is live on the Python stack, nobody may
            # push frames onto this activity (kernel signal delivery
            # checks this flag and defers instead).
            self._stepping_activity = activity
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
                cls = effect.__class__
            except _FRAME_EXITS as exc:
                if (frame.mode is not _KERNEL or len(frames) < 2
                        or frames[-2].mode is not _USER):
                    # A signal handler's frame, a nested one or the
                    # bottom one.
                    if exc.__class__ is StopIteration:
                        self._frame_returned(lwp, activity, exc.value)
                    else:
                        self._frame_raised(lwp, activity, exc)
                    return
                # The one kernel exit: a kernel frame (a syscall or a
                # fault handler) returns, or raises, to the user frame
                # below it.
                frames.pop()
                m = engine.metrics
                if exc.__class__ is StopIteration:
                    value = exc.value
                    activity.resume_value = value
                    activity.resume_exc = None
                    if self.tracer.want_syscall:
                        self.tracer.emit(
                            engine.now_ns, "syscall", "exit", lwp.name,
                            call=frame.label, ret=_brief(value))
                    if m is not None and frame.enter_ns is not None:
                        m.observe(_LATENCY_KEYS[frame.label],
                                  engine.now_ns - frame.enter_ns)
                else:
                    if isinstance(exc, InterruptedSleep):
                        exc = SyscallError(Errno.EINTR, frame.label,
                                           "interrupted")
                    activity.resume_exc = exc
                    if self.tracer.want_syscall:
                        self.tracer.emit(
                            engine.now_ns, "syscall", "error", lwp.name,
                            call=frame.label, err=str(exc))
                    if m is not None:
                        if frame.enter_ns is not None:
                            m.observe(_LATENCY_KEYS[frame.label],
                                      engine.now_ns - frame.enter_ns)
                        m.count(_ERRNO_KEYS[frame.label, exc.errno])
                # A call that killed its own LWP has no exit.  Else the
                # exit is made due and booked as at the end, then checked
                # for signals while the activity still counts as stepping.
                if self.lwp is not lwp:
                    return
                ns = self.costs.syscall_exit
                q = self._queue
                seq = q._seq
                q._seq = seq + 1
                entry = (engine.now_ns + ns, seq, self)
                self._pending = entry
                insort(self._slots, entry)
                self.kernel_ns += ns
                lwp.system_ns += ns
                if lwp.metered:
                    lwp.meter(ns, True)
                    if self.lwp is not lwp:
                        return
                self.kernel.kernel_exit_check(self.ctx)
                return
            finally:
                self._stepping_activity = None
                engine.stepping_cpu = None

            if cls is _Charge:
                ns = effect.ns
                kernel = frames[-1].mode is _KERNEL
            elif cls is _Syscall:
                # The one trap.
                name = effect.name
                if self.tracer.want_syscall:
                    self.tracer.emit(engine.now_ns, "syscall", "enter",
                                     lwp.name, call=name)
                frame = Frame(self.kernel.trap(self.ctx, name, effect.args,
                                               effect.kwargs),
                              _KERNEL, _SYS_LABELS[name])
                if engine.metrics is not None:
                    frame.enter_ns = engine.now_ns
                frames.append(frame)
                activity.resume_value = None
                activity.resume_exc = None
                ns = self.costs.syscall_entry
                kernel = True
            elif cls is _GetContext:
                # ns is 0: no charge was pending.
                activity.resume_value = self.ctx
                activity.resume_exc = None
                kernel = None
            else:
                try:
                    handler = _DISPATCH[cls]
                except KeyError:
                    raise SimulationError(
                        f"unknown effect: {effect!r}") from None
                handler(self, lwp, activity, effect)
                return

        # The other exit: make the next step due after ``ns``, then book
        # it to the CPU and the step's LWP as kernel time (``kernel``
        # true), user time (false) or not at all (None).
        q = self._queue
        seq = q._seq
        q._seq = seq + 1
        entry = (engine.now_ns + ns, seq, self)
        self._pending = entry
        insort(self._slots, entry)
        if kernel is not None:
            if kernel:
                self.kernel_ns += ns
                lwp.system_ns += ns
            else:
                self.user_ns += ns
                lwp.user_ns += ns
                if ns > 0:
                    self._charge_end_ns = engine.now_ns + ns
            if lwp.metered:
                lwp.meter(ns, kernel)

    # ----------------------------------------------------- effect handling

    def _do_setjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(object())  # opaque jump-buffer token
        self._spend(self.costs.setjmp, activity.in_kernel)

    def _do_longjmp(self, lwp, activity: Activity, effect) -> None:
        activity.set_resume(None)
        self._spend(self.costs.longjmp, activity.in_kernel)

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
        self._spend(self.costs.thread_switch_user, kernel=False)

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
            self.ctx, effect.mobj, pageno, effect.write)
        activity.push(handler, Mode.KERNEL, label="pagefault")
        if self.engine.metrics is not None:
            activity.top.enter_ns = self.engine.now_ns
        activity.set_resume(None)
        self._spend(self.costs.trap_entry, kernel=True)

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
            self.tracer.emit(self.engine.now_ns, "sched", "block",
                             lwp.name, chan=effect.channel.name)
        self.release()
        self.kernel.block_lwp(lwp, effect)
        self.kernel.dispatcher.cpu_idle(self)

    # ------------------------------------------------------- frame returns

    def _frame_returned(self, lwp, activity: Activity, value: Any) -> None:
        """The top frame returned, and it is not a kernel frame over a
        user one (``_step``'s kernel exit takes those)."""
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
                self._spend(self.costs.signal_return, kernel=False)
                return
            activity.set_resume(value)
            self._schedule_step(0)
            return

        # Bottom frame returned: the activity's body is done.
        if activity.on_return is not None:
            follow_on = activity.on_return(self.ctx, value)
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
        """An exception propagated out of the top frame, and it is not a
        kernel frame over a user one (``_step``'s kernel exit takes
        those)."""
        frame = activity.pop()
        if isinstance(exc, InterruptedSleep):
            exc = SyscallError(Errno.EINTR, frame.label, "interrupted")
        if activity.frames:
            # An injected frame's failure takes precedence over the
            # resumption it displaced.
            activity.set_resume_exc(exc)
            self._schedule_step(0)
            return
        # Uncaught at the bottom of an activity: the simulated program
        # failed.  Let the kernel decide (it kills the process).
        activity.finished = True
        self.release()
        self.kernel.on_activity_crashed(lwp, activity, exc)
        self.kernel.dispatcher.cpu_idle(self)

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
#: What ends a frame: a return, or an error it raises.
_FRAME_EXITS = (StopIteration, SyscallError, InterruptedSleep)

#: The type-keyed effect dispatch table: effect class -> unbound CPU
#: method.  Shared by all CPUs; a hit is one dict lookup on the exact
#: type.  _step handles Charge, GetContext and Syscall inline; any type
#: not here, a subclass of an effect included, is an unknown effect.
_DISPATCH = {
    isa.SwitchTo: CPU._switch_thread,
    isa.Setjmp: CPU._do_setjmp,
    isa.Longjmp: CPU._do_longjmp,
    isa.Touch: CPU._touch,
    isa.Block: CPU._block,
}


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
