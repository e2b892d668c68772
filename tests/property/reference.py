"""A plainly written CPU to check the production one against.

:class:`ReferenceCPU` is a :class:`repro.hw.cpu.CPU` that steps an
activity through its own code, written for clarity, not speed.  It
shares no branch with the paths it checks: every step is an ordinary
queued ``Event`` (production slots it in ``engine.slots`` and runs it in
place), and the trap, the kernel exit and every other frame return or
raise are written out here (production does the trap and the kernel
exit inline in ``CPU._step``).  It keeps production's rules, so a run
on it gives the same trace, events, clock, metrics and booked time:

* a step books its cost where production's does, through this class's
  own ``_book``: it makes the next step due, books the cost to the CPU
  and the LWP holding it, and then lets the LWP's watchers see it; a
  kernel exit does so before the kernel's signal check;
* a kernel call that killed its own LWP leaves the kernel with no exit
  cost: the step ends after the exit's trace record and metrics, and
  another LWP dispatched onto the CPU keeps its first step where its
  own dispatch put it;
* a step's unrun rest, when its LWP leaves the CPU, is refunded by
  production's ``CPU.release``;
* the effects it does not interpret itself (``SwitchTo``, ``Setjmp``,
  ``Longjmp``, ``Touch``, ``Block``) go to production's ``_DISPATCH``
  handlers, which schedule through this class's ``_schedule_step``.

Inside ``with installed():`` every machine builds its CPUs from this
class.
"""

from contextlib import contextmanager

import pytest

from repro.errors import Errno, InterruptedSleep, SimulationError, SyscallError
from repro.hw import isa, machine
from repro.hw.context import Mode
from repro.hw.cpu import _DISPATCH, CPU


class ReferenceCPU(CPU):
    """A CPU that queues every step and interprets effects plainly."""

    def _schedule_step(self, delay_ns: int) -> None:
        self._cancel_step()
        self._pending = self.engine.queue.push(
            self.engine.now_ns + delay_ns, self.step, self._step_tag)

    def _cancel_step(self) -> None:
        if self._pending is not None:
            self._pending.cancelled = True
            self._pending = None

    def _book(self, ns: int, kernel: bool) -> None:
        """Make the next step due ``ns`` from now, book ``ns`` to this
        CPU and its LWP as kernel or user time, and let the LWP's
        watchers see it.  A user charge's end is marked where
        ``CPU.release`` reads the kind of a rest it refunds."""
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
        self._pending = None
        self._charge_end_ns = None
        lwp = self.lwp
        if lwp is None:
            return
        activity = lwp.current_activity
        if activity is None:
            raise SimulationError(f"{lwp!r} dispatched with no activity")
        if self._preempt_pending and not activity.in_kernel:
            self._preempt_pending = False
            self.release()
            self.kernel.dispatcher.on_preempted(lwp)
            return
        if activity.pending_charge_ns > 0:
            ns = activity.pending_charge_ns
            activity.pending_charge_ns = 0
            self._charge(ns, activity.in_kernel)
            return

        activity.started = True
        self._stepping_activity = activity
        self.engine.stepping_cpu = self
        try:
            try:
                effect = self._resume(activity)
            except StopIteration as stop:
                self._returned(lwp, activity, stop.value)
                return
            except (SyscallError, InterruptedSleep) as exc:
                self._raised(lwp, activity, exc)
                return
        finally:
            self._stepping_activity = None
            self.engine.stepping_cpu = None

        kind = type(effect)
        if kind is isa.Charge:
            self._charge(effect.ns, activity.in_kernel)
        elif kind is isa.GetContext:
            activity.set_resume(self.ctx)
            self._schedule_step(0)
        elif kind is isa.Syscall:
            self._trap(lwp, activity, effect)
        elif kind in _DISPATCH:
            _DISPATCH[kind](self, lwp, activity, effect)
        else:
            raise SimulationError(f"unknown effect: {effect!r}")

    @staticmethod
    def _resume(activity):
        """Throw the pending error, or send the pending value, into the
        top frame; returns the effect it yields."""
        gen = activity.top.gen
        exc = activity.resume_exc
        if exc is not None:
            activity.resume_exc = None
            return gen.throw(exc)
        value = activity.resume_value
        activity.resume_value = None
        return gen.send(value)

    def _charge(self, ns: int, kernel: bool) -> None:
        """Book all of ``ns`` now; a preemption may cut a user-mode
        charge short (``CPU.request_preempt``)."""
        if not kernel and ns > 0:
            self._charge_end_ns = self.engine.now_ns + ns
        self._book(ns, kernel)

    def _trap(self, lwp, activity, call) -> None:
        engine = self.engine
        if self.tracer.want_syscall:
            self.tracer.emit(engine.now_ns, "syscall", "enter", lwp.name,
                             call=call.name)
        handler = self.kernel.trap(self.ctx, call.name, call.args,
                                   call.kwargs)
        activity.push(handler, Mode.KERNEL, label="sys_" + call.name)
        if engine.metrics is not None:
            activity.top.enter_ns = engine.now_ns
        activity.set_resume(None)
        self._book(self.costs.syscall_entry, kernel=True)

    def _returned(self, lwp, activity, value) -> None:
        frame = activity.pop()
        if not activity.frames:
            self._body_returned(lwp, activity, value)
        elif frame.saved_resume is not None:
            # A signal handler returned: re-apply what it displaced.
            kind, payload = frame.saved_resume
            if kind == "exc":
                activity.set_resume_exc(payload)
            else:
                activity.set_resume(payload)
            self._book(self.costs.signal_return, kernel=False)
        else:
            activity.set_resume(value)
            if frame.mode is Mode.KERNEL and activity.top.mode is Mode.USER:
                self._kernel_exit(lwp, frame, value, None)
            else:
                self._schedule_step(0)

    def _body_returned(self, lwp, activity, value) -> None:
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

    def _raised(self, lwp, activity, exc) -> None:
        frame = activity.pop()
        if isinstance(exc, InterruptedSleep):
            exc = SyscallError(Errno.EINTR, frame.label, "interrupted")
        if not activity.frames:
            # The program failed; the kernel kills its process.
            activity.finished = True
            self.release()
            self.kernel.on_activity_crashed(lwp, activity, exc)
            self.kernel.dispatcher.cpu_idle(self)
            return
        activity.set_resume_exc(exc)
        if frame.mode is Mode.KERNEL and activity.top.mode is Mode.USER:
            self._kernel_exit(lwp, frame, None, exc)
        else:
            self._schedule_step(0)

    def _kernel_exit(self, lwp, frame, value, error) -> None:
        """Leave the kernel frame ``frame`` for the user frame below,
        with ``value`` or, when set, ``error``."""
        engine = self.engine
        label = frame.label
        call = label[4:] if label.startswith("sys_") else label
        if self.tracer.want_syscall:
            if error is None:
                self.tracer.emit(engine.now_ns, "syscall", "exit",
                                 lwp.name, call=label, ret=_brief(value))
            else:
                self.tracer.emit(engine.now_ns, "syscall", "error",
                                 lwp.name, call=label, err=str(error))
        m = engine.metrics
        if m is not None:
            if frame.enter_ns is not None:
                m.observe(_latency_metric(label),
                          engine.now_ns - frame.enter_ns)
            if error is not None:
                m.count(f"syscall.errno.{call}.{error.errno.name}")
        if self.lwp is not lwp:
            return               # the call killed its own LWP
        self._book(self.costs.syscall_exit, kernel=True)
        if self.lwp is lwp:      # no watcher killed it
            self.kernel.kernel_exit_check(self.ctx)


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _latency_metric(label: str) -> str:
    if label.startswith("sys_"):
        return "syscall.latency_ns." + label[4:]
    if label == "pagefault":
        return "vm.pagefault_latency_ns"
    return "kernel.latency_ns." + label


@contextmanager
def installed(cls=None):
    """Build every machine's CPUs as ``cls`` (by default
    ``ReferenceCPU``) while inside."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "CPU", cls or ReferenceCPU)
        yield
