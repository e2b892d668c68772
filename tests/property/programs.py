"""One generator of guest programs for the property tests.

A program is one op list for the main thread and one per created
thread.  ``PROGRAMS`` draws one from ``OPS``; :func:`build` turns it
into a guest ``main``, and :func:`run` runs it and returns everything a
property compares.  The ops cover library sync, user and kernel
charges, system calls that sleep, fail or block on pipes and sockets,
signals delivered at a syscall exit, page faults, a profiling timer and
engine timers due at the same instant as CPU steps.

The options:

* ``flags``: the created threads are ``"bound"``, ``"unbound"`` or
  ``"new_lwp"`` (unbound, each adding an LWP);
* ``preempt``: run under a ``RandomPreempt`` schedule plan;
* ``errno``: ``(call, errno, every)`` fails every ``every``-th call of
  one of ``FAULTABLE`` with an injected errno; every op that makes
  such a call survives its failure;
* ``timeout_usec``: every blocking sync call is its timed twin with
  this timeout (``None``: the untimed call);
* ``units``: the semaphore's initial count;
* ``crash_usec``: an ``LwpCrash`` kills one of the program's LWPs at
  that virtual time (``None``: no crash);
* ``bystander``: a second process computes, makes a system call and
  sleeps beside the program, so a CPU that the program's LWPs leave
  has another LWP to run.

The created threads start together: each posts ``arrivals`` and waits
on ``gate``, which main opens once every one has arrived.
"""

from typing import NamedTuple, Optional

from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.errors import DeadlockError, SyscallError
from repro.hw.isa import Charge, GetContext, Touch
from repro.hw.memory import PAGE_SIZE, MemoryObject
from repro.kernel.signals import Sig
from repro.kernel.syscalls.time_calls import ITIMER_PROF
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.faults import FaultPlan, LwpCrash, SyscallFault
from repro.sim.schedule import RandomPreempt, SchedulePlan
from repro.sim.trace import DigestSink
from repro.sync import CondVar, Mutex, Semaphore

#: Pages of the memory object the ``touch`` op faults in.
PAGES = 4

#: The calls an errno plan may fail.
FAULTABLE = ("getpid", "nanosleep", "select")

OPS = st.one_of(
    st.tuples(st.just("charge"), st.integers(0, 40)),
    st.just(("ctx",)),
    st.just(("getpid",)),
    st.tuples(st.just("sleep"), st.integers(1, 30)),
    # Hold the mutex, or a unit of the semaphore, for n us.
    st.tuples(st.just("locked"), st.integers(0, 300)),
    st.tuples(st.just("sema"), st.integers(0, 300)),
    # Wait on the condvar for n ticks (at most the program's); a tick
    # broadcasts.
    st.tuples(st.just("await"), st.integers(1, 3)),
    st.just(("tick",)),
    # Queued events due at (or just after) the next steps, so in-place
    # steps meet heap events, and a cancelled entry ahead of them, at
    # equal times.
    st.tuples(st.just("timer"), st.integers(0, 2)),
    # A failing call: EBADF leaves the kernel through its error exit.
    st.just(("badread",)),
    # Up to 1.5 pipe buffers, so either side may block.
    st.tuples(st.just("pipe"), st.integers(1, 12_288)),
    # A select on an empty pipe sleeps to its deadline.
    st.tuples(st.just("select"), st.integers(1, 30)),
    # A connected socket pair: a bound thread sends n bytes after a
    # delay, and this thread selects on its end until they are read.
    st.tuples(st.just("socket"), st.integers(1, 12_288),
              st.integers(0, 30)),
    # A caught signal to self, delivered at the kill's syscall exit.
    st.just(("signal",)),
    # The first touch of a page faults: a "pagefault" kernel frame.
    st.tuples(st.just("touch"), st.integers(0, PAGES - 1)),
    # A caught SIGPROF once this LWP has run that many more us; at up
    # to 15 us it fires inside setitimer's own exit charge.
    st.tuples(st.just("prof"), st.integers(1, 60)),
)

#: One op list for the main thread, then one per created thread.
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4)

FLAGS = st.sampled_from(("bound", "unbound", "new_lwp"))

#: An errno plan, or None.
ERRNO_PLANS = st.none() | st.tuples(
    st.sampled_from(FAULTABLE), st.sampled_from(("EINTR", "EAGAIN", "EIO")),
    st.integers(1, 3))

_FLAG_BITS = {
    "bound": threads.THREAD_BIND_LWP,
    "unbound": 0,
    "new_lwp": threads.THREAD_NEW_LWP,
}

_HELPER = threads.THREAD_WAIT | threads.THREAD_BIND_LWP


class _Shared:
    """The program's sync variables and memory, and how to block."""

    def __init__(self, units, ticks_due, timeout_usec):
        self.m = Mutex(name="m")
        self.s = Semaphore(units, name="s")
        self.cv = CondVar(name="cv")
        self.arrivals = Semaphore(0, name="arrivals")
        self.gate = Semaphore(0, name="gate")
        self.mobj = MemoryObject(PAGES * PAGE_SIZE)
        self.ticks = 0
        self.ticks_due = ticks_due       # an await waits for at most these
        self.timeout = timeout_usec
        self.port = 7000                 # the next socket op's port

    def enter(self):
        if self.timeout is None:
            return self.m.enter()
        return self.m.timedenter(self.timeout)

    def p(self, sema):
        if self.timeout is None:
            return sema.p()
        return sema.timedp(self.timeout)

    def wait(self):
        if self.timeout is None:
            return self.cv.wait(self.m)
        return self.cv.timedwait(self.m, self.timeout)


def _on_signal(sig):
    yield Charge(usec(3))


def _sleep(n):
    try:
        yield from unistd.sleep_usec(n)
    except SyscallError:                 # an injected errno
        pass


def _hold(n):
    """Hold for ``n`` us: CPU time when even, a sleep when odd."""
    if n % 2:
        yield from _sleep(n)
    else:
        yield Charge(usec(n))


def _drain(arg):
    rfd, n = arg
    got = 0
    while got < n:
        got += len((yield from unistd.read(rfd, n - got)))


def _send_later(arg):
    fd, n, delay = arg
    yield from _hold(delay)
    yield from unistd.send(fd, b"s" * n)


def _op_charge(sh, n):
    yield Charge(usec(n))


def _op_ctx(sh):
    yield GetContext()


def _op_getpid(sh):
    try:
        yield from unistd.getpid()
    except SyscallError:
        pass


def _op_sleep(sh, n):
    yield from _sleep(n)


def _op_locked(sh, n):
    assert (yield from sh.enter()) in (None, True)
    yield from _hold(n)
    yield from sh.m.exit()


def _op_sema(sh, n):
    assert (yield from sh.p(sh.s)) in (None, True)
    yield from _hold(n)
    yield from sh.s.v()


def _op_await(sh, n):
    assert (yield from sh.enter()) in (None, True)
    while sh.ticks < min(n, sh.ticks_due):
        assert (yield from sh.wait()) in (None, True)
    yield from sh.m.exit()


def _op_tick(sh):
    assert (yield from sh.enter()) in (None, True)
    sh.ticks += 1
    yield from sh.cv.broadcast()
    yield from sh.m.exit()


def _op_timer(sh, n):
    ctx = yield GetContext()
    engine = ctx.engine
    engine.cancel(engine.call_after(usec(n), lambda: None))
    engine.call_after(usec(n), lambda: engine.tracer.emit(
        engine.now_ns, "user", "timer", "guest"))
    yield Charge(0)


def _op_badread(sh):
    try:
        yield from unistd.read(99, 1)
    except SyscallError:
        pass


def _op_pipe(sh, n):
    # A bound reader drains while this thread writes.
    rfd, wfd = yield from unistd.pipe()
    tid = yield from threads.thread_create(_drain, (rfd, n), flags=_HELPER)
    yield from unistd.write(wfd, b"p" * n)
    yield from threads.thread_wait(tid)
    yield from unistd.close(wfd)
    yield from unistd.close(rfd)


def _op_select(sh, n):
    rfd, wfd = yield from unistd.pipe()
    try:
        yield from unistd.select([rfd], timeout_ns=usec(n))
    except SyscallError:
        pass
    yield from unistd.close(wfd)
    yield from unistd.close(rfd)


def _op_socket(sh, n, delay):
    port = sh.port
    sh.port += 1
    lfd = yield from unistd.socket()
    yield from unistd.bind(lfd, port)
    yield from unistd.listen(lfd, 1)
    cfd = yield from unistd.socket()
    yield from unistd.connect(cfd, port)
    sfd = yield from unistd.accept(lfd)
    tid = yield from threads.thread_create(
        _send_later, (cfd, n, delay), flags=_HELPER)
    got = 0
    while got < n:
        try:
            yield from unistd.select([sfd])
        except SyscallError:
            pass
        got += len((yield from unistd.recv(sfd, n - got)))
    yield from threads.thread_wait(tid)
    for fd in (sfd, cfd, lfd):
        yield from unistd.close(fd)


def _op_signal(sh):
    # SA_RESTART: a sleeping LWP that takes it resumes its sleep.
    yield from unistd.sigaction(int(Sig.SIGUSR1), _on_signal, restart=True)
    try:
        me = yield from unistd.getpid()
    except SyscallError:
        return
    yield from unistd.kill(me, int(Sig.SIGUSR1))


def _op_touch(sh, page):
    yield Touch(sh.mobj, page * PAGE_SIZE)


def _op_prof(sh, n):
    yield from unistd.sigaction(int(Sig.SIGPROF), _on_signal, restart=True)
    yield from unistd.setitimer(ITIMER_PROF, usec(n))


_OPS = {
    "charge": _op_charge, "ctx": _op_ctx, "getpid": _op_getpid,
    "sleep": _op_sleep, "locked": _op_locked, "sema": _op_sema,
    "await": _op_await, "tick": _op_tick, "timer": _op_timer,
    "badread": _op_badread, "pipe": _op_pipe, "select": _op_select,
    "socket": _op_socket, "signal": _op_signal, "touch": _op_touch,
    "prof": _op_prof,
}


def _body(ops, sh):
    for kind, *args in ops:
        yield from _OPS[kind](sh, *args)


def _worker(arg):
    ops, sh = arg
    yield from sh.arrivals.v()
    assert (yield from sh.p(sh.gate)) in (None, True)
    yield from _body(ops, sh)


def build(program, flags="bound", units=1, timeout_usec=None):
    """The guest ``main`` that runs ``program``."""
    main_ops, *workers = program
    ticks_due = sum(op == ("tick",) for ops in program for op in ops)
    thread_flags = threads.THREAD_WAIT | _FLAG_BITS[flags]

    def main():
        sh = _Shared(units, ticks_due, timeout_usec)
        tids = []
        for ops in workers:
            tid = yield from threads.thread_create(
                _worker, (ops, sh), flags=thread_flags)
            tids.append(tid)
        for _ in workers:
            assert (yield from sh.p(sh.arrivals)) in (None, True)
        for _ in workers:                # start them all at once
            yield from sh.gate.v()
        yield from _body(main_ops, sh)
        for tid in tids:
            yield from threads.thread_wait(tid)
    return main


class Outcome(NamedTuple):
    """What a run of a program shows."""

    digest: str
    events_fired: int
    now_ns: int
    hang: Optional[str]          # the DeadlockError's message, if any
    booked: list                 # per CPU and per LWP: user and system ns
    metrics: Optional[str]       # the metrics JSON, when metrics were on


def _bystander():
    yield Charge(usec(30))
    yield from unistd.getpid()
    yield from unistd.sleep_usec(20)
    yield Charge(usec(30))


def run(program, *, ncpus=1, flags="bound", units=1, preempt=False,
        errno=None, timeout_usec=None, seed=0, metrics=False,
        crash_usec=None, bystander=False) -> Outcome:
    """Run ``program`` with the given options; a hang is part of the
    outcome, not an error."""
    sink = DigestSink()
    plan = (SchedulePlan([RandomPreempt(probability=0.3)])
            if preempt else None)
    rules = []
    if errno is not None:
        call, name, every = errno
        rules.append(SyscallFault(call, name, every=every))
    if crash_usec is not None:
        rules.append(LwpCrash(crash_usec, pid=1))
    sim = Simulator(ncpus=ncpus, seed=seed, trace=True, trace_sink=sink,
                    trace_store=False, schedule=plan,
                    faults=FaultPlan(rules) if rules else None,
                    metrics=metrics)
    sim.spawn(build(program, flags, units, timeout_usec))
    if bystander:
        sim.spawn(_bystander)
    try:
        sim.run(max_events=200_000)
        hang = None
    except DeadlockError as exc:
        hang = str(exc)
    booked = [(c.user_ns, c.kernel_ns) for c in sim.machine.cpus]
    booked += [(lwp.name, lwp.user_ns, lwp.system_ns)
               for proc in sim.kernel.processes.values()
               for lwp in proc.lwps.values()]
    return Outcome(sink.hexdigest(), sim.engine.events_fired,
                   sim.engine.now_ns, hang, booked,
                   sim.metrics.to_json() if metrics else None)
