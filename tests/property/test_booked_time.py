"""Booked CPU time equals held CPU time.

A CPU books a charge, to itself and to the LWP holding it, with the
step that spends it, and ``CPU.release`` refunds the part that has not
run when the LWP leaves the CPU (``repro.hw.cpu``).  So once a run is
over, the time *booked* (an LWP's ``user_ns + system_ns``, a CPU's
``busy_ns``) equals the time *held* (the spans from ``CPU.assign`` to
``CPU.release``, tallied here by ``held_cpus()``'s CPU class):

* per CPU, and no CPU is busier than the clock;
* per LWP, and an LWP that never held a CPU booked nothing;
* in sum: the LWPs' books add up to the CPUs'.

Every per-LWP clock the paper describes reads these books: the virtual
and profiling timers, ``profil``, RLIMIT_CPU, ``/proc`` and ``hw.util``.
The law is checked over the generated programs of
``tests/property/programs.py`` with every option, plus an LWP crash and
a bystander process, at the end of one cost-meter slice of each
hostbench workload, and on one example of each way an LWP leaves a CPU
with time booked.
"""

import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.api import Simulator
from repro.hw.cpu import CPU
from repro.hw.isa import Charge, Longjmp, Syscall
from repro.kernel.lwp import SchedClass
from repro.kernel.signals import SIG_BLOCK, SIG_DFL, SIG_UNBLOCK, Sig, Sigset
from repro.kernel.syscalls.lwp_calls import PC_SETCLASS
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.sim.faults import FaultPlan, LwpCrash
from repro.sync import Semaphore
from tests.property.programs import ERRNO_PLANS, FLAGS, PROGRAMS, run
from tests.property.reference import installed

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def held_cpus():
    """A ``CPU`` class that tallies, per LWP name, each span from
    ``assign`` to ``release``, and the list of every CPU it builds."""
    cpus = []

    class HeldCPU(CPU):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.held = Counter()        # LWP name -> ns held
            self.seen = {}               # LWP name -> Lwp
            self.since = None
            cpus.append(self)

        def assign(self, lwp):
            self.since = self.engine.now_ns
            self.seen[lwp.name] = lwp
            super().assign(lwp)

        def release(self):
            if self.lwp is not None:
                self.held[self.lwp.name] += self.engine.now_ns - self.since
            super().release()

    return HeldCPU, cpus


def assert_law(cpus):
    """Booked equals held per CPU and per LWP of every simulation the
    CPUs belong to, the LWPs' sum equals the CPUs', and no CPU is
    busier than the clock.  Every LWP must be off its CPU."""
    machines = {}
    for cpu in cpus:
        machines.setdefault(id(cpu.engine), []).append(cpu)
    for group in machines.values():
        now = group[0].engine.now_ns
        held, lwps = Counter(), {}
        for cpu in group:
            assert cpu.lwp is None, f"{cpu.lwp!r} still on {cpu.name}"
            assert cpu.busy_ns == sum(cpu.held.values()) <= now, cpu.name
            held.update(cpu.held)
            lwps.update(cpu.seen)
        for proc in group[0].kernel.processes.values():
            for lwp in proc.lwps.values():
                lwps.setdefault(lwp.name, lwp)
        booked = {name: lwp.user_ns + lwp.system_ns
                  for name, lwp in lwps.items()}
        assert booked == {name: held[name] for name in lwps}
        assert sum(booked.values()) == sum(cpu.busy_ns for cpu in group)


class TestGeneratedPrograms:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=PROGRAMS, ncpus=st.integers(1, 3), flags=FLAGS,
           units=st.integers(1, 2), preempt=st.booleans(),
           errno=ERRNO_PLANS, timed=st.booleans(),
           seed=st.integers(0, 999),
           crash=st.none() | st.integers(0, 3_000),
           bystander=st.booleans(), metrics=st.booleans())
    def test_booked_equals_held(self, program, ncpus, flags, units,
                                preempt, errno, timed, seed, crash,
                                bystander, metrics):
        opts = dict(ncpus=ncpus, flags=flags, units=units, preempt=preempt,
                    errno=errno, seed=seed, crash_usec=crash,
                    bystander=bystander, metrics=metrics)
        cls, cpus = held_cpus()
        with installed(cls):
            untimed = run(program, **opts)
        assert_law(cpus)
        if timed and untimed.hang is None:
            # The timed twins, with a timeout past the end of the run.
            cls, cpus = held_cpus()
            with installed(cls):
                run(program, timeout_usec=untimed.now_ns / 1000 + 1_000,
                    **opts)
            assert_law(cpus)


@pytest.mark.parametrize("workload", ["pool_poisson", "eventloop_poisson",
                                      "explore_sweep"])
def test_booked_equals_held_on_a_meter_slice(workload, monkeypatch):
    """The workload's set-up, then the slice ``tools/costmeter.py``
    meters: a bakeoff's first sub-trace cut to the meter's clients, or
    one whole sweep."""
    for sub in ("hostbench", "tools"):
        monkeypatch.syspath_prepend(os.path.join(REPO, sub))
    from costmeter import CLIENTS
    from pinned import Counters, make

    wl = make(workload, 0, Counters())
    cls, cpus = held_cpus()
    with installed(cls):
        wl.setup()
        if wl.unit == "request":
            wl._call(dict(wl.arrivals[0], clients=CLIENTS))
        else:
            wl._sweep(wl.plans)
    assert_law(cpus)
    assert sum(cpu.busy_ns for cpu in cpus) > 0


# ------------------------------------------------------------ examples


def _run(main, *spawned, ncpus=1, faults=None):
    """Run ``main`` (and other processes) on held CPUs; returns the
    simulator, the CPUs and each LWP's (user, system) book."""
    cls, cpus = held_cpus()
    with installed(cls):
        sim = Simulator(ncpus=ncpus, faults=faults)
    for body in (main, *spawned):
        sim.spawn(body)
    sim.run()
    assert_law(cpus)
    books = {lwp.name: (lwp.user_ns, lwp.system_ns)
             for cpu in cpus for lwp in cpu.seen.values()}
    return sim, cpus, books


def _killed_mid_step(work, main_charge: int):
    """2 CPUs: a bound thread posts a semaphore, then runs ``work``;
    main takes the semaphore, charges ``main_charge`` us and exits,
    killing the bound thread on the other CPU.  Returns the books."""
    def child(sema):
        yield from sema.v()
        yield from work()

    def main():
        sema = Semaphore(0, name="posted")
        yield from threads.thread_create(
            child, sema, flags=threads.THREAD_BIND_LWP)
        yield from sema.p()
        yield Charge(usec(main_charge))
        yield from unistd.exit(0)

    return _run(main, ncpus=2)[2]


def _user_charge():
    yield Charge(usec(1_000))


def _kernel_service():
    # lwp_create's 2,241 us service.
    yield from threads.thread_create(
        _jumps, None, flags=threads.THREAD_BIND_LWP)


def _jumps(_=None):
    # Back-to-back 39 us longjmps: user time that no preemption cuts.
    while True:
        yield Longjmp(None)


class TestEveryWayOffTheCpu:
    """One example for each way an LWP leaves a CPU with time booked;
    each pins the books the law leaves."""

    def test_killed_from_another_cpu_during_a_user_charge(self):
        """The bound thread is killed 911 us into its 1,000 us charge:
        the unrun rest goes back as user time."""
        books = _killed_mid_step(_user_charge, 100)
        assert books["lwp-1.2"] == (usec(911), usec(80))
        assert books["lwp-1.1"] == (usec(397), usec(2_986))

    def test_killed_from_another_cpu_during_a_kernel_charge(self):
        """Killed inside ``lwp_create``'s 2,241 us service: the unrun
        rest goes back as system time."""
        books = _killed_mid_step(_kernel_service, 500)
        assert books["lwp-1.2"] == (usec(81), usec(1_310))

    def test_killed_from_another_cpu_during_a_longjmp(self):
        """Killed inside a 39 us longjmp, which ``_spend`` booked: the
        unrun rest goes back as user time."""
        books = _killed_mid_step(_jumps, 100)
        assert books["lwp-1.2"] == (usec(911), usec(80))

    @staticmethod
    def _self_terminated(bystander: bool):
        """The victim catches SIGTERM, masks it, sends it to itself, then
        restores the default action and unmasks it: the signal is taken
        at the exit of that sigprocmask call and kills the process."""
        def on_term(sig):
            yield Charge(usec(1))

        def victim():
            term = int(Sig.SIGTERM)
            yield from unistd.sigaction(term, on_term)
            yield from unistd.sigprocmask(SIG_BLOCK, Sigset([Sig.SIGTERM]))
            me = yield from unistd.getpid()
            yield from unistd.kill(me, term)
            yield from unistd.sigaction(term, SIG_DFL)
            yield from unistd.sigprocmask(SIG_UNBLOCK,
                                          Sigset([Sig.SIGTERM]))
            yield Charge(usec(50))

        def other():
            yield Charge(usec(30))

        spawned = (other,) if bystander else ()
        return _run(victim, *spawned)

    def test_killed_at_its_own_exit_check(self):
        """The ``sigprocmask`` exit is booked, then refunded when the
        signal it takes kills the process: 305 us booked in 305."""
        sim, cpus, books = self._self_terminated(bystander=False)
        assert sim.engine.now_ns == cpus[0].busy_ns == usec(305)
        assert sum(books["lwp-1.1"]) == usec(305)

    def test_killed_at_its_own_exit_check_beside_a_bystander(self):
        sim, cpus, books = self._self_terminated(bystander=True)
        assert sim.engine.now_ns == cpus[0].busy_ns == usec(930)
        assert sum(books["lwp-1.1"]) == usec(305)
        assert sum(books["lwp-2.1"]) == usec(625)

    def test_a_caught_signal_books_only_its_handler(self):
        """A SIGUSR1 sent to self and caught by a 3 us handler: its
        delivery takes no time and books none."""
        def on_usr1(sig):
            yield Charge(usec(3))

        def main():
            usr1 = int(Sig.SIGUSR1)
            yield from unistd.sigaction(usr1, on_usr1)
            me = yield from unistd.getpid()
            yield from unistd.kill(me, usr1)

        sim, cpus, _books = _run(main)
        assert sim.engine.now_ns == cpus[0].busy_ns == usec(763)

    def test_killed_inside_its_own_call_alone(self):
        """The victim's process dies inside its own ``kill``: the call
        ends there, with no exit and no idle step after it."""
        def victim():
            yield Charge(usec(10))
            me = yield from unistd.getpid()
            yield from unistd.kill(me, int(Sig.SIGTERM))
            yield Charge(usec(10))

        sim, cpus, books = _run(victim)
        assert (sim.engine.now_ns, sim.engine.events_fired) == (usec(175), 9)
        assert cpus[0].busy_ns == usec(175)
        assert books["lwp-1.1"] == (usec(10), usec(165))


def test_release_ends_the_charge_in_flight():
    """``release`` clears the charge in flight.  pid 2 is killed 785 us
    into a 3,000 us charge; pid 3 is dispatched, and a real-time wake-up
    preempts it inside its 80 us dispatch.  Had the dead charge stayed
    in flight, the preemption would cut it short and hand its 2,180 us
    rest to pid 3, and the run would end at 4,725 us."""
    def realtime():
        yield Syscall("priocntl", PC_SETCLASS, 0, SchedClass.REALTIME)
        yield from unistd.sleep_usec(900)
        yield Charge(usec(5))

    def long_charge():
        yield Charge(usec(3_000))

    def three_charges():
        for _ in range(3):
            yield Charge(usec(100))

    sim, _cpus, books = _run(
        realtime, long_charge, three_charges,
        faults=FaultPlan([LwpCrash(1_000, pid=2)]))
    assert sim.engine.now_ns == usec(2_590)
    assert books["lwp-3.1"][0] == usec(300)
