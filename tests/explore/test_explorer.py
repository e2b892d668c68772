"""Explorer mechanics: determinism, serialization, replay, minimization.

The harness's core promise is that ``(seed, SchedulePlan, FaultPlan)``
is a complete name for an interleaving — everything here checks that
promise and the machinery built on it (repro bundles, delta-debugging).
"""

import json

from repro.explore.corpus import BUGGY
from repro.explore.explorer import (Explorer, ReproBundle, run_one,
                                    default_plan_dicts)
from repro.explore.minimize import failure_signature, minimize_schedule
from repro.sim.engine import Engine
from repro.sim.schedule import (PctPriorities, RandomPick, RandomPreempt,
                                SchedulePlan)

AGGRESSIVE = {"rules": [RandomPreempt(probability=0.3).to_dict(),
                        RandomPick(probability=0.4).to_dict()]}


class TestPlanSerialization:
    def test_round_trip_preserves_rules(self):
        plan = SchedulePlan([
            RandomPreempt(probability=0.25, ops=["acquire", "cell-*"],
                          max_count=9),
            RandomPick(probability=0.5),
            PctPriorities(change_every=11),
        ])
        clone = SchedulePlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()

    def test_to_dict_does_not_alias_ops(self):
        rule = RandomPreempt(ops=["acquire"])
        rule.to_dict()["ops"].append("cell-*")
        assert rule.to_dict()["ops"] == ["acquire"]

    def test_dict_is_json_safe(self):
        plans = default_plan_dicts(25)
        assert plans[0] == {"rules": []}
        for d in plans:
            assert json.loads(json.dumps(d)) == d


class TestDeterminism:
    """Satellite: same (seed, SchedulePlan, FaultPlan) -> identical
    traces and findings, twice over."""

    def test_same_inputs_same_digest_and_findings(self):
        factory, _ = BUGGY["racy_counter"]
        kwargs = dict(program="racy_counter", seed=7,
                      schedule_dict=AGGRESSIVE)
        a = run_one(factory, **kwargs)
        b = run_one(factory, **kwargs)
        assert a.digest is not None
        assert a.digest == b.digest
        assert [f.to_dict() for f in a.findings] == \
            [f.to_dict() for f in b.findings]
        assert (a.events, a.points_seen, a.preemptions, a.fired) == \
            (b.events, b.points_seen, b.preemptions, b.fired)

    def test_with_faults_composed(self):
        from repro.sim.faults import FaultPlan, TimerJitter
        factory, _ = BUGGY["lost_wakeup"]
        faults = FaultPlan([TimerJitter(40.0, probability=0.5)]).to_dict()
        kwargs = dict(program="lost_wakeup", seed=5,
                      schedule_dict=AGGRESSIVE, faults_dict=faults)
        a = run_one(factory, **kwargs)
        b = run_one(factory, **kwargs)
        assert a.digest == b.digest

    def test_different_seed_different_interleaving(self):
        factory, _ = BUGGY["racy_counter"]
        a = run_one(factory, program="p", seed=1, schedule_dict=AGGRESSIVE)
        b = run_one(factory, program="p", seed=2, schedule_dict=AGGRESSIVE)
        assert a.digest != b.digest


class _Runnable:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


def _pct_picks(drop_dead: bool) -> str:
    """Four PCT picks between c and d after a pick between a and b.
    With ``drop_dead``, b's last reference goes and c is allocated
    until it lands at b's address (bounded: it cannot while the plan
    keeps b alive)."""
    plan = SchedulePlan([PctPriorities()])
    plan.attach(Engine(seed=0))
    a, b = _Runnable("a"), _Runnable("b")
    plan.pick_runnable([a, b])
    spare = []
    if drop_dead:
        address = id(b)
        del b
        c = _Runnable("c")
        while id(c) != address and len(spare) < 10_000:
            spare.append(c)
            c = _Runnable("c")
    else:
        c = _Runnable("c")
    d = _Runnable("d")
    return " ".join(plan.pick_runnable([c, d]).name for _ in range(4))


class TestPctIgnoresHostAddresses:
    def test_new_thread_at_a_dead_threads_address_draws_its_own(self):
        """PCT priorities are keyed by the thread, not by ``id()``: a
        thread that reuses a dead one's address must not inherit its
        priority and skip its draw, which shifts every later draw."""
        assert _pct_picks(drop_dead=True) == _pct_picks(drop_dead=False)


class TestReproBundle:
    def _first_failure(self):
        factory, _ = BUGGY["racy_counter"]
        report = Explorer(factory, program="racy_counter", runs=8,
                          seed=1, stop_on_first=True).explore()
        failure = report.first_failure()
        assert failure is not None
        return factory, failure

    def test_bundle_replays_bit_for_bit(self):
        factory, failure = self._first_failure()
        bundle = failure.bundle()
        replay = bundle.replay(factory)
        assert replay.digest == bundle.digest
        assert {f.kind for f in replay.findings} == \
            {f["kind"] for f in bundle.findings}

    def test_bundle_survives_json(self, tmp_path):
        factory, failure = self._first_failure()
        path = tmp_path / "bundle.json"
        failure.bundle().dump(path)
        bundle = ReproBundle.load(path)
        replay = bundle.replay(factory)
        assert replay.digest == bundle.digest


class TestMinimize:
    def test_schedule_independent_bug_minimizes_to_nothing(self):
        # exit_holding_lock fails on every schedule, so ddmin's empty-set
        # shortcut must land on zero forced preemptions.
        factory, _ = BUGGY["exit_holding_lock"]
        result = run_one(factory, program="exit_holding_lock", seed=1,
                         schedule_dict=AGGRESSIVE)
        assert result.failed
        mini = minimize_schedule(factory, result)
        assert mini.reproduced
        assert mini.points == []

    def test_minimal_schedule_reproduces_signature(self):
        factory, _ = BUGGY["lost_wakeup"]
        report = Explorer(factory, program="lost_wakeup", runs=12,
                          seed=1, stop_on_first=True).explore()
        failure = report.first_failure()
        assert failure is not None
        mini = minimize_schedule(factory, failure)
        assert mini.reproduced
        assert mini.minimal_result is not None
        assert failure_signature(mini.minimal_result) & \
            failure_signature(failure)
        assert len(mini.points) <= len(failure.fired)


class TestRuntimeRegressions:
    """Bugs in the runtime itself that the harness flushed out; kept as
    schedule-replay regressions."""

    def test_database_workload_survives_preemption(self):
        # A slept waiter on a shared (futex-protocol) mutex used to
        # re-acquire with the uncontended state, erasing a second
        # sleeper's contended mark: exit then woke nobody and the second
        # sleeper slept forever.  Separately, a SIGWAITING falling into
        # the throttle window was dropped instead of deferred, stranding
        # a runnable thread whose every LWP was blocked.  Both wedged
        # this exact workload/schedule family.
        from repro.workloads import database
        plans = default_plan_dicts(10)
        for k in range(10):
            result = run_one(lambda: database.build()[0],
                             program="wl_database", run_index=k,
                             seed=1 + k, schedule_dict=plans[k])
            assert not result.failed, result.summary()


class TestParallelExploration:
    """Satellite: ``--jobs N`` must change wall-clock only, never
    results — every run is hermetic, so a process-pool fan-out and the
    serial loop produce identical reports."""

    def test_jobs_report_identical_to_serial(self):
        from repro.explore.registry import resolve
        ref = "buggy:racy_counter"
        kwargs = dict(program="racy_counter", runs=4, seed=3)
        serial = Explorer(resolve(ref), **kwargs).explore()
        parallel = Explorer(resolve(ref), jobs=2, factory_ref=ref,
                            **kwargs).explore()
        assert [r.bundle().to_dict() for r in serial.results] == \
            [r.bundle().to_dict() for r in parallel.results]
        assert [(r.events, r.points_seen, r.preemptions, r.fired)
                for r in serial.results] == \
            [(r.events, r.points_seen, r.preemptions, r.fired)
                for r in parallel.results]

    def test_registry_resolves_all_corpus_refs(self):
        from repro.explore.corpus import BUGGY, CLEAN
        from repro.explore.registry import resolve
        for kind, corpus in (("buggy", BUGGY), ("clean", CLEAN)):
            for name in corpus:
                assert callable(resolve(f"{kind}:{name}"))

    def test_registry_rejects_unknown(self):
        from repro.explore.registry import resolve
        import pytest
        with pytest.raises(KeyError):
            resolve("buggy:no_such_program")
