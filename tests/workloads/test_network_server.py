"""Overload behavior of the network-server workload.

The acceptance bar from the robustness work: offered load several times
capacity must degrade *gracefully* — no deadlock, no silently lost
request (the ledger balances: admitted == served + explicitly shed),
rejections visible to clients and in the metrics — and every run must
replay bit-for-bit from its serialized schedule plan.
"""

import pytest

from repro.api import Simulator
from repro.explore.explorer import run_one
from repro.workloads import network_server

#: Twelve clients on a 200 us think time against two workers burning
#: 2 ms per request: offered load is well over 4x what the pool can
#: serve, so the admission queue (limit 4) saturates immediately.
OVERLOAD = dict(n_clients=12, requests_per_client=8, n_workers=2,
                service_compute_usec=2_000.0, client_think_usec=200.0,
                admission_limit=4)


def run(main, ncpus=2, seed=0, metrics=False):
    sim = Simulator(ncpus=ncpus, seed=seed, metrics=metrics)
    sim.spawn(main)
    sim.run()
    return sim


class TestGracefulDegradation:
    def test_reject_newest_sheds_explicitly(self):
        main, res = network_server.build(shed="reject-newest", **OVERLOAD)
        sim = run(main, metrics=True)
        # Nothing admitted is ever lost; rejections are explicit.
        assert res["received"] == res["served"]
        assert res["shed"] > 0
        assert res["client_giveups"] + res["client_ok"] == 12 * 8
        counters = sim.metrics.snapshot()["counters"]
        assert counters["server.shed"] == res["shed"]
        assert counters["server.served"] == res["served"]

    def test_shed_oldest_keeps_the_ledger_balanced(self):
        main, res = network_server.build(shed="oldest", **OVERLOAD)
        run(main)
        # Shed-oldest admits everything, then revokes: every admitted
        # request is either served or explicitly shed, never dropped.
        assert res["received"] == res["served"] + res["shed"]
        assert res["shed"] > 0

    def test_thread_per_conn_respects_the_handler_cap(self):
        main, res = network_server.build(mode="thread-per-conn",
                                         **OVERLOAD)
        run(main)
        assert res["received"] == res["served"]
        assert res["client_ok"] > 0

    def test_clients_observe_progress_under_overload(self):
        main, res = network_server.build(shed="reject-newest", **OVERLOAD)
        run(main)
        # Overload means rejections, not starvation: some requests
        # still complete end-to-end, and retries happened.
        assert res["client_ok"] > 0
        assert res["client_retries"] > 0

    def test_underload_serves_everything(self):
        main, res = network_server.build(n_clients=3,
                                         requests_per_client=5,
                                         n_workers=4)
        run(main)
        assert res["client_ok"] == 15
        assert res["shed"] == 0


class TestReplay:
    def test_overload_run_replays_bit_for_bit(self):
        from repro.sim.schedule import RandomPreempt
        plan = {"rules": [RandomPreempt(probability=0.2).to_dict()]}

        def factory():
            return network_server.build(shed="oldest", **OVERLOAD)[0]

        a = run_one(factory, program="netsrv", seed=5,
                    schedule_dict=plan)
        b = run_one(factory, program="netsrv", seed=5,
                    schedule_dict=plan)
        assert not a.failed, a.summary()
        assert a.digest == b.digest
        assert a.events == b.events

    def test_different_seeds_diverge(self):
        def factory():
            return network_server.build(shed="oldest", **OVERLOAD)[0]

        from repro.sim.schedule import RandomPreempt
        plan = {"rules": [RandomPreempt(probability=0.2).to_dict()]}
        a = run_one(factory, program="netsrv", seed=5,
                    schedule_dict=plan)
        b = run_one(factory, program="netsrv", seed=6,
                    schedule_dict=plan)
        assert a.digest != b.digest


class TestEventLoop:
    """The third architecture: a single-LWP select() event loop."""

    def test_serves_everything_underload(self):
        main, res = network_server.build(mode="event-loop", n_clients=3,
                                         requests_per_client=5)
        run(main)
        assert res["received"] == res["served"] == 15
        assert res["client_ok"] == 15
        assert res["shed"] == 0
        # The whole server is one LWP: nothing pool-grown.
        assert res["lwps_grown"] == 0

    def test_single_thread_no_locks(self):
        """An event-loop run emits no lock contention at all — there is
        nothing to contend for — while the same run as a pool goes
        through the admission mutex."""
        def sync_counters(mode):
            main, res = network_server.build(mode=mode, n_clients=2,
                                             requests_per_client=3)
            sim = run(main, metrics=True)
            assert res["served"] == 6
            return [k for k in sim.metrics.snapshot()["counters"]
                    if k.startswith("sync.")]

        assert sync_counters("event-loop") == []
        pool = sync_counters("pool")
        assert any(k.startswith("sync.mutex.acquires_")
                   and k.endswith(".srv.qm") for k in pool), pool

    def test_overload_degrades_not_deadlocks(self):
        main, res = network_server.build(
            mode="event-loop", n_clients=12, requests_per_client=8,
            service_compute_usec=2_000.0, client_think_usec=200.0)
        run(main)
        # Inline service head-of-line blocks: clients give up, but the
        # run terminates and everything admitted is accounted for.
        assert res["received"] == res["served"] + res["shed"]
        assert res["client_ok"] + res["client_giveups"] == 12 * 8
        assert res["client_ok"] > 0

    def test_replays_bit_for_bit(self):
        from repro.sim.schedule import RandomPreempt
        plan = {"rules": [RandomPreempt(probability=0.2).to_dict()]}

        def factory():
            return network_server.build(mode="event-loop", n_clients=4,
                                        requests_per_client=4)[0]

        a = run_one(factory, program="evloop", seed=9,
                    schedule_dict=plan)
        b = run_one(factory, program="evloop", seed=9,
                    schedule_dict=plan)
        assert not a.failed, a.summary()
        assert a.digest == b.digest

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            network_server.build(mode="coroutine-farm")
