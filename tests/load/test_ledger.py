"""The load ledger conserves requests.

Every request the load driver offers ends in exactly one outcome, and
every arrival lands in one saturation window, whatever the architecture,
the arrival process and rate, the deadline and the network faults: for
generated arrival specs and net-fault mixes, ``offered`` equals the
clients, the outcome keys are ``OUTCOMES``, the outcomes add up to
``offered``, and so do the windows' arrivals.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.load.bakeoff import ARCHITECTURES, run_arch
from repro.load.driver import OUTCOMES
from repro.sim.faults import (AcceptStall, ConnDrop, FaultPlan, PacketDelay,
                              PeerReset)

PROBABILITY = st.sampled_from((0.1, 0.3, 1.0))
OPS = st.sampled_from(("send", "recv", "*"))

#: One rule of each net-fault kind.
NET_RULES = st.one_of(
    st.builds(ConnDrop, mode=st.sampled_from(ConnDrop.MODES),
              timeout_usec=st.integers(0, 10_000),
              probability=PROBABILITY),
    st.builds(AcceptStall, stall_usec=st.integers(0, 5_000),
              probability=PROBABILITY),
    st.builds(PacketDelay, op=OPS, max_usec=st.integers(0, 2_000),
              probability=PROBABILITY),
    st.builds(PeerReset, op=OPS, probability=PROBABILITY),
)

ARRIVALS = st.fixed_dictionaries({
    "kind": st.sampled_from(("poisson", "burst", "uniform")),
    "params": st.fixed_dictionaries(
        {"rate_per_sec": st.integers(300, 4_000).map(float)}),
    "clients": st.integers(1, 60),
    "seed": st.integers(0, 999),
    "start_usec": st.just(1_000.0),
})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arch=st.sampled_from(ARCHITECTURES), spec=ARRIVALS,
       deadline_usec=st.sampled_from((5_000.0, 50_000.0)),
       rules=st.lists(NET_RULES, max_size=3))
def test_every_offered_request_has_one_outcome(arch, spec, deadline_usec,
                                               rules):
    faults = FaultPlan(rules).to_dict() if rules else None
    out = run_arch(arch, spec, deadline_usec=deadline_usec, faults=faults)
    assert out["offered"] == spec["clients"]
    assert set(out["outcomes"]) == set(OUTCOMES)
    assert sum(out["outcomes"].values()) == out["offered"]
    windows = out["saturation"]["windows"]
    assert sum(w["arrivals"] for w in windows) == out["offered"]
