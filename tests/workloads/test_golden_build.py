"""Golden trace digests for the self-contained network server.

The corpus goldens (``tests/explore/golden_digests.json``) pin
``build()``'s crash-storm and supervised pool runs, and the bakeoff
goldens (``tests/load/golden_bakeoff.json``) pin ``build_server()``.
These pin the rest of ``build()``: one unperturbed run per architecture
with forked guest clients.  Together the three files define "same
behaviour" for the server core that both builders share.
"""

import json
import os

import pytest

from repro.explore.explorer import run_one
from repro.workloads import network_server

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_build.json")

MODES = ("pool", "thread-per-conn", "event-loop")


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
def test_build_digest_matches_golden(mode):
    result = run_one(
        lambda: network_server.build(mode=mode, n_clients=3,
                                     requests_per_client=4)[0],
        program="netsrv", seed=0, schedule_dict={"rules": []})
    assert not result.failed, result.summary()
    assert result.digest == _load_golden()[mode], (
        f"build(mode={mode!r}) event stream diverged from golden")


def test_golden_covers_all_modes():
    assert set(_load_golden()) == set(MODES)
