"""Golden event and syscall counts: the exact-count half of "same behaviour".

The trace digests in ``explore/golden_digests.json`` and
``load/golden_bakeoff.json`` pin *what* happened; they do not pin how
many engine events it took.  A fast path that runs an event without the
queue (or miscounts one it skips) can keep every trace record and still
change ``events_fired``, which the ``max_events`` guard, the benchmark's
``sim.events`` and its fingerprint all read.  ``golden_counts.json``
pins, exactly:

* for each of the 42 corpus golden cases (same programs, plans and
  seeds as ``test_golden_digests.py``): ``RunResult.events`` (the
  return value of ``run()``, 0 when the run ended in a hang or error)
  and the engine's lifetime ``events_fired``;
* for each scaled-down bakeoff golden run (same spec as
  ``tests/load/test_bakeoff.py``): ``events_fired`` and the per-call
  syscall counts.

Print the measured values as JSON with
``PYTHONPATH=src python tests/test_golden_counts.py``.
"""

import json
import os

import pytest

from repro.api import Simulator
from repro.explore.corpus import BUGGY, CLEAN
from repro.explore.explorer import default_plan_dicts, run_one
from repro.load.bakeoff import ARCHITECTURES, run_arch

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_counts.json")

#: The bakeoff golden spec of tests/load/test_bakeoff.py.
BAKEOFF_SPEC = {"kind": "poisson", "params": {"rate_per_sec": 1_000.0},
                "clients": 60, "seed": 0, "start_usec": 1_000.0}

_PLANS = default_plan_dicts(3)


def _corpus_cases():
    for corpus in (BUGGY, CLEAN):
        for name, entry in corpus.items():
            for k in range(len(_PLANS)):
                yield name, entry, k


def _capture_sims(patch):
    """Wrap ``Simulator.run`` so each finished simulator is recorded,
    also when its run raises.  ``patch(obj, attr, value)`` installs it."""
    sims = []
    inner = Simulator.run

    def run(sim, *args, **kwargs):
        sims.append(sim)
        return inner(sim, *args, **kwargs)

    patch(Simulator, "run", run)
    return sims


def measure_corpus(name, entry, k, patch) -> dict:
    sims = _capture_sims(patch)
    factory = entry[0] if isinstance(entry, tuple) else entry
    result = run_one(factory, program=name, run_index=k, seed=k,
                     schedule_dict=_PLANS[k])
    (sim,) = sims
    return {"events": result.events,
            "events_fired": sim.engine.events_fired}


def measure_bakeoff(arch, patch) -> dict:
    sims = _capture_sims(patch)
    run_arch(arch, BAKEOFF_SPEC, with_digest=True)
    (sim,) = sims
    return {"events_fired": sim.engine.events_fired,
            "syscalls": dict(sorted(sim.syscall_counts().items()))}


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,entry,k",
    [pytest.param(n, e, k, id=f"{n}/run{k}")
     for n, e, k in _corpus_cases()])
def test_corpus_event_counts(name, entry, k, monkeypatch):
    got = measure_corpus(name, entry, k, monkeypatch.setattr)
    assert got == _load_golden()["corpus"][f"{name}/run{k}"]


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_bakeoff_event_and_syscall_counts(arch, monkeypatch):
    got = measure_bakeoff(arch, monkeypatch.setattr)
    assert got == _load_golden()["bakeoff"][arch]


def test_golden_counts_cover_every_case():
    golden = _load_golden()
    assert set(golden["corpus"]) == {f"{n}/run{k}"
                                     for n, _, k in _corpus_cases()}
    assert set(golden["bakeoff"]) == set(ARCHITECTURES)


def main() -> None:
    out = {"corpus": {}, "bakeoff": {}}
    for name, entry, k in _corpus_cases():
        with pytest.MonkeyPatch.context() as mp:
            out["corpus"][f"{name}/run{k}"] = measure_corpus(
                name, entry, k, mp.setattr)
    for arch in ARCHITECTURES:
        with pytest.MonkeyPatch.context() as mp:
            out["bakeoff"][arch] = measure_bakeoff(arch, mp.setattr)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
