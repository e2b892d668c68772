"""The wall-clock perf harness keeps a trajectory, not just one snapshot."""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                   "benchmarks", "perf", "run.py")


def test_update_appends_each_run_to_history(tmp_path):
    ref = tmp_path / "BENCH_PERF.json"
    ref.write_text(json.dumps({"current": {}, "meta": {}}))
    for _ in range(2):
        subprocess.run(
            [sys.executable, RUN, "--only", "engine_events",
             "--best-of", "1", "--update", "--reference", str(ref)],
            check=True, capture_output=True)
    data = json.loads(ref.read_text())
    history = data["history"]
    assert [sorted(run) for run in history] == [
        ["commit", "date", "results"]] * 2
    assert history[-1]["results"] == data["current"]
    assert set(data["current"]) == {"engine_events"}
