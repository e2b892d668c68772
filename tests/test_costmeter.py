"""``tools/costmeter.py`` counts exactly: the same costs under any hash
seed, and a clear refusal on an interpreter without sys.monitoring."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "costmeter.py")

#: Meters a 20-client slice (the tool's 300 takes seconds per run) and
#: prints the result as JSON.
MEASURE = f"""
import json, os, sys
sys.path[:0] = [os.path.join({REPO!r}, d) for d in ("tools", "src",
                                                   "hostbench")]
import costmeter
print(json.dumps(costmeter.measure("pool_poisson", 0, 20), sort_keys=True))
"""


def _python(*args, hashseed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="sys.monitoring needs Python 3.12")
def test_same_costs_under_two_hash_seeds():
    first = _python("-c", MEASURE, hashseed=0)
    assert first.returncode == 0, first.stderr
    assert _python("-c", MEASURE, hashseed=1).stdout == first.stdout
    result = json.loads(first.stdout)
    assert result["units"] == 20
    assert result["cost_per_unit"] == pytest.approx(
        sum(result["layers"].values()))


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="the refusal is for Pythons before 3.12")
def test_refuses_python_before_3_12():
    proc = _python(TOOL, "--workload", "pool_poisson")
    assert proc.returncode == 2
    assert "3.12" in proc.stderr
