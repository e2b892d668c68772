"""Docs-consistency gate as tests (same checks as tools/check_docs.py).

Each check is its own test so a dead link and a drifted CLI block fail
separately; the CI ``docs`` job runs the standalone script, this keeps
plain ``pytest`` honest too.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))

import check_docs  # noqa: E402


def test_no_dead_relative_links():
    assert check_docs.check_links() == []


def test_cli_blocks_match_live_help():
    assert check_docs.check_cli_blocks() == []


def test_example_inventory_in_sync():
    assert check_docs.check_example_inventory() == []


def test_rule_catalogue_in_sync():
    assert check_docs.check_catalogue("rules") == []


def test_class_catalogue_in_sync():
    assert check_docs.check_catalogue("sched-classes") == []


def test_load_cli_flag_reference_in_sync():
    assert check_docs.check_catalogue("bakeoff-flags") == []


def test_arrival_catalogue_in_sync():
    assert check_docs.check_catalogue("arrivals") == []


#: Per catalogue: a live listing, a doc that omits its second entry and
#: names one the listing lacks, and those two entries.
DRIFTED = {
    "rules": ("L101: a\nL102: b\n", "Catalogue: L101, and L999.\n",
              "L102", "L999"),
    "sched-classes": (
        "TS: timeshare\nRT: realtime\n",
        "## 12. Kernel scheduling classes\n\n| `TS` | t |\n| `ZZ` | z |\n"
        "\n## 13. Next\n\n| `RT` | outside the section |\n", "RT", "ZZ"),
    "bakeoff-flags": (
        "usage: bakeoff [-h] [--clients N] [--arch A]\n\noptions:\n"
        "  --clients N  see also --ghost\n",
        "## Flag reference\n\n* `--clients` — count\n* `--ghost` — gone\n",
        "--arch", "--ghost"),
    "arrivals": ("poisson: p\nburst: b\n",
                 "## Arrival-process catalogue\n\n| `poisson` | p |\n"
                 "| `ghost` | g |\n", "burst", "ghost"),
}


@pytest.mark.parametrize("name", sorted(check_docs.CATALOGUES))
def test_catalogue_drift_reported_both_ways(name):
    listing, text, undocumented, unknown = DRIFTED[name]
    doc = check_docs.CATALOGUES[name].doc
    problems = check_docs.compare_catalogue(name, listing, {doc: text})
    assert len(problems) == 2, problems
    assert f" {undocumented} missing from the catalogue" in problems[0]
    assert problems[1].endswith(f" {unknown}")
