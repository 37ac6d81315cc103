"""Whole verify reports, pinned: every check's name, status and detail.

``verify_reports.json`` holds ``run_suite(pc, "all")`` on the three table
presets and the three datum suites on five ``tests/data`` files, one
``[name, status, detail]`` per check.  A change to any passing detail, to the
check order or to a status fails here.  The file is read, never written.
"""

import json
import pathlib

import pytest

from rigidhecke import rigidtab
from rigidhecke.datumsuites import DATUM_SUITES, datum_context
from rigidhecke.rootdata import load_datum
from rigidhecke.weyl import WeylData

_TESTS = pathlib.Path(__file__).parent
REPORTS = json.loads((_TESTS / "verify_reports.json").read_text(encoding="utf-8"))


def _rows(checks):
    return [[c.name, c.status, c.detail] for c in checks]


@pytest.mark.parametrize("name,fixture", [("sl2", "pc_sl2"), ("pgl2", "pc_pgl2"), ("c2-aff", "pc_c2")])
def test_suite_all_report_equals_the_pin(name, fixture, request):
    pc = request.getfixturevalue(fixture)
    assert _rows(rigidtab.run_suite(pc, "all")) == REPORTS[f"{name}/all"]


@pytest.mark.parametrize("name", ["sl3", "g2", "pgl3", "sl4", "sl2xsl2"])
def test_datum_suite_reports_equal_the_pins(name):
    pc = datum_context(WeylData(load_datum(str(_TESTS / "data" / f"{name}.json"))))
    for suite, run in DATUM_SUITES.items():
        assert _rows(run(pc)) == REPORTS[f"{name}/{suite}"], suite


def test_every_pinned_report_is_checked():
    assert len(REPORTS) == 3 + 5 * len(DATUM_SUITES)
