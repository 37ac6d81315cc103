"""The class labels, datum-suite check names and c2-aff check names that the
benchmark's checker compares against ``perfbench/data/pins.json``.  The pins are read, never
written, so a change the checker would reject fails here first."""

import json
import pathlib

import pytest

from rigidhecke.conj import newton_zero_classes
from rigidhecke.datumsuites import CLASS_COUNTS, DATUM_SUITES, SUITES, datum_context
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData

_BENCH_DATA = pathlib.Path(__file__).parent.parent / "perfbench" / "data"
PINS = json.loads((_BENCH_DATA / "pins.json").read_text())
REPORTS = json.loads((pathlib.Path(__file__).parent / "verify_reports.json").read_text())


def _weyl(name):
    if name in PRESET_NAMES:
        return WeylData(preset(name))
    return WeylData(load_datum(str(_BENCH_DATA / f"{name}.json")))


@pytest.mark.parametrize("name", sorted(PINS["classes"]))
def test_class_labels_equal_the_pins(name):
    assert [r.label for r in newton_zero_classes(_weyl(name))] == PINS["classes"][name]


@pytest.mark.parametrize("name", sorted(PINS["classes"]))
def test_datum_suite_check_names_equal_the_pins(name):
    wd = _weyl(name)
    pc = datum_context(wd, None, CLASS_COUNTS.get(name))
    for suite, run in DATUM_SUITES.items():
        names = [c.name for c in run(pc)]
        assert names == PINS["verify"][f"{name}/{suite}"], suite


def test_c2_aff_check_names_equal_the_pins():
    """The pinned reports of ``verify --preset c2-aff --suite all``, which
    ``tests/test_reports.py`` compares with the CLI's, name the checks that the
    pins list suite by suite."""
    pinned = [n for suite in SUITES if suite != "all" for n in PINS["verify"][f"c2-aff/{suite}"]]
    assert pinned == [name for name, _status, _detail in REPORTS["c2-aff/all"]]
    assert len(pinned) == 61
