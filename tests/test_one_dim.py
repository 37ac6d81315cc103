"""One-dimensional modules, pinned: every context's list, in order.

``one_dim_modules.json`` holds, per context, the key of each module that
``one_dim_modules`` returns: its generator scalars as ``[name, value]`` pairs
sorted by name, and its θ_{e_i} values.  The contexts are every preset with
0, 1 and rank twist variables (sl2 also with its table's merged parameter),
every datum file of ``tests/data`` and ``perfbench/data``, and every quotient
algebra of each.  A change to a module's values, to the count or to the order
fails here.  The file is read, never written.
"""

import json
import pathlib

import pytest

from rigidhecke.hecke import HeckeContext
from rigidhecke.repn import one_dim_modules
from rigidhecke.rigidtab import MANIFESTS
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData, pi_subsets

_TESTS = pathlib.Path(__file__).parent
_DATA = [_TESTS / "data", _TESTS.parent / "perfbench" / "data"]
PINS = json.loads((_TESTS / "one_dim_modules.json").read_text(encoding="utf-8"))


def module_key(mod):
    return [
        sorted([n, mat.entries[0][0].render()] for n, mat in mod.tmat.items()),
        [p.entries[0][0].render() for p in mod.theta_pos],
    ]


def _datums():
    """(label, datum, orbit assignments) of each pinned datum."""
    for name in PRESET_NAMES:
        man = MANIFESTS.get(name)
        merged = man.orbit_assignment if man is not None else None
        yield name, preset(name), [None] + ([merged] if merged else [])
    for folder in _DATA:
        for path in sorted(folder.glob("*.json")):
            if path.name != "pins.json":
                yield f"{folder.parent.name}/{path.stem}", load_datum(str(path)), [None]


def pinned_keys():
    """Label -> key list of every pinned context, in a fixed order."""
    out = {}
    for label, datum, assignments in _datums():
        wd = WeylData(datum)
        for assignment in assignments:
            for n_twist in sorted({0, 1, wd.rank}):
                ctx = HeckeContext(wd, orbit_assignment=assignment, n_twist=n_twist)
                head = f"{label}/{'merged' if assignment else 'split'}/z{n_twist}"
                out[head] = [module_key(m) for m in one_dim_modules(ctx)]
                for J in pi_subsets(wd.npi):
                    qa = ctx.quotient_algebra(J)
                    out[f"{head}/J={list(J)}"] = [module_key(m) for m in one_dim_modules(qa.ctx)]
    return out


@pytest.fixture(scope="module")
def keys():
    return pinned_keys()


def test_every_context_is_pinned(keys):
    assert list(keys) == list(PINS)


def test_one_dim_lists_equal_the_pins(keys):
    for label, pinned in PINS.items():
        assert keys[label] == pinned, label
