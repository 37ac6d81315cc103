"""What the package and its commands load.

``import rigidhecke`` loads no submodule, and ``classes`` and the datum-level
``verify`` suites load only the group layer: no Laurent ring, Hecke algebra,
module panel or table code, and no ``dataclasses``.  The panel commands load
no ``dataclasses`` either.  Each command runs in a fresh interpreter, since
this one has loaded everything already.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rigidhecke

ROOT = pathlib.Path(__file__).resolve().parent.parent
SL3 = str(ROOT / "tests" / "data" / "sl3.json")

NOT_ON_THE_DATUM_PATH = (
    "rigidhecke.exactpoly",
    "rigidhecke.hecke",
    "rigidhecke.repn",
    "rigidhecke.rigidtab",
    "dataclasses",
)

# what ``from rigidhecke import *`` gave when the package imported eagerly
EXPORTS = {
    "exactpoly": (
        "LaurentPoly", "NonSquare", "NotDivisible", "OddDegree", "PolyMatrix", "VarTable",
        "VarTableMismatch", "ZeroSubstitutionForUnit", "det_bareiss", "parse_poly",
        "render_in_Q",
    ),
    "rootdata": (
        "BasedRootDatum", "DatumFormatError", "InfiniteWeylGroup", "NotCartan", "NotReduced",
        "UnknownPreset", "generate_root_system", "load_datum", "preset", "semisimple_quotient",
        "validate_datum",
    ),
    "weyl": ("FinWeylGroup", "OmegaSearchExhausted", "WeylData"),
    "conj": (
        "ConjClassRecord", "NotFound", "PlateauBudgetExceeded", "UnstableAtBound", "classify",
        "count_identity_check", "descend_to_minimal", "newton_zero_classes",
    ),
    "hecke": (
        "BernsteinElt", "CocenterCombination", "HeckeContext", "HeckeElt", "NonNewtonZeroLeaf",
        "Parabolic", "QuotientAlgebra",
    ),
    "repn": (
        "FinDimModule", "RelationFailed", "TwistChar", "induce", "induce_in_parabolic",
        "inflate_chi_t", "lift_from_parahoric", "one_dim_modules", "restrict", "twist_by",
    ),
    "rigidtab": (
        "MANIFESTS", "RigidTable", "build_preset_context", "build_rigid_table",
        "determinant_check", "run_suite",
    ),
}

# print the exit code and the rigidhecke modules loaded, then the probed ones
_PROBE = """
import json, sys
from rigidhecke.cli import main
code = main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.startswith("rigidhecke"))
probed = [m for m in json.loads(sys.argv[1]) if m in sys.modules]
print(json.dumps([code, loaded, probed]))
"""


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("source", [["--datum", SL3], ["--preset", "c2-ext"]],
                         ids=["sl3", "c2-ext"])
@pytest.mark.parametrize("command", [
    ["classes"],
    ["verify", "--suite", "counts"],
    ["verify", "--suite", "lengths"],
    ["verify", "--suite", "classes"],
], ids=["classes", "verify-counts", "verify-lengths", "verify-classes"])
def test_datum_command_loads_only_the_group_layer(command, source):
    stdout = _fresh("-c", _PROBE, json.dumps(NOT_ON_THE_DATUM_PATH), *command, *source)
    code, loaded, probed = json.loads(stdout.splitlines()[-1])
    assert code == 0
    assert probed == [], loaded


@pytest.mark.parametrize("command", [
    ["table", "--preset", "sl2"],
    ["verify", "--preset", "sl2", "--suite", "relations"],
], ids=["table", "verify-relations"])
def test_panel_command_loads_no_dataclasses(command):
    stdout = _fresh("-c", _PROBE, json.dumps(["dataclasses"]), *command)
    code, loaded, probed = json.loads(stdout.splitlines()[-1])
    assert code == 0
    assert "rigidhecke.repn" in loaded
    assert probed == [], loaded


def test_bare_import_loads_no_submodule():
    stdout = _fresh("-c", "import sys, rigidhecke; "
                          "print([m for m in sys.modules if m.startswith('rigidhecke.')])")
    assert stdout == "[]\n"


def test_every_export_resolves():
    import importlib

    names = [n for group in EXPORTS.values() for n in group]
    assert len(names) == 56
    assert sorted(rigidhecke.__all__) == sorted(names)
    star = {}
    exec("from rigidhecke import *", star)
    for module, group in EXPORTS.items():
        defining = importlib.import_module(f"rigidhecke.{module}")
        for name in group:
            assert getattr(rigidhecke, name) is getattr(defining, name), name
            assert star[name] is getattr(defining, name), name
    with pytest.raises(AttributeError):
        rigidhecke.no_such_export
