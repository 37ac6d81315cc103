"""Every check family can fail, and names its witness when it does.

``FAULTS`` maps a check family to one fault and the report the fault must
give: status ``fail`` and a pinned detail, not an exception.  A fault is a
monkeypatch of one primitive, or a context built with a wrong field, on sl2.
It is in place before any module it touches is built, since modules memoise
their matrices.  The table holds the six families that had no can-fail test;
``TESTED_ELSEWHERE`` names the test beside its suite of each other family, and
the coverage test checks that the two together are every family that
``tests/verify_reports.json`` pins.
"""

import importlib
import json
import pathlib

import pytest

from rigidhecke import conj, datumsuites, rigidtab
from rigidhecke.datumsuites import CLASS_COUNTS, datum_context, suite_classes, suite_counts
from rigidhecke.repn import FinDimModule


def _lose_a_class(monkeypatch, pc):
    """The class enumeration drops its last class."""
    real = datumsuites.newton_zero_classes
    monkeypatch.setattr(datumsuites, "newton_zero_classes", lambda wd, L=None: real(wd, L)[:-1])
    return suite_classes(datum_context(pc.wd, None, CLASS_COUNTS["sl2"]))


def _skip_the_empty_subset(monkeypatch, pc):
    """The count identity's sum over J leaves out J = ()."""
    real = conj._subset_reps
    monkeypatch.setattr(conj, "_subset_reps", lambda wd: [J for J in real(wd) if J])
    return suite_counts(datum_context(pc.wd))


def _blind_trace_at_one(monkeypatch, pc):
    """Every module's trace vanishes at the identity, so the row of class 1
    is zero; a fresh context builds its panel after the patch."""
    fresh = rigidtab.build_preset_context("sl2")
    one, zero = fresh.wd.identity(), fresh.ctx.zero()
    real = FinDimModule.trace
    monkeypatch.setattr(FinDimModule, "trace", lambda self, h: zero if h == one else real(self, h))
    return rigidtab.suite_density(fresh)


def _repeat_a_row(monkeypatch, pc):
    """A context whose third row repeats the first."""
    rows = [pc.rows[0], pc.rows[1], pc.rows[0]]
    bad = rigidtab.PresetContext(pc.manifest, pc.wd, pc.ctx, pc.classes, rows, pc.modules)
    return rigidtab.suite_pairing(bad)


def _a_root_of_the_determinant(monkeypatch, pc):
    """The admissible points take in q = -1, where det = -(q + 1)^2 vanishes."""
    monkeypatch.setattr(rigidtab, "ADMISSIBLE_POINTS", (2, -1))
    return rigidtab.suite_pairing(pc)


def _descend_to_the_identity(monkeypatch, pc):
    """The descent from t_{2ρ} stops at the identity, a Newton-zero class."""
    monkeypatch.setattr(rigidtab, "descend_to_minimal", lambda wd, e: ([wd.identity()], []))
    return rigidtab.suite_twist(pc)


# family: (the check that fails, the fault, its detail)
FAULTS = {
    "class-counts": ("class-counts", _lose_a_class, "2 Newton-zero classes, 1 elliptic"),
    "count-identity": (
        "count-identity",
        _skip_the_empty_subset,
        "sum_J |elliptic/N_J| = 2, |cl(W~)_0| = 3; J=[0]:2",
    ),
    "density-spot-check": (
        "density-spot-check", _blind_trace_at_one, "rank 2 of 3 on 8 columns at q=2"
    ),
    "pairing-det-nonzero": ("pairing-det-nonzero", _repeat_a_row, "determinant zero as a polynomial"),
    "pairing-nonsingular": ("pairing-nonsingular[q=-1]", _a_root_of_the_determinant, "rank 1 of 3"),
    "twist-negative-control": (
        "twist-negative-control",
        _descend_to_the_identity,
        "nonzero-Newton class [1] twist-dependent: False",
    ),
}


@pytest.mark.parametrize("family", sorted(FAULTS))
def test_the_check_fails_on_its_fault(family, monkeypatch, pc_sl2):
    name, fault, detail = FAULTS[family]
    (chk,) = [c for c in fault(monkeypatch, pc_sl2) if c.name == name]
    assert (chk.status, chk.detail) == ("fail", detail)


# family: "test module.test" that makes it fail
TESTED_ELSEWHERE = {
    "A-kills": "test_rigidtab.test_a_kills_fails_on_unprojected_elements",
    "A-squared": "test_rigidtab.test_a_squared_fails_on_a_nonconstant_ratio",
    "adjunction": "test_rigidtab.test_adjunction_failure_names_h",
    "bernstein-roundtrip": "test_rigidtab.test_bernstein_roundtrip_failure_names_h",
    "braid-relations": "test_rigidtab.test_braid_failure_names_pair",
    "class-invariants": "test_rigidtab.test_class_invariants_failure_names_omega_and_classes",
    "elliptic-rank": "test_rigidtab.test_elliptic_rank_and_a_squared_fail_when_a_vanishes",
    "im-associativity": "test_rigidtab.test_associativity_failure_names_triple",
    "length-inverse": "test_rigidtab.test_length_inverse_failure_names_element",
    "length-omega-invariance":
        "test_rigidtab.test_length_omega_invariance_failure_names_omega_and_element",
    "length-vs-bfs": "test_rigidtab.test_length_vs_bfs_failure_names_element",
    "mackey": "test_rigidtab.test_mackey_failure_names_probe",
    "minimality-certificate":
        "test_rigidtab.test_minimality_failure_names_generator_element_and_class",
    "module-relations": "test_repn.test_module_relations_fails_naming_its_family",
    "oracle-agreement": "test_rigidtab.test_oracle_agreement_failure_names_element",
    "pairing-at-q=-1": "test_rigidtab.test_pairing_at_minus_one_can_fail",
    "pairing-determinant": "test_rigidtab.test_determinant_check_fails_when_expected_does_not_divide",
    "theta-laws": "test_rigidtab.test_theta_laws_failure_names_pair",
    "twist-free": "test_rigidtab.test_twist_free_failure_names_the_leaking_rows",
}


def test_every_pinned_family_has_a_fault():
    """The families of the pinned reports (a check name up to its first "[")
    are the FAULTS keys and the TESTED_ELSEWHERE keys, and each test named
    there exists."""
    reports = json.loads((pathlib.Path(__file__).parent / "verify_reports.json").read_text())
    families = {name.split("[")[0] for rows in reports.values() for name, _, _ in rows}
    assert not FAULTS.keys() & TESTED_ELSEWHERE.keys()
    assert FAULTS.keys() | TESTED_ELSEWHERE.keys() == families
    for where in TESTED_ELSEWHERE.values():
        module, test = where.split(".")
        assert callable(getattr(importlib.import_module(module), test)), where
