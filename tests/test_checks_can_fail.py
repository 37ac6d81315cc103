"""Every check family can fail, and names its witness when it does.

``FAULTS`` maps a check family to one fault and the report the fault must
give: status ``fail`` and a pinned detail, not an exception.  A fault is a
monkeypatch of one primitive, or a context built with a wrong field, on sl2.
It is in place before any module it touches is built, since modules memoise
their matrices.  The table starts with the six families that had no can-fail
test; the others have theirs beside their suites.
"""

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


def _a_newton_zero_vector(monkeypatch, pc):
    """The strictly dominant vector is 0, whose translation is Newton-zero."""
    monkeypatch.setattr(rigidtab, "_strictly_dominant_vec", lambda wd: (0,) * wd.rank)
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
        _a_newton_zero_vector,
        "nonzero-Newton class [1] twist-dependent: False",
    ),
}


@pytest.mark.parametrize("family", sorted(FAULTS))
def test_the_check_fails_on_its_fault(family, monkeypatch, pc_sl2):
    name, fault, detail = FAULTS[family]
    (chk,) = [c for c in fault(monkeypatch, pc_sl2) if c.name == name]
    assert (chk.status, chk.detail) == ("fail", detail)
