"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

All symbolic comparisons are exact; numeric checks use exact rationals.
Stated runtime limits are asserted with wall-clock timing on fresh builds.
"""

import random
import time
from fractions import Fraction

import pytest

from rigidhecke import rigidtab
from rigidhecke.conj import count_identity_check, newton_zero_classes
from rigidhecke.datumsuites import suite_lengths
from rigidhecke.exactpoly import parse_poly, render_in_Q
from rigidhecke.rootdata import preset
from rigidhecke.weyl import WeylData

from conftest import bare_context
from oracles import specialization_check_extended_c2
from test_rigidtab import C2_COLUMNS, PGL2_TABLE, SL2_TABLE, _assert_table


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_sl2_table():
    t0 = time.monotonic()
    pc = rigidtab.build_preset_context("sl2")
    table = rigidtab.build_rigid_table(pc)
    _assert_table(table, SL2_TABLE)
    chk = rigidtab.determinant_check(table, pc.manifest.det_product(table.qtable))
    elapsed = time.monotonic() - t0
    report(
        1,
        chk.ok and elapsed < 5.0,
        f"SL(2) table matches entry-by-entry, det = -(q+1)^2 up to sign, {elapsed:.2f}s",
    )


def test_criterion_2_pgl2_table():
    t0 = time.monotonic()
    pc = rigidtab.build_preset_context("pgl2")
    table = rigidtab.build_rigid_table(pc)
    _assert_table(table, PGL2_TABLE)
    chk = rigidtab.determinant_check(table, pc.manifest.det_product(table.qtable))
    elapsed = time.monotonic() - t0
    report(
        2,
        chk.ok and elapsed < 5.0,
        f"PGL(2) table matches entry-by-entry, det = 2(q+1) up to sign, {elapsed:.2f}s",
    )


def test_criterion_3_c2_table():
    t0 = time.monotonic()
    pc = rigidtab.build_preset_context("c2-aff")
    table = rigidtab.build_rigid_table(pc)
    expected = [[C2_COLUMNS[c][i] for c in table.col_labels] for i in range(9)]
    _assert_table(table, expected)
    chk = rigidtab.determinant_check(table, pc.manifest.det_product(table.qtable))
    elapsed = time.monotonic() - t0
    report(
        3,
        chk.ok and elapsed < 600.0,
        f"affine C2 9x9 matches entry-by-entry, det = product formula up to sign, {elapsed:.2f}s",
    )


def test_criterion_4_extended_c2(table_c2):
    chk = specialization_check_extended_c2(table_c2)
    report(4, chk.ok, f"specialization q0->1, q1<->q2: {chk.detail}")


def test_criterion_5_class_counts():
    expected = {"sl2": (3, 2), "pgl2": (3, 2), "c2-aff": (9, 5), "c2-ext": (9, 5)}
    details = []
    ok = True
    for name, (want, want_ell) in expected.items():
        wd = WeylData(preset(name))
        classes = newton_zero_classes(wd, 8)
        n_ell = sum(1 for r in classes if r.elliptic)
        rep = count_identity_check(wd)
        good = len(classes) == want and rep.ok
        if name in ("c2-aff", "c2-ext"):
            good = good and n_ell == want_ell
        ok = ok and good
        details.append(f"{name}: {len(classes)} classes ({n_ell} elliptic), identity {rep.total}={rep.expected}")
    report(5, ok, "; ".join(details))


def test_criterion_6_separation(pc_sl2, pc_pgl2, pc_c2):
    ok = True
    details = []
    for pc in (pc_sl2, pc_pgl2, pc_c2):
        checks = rigidtab.suite_twist(pc)
        good = all(c.ok for c in checks)
        ok = ok and good
        details.append(f"{pc.manifest.name}: {len(checks)} checks")
    report(6, ok, "twist-free entries + nonzero-Newton negative control; " + "; ".join(details))


def test_criterion_7_duality(pc_sl2, pc_pgl2, pc_c2):
    expected_rank = {"sl2": 2, "pgl2": 2, "c2-aff": 5}
    ok = True
    details = []
    for pc in (pc_sl2, pc_pgl2, pc_c2):
        checks = rigidtab.suite_pairing(pc)
        rank_checks = rigidtab.suite_elliptic_rank(pc)
        good = all(c.ok for c in checks + rank_checks)
        n_ell = sum(1 for r in pc.classes if r.elliptic)
        good = good and n_ell == expected_rank[pc.manifest.name]
        ok = ok and good
        details.append(f"{pc.manifest.name}: nonsingular at q=2,3,5, elliptic rank {n_ell}")
    report(7, ok, "; ".join(details))


def test_criterion_8_basis_density(pc_sl2, pc_pgl2, pc_c2):
    ok = True
    details = []
    for pc in (pc_sl2, pc_pgl2, pc_c2):
        dens = rigidtab.suite_density(pc)
        good = all(c.ok for c in dens)
        # 20 random elements of length <= 6: reduction reproduces traces exactly
        rng = random.Random(2026)
        ctx = pc.ctx
        wd = pc.wd
        ball = wd.enumerate_ball(6)
        for _ in range(20):
            e = rng.choice(ball)
            comb = ctx.cocenter_reduce(e, pc.classes, extend=True)
            for mod in pc.modules:
                lhs = mod.trace(e)
                rhs = ctx.zero()
                for rec, c in comb.entries:
                    rhs = rhs + c * mod.trace(rec.rep)
                if lhs != rhs:
                    good = False
        ok = ok and good
        details.append(f"{pc.manifest.name}: density rank full, 20 reductions trace-exact")
    report(8, ok, "; ".join(details))


@pytest.mark.parametrize("name", ["sl2", "pgl2", "c2-aff", "c2-ext"])
def test_criterion_9_structural_suites(name, request):
    if name == "c2-ext":
        # no table module panel: run the panel-independent suites on a
        # bare context (Mackey/adjunction build their own quotient modules)
        pc = bare_context(WeylData(preset(name)))
    else:
        pc = request.getfixturevalue({"sl2": "pc_sl2", "pgl2": "pc_pgl2", "c2-aff": "pc_c2"}[name])
    timings = {}
    suites = {
        "relations": lambda: rigidtab.suite_relations(pc),
        "lengths": lambda: suite_lengths(pc),
        "mackey": lambda: rigidtab.suite_mackey(pc),
        "adjunction": lambda: rigidtab.suite_adjunction(pc),
    }
    if name != "c2-ext":
        suites["A-kills+A2"] = lambda: rigidtab.suite_a_kills_induced(pc) + rigidtab.suite_a_squared(pc)
    ok = True
    for label, fn in suites.items():
        t0 = time.monotonic()
        checks = fn()
        dt = time.monotonic() - t0
        timings[label] = dt
        good = all(c.ok for c in checks) and dt < 120.0
        ok = ok and good
    report(
        9 if name == "sl2" else f"9[{name}]",
        ok,
        f"{name}: " + ", ".join(f"{k} {v:.1f}s" for k, v in timings.items()),
    )
