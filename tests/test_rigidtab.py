"""Rigid tables: entry-by-entry match with the reference tables, determinant
identities, the extended-C2 specialization, golden files."""

import inspect

import pytest

from rigidhecke import rigidtab
from rigidhecke.datumsuites import (
    DATUM_SUITES,
    SUITES,
    datum_context,
    suite_classes,
    suite_counts,
    suite_lengths,
)
from rigidhecke.exactpoly import parse_poly

import oracles

# Reference 3x3 table for SL(2): rows T0, T1, 1; columns St, pi+, i_0(1).
SL2_TABLE = [
    ["-1", "-1", "Q - 1"],
    ["-1", "Q", "Q - 1"],
    ["1", "1", "2"],
]

# Reference 3x3 table for PGL(2): rows T1, tau, 1; columns St-, St+, i_0(1).
PGL2_TABLE = [
    ["-1", "-1", "Q - 1"],
    ["1", "-1", "0"],
    ["1", "1", "2"],
]

# Reference 9x9 affine-C2 table: rows T1T2, (T1T2)^2, T0T2, T0T1, (T0T1)^2,
# T0, T1, T2, 1; columns 2x0, 11x0, 0x2, 0x11, 1x1, i_{1}(St), i_{2}(St),
# i_{2}(pi+), i_0(1).
C2_COLUMNS = {
    "2x0": ["Q1*Q2", "Q1^2*Q2^2", "-Q2", "-Q1", "Q1^2", "-1", "Q1", "Q2", "1"],
    "11x0": ["-Q2", "Q2^2", "-Q2", "1", "1", "-1", "-1", "Q2", "1"],
    "0x2": ["-Q1", "Q1^2", "1", "-Q1", "Q1^2", "-1", "Q1", "-1", "1"],
    "0x11": ["1", "1", "1", "1", "1", "-1", "-1", "-1", "1"],
    "1x1": ["0", "-2*Q1*Q2", "1 - Q2", "1 - Q1", "Q1^2 + 1", "-2", "Q1 - 1", "Q2 - 1", "2"],
    "i_{1}(St)": [
        "1 - Q2",
        "Q2^2 - 2*Q1*Q2 + 1",
        "Q0*Q2 - Q0 - Q2 + 1",
        "1 - Q0",
        "Q0^2 - 2*Q0*Q1 + 1",
        "2*Q0 - 2",
        "Q1 - 3",
        "2*Q2 - 2",
        "4",
    ],
    "i_{2}(St)": [
        "1 - Q1",
        "Q1^2 - 2*Q1*Q2 + 1",
        "2 - Q0 - Q2",
        "1 - Q1",
        "Q1^2 - 2*Q0*Q1 + 1",
        "Q0 - 3",
        "2*Q1 - 2",
        "Q2 - 3",
        "4",
    ],
    "i_{2}(pi+)": [
        "Q1*Q2 - Q2",
        "Q1^2*Q2^2 + Q2^2 - 2*Q1*Q2",
        "Q0*Q2 + 1 - 2*Q2",
        "1 - Q1",
        "Q1^2 - 2*Q0*Q1 + 1",
        "Q0 - 3",
        "2*Q1 - 2",
        "3*Q2 - 1",
        "4",
    ],
    "i_0(1)": [
        "Q1*Q2 - Q1 - Q2 + 1",
        "Q1^2*Q2^2 + Q2^2 + Q1^2 + 1 - 4*Q1*Q2",
        "2*Q0*Q2 - 2*Q0 - 2*Q2 + 2",
        "Q0*Q1 - Q0 - Q1 + 1",
        "Q0^2*Q1^2 + Q1^2 + Q0^2 + 1 - 4*Q0*Q1",
        "4*Q0 - 4",
        "4*Q1 - 4",
        "4*Q2 - 4",
        "8",
    ],
}


def _assert_table(table, expected_rows):
    for i, row in enumerate(expected_rows):
        for j, text in enumerate(row):
            want = parse_poly(table.qtable, text)
            got = table.entries[i][j]
            assert got == want, (
                f"entry ({table.row_labels[i]}, {table.col_labels[j]}): "
                f"got {got.render()}, want {want.render()}"
            )


def test_sl2_table_reference_values(table_sl2):
    assert table_sl2.row_labels == ("T0", "T1", "1")
    assert table_sl2.col_labels == ("St", "pi+", "i_0(1)")
    _assert_table(table_sl2, SL2_TABLE)


def test_pgl2_table_reference_values(table_pgl2):
    assert table_pgl2.row_labels == ("T1", "tau", "1")
    assert table_pgl2.col_labels == ("St-", "St+", "i_0(1)")
    _assert_table(table_pgl2, PGL2_TABLE)


def test_c2_table_reference_values(table_c2):
    assert table_c2.row_labels == (
        "T1T2", "(T1T2)^2", "T0T2", "T0T1", "(T0T1)^2", "T0", "T1", "T2", "1",
    )
    expected = [
        [C2_COLUMNS[c][i] for c in table_c2.col_labels] for i in range(9)
    ]
    _assert_table(table_c2, expected)


def test_determinants(table_sl2, table_pgl2, table_c2, pc_sl2, pc_pgl2, pc_c2):
    for pc, table in ((pc_sl2, table_sl2), (pc_pgl2, table_pgl2), (pc_c2, table_c2)):
        chk = rigidtab.determinant_check(table, pc.manifest.det_product(table.qtable))
        assert chk.ok, chk.detail


def test_det_values():
    # the reference closed forms, spot-checked numerically at q = 2
    pc = rigidtab.build_preset_context("sl2")
    table = rigidtab.build_rigid_table(pc)
    det = table.det()
    assert det.evaluate({"Q": 2}).constant_value() == -9  # -(2+1)^2


def test_specialization_extended_c2(table_c2):
    chk = oracles.specialization_check_extended_c2(table_c2)
    assert chk.ok, chk.detail
    assert "c = -8" in chk.detail or "c = 8" in chk.detail


def test_row_permutation_flips_sign(table_sl2):
    from rigidhecke.exactpoly import PolyMatrix, det_bareiss

    m = [row[:] for row in table_sl2.entries]
    m[0], m[1] = m[1], m[0]
    assert det_bareiss(PolyMatrix(m)) == table_sl2.det() * -1


def test_entries_render_in_Q(pc_c2):
    # every preset entry admits a Q-rendering: certified during the build,
    # re-checked here through a direct trace
    mod = next(m for spec, m in zip(pc_c2.manifest.columns, pc_c2.modules) if spec.label == "i_0(1)")
    from rigidhecke.exactpoly import render_in_Q

    for rec in pc_c2.rows:
        render_in_Q(mod.trace(rec.rep))


def test_table_evaluate_errors(table_sl2):
    with pytest.raises(KeyError):
        table_sl2.evaluate({"nope": 2})
    with pytest.raises(KeyError):
        table_sl2.evaluate({})


def test_suites_pass_sl2(pc_sl2):
    checks = []
    checks += rigidtab.suite_relations(pc_sl2)
    checks += suite_lengths(pc_sl2)
    checks += suite_classes(pc_sl2)
    checks += rigidtab.suite_twist(pc_sl2)
    checks += rigidtab.suite_mackey(pc_sl2)
    checks += rigidtab.suite_adjunction(pc_sl2)
    checks += rigidtab.suite_pairing(pc_sl2)
    checks += rigidtab.suite_elliptic_rank(pc_sl2)
    checks += rigidtab.suite_a_kills_induced(pc_sl2)
    checks += rigidtab.suite_a_squared(pc_sl2)
    checks += rigidtab.suite_density(pc_sl2)
    checks += suite_counts(pc_sl2)
    bad = [c for c in checks if not c.ok]
    assert not bad, bad


def test_goldens(table_sl2, table_pgl2, table_c2, tmp_path):
    import json
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    for table in (table_sl2, table_pgl2, table_c2):
        for ext, text in (
            ("md", table.to_markdown()),
            ("csv", table.to_csv()),
            ("json", json.dumps(table.to_json_dict(), indent=2) + "\n"),
        ):
            path = golden_dir / f"{table.name}.{ext}"
            assert path.exists(), f"golden file {path} missing"
            assert path.read_text() == text, f"golden mismatch: {path}"


def test_T_O_well_defined_across_min_reps(pc_sl2, pc_pgl2, pc_c2):
    # all minimal-length representatives of a class give equal trace vectors
    # against the preset panel
    for pc in (pc_sl2, pc_pgl2, pc_c2):
        for rec in pc.classes:
            base = [mod.trace(rec.rep) for mod in pc.modules]
            for e in rec.min_reps:
                assert [mod.trace(e) for mod in pc.modules] == base


def test_pairing_at_minus_one_can_fail(pc_sl2):
    from rigidhecke.exactpoly import LaurentPoly

    def status(pc):
        return {c.name: c.status for c in rigidtab.suite_pairing(pc)}

    assert status(pc_sl2)["pairing-at-q=-1"] == "pass"
    wrong = pc_sl2.manifest._replace(det_product=lambda qt: LaurentPoly.const(qt, 1))
    pc_wrong = rigidtab.PresetContext(
        wrong, pc_sl2.wd, pc_sl2.ctx, pc_sl2.classes, pc_sl2.rows, pc_sl2.modules
    )
    assert status(pc_wrong)["pairing-at-q=-1"] == "fail"


def test_pairing_runs_one_determinant(monkeypatch):
    pc = rigidtab.build_preset_context("sl2")
    calls = []
    real = rigidtab.det_bareiss
    monkeypatch.setattr(rigidtab, "det_bareiss", lambda m: calls.append(m) or real(m))
    rigidtab.suite_pairing(pc)
    rigidtab.determinant_check(pc.table, pc.manifest.det_product(pc.table.qtable))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["sl3", "g2", "pgl3", "sl4", "sl2xsl2"])
def test_datum_family_suites(name):
    import pathlib

    from rigidhecke.rootdata import load_datum
    from rigidhecke.weyl import WeylData

    path = pathlib.Path(__file__).parent / "data" / f"{name}.json"
    pc = datum_context(WeylData(load_datum(str(path))))
    for suite in ("counts", "lengths", "classes"):
        checks = DATUM_SUITES[suite](pc)
        bad = [c for c in checks if not c.ok]
        assert checks and not bad, bad


def test_counts_suite_enumerates_the_group_once(monkeypatch):
    """The counts suite takes the context's classes: the datum's classes are
    enumerated only when the context is built, and the quotients are read
    from their class keys, so the suite grows no length ball at all."""
    import pathlib

    from rigidhecke.rootdata import load_datum
    from rigidhecke.weyl import WeylData

    path = pathlib.Path(__file__).parent / "data" / "sl4.json"
    pc = datum_context(WeylData(load_datum(str(path))))
    grown, keyed = [], []
    real_grow, real_keys = WeylData._extend_ball, WeylData.newton_zero_keys
    monkeypatch.setattr(WeylData, "_extend_ball", lambda wd, r: grown.append(wd) or real_grow(wd, r))
    monkeypatch.setattr(WeylData, "newton_zero_keys", lambda wd: keyed.append(wd) or real_keys(wd))
    (check,) = DATUM_SUITES["counts"](pc)
    assert check.ok
    assert not grown
    assert keyed and all(wd is not pc.wd for wd in keyed)


def test_all_is_every_suite_in_order_with_one_table(monkeypatch):
    """On a fresh context, "all" builds the panel, the table and the Ā
    elements at most once each, and runs the suites in the order of SUITES."""
    from functools import cached_property

    builds = {"modules": 0, "table": 0, "abar": 0}
    for name in builds:
        real = getattr(rigidtab.PresetContext, name).func

        def counted(pc, name=name, real=real):
            builds[name] += 1
            return real(pc)

        prop = cached_property(counted)
        prop.__set_name__(rigidtab.PresetContext, name)
        monkeypatch.setattr(rigidtab.PresetContext, name, prop)
    columns = []
    real_column = rigidtab.resolve_column
    monkeypatch.setattr(rigidtab, "resolve_column", lambda *a: columns.append(a) or real_column(*a))
    pc = rigidtab.build_preset_context("sl2")
    every = rigidtab.run_suite(pc, "all")
    # the relations suite builds the panel, and the context keeps it
    assert builds == {"modules": 0, "table": 1, "abar": 1}
    assert len(columns) == len(pc.manifest.columns)
    assert SUITES[-1] == "all"
    assert every == [c for s in SUITES[:-1] for c in rigidtab.run_suite(pc, s)]


# -- failing checks name their witness ------------------------------------------------
# Each test breaks the operation a check tests and asserts that the failure
# detail names the probe, triple, element or pair at which it failed.


def _check_named(checks, name):
    (chk,) = [c for c in checks if c.name == name]
    assert chk.status == "fail"
    return chk.detail


def _bare_sl2():
    """A fresh sl2 context without module columns: the fakes below may
    poison its caches, and the module certificates are not under test."""
    pc = rigidtab.build_preset_context("sl2")
    return rigidtab.PresetContext(pc.manifest, pc.wd, pc.ctx, pc.classes, pc.rows, [])


def test_mackey_failure_names_probe(pc_sl2, monkeypatch):
    real = rigidtab.induce_in_parabolic

    class Skewed:
        """A piece whose character is off by 1 at the probes with x = -e_0."""

        def __init__(self, mod):
            self.mod = mod

        def trace_parabolic(self, p):
            out = self.mod.trace_parabolic(p)
            return out + 1 if any(x == (-1,) for x, _ in p.c) else out

    monkeypatch.setattr(rigidtab, "induce_in_parabolic", lambda *a: Skewed(real(*a)))
    detail = _check_named(rigidtab.suite_mackey(pc_sl2), "mackey[K=[],J=[]]")
    assert detail == "character identity fails at the probe θ_x T_w with x = (-1,), w = 1"


def test_associativity_failure_names_triple(monkeypatch):
    from rigidhecke.hecke import HeckeElt

    pc = _bare_sl2()
    calls = []
    real = HeckeElt.__mul__

    def skewed(a, b):  # (ab)c - a(bc) = ac under this product
        calls.append((a, b))
        return real(a, b) + a

    monkeypatch.setattr(HeckeElt, "__mul__", skewed)
    detail = _check_named(rigidtab.suite_relations(pc), "im-associativity")
    (a,), (b,), (c,) = calls[0][0].c, calls[0][1].c, calls[1][1].c
    labels = ", ".join(pc.wd.label(e) for e in (a, b, c))
    assert detail == f"(T_a T_b) T_c != T_a (T_b T_c) at (a, b, c) = ({labels})"


def test_bernstein_roundtrip_failure_names_h(monkeypatch):
    from rigidhecke.hecke import HeckeContext

    pc = _bare_sl2()
    seen = []
    real = HeckeContext.im_to_bernstein

    def shifted(ctx, h):
        seen.append(h)
        return real(ctx, h + ctx.unit())

    monkeypatch.setattr(HeckeContext, "im_to_bernstein", shifted)
    detail = _check_named(rigidtab.suite_relations(pc), "bernstein-roundtrip")
    # nothing after the round trip converts to Bernstein form
    assert detail == f"IM -> Bernstein -> IM changes h = {seen[-1].render()}"


def test_adjunction_failure_names_h(pc_sl2, monkeypatch):
    from rigidhecke.hecke import HeckeContext

    seen = []
    real = HeckeContext.bar_restrict

    def shifted(ctx, h, J):
        seen.append(h)
        return real(ctx, h + ctx.unit(), J)

    monkeypatch.setattr(HeckeContext, "bar_restrict", shifted)
    detail = _check_named(rigidtab.suite_adjunction(pc_sl2), "adjunction[J=[]]")
    assert detail == f"tr(i_J σ, h) != tr(σ, r̄_J h) at h = {seen[0].render()}"


def test_braid_failure_names_pair(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _bare_sl2()
    real = WeylData.bond_order
    # s0 and s1 generate an infinite dihedral group: with m = 2 the braid relation is false
    monkeypatch.setattr(WeylData, "bond_order", lambda wd, i, j: 2 if {i, j} == {0, 1} else real(wd, i, j))
    assert [s.name for s in pc.wd.affine_simple] == ["s0", "s1"]
    detail = _check_named(rigidtab.suite_relations(pc), "braid-relations")
    assert detail == "alternating products differ at (s0, s1) with m = 2"


def test_theta_laws_failure_names_pair(monkeypatch):
    from rigidhecke.hecke import HeckeContext

    pc = _bare_sl2()
    seen = []
    real = HeckeContext.theta_im

    def skewed(ctx, x):  # θ_(1) off by 1: the laws fail for x or y = (1,), the other nonzero
        seen.append(tuple(x))
        out = real(ctx, x)
        return out + ctx.unit() if tuple(x) == (1,) else out

    monkeypatch.setattr(HeckeContext, "theta_im", skewed)
    detail = _check_named(rigidtab.suite_relations(pc), "theta-laws")
    x, y, _x_plus_y = seen[-3:]  # the failing draw asks for θ_x, θ_y, θ_{x+y}
    assert (1,) in (x, y) and (0,) not in (x, y)
    assert detail == f"θ_x θ_y = θ_y θ_x = θ_{{x+y}} fails at (x, y) = {(x, y)}"


def test_twist_free_failure_names_the_leaking_rows(pc_sl2, monkeypatch):
    from rigidhecke.repn import FinDimModule

    real = FinDimModule.trace
    one = pc_sl2.wd.identity()

    def leaky(mod, h):  # a trace at 1 over a twisted algebra picks up its first twist variable
        tr = real(mod, h)
        names = mod.alg.twist_names
        return tr * mod.alg.table.gen(names[0]) if names and one == h else tr

    # patched before suite_twist builds (and certifies) its twisted modules
    monkeypatch.setattr(FinDimModule, "trace", leaky)
    detail = _check_named(rigidtab.suite_twist(pc_sl2), "twist-free[i_0(1)]")
    assert detail == "twist variables leaked into rows ['1']"


def test_specialization_ext_c2_fails_on_a_nonconstant_quotient(table_c2, monkeypatch):
    real = oracles.c2_ext_specialized_det

    def short(qt):  # the product without its factor (1 + q1 q2): the quotient is that factor
        q1, q2 = qt.gen("Q1"), qt.gen("Q2")
        return real(qt).exact_div(q1 * q2 + 1)

    monkeypatch.setattr(oracles, "c2_ext_specialized_det", short)
    chk = oracles.specialization_check_extended_c2(table_c2)
    assert chk.status == "fail"
    assert chk.detail.startswith("quotient not constant")


def test_cli_suite_names_are_the_suite_table():
    """SUITES names every suite once: each is a datum suite or a panel suite,
    never both, and the run order of "all" is the order of SUITES."""
    assert SUITES[-1] == "all"
    assert len(set(SUITES)) == len(SUITES)
    assert set(SUITES[:-1]) == set(DATUM_SUITES) | set(rigidtab.PANEL_SUITES)
    assert not set(DATUM_SUITES) & set(rigidtab.PANEL_SUITES)
    assert tuple(rigidtab._SUITE_TABLE) == SUITES[:-1]
    for runs in rigidtab._SUITE_TABLE.values():
        for run in runs:
            assert len(inspect.signature(run).parameters) == 1  # the context alone


# -- the fail branches of the pairing checks ---------------------------------------
# A fresh sl2 context is given wrong Ā elements; the table and panel are real.


def _sl2_with_abar(make):
    """A fresh sl2 context whose Ā element of each class O is make(ctx, O)."""
    pc = rigidtab.build_preset_context("sl2")
    pc.abar = {rec.label: make(pc.ctx, rec) for rec in pc.classes}
    return pc


def test_elliptic_rank_and_a_squared_fail_when_a_vanishes():
    pc = _sl2_with_abar(lambda ctx, rec: ctx.elt({}))
    checks = rigidtab.suite_elliptic_rank(pc) + rigidtab.suite_a_squared(pc)
    for q in rigidtab.ADMISSIBLE_POINTS:
        detail = _check_named(checks, f"elliptic-rank[q={q}]")
        assert detail == "A-projected elliptic block rank 0, expected 2"
    assert _check_named(checks, "A-squared") == "A vanished on the elliptic column"


def test_a_kills_fails_on_unprojected_elements():
    pc = _sl2_with_abar(lambda ctx, rec: ctx.T(rec.rep))
    detail = _check_named(rigidtab.suite_a_kills_induced(pc), "A-kills[i_0(1)]")
    assert detail == "nonzero at ['1', 's0', 's1']"


def test_a_squared_fails_on_a_nonconstant_ratio():
    # on St, tr(T_O) = -1 and tr(Ā T_O) = Q + 1 for both elliptic classes
    pc = _sl2_with_abar(lambda ctx, rec: ctx.T(rec.rep))
    pc.abar = {lab: h for lab, h in pc.abar.items() if lab != "1"}
    detail = _check_named(rigidtab.suite_a_squared(pc), "A-squared")
    assert detail == "ratio -1*v^2 - 1 not constant"


def test_determinant_check_fails_when_expected_does_not_divide(table_sl2):
    expected = table_sl2.qtable.gen("Q") + 2
    chk = rigidtab.determinant_check(table_sl2, expected)
    assert chk.status == "fail"
    assert chk.detail == "det = -1*Q^2 - 2*Q - 1 does not divide by expected"


def test_determinant_checks_let_a_defect_through(table_sl2, table_c2, monkeypatch):
    """Only a failed division is a failed check; any other error propagates."""
    from rigidhecke.exactpoly import LaurentPoly

    def broken(*_args):
        raise RuntimeError("injected")

    expected = table_sl2.qtable.gen("Q")
    table_sl2.det(), table_c2.det()  # computed before the division breaks
    monkeypatch.setattr(LaurentPoly, "exact_div", broken)
    with pytest.raises(RuntimeError, match="injected"):
        rigidtab.determinant_check(table_sl2, expected)
    with pytest.raises(RuntimeError, match="injected"):
        oracles.specialization_check_extended_c2(table_c2)


# -- failing datum checks name their witness ---------------------------------------


def _datum_pc(name):
    from rigidhecke.rootdata import preset
    from rigidhecke.weyl import WeylData

    return datum_context(WeylData(preset(name)))


def test_length_inverse_failure_names_element(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _datum_pc("sl2")
    s1 = pc.wd.generator_elt("s1")
    real = WeylData.inv
    monkeypatch.setattr(WeylData, "inv", lambda wd, e: wd.identity() if e == s1 else real(wd, e))
    detail = _check_named(suite_lengths(pc), "length-inverse")
    assert detail == f"l(e) != l(e^-1) at e = {pc.wd.render(s1)}"


def test_length_omega_invariance_failure_names_omega_and_element(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _datum_pc("pgl2")
    s1 = pc.wd.generator_elt("s1")
    real = WeylData.conjugate
    monkeypatch.setattr(
        WeylData, "conjugate", lambda wd, g, e: wd.identity() if e == s1 else real(wd, g, e)
    )
    detail = _check_named(suite_lengths(pc), "length-omega-invariance")
    assert detail == f"l(ω e ω^-1) != l(e) at ω = tau, e = {pc.wd.render(s1)}"


def test_minimality_failure_names_generator_element_and_class(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _datum_pc("sl2")
    (rec,) = [r for r in pc.classes if r.label == "s0"]
    s1 = pc.wd.generator_elt("s1")
    real = WeylData.conjugate

    def shortened(wd, g, e):  # s1 e s1 has length 0 for the minimal e of [s0]
        return wd.identity() if (g, e) == (s1, rec.rep) else real(wd, g, e)

    monkeypatch.setattr(WeylData, "conjugate", shortened)
    detail = _check_named(suite_classes(pc), "minimality-certificate")
    assert detail == f"the move s e s with s = s1 shortens e = {pc.wd.render(rec.rep)} of class [s0]"


def test_class_invariants_failure_names_omega_and_classes(monkeypatch):
    from rigidhecke import datumsuites

    pc = _datum_pc("pgl2")
    first, second = pc.classes[:2]
    monkeypatch.setattr(datumsuites, "classify", lambda wd, e, classes: first)
    detail = _check_named(suite_classes(pc), "class-invariants")
    assert detail == f"conjugation by tau moves class [{second.label}] to [{first.label}]"


def test_class_invariants_failure_names_elliptic_witness(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _datum_pc("sl2")
    rec = next(r for r in pc.classes if r.elliptic)
    monkeypatch.setattr(WeylData, "is_elliptic", lambda wd, e: False)
    detail = _check_named(suite_classes(pc), "class-invariants")
    assert detail == (
        f"the elliptic flag of class [{rec.label}] differs at e = {pc.wd.render(rec.min_reps[0])}"
    )


def test_length_vs_bfs_failure_names_element(monkeypatch):
    from rigidhecke.weyl import WeylData

    pc = _datum_pc("sl2")
    s1 = pc.wd.generator_elt("s1")
    real = WeylData.word
    monkeypatch.setattr(WeylData, "word", lambda wd, e: real(wd, e) + (("s1",) if e == s1 else ()))
    detail = _check_named(suite_lengths(pc), "length-vs-bfs[radius=8]")
    assert detail == f"BFS word length 2 != l(e) = 1 at e = {pc.wd.render(s1)}"


def test_oracle_agreement_failure_names_element(monkeypatch):
    from rigidhecke import datumsuites
    from rigidhecke.conj import key_partition

    pc = _datum_pc("sl2")
    wd = pc.wd
    monkeypatch.setattr(datumsuites, "oracle_partition", lambda wd, elems, radius: [[e] for e in elems])
    detail = _check_named(suite_classes(pc), "oracle-agreement[radius=6]")
    # every oracle class is a singleton: the witness is the first element, in ball order,
    # of a key class with two or more (key_partition keeps ball order)
    elems = [e for e in wd.enumerate_ball(6) if wd.has_finite_order(e)]
    e = next(g for g in key_partition(wd, elems) if len(g) > 1)[0]
    assert detail == f"the key class and the oracle class of e = {wd.render(e)} differ"
