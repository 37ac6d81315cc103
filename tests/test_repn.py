"""Modules: certificates, constructors, traces, twists, the A-projector on traces."""

import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from rigidhecke.conj import newton_zero_classes
from rigidhecke.exactpoly import LaurentPoly, PolyMatrix, render_in_Q
from rigidhecke.hecke import HeckeContext
from rigidhecke.repn import (
    FinDimModule,
    RelationFailed,
    TwistChar,
    induce,
    induce_in_parabolic,
    inflate_chi_t,
    lift_from_parahoric,
    one_dim_module,
    one_dim_modules,
    restrict,
    twist_by,
)
from rigidhecke.rootdata import preset
from rigidhecke.weyl import WeylData

from oracles import apply_iKrK

_CACHE = {}


def ctx_of(name, **kw):
    key = (name, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = HeckeContext(WeylData(preset(name)), **kw)
    return _CACHE[key]


def test_one_dim_counts_and_signatures():
    mods = one_dim_modules(ctx_of("sl2"))
    assert len(mods) == 4
    sigs = {
        (m.tmat["s0"].trace().render(), m.tmat["s1"].trace().render()) for m in mods
    }
    assert sigs == {
        ("-1", "-1"),
        ("-1", "1*v1^2"),
        ("1*v0^2", "-1"),
        ("1*v0^2", "1*v1^2"),
    }
    modsp = one_dim_modules(ctx_of("pgl2"))
    assert len(modsp) == 4
    taus = sorted(m.tmat["tau"].trace().render() for m in modsp)
    assert taus == ["-1", "-1", "1", "1"]
    # affine C2 has eight one-dimensional modules (each T_i in {-1, q_i})
    assert len(one_dim_modules(ctx_of("c2-aff"))) == 8


def test_certificates_and_corruption():
    ctx = ctx_of("sl2")
    mods = one_dim_modules(ctx)
    st = next(
        m
        for m in mods
        if m.tmat["s0"].trace().render() == "-1" and m.tmat["s1"].trace().render() == "-1"
    )
    assert "quadratic" in st.verify_relations()
    broken = PolyMatrix([[LaurentPoly.const(ctx.table, 7)]])
    corrupt = FinDimModule(
        ctx, st.scope, st.dim, {**st.tmat, "s1": broken}, st.theta_pos, st.theta_neg
    )
    with pytest.raises(RelationFailed):
        corrupt.verify_relations()
    st.verify_relations()
    with pytest.raises(AttributeError):
        st.tmat = {}
    with pytest.raises(TypeError):
        st.tmat["s1"] = broken


def test_module_relations_fails_naming_its_family(capsys, monkeypatch):
    """A column whose constructor finds a relation false is a failing
    ``module-relations`` row that names the relation family; the command
    exits 1 without an ``error:`` line."""
    from rigidhecke import cli, rigidtab

    # the 2x0 column gets T_s1 = 7, which is not a root of the quadratic
    man = rigidtab.MANIFESTS["c2-aff"]
    columns = tuple(
        spec._replace(signature={**spec.signature, "s1": "7"}) if spec.label == "2x0" else spec
        for spec in man.columns
    )
    monkeypatch.setitem(rigidtab.MANIFESTS, "c2-aff", man._replace(columns=columns))
    code = cli.main(["verify", "--preset", "c2-aff", "--suite", "relations"])
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert code == 1 and "error:" not in err
    assert [(c["name"], c["detail"]) for c in checks if c["status"] == "fail"] == [
        ("module-relations[2x0]", "quadratic s1")
    ]
    assert len(checks) == 13


def test_relations_are_proved_once_per_module(monkeypatch):
    """Each module's check body runs at most once, in its constructor:
    ``restrict`` runs none, and the relations suite reads the certificates
    of the columns it builds."""
    from rigidhecke import rigidtab

    bodies, calls, restricted = [], [], []
    real_verify, real_restrict = FinDimModule.verify_relations, rigidtab.restrict

    def verify(mod):
        calls.append(mod)
        if not mod._relations:
            bodies.append(mod)
        return real_verify(mod)

    monkeypatch.setattr(FinDimModule, "verify_relations", verify)
    monkeypatch.setattr(rigidtab, "restrict", lambda *a: restricted.append(real_restrict(*a)) or restricted[-1])
    pc = rigidtab.build_preset_context("c2-aff")
    assert all(c.ok for c in rigidtab.run_suite(pc, "mackey"))
    assert len(restricted) == 57 and bodies
    assert len({id(m) for m in bodies}) == len(bodies)
    assert not {id(m) for m in bodies} & {id(m) for m in restricted}
    # a restriction inherits its source's certificate, less the full-algebra families
    n_bodies = len(bodies)
    for m in restricted:
        assert m.verify_relations() == ["quadratic", "braid", "theta-group", "bernstein-lusztig"]
    assert len(bodies) == n_bodies

    bodies.clear()
    calls.clear()
    checks = rigidtab.run_suite(pc, "relations")
    assert all(c.ok for c in checks)
    panel = pc.modules  # the columns the suite built, adopted as the panel
    assert len(panel) == 9 and len({id(m) for m in bodies}) == len(bodies)
    for mod in panel:
        assert sum(m is mod for m in bodies) == 1 and sum(m is mod for m in calls) == 2


def test_trivial_module_certificate():
    for name in ("sl2", "pgl2", "c2-aff"):
        ctx = ctx_of(name)
        mods = one_dim_modules(ctx)
        triv = [
            m
            for m in mods
            if all(
                m.tmat[s.name].trace() == ctx.Q_of_sa[ctx.wd.sa_index[s.name]]
                for s in ctx.wd.affine_simple
            )
        ]
        assert len(triv) >= 1


def test_lift_traces_match_finite_c2_table():
    ctx = ctx_of("c2-aff")
    wd = ctx.wd
    mone = LaurentPoly.const(ctx.table, -1)
    lift = lift_from_parahoric(ctx, ("s1", "s2"), {"s0": mone})
    assert lift.dim == 2
    e12 = wd.evaluate_word(["s1", "s2"])
    assert lift.trace(e12).is_zero()
    sq = wd.evaluate_word(["s1", "s2", "s1", "s2"])
    got = render_in_Q(lift.trace(sq)).render()
    assert got == "-2*Q1*Q2"
    q1, q2 = (ctx.Q_of_sa[wd.sa_index[n]] for n in ("s1", "s2"))
    m20 = one_dim_module(ctx, {"s0": mone, "s1": q1, "s2": q2})
    assert render_in_Q(m20.trace(e12)).render() == "1*Q1*Q2"


def test_sl2_lift_is_steinberg():
    ctx = ctx_of("sl2")
    mone = LaurentPoly.const(ctx.table, -1)
    st = one_dim_module(ctx, {"s0": mone, "s1": mone})
    assert st.trace(ctx.wd.generator_elt("s1")).render() == "-1"
    assert st.trace(ctx.wd.generator_elt("s0")).render() == "-1"


def test_induce_dimension_law():
    ctx = ctx_of("c2-aff")
    for J, dim in (((), 8), ((0,), 4), ((1,), 4)):
        qa = ctx.quotient_algebra(J)
        sigma = inflate_chi_t(qa, one_dim_modules(qa.ctx)[0])
        mod = induce(ctx, J, sigma)
        assert mod.dim == len(ctx.wd.minimal_coset_reps(J)) * sigma.dim


def test_trace_of_identity_is_dim():
    ctx = ctx_of("sl2")
    qa = ctx.quotient_algebra(())
    mod = induce(ctx, (), inflate_chi_t(qa, one_dim_modules(qa.ctx)[0]))
    assert mod.trace(ctx.wd.identity()) == LaurentPoly.const(ctx.table, 2)


def test_inflate_trivial_twist_is_pullback():
    ctx = ctx_of("c2-aff")
    qa = ctx.quotient_algebra((1,))
    sigma = one_dim_modules(qa.ctx)[0]
    mod = inflate_chi_t(qa, sigma)
    for i in range(ctx.wd.rank):
        e = [0] * ctx.wd.rank
        e[i] = 1
        assert mod.theta_pos[i] == sigma.theta_of(qa.quot.project(e))


def test_twist_composition():
    ctx = ctx_of("sl2", n_twist=1)
    qa = ctx.quotient_algebra(())
    sigma = one_dim_modules(qa.ctx)[0]
    t2 = TwistChar(qa, values=[Fraction(2)])
    t3 = TwistChar(qa, values=[Fraction(3)])
    t6 = TwistChar(qa, values=[Fraction(6)])
    a = inflate_chi_t(qa, sigma, t6)
    b = inflate_chi_t(qa, sigma, t2)
    # inflate(t2 * t3) == scale thetas of inflate(t2) by t3: check on theta_pos
    c = inflate_chi_t(qa, sigma, t3)
    for i in range(ctx.wd.rank):
        assert a.theta_pos[i] == b.theta_pos[i] * c.theta_pos[i]


def test_restrict_and_twist_identities():
    ctx = ctx_of("c2-aff")
    qa = ctx.quotient_algebra((0,))
    sigma = inflate_chi_t(qa, one_dim_modules(qa.ctx)[0])
    mod = induce(ctx, (0,), sigma)
    full = restrict(mod, (0, 1))
    assert full.tmat["s1"] == mod.tmat["s1"]
    again = twist_by(restrict(mod, (0,)), 0, (0,))  # twist by identity
    assert again.tmat["s1"] == mod.tmat["s1"]
    assert again.theta_pos == mod.theta_pos


def test_reduced_word_independence():
    ctx = ctx_of("c2-aff")
    wd = ctx.wd
    mod = lift_from_parahoric(ctx, ("s1", "s2"), {"s0": LaurentPoly.const(ctx.table, -1)})
    # two reduced words for the braid element s1 s2 s1 s2 = s2 s1 s2 s1
    a = PolyMatrix.identity(ctx.table, mod.dim)
    for n in ("s1", "s2", "s1", "s2"):
        a = a * mod.tmat[n]
    b = PolyMatrix.identity(ctx.table, mod.dim)
    for n in ("s2", "s1", "s2", "s1"):
        b = b * mod.tmat[n]
    assert a == b
    # act_elt goes through the BFS word; it must agree with direct folding
    e = wd.evaluate_word(["s1", "s2", "s1", "s2"])
    assert mod.act_elt(e) == a


def test_induction_in_stages():
    ctx = ctx_of("c2-aff")
    classes = newton_zero_classes(ctx.wd, 8)
    qa0 = ctx.quotient_algebra(())
    sigma = inflate_chi_t(qa0, one_dim_modules(qa0.ctx)[0])
    direct = induce(ctx, (), sigma)
    for J in ((0,), (1,)):
        staged_inner = induce_in_parabolic(ctx, J, (), sigma)
        staged = induce(ctx, J, staged_inner)
        assert staged.dim == direct.dim
        for rec in classes:
            assert staged.trace(rec.rep) == direct.trace(rec.rep)


def test_apply_iKrK_matches_adjoint_route():
    rng = random.Random(6)
    # module-level i_K r_K versus the bar-adjoint on the element side
    for name, Ks in (("sl2", [()]), ("pgl2", [()]), ("c2-aff", [(0,), (1,)])):
        ctx = ctx_of(name)
        wd = ctx.wd
        mods = one_dim_modules(ctx)
        mod = mods[0]
        ball = wd.enumerate_ball(3)
        for K in Ks:
            big = apply_iKrK(mod, K)
            for _ in range(5):
                h = ctx.T(rng.choice(ball))
                lhs = big.trace(h)
                rhs = mod.trace(ctx.adjoint_iJ_rJ(h, K))
                assert lhs == rhs


def test_A_kills_induced_and_A_squared():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    classes = newton_zero_classes(wd, 8)
    qa = ctx.quotient_algebra(())
    ind = induce(ctx, (), inflate_chi_t(qa, one_dim_modules(qa.ctx)[0]))
    for rec in classes:
        assert ind.trace(ctx.adjoint_A(ctx.T(rec.rep))).is_zero()
    # A^2 = a A on the Steinberg, with a recovered (not assumed)
    mods = one_dim_modules(ctx)
    st = next(
        m
        for m in mods
        if m.tmat["s0"].trace().render() == "-1" and m.tmat["s1"].trace().render() == "-1"
    )
    f = {rec.label: st.trace(ctx.adjoint_A(ctx.T(rec.rep))) for rec in classes}
    g = {rec.label: st.trace(ctx.adjoint_A(ctx.adjoint_A(ctx.T(rec.rep)))) for rec in classes}
    a_val = None
    for lab in f:
        if not f[lab].is_zero():
            a_val = g[lab].exact_div(f[lab])
            break
    assert a_val is not None
    assert a_val.constant_value() != 0
    for lab in f:
        assert g[lab] == f[lab] * a_val


def test_A_on_rank_zero_datum():
    from rigidhecke.rootdata import BasedRootDatum

    wd = WeylData(BasedRootDatum("pt", 0, (), ()))
    ctx = HeckeContext(wd)
    mods = one_dim_modules(ctx)
    assert len(mods) == 1 and mods[0].dim == 1
    # Pi = emptyset: A is the empty composition, i.e. the identity scalar
    assert mods[0].trace(ctx.adjoint_A(ctx.unit())) == LaurentPoly.const(ctx.table, 1)


def test_mackey_spot_check_with_twist():
    # sl2: restrict(i_0(1_z), emptyset) carries z-dependent theta trace
    ctx = ctx_of("sl2", n_twist=1)
    qa = ctx.quotient_algebra(())
    sigma = inflate_chi_t(qa, one_dim_modules(qa.ctx)[0], TwistChar(qa, symbolic=True))
    mod = induce(ctx, (), sigma)
    par = ctx.parabolic(())
    theta_probe = par.elt({((1,), 0): ctx.one()})
    tr = restrict(mod, ()).trace_parabolic(theta_probe)
    assert tr.uses_variable("z0")


def test_parabolic_one_dims_with_twist():
    ctx = ctx_of("c2-aff", n_twist=2)
    qa = ctx.quotient_algebra((1,))
    plain = [inflate_chi_t(qa, m) for m in one_dim_modules(qa.ctx)]
    assert len(plain) == 4

    def theta_entries(m):
        return [e for mat in m.theta_pos + m.theta_neg for row in mat.entries for e in row]

    assert not any(
        e.uses_variable(z) for m in plain for e in theta_entries(m) for z in ctx.twist_names
    )
    t = TwistChar(qa, symbolic=True)
    twisted = [inflate_chi_t(qa, m, t) for m in one_dim_modules(qa.ctx)]
    assert all(any(e.uses_variable("z0") for e in theta_entries(m)) for m in twisted)
    # the twist enters the theta action but not the T-matrices
    assert twisted[0].tmat["s2"] == plain[0].tmat["s2"]


def test_memoised_actions_equal_uncached_products(pc_c2):
    """On every c2-aff panel module and its restriction to {s1}, the memoised
    matrices of words and of θ_x equal the uncached products, for every word
    of length <= 4 over the module's generators and every x with |x|_1 <= 3."""
    wd = pc_c2.wd
    words = [w for k in range(5) for w in itertools.product(wd.gen_names, repeat=k)]
    xs = [x for x in itertools.product(range(-3, 4), repeat=wd.rank) if sum(map(abs, x)) <= 3]
    assert len(words) == 121 and len(xs) == 25
    # restrictions start from their sources' memos
    for mod in pc_c2.modules + [restrict(m, (0,)) for m in pc_c2.modules]:
        ident = PolyMatrix.identity(pc_c2.ctx.table, mod.dim)
        for w in (w for w in words if mod.tmat.keys() >= set(w)):
            assert mod.word_mat(w) == reduce(mul, [mod.tmat[name] for name in w], ident), w
        for x in xs:
            factors = [
                mod.theta_pos[i] if k > 0 else mod.theta_neg[i]
                for i, k in enumerate(x) for _ in range(abs(k))
            ]
            assert mod.theta_of(x) == reduce(mul, factors, ident), x
