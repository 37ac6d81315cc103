"""Hecke algebra arithmetic: IM products, theta elements, conversions,
coset normal forms, restriction blocks, cocenter reduction."""

import itertools
import pathlib
import random

import pytest

from rigidhecke import rigidtab
from rigidhecke.conj import descend_to_minimal, newton_zero_classes
from rigidhecke.exactpoly import LaurentPoly
from rigidhecke.hecke import BernsteinElt, HeckeContext, NonNewtonZeroLeaf
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData, pi_subsets

from oracles import T_word, bar_restrict_per_coset, reassemble

DATA = pathlib.Path(__file__).parent / "data"
_CACHE = {}


def ctx_of(name):
    """The context of a preset, or of the ``tests/data`` file of that stem."""
    if name not in _CACHE:
        datum = preset(name) if name in PRESET_NAMES else load_datum(str(DATA / f"{name}.json"))
        _CACHE[name] = HeckeContext(WeylData(datum))
    return _CACHE[name]


# the presets and the tests/data files, but b3p, b3q, c3p and c3q, which take
# over a second each
BERNSTEIN_DATA = PRESET_NAMES + ("g2", "pgl3", "sl2xsl2", "sl3", "sl4")


def test_quadratic_relation():
    for name in ("sl2", "pgl2", "c2-aff"):
        ctx = ctx_of(name)
        wd = ctx.wd
        for s in wd.affine_simple:
            Ts = ctx.T(s.elt)
            Q = ctx.Q_of_sa[wd.sa_index[s.name]]
            assert Ts * Ts == Ts.scale(Q - 1) + ctx.unit().scale(Q)
            # T_s T_s^{-1} = 1
            assert Ts.mul_geninv_right(s.name) == ctx.unit()


def test_lengths_add_product():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    s1, s0 = wd.generator_elt("s1"), wd.generator_elt("s0")
    assert ctx.T(s1) * ctx.T(s0) == ctx.T(wd.mult(s1, s0))


def test_omega_product():
    ctx = ctx_of("pgl2")
    wd = ctx.wd
    tau = wd.generator_elt("tau")
    s1 = wd.generator_elt("s1")
    # tau T_0 = T_1 tau (the defining Omega relation)
    s0 = wd.generator_elt("s0")
    lhs = ctx.T(tau) * ctx.T(s0)
    rhs = ctx.T(s1) * ctx.T(tau)
    assert lhs == rhs


def test_omega_letters_of_order_three():
    """On pgl3, tau^-1 = tau2 != tau: right multiplication by T_tau^-1 uses
    the table row of tau2, and undoes T_tau."""
    wd = WeylData(load_datum(str(pathlib.Path(__file__).parent / "data" / "pgl3.json")))
    ctx = HeckeContext(wd)
    h = ctx.T(wd.evaluate_word(["s1", "s0"])) + ctx.T(wd.evaluate_word(["s2"]))
    for name in wd.omega_names:
        inv = wd.inv(wd.generator_elt(name))
        assert wd.gen_inverse[name] != name
        assert h.mul_geninv_right(name) == h * ctx.T(inv)
        assert h.mul_gen_right(name).mul_geninv_right(name) == h
        word = ["s1", name, "s0"]
        assert h.mul_word_right(word, inverse=True).mul_word_right(word) == h


def test_associativity_random():
    rng = random.Random(17)
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        ctx = ctx_of(name)
        ball = ctx.wd.enumerate_ball(4)
        for _ in range(200 if name == "sl2" else 60):
            a, b, c = (ctx.T(rng.choice(ball)) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_braid_relations():
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        ctx = ctx_of(name)
        wd = ctx.wd
        n = len(wd.affine_simple)
        for i in range(n):
            for j in range(i + 1, n):
                m = wd.bond_order(i, j)
                if m is None:
                    continue
                a = b = ctx.unit()
                ni, nj = wd.affine_simple[i].name, wd.affine_simple[j].name
                for t in range(m):
                    a = a.mul_gen_right(ni if t % 2 == 0 else nj)
                    b = b.mul_gen_right(nj if t % 2 == 0 else ni)
                assert a == b


def test_theta_examples():
    ctx = ctx_of("sl2")
    assert ctx.theta_im((0,)) == ctx.unit()
    assert ctx.theta_im((1,)) * ctx.theta_im((-1,)) == ctx.unit()
    # dominant alpha: theta_alpha = q(t_alpha)^{-1} T_{t_alpha}
    t_alpha = ctx.wd.translation((1,))
    expected = ctx.T(t_alpha).scale(ctx.q_of_elt(t_alpha).inverse())
    assert ctx.theta_im((1,)) == expected


def test_theta_group_laws_random():
    rng = random.Random(4)
    for name in ("pgl2", "c2-aff"):
        ctx = ctx_of(name)
        m = ctx.wd.rank
        for _ in range(15):
            x = tuple(rng.randint(-1, 1) for _ in range(m))
            y = tuple(rng.randint(-1, 1) for _ in range(m))
            tx, ty = ctx.theta_im(x), ctx.theta_im(y)
            assert tx * ty == ty * tx
            assert tx * ty == ctx.theta_im(tuple(a + b for a, b in zip(x, y)))


def test_basis_convert_roundtrip():
    rng = random.Random(29)
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        ctx = ctx_of(name)
        ball = ctx.wd.enumerate_ball(4)
        # identity and single generators convert to themselves structurally
        b = ctx.im_to_bernstein(ctx.unit())
        assert list(b.c) == [((0,) * ctx.wd.rank, 0)]
        for _ in range(50):
            h = ctx.T(rng.choice(ball)) + ctx.T(rng.choice(ball)).scale(
                LaurentPoly.const(ctx.table, rng.randint(1, 4))
            )
            assert ctx.bernstein_to_im(ctx.im_to_bernstein(h)) == h


def test_convert_finite_T_is_basic():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    b = ctx.im_to_bernstein(ctx.T(wd.generator_elt("s1")))
    assert list(b.c) == [((0,), wd.W.gen_index[0])]


def test_bl_relation_residuals():
    import itertools

    for name in ("sl2", "pgl2", "c2-aff"):
        ctx = ctx_of(name)
        wd = ctx.wd
        par = ctx.parabolic(tuple(range(wd.npi)))
        vecs = set()
        for i in range(wd.rank):
            e = [0] * wd.rank
            e[i] = 1
            vecs.add(tuple(e))
            vecs.add(tuple(-c for c in e))
        vecs.add(tuple([1] * wd.rank))
        for x in vecs:
            for j in range(wd.npi):
                sx = par._s_act(j, x)
                Ts = T_word(ctx, [f"s{j + 1}"])
                lhs = ctx.theta_im(x) * Ts - Ts * ctx.theta_im(sx)
                rhs = ctx.elt({})
                for z, c in par.bl_comm(j, x).items():
                    rhs = rhs + ctx.theta_im(z).scale(c)
                assert (lhs - rhs).is_zero()


def test_coset_normal_form_examples():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    par = ctx.parabolic((0,))
    # h in H_J decomposes as {identity: h}
    h = ctx.T(wd.generator_elt("s1"))
    blocks = par.decompose(ctx.im_to_bernstein(h))
    assert list(blocks) == [0]
    par0 = ctx.parabolic(())
    blocks = par0.decompose(ctx.im_to_bernstein(h))
    s1_idx = wd.W.gen_index[0]
    assert set(blocks) == {s1_idx}
    # T_{s1}^2 = (Q1-1) T_{s1} + Q1: blocks {s1: Q1-1, 1: Q1}
    h2 = h * h
    blocks = par0.decompose(ctx.im_to_bernstein(h2))
    Q1 = ctx.Q_of_pi[0]
    assert blocks[0].c == {((0,), 0): Q1}
    assert blocks[s1_idx].c == {((0,), 0): Q1 - 1}


def test_coset_reassembly_random():
    rng = random.Random(41)
    import itertools

    for name in ("sl2", "pgl2", "c2-aff"):
        ctx = ctx_of(name)
        wd = ctx.wd
        ball = wd.enumerate_ball(4)
        for r in range(wd.npi + 1):
            for J in itertools.combinations(range(wd.npi), r):
                par = ctx.parabolic(J)
                for _ in range(3):
                    h = ctx.T(rng.choice(ball)) + ctx.T(rng.choice(ball)).scale(
                        LaurentPoly.const(ctx.table, rng.randint(1, 3))
                    )
                    blocks = par.decompose(ctx.im_to_bernstein(h))
                    assert reassemble(par, blocks) == h


def test_bar_restrict_examples():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    # bar_restrict(T_{s1}, emptyset) = Q1 - 1 in A
    r = ctx.bar_restrict(ctx.T(wd.generator_elt("s1")), ())
    assert r.c == {((0,), 0): ctx.Q_of_pi[0] - 1}
    # bar_restrict(1, J) = |W^J| * 1
    assert ctx.bar_restrict(ctx.unit(), ()).c == {((0,), 0): LaurentPoly.const(ctx.table, 2)}
    assert ctx.bar_restrict(ctx.unit(), (0,)).c == {((0,), 0): LaurentPoly.const(ctx.table, 1)}
    # bar_restrict(h, Pi) = h for h in the finite part
    full = ctx.bar_restrict(ctx.T(wd.generator_elt("s1")), (0,))
    assert ctx.bernstein_to_im(full) == ctx.T(wd.generator_elt("s1"))


@pytest.mark.parametrize("name", ["sl2", "pgl2", "c2-aff"])
def test_bar_restrict_converts_once(name):
    """bar_restrict, which converts h to Bernstein form once, equals the
    per-coset reference, which converts each h·T_u, for random h of length
    <= 4 and every J."""
    ctx = ctx_of(name)
    rng = random.Random(27)
    ball = ctx.wd.enumerate_ball(4)
    for J in pi_subsets(ctx.wd.npi):
        for _ in range(4):
            h = rigidtab._random_h(ctx, rng, ball, 3)
            assert ctx.bar_restrict(h, J) == bar_restrict_per_coset(ctx, h, J), (J, h.render())


def test_class_element_and_reduce_examples():
    ctx = ctx_of("sl2")
    wd = ctx.wd
    classes = newton_zero_classes(wd, 8)
    t0 = ctx.T(next(r for r in classes if r.label == "s0").rep)
    assert t0 == ctx.T(wd.generator_elt("s0"))
    comb = ctx.cocenter_reduce(wd.generator_elt("s0"), classes)
    assert [(rec.label, c.render()) for rec, c in comb.entries] == [("s0", "1")]
    e = wd.evaluate_word(["s1", "s0", "s1"])
    comb = ctx.cocenter_reduce(e, classes, extend=True)
    got = {rec.label: c for rec, c in comb.entries}
    Q1 = ctx.Q_of_pi[0]
    assert got["s0"] == Q1
    assert got["s0s1"] == Q1 - 1
    # strict mode flags the translation-class leaf
    with pytest.raises(NonNewtonZeroLeaf):
        ctx.cocenter_reduce(e, classes)


def test_reduce_leaf_record_equals_class_record():
    """A leaf outside the class list gets its record from the plateau the
    reduction explored; on these presets each plateau is the whole set of
    minimal representatives, so the record equals the enumerated one."""
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        ctx = ctx_of(name)
        for rec in newton_zero_classes(ctx.wd, 8):
            comb = ctx.cocenter_reduce(rec.rep, [], extend=True)
            assert comb.entries == ((rec, ctx.one()),)


def test_reduce_omega_conjugation_invariance():
    ctx = ctx_of("pgl2")
    wd = ctx.wd
    classes = newton_zero_classes(wd, 8)
    tau = wd.generator_elt("tau")
    e = wd.evaluate_word(["s1", "s0", "s1"])
    c1 = ctx.cocenter_reduce(e, classes, extend=True)
    c2 = ctx.cocenter_reduce(wd.conjugate(tau, e), classes, extend=True)
    assert {r.label: c.render() for r, c in c1.entries} == {
        r.label: c.render() for r, c in c2.entries
    }


@pytest.mark.parametrize("name", ["sl2", "pgl2", "c2-aff"])
def test_reduction_reproduces_panel_traces_radius4(name):
    """Σ a_O tr(T_O) = tr(T_e) on every panel module, for the reduction of
    each e of the radius-4 ball."""
    ctx = ctx_of(name)
    wd = ctx.wd
    classes = newton_zero_classes(wd, 8)
    modules = rigidtab.panel_modules(ctx, rigidtab.MANIFESTS[name])
    for e in wd.enumerate_ball(4):
        comb = ctx.cocenter_reduce(e, classes, extend=True)
        for mod in modules:
            rhs = ctx.zero()
            for rec, c in comb.entries:
                rhs = rhs + c * mod.trace(rec.rep)
            assert mod.trace(e) == rhs, (wd.render(e), mod)


def test_reduce_tau():
    ctx = ctx_of("pgl2")
    classes = newton_zero_classes(ctx.wd, 8)
    comb = ctx.cocenter_reduce(ctx.wd.generator_elt("tau"), classes)
    assert [(r.label, c.render()) for r, c in comb.entries] == [("tau", "1")]


def test_theta_split_independence():
    ctx = ctx_of("c2-aff")
    # x = e1 - e2: several dominant splits must give the same element
    x = (1, -1)
    splits = [((2, 0), (1, 1)), ((3, 1), (2, 2)), ((4, 2), (3, 3))]
    ref = ctx.theta_im(x)
    for x1, x2 in splits:
        assert ctx.theta_im_from_split(x1, x2) == ref
    # theta_element is the Bernstein basis vector whose IM form is theta_im
    b = ctx.theta_element(x)
    assert ctx.bernstein_to_im(b) == ref


def box_split(ctx, x, radius=15):
    """The reference split, the search that ``dominant_split`` ran before it
    had a closed form: among x2 in boxes of growing radius, the first dominant
    x2 with x + x2 dominant and the least l(t_{x + x2}) + l(t_{x2})."""
    wd = ctx.wd
    best = None
    for bound in range(radius + 1):
        for x2 in itertools.product(range(-bound, bound + 1), repeat=wd.rank):
            if max(map(abs, x2), default=0) != bound or not ctx.is_dominant(x2):
                continue
            x1 = tuple(a + b for a, b in zip(x, x2))
            if not ctx.is_dominant(x1):
                continue
            cost = sum(wd.length(wd.translation(v)) for v in (x1, x2))
            if best is None or cost < best[0]:
                best = (cost, x1, x2)
        if best is not None:
            return best[1], best[2]
    raise LookupError(f"no dominant split of {x} up to box {radius}")


@pytest.mark.parametrize("name", BERNSTEIN_DATA)
def test_dominant_split_is_the_two_rho_formula(name):
    """<2ρ, α_i^> = 2 for every simple coroot; dominant_split(x) is a pair of
    dominant weights with difference x; θ_x from it equals θ_x from the box
    search's split, over the radius-2 box (radius 1 at rank 3).  The search
    runs up to radius 24 here: on g2 the least split of (-2, 2) has
    x2 = (12, 18), outside the old radius 15."""
    ctx = ctx_of(name)
    wd = ctx.wd
    coroots = wd.datum.simple_coroots
    assert [sum(a * b for a, b in zip(ctx.two_rho, cv)) for cv in coroots] == [2] * wd.npi
    radius = 1 if wd.rank >= 3 else 2
    for x in itertools.product(range(-radius, radius + 1), repeat=wd.rank):
        x1, x2 = ctx.dominant_split(x)
        assert ctx.is_dominant(x1) and ctx.is_dominant(x2), x
        assert tuple(a - b for a, b in zip(x1, x2)) == x
        assert ctx.theta_im(x) == ctx.theta_im_from_split(*box_split(ctx, x, 24)), x


@pytest.mark.parametrize("name, x", [("sl2", (-16,)), ("pgl2", (-40,)), ("g2", (-2, 2))])
def test_theta_past_the_old_search_box(name, x):
    """θ_x θ_{-x} = 1 for an x that the radius-15 box search could not split."""
    ctx = ctx_of(name)
    with pytest.raises(LookupError):
        box_split(ctx, x)
    assert ctx.theta_im(x) * ctx.theta_im(tuple(-a for a in x)) == ctx.unit()


@pytest.mark.parametrize("name", BERNSTEIN_DATA)
def test_two_rho_descends_to_a_nonzero_newton_class(name):
    """The premise of ``twist-negative-control``: t_{2ρ} descends to a class
    whose Newton point is nonzero, the dominant representative of 2ρ."""
    ctx = ctx_of(name)
    wd = ctx.wd
    plateau, _ = descend_to_minimal(wd, wd.translation(ctx.two_rho))
    for e in plateau:
        nu, _ = wd.newton_point(e)
        assert any(nu) and nu == wd.dominant_rep(ctx.two_rho), wd.render(e)


@pytest.mark.parametrize("name", BERNSTEIN_DATA)
def test_bernstein_seed_is_the_generator(name):
    ctx = ctx_of(name)
    for g in ctx.wd.gen_names:
        assert ctx.bernstein_to_im(ctx.bernstein_seed(g)) == ctx.T(ctx.wd.generator_elt(g)), g


@pytest.mark.parametrize("name", BERNSTEIN_DATA)
def test_affine_seed_is_q_theta_minus_gamma_times_inverse_reflection(name):
    """T_{s0} = q(t_{-γ}) θ_{-γ} T_{s_γ}^{-1} for the affine node of each
    component, as IM products, and its Bernstein seed is that expression:
    Σ q(t_{-γ}) c_w θ_{-γ} T_w for T_{s_γ}^{-1} = Σ c_w T_w."""
    ctx = ctx_of(name)
    wd = ctx.wd
    zero = (0,) * wd.rank
    for s in wd.affine_simple:
        if s.kind == "finite":
            continue
        mg = tuple(-c for c in s.root)
        t = wd.translation(mg)
        assert wd.length(t) == 1 + wd.W.length[s.elt[1]]
        inv = ctx.unit().mul_word_right(wd.finite_word(s.elt[1]), inverse=True)
        q = ctx.q_of_elt(t)
        assert ctx.theta_im(mg).scale(q) * inv == ctx.T(s.elt), s.name
        assert all(x == zero for x, _ in inv.c)
        ref = BernsteinElt(ctx, {(mg, w): q * c for (_, w), c in inv.c.items()})
        assert ctx.bernstein_seed(s.name) == ref, s.name


@pytest.mark.parametrize("name", BERNSTEIN_DATA)
def test_theta_commutes_right_past_finite_T(name):
    """θ_x T_u = Σ c T_v θ_z as IM products, for the blocks of
    ``Parabolic.decompose`` over J = () (the commutation through the
    anti-automorphism), every u in W and every x in {0, ±e_i}."""
    ctx = ctx_of(name)
    wd = ctx.wd
    par = ctx.parabolic(())
    zero = (0,) * wd.rank
    xs = [zero] + [
        tuple(sign if k == i else 0 for k in range(wd.rank))
        for i in range(wd.rank)
        for sign in (1, -1)
    ]
    for u in range(wd.W.size):
        Tu = ctx.T((zero, u))
        for x in xs:
            blocks = par.decompose(BernsteinElt(ctx, {(x, u): ctx.one()}))
            rhs = ctx.elt({})
            for v, blk in blocks.items():
                for (z, w), c in blk.c.items():
                    assert w == 0
                    rhs = rhs + (ctx.T((zero, v)) * ctx.theta_im(z)).scale(c)
            assert ctx.theta_im(x) * Tu == rhs, (u, x)
