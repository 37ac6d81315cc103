"""Extended affine Weyl arithmetic: lengths, balls, cosets, Newton points."""

import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from rigidhecke import intlinalg, rootdata, weyl
from rigidhecke.conj import count_identity_check, newton_zero_classes
from rigidhecke.rootdata import PRESET_NAMES, BasedRootDatum, load_datum, preset
from rigidhecke.weyl import WeylData

_CACHE = {}
_DATA = pathlib.Path(__file__).parent / "data"
_DATUMS = list(PRESET_NAMES) + sorted(p.stem for p in _DATA.glob("*.json"))
_RANK0 = "rank0"


def datum_of(name):
    if name == _RANK0:
        return BasedRootDatum("pt", 0, (), ())
    if name in PRESET_NAMES:
        return preset(name)
    return load_datum(str(_DATA / f"{name}.json"))


def wd_of(name):
    if name not in _CACHE:
        _CACHE[name] = WeylData(datum_of(name))
    return _CACHE[name]


@pytest.mark.parametrize("name", _DATUMS)
def test_one_enumeration_per_construction(name, monkeypatch):
    """Building the group data enumerates W once and generates the roots once."""
    calls = {"W": 0, "roots": 0}
    enumerate_w = rootdata.FinWeylGroup.__init__
    generate = rootdata.generate_root_system

    def counted_w(self, *args):
        calls["W"] += 1
        enumerate_w(self, *args)

    def counted_roots(*args):
        calls["roots"] += 1
        return generate(*args)

    monkeypatch.setattr(rootdata.FinWeylGroup, "__init__", counted_w)
    for module in (rootdata, weyl):
        monkeypatch.setattr(module, "generate_root_system", counted_roots)
    WeylData(datum_of(name))
    assert calls == {"W": 1, "roots": 1}


def power(wd, e, n):
    """e^n by repeated squaring of generic products (n may be negative)."""
    if n < 0:
        return power(wd, wd.inv(e), -n)
    out = wd.identity()
    base = e
    while n:
        if n & 1:
            out = wd.mult(out, base)
        base = wd.mult(base, base)
        n >>= 1
    return out


def length_by_levels(wd, e):
    """The definition of length: count, level by level, the positive affine
    roots (beta^, n) that t_x w sends to negative ones (beta^ -> w(beta^),
    n -> n - <x, w(beta^)>)."""
    x, w = e
    roots = wd.roots
    total = 0
    for k, beta in enumerate(roots.roots):
        i = wd.root_index[wd.W.act(w, beta)]
        c = sum(a * b for a, b in zip(x, roots.coroots[i]))
        for n in range(abs(c) + 2):
            src_pos = n > 0 or roots.positive[k]
            lvl = n - c
            if src_pos and (lvl < 0 or (lvl == 0 and not roots.positive[i])):
                total += 1
    return total


def test_group_ops():
    wd = wd_of("sl2")
    for s in wd.affine_simple:
        assert wd.mult(s.elt, s.elt) == wd.identity()
    assert wd.mult(wd.translation((2,)), wd.translation((3,))) == wd.translation((5,))
    # (s0 s1) is a translation of infinite order
    e = wd.mult(wd.generator_elt("s0"), wd.generator_elt("s1"))
    cur = e
    for n in range(1, 11):
        assert cur != wd.identity()
        cur = wd.mult(cur, e)
    # power law
    assert power(wd, e, 5) == wd.translation((5,))
    assert power(wd, e, -2) == wd.inv(power(wd, e, 2))


def test_length_examples():
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        wd = wd_of(name)
        assert wd.length(wd.identity()) == 0
        for om in wd.omega_elements:
            assert wd.length(om) == 0
        for s in wd.affine_simple:
            assert wd.length(s.elt) == 1
    wd = wd_of("sl2")
    e = wd.mult(wd.generator_elt("s0"), wd.generator_elt("s1"))
    for k in range(1, 6):
        assert wd.length(power(wd, e, k)) == 2 * k


def test_length_vs_bfs_radius8():
    for name in ("sl2", "pgl2", "c2-aff", "c2-ext"):
        wd = wd_of(name)
        for e in wd.enumerate_ball(8):
            word = wd.word(e)
            assert sum(1 for w in word if w in wd.sa_index) == wd.length(e)


def word_length_ball(wd, radius):
    """Word length over S^a, Omega letters free, of every element within
    radius: a BFS over the Cayley graph that never calls ``wd.length``."""
    dist = {om: 0 for om in wd.omega_elements}
    layer = list(dist)
    for r in range(1, radius + 1):
        nxt = []
        for e in layer:
            for s in wd.affine_simple:
                f = wd.mult(e, s.elt)
                if f not in dist:
                    dist[f] = r
                    nxt.append(f)
        layer = nxt
    return dist


@pytest.mark.parametrize("name", _DATUMS)
def test_closed_form_length_vs_levels_and_bfs_radius8(name):
    wd = wd_of(name)
    dist = word_length_ball(wd, 8)
    for e, d in dist.items():
        assert wd.length(e) == length_by_levels(wd, e) == d, wd.render(e)
    assert sorted(dist) == sorted(wd.enumerate_ball(8))


@pytest.mark.parametrize("name", _DATUMS)
def test_one_step_conjugate(name):
    wd = wd_of(name)
    rng = random.Random(f"conjugate:{name}")

    def rand_elt():
        return (tuple(rng.randint(-3, 3) for _ in range(wd.rank)), rng.randrange(wd.W.size))

    for _ in range(200):
        g, e = rand_elt(), rand_elt()
        assert wd.conjugate(g, e) == wd.mult(wd.mult(g, e), wd.inv(g))


def test_length_properties():
    rng = random.Random(3)
    for name in ("sl2", "pgl2", "c2-aff"):
        wd = wd_of(name)
        ball = wd.enumerate_ball(5)
        for e in ball:
            assert wd.length(e) == wd.length(wd.inv(e))
        for om in wd.omega_elements[1:]:
            for e in ball:
                assert wd.length(wd.conjugate(om, e)) == wd.length(e)
        # concatenated geodesics add
        for _ in range(30):
            a, b = rng.choice(ball), rng.choice(ball)
            ab = wd.mult(a, b)
            assert wd.length(ab) <= wd.length(a) + wd.length(b)


def test_ball_examples():
    wd = wd_of("sl2")
    assert wd.enumerate_ball(0) == [wd.identity()]
    ball2 = wd.enumerate_ball(2)
    assert len(ball2) == 5
    assert set(ball2) == {
        wd.identity(),
        wd.generator_elt("s0"),
        wd.generator_elt("s1"),
        wd.mult(wd.generator_elt("s0"), wd.generator_elt("s1")),
        wd.mult(wd.generator_elt("s1"), wd.generator_elt("s0")),
    }
    wdp = wd_of("pgl2")
    assert len(wdp.enumerate_ball(0)) == 2  # identity and tau


def test_coset_reps():
    wd = wd_of("c2-aff")
    assert len(wd.minimal_coset_reps(())) == wd.W.size
    reps = wd.minimal_coset_reps((0,))
    assert len(reps) == 4
    # every w factors uniquely as u * w_J with lengths adding
    for w in range(wd.W.size):
        u, wj = wd.factorize_coset(w, (0,))
        assert u in reps
        assert wd.W.mult(u, wj) == w
        assert wd.W.length[u] + wd.W.length[wj] == wd.W.length[w]
    dc = wd.double_coset_reps((0,), (0,))
    ids = [w for w, kw, jw in dc if w == 0]
    assert ids and dc[0][1] == (0,)  # identity has K_id = J


def test_newton_points():
    wd = wd_of("sl2")
    nu, j = wd.newton_point(wd.translation((3,)))
    assert nu == (Fraction(3),)
    for s in wd.affine_simple:
        nu, j = wd.newton_point(s.elt)
        assert nu == (Fraction(0),)
        assert j == (0,)
    e = wd.mult(wd.generator_elt("s0"), wd.generator_elt("s1"))
    nu, _ = wd.newton_point(e)
    assert nu != (Fraction(0),)


def test_newton_is_class_function():
    rng = random.Random(9)
    for name in ("sl2", "c2-aff"):
        wd = wd_of(name)
        ball = wd.enumerate_ball(4)
        for _ in range(40):
            e, g = rng.choice(ball), rng.choice(ball)
            assert wd.newton_point(wd.conjugate(g, e))[0] == wd.newton_point(e)[0]


def test_finite_order_criterion():
    for name in ("sl2", "pgl2", "c2-aff"):
        wd = wd_of(name)
        for e in wd.enumerate_ball(4):
            n = wd.W.order_of(e[1])
            brute = power(wd, e, n) == wd.identity()
            nu, _ = wd.newton_point(e)
            lam_zero = power(wd, e, n)[0] == (0,) * wd.rank
            assert brute == (all(c == 0 for c in nu) and lam_zero)
            assert wd.has_finite_order(e) == brute


def test_ellipticity():
    wd = wd_of("sl2")
    assert not wd.is_elliptic(wd.identity())
    assert wd.is_elliptic(wd.generator_elt("s1"))
    wdc = wd_of("c2-aff")
    assert not wdc.is_elliptic(wdc.identity())
    s1s2 = wdc.mult(wdc.generator_elt("s1"), wdc.generator_elt("s2"))
    assert wdc.is_elliptic(s1s2)
    assert not wdc.is_elliptic(wdc.generator_elt("s1"))


def test_render():
    wd = wd_of("sl2")
    assert wd.render(wd.identity()) == "t[0]*e"
    assert wd.render(wd.translation((1,))) == "t[1]*e"
    assert wd.render(wd.generator_elt("s1")) == "t[0]*s1"


def test_dominant_rep():
    wd = wd_of("c2-aff")
    nu = wd.dominant_rep((Fraction(-1), Fraction(2)))
    for i in range(wd.npi):
        assert sum(a * b for a, b in zip(nu, wd.datum.simple_coroots[i])) >= 0


@pytest.mark.parametrize("name", _DATUMS + [_RANK0])
def test_generator_tables_equal_generic_products(name):
    """Right multiplication and conjugation by a generator read tables; they
    equal the generic product and the one-step conjugate for every finite
    part, and the inverse letter undoes the letter."""
    wd = wd_of(name)
    rng = random.Random(f"tables:{name}")
    elems = [
        (tuple(rng.randint(-3, 3) for _ in range(wd.rank)), w)
        for w in range(wd.W.size)
        for _ in range(3)
    ] + wd.enumerate_ball(3)
    for e in elems:
        for g in wd.gen_names:
            elt = wd.generator_elt(g)
            assert wd.mult_gen(e, g) == wd.mult(e, elt), (g, e)
            assert wd.conjugate_gen(g, e) == wd.conjugate(elt, e), (g, e)
            assert wd.mult_gen(wd.mult_gen(e, g), wd.gen_inverse[g]) == e, (g, e)
    word = [rng.choice(wd.gen_names) for _ in range(8)] if wd.gen_names else []
    brute = wd.identity()
    for g in word:
        brute = wd.mult(brute, wd.generator_elt(g))
    assert wd.evaluate_word(word) == brute
    with pytest.raises(KeyError, match="unknown generator 'nope'"):
        wd.mult_gen(wd.identity(), "nope")


@pytest.mark.parametrize("name", _DATUMS + [_RANK0])
def test_finite_order_by_norm_rows_radius6(name):
    """``has_finite_order`` (N_w x = 0) equals e^n = 1 by generic products,
    n the order of the finite part, over the radius-6 ball."""
    wd = wd_of(name)
    seen = set()
    for e in wd.enumerate_ball(6):
        brute = power(wd, e, wd.W.order_of(e[1])) == wd.identity()
        assert wd.has_finite_order(e) == brute, wd.render(e)
        seen.add(brute)
    assert seen == ({True} if wd.rank == 0 else {True, False})


def in_lattice(gens, x):
    """Is x in the integer span of the generator rows?"""
    return intlinalg.solve_integer(list(gens), list(x)) is not None


def omega_by_length_search(wd):
    """Omega as the search of ``_build_omega`` finds it through the cached
    ``length``: per coset of X/Q, the first (x, w) of length 0 in the coset's
    search box, x in product order, then w; identity first, then sorted."""
    if wd.rank == 0:
        return (wd.identity(),)
    amat = [list(r) for r in wd.datum.simple_roots]
    d, _u, v = intlinalg.smith_normal_form(amat)
    vinv = intlinalg.mat_inverse_unimodular(v)
    found = []
    for combo in itertools.product(*[range(d[i][i]) for i in range(wd.rank)]):
        rep = intlinalg.mat_vec(list(zip(*vinv)), list(combo))
        bound = max(abs(c) for c in rep) + 2
        hit = next(
            (x, w)
            for x in itertools.product(range(-bound, bound + 1), repeat=wd.rank)
            if in_lattice(amat, [a - b for a, b in zip(x, rep)])
            for w in range(wd.W.size)
            if wd.length((x, w)) == 0
        )
        found.append(hit)
    return (wd.identity(),) + tuple(sorted(e for e in found if e != wd.identity()))


@pytest.mark.parametrize("name", _DATUMS + [_RANK0])
def test_omega_equals_cached_length_search(name):
    wd = wd_of(name)
    assert wd.omega_elements == omega_by_length_search(wd)


# fixed unimodular changes of basis of X, per rank
_BASES = {
    2: ([[-4, -3], [-1, -1]], [[2, 1], [1, 1]]),
    3: ([[1, 2, 0], [0, 1, 3], [1, 2, 1]], [[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
}
_PERFBENCH_PGL4 = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "pgl4.json"


def change_of_basis(datum, g):
    """The same datum written in the basis g of X: roots g(a), coroots g^-T(a^)."""
    g_inv_t = [list(r) for r in zip(*intlinalg.mat_inverse_unimodular(g))]
    return BasedRootDatum(
        datum.name,
        datum.rank,
        tuple(tuple(intlinalg.mat_vec(g, a)) for a in datum.simple_roots),
        tuple(tuple(intlinalg.mat_vec(g_inv_t, a)) for a in datum.simple_coroots),
    )


def class_summary(wd):
    classes = newton_zero_classes(wd)
    shape = sorted((r.min_length, r.elliptic, len(r.min_reps)) for r in classes)
    return shape, count_identity_check(wd, classes=classes)


@pytest.mark.parametrize("name", ["pgl3", "c2-ext", "pgl4", "b3p", "c3p"])
def test_basis_change_keeps_omega_and_classes(name):
    """Omega by descent needs no bound, so the datum may be written in any
    basis of X: Omega has |X/Q| elements, all of length 0, and the classes
    and the count identity are those of the original basis."""
    if name == "pgl4":
        datum = load_datum(str(_PERFBENCH_PGL4))
    else:
        datum = wd_of(name).datum
    want = class_summary(WeylData(datum))
    for g in _BASES[datum.rank]:
        wd = WeylData(change_of_basis(datum, g))
        d, _u, _v = intlinalg.smith_normal_form([list(a) for a in wd.datum.simple_roots])
        assert len(wd.omega_elements) == math.prod(d[i][i] for i in range(wd.rank)), g
        assert all(wd.length(om) == 0 for om in wd.omega_elements), g
        assert class_summary(wd) == want, g
