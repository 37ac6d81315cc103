"""Property tests (Hypothesis): the Laurent ring laws, int-first
coefficients, the multiply-accumulate kernel against naive sums of products,
Bareiss against cofactor expansion, the IM -> Bernstein -> IM round trip and
its elimination order, and the parabolic subgroups W_J read off the
lex-least reduced words."""

import heapq
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidhecke.exactpoly import (
    _BOUND,
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    VarTable,
    _addmul,
    _clean,
    det_bareiss,
    render_in_Q,
)
from rigidhecke.hecke import BernsteinElt, HeckeContext
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData, pi_subsets

from oracles import det_cofactor

T2 = VarTable(("v0", "v1"), ("param-sqrt", "param-sqrt"))

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: LaurentPoly(T2, t))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_laurent_ring_laws(a, b, c):
    zero, one = LaurentPoly(T2, {}), LaurentPoly.const(T2, 1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys)
def test_exact_div_undoes_multiplication(a, b):
    assert (a * b).exact_div(b) == a


T3 = VarTable(("v0", "v1", "z0"), ("param-sqrt", "param-sqrt", "twist"))
wide_polys = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3)), coeffs, max_size=5
).map(lambda t: LaurentPoly(T3, t))


@settings(max_examples=80, deadline=None)
@given(wide_polys, wide_polys.filter(bool), wide_polys.filter(bool))
def test_packed_exact_div(a, b, r):
    """Division on packed keys: it undoes a product of Laurent polynomials
    with negative exponents and Fraction coefficients, and it rejects a
    dividend that is a product plus a remainder the divisor does not divide."""
    assert (a * b).exact_div(b) == a
    if any(x < y for x, y in zip(_spans(r), _spans(b))):
        # a degree span of b·q is that of b plus that of q, so r is no multiple of b
        with pytest.raises(NotDivisible):
            (a * b + r).exact_div(b)


def _spans(p):
    """The degree span (greatest minus least exponent) of each variable."""
    cols = list(zip(*(e for e, _ in p.sorted_terms())))
    return [max(c) - min(c) for c in cols]


def test_packed_exact_div_edges():
    v0, v1 = T2.gens()
    one = LaurentPoly.const(T2, 1)
    assert (v0 + v1).exact_div(v0 + v1) == one
    with pytest.raises(NotDivisible):
        (v0 + 1).exact_div(v0 - 1)
    with pytest.raises(NotDivisible):  # the divisor spans more than the dividend
        (v0 + 1).exact_div(v0 * v0 + 1)
    with pytest.raises(NotDivisible):
        one.exact_div(LaurentPoly(T2, {}))
    # operands that span the whole exponent range
    lo = LaurentPoly.monomial(T2, (-_BOUND, 0))
    hi = LaurentPoly.monomial(T2, (_BOUND - 1, 0))
    assert (lo + hi).exact_div(one) == lo + hi
    assert (lo * v1 + hi * v1).exact_div(v1) == lo + hi
    with pytest.raises(OverflowError):  # x^(-2^14) / x^(2^14 - 1) leaves the range
        lo.exact_div(hi)
    with pytest.raises(OverflowError):
        (lo + lo * v1).exact_div(hi + hi * v1)


def test_packed_exact_div_stops_outside_the_box(monkeypatch):
    """A quotient term outside the degree box ends the division at once: for
    x^5 + y^16383 over x + y^16383 the box is [0, 4] x [0, 0], and the second
    quotient term x^3 y^16383 leaves it."""
    import rigidhecke.exactpoly as ep

    pops = []
    monkeypatch.setattr(ep, "heappop", lambda heap: pops.append(1) or heapq.heappop(heap))
    x, _ = T2.gens()
    y_top = LaurentPoly.monomial(T2, (0, 16383))
    with pytest.raises(NotDivisible):
        (x ** 5 + y_top).exact_div(x + y_top)
    assert len(pops) == 2


def _assert_int_first(p):
    for c in p.terms.values():
        assert c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1)), repr(c)


def _as_fractions(p):
    """The same polynomial with every coefficient stored as a Fraction; the
    ring's algorithms must not depend on how a coefficient is stored."""
    return LaurentPoly._of(p.table, {e: Fraction(c) for e, c in p.terms.items()})


mixed_coeffs = st.one_of(st.integers(-5, 5), st.booleans(), coeffs)
mixed_polys = st.dictionaries(exponents, mixed_coeffs, max_size=4).map(
    lambda t: LaurentPoly(T2, t)
)
_SQUARES = {n: g ** 2 for n, g in zip(T2.names, T2.gens())}  # doubles every exponent
units = st.tuples(exponents, mixed_coeffs.filter(bool)).map(
    lambda ec: LaurentPoly.monomial(T2, *ec)
)


@settings(max_examples=60, deadline=None)
@given(mixed_polys, mixed_polys, units, st.integers(0, 3), st.integers(-3, 3),
       st.one_of(st.integers(1, 4), st.fractions(1, 4, max_denominator=3)))
def test_int_first_invariant(a, b, u, k, j, value):
    fa, fb, fu = _as_fractions(a), _as_fractions(b), _as_fractions(u)
    _assert_int_first(a)
    pairs = [
        (a + b, fa + fb),
        (a - b, fa - fb),
        (a * b, fa * fb),
        (a ** k, fa ** k),
        (u ** j, fu ** j),
        (u.inverse(), fu.inverse()),
        ((a * u).exact_div(u), (fa * fu).exact_div(fu)),
        (a.evaluate({"v0": value}), fa.evaluate({"v0": value})),
        (render_in_Q(a.evaluate(_SQUARES)), render_in_Q(fa.evaluate(_SQUARES))),
    ]
    if not b.is_zero():
        pairs.append(((a * b).exact_div(b), (fa * fb).exact_div(fb)))
    for got, via_fractions in pairs:
        _assert_int_first(got)
        assert got == via_fractions


@st.composite
def square_matrices(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    small = st.dictionaries(exponents, st.integers(-3, 3), max_size=2)
    rows = [[LaurentPoly(T2, {e: Fraction(c) for e, c in draw(small).items()}) for _ in range(n)]
            for _ in range(n)]
    return PolyMatrix(rows)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_bareiss_equals_cofactor(m):
    assert det_bareiss(m) == det_cofactor(m)


@st.composite
def _vector_pairs(draw):
    """A table of 0-4 variables and two exponent vectors in its packed range,
    their fields often at or next to the ends of the range."""
    n = draw(st.integers(0, 4))
    edges = [-_BOUND, -_BOUND + 1, -1, 0, 1, _BOUND - 2, _BOUND - 1]
    field = st.one_of(st.sampled_from(edges), st.integers(-_BOUND, _BOUND - 1))
    table = VarTable(tuple(f"v{i}" for i in range(n)), ("param-sqrt",) * n)
    return table, draw(st.tuples(*[field] * n)), draw(st.tuples(*[field] * n))


@settings(max_examples=200, deadline=None)
@given(_vector_pairs())
@example((T2, (-_BOUND, _BOUND - 1), (-_BOUND, 1)))
def test_packed_keys(tv):
    """Packing round-trips, integer order is lexicographic order, keys add
    as vectors do, and a product leaving the range raises."""
    table, e1, e2 = tv
    k1, k2 = table.pack(e1), table.pack(e2)
    assert table.unpack(k1) == e1 and table.unpack(k2) == e2
    assert (k1 < k2) == (e1 < e2) and (k1 == k2) == (e1 == e2)
    total = tuple(x + y for x, y in zip(e1, e2))
    m1, m2 = LaurentPoly.monomial(table, e1), LaurentPoly.monomial(table, e2)
    if all(-_BOUND <= x < _BOUND for x in total):
        assert (m1 * m2).terms == {k1 + k2: 1} and table.pack(total) == k1 + k2
    else:
        with pytest.raises(OverflowError):
            m1 * m2


def _naive_mul(a, b):
    """a·b as a sum of monomials under ``LaurentPoly.__add__``, with no call
    into the multiply-accumulate kernel."""
    out, unpack = LaurentPoly(a.table, {}), a.table.unpack
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = [x + y for x, y in zip(unpack(e1), unpack(e2))]
            out = out + LaurentPoly.monomial(a.table, e, c1 * c2)
    return out


def _raw_sum(*pairs):
    """The kernel's Σ a·b over the (a, b) pairs: one raw map, cleaned once."""
    raw = {}
    for a, b in pairs:
        _addmul(raw, a.terms, b.terms)
    return _clean(T2, raw)


def _p(terms):
    return LaurentPoly(T2, {e: Fraction(c) for e, c in terms.items()})


@settings(max_examples=40, deadline=None)
@given(mixed_polys, mixed_polys, units, units, coeffs.filter(bool))
@example(_p({(0, 1): 1, (1, 0): Fraction(3, 2)}), _p({(0, 0): 5}),
         _p({(1, 1): Fraction(2, 3)}), _p({(0, 0): 1}), Fraction(2, 3))
def test_single_term_fast_path_equals_generic_product(a, b, m, n, c):
    one_term = LaurentPoly.const(T2, c)
    cases = [
        (_raw_sum((a, m)), _naive_mul(a, m)),
        (_raw_sum((m, a)), _naive_mul(a, m)),
        (_raw_sum((a, one_term)), _naive_mul(a, one_term)),
        (a * m, _naive_mul(a, m)),
        (_raw_sum((a, m), (b, n)), _naive_mul(a, m) + _naive_mul(b, n)),
        (_raw_sum((a, m), (-a, m)), LaurentPoly(T2, {})),
    ]
    for got, want in cases:
        _assert_int_first(got)
        assert got == want


_entries = st.one_of(
    st.just({}),  # zero entries
    st.dictionaries(exponents, coeffs, max_size=3),  # Fraction coefficients
    st.tuples(exponents, coeffs.filter(bool)).map(lambda ec: {ec[0]: ec[1]}),  # monomials
).map(lambda t: LaurentPoly(T2, t))


@st.composite
def matrix_pairs(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    a = PolyMatrix([[draw(_entries) for _ in range(k)] for _ in range(n)])
    b = PolyMatrix([[draw(_entries) for _ in range(m)] for _ in range(k)])
    return a, b


def _naive_matmul(a, b):
    zero = LaurentPoly(a.table, {})
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), zero) for j in range(b.cols)]
            for i in range(a.rows)]


@settings(max_examples=30, deadline=None)
@given(matrix_pairs(), st.tuples(exponents, coeffs.filter(bool)))
@example((PolyMatrix([[_p({(0, 0): Fraction(1, 2)}), _p({(1, 0): 1})]]),
          PolyMatrix([[_p({(0, 0): 2})], [_p({(-1, 0): -1})]])), ((0, 0), Fraction(3, 2)))
def test_matrix_product_equals_naive_sum(pair, mono):
    a, b = pair
    k = a.cols
    m = PolyMatrix.identity(T2, k).scale(LaurentPoly.monomial(T2, *mono))
    for x, y in [(a, b), (a, PolyMatrix.identity(T2, k)), (PolyMatrix.identity(T2, a.rows), a),
                 (a, m), (m, b)]:
        got = x * y
        want = _naive_matmul(x, y)
        assert got.entries == want
        for row in got.entries:
            for e in row:
                _assert_int_first(e)
        if got.rows == got.cols:
            tr = got.trace()
            _assert_int_first(tr)
            assert tr == sum((want[i][i] for i in range(got.rows)), LaurentPoly(T2, {}))
    assert (a - a.scale(3)).entries == a.scale(-2).entries and (a - a).is_zero()


_C2 = HeckeContext(WeylData(preset("c2-aff")))
_C2_BALL = _C2.wd.enumerate_ball(3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_C2_BALL), st.integers(-3, 3)), min_size=1, max_size=3))
def test_im_bernstein_roundtrip_c2(terms):
    h = _C2.elt({})
    for e, k in terms:
        h = h + _C2.T(e).scale(LaurentPoly.const(_C2.table, k))
    assert _C2.bernstein_to_im(_C2.im_to_bernstein(h)) == h


_C2_V = _C2.table.gens()
_C2_COEFFS = st.tuples(st.integers(0, 2), st.fractions(-3, 3, max_denominator=2).filter(bool))
_C2_TERMS = st.lists(st.tuples(st.sampled_from(_C2.wd.enumerate_ball(2)), _C2_COEFFS),
                     min_size=1, max_size=3)
_C2_S1 = _C2.wd.generator_elt("s1")


def _c2_elt(terms):
    """Σ c v1^k T_e over the (e, (k, c)) terms."""
    h = _C2.elt({})
    for e, (k, c) in terms:
        h = h + _C2.T(e).scale(_C2_V[1] ** k * c)
    return h


@settings(max_examples=30, deadline=None)
@given(_C2_TERMS, _C2_TERMS)
@example([(_C2_S1, (0, 1)), (_C2.wd.identity(), (0, 1))],  # (T_s1 + 1)(T_s1 - Q1) = 0
         [(_C2_S1, (0, 1)), (_C2.wd.identity(), (2, -1))])
@example([(_C2_S1, (0, Fraction(1, 2)))], [(_C2.wd.identity(), (0, 2))])
def test_hecke_product_equals_sum_of_word_products(a_terms, b_terms):
    a, b = _c2_elt(a_terms), _c2_elt(b_terms)
    want = _C2.elt({})
    for e, v in b.c.items():
        want = want + a.mul_word_right(_C2.wd.word(e)).scale(v)
    got = a * b
    assert got == want
    for v in got.c.values():
        _assert_int_first(v)


_PRESET_CTX = {name: HeckeContext(WeylData(preset(name))) for name in ("sl2", "pgl2", "c2-aff")}


@st.composite
def _preset_elts(draw, name, size=4):
    """An element Σ c T_e of the preset's algebra over its radius-4 ball (the
    ball of pgl2 has words with the Ω letter tau)."""
    ctx = _PRESET_CTX[name]
    v = ctx.table.gens()[0]
    ball = ctx.wd.enumerate_ball(4)
    h = ctx.elt({})
    for _ in range(draw(st.integers(1, size))):
        e = draw(st.sampled_from(ball))
        c = draw(st.fractions(-3, 3, max_denominator=2).filter(bool))
        h = h + ctx.T(e).scale(v ** draw(st.integers(-1, 2)) * c)
    return h


@pytest.mark.parametrize("name", sorted(_PRESET_CTX))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_prefix_tree_product_equals_letter_by_letter(name, data):
    """a·b along the prefix tree of the words of b's support equals the sum
    of a·T_{l1}·...·T_{lk} c taken letter by letter for each term c T_w."""
    ctx = _PRESET_CTX[name]
    a = data.draw(_preset_elts(name))
    b = data.draw(_preset_elts(name, size=6))
    want = ctx.elt({})
    for e, c in b.c.items():
        want = want + a.mul_word_right(ctx.wd.word(e)).scale(c)
    assert a * b == want


@pytest.mark.parametrize("name", sorted(_PRESET_CTX))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fused_inverse_step(name, data):
    """h·T_s·T_s^{-1} = h, and the one-pass inverse step equals
    h·(Q^{-1} T_s + (Q^{-1} - 1)) for every generator s of S^a and Ω."""
    ctx = _PRESET_CTX[name]
    h = data.draw(_preset_elts(name))
    for g in ctx.wd.gen_names:
        assert h.mul_gen_right(g).mul_geninv_right(g) == h
        assert h.mul_geninv_right(g).mul_gen_right(g) == h
        if g in ctx.wd.sa_index:
            qi = ctx.Q_of_sa[ctx.wd.sa_index[g]].inverse()
            assert h.mul_geninv_right(g) == h.mul_gen_right(g).scale(qi) + h.scale(qi - 1)


def _im_to_bernstein_by_max(ctx, h):
    """IM -> Bernstein by ``max(work, key=ctx._elim_key)`` on every step, a
    fresh key each time, on LaurentPoly arithmetic."""
    work, out = dict(h.c), {}
    while work:
        e = max(work, key=ctx._elim_key)
        c = work.pop(e)
        p = ctx.theta_T_im(*e)
        q = c * p.c[e].inverse()
        out[e] = out[e] + q if e in out else q
        for f, cf in p.c.items():
            if f != e:
                s = work.get(f, ctx.zero()) - q * cf
                if s.is_zero():
                    work.pop(f, None)
                else:
                    work[f] = s
    return BernsteinElt(ctx, out)


@pytest.mark.parametrize("name", ["c2-aff", "c2-ext"])
def test_elimination_order_pin(name):
    """The heap of memoised ranks in ``im_to_bernstein`` eliminates in the
    order of the max loop: the same terms, in the same order."""
    ctx = HeckeContext(WeylData(preset(name)))
    ball = ctx.wd.enumerate_ball(3)
    rng = random.Random(f"elimination:{name}")
    for _ in range(200):
        h = ctx.T(rng.choice(ball)).scale(LaurentPoly.const(ctx.table, Fraction(1, 2))) + ctx.T(
            rng.choice(ball)).scale(LaurentPoly.const(ctx.table, Fraction(rng.randint(-3, 3), 2)))
        got, want = ctx.im_to_bernstein(h), _im_to_bernstein_by_max(ctx, h)
        assert list(got.c.items()) == list(want.c.items())
        for v in got.c.values():
            _assert_int_first(v)


_DATA = pathlib.Path(__file__).parent / "data"
_DATUMS = list(PRESET_NAMES) + sorted(p.stem for p in _DATA.glob("*.json"))


@pytest.mark.parametrize("name", _DATUMS)
def test_parabolic_members_are_generated_by_J(name):
    datum = preset(name) if name in PRESET_NAMES else load_datum(str(_DATA / f"{name}.json"))
    ctx = HeckeContext(WeylData(datum))
    W = ctx.wd.W
    for J in pi_subsets(ctx.wd.npi):
        closure, frontier = {0}, [0]
        while frontier:
            w = frontier.pop()
            for j in J:
                p = W.mult(w, W.gen_index[j])
                if p not in closure:
                    closure.add(p)
                    frontier.append(p)
        assert ctx.parabolic(J).members == sorted(closure)
