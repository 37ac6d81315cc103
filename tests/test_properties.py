"""Property tests (Hypothesis): the Laurent ring laws, int-first
coefficients, Bareiss against cofactor expansion, the IM -> Bernstein -> IM
round trip, and the parabolic subgroups W_J read off the lex-least reduced
words."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidhecke.exactpoly import (
    LaurentPoly,
    PolyMatrix,
    VarTable,
    det_bareiss,
    det_cofactor,
    render_in_Q,
)
from rigidhecke.hecke import HeckeContext
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData, pi_subsets

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


def _assert_int_first(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


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


_C2 = HeckeContext(WeylData(preset("c2-aff")))
_C2_BALL = _C2.wd.enumerate_ball(3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_C2_BALL), st.integers(-3, 3)), min_size=1, max_size=3))
def test_im_bernstein_roundtrip_c2(terms):
    h = _C2.elt({})
    for e, k in terms:
        h = h + _C2.T(e).scale(LaurentPoly.const(_C2.table, k))
    assert _C2.bernstein_to_im(_C2.im_to_bernstein(h)) == h


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
