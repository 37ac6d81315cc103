"""Property tests (Hypothesis): the Laurent ring laws, Bareiss against
cofactor expansion, the IM -> Bernstein -> IM round trip, and the parabolic
subgroups W_J read off the lex-least reduced words."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidhecke.exactpoly import LaurentPoly, PolyMatrix, VarTable, det_bareiss, det_cofactor
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
