"""The one exact row reduction, against sympy, through each function it backs."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidhecke.exactpoly import rational_matrix_rank
from rigidhecke.intlinalg import mat_inverse_unimodular
from rigidhecke.rootdata import BasedRootDatum, _simple_root_coords

entries = st.integers(-4, 4)


@st.composite
def matrices(draw, max_side=4):
    nr = draw(st.integers(1, max_side))
    nc = draw(st.integers(1, max_side))
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


@st.composite
def unimodular(draw, max_side=4):
    """A product of random elementary integer row operations."""
    n = draw(st.integers(1, max_side))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_sympy(rows):
    assert rational_matrix_rank(rows) == sympy.Matrix(rows).rank()
    assert rational_matrix_rank([[Fraction(x, 3) for x in row] for row in rows]) == sympy.Matrix(rows).rank()


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(entries, min_size=4, max_size=4))
def test_coordinates_and_solvability(cols, target):
    # the columns of cols^T are the "simple roots" in Z^m, m = len(cols[0])
    m = len(cols[0])
    v = target[:m]
    datum = BasedRootDatum("t", m, tuple(map(tuple, cols)), tuple(map(tuple, cols)))
    coords = _simple_root_coords(datum, v)
    a = sympy.Matrix(cols).T
    try:
        sol, params = a.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:
        assert coords is None
        return
    assert coords is not None
    assert [sum(c * r[i] for c, r in zip(coords, cols)) for i in range(m)] == v
    if not params:  # unique solution
        assert coords == [Fraction(int(x.p), int(x.q)) for x in sol]


@settings(max_examples=150, deadline=None)
@given(unimodular())
def test_unimodular_inverse_matches_sympy(m):
    inv = mat_inverse_unimodular(m)
    assert sympy.Matrix(inv) == sympy.Matrix(m).inv()


@pytest.mark.parametrize("m", [[[2]], [[0]], [[1, 2], [2, 4]], [[2, 0], [0, 1]]])
def test_inverse_rejects_non_unimodular(m):
    with pytest.raises(ValueError):
        mat_inverse_unimodular(m)
