"""Laurent polynomial ring: examples, randomized axioms, determinants."""

import random
from fractions import Fraction

import pytest

from rigidhecke.exactpoly import (
    LaurentPoly,
    NonSquare,
    NotDivisible,
    OddDegree,
    PolyMatrix,
    VarTable,
    VarTableMismatch,
    ZeroSubstitutionForUnit,
    _addmul,
    _BOUND,
    _clean,
    det_bareiss,
    parse_poly,
    rational_matrix_rank,
    render_in_Q,
)

from oracles import det_cofactor, map_entries

T2 = VarTable(("v0", "v1"), ("param-sqrt", "param-sqrt"))
TZ = VarTable(("v0", "z0"), ("param-sqrt", "twist"))
T3 = VarTable(("v0", "v1", "z0"), ("param-sqrt", "param-sqrt", "twist"))
B = _BOUND  # packed exponents lie in [-B, B)


def rand_poly(table, rng, terms=4, span=3):
    out = LaurentPoly(table, {})
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in table.names)
        out = out + LaurentPoly.monomial(table, e, Fraction(rng.randint(-5, 5)))
    return out


def by_tuple(p):
    """p's term map keyed by exponent tuples, through the decoding accessor."""
    return {p.table.unpack(e): c for e, c in p.terms.items()}


def test_ring_examples():
    v = T2.gen("v0")
    one = LaurentPoly.const(T2, 1)
    assert (v + one) * (v - one) == v * v - one
    q = v * v
    assert (q * q - 1).exact_div(q - 1) == q + 1
    assert v.inverse() * v == one


def test_exact_divide_failure():
    v0, v1 = T2.gens()
    with pytest.raises(NotDivisible):
        (v0 + 1).exact_div(v1 + 1)


def test_var_table_mismatch():
    other = VarTable(("v0",), ("param-sqrt",))
    with pytest.raises(VarTableMismatch):
        T2.gen("v0") + other.gen("v0")


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (rand_poly(T2, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_evaluate_examples():
    v0, v1 = T2.gens()
    q0, q1 = v0 * v0, v1 * v1
    assert (q0 + 1).evaluate({"v0": 2}) == LaurentPoly.const(T2, 5)
    # the extended-C2 specialization step: q0 -> 1 leaves q1 symbolic
    assert (q0 + q1).evaluate({"v0": 1}) == q1 + 1
    assert (v0 * v0).evaluate({"v0": 3}) == LaurentPoly.const(T2, 9)


def test_evaluate_is_homomorphism():
    rng = random.Random(11)
    for _ in range(30):
        a, b = rand_poly(T2, rng), rand_poly(T2, rng)
        assign = {"v0": Fraction(rng.randint(1, 7)), "v1": Fraction(rng.randint(1, 7))}
        assert (a * b).evaluate(assign) == a.evaluate(assign) * b.evaluate(assign)
        assert (a + b).evaluate(assign) == a.evaluate(assign) + b.evaluate(assign)


def test_evaluate_zero_unit():
    v0 = T2.gen("v0")
    with pytest.raises(ZeroSubstitutionForUnit):
        v0.evaluate({"v0": 0})
    z = TZ.gen("z0")
    with pytest.raises(ZeroSubstitutionForUnit):
        z.inverse().evaluate({"z0": 0})


def test_render_and_parse():
    v0, v1 = T2.gens()
    p = v0 ** 3 * -1 + v0 ** 2 * v1 * 2
    assert p.render() == "-1*v0^3 + 2*v0^2*v1"
    qt = T2.q_table()
    q = parse_poly(qt, "-1*Q0^3 + 2*Q0^2*Q1")
    assert q.render() == "-1*Q0^3 + 2*Q0^2*Q1"
    assert parse_poly(qt, "Q0 - 1") == qt.gen("Q0") - 1
    assert parse_poly(qt, "0").is_zero()


def test_render_in_Q():
    v0, v1 = T2.gens()
    qt = T2.q_table()
    assert render_in_Q(v0 ** 2 - 1) == parse_poly(qt, "Q0 - 1")
    assert render_in_Q(v0 ** 2 * v1 ** 2) == parse_poly(qt, "Q0*Q1")
    with pytest.raises(OddDegree):
        render_in_Q(v0)
    # twist variables pass through unchanged
    z = TZ.gen("z0")
    assert render_in_Q(z * TZ.gen("v0") ** 2).render() == "1*Q0*z0"


def test_int_first_coefficients():
    x = T2.gen("v0")
    half = (x + 1).exact_div(LaurentPoly.const(T2, 2))
    assert list(half.terms.values()) == [Fraction(1, 2)] * 2
    assert set(map(type, half.terms.values())) == {Fraction}
    whole = (2 * x + 2).exact_div(2)
    assert whole == x + 1 and set(map(type, whole.terms.values())) == {int}
    four_halves = by_tuple(LaurentPoly.const(T2, Fraction(4, 2)))
    assert four_halves == {(0, 0): 2} and type(four_halves[(0, 0)]) is int
    collapsed = (x * Fraction(1, 2)) * 2
    assert by_tuple(collapsed) == {(1, 0): 1} and type(by_tuple(collapsed)[(1, 0)]) is int
    assert type(LaurentPoly(T2, {}).constant_value()) is int
    from_bool = by_tuple(LaurentPoly(T2, {(0, 0): True}))[(0, 0)]
    assert from_bool == 1 and type(from_bool) is int


def test_parse_render_fraction_round_trip():
    qt = T2.q_table()
    p = parse_poly(qt, "3/2*Q0 - 1")
    assert p.render() == "3/2*Q0 - 1"
    assert by_tuple(p) == {(1, 0): Fraction(3, 2), (0, 0): -1}
    assert [type(c) for c in p.terms.values()] == [Fraction, int]


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        LaurentPoly(T2, {(1,): 1})
    with pytest.raises(TypeError):
        LaurentPoly(T2, {(0, 0): 0.5})
    assert LaurentPoly(T2, {(0, 0): 0, (1, 1): Fraction(0)}).is_zero()
    assert by_tuple(LaurentPoly(T2, {(True, 2): 1})) == {(1, 2): 1}


def test_pack_rejects_out_of_range_exponents():
    for e in [(B, 0), (0, B), (-B - 1, 0), (0, -B - 1)]:
        with pytest.raises(OverflowError):
            T2.pack(e)
        with pytest.raises(OverflowError):
            LaurentPoly(T2, {e: 1})
    for e in [(B - 1, -B), (-B, B - 1), (0, 0)]:
        assert T2.unpack(T2.pack(e)) == e
        assert by_tuple(LaurentPoly(T2, {e: 3})) == {e: 3}
    with pytest.raises(OverflowError):  # -(-B) = B
        LaurentPoly.monomial(T2, (0, -B)).inverse()


@pytest.mark.parametrize("i", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
def test_product_leaving_the_range_raises(i, sign):
    """A product whose exponent leaves [-B, B) in one field raises in
    ``_clean``, whatever the neighbouring fields hold; one step back in."""
    step = [0, 0, 0]
    step[i] = sign
    s = LaurentPoly.monomial(T3, step)
    for other in (-B, 0, B - 1):
        e = [other] * 3
        e[i] = B - 1 if sign > 0 else -B
        m = LaurentPoly.monomial(T3, e)
        with pytest.raises(OverflowError):
            m * s  # one-term factor: a key shift
        with pytest.raises(OverflowError):
            _clean(T3, _addmul({}, (m + 1).terms, (s + 1).terms))  # generic product
        e[i] -= sign
        assert by_tuple(m * s.inverse()) == {tuple(e): 1}


def test_empty_factor_leaves_out_untouched():
    a = (T2.gen("v0") + 1).terms
    for x, y in ((a, {}), ({}, a), ({}, {})):
        out = {T2.pack((1, 1)): 3}
        assert _addmul(out, x, y) is out and out == {T2.pack((1, 1)): 3}


def test_det_examples():
    qt = T2.q_table()
    Q = qt.gen("Q0")
    one = LaurentPoly.const(qt, 1)
    m = PolyMatrix([[Q, one], [one, Q]])
    assert det_bareiss(m) == Q * Q - 1
    rep = PolyMatrix([[Q, one], [Q, one]])
    assert det_bareiss(rep).is_zero()
    with pytest.raises(NonSquare):
        det_bareiss(PolyMatrix([[Q, one]]))


def test_det_bareiss_matches_cofactor_small():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = PolyMatrix(
                [[rand_poly(T2, rng, terms=2, span=1) for _ in range(n)] for _ in range(n)]
            )
            assert det_bareiss(m) == det_cofactor(m)


def test_det_bareiss_numeric_5x5():
    rng = random.Random(31)
    for _ in range(4):
        m = PolyMatrix(
            [[rand_poly(T2, rng, terms=2, span=1) for _ in range(5)] for _ in range(5)]
        )
        det = det_bareiss(m)
        assign = {"v0": Fraction(2), "v1": Fraction(3)}
        evaluated = map_entries(m, lambda e: e.evaluate(assign))
        assert det.evaluate(assign) == det_cofactor(evaluated)


def test_rational_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rational_matrix_rank(rows) == 1
    rows[1][1] = Fraction(5)
    assert rational_matrix_rank(rows) == 2
