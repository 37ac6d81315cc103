"""Reference computations that only the tests read.

Each is a slow or naive second route to something the package computes
another way: the tests compare the two.
"""

from fractions import Fraction
from typing import Sequence

from rigidhecke.datumsuites import CheckResult, _check
from rigidhecke.exactpoly import LaurentPoly, NonSquare, NotDivisible, PolyMatrix, VarTable
from rigidhecke.hecke import BernsteinElt, HeckeContext, HeckeElt, Parabolic
from rigidhecke.repn import FinDimModule, induce, one_dim_modules, restrict
from rigidhecke.rigidtab import RigidTable
from rigidhecke.weyl import Elt, WeylData


def map_entries(m: PolyMatrix, fn) -> PolyMatrix:
    """The matrix of fn(e) for the entries e of m."""
    return PolyMatrix([[fn(e) for e in row] for row in m.entries])


def det_cofactor(m: PolyMatrix) -> LaurentPoly:
    """Naive cofactor-expansion determinant; the small-size oracle."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        raise NonSquare("empty matrix")
    if n == 1:
        return m.entries[0][0]
    acc = LaurentPoly(m.table, {})
    for j in range(n):
        a = m.entries[0][j]
        if a.is_zero():
            continue
        minor = PolyMatrix([row[:j] + row[j + 1 :] for row in m.entries[1:]])
        term = a * det_cofactor(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def brute_force_conjugacy_oracle(wd: WeylData, a: Elt, b: Elt, L: int) -> bool:
    """Exhaustive search: is g a g^{-1} = b for some g of length <= L?"""
    for g in wd.enumerate_ball(L):
        if wd.conjugate(g, a) == b:
            return True
    return False


def T_word(ctx: HeckeContext, letters: Sequence[str]) -> HeckeElt:
    """T_{letters[0]} ... T_{letters[-1]} in IM form."""
    return ctx.unit().mul_word_right(letters)


def reassemble(par: Parabolic, blocks: dict) -> HeckeElt:
    """Σ_u T_u h_u back in ambient IM form, for the blocks {u: h_u} of
    ``par.decompose``."""
    ctx = par.ctx
    return HeckeElt.combination(ctx, (
        (T_word(ctx, ctx.wd.finite_word(u)) * ctx.bernstein_to_im(blk), ctx._one)
        for u, blk in blocks.items()
    ))


def bar_restrict_per_coset(ctx: HeckeContext, h: HeckeElt, J: Sequence[int]) -> BernsteinElt:
    """r̃_J(h) with h·T_u formed in IM form and converted once per coset
    representative u: the reference for ``HeckeContext.bar_restrict``, which
    converts h once."""
    par = ctx.parabolic(J)
    blocks = (
        par.decompose(ctx.im_to_bernstein(h.mul_word_right(ctx.wd.finite_word(u)))).get(u)
        for u in par.coset_reps
    )
    return BernsteinElt.combination(ctx, ((b, ctx._one) for b in blocks if b is not None))


def match_signature(alg: HeckeContext, sig: dict) -> FinDimModule:
    """The one module of ``one_dim_modules(alg)`` whose generator values are
    those the signature's tags name ("Q" is Q_s, any other tag a rational):
    the search that building a column from its signature replaces."""
    wd = alg.wd

    def tag_value(name: str, tag: str) -> LaurentPoly:
        if tag == "Q":
            return alg.Q_of_sa[wd.sa_index[name]]
        return LaurentPoly.const(alg.table, Fraction(tag))

    hits = [
        m for m in one_dim_modules(alg)
        if all(m.tmat[n].trace() == tag_value(n, t) for n, t in sig.items())
    ]
    assert len(hits) == 1, f"signature {sig} matched {len(hits)} one-dimensional modules"
    return hits[0]


def apply_iKrK(mod: FinDimModule, K: Sequence[int]) -> FinDimModule:
    """Module-level i_K ∘ r_K: restrict then induce (relation-certified)."""
    return induce(mod.alg, K, restrict(mod, K))


def c2_ext_specialized_det(qt: VarTable) -> LaurentPoly:
    """(1+q1)^3 (1+q2)^5 (q1+q2)(1+q1 q2): the extended-C2 determinant product."""
    q1, q2 = qt.gen("Q1"), qt.gen("Q2")
    one = LaurentPoly.const(qt, 1)
    return (one + q1) ** 3 * (one + q2) ** 5 * (q1 + q2) * (one + q1 * q2)


def specialization_check_extended_c2(c2_table: RigidTable) -> CheckResult:
    """q0 -> 1, q1 <-> q2 in the affine-C2 determinant matches the
    extended-C2 determinant product up to a rational constant (reported)."""
    det = c2_table.det()
    qt = c2_table.qtable
    spec = det.evaluate({"Q0": 1, "Q1": qt.gen("Q2"), "Q2": qt.gen("Q1")})
    target = c2_ext_specialized_det(qt)
    try:
        quo = spec.exact_div(target)
        c = quo.constant_value()
    except (NotDivisible, ValueError) as exc:
        return _check("specialization-ext-c2", False, f"quotient not constant: {exc}")
    return _check("specialization-ext-c2", c != 0, f"constant c = {c}")
