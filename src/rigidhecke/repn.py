"""Finite-dimensional modules as generator matrices over the Laurent ring.

A module stores one matrix per T-generator in scope (all of S^a and Omega
for modules of the full algebra; the J-reflections for parabolic modules)
plus matrices for θ of ± each lattice basis vector.  Construction goes
through four paths: one-dimensional modules and parahoric lifts, whose θ_x
acts through its IM form on the generator matrices; inflation along χ_t; and
parabolic induction.  Each constructor proves the defining relations as exact
matrix identities and the module keeps that certificate; a module that fails
it is never returned, and ``restrict`` inherits it.

A module is fixed at construction: its generator and θ matrices are set by
the constructor and cannot be reassigned.  So its actions are memoised on the
module: the matrix of a word is that of its prefix times the last generator's,
and the matrix of θ_x is that of x with one unit taken off its last nonzero
coordinate times the matching θ_{±e_i}.  Each memo multiplies in the order of
the uncached product, so a memoised matrix equals the uncached one exactly.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Optional, Sequence, Union

from . import intlinalg
from .conj import ComputationFailed
from .exactpoly import LaurentPoly, PolyMatrix
from .hecke import BernsteinElt, HeckeContext, HeckeElt, QuotientAlgebra
from .weyl import Elt


class RelationFailed(ComputationFailed, RuntimeError):
    """A defining relation does not hold; names the relation family."""


class FinDimModule:
    """Generator matrices of a representation, fixed at construction.

    ``scope`` is None for a module of the full algebra, else the subset J of
    Pi; ``tmat`` maps generator names to matrices; ``theta_pos`` and
    ``theta_neg`` hold θ of +e_i and -e_i per lattice basis vector.
    """

    __slots__ = (
        "alg", "scope", "dim", "tmat", "theta_pos", "theta_neg", "_words", "_thetas", "_relations"
    )

    def __init__(
        self,
        alg: HeckeContext,
        scope: Optional[tuple[int, ...]],
        dim: int,
        tmat: dict,
        theta_pos: Sequence[PolyMatrix],
        theta_neg: Sequence[PolyMatrix],
    ):
        init = object.__setattr__
        init(self, "alg", alg)
        init(self, "scope", scope)
        init(self, "dim", dim)
        init(self, "tmat", MappingProxyType(dict(tmat)))
        init(self, "theta_pos", tuple(theta_pos))
        init(self, "theta_neg", tuple(theta_neg))
        ident = PolyMatrix.identity(alg.table, dim)
        init(self, "_words", {(): ident})  # letters -> matrix of T_letters
        init(self, "_thetas", {(0,) * alg.wd.rank: ident})  # x -> matrix of θ_x
        init(self, "_relations", [])  # the families verify_relations proved, once it has

    def __setattr__(self, name, value):
        raise AttributeError(f"a FinDimModule is fixed at construction; cannot set {name!r}")

    # -- actions -------------------------------------------------------------

    def theta_of(self, x: Sequence[int]) -> PolyMatrix:
        """The matrix of θ_x: the product over i of θ_{±e_i}^{|x_i|}, in order."""
        x = tuple(x)
        got = self._thetas.get(x)
        if got is None:
            i = max(k for k, c in enumerate(x) if c)
            step = 1 if x[i] > 0 else -1
            factor = (self.theta_pos if step > 0 else self.theta_neg)[i]
            rest = x[:i] + (x[i] - step,) + x[i + 1:]
            got = self.theta_of(rest) * factor if any(rest) else factor
            self._thetas[x] = got
        return got

    def word_mat(self, letters: Sequence[str]) -> PolyMatrix:
        """The matrix of T_{l1} ... T_{lk} for the generator names l."""
        letters = tuple(letters)
        got = self._words.get(letters)
        if got is None:
            last = self.tmat[letters[-1]]
            got = last if len(letters) == 1 else self.word_mat(letters[:-1]) * last
            self._words[letters] = got
        return got

    def act_parabolic(self, elt: BernsteinElt) -> PolyMatrix:
        """The matrix of an element of H_J in Bernstein form."""
        wd = self.alg.wd
        return PolyMatrix.combination(self.alg.table, self.dim, (
            (self.theta_of(x) * self.word_mat(wd.finite_word(w)), c)
            for (x, w), c in elt.c.items()
        ))

    def act_elt(self, e: Elt) -> PolyMatrix:
        if self.scope is not None:
            raise ValueError("IM action needs a full-algebra module")
        return self.word_mat(self.alg.wd.word(e))

    def act(self, h: HeckeElt) -> PolyMatrix:
        return PolyMatrix.combination(
            self.alg.table, self.dim, ((self.act_elt(e), c) for e, c in h.c.items())
        )

    def trace(self, h: Union[HeckeElt, Elt]) -> LaurentPoly:
        if not isinstance(h, HeckeElt):
            return self.act_elt(h).trace()
        return self.act(h).trace()

    def trace_parabolic(self, elt: BernsteinElt) -> LaurentPoly:
        return self.act_parabolic(elt).trace()

    # -- certificates -----------------------------------------------------------

    def verify_relations(self) -> list[str]:
        """Exact matrix checks of every defining relation family in scope; a pass is kept."""
        if self._relations:
            return list(self._relations)
        alg = self.alg
        wd = alg.wd
        table = alg.table
        ident = PolyMatrix.identity(table, self.dim)
        done = []

        def need(cond, family, detail=""):
            if not cond:
                raise RelationFailed(f"{family} {detail}".strip())

        if self.scope is None:
            names = [s.name for s in wd.affine_simple]
        else:
            names = [wd.pi_names[j] for j in self.scope]
        for name in names:
            T = self.tmat[name]
            resid = (T + ident) * (T - ident.scale(alg.Q_of_sa[wd.sa_index[name]]))
            need(resid.is_zero(), "quadratic", name)
        done.append("quadratic")
        for n1, n2 in itertools.combinations(names, 2):
            m = wd.bond_order(wd.sa_index[n1], wd.sa_index[n2])
            if m is None:
                continue
            a = self.word_mat([(n1, n2)[t % 2] for t in range(m)])
            b = self.word_mat([(n2, n1)[t % 2] for t in range(m)])
            need(a == b, "braid", f"{n1},{n2} (m={m})")
        done.append("braid")
        if self.scope is None:
            for kk, name in enumerate(wd.omega_names):
                om = wd.omega_elements[kk + 1]
                for s in wd.affine_simple:
                    conj = wd.conjugate(om, s.elt)
                    cname = wd.affine_simple[wd.sa_by_elt[conj]].name
                    lhs = self.tmat[name] * self.tmat[s.name]
                    rhs = self.tmat[cname] * self.tmat[name]
                    need(lhs == rhs, "omega-conjugation", f"{name},{s.name}")
                for k2, name2 in enumerate(wd.omega_names):
                    prod = wd.mult(om, wd.omega_elements[k2 + 1])
                    need(
                        self.tmat[name] * self.tmat[name2] == self._omega_mat(prod),
                        "omega-mult",
                        f"{name},{name2}",
                    )
            done.append("omega")
            pi_positions = range(wd.npi)
        else:
            pi_positions = self.scope
        for i in range(wd.rank):
            need(self.theta_pos[i] * self.theta_neg[i] == ident, "theta-invertible", f"e{i}")
            for i2 in range(i + 1, wd.rank):
                need(
                    self.theta_pos[i] * self.theta_pos[i2]
                    == self.theta_pos[i2] * self.theta_pos[i],
                    "theta-commute",
                    f"e{i},e{i2}",
                )
        done.append("theta-group")
        par = alg.parabolic(tuple(pi_positions))
        signed_basis = intlinalg.signed_basis(wd.rank)
        for j in pi_positions:
            T = self.tmat[wd.pi_names[j]]
            for x in (v for pair in signed_basis for v in pair):
                sx = par._s_act(j, x)
                lhs = self.theta_of(x) * T - T * self.theta_of(sx)
                rhs = PolyMatrix.combination(
                    table, self.dim, ((self.theta_of(z), c) for z, c in par.bl_comm(j, x).items())
                )
                need(lhs == rhs, "bernstein-lusztig", f"{wd.pi_names[j]}, x={x}")
        done.append("bernstein-lusztig")
        if self.scope is None and wd.rank > 0:
            for i, (e, _) in enumerate(signed_basis):
                need(self.theta_pos[i] == self.act(alg.theta_im(e)), "theta-consistency", f"e{i}")
            done.append("theta-consistency")
        self._relations.extend(done)
        return done

    def _omega_mat(self, om: Elt) -> PolyMatrix:
        wd = self.alg.wd
        if om == wd.identity():
            return PolyMatrix.identity(self.alg.table, self.dim)
        name = wd.omega_names[list(wd.omega_elements).index(om) - 1]
        return self.tmat[name]


def _theta_mats(m: int, theta) -> tuple[list, list]:
    """The matrices theta(e_i) and theta(-e_i) over the standard basis of Z^m."""
    pos, neg = [], []
    for e, minus_e in intlinalg.signed_basis(m):
        pos.append(theta(e))
        neg.append(theta(minus_e))
    return pos, neg


def one_dim_modules(alg: HeckeContext) -> list[FinDimModule]:
    """All one-dimensional modules, sorted by their values.

    Each is read off its generator values and certified.  The quadratic
    relation puts T_s in {-1, Q_s}; an odd braid relation forces equal values
    on its pair, and Ω-conjugation T_ω T_s T_ω^{-1} = T_{ωsω^{-1}} on each
    Ω-orbit, which are the pairs ``WeylData.param_orbits`` is built from, so
    one value per orbit.  T_ω has finite order, and the only finite-order
    units of the Laurent ring are ±1, so a sign per Ω generator.  θ_{e_i} is
    then the scalar of the IM form of θ_{e_i}, θ_{-e_i} its inverse.  Every
    candidate is certified by ``verify_relations`` and dropped if it fails
    (sign choices that are not a character of Ω), as is one whose θ_{e_i} is
    not a unit monomial; so the list is complete.
    """
    wd = alg.wd
    mone = LaurentPoly.const(alg.table, -1)
    orbit_values = [(mone, alg.Q_of_sa[orbit[0]]) for orbit in wd.param_orbits]
    out = []
    for values in itertools.product(*orbit_values):
        tvals = {s.name: values[wd.orbit_of_sa[k]] for k, s in enumerate(wd.affine_simple)}
        for signs in itertools.product((mone, -mone), repeat=len(wd.omega_names)):
            tvals.update(zip(wd.omega_names, signs))
            tmat = {name: PolyMatrix([[c]]) for name, c in tvals.items()}
            gens = FinDimModule(alg, None, 1, tmat, [], [])
            pos = [gens.act(alg.theta_im(e)) for e, _ in intlinalg.signed_basis(wd.rank)]
            if not all(p.entries[0][0].is_monomial() for p in pos):
                continue
            neg = [PolyMatrix([[p.entries[0][0].inverse()]]) for p in pos]
            mod = FinDimModule(alg, None, 1, tmat, pos, neg)
            mod._words.update(gens._words)  # the same generator matrices
            try:
                mod.verify_relations()
            except RelationFailed:
                continue
            out.append(mod)
    return sorted(out, key=lambda mod: (
        tuple(sorted((n, mat.entries[0][0].render()) for n, mat in mod.tmat.items())),
        tuple(p.entries[0][0].render() for p in mod.theta_pos),
    ))


class TwistChar:
    """An unramified character of X trivial on X ∩ QJ.

    Values are Laurent monomials: products of twist variables for the
    symbolic character, rationals for a numeric one.
    """

    def __init__(self, qa: QuotientAlgebra, values: Optional[Sequence] = None, symbolic: bool = False):
        parent = qa.parent
        self.qa = qa
        m = parent.wd.rank
        J = qa.J
        if J:
            sat = intlinalg.row_saturation(
                [list(parent.wd.datum.simple_roots[j]) for j in J]
            )
        else:
            sat = []
        if sat:
            d, _u, v = intlinalg.smith_normal_form(sat)
            rank_sub = sum(1 for i in range(min(len(sat), m)) if d[i][i] != 0)
        else:
            v = intlinalg.identity_matrix(m)
            rank_sub = 0
        self.rank = m - rank_sub
        # coordinates of x in the adapted basis (rows of V^{-1}) are V^T x;
        # the last self.rank ones are free
        self._coord_rows = [[v[r][i] for r in range(m)] for i in range(rank_sub, m)]
        table = parent.table
        if symbolic:
            if len(parent.twist_names) < self.rank:
                raise ValueError(
                    f"context has {len(parent.twist_names)} twist variables, need {self.rank}"
                )
            self.values = [table.gen(parent.twist_names[k]) for k in range(self.rank)]
        elif values is None:
            self.values = [LaurentPoly.const(table, 1)] * self.rank
        else:
            if len(values) != self.rank:
                raise ValueError(f"need {self.rank} twist values")
            vals = []
            for val in values:
                p = val if isinstance(val, LaurentPoly) else LaurentPoly.const(table, val)
                if not p.is_monomial():
                    raise ValueError("twist values must be invertible monomials")
                vals.append(p)
            self.values = vals

    def of(self, x: Sequence[int]) -> LaurentPoly:
        out = LaurentPoly.const(self.qa.parent.table, 1)
        for k, row in enumerate(self._coord_rows):
            c = sum(r * xi for r, xi in zip(row, x))
            if c:
                out = out * self.values[k] ** c
        return out


def inflate_chi_t(
    qa: QuotientAlgebra, sigma: FinDimModule, twist: Optional[TwistChar] = None
) -> FinDimModule:
    """Pull an H_J^sem-module back to H_J through χ_t: θ_x ↦ t(x) θ_{x_J}."""
    parent = qa.parent
    if sigma.alg is not qa.ctx:
        raise ValueError("sigma must live over the quotient algebra")
    t = twist if twist is not None else TwistChar(qa)
    J = qa.J
    qnames = qa.ctx.wd.pi_names
    tmat = {parent.wd.pi_names[j]: sigma.tmat[qnames[pos]] for pos, j in enumerate(J)}
    pos_mats, neg_mats = _theta_mats(
        parent.wd.rank, lambda x: sigma.theta_of(qa.quot.project(x)).scale(t.of(x))
    )
    mod = FinDimModule(parent, tuple(J), sigma.dim, tmat, pos_mats, neg_mats)
    mod.verify_relations()
    return mod


def finite_parahoric_module(
    alg: HeckeContext, K: Sequence[str], name: str
) -> dict:
    """Matrices of a built-in simple module of the finite algebra on K.

    For |K| = 1 (type A1): names "sign" (T = -1) and "triv" (T = Q).  For
    |K| = 2 with bond 4 (type C2): the bipartition-labelled modules of the
    finite type-C2 algebra; the 2-dimensional 1x1 uses an explicit two-parameter
    model whose braid identity (T_a T_b)^2 = (T_b T_a)^2 = -Q_a Q_b holds
    exactly.
    """
    table = alg.table
    wd = alg.wd
    idx = [wd.sa_index[n] for n in K]
    Q = [alg.Q_of_sa[i] for i in idx]
    one = LaurentPoly.const(table, 1)
    mone = LaurentPoly.const(table, -1)
    zero = LaurentPoly(table, {})
    if len(K) == 1:
        if name == "sign":
            return {K[0]: PolyMatrix([[mone]])}
        if name == "triv":
            return {K[0]: PolyMatrix([[Q[0]]])}
        raise KeyError(f"unknown A1 module {name!r}")
    if len(K) == 2:
        m = wd.bond_order(idx[0], idx[1])
        if m != 4:
            raise KeyError(f"built-in finite modules need a type-C2 pair, bond {m}")
        qa, qb = Q
        scalars = {
            "2x0": (qa, qb),
            "11x0": (mone, qb),
            "0x2": (qa, mone),
            "0x11": (mone, mone),
        }
        if name in scalars:
            va, vb = scalars[name]
            return {K[0]: PolyMatrix([[va]]), K[1]: PolyMatrix([[vb]])}
        if name == "1x1":
            ta = PolyMatrix([[mone, qa + qb], [zero, qa]])
            tb = PolyMatrix([[qb, zero], [one, mone]])
            return {K[0]: ta, K[1]: tb}
        raise KeyError(f"unknown C2 module {name!r}")
    raise KeyError("built-in finite modules cover |K| <= 2 only")


def lift_from_parahoric(
    alg: HeckeContext,
    K: Sequence[str],
    module: str,
    scalars: dict,
) -> FinDimModule:
    """Extend the built-in finite-parahoric module ``module`` on K (see
    :func:`finite_parahoric_module`) by scalars on the other generators.

    ``scalars`` maps each S^a name outside K to "-1" or "Q".  Requires
    trivial Omega (otherwise no canonical Omega action exists).
    """
    wd = alg.wd
    if wd.omega_names:
        raise ValueError("parahoric lifts are implemented for trivial Omega only")
    tmat = finite_parahoric_module(alg, K, module)
    dim = next(iter(tmat.values())).rows
    for s in wd.affine_simple:
        if s.name in tmat:
            continue
        tag = scalars[s.name]
        val = (
            LaurentPoly.const(alg.table, -1)
            if tag == "-1"
            else alg.Q_of_sa[wd.sa_index[s.name]]
        )
        tmat[s.name] = PolyMatrix.identity(alg.table, dim).scale(val)
    # θ acts through the IM form of θ_x, on the generators alone
    gens = FinDimModule(alg, None, dim, tmat, [], [])
    pos, neg = _theta_mats(wd.rank, lambda x: gens.act(alg.theta_im(x)))
    mod = FinDimModule(alg, None, dim, tmat, pos, neg)
    mod._words.update(gens._words)  # the same generator matrices
    mod.verify_relations()
    return mod


def _induced(
    alg: HeckeContext,
    J: tuple[int, ...],
    sigma: FinDimModule,
    reps: Sequence[int],
    scope: Optional[tuple[int, ...]],
    names: Sequence[str],
) -> FinDimModule:
    """The module on {T_u ⊗ e_i}, u ∈ reps, induced from the H_J-module sigma.

    ``names`` are the T-generators to realize.  Each matrix is assembled
    block by block from the H_J decomposition of (generator)·T_u.
    """
    par = alg.parabolic(J)
    pos_of = {u: k for k, u in enumerate(reps)}
    n = sigma.dim
    dim = len(reps) * n

    def assemble(gen_bernstein: BernsteinElt) -> PolyMatrix:
        out = [[alg.zero() for _ in range(dim)] for _ in range(dim)]
        for u in reps:
            b = gen_bernstein.mul_word_right(alg.wd.W.word[u])
            for u2, blk in par.decompose(b).items():
                if u2 not in pos_of:
                    raise RelationFailed("induction block left the subgroup")
                # each block (u2, u) is met once: decompose has one block per u2
                r0 = pos_of[u2] * n
                c0 = pos_of[u] * n
                for r, row in enumerate(sigma.act_parabolic(blk).entries):
                    out[r0 + r][c0:c0 + n] = row
        return PolyMatrix(out)

    tmat = {name: assemble(alg.bernstein_seed(name)) for name in names}
    pos_mats, neg_mats = _theta_mats(alg.wd.rank, lambda x: assemble(alg.theta_element(x)))
    mod = FinDimModule(alg, scope, dim, tmat, pos_mats, neg_mats)
    mod.verify_relations()
    return mod


def induce(alg: HeckeContext, J: Sequence[int], sigma: FinDimModule) -> FinDimModule:
    """Parabolic induction to the full algebra: basis {T_u ⊗ e_i}, u ∈ W^J."""
    J = tuple(sorted(J))
    if sigma.scope is None or tuple(sigma.scope) != J:
        raise ValueError(f"sigma must be an H_J-module for J={J}")
    return _induced(alg, J, sigma, alg.parabolic(J).coset_reps, None, alg.wd.gen_names)


def induce_in_parabolic(
    alg: HeckeContext, K: Sequence[int], J: Sequence[int], sigma: FinDimModule
) -> FinDimModule:
    """i^K_J: induction from H_J to H_K inside the ambient algebra."""
    K = tuple(sorted(K))
    J = tuple(sorted(J))
    if not set(J) <= set(K):
        raise ValueError("J must be contained in K")
    if sigma.scope is None or tuple(sigma.scope) != J:
        raise ValueError(f"sigma must be an H_J-module for J={J}")
    parK = alg.parabolic(K)
    reps = [u for u in alg.parabolic(J).coset_reps if u in parK.member_set]
    return _induced(alg, J, sigma, reps, K, [alg.wd.pi_names[j] for j in K])


def restrict(mod: FinDimModule, K: Sequence[int]) -> FinDimModule:
    """Forget the T-generators outside K; θ matrices are kept.  The relations
    of H_K are a subset of those the source's constructor proved, so nothing is
    verified: the result inherits that certificate and the θ and K-word memos."""
    K = tuple(sorted(K))
    in_scope = set(range(mod.alg.wd.npi)) if mod.scope is None else set(mod.scope)
    if not set(K) <= in_scope:
        raise ValueError(f"K={K} not contained in scope {sorted(in_scope)}")
    names = mod.alg.wd.pi_names
    tmat = {names[j]: mod.tmat[names[j]] for j in K}
    out = FinDimModule(mod.alg, K, mod.dim, tmat, mod.theta_pos, mod.theta_neg)
    out._relations.extend(f for f in mod._relations if f not in ("omega", "theta-consistency"))
    out._thetas.update(mod._thetas)
    out._words.update((w, m) for w, m in mod._words.items() if tmat.keys() >= set(w))
    return out


def twist_by(mod: FinDimModule, w: int, J: Sequence[int]) -> FinDimModule:
    """Transport an H_K-module to H_J along w with w(J) = K.

    The new module acts by T_{s_j} ↦ M(T_{s_{w(j)}}) and θ_x ↦ M(θ_{w(x)}).
    """
    alg = mod.alg
    wd = alg.wd
    J = tuple(sorted(J))
    roots = wd.datum.simple_roots
    pi_pos = {roots[j]: j for j in range(wd.npi)}
    tmat = {}
    for j in J:
        img = wd.W.act(w, roots[j])
        if img not in pi_pos:
            raise ValueError(f"w does not map alpha_{j} to a simple root")
        k = pi_pos[img]
        if mod.scope is not None and k not in mod.scope:
            raise ValueError("w(J) is not inside the module scope")
        tmat[wd.pi_names[j]] = mod.tmat[wd.pi_names[k]]
    pos, neg = _theta_mats(wd.rank, lambda x: mod.theta_of(wd.W.act(w, x)))
    out = FinDimModule(alg, J, mod.dim, tmat, pos, neg)
    out.verify_relations()
    return out
