"""The affine Hecke algebra over the Laurent ring of formal parameter roots.

Internal canonical form is Iwahori-Matsumoto: finite maps from extended
affine Weyl elements to Laurent coefficients, with T_w T_s = T_{ws} when
lengths add and the quadratic relation (T_s + 1)(T_s - q(s)^2) = 0.  The
Bernstein-Lusztig form Σ c θ_x T_w is computed on demand: θ_x is seeded from
dominant translations via θ_x = q(t_{x1})^{-1} q(t_{x2}) T_{t_{x1}}
T_{t_{x2}}^{-1} for the split x1 = x + c·2ρ, x2 = c·2ρ of
``HeckeContext.dominant_split`` (Lusztig, *Affine Hecke algebras and their
graded version*, J. AMS 2 (1989)), the word of t_{x2} and both q's read off
the right-descent walk ``WeylData.descend`` (so no BFS ball of radius l(t)),
every generator outside the finite Hecke algebra (the affine s0 and Ω) gets
its Bernstein expression from the one IM -> Bernstein conversion (never
hardcoded), and the one commutation recursion
(``Parabolic.move_theta_left``) uses the finite geometric-sum expansion of the
Bernstein-Lusztig relation, with the q(s)q(s~) branch when α^ ∈ 2X^.

Parabolic subalgebras H_J carry the same lattice and the parameter pairs
inherited from the ambient diagram; their elements are plain BernsteinElts
supported on W_J.  The cocenter operations (T_O, reduction to minimal
classes, the r̄_J blocks) all live here; the reduction finds its descents
with ``conj.plateau``.

Accumulation: products, basis changes and reductions add every contribution
into one raw term map per basis key (``exactpoly._addmul``), which becomes a
coefficient once: at the end, or when an elimination takes its key off the
work map.

Products run along the prefix tree of reduced words.  ``WeylData.word`` gives
the lex-least geodesic word, and every prefix of such a word is the lex-least
word of its own element, so h·T_w for the support of a product is computed as
h·T_{w'}·T_s from the memoised h·T_{w'} of the prefix w' = w minus its last
letter s: each distinct prefix costs one generator step.  Right division by
T_s is one pass of the same step: T_e T_s^{-1} = T_{es} when the length goes
down, and Q^{-1} T_{es} + (Q^{-1} - 1) T_e when it goes up.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Mapping, NamedTuple, Optional, Sequence

from .conj import ComputationFailed, ConjClassRecord, NotFound, class_record, plateau
from .exactpoly import LaurentPoly, PARAM_SQRT, TWIST, VarTable, _addmul, _clean
from .rootdata import SemisimpleQuotient, semisimple_quotient
from .weyl import Elt, WeylData, union_find

Vec = tuple[int, ...]
BKey = tuple[Vec, int]  # (theta exponent, finite Weyl index)

CONVERSION_BUDGET = 50_000  # the most steps of one IM -> Bernstein conversion
REDUCE_BUDGET = 1_000_000  # the most steps of one cocenter reduction


class ConversionBudgetExceeded(ComputationFailed, RuntimeError):
    pass


class NonNewtonZeroLeaf(ComputationFailed, RuntimeError):
    """Cocenter reduction reached a class outside the provided list."""


class BudgetExceeded(ComputationFailed, RuntimeError):
    pass


def _sqrt_name(orbit_name: str) -> str:
    return "v" + orbit_name[1:] if orbit_name.startswith("q") else "v_" + orbit_name


def _quadratic_step(raw: dict, w, ws, up: bool, v: LaurentPoly, quad) -> None:
    """raw += v T_w T_s on raw per-key term maps, for the basis keys w and ws
    (of w s): v T_ws if the length goes up, else v ((Q - 1) T_w + Q T_ws);
    ``quad`` holds the term maps of 1, Q and Q - 1."""
    one, Q, Qm1 = quad
    if up:
        _addmul(raw.setdefault(ws, {}), v.terms, one)
    else:
        _addmul(raw.setdefault(w, {}), v.terms, Qm1)
        _addmul(raw.setdefault(ws, {}), v.terms, Q)


def _twin_nodes(wd: WeylData) -> list[Optional[int]]:
    """Per Pi position, the S^a index of its q(s~)-twin s~, or None.

    A 2X^-flagged finite node lies in an affine C~_l component, which is a
    path graph; its twin is the mirror node of that path.
    """
    n = len(wd.affine_simple)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (m := wd.bond_order(i, j)) is None or m > 2
    ]
    bonds: dict[int, list[int]] = {}
    for i, j in edges:
        bonds.setdefault(i, []).append(j)
        bonds.setdefault(j, []).append(i)
    root = union_find(n, edges)
    out: list[Optional[int]] = []
    for pos in range(wd.npi):
        if not wd.two_Xvee_flags[pos]:
            out.append(None)
            continue
        k = wd.sa_index[wd.pi_names[pos]]
        comp = {a for a in range(n) if root[a] == root[k]}
        if len(comp) == 1:
            raise ValueError("2X^-flagged root with isolated diagram node")
        ends = [a for a in comp if len(bonds[a]) == 1]
        path = [min(ends)]
        while len(path) < len(comp):
            nbrs = [b for b in bonds[path[-1]] if b not in path]
            if len(nbrs) != 1:
                raise ValueError("2X^ component is not a path; cannot find s~")
            path.append(nbrs[0])
        out.append(path[len(path) - 1 - path.index(k)])
    return out


class HeckeContext:
    """Algebra context: a WeylData plus the parameter/twist variable table.

    ``orbit_assignment`` maps orbit names to display parameter names and may
    merge orbits (the SL(2) table uses a single q for both orbits).
    """

    def __init__(
        self,
        wd: WeylData,
        orbit_assignment: Optional[Mapping[str, str]] = None,
        n_twist: int = 0,
        table: Optional[VarTable] = None,
        var_of_orbit: Optional[Sequence[str]] = None,
    ):
        self.wd = wd
        if table is not None:
            # shared-ring construction (quotient algebras)
            self.table = table
            self.var_of_orbit = list(var_of_orbit)
        else:
            assignment = dict(orbit_assignment or {})
            display = [assignment.get(n, n) for n in wd.orbit_names]
            names: list[str] = []
            for d in display:
                v = _sqrt_name(d)
                if v not in names:
                    names.append(v)
            kinds = [PARAM_SQRT] * len(names)
            for k in range(n_twist):
                names.append(f"z{k}")
                kinds.append(TWIST)
            self.table = VarTable(tuple(names), tuple(kinds))
            self.var_of_orbit = [_sqrt_name(d) for d in display]
        self.twist_names = [
            n for n, k in zip(self.table.names, self.table.kinds) if k == TWIST
        ]
        self._one = LaurentPoly.const(self.table, 1)
        self._zero = LaurentPoly(self.table, {})
        # per affine-simple data
        self.v_of_sa = [
            self.table.gen(self.var_of_orbit[wd.orbit_of_sa[k]])
            for k in range(len(wd.affine_simple))
        ]
        self.Q_of_sa = [v * v for v in self.v_of_sa]
        self._quad_of_sa = [(self._one.terms, Q.terms, (Q - 1).terms) for Q in self.Q_of_sa]
        # the same for T_s^{-1} = Q^{-1} T_s + (Q^{-1} - 1): 1, Q^{-1} and Q^{-1} - 1
        inverses = [Q.inverse() for Q in self.Q_of_sa]
        self._quadinv_of_sa = [(self._one.terms, Qi.terms, (Qi - 1).terms) for Qi in inverses]
        # per finite simple root: v, Q, and the q(s)q(s~) twin data
        self._build_finite_pairs()
        self.two_rho, self.two_rho_vee = (0,) * wd.rank, [0] * wd.rank
        for k, pos in enumerate(wd.roots.positive):
            if pos:
                self.two_rho = tuple(a + b for a, b in zip(self.two_rho, wd.roots.roots[k]))
                cv = wd.roots.coroots[k]
                self.two_rho_vee = [a + b for a, b in zip(self.two_rho_vee, cv)]
        self._theta_im_cache: dict[Vec, "HeckeElt"] = {}
        self._elim_ranks: dict[Elt, tuple] = {}
        self._theta_T_cache: dict[BKey, "HeckeElt"] = {}
        self._bern_seed: dict[str, "BernsteinElt"] = {}
        self._parabolic_cache: dict[tuple[int, ...], "Parabolic"] = {}
        self._quotient_cache: dict[tuple[int, ...], "QuotientAlgebra"] = {}

    # -- parameter plumbing --------------------------------------------------

    def _build_finite_pairs(self):
        wd = self.wd
        self.v_of_pi = [self.v_of_sa[wd.sa_index[name]] for name in wd.pi_names]
        self.Q_of_pi = [v * v for v in self.v_of_pi]
        self._quad_of_pi = [(self._one.terms, Q.terms, (Q - 1).terms) for Q in self.Q_of_pi]
        self.twin_v_of_pi = [None if k is None else self.v_of_sa[k] for k in _twin_nodes(wd)]

    def one(self) -> LaurentPoly:
        return self._one

    def zero(self) -> LaurentPoly:
        return self._zero

    def q_of_elt(self, e: Elt) -> LaurentPoly:
        """The product of v(s) over the S^a letters of a reduced word of e."""
        out = self._one
        for name in self.wd.descend(e)[1]:
            out = out * self.v_of_sa[self.wd.sa_index[name]]
        return out

    # -- IM elements -----------------------------------------------------------

    def elt(self, support: Mapping[Elt, LaurentPoly]) -> "HeckeElt":
        return HeckeElt(self, dict(support))

    def unit(self) -> "HeckeElt":
        return HeckeElt(self, {self.wd.identity(): self._one})

    def T(self, e: Elt) -> "HeckeElt":
        return HeckeElt(self, {e: self._one})

    # -- theta machinery ---------------------------------------------------------

    def is_dominant(self, x: Sequence[int]) -> bool:
        d = self.wd.datum
        return all(
            sum(a * b for a, b in zip(x, d.simple_coroots[i])) >= 0
            for i in range(self.wd.npi)
        )

    def dominant_split(self, x: Vec) -> tuple[Vec, Vec]:
        """x = x1 - x2 with x1 = x + c·2ρ and x2 = c·2ρ both dominant.

        2ρ, the sum of the positive roots, pairs to 2 with every simple coroot
        (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
        §10.2, Lemma B and its corollary), so c = ⌈max(0, -min_i <x, α_i^>)/2⌉
        is the least c that makes x + c·2ρ dominant."""
        low = min((sum(a * b for a, b in zip(x, cv)) for cv in self.wd.datum.simple_coroots),
                  default=0)
        x2 = tuple((max(0, -low) + 1) // 2 * r for r in self.two_rho)
        return tuple(a + b for a, b in zip(x, x2)), x2

    def theta_im(self, x: Vec) -> "HeckeElt":
        """IM form of θ_x."""
        x = tuple(x)
        got = self._theta_im_cache.get(x)
        if got is not None:
            return got
        x1, x2 = self.dominant_split(x)
        out = self.theta_im_from_split(x1, x2)
        self._theta_im_cache[x] = out
        return out

    def theta_im_from_split(self, x1: Vec, x2: Vec) -> "HeckeElt":
        """q(t_{x1})^{-1} q(t_{x2}) T_{t_{x1}} T_{t_{x2}}^{-1} for a chosen
        dominant split; the result is independent of the split (tested)."""
        wd = self.wd
        if not (self.is_dominant(x1) and self.is_dominant(x2)):
            raise ValueError("both split parts must be dominant")
        t1 = wd.translation(x1)
        t2 = wd.translation(x2)
        omega, letters = wd.descend(t2)  # t2 = omega s_n ... s_1, reduced
        word = tuple(n for n in wd.omega_names if wd.generator_elt(n) == omega) + letters[::-1]
        out = self.T(t1).mul_word_right(word, inverse=True)
        return out.scale(self.q_of_elt(t1).inverse() * self.q_of_elt(t2))

    def theta_element(self, x: Vec) -> "BernsteinElt":
        """θ_x as a Bernstein basis element (its IM form is theta_im)."""
        return BernsteinElt(self, {(tuple(x), 0): self._one})

    def theta_T_im(self, x: Vec, w: int) -> "HeckeElt":
        key = (tuple(x), w)
        got = self._theta_T_cache.get(key)
        if got is not None:
            return got
        out = self.theta_im(x).mul_word_right(self.wd.finite_word(w))
        self._theta_T_cache[key] = out
        return out

    # -- IM <-> Bernstein conversion -----------------------------------------------

    def _elim_key(self, e: Elt):
        x, w = e
        dom = self.wd.dominant_rep([Fraction(c) for c in x])
        dom = tuple(int(c) for c in dom)
        l_dom = sum(
            a * b for a, b in zip(dom, self.two_rho_vee)
        )
        drop = sum((a - Fraction(b)) * c for a, b, c in zip(dom, x, self.two_rho_vee))
        return (l_dom, drop, self.wd.W.length[w], w, x)

    def _elim_rank(self, e: Elt) -> tuple:
        """The memoised :meth:`_elim_key` of e negated entry by entry.  Keys end
        in (w, x), so they are unique: the least rank is what
        ``max(work, key=_elim_key)`` picks."""
        got = self._elim_ranks.get(e)
        if got is None:
            l_dom, drop, lw, w, x = self._elim_key(e)
            got = self._elim_ranks[e] = (-l_dom, -drop, -lw, -w, tuple(-c for c in x))
        return got

    def im_to_bernstein(self, h: "HeckeElt") -> "BernsteinElt":
        work = {e: dict(c.terms) for e, c in h.c.items()}  # raw term maps
        heap = sorted((self._elim_rank(e), e) for e in work)
        out: dict[BKey, LaurentPoly] = {}
        steps = 0
        while work:
            e = heappop(heap)[1]
            while e not in work:  # lazy deletion: e was taken off earlier
                e = heappop(heap)[1]
            c = _clean(self.table, work.pop(e))
            if c.is_zero():
                continue
            steps += 1
            if steps > CONVERSION_BUDGET:
                raise ConversionBudgetExceeded(f"IM->Bernstein exceeded {CONVERSION_BUDGET} steps")
            x, w = e
            p = self.theta_T_im(x, w)
            unit = p.c.get(e)
            if unit is None or not unit.is_monomial():
                raise ConversionBudgetExceeded(
                    f"theta_T({x},{w}) has non-unit coefficient at its anchor"
                )
            q = c * unit.inverse()
            out[e] = out[e] + q if e in out else q
            minus_q = (-q).terms
            for f, cf in p.c.items():
                if f != e:
                    if f not in work:
                        work[f] = {}
                        heappush(heap, (self._elim_rank(f), f))
                    _addmul(work[f], cf.terms, minus_q)
        return BernsteinElt(self, out)

    def bernstein_to_im(self, b: "BernsteinElt") -> "HeckeElt":
        return HeckeElt.combination(
            self, ((self.theta_T_im(x, w), c) for (x, w), c in b.c.items())
        )

    def bernstein_seed(self, name: str) -> "BernsteinElt":
        """Bernstein form of the generator T_name: a finite T_s is the basis
        element θ_0 T_s; every other generator (the affine s0 of each
        component, and each ω in Ω) is converted by :meth:`im_to_bernstein`."""
        got = self._bern_seed.get(name)
        if got is None:
            wd = self.wd
            k = wd.sa_index.get(name)
            if k is not None and wd.affine_simple[k].kind == "finite":
                key = ((0,) * wd.rank, wd.W.gen_index[wd.affine_simple[k].pi_index])
                got = BernsteinElt(self, {key: self._one})
            else:
                got = self.im_to_bernstein(self.T(wd.generator_elt(name)))
            self._bern_seed[name] = got
        return got

    # -- subalgebras ------------------------------------------------------------------

    def parabolic(self, J: Sequence[int]) -> "Parabolic":
        J = tuple(sorted(J))
        got = self._parabolic_cache.get(J)
        if got is None:
            got = Parabolic(self, J)
            self._parabolic_cache[J] = got
        return got

    def quotient_algebra(self, J: Sequence[int]) -> "QuotientAlgebra":
        J = tuple(sorted(J))
        got = self._quotient_cache.get(J)
        if got is None:
            got = QuotientAlgebra(self, J)
            self._quotient_cache[J] = got
        return got

    # -- cocenter ---------------------------------------------------------------------

    def cocenter_reduce(
        self,
        e: Elt,
        classes: Sequence[ConjClassRecord],
        extend: bool = False,
    ) -> "CocenterCombination":
        """Express T_e as Σ a_O T_O modulo commutators by length descent."""
        wd = self.wd
        known = list(classes)
        out: dict[str, dict] = {}  # raw term maps, as in work
        rec_by_label = {r.label: r for r in known}
        work: dict[Elt, dict] = {e: dict(self._one.terms)}
        steps = 0
        while work:
            cur = max(work, key=lambda t: (wd.length(t), t[0], t[1]))
            c = _clean(self.table, work.pop(cur))
            if c.is_zero():  # the contributions cancelled: not a step
                continue
            steps += 1
            if steps > REDUCE_BUDGET:
                raise BudgetExceeded(f"cocenter reduction exceeded {REDUCE_BUDGET} steps")
            lcur = wd.length(cur)
            seen, descent = plateau(wd, cur)
            if descent is None:
                # minimal: seen is the whole minimal-length plateau of cur
                rec = next((r for r in known if not seen.keys().isdisjoint(r.min_reps)), None)
                if rec is None:
                    if not extend:
                        nu, _ = wd.newton_point(cur)
                        if any(nu):
                            raise NonNewtonZeroLeaf(
                                f"leaf {wd.render(cur)} has Newton point {nu}"
                            )
                        raise NotFound(
                            f"minimal leaf {wd.render(cur)} not in the class list"
                        )
                    rec = class_record(wd, seen)
                    known.append(rec)
                    rec_by_label[rec.label] = rec
                _addmul(out.setdefault(rec.label, {}), c.terms, self._one.terms)
                continue
            f, name = descent
            k = wd.sa_index[name]
            sf = wd.mult(wd.affine_simple[k].elt, f)
            sfs = wd.conjugate_gen(name, f)
            if wd.length(sf) != lcur - 1:
                # use the right-handed variant: T_f = T_{fs} T_s
                fs = wd.mult_gen(f, name)
                if wd.length(fs) != lcur - 1:
                    raise RuntimeError("descent without one-sided length drop")
                sf = fs
            _quadratic_step(work, sf, sfs, False, c, self._quad_of_sa[k])
        entries = [(rec_by_label[lab], c) for lab, r in out.items() if (c := _clean(self.table, r))]
        entries.sort(key=lambda t: (t[0].min_length, wd.word(t[0].rep)), reverse=True)
        return CocenterCombination(tuple(entries))

    # -- restriction to parabolic blocks ----------------------------------------------

    def bar_restrict(self, h: "HeckeElt", J: Sequence[int]) -> "BernsteinElt":
        """r̃_J(h) = Σ_u (u,u)-block of left multiplication on ⊕ T_u H_J.

        h is converted to Bernstein form once: its coordinates are unique, so
        (Bernstein form of h)·T_u is the Bernstein form of h·T_u."""
        par = self.parabolic(J)
        hb = self.im_to_bernstein(h)
        blocks = (par.decompose(hb.mul_word_right(self.wd.W.word[u])).get(u) for u in par.coset_reps)
        return BernsteinElt.combination(self, ((b, self._one) for b in blocks if b is not None))

    def adjoint_iJ_rJ(self, h: "HeckeElt", J: Sequence[int]) -> "HeckeElt":
        """ī_J(r̄_J(h)) at the element level: restrict blocks, embed back."""
        return self.bernstein_to_im(self.bar_restrict(h, J))

    def adjoint_A(self, h: "HeckeElt") -> "HeckeElt":
        """The operator adjoint to A: bar A = bar A^1 ∘ ... ∘ bar A^{|Pi|}."""
        from itertools import combinations

        npi = self.wd.npi
        cur = h
        for ell in range(npi, 0, -1):
            for K in combinations(range(npi), npi - ell):
                n_k = len(self.wd.normalizer_reps(K))
                cur = self.adjoint_iJ_rJ(cur, K) - cur.scale(
                    LaurentPoly.const(self.table, n_k)
                )
        return cur


def _render_sum(items) -> str:
    """Σ c*T[label] over (coefficient, label) pairs, or "0" if there are none."""
    parts = []
    for c, label in items:
        body = c.render()
        if len(c.terms) > 1:
            body = f"({body})"
        parts.append(f"{body}*T[{label}]")
    return " + ".join(parts) or "0"


class _Combination:
    """Finite combination Σ c_k b_k of basis keys with nonzero Laurent
    coefficients ``c``, over the algebra context ``ctx``."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: HeckeContext, c: dict):
        self.ctx = ctx
        self.c = {k: v for k, v in c.items() if not v.is_zero()}

    @classmethod
    def _of_raw(cls, ctx: HeckeContext, raw: dict):
        """The combination of raw per-key term maps (``exactpoly._addmul``)."""
        return cls(ctx, {k: _clean(ctx.table, r) for k, r in raw.items()})

    @classmethod
    def combination(cls, ctx: HeckeContext, pairs):
        """Σ h·c over the (combination h, LaurentPoly c) pairs, one raw term
        map per key."""
        raw: dict = {}
        for h, c in pairs:
            for k, v in h.c.items():
                _addmul(raw.setdefault(k, {}), v.terms, c.terms)
        return cls._of_raw(ctx, raw)

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(self.ctx, out)

    def __neg__(self):
        return type(self)(self.ctx, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c: LaurentPoly):
        return type(self)(self.ctx, {k: v * c for k, v in self.c.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.c == other.c

    def is_zero(self) -> bool:
        return not self.c


class HeckeElt(_Combination):
    """Finite Λ-combination of IM basis elements T_w."""

    __slots__ = ()

    def mul_gen_right(self, name: str) -> "HeckeElt":
        ctx = self.ctx
        wd = ctx.wd
        if name not in wd.sa_index:  # omega: length-preserving, e -> e g is one-to-one
            return HeckeElt(ctx, {wd.mult_gen(e, name): v for e, v in self.c.items()})
        quad = ctx._quad_of_sa[wd.sa_index[name]]
        raw: dict = {}
        for e, v in self.c.items():
            eg = wd.mult_gen(e, name)
            _quadratic_step(raw, e, eg, wd.length(eg) > wd.length(e), v, quad)
        return HeckeElt._of_raw(ctx, raw)

    def mul_geninv_right(self, name: str) -> "HeckeElt":
        """Multiply by T_s^{-1} = Q^{-1} T_s + (Q^{-1} - 1), or T_ω^{-1}, in one
        pass: T_e T_s^{-1} is T_{es} if the length goes down, else
        Q^{-1} T_{es} + (Q^{-1} - 1) T_e (the step of ``_quadratic_step``
        with Q^{-1} for Q and the length test reversed)."""
        ctx = self.ctx
        wd = ctx.wd
        if name not in wd.sa_index:
            inv = wd.gen_inverse[name]
            return HeckeElt(ctx, {wd.mult_gen(e, inv): v for e, v in self.c.items()})
        quad = ctx._quadinv_of_sa[wd.sa_index[name]]
        raw: dict = {}
        for e, v in self.c.items():
            es = wd.mult_gen(e, name)
            _quadratic_step(raw, e, es, wd.length(es) < wd.length(e), v, quad)
        return HeckeElt._of_raw(ctx, raw)

    def mul_word_right(self, letters: Sequence[str], inverse: bool = False) -> "HeckeElt":
        """self T_{l1} ... T_{lk} for the generator names l, or with
        ``inverse`` self (T_{l1} ... T_{lk})^{-1}."""
        out = self
        for name in reversed(letters) if inverse else letters:
            out = out.mul_geninv_right(name) if inverse else out.mul_gen_right(name)
        return out

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        """Σ_w (self·T_w) c_w, each self·T_w one step from that of its word's
        prefix (module docstring)."""
        word = self.ctx.wd.word
        right = {(): self}  # letters -> self·T_letters, for this product only

        def times(letters: tuple[str, ...]) -> "HeckeElt":
            got = right.get(letters)
            if got is None:
                got = right[letters] = times(letters[:-1]).mul_gen_right(letters[-1])
            return got

        return HeckeElt.combination(self.ctx, ((times(word(e)), v) for e, v in other.c.items()))

    def render(self) -> str:
        wd = self.ctx.wd
        items = sorted(self.c.items(), key=lambda t: (wd.length(t[0]), t[0][0], t[0][1]))
        return _render_sum((v, wd.render(e)) for e, v in items)

    def __repr__(self):
        return f"HeckeElt({self.render()})"


class BernsteinElt(_Combination):
    """Finite combination Σ c θ_x T_w with w in the finite Weyl group."""

    __slots__ = ()

    def mul_finite_gen_right(self, j: int) -> "BernsteinElt":
        """Right multiplication by T_{s_j} for a finite simple root position j."""
        ctx = self.ctx
        W = ctx.wd.W
        sj = W.gen_index[j]
        quad = ctx._quad_of_pi[j]
        raw: dict = {}
        for (x, w), v in self.c.items():
            ws = W.mult(w, sj)
            _quadratic_step(raw, (x, w), (x, ws), W.length[ws] > W.length[w], v, quad)
        return BernsteinElt._of_raw(ctx, raw)

    def mul_word_right(self, word: Sequence[int]) -> "BernsteinElt":
        """self T_{s_{j1}} ... T_{s_{jk}} for the Pi positions j of word."""
        out = self
        for j in word:
            out = out.mul_finite_gen_right(j)
        return out

    def __repr__(self):
        return f"BernsteinElt({len(self.c)} terms)"


class CocenterCombination(NamedTuple):
    """Σ a_O T_O with pairwise distinct classes."""

    entries: tuple[tuple[ConjClassRecord, LaurentPoly], ...]

    def render(self) -> str:
        from .exactpoly import OddDegree, render_in_Q

        def shown(c):
            try:
                return render_in_Q(c)
            except OddDegree:  # IM structure constants live in Q; be safe anyway
                return c

        return _render_sum((shown(c), rec.label) for rec, c in self.entries)


class Parabolic:
    """The parabolic subalgebra H_J (full lattice, roots R_J), Bernstein form.

    Also used with the full J = Pi to drive decompositions of the whole
    algebra into Σ T_u H_J blocks.
    """

    def __init__(self, ctx: HeckeContext, J: tuple[int, ...]):
        self.ctx = ctx
        self.J = J
        W = ctx.wd.W
        # the lex-least reduced word of an element of W_J uses only J letters
        self.members = [w for w in range(W.size) if set(W.word[w]) <= set(J)]
        self.member_set = set(self.members)
        self.coset_reps = ctx.wd.minimal_coset_reps(J)
        self._theta_left_cache: dict = {}

    def elt(self, c: dict) -> BernsteinElt:
        for (_x, w) in c:
            if w not in self.member_set:
                raise ValueError("support leaves W_J")
        return BernsteinElt(self.ctx, dict(c))

    # Bernstein-Lusztig commutator R_j(x) = θ_x T_s - T_s θ_{s x} as a θ-combo
    def bl_comm(self, j: int, x: Vec) -> dict:
        ctx = self.ctx
        d = ctx.wd.datum
        k = sum(a * b for a, b in zip(x, d.simple_coroots[j]))
        if k == 0:
            return {}
        alpha = d.simple_roots[j]
        if k < 0:
            sx = tuple(a - k * b for a, b in zip(x, alpha))
            return {y: -c for y, c in self.bl_comm(j, sx).items()}
        out: dict = {}
        Q = ctx.Q_of_pi[j]
        if ctx.twin_v_of_pi[j] is None:
            for i in range(k):  # the points x - i alpha are distinct
                out[tuple(a - i * b for a, b in zip(x, alpha))] = Q - 1
        else:
            v = ctx.v_of_pi[j]
            tw = ctx.twin_v_of_pi[j]
            cplus = v * tw - v * tw.inverse()
            t = k // 2
            for i in range(t):
                out[tuple(a - 2 * i * b for a, b in zip(x, alpha))] = Q - 1
                out[tuple(a - (2 * i + 1) * b for a, b in zip(x, alpha))] = cplus
        return {y: c for y, c in out.items() if not c.is_zero()}

    def _s_act(self, j: int, x: Vec) -> Vec:
        d = self.ctx.wd.datum
        k = sum(a * b for a, b in zip(x, d.simple_coroots[j]))
        return tuple(a - k * b for a, b in zip(x, d.simple_roots[j]))

    def move_theta_left(self, word: tuple[int, ...], y: Vec) -> BernsteinElt:
        """T_word θ_y as Σ θ_z T_v (word is a reduced J-word of Pi positions)."""
        key = (word, y)
        got = self._theta_left_cache.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        if not word:
            out = BernsteinElt(ctx, {(y, 0): ctx._one})
        else:
            pre, last = word[:-1], word[-1]
            sy = self._s_act(last, y)
            main = self.move_theta_left(pre, sy).mul_finite_gen_right(last)
            out = BernsteinElt.combination(ctx, [(main, ctx._one)] + [
                (self.move_theta_left(pre, z), -c) for z, c in self.bl_comm(last, sy).items()
            ])
        self._theta_left_cache[key] = out
        return out

    def decompose(self, b: BernsteinElt) -> dict:
        """h = Σ_u T_u h_u over u in W^J; returns {u: h_u} with h_u in H_J.

        θ_x T_u is commuted to Σ c T_v θ_z by the anti-automorphism θ_x ↦ θ_x,
        T_w ↦ T_{w^{-1}} of the Bernstein presentation.  It keeps the quadratic
        and braid relations, and the Bernstein-Lusztig relation because
        bl_comm(j, s_j x) = -bl_comm(j, x).  So it maps T_{u^{-1}} θ_x =
        Σ c θ_z T_v, which move_theta_left gives, to θ_x T_u = Σ c T_{v^{-1}} θ_z."""
        wd = self.ctx.wd
        W = wd.W
        pairs: dict[int, list] = {}
        for (x, w), c in b.c.items():
            u, wj = wd.factorize_coset(w, self.J)
            for (z, v), c2 in self.move_theta_left(W.word[W.inverse[u]], x).c.items():
                u2, vj = wd.factorize_coset(W.inverse[v], self.J)
                inner = self.move_theta_left(W.word[vj], z).mul_word_right(W.word[wj])
                pairs.setdefault(u2, []).append((inner, c * c2))
        blocks = {u: BernsteinElt.combination(self.ctx, ps) for u, ps in pairs.items()}
        return {u: blk for u, blk in blocks.items() if not blk.is_zero()}


class QuotientAlgebra:
    """H_J^sem: the affine Hecke algebra of the semisimple quotient datum.

    Shares the parent's variable table; parameters are inherited node by
    node (finite nodes from the matching parent orbit, affine nodes through
    the q(s~)-twin of a 2X^-flagged finite root in their component).
    """

    def __init__(self, parent: HeckeContext, J: tuple[int, ...]):
        self.parent = parent
        self.J = J
        self.quot: SemisimpleQuotient = semisimple_quotient(parent.wd.datum, J)
        qwd = WeylData(self.quot.datum)
        twins = _twin_nodes(qwd)
        var_of_orbit = []
        for orbit in qwd.param_orbits:
            var = None
            for k in orbit:
                s = qwd.affine_simple[k]
                if s.kind == "finite":
                    var = parent.var_of_orbit[
                        parent.wd.orbit_of_sa[
                            parent.wd.sa_index[parent.wd.pi_names[J[s.pi_index]]]
                        ]
                    ]
                    break
            if var is None:
                # purely affine orbit: find a flagged finite root whose s~ is here
                for k in orbit:
                    if k in twins:
                        tw = parent.twin_v_of_pi[J[twins.index(k)]]
                        if tw is None:
                            raise ValueError(
                                "quotient affine node without a parameter source"
                            )
                        var = tw.table.names[tw.table.unpack(next(iter(tw.terms))).index(1)]
                        break
            if var is None:
                raise ValueError("cannot infer parameter for a quotient orbit")
            var_of_orbit.append(var)
        self.ctx = HeckeContext(qwd, table=parent.table, var_of_orbit=var_of_orbit)
        # parameter pairs must agree with the parent's B-L data
        for pos in range(len(J)):
            if (self.ctx.v_of_pi[pos] != parent.v_of_pi[J[pos]]) or (
                qwd.two_Xvee_flags[pos] != parent.wd.two_Xvee_flags[J[pos]]
            ):
                raise ValueError("quotient parameter pairs disagree with parent")
            pt = parent.twin_v_of_pi[J[pos]]
            qt = self.ctx.twin_v_of_pi[pos]
            if (pt is None) != (qt is None) or (pt is not None and pt != qt):
                raise ValueError("quotient twin parameters disagree with parent")
