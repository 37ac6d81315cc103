"""Finite and extended affine Weyl group arithmetic.

Elements of the extended affine Weyl group X ⋊ W are pairs ``(x, w)`` of a
translation vector x in Z^m and a finite-part index w, multiplying by
``(x, w)(y, v) = (x + w(y), wv)``.  Affine roots are pairs (beta^, n) of a
coroot and an integer level; ``t_x u`` sends (beta^, n) to
(u(beta^), n - <x, u(beta^)>), positives are levels > 0 together with
positive coroots at level 0, and the length of an element counts positives
sent to negatives.  The length-zero elements form the subgroup Omega ≅ X/Q.

The length has a closed form (Iwahori–Matsumoto, Publ. IHÉS 25, 1965).  For
a root beta_k with w(beta_k) = beta_i and c = <x, beta_i^>, ``t_x w`` sends
(beta_k^, n) to (beta_i^, n - c).  The source is positive for n >= 0 if
beta_k > 0 and for n >= 1 if beta_k < 0; the image is negative for n <= c - 1
if beta_i > 0 and for n <= c if beta_i < 0.  So the levels counted for beta_k
form a range of max(0, c + [beta_i < 0] - [beta_k < 0]) integers, and
l(t_x w) is the sum of these over all roots.

The convention above is pinned by two mandatory certificates: every affine
simple reflection has length 1, and lengths agree with BFS word length over
S^a ∪ Omega on radius-8 balls of every preset.

Omega is built by descent, with no search.  The extended group is
W_a ⋊ Omega, with W_a the Coxeter group on S^a, and l(omega w) = l(w) for
omega in Omega.  So t_x lies in omega W_a for exactly one omega, the only
element of length 0 in that coset, and every element of positive length in it
has a right descent s in S^a, l(e s) < l(e).  Descending from t_x, for x a
Smith representative of X/Q, ends at omega within l(t_x) steps whatever the
order of the steps, so no bound is needed.  An element of positive length
without a descent would contradict the length convention, and raises.

Right multiplication by a generator, conjugation by a generator and the
finite-order test read tables built once per datum, one entry per generator
and finite part w (|W| <= 48 for every datum in use).  For g = (y, u),
(x, w) g = (x + w(y), wu) and g (x, w) g^-1 = (u(x) + y - v(y), v) with
v = u w u^-1, so the tables hold (w(y), wu) and (v, y - v(y)) per (g, w).  If
w has order n then (x, w)^n = (N_w x, 1) with N_w = 1 + w + ... + w^(n-1), so
(x, w) has finite order iff N_w x = 0; the table holds the nonzero rows of
N_w.

The class tables, built on first use, hold per w the first element r of its
W-class, a conjugator u with r = u w u^-1, the Smith form U (1 - r) V and the
matrices U c u over c in C_W(r).  The classes with finite part conjugate to w
are X/(1 - r)X modulo C_W(r), and the finite-order ones H^1(<r>, X) =
ker N_r/(1 - r)X modulo C_W(r) (Serre, *Local Fields*, ch. VIII): ``class_key``
is a complete class invariant, and ``newton_zero_keys`` lists the Newton-zero
classes.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from . import intlinalg
from .rootdata import (  # noqa: F401  perfbench/traced_job.py wraps weyl.validate_datum
    BasedRootDatum,
    DatumFormatError,
    FinWeylGroup,
    InvalidDatum,
    generate_root_system,
    reflection_matrix,
    union_find,
    validate_datum,
    _check_finite_type,
    _simple_root_coords,
)

Vec = tuple[int, ...]
Elt = tuple[Vec, int]  # (translation vector, finite part index)


class OmegaSearchExhausted(InvalidDatum, RuntimeError):
    """Omega cannot be built: X/Q is infinite (the datum is not semisimple),
    or a certificate of the descent failed (an element of positive length
    with no right descent in S^a, a product leaving Omega, or an omega not
    normalizing S^a).  No search is involved."""


def pi_subsets(npi: int) -> list[tuple[int, ...]]:
    """All subsets of the simple-root positions 0..npi-1, by size, then
    lexicographically (so the full set comes last)."""
    return [c for r in range(npi + 1) for c in itertools.combinations(range(npi), r)]


class AffineSimple(NamedTuple):
    """One element of S^a = S ∪ {t_{-gamma} s_gamma : gamma in R_m}."""

    name: str
    elt: Elt
    kind: str  # "finite" | "affine"
    pi_index: Optional[int]  # position into Pi for finite ones
    root: Vec  # reflecting root (gamma for affine ones)


class WeylData:
    """All derived group data of a based root datum, lazily materialized."""

    def __init__(self, datum: BasedRootDatum):
        self.datum = datum
        _check_finite_type(datum)
        self.rank = datum.rank
        self.npi = len(datum.simple_roots)
        if self.npi != self.rank:  # the simple roots are independent, so Q has rank npi
            raise OmegaSearchExhausted("X/Q is infinite (datum not semisimple); Omega not materialized")
        self._identity = ((0,) * self.rank, 0)
        self._length_cache: dict[Elt, int] = {}
        self.W = FinWeylGroup(datum)
        self.roots = generate_root_system(datum)
        self.root_index = {v: i for i, v in enumerate(self.roots.roots)}
        pos = self.roots.positive
        # per w, one (beta_i^, [beta_i < 0] - [beta_k < 0]) for each root
        # beta_k, where w(beta_k) = beta_i: the terms of the closed-form length
        self._length_terms = [
            tuple(
                (self.roots.coroots[i], (not pos[i]) - (not pos[k]))
                for k, i in enumerate(
                    self.root_index[self.W.act(w, beta)] for beta in self.roots.roots
                )
            )
            for w in range(self.W.size)
        ]
        self._build_affine_simples()
        self._build_omega()
        self._build_orbits()
        self.gen_names = [s.name for s in self.affine_simple] + list(self.omega_names)
        self._build_generator_tables()
        self._ball: dict[Elt, tuple[int, tuple[str, ...]]] = {}
        self._ball_radius = -1

    def _build_generator_tables(self):
        W = self.W
        gens = [self.generator_elt(name) for name in self.gen_names]
        # (x, w) g = (x + w(y), wu) for g = (y, u): per g and w, (w(y), wu)
        self._right = {
            name: tuple((W.act(w, y), W.mult(w, u)) for w in range(W.size))
            for name, (y, u) in zip(self.gen_names, gens)
        }
        lookup = dict(zip(gens, self.gen_names))
        self.gen_inverse = {name: lookup[self.inv(g)] for name, g in zip(self.gen_names, gens)}
        # g (x, w) g^-1 = (u(x) + y - v(y), v) with v = u w u^-1: per g, the
        # matrix of u and, per w, (v, y - v(y))
        self._conj = {}
        for name, (y, u) in zip(self.gen_names, gens):
            rows = []
            for w in range(W.size):
                v = W.mult(W.mult(u, w), W.inverse[u])
                rows.append((v, tuple(map(sub, y, W.act(v, y)))))
            self._conj[name] = (W.mats[u], tuple(rows))
        # per w of order n, the nonzero rows of N_w = 1 + w + ... + w^(n-1):
        # (x, w)^n = (N_w x, 1), so (x, w) has finite order iff N_w x = 0
        self._norm_rows = []
        for w in range(W.size):
            powers = [0]
            while (p := W.mult(powers[-1], w)) != 0:
                powers.append(p)
            n_w = (tuple(map(sum, zip(*rows))) for rows in zip(*(W.mats[p] for p in powers)))
            self._norm_rows.append(tuple(r for r in n_w if any(r)))

    # -- basic element operations -------------------------------------------

    def identity(self) -> Elt:
        return self._identity

    def mult(self, a: Elt, b: Elt) -> Elt:
        xa, wa = a
        xb, wb = b
        moved = self.W.act(wa, xb)
        return (tuple(p + q for p, q in zip(xa, moved)), self.W.mult(wa, wb))

    def inv(self, a: Elt) -> Elt:
        x, w = a
        wi = self.W.inverse[w]
        mx = self.W.act(wi, x)
        return (tuple(-p for p in mx), wi)

    def conjugate(self, g: Elt, e: Elt) -> Elt:
        """g e g^-1 = (y + u(x) - v(y), v) for g = (y, u), e = (x, w), v = u w u^-1."""
        (y, u), (x, w) = g, e
        W = self.W
        v = W.mult(W.mult(u, w), W.inverse[u])
        return (tuple(a + b - c for a, b, c in zip(y, W.act(u, x), W.act(v, y))), v)

    def mult_gen(self, e: Elt, name: str) -> Elt:
        """e g for the generator g named name, by table lookup."""
        x, w = e
        try:
            y, wu = self._right[name][w]
        except KeyError:
            raise self._unknown(name) from None
        return (tuple(map(add, x, y)), wu)

    def conjugate_gen(self, name: str, e: Elt) -> Elt:
        """g e g^-1 for the generator g named name, by table lookup."""
        x, w = e
        umat, rows = self._conj[name]
        v, d = rows[w]
        return (tuple(sum(map(mul, row, x)) + c for row, c in zip(umat, d)), v)

    def translation(self, x: Sequence[int]) -> Elt:
        return (tuple(int(v) for v in x), 0)

    # -- length ---------------------------------------------------------------

    def length(self, e: Elt) -> int:
        """Number of positive affine roots sent to negative ones.

        In closed form, l(t_x w) = sum over roots beta_k of
        max(0, <x, beta_i^> + [beta_i < 0] - [beta_k < 0]) with
        w(beta_k) = beta_i: the count of the levels n of (beta_k^, n) that
        are positive and whose image is negative (see the module docstring).
        """
        got = self._length_cache.get(e)
        if got is not None:
            return got
        x, w = e
        total = 0
        for cv, d in self._length_terms[w]:
            c = sum(map(mul, x, cv)) + d
            if c > 0:
                total += c
        self._length_cache[e] = total
        return total

    # -- affine simple system -------------------------------------------------

    def _build_affine_simples(self):
        datum = self.datum
        # Pi position j is the affine simple generator named s{j+1}
        self.pi_names = tuple(f"s{i + 1}" for i in range(self.npi))
        simples = []
        for i, name in enumerate(self.pi_names):
            w = self.W.gen_index[i]
            simples.append(AffineSimple(name, ((0,) * self.rank, w), "finite", i, datum.simple_roots[i]))
        # components of the finite diagram (by simple-root adjacency)
        comp = union_find(self.npi, [
            (i, j)
            for i in range(self.npi)
            for j in range(i + 1, self.npi)
            if datum.pairing(datum.simple_roots[i], datum.simple_coroots[j]) != 0
        ])
        comp_ids = sorted(set(comp))
        # per component, the root gamma whose coroot is the lowest coroot
        # (Bourbaki, Lie Groups, ch. VI §1.8): the unique minimal coroot in
        # the dominance order, so the one of least height in Pi^
        for cid_pos, cid in enumerate(comp_ids):
            members = [i for i in range(self.npi) if comp[i] == cid]
            cand = []
            for k, gamma in enumerate(self.roots.roots):
                coords = _simple_root_coords(datum, gamma)
                if any(coords[i] != 0 for i in range(self.npi) if comp[i] != cid):
                    continue
                if all(coords[i] == 0 for i in members):
                    continue
                cand.append(k)
            k = min(cand, key=lambda k: sum(_coroot_coords(datum, self.roots.coroots[k])))
            gamma = self.roots.roots[k]
            name = "s0" if len(comp_ids) == 1 else f"s0{chr(ord('a') + cid_pos)}"
            simples.append(AffineSimple(
                name, (tuple(-t for t in gamma), self._reflection_index(k)), "affine", None, gamma
            ))
        self.affine_simple = tuple(
            sorted(simples, key=lambda s: s.name)
        )
        self.sa_index = {s.name: i for i, s in enumerate(self.affine_simple)}
        self.sa_by_elt = {s.elt: i for i, s in enumerate(self.affine_simple)}
        self.two_Xvee_flags = tuple(
            all(c % 2 == 0 for c in datum.simple_coroots[i]) for i in range(self.npi)
        )

    def _reflection_index(self, root_pos: int) -> int:
        """Index in W of the reflection in the root at position root_pos."""
        return self.W.index[
            reflection_matrix(self.roots.roots[root_pos], self.roots.coroots[root_pos])
        ]

    def bond_order(self, i: int, j: int, cap: int = 12) -> Optional[int]:
        """Order of s_i s_j for S^a members, or None if it exceeds the cap."""
        prod = self.mult(self.affine_simple[i].elt, self.affine_simple[j].elt)
        cur = prod
        for n in range(1, cap + 1):
            if cur == self.identity():
                return n
            cur = self.mult(cur, prod)
        return None

    # -- Omega ----------------------------------------------------------------

    def _build_omega(self):
        m = self.rank
        d, _u, v = intlinalg.smith_normal_form([list(r) for r in self.datum.simple_roots])
        divisors = [d[i][i] for i in range(m)]
        vinv_t = list(zip(*intlinalg.mat_inverse_unimodular(v)))
        found = []
        for combo in itertools.product(*(range(di) for di in divisors)):
            # descend from t_x to the length-0 element of its coset t_x W_a
            e = self.translation(intlinalg.mat_vec(vinv_t, combo))
            while (n := self.length(e)) > 0:
                step = next(
                    (f for s in self.affine_simple if self.length(f := self.mult(e, s.elt)) < n), None
                )
                if step is None:
                    raise OmegaSearchExhausted(
                        f"{self.render(e)} has length {n} and no right descent in S^a")
                e = step
            found.append(e)
        ident = self.identity()
        others = sorted([e for e in found if e != ident])
        self.omega_elements = (ident,) + tuple(others)
        self.omega_names = tuple(
            "tau" if i == 0 else f"tau{i + 1}" for i in range(len(others))
        )
        members = set(self.omega_elements)
        if any(self.mult(a, b) not in members for a in members for b in members):
            raise OmegaSearchExhausted("Omega candidates not closed")
        acts = []
        for om in self.omega_elements:
            perm = []
            for s in self.affine_simple:
                c = self.conjugate(om, s.elt)
                if c not in self.sa_by_elt:
                    raise OmegaSearchExhausted(
                        f"Omega element {om} does not normalize S^a"
                    )
                perm.append(self.sa_by_elt[c])
            acts.append(tuple(perm))
        self.omega_action_sa = tuple(acts)

    # -- parameter orbits -------------------------------------------------------

    def _build_orbits(self):
        n = len(self.affine_simple)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                m = self.bond_order(i, j)
                if m is not None and m % 2 == 1:
                    pairs.append((i, j))
        for perm in self.omega_action_sa:
            pairs += [(i, perm[i]) for i in range(n)]
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(union_find(n, pairs)):
            groups.setdefault(root, []).append(i)
        orbits = sorted(
            (tuple(sorted(g, key=lambda k: self.affine_simple[k].name)) for g in groups.values()),
            key=lambda g: self.affine_simple[g[0]].name,
        )
        self.param_orbits = orbits
        custom = self.datum.param_orbit_names
        if custom is not None and len(custom) != len(orbits):
            raise DatumFormatError(
                f"param_orbit_names has {len(custom)} entries, datum has {len(orbits)} orbits"
            )
        if custom is not None:
            names = list(custom)
        elif len(orbits) == 1:
            names = ["q"]
        else:
            names = [f"q{k}" for k in range(len(orbits))]
        self.orbit_names = tuple(names)
        self.orbit_of_sa = [0] * n
        for oi, g in enumerate(orbits):
            for k in g:
                self.orbit_of_sa[k] = oi

    # -- generators, balls, words -------------------------------------------------

    def generator_elt(self, name: str) -> Elt:
        if name in self.sa_index:
            return self.affine_simple[self.sa_index[name]].elt
        if name in self.omega_names:
            return self.omega_elements[1 + self.omega_names.index(name)]
        raise self._unknown(name)

    def _unknown(self, name: str) -> KeyError:
        return KeyError(f"unknown generator {name!r}; have {self.gen_names}")

    def evaluate_word(self, letters: Iterable[str]) -> Elt:
        e = self.identity()
        for name in letters:
            e = self.mult_gen(e, name)
        return e

    def _extend_ball(self, radius: int):
        if radius <= self._ball_radius:
            return
        if self._ball_radius < 0:
            self._ball = {}
            ident = self.identity()
            self._ball[ident] = (0, ())
            layer = [ident]
            self._close_omega(layer)
            self._layers = [sorted(layer, key=lambda e: self._ball[e][1])]
            self._ball_radius = 0
        # BFS letter order: S^a sorted by name
        letters = [(name, self._right[name]) for name in sorted(self.sa_index)]
        while self._ball_radius < radius:
            cur = self._layers[self._ball_radius]
            nxt = []
            target = self._ball_radius + 1
            for e in cur:
                x, w = e
                word = self._ball[e][1]
                for name, right in letters:
                    y, wu = right[w]
                    f = (tuple(map(add, x, y)), wu)
                    if f in self._ball:
                        continue
                    if self.length(f) != target:
                        continue
                    self._ball[f] = (target, word + (name,))
                    nxt.append(f)
            self._close_omega(nxt)
            self._layers.append(sorted(nxt, key=lambda e: self._ball[e][1]))
            self._ball_radius = target

    def _close_omega(self, layer: list[Elt]):
        queue = deque(sorted(layer, key=lambda e: self._ball[e][1]))
        letters = [(name, self._right[name]) for name in self.omega_names]
        while queue:
            e = queue.popleft()
            x, w = e
            lv, word = self._ball[e]
            for name, right in letters:
                y, wu = right[w]
                f = (tuple(map(add, x, y)), wu)
                if f not in self._ball:
                    self._ball[f] = (lv, word + (name,))
                    layer.append(f)
                    queue.append(f)

    def enumerate_ball(self, max_length: int) -> list[Elt]:
        """All elements of length <= max_length, canonically sorted."""
        self._extend_ball(max_length)
        out = [e for e, (lv, _) in self._ball.items() if lv <= max_length]
        out.sort(key=lambda e: (self._ball[e][0], e[0], e[1]))
        return out

    def ball_layer(self, n: int) -> list[Elt]:
        """All elements of length n, in the order of their words."""
        self._extend_ball(n)
        return self._layers[n]

    def word(self, e: Elt) -> tuple[str, ...]:
        """Lex-least geodesic word of e over generator names."""
        need = self.length(e)
        self._extend_ball(need)
        try:
            return self._ball[e][1]
        except KeyError:
            raise RuntimeError(f"element {e} of length {need} missing from ball") from None

    def finite_word(self, w: int) -> tuple[str, ...]:
        """Lex-least reduced word of the finite element w, as generator names."""
        return tuple(self.pi_names[j] for j in self.W.word[w])

    def label(self, e: Elt) -> str:
        return "".join(self.word(e)) or "1"

    def render(self, e: Elt) -> str:
        """Canonical rendering ``t[x1,..,xm]*w`` used in CLI output/goldens."""
        x, w = e
        fw = "".join(self.finite_word(w)) or "e"
        return f"t[{','.join(str(c) for c in x)}]*{fw}"

    # -- Newton points and ellipticity ---------------------------------------------

    def dominant_rep(self, nu: Sequence[Fraction]) -> tuple[Fraction, ...]:
        v = [Fraction(t) for t in nu]
        moved = True
        while moved:
            moved = False
            for i in range(self.npi):
                av = self.datum.simple_coroots[i]
                p = sum(a * b for a, b in zip(v, av))
                if p < 0:
                    a = self.datum.simple_roots[i]
                    v = [t - p * s for t, s in zip(v, a)]
                    moved = True
        return tuple(v)

    def newton_point(self, e: Elt) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """Dominant Newton point and the subset J_nu of Pi it is fixed by."""
        x, w = e
        n = self.W.order_of(w)
        lam = [0] * self.rank
        wp = 0
        for _ in range(n):
            lam = [a + b for a, b in zip(lam, self.W.act(wp, x))]
            wp = self.W.mult(wp, w)
        nu = [Fraction(a, n) for a in lam]
        dom = self.dominant_rep(nu)
        j = tuple(
            i
            for i in range(self.npi)
            if sum(a * b for a, b in zip(dom, self.datum.simple_coroots[i])) == 0
        )
        return dom, j

    def has_finite_order(self, e: Elt) -> bool:
        """(x, w)^n = (N_w x, 1) for n the order of w, so e has finite order
        iff N_w x = 0."""
        x, w = e
        return not any(sum(map(mul, row, x)) for row in self._norm_rows[w])

    def is_elliptic(self, e: Elt) -> bool:
        """1 - w has full rank.  The data are semisimple, so the W-invariants
        of X ⊗ Q are 0 and this says that w fixes no nonzero vector."""
        return all(self._class_tables[e[1]][1])

    # -- the class key ----------------------------------------------------------------

    @cached_property
    def _class_tables(self) -> list[tuple[int, tuple[int, ...], list]]:
        """Per w, (r, Smith divisors of 1 - r, the matrices U c u), c = 1
        first; u is found by BFS over simple-reflection conjugation."""
        W = self.W
        mat_mul = intlinalg.mat_mul
        to_rep: list = [None] * W.size
        smith = {}
        for r in range(W.size):
            if to_rep[r] is None:
                to_rep[r] = (r, 0)
                queue = deque([r])
                while queue:
                    v = queue.popleft()
                    for s in W.gen_index:  # r = u v u^-1 = (us)(svs)(us)^-1
                        if to_rep[t := W.mult(W.mult(s, v), s)] is None:
                            to_rep[t] = (r, W.mult(to_rep[v][1], s))
                            queue.append(t)
                d, U, _v = intlinalg.smith_normal_form(
                    [[int(i == j) - c for j, c in enumerate(row)] for i, row in enumerate(W.mats[r])])
                cent = (c for c in range(W.size) if W.mult(c, r) == W.mult(r, c))
                smith[r] = (tuple(d[i][i] for i in range(self.rank)), [mat_mul(U, W.mats[c]) for c in cent])
        return [(r, smith[r][0], [mat_mul(m, W.mats[u]) for m in smith[r][1]]) for r, u in to_rep]

    def class_key(self, e: Elt) -> tuple:
        """r and the least U c u(x) over c in C_W(r), each coordinate reduced
        modulo its divisor (kept whole where that is 0): a complete invariant
        of the class of e = (x, w)."""
        r, divisors, maps = self._class_tables[e[1]]
        moved = (intlinalg.mat_vec(m, e[0]) for m in maps)
        return (r, min(tuple(c % d if d else c for c, d in zip(v, divisors)) for v in moved))

    def newton_zero_keys(self) -> dict[tuple, Elt]:
        """The key of every Newton-zero class, with a representative.  ker N_r
        is the vectors whose Smith coordinates vanish where the divisor does,
        so H^1 is represented by U^-1 (c_1, ..., c_k, 0, ...), 0 <= c_i < d_i."""
        out = {}
        for w, (r, divisors, maps) in enumerate(self._class_tables):
            if w == r:
                uinv = intlinalg.mat_inverse_unimodular(maps[0])  # U: c = u = 1 for w = r
                for c in itertools.product(*(range(d or 1) for d in divisors)):
                    e = (tuple(intlinalg.mat_vec(uinv, c)), r)
                    out.setdefault(self.class_key(e), e)
        return out

    # -- cosets ---------------------------------------------------------------------

    def _keeps_positive(self, w: int, j: int) -> bool:
        """w(alpha_j) > 0, that is l(w s_j) > l(w)."""
        return self.roots.positive[self.root_index[self.W.act(w, self.datum.simple_roots[j])]]

    def minimal_coset_reps(self, J: Sequence[int]) -> list[int]:
        """W^J = {w : l(w s_j) > l(w) for all j in J}, sorted by (length, word)."""
        out = [w for w in range(self.W.size) if all(self._keeps_positive(w, j) for j in J)]
        return sorted(out, key=lambda w: (self.W.length[w], self.W.word[w]))

    def double_coset_reps(self, K: Sequence[int], J: Sequence[int]):
        """^K W^J with K_w = K ∩ wJw^{-1} and J_w = J ∩ w^{-1}Kw per rep."""
        roots = self.datum.simple_roots
        jroots = {roots[j] for j in J}
        kroots = {roots[k] for k in K}
        reps = []
        for w in self.minimal_coset_reps(J):
            wi = self.W.inverse[w]
            if not all(self._keeps_positive(wi, k) for k in K):
                continue
            kw = tuple(k for k in K if self.W.act(wi, roots[k]) in jroots)
            jw = tuple(j for j in J if self.W.act(w, roots[j]) in kroots)
            reps.append((w, kw, jw))
        return reps

    def factorize_coset(self, w: int, J: Sequence[int]) -> tuple[int, int]:
        """w = u * w_J with u in W^J, w_J in W_J, lengths adding."""
        u = w
        wj = 0
        moved = True
        while moved:
            moved = False
            for j in J:
                if not self._keeps_positive(u, j):
                    u = self.W.mult(u, self.W.gen_index[j])
                    wj = self.W.mult(self.W.gen_index[j], wj)
                    moved = True
        return u, wj

    def normalizer_reps(self, J: Sequence[int]) -> list[int]:
        """N_J = {z in ^J W^J : z(J) = J}."""
        roots = self.datum.simple_roots
        jroots = {roots[j] for j in J}
        out = []
        for w, _kw, _jw in self.double_coset_reps(J, J):
            if all(self.W.act(w, roots[j]) in jroots for j in J):
                out.append(w)
        return out


def _coroot_coords(datum: BasedRootDatum, v: Sequence[int]):
    dual = BasedRootDatum(
        datum.name + "^", datum.rank, datum.simple_coroots, datum.simple_roots
    )
    return _simple_root_coords(dual, v)
