"""Conjugacy classes of the extended affine Weyl group.

Newton-zero (equivalently, finite-order) classes are enumerated by
partitioning a length ball under the conjugation moves e ↦ s e s (s ∈ S^a)
and e ↦ ω e ω^{-1} (ω ∈ Omega).  One walk, :func:`plateau`, explores the
equal-length plateau of an element by BFS and stops at its first descent
e ↦ s e s; :func:`descend_to_minimal` (and so :func:`classify`) and the
cocenter reduction of ``hecke`` alternate it with descents until a plateau
has none, which by He-Nie is the minimal length of the class.  Minimality is
certified against a brute-force conjugation oracle in the test suite, not
assumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Optional, Sequence

from . import intlinalg
from .rootdata import semisimple_quotient
from .weyl import Elt, WeylData, pi_subsets, union_find


class PlateauBudgetExceeded(RuntimeError):
    pass


class UnstableAtBound(RuntimeError):
    """Class data changed between the bound L and L+2."""


class NotFound(LookupError):
    """The element's class is not in the provided list (bound too small)."""


@dataclass(frozen=True)
class ConjClassRecord:
    """One Newton-zero conjugacy class, anchored on a canonical minimal rep."""

    rep: Elt
    label: str
    min_length: int
    min_reps: tuple[Elt, ...]
    newton: tuple[Fraction, ...]
    J_O: tuple[int, ...]
    elliptic: bool

    def to_json(self, wd: WeylData) -> dict:
        return {
            "rep": wd.render(self.rep),
            "min_length": self.min_length,
            "newton": [str(c) for c in self.newton],
            "elliptic": self.elliptic,
            "label": self.label,
        }


def plateau(
    wd: WeylData, e: Elt, budget: int = 1_000_000
) -> tuple[dict[Elt, Optional[tuple[Elt, str]]], Optional[tuple[Elt, str]]]:
    """BFS over the equal-length plateau of e under the moves f ↦ g f g^-1,
    g in ``wd.gen_names`` order (S^a by name, then Omega).

    Returns (seen, descent): seen maps each plateau element reached to the
    (element, name) move that reached it (e maps to None), and descent is the
    first (f, name) whose move shortens f, at which the search stops; None
    if there is none, and then seen is the whole plateau.  A simple
    conjugation changes the length by 0 or ±2 and an Omega one keeps it.
    """
    seen: dict[Elt, Optional[tuple[Elt, str]]] = {e: None}
    queue = deque([e])
    while queue:
        f = queue.popleft()
        lf = wd.length(f)
        for name in wd.gen_names:
            h = wd.conjugate_gen(name, f)
            lh = wd.length(h)
            if lh < lf:
                return seen, (f, name)
            if lh == lf and h not in seen:
                seen[h] = (f, name)
                queue.append(h)
        if len(seen) > budget:
            raise PlateauBudgetExceeded(f"plateau exceeded {budget} nodes")
    return seen, None


def descend_to_minimal(
    wd: WeylData, e: Elt, budget: int = 1_000_000
) -> tuple[list[Elt], list[tuple[str, Elt]]]:
    """The minimal-length plateau reached from e by plateau walks and
    descents (He-Nie: a non-minimal element has a descent on its plateau).

    Returns (plateau, path).  The plateau is that of the first minimal
    element reached, not the union of every minimal plateau reachable from
    e.  path is one witness chain of conjugation steps (generator name,
    intermediate element) from e to that element.
    """
    path: list[tuple[str, Elt]] = []
    while True:
        seen, descent = plateau(wd, e, budget)
        if descent is None:
            return sorted(seen), path
        f, name = descent
        e = wd.conjugate_gen(name, f)
        steps = [(name, e)]
        while seen[f] is not None:
            prev, g = seen[f]
            steps.append((g, f))
            f = prev
        path.extend(reversed(steps))


def _finite_order_ball(wd: WeylData, L: int) -> list[Elt]:
    return [e for e in wd.enumerate_ball(L) if wd.has_finite_order(e)]


def _groups(elems: list[Elt], pairs: Iterable[tuple[int, int]]) -> list[list[Elt]]:
    """The classes of elems after merging every pair of positions."""
    groups: dict[int, list[Elt]] = {}
    for e, root in zip(elems, union_find(len(elems), pairs)):
        groups.setdefault(root, []).append(e)
    return list(groups.values())


def _partition(wd: WeylData, elems: list[Elt]) -> list[list[Elt]]:
    index = {e: i for i, e in enumerate(elems)}
    pairs = []
    for i, e in enumerate(elems):
        for name in wd.gen_names:
            j = index.get(wd.conjugate_gen(name, e))
            if j is not None:
                pairs.append((i, j))
    return _groups(elems, pairs)


def oracle_partition(wd: WeylData, elems: list[Elt], radius: int) -> list[list[Elt]]:
    """Brute-force partition of elems: e and g e g^-1 are merged for every g
    of length <= radius and every e in elems whose conjugate lies in elems.

    Every (g, e) pair is examined.  With g = (y, u) and e = (x, w),
    g e g^-1 = (u(x) + y - v(y), v) for v = u w u^-1, so u(x) is computed
    once per finite part u and element, and (v, y - v(y)) once per g and w.
    """
    W = wd.W
    index = {e: i for i, e in enumerate(elems)}
    parts = sorted({w for _x, w in elems})
    moved = [[W.act(u, x) for x, _w in elems] for u in range(W.size)]

    def pairs():  # a generator: the hits are merged as found, never stored
        for y, u in wd.enumerate_ball(radius):
            uinv = W.inverse[u]
            shift = {}
            for w in parts:
                v = W.mult(W.mult(u, w), uinv)
                shift[w] = (v, tuple(map(sub, y, W.act(v, y))))
            for i, ux in enumerate(moved[u]):
                v, d = shift[elems[i][1]]
                j = index.get((tuple(map(add, ux, d)), v))
                if j is not None:
                    yield i, j

    return _groups(elems, pairs())


def class_record(wd: WeylData, min_reps: Iterable[Elt]) -> ConjClassRecord:
    """The record of a class from its minimal-length elements min_reps."""
    min_reps = tuple(sorted(min_reps))
    rep = min(min_reps, key=wd.word)
    nu, j_o = wd.newton_point(rep)
    return ConjClassRecord(
        rep=rep,
        label=wd.label(rep),
        min_length=wd.length(rep),
        min_reps=min_reps,
        newton=nu,
        J_O=j_o,
        elliptic=wd.is_elliptic(rep),
    )


def _records_from_partition(wd: WeylData, groups: list[list[Elt]]) -> list[ConjClassRecord]:
    records = []
    for grp in groups:
        min_len = min(wd.length(e) for e in grp)
        records.append(class_record(wd, [e for e in grp if wd.length(e) == min_len]))
    records.sort(key=lambda r: (r.min_length, wd.word(r.rep)))
    return records


def newton_zero_classes(
    wd: WeylData, L: int = 8, check_stability: bool = True
) -> list[ConjClassRecord]:
    """All Newton-zero conjugacy classes closed in the length-L ball.

    With ``check_stability`` the enumeration is repeated at L+2 and must give
    the same records (representatives, minimal representatives, lengths,
    Newton points, ellipticity), else :class:`UnstableAtBound`.
    """
    records = _records_from_partition(wd, _partition(wd, _finite_order_ball(wd, L)))
    if check_stability:
        again = _records_from_partition(
            wd, _partition(wd, _finite_order_ball(wd, L + 2))
        )
        if again != records:
            changed = [r.label for r in records if r not in again]
            raise UnstableAtBound(
                f"classes changed between L={L} ({[r.label for r in records]}) "
                f"and L={L + 2} ({[r.label for r in again]}); changed at L={L}: {changed}"
            )
    return records


def classify(wd: WeylData, e: Elt, classes: Sequence[ConjClassRecord]) -> ConjClassRecord:
    """Match e to a known class by descending to its minimal-length plateau."""
    plateau, _path = descend_to_minimal(wd, e)
    pset = set(plateau)
    for rec in classes:
        if pset & set(rec.min_reps):
            return rec
    raise NotFound(f"class of {wd.render(e)} not among {[r.label for r in classes]}")


def brute_force_conjugacy_oracle(wd: WeylData, a: Elt, b: Elt, L: int) -> bool:
    """Exhaustive search: is g a g^{-1} = b for some g of length <= L?"""
    for g in wd.enumerate_ball(L):
        if wd.conjugate(g, a) == b:
            return True
    return False


@dataclass(frozen=True)
class CountIdentityReport:
    """Per-parabolic elliptic counts versus the Newton-zero class total."""

    ok: bool
    total: int
    expected: int
    per_J: tuple[tuple[tuple[int, ...], int], ...]


def _subset_reps(wd: WeylData) -> list[tuple[int, ...]]:
    """Subsets of Pi up to J ~ J' iff w(J) = J' for some w in W."""
    subsets = pi_subsets(wd.npi)
    root_sets = {
        J: frozenset(wd.datum.simple_roots[j] for j in J) for J in subsets
    }
    reps = []
    seen = set()
    for J in subsets:
        if J in seen:
            continue
        orbit = {J}
        for w in range(wd.W.size):
            img = frozenset(wd.W.act(w, r) for r in root_sets[J])
            for K in subsets:
                if root_sets[K] == img:
                    orbit.add(K)
        seen |= orbit
        reps.append(min(orbit))
    return reps


def count_identity_check(
    wd: WeylData, L: int = 8, classes: Optional[Sequence[ConjClassRecord]] = None
) -> CountIdentityReport:
    """Check sum_J |elliptic Newton-zero classes of W~_J| / N_J = |cl(W~)_0|.

    ``classes`` are the Newton-zero classes of ``wd`` if already enumerated;
    otherwise they are enumerated in the length-L ball.

    For each J the elliptic classes of the semisimple quotient X_J ⋊ W_J are
    counted, keeping only those that lift to Newton-zero classes of X ⋊ W_J,
    i.e. whose translation part lies in image(X ∩ QJ) + (1-u) X_J, and then
    identifying N_J-orbits.
    """
    if classes is None:
        classes = newton_zero_classes(wd, L, check_stability=False)
    expected = len(classes)
    total = 0
    per_j = []
    for J in _subset_reps(wd):
        quot = semisimple_quotient(wd.datum, J)
        qwd = WeylData(quot.datum)
        qclasses = newton_zero_classes(qwd, L, check_stability=False)
        r = quot.datum.rank
        lifting = []
        for rec in qclasses:
            if not rec.elliptic:
                continue
            x, u = rec.rep
            if r == 0:
                lifting.append(rec)
                continue
            umat = qwd.W.mats[u]
            gens = [list(v) for v in quot.root_lattice_image]
            for j in range(r):
                col = [int(i == j) - umat[i][j] for i in range(r)]
                gens.append(col)
            if intlinalg.solve_integer(gens, list(x)) is not None:
                lifting.append(rec)
        # N_J orbits on the lifting classes
        n_j = wd.normalizer_reps(J)
        label_to_pos = {rec.label: k for k, rec in enumerate(lifting)}
        pairs = []
        if r > 0 and len(n_j) > 1 and lifting:
            m = wd.rank
            for z in n_j:
                zmat = wd.W.mats[z]
                zbar = [
                    list(quot.project([sum(zmat[a][b] * quot.section[i][b] for b in range(m)) for a in range(m)]))
                    for i in range(r)
                ]
                # zbar rows: images of the X_J basis; act on column vectors via transpose
                zcol = tuple(tuple(zbar[j][i] for j in range(r)) for i in range(r))
                zinv = intlinalg.mat_inverse_unimodular(zcol)
                for k, rec in enumerate(lifting):
                    x, u = rec.rep
                    xx = tuple(intlinalg.mat_vec(zcol, x))
                    uu = qwd.W.index[intlinalg.mat_mul(intlinalg.mat_mul(zcol, qwd.W.mats[u]), zinv)]
                    target = classify(qwd, (xx, uu), lifting)
                    pairs.append((k, label_to_pos[target.label]))
        orbits = len(set(union_find(len(lifting), pairs)))
        total += orbits
        per_j.append((J, orbits))
    return CountIdentityReport(total == expected, total, expected, tuple(per_j))
