"""Conjugacy classes of the extended affine Weyl group.

The Newton-zero (equivalently, finite-order) classes are cl(W~)_0 =
⊔_[w] H^1(<w>, X)/C_W(w), each named by its key ``WeylData.class_key``.
:func:`newton_zero_classes` grows the length ball until every key has been
met, and :func:`classify` matches by key.  The key partition is pinned
against a brute-force conjugation oracle in the test suite.

One walk, :func:`plateau`, explores the equal-length plateau of an element by
BFS and stops at its first descent e ↦ s e s; :func:`descend_to_minimal` and
the cocenter reduction of ``hecke`` alternate it with descents until a
plateau has none, which by He-Nie is the minimal length of the class.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from operator import add, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from . import intlinalg
from .rootdata import semisimple_quotient
from .weyl import Elt, WeylData, pi_subsets, union_find


class ComputationFailed(Exception):
    """A computation that could not finish or certify its result.  The CLI
    does not catch it by name: like any exception that is not a usage error,
    it is one error line and exit 1.  Each subclass also keeps a built-in
    base (RuntimeError, LookupError or AssertionError)."""


class PlateauBudgetExceeded(ComputationFailed, RuntimeError):
    pass


class UnstableAtBound(ComputationFailed, RuntimeError):
    """Some Newton-zero class has minimal length above the given bound L."""


class NotFound(ComputationFailed, LookupError):
    """The element's class is not among the given records."""


class ConjClassRecord(NamedTuple):
    """One Newton-zero conjugacy class, anchored on a canonical minimal rep."""

    rep: Elt
    label: str
    min_length: int
    min_reps: tuple[Elt, ...]
    newton: tuple[Fraction, ...]
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


def _group_by(elems: Sequence[Elt], keys: Iterable) -> list[list[Elt]]:
    """elems grouped by their keys, taken in the same order."""
    groups: dict = {}
    for e, k in zip(elems, keys):
        groups.setdefault(k, []).append(e)
    return list(groups.values())


def key_partition(wd: WeylData, elems: Sequence[Elt]) -> list[list[Elt]]:
    """elems grouped by class key, that is, by W~-conjugacy class."""
    return _group_by(elems, map(wd.class_key, elems))


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

    return _group_by(elems, union_find(len(elems), pairs()))


def class_record(wd: WeylData, min_reps: Iterable[Elt]) -> ConjClassRecord:
    """The record of a class from its minimal-length elements min_reps."""
    min_reps = tuple(sorted(min_reps))
    rep = min(min_reps, key=wd.word)
    nu, _ = wd.newton_point(rep)
    return ConjClassRecord(
        rep=rep,
        label=wd.label(rep),
        min_length=wd.length(rep),
        min_reps=min_reps,
        newton=nu,
        elliptic=wd.is_elliptic(rep),
    )


def newton_zero_classes(wd: WeylData, L: Optional[int] = None) -> list[ConjClassRecord]:
    """All Newton-zero conjugacy classes.  The ball grows one layer at a
    time: a class's minimal length is the first layer in which its key
    appears, and its minimal representatives are the finite-order elements
    of that layer with that key.  A class of minimal length above a given
    bound L raises :class:`UnstableAtBound`."""
    missing = set(wd.newton_zero_keys())
    total = len(missing)
    records = []
    n = 0
    while missing:
        if L is not None and n > L:
            raise UnstableAtBound(
                f"{len(missing)} of {total} Newton-zero classes have minimal length > L={L}"
            )
        found: dict[tuple, list[Elt]] = {}
        for e in wd.ball_layer(n):
            if wd.has_finite_order(e) and (k := wd.class_key(e)) in missing:
                found.setdefault(k, []).append(e)
        missing -= found.keys()
        records += [class_record(wd, reps) for reps in found.values()]
        n += 1
    records.sort(key=lambda r: (r.min_length, wd.word(r.rep)))
    return records


def classify(wd: WeylData, e: Elt, classes: Sequence[ConjClassRecord]) -> ConjClassRecord:
    """The record of e's class among classes, matched by class key."""
    key = wd.class_key(e)
    for rec in classes:
        if wd.class_key(rec.rep) == key:
            return rec
    raise NotFound(f"class of {wd.render(e)} not among {[r.label for r in classes]}")


def brute_force_conjugacy_oracle(wd: WeylData, a: Elt, b: Elt, L: int) -> bool:
    """Exhaustive search: is g a g^{-1} = b for some g of length <= L?"""
    for g in wd.enumerate_ball(L):
        if wd.conjugate(g, a) == b:
            return True
    return False


class CountIdentityReport(NamedTuple):
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
    wd: WeylData, classes: Optional[Sequence[ConjClassRecord]] = None
) -> CountIdentityReport:
    """Check sum_J |elliptic Newton-zero classes of W~_J| / N_J = |cl(W~)_0|.

    ``classes`` are the Newton-zero classes of ``wd`` if already enumerated;
    otherwise they are counted by their keys.

    For each J the elliptic classes of the semisimple quotient X_J ⋊ W_J are
    taken from their keys, keeping only those that lift to Newton-zero classes
    of X ⋊ W_J, i.e. whose translation part lies in image(X ∩ QJ) + (1-u) X_J,
    and then identifying N_J-orbits by key.
    """
    expected = len(classes) if classes is not None else len(wd.newton_zero_keys())
    total = 0
    per_j = []
    for J in _subset_reps(wd):
        quot = semisimple_quotient(wd.datum, J)
        qwd = WeylData(quot.datum)
        r = quot.datum.rank
        lifting = []
        for e in qwd.newton_zero_keys().values():
            if not qwd.is_elliptic(e):
                continue
            x, u = e
            umat = qwd.W.mats[u]  # generators: the image, then the columns of 1 - u
            gens = [list(v) for v in quot.root_lattice_image]
            gens += [[int(i == j) - umat[i][j] for i in range(r)] for j in range(r)]
            if r == 0 or intlinalg.solve_integer(gens, list(x)) is not None:
                lifting.append(e)
        # N_J orbits on the lifting classes
        n_j = wd.normalizer_reps(J)
        key_to_pos = {qwd.class_key(e): k for k, e in enumerate(lifting)}
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
                for k, (x, u) in enumerate(lifting):
                    xx = tuple(intlinalg.mat_vec(zcol, x))
                    uu = qwd.W.index[intlinalg.mat_mul(intlinalg.mat_mul(zcol, qwd.W.mats[u]), zinv)]
                    pairs.append((k, key_to_pos[qwd.class_key((xx, uu))]))
        orbits = len(set(union_find(len(lifting), pairs)))
        total += orbits
        per_j.append((J, orbits))
    return CountIdentityReport(total == expected, total, expected, tuple(per_j))
