"""Based root data: validation, the finite Weyl group, root systems,
quotients, presets, file IO.

A based root datum is (X, R, X^, R^, Pi) with X = Z^m, the pairing being the
dot product, and simple roots/coroots given as integer vectors.  Validation
decides finite type from the Cartan matrix, and the finite Weyl group is then
enumerated once.  The derived affine data (affine simple system, parameter
orbits, Omega) needs extended affine Weyl arithmetic and lives in
:mod:`rigidhecke.weyl`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from . import intlinalg

Vec = tuple[int, ...]

W_LIMIT = 100_000  # the largest |W| enumerated; B7 (645,120 elements) exceeds it
MAX_DATUM_BYTES = 1 << 20  # the longest datum file read


class InvalidDatum(Exception):
    """A root datum that cannot be used: malformed or out of scope.  Each
    subclass also keeps a built-in base (ValueError, KeyError or
    RuntimeError)."""


class NotCartan(InvalidDatum, ValueError):
    """The simple roots and coroots give no generalized Cartan matrix
    a_ij = <alpha_j, alpha_i^>: their numbers or ranks differ, some a_ii is
    not 2, some a_ij with i != j is positive, or a_ij = 0 while a_ji != 0;
    the last two name the pair (i, j)."""


class InfiniteWeylGroup(InvalidDatum, ValueError):
    """W is infinite or too large to enumerate: the Dynkin graph has a cycle
    (the message names the edge closing it), a leading principal minor of
    the Cartan matrix is not positive (it names the order k), or |W| exceeds
    :data:`W_LIMIT`."""


class NotReduced(InvalidDatum, ValueError):
    """Some simple root is twice another."""


class UnknownPreset(InvalidDatum, KeyError):
    pass


class DatumFormatError(InvalidDatum, ValueError):
    """Malformed datum file; the message cites the offending field."""


class BasedRootDatum(NamedTuple):
    name: str
    rank: int
    simple_roots: tuple[Vec, ...]
    simple_coroots: tuple[Vec, ...]
    param_orbit_names: Optional[tuple[str, ...]] = None

    def pairing(self, x: Sequence[int], cv: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(x, cv))


class RootSystem(NamedTuple):
    """All roots of a datum, each carried with its coroot and positivity."""

    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    positive: tuple[bool, ...]


def _reflect(datum: BasedRootDatum, i: int, v: Vec, cv: Vec) -> tuple[Vec, Vec]:
    a = datum.simple_roots[i]
    av = datum.simple_coroots[i]
    k = datum.pairing(v, av)
    kv = datum.pairing(a, cv)
    return (
        tuple(x - k * y for x, y in zip(v, a)),
        tuple(x - kv * y for x, y in zip(cv, av)),
    )


def union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Class representative of each of 0..n-1 after merging every pair.

    Merging (i, j) attaches the class of i below the class of j.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    return [find(i) for i in range(n)]


def _check_finite_type(datum: BasedRootDatum) -> None:
    """Raise unless the datum is a based root datum of finite type; see
    :func:`validate_datum`.  Nothing is enumerated."""
    m = datum.rank
    roots, coroots = datum.simple_roots, datum.simple_coroots
    if len(roots) != len(coroots):
        raise NotCartan("unequal numbers of simple roots and coroots")
    for v in (*roots, *coroots):
        if len(v) != m:
            raise NotCartan(f"vector {v} has wrong rank (expected {m})")
    k = len(roots)
    a = [[datum.pairing(x, cv) for x in roots] for cv in coroots]
    for i in range(k):
        if a[i][i] != 2:
            raise NotCartan(f"<alpha_{i}, alpha_{i}^> = {a[i][i]} != 2")
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for i, j in pairs:
        if all(2 * x == y for x, y in zip(roots[i], roots[j])):
            raise NotReduced(f"simple root alpha_{j} = {roots[j]} is twice alpha_{i}")
    for i, j in pairs:
        if a[i][j] > 0:
            raise NotCartan(f"Cartan entry a_({i},{j}) = <alpha_{j}, alpha_{i}^> = {a[i][j]} > 0")
        if (a[i][j] == 0) != (a[j][i] == 0):
            raise NotCartan(f"Cartan entries a_({i},{j}) = {a[i][j]} and a_({j},{i}) = {a[j][i]}: "
                            "one is 0, the other not")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if a[i][j]]
    for t, (i, j) in enumerate(edges):
        comp = union_find(k, edges[:t])
        if comp[i] == comp[j]:
            raise InfiniteWeylGroup(f"the Dynkin graph has a cycle through edge ({i}, {j}), so W is infinite")
    # Bareiss elimination: a[t][t] is the leading principal minor of order t + 1
    prev = 1
    for t in range(k):
        if a[t][t] <= 0:
            raise InfiniteWeylGroup(
                f"leading principal minor {t + 1} of the Cartan matrix is {a[t][t]} <= 0, so W is infinite")
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]


def validate_datum(datum: BasedRootDatum) -> int:
    """Check that the datum is a based root datum of finite type; return |W|.

    With A = (a_ij), a_ij = <alpha_j, alpha_i^>, in exact integer arithmetic:
    1. equal numbers of simple roots and coroots, all of rank m, and a_ii = 2;
    2. no simple root is twice another (else :class:`NotReduced`);
    3. a_ij <= 0 for i != j, and a_ij = 0 exactly when a_ji = 0;
    4. the Dynkin graph, with an edge where a_ij != 0, has no cycle;
    5. every leading principal minor of A is positive.
    1 and 3 raise :class:`NotCartan`, 4 and 5 :class:`InfiniteWeylGroup`.
    Under 3 and 4, A = D B with D positive diagonal and B symmetric, so by
    Sylvester 5 says that B is positive definite: A has finite type (Kac,
    *Infinite-dimensional Lie algebras*, ch. 4; Humphreys, *Reflection Groups
    and Coxeter Groups*, §2.3–2.7) and W is finite.  W is then enumerated
    once; past :data:`W_LIMIT` elements it raises :class:`InfiniteWeylGroup`.
    """
    _check_finite_type(datum)
    return FinWeylGroup(datum).size


def reflection_matrix(a: Sequence[int], av: Sequence[int]) -> tuple[Vec, ...]:
    """Matrix of x -> x - <x, av> a acting on column vectors (row r holds
    coordinate r of the images of the basis vectors)."""
    m = len(a)
    return tuple(tuple(int(r == j) - av[j] * a[r] for j in range(m)) for r in range(m))


class FinWeylGroup:
    """The finite Weyl group of a datum that passes the finite-type test of
    :func:`validate_datum`, fully materialized with BFS data.

    Element 0 is the identity; ``word[i]`` is the lexicographically least
    reduced word (as a tuple of simple-reflection positions into Pi).
    """

    def __init__(self, datum: BasedRootDatum):
        self.datum = datum
        m = datum.rank
        k = len(datum.simple_roots)
        gen_mats = [reflection_matrix(datum.simple_roots[i], datum.simple_coroots[i]) for i in range(k)]
        ident = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        self.mats: list[tuple] = [ident]
        self.index: dict[tuple, int] = {ident: 0}
        self.length: list[int] = [0]
        self.word: list[tuple[int, ...]] = [()]
        frontier = [0]
        while frontier:
            nxt = []
            for wi in sorted(frontier, key=lambda t: self.word[t]):
                for g in range(k):
                    mat = intlinalg.mat_mul(self.mats[wi], gen_mats[g])
                    if mat not in self.index:
                        self.index[mat] = len(self.mats)
                        self.mats.append(mat)
                        self.length.append(self.length[wi] + 1)
                        self.word.append(self.word[wi] + (g,))
                        nxt.append(self.index[mat])
                        if len(self.mats) > W_LIMIT:
                            raise InfiniteWeylGroup(f"|W| exceeds the limit of {W_LIMIT} elements")
            frontier = nxt
        self.size = len(self.mats)
        self.gen_index = [self.index[gm] for gm in gen_mats]
        self._mult_memo: dict[tuple[int, int], int] = {}
        self.inverse = [self.index[tuple(map(tuple, intlinalg.mat_inverse_unimodular(a)))]
                        for a in self.mats]

    def mult(self, a: int, b: int) -> int:
        key = (a, b)
        got = self._mult_memo.get(key)
        if got is None:
            got = self.index[intlinalg.mat_mul(self.mats[a], self.mats[b])]
            self._mult_memo[key] = got
        return got

    def act(self, w: int, x: Sequence[int]) -> Vec:
        return tuple(sum(map(mul, row, x)) for row in self.mats[w])

    def order_of(self, w: int) -> int:
        n = 1
        cur = w
        while cur != 0:
            cur = self.mult(cur, w)
            n += 1
        return n


def generate_root_system(datum: BasedRootDatum) -> RootSystem:
    """Orbit closure of the simple roots under the simple reflections."""
    pairs = {(a, av) for a, av in zip(datum.simple_roots, datum.simple_coroots)}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for v, cv in frontier:
            for i in range(len(datum.simple_roots)):
                p = _reflect(datum, i, v, cv)
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
                    if len(pairs) > W_LIMIT:
                        raise InfiniteWeylGroup(f"more than {W_LIMIT} roots")
        frontier = nxt
    roots = sorted(pairs)
    # the reflections preserve the span of the simple roots, so every root has
    # coordinates in them; it is positive when they are nonnegative
    pos = [all(c >= 0 for c in _simple_root_coords(datum, v)) for v, _ in roots]
    return RootSystem(
        tuple(v for v, _ in roots), tuple(cv for _, cv in roots), tuple(pos)
    )


def _simple_root_coords(datum: BasedRootDatum, v: Sequence[int]):
    """Rational coordinates of v in the simple roots, or None if v is not in their span."""
    k = len(datum.simple_roots)
    rows, pivots = intlinalg.row_reduce(
        [[datum.simple_roots[j][r] for j in range(k)] + [v[r]] for r in range(datum.rank)], k
    )
    if any(row[k] != 0 for row in rows[len(pivots):]):
        return None
    out = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        out[c] = rows[i][k]
    return out


class SemisimpleQuotient(NamedTuple):
    """The datum (X_J, R_J, X_J^, R_J^, J) plus the lattice maps around it.

    ``proj`` maps X-coordinates to X_J-coordinates (rows of the matrix act on
    column vectors); ``root_lattice_image`` generates the image of X ∩ QJ in
    X_J, which the class-counting identity needs.
    """

    datum: BasedRootDatum
    J: tuple[int, ...]
    proj: tuple[Vec, ...]
    section: tuple[Vec, ...]  # lifts of the X_J basis vectors back into X
    root_lattice_image: tuple[Vec, ...]

    def project(self, x: Sequence[int]) -> Vec:
        return tuple(sum(row[i] * x[i] for i in range(len(x))) for row in self.proj)


def semisimple_quotient(datum: BasedRootDatum, J: Sequence[int]) -> SemisimpleQuotient:
    """Quotient datum for J ⊆ Pi: X_J = X/X∩(J^)⊥, X_J^ = X^∩QJ^."""
    J = tuple(sorted(J))
    m = datum.rank
    name = f"{datum.name}|J={list(J)}"
    if not J:
        empty = BasedRootDatum(name, 0, (), ())
        return SemisimpleQuotient(empty, J, (), (), ())
    coroot_cols = [[datum.simple_coroots[j][r] for j in J] for r in range(m)]  # m x |J|
    perp = intlinalg.kernel_basis(coroot_cols)  # rows x with <x, alpha_j^> = 0
    if perp:
        # Adapted basis of Z^m: perp is saturated, so the SNF of its basis
        # matrix has unit divisors and the first rank_perp rows of V^{-1}
        # span perp; the remaining rows descend to a basis of X_J.
        d, _u, v = intlinalg.smith_normal_form(perp)
        basis = intlinalg.mat_inverse_unimodular(v)
        rank_perp = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
        quot_rows = list(range(rank_perp, m))
    else:
        basis = intlinalg.identity_matrix(m)
        quot_rows = list(range(m))
    binv = intlinalg.mat_inverse_unimodular([list(r) for r in basis])
    # x = c * basis (rows are basis vectors) => c = x * basis^{-1}; the
    # X_J-coordinate functionals are the quot_rows columns of binv.
    proj = tuple(tuple(binv[r][i] for r in range(m)) for i in quot_rows)

    def project(x):
        return tuple(sum(row[r] * x[r] for r in range(m)) for row in proj)

    new_roots = tuple(project(datum.simple_roots[j]) for j in J)
    new_coroots = tuple(
        tuple(
            datum.pairing([basis[i][r] for r in range(m)], datum.simple_coroots[j])
            for i in quot_rows
        )
        for j in J
    )
    qdatum = BasedRootDatum(name, len(quot_rows), new_roots, new_coroots)
    # image of X ∩ QJ (saturation of the J-root span) in X_J
    sat = intlinalg.row_saturation([list(datum.simple_roots[j]) for j in J])
    lj = tuple(project(row) for row in sat)
    section = tuple(tuple(basis[i]) for i in quot_rows)
    return SemisimpleQuotient(qdatum, J, proj, section, lj)


_PRESETS = {
    "sl2": dict(rank=1, simple_roots=[(1,)], simple_coroots=[(2,)]),
    "pgl2": dict(rank=1, simple_roots=[(2,)], simple_coroots=[(1,)]),
    "c2-aff": dict(
        rank=2,
        simple_roots=[(1, -1), (0, 1)],
        simple_coroots=[(1, -1), (0, 2)],
    ),
    "c2-ext": dict(
        rank=2,
        simple_roots=[(1, -1), (0, 2)],
        simple_coroots=[(1, -1), (0, 1)],
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> BasedRootDatum:
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(f"unknown preset {name!r}; have {PRESET_NAMES}") from None
    return BasedRootDatum(
        name,
        spec["rank"],
        tuple(tuple(v) for v in spec["simple_roots"]),
        tuple(tuple(v) for v in spec["simple_coroots"]),
    )


def load_datum(path: str) -> BasedRootDatum:
    """Read a datum from a JSON file of at most MAX_DATUM_BYTES bytes, in
    which no object gives a key twice; errors cite the offending field."""

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DatumFormatError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    with open(path, "rb") as fh:
        data = fh.read(MAX_DATUM_BYTES + 1)
    if len(data) > MAX_DATUM_BYTES:
        raise DatumFormatError(f"{path}: longer than {MAX_DATUM_BYTES} bytes")
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DatumFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too deep, a huge integer, a repeated key
        raise DatumFormatError(f"{path}: unreadable JSON: {exc}") from None
    return datum_from_dict(raw, source=path)


def datum_from_dict(raw: dict, source: str = "<datum>") -> BasedRootDatum:
    def fail(field, why):
        raise DatumFormatError(f"{source}: field {field!r}: {why}")

    if not isinstance(raw, dict):
        raise DatumFormatError(f"{source}: top level must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        fail("name", "required nonempty string")
    rank = raw.get("lattice_rank")
    if type(rank) is not int or rank < 0:
        fail("lattice_rank", "required nonnegative integer")

    def vectors(field):
        v = raw.get(field)
        if not isinstance(v, list):
            fail(field, "required list of integer vectors")
        out = []
        for k, row in enumerate(v):
            if not isinstance(row, list) or len(row) != rank or not all(
                type(x) is int for x in row
            ):
                fail(field, f"entry {k} must be a length-{rank} integer vector")
            out.append(tuple(row))
        return tuple(out)

    roots = vectors("simple_roots")
    coroots = vectors("simple_coroots")
    if len(roots) != len(coroots):
        fail("simple_coroots", "must match simple_roots in length")
    orbit_names = raw.get("param_orbit_names")
    if orbit_names is not None:
        if not isinstance(orbit_names, list) or not all(
            isinstance(x, str) and x for x in orbit_names
        ):
            fail("param_orbit_names", "must be a list of nonempty strings")
        orbit_names = tuple(orbit_names)
    return BasedRootDatum(name, rank, roots, coroots, orbit_names)
