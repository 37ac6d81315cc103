"""Based root data: validation, root systems, quotients, presets, file IO.

A based root datum is (X, R, X^, R^, Pi) with X = Z^m, the pairing being the
dot product, and simple roots/coroots given as integer vectors.  The derived
affine data (affine simple system, parameter orbits, Omega) needs extended
affine Weyl arithmetic and lives in :mod:`rigidhecke.weyl`; thin wrappers are
re-exported here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import intlinalg

Vec = tuple[int, ...]


class NotCartan(ValueError):
    """Some <alpha_i, alpha_i^> is not 2."""


class InfiniteWeylGroup(ValueError):
    """Weyl closure exceeded the finiteness bound."""


class NotReduced(ValueError):
    """Some root is twice another root."""


class UnknownPreset(KeyError):
    pass


class DatumFormatError(ValueError):
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


def validate_datum(datum: BasedRootDatum, weyl_bound: int = 100_000) -> int:
    """Check the datum invariants; return |W| as the certificate.

    Raises :class:`NotCartan`, :class:`InfiniteWeylGroup` or
    :class:`NotReduced`.
    """
    m = datum.rank
    if len(datum.simple_roots) != len(datum.simple_coroots):
        raise NotCartan("unequal numbers of simple roots and coroots")
    for v in list(datum.simple_roots) + list(datum.simple_coroots):
        if len(v) != m:
            raise NotCartan(f"vector {v} has wrong rank (expected {m})")
    for i, (a, av) in enumerate(zip(datum.simple_roots, datum.simple_coroots)):
        if datum.pairing(a, av) != 2:
            raise NotCartan(f"<alpha_{i}, alpha_{i}^> = {datum.pairing(a, av)} != 2")
    size = _weyl_order(datum, weyl_bound)
    rs = generate_root_system(datum, weyl_bound)
    root_set = set(rs.roots)
    for v in rs.roots:
        if tuple(2 * x for x in v) in root_set:
            raise NotReduced(f"root {v} and its double both occur")
    return size


def reflection_matrix(a: Sequence[int], av: Sequence[int]) -> tuple[Vec, ...]:
    """Matrix of x -> x - <x, av> a acting on column vectors (row r holds
    coordinate r of the images of the basis vectors)."""
    m = len(a)
    return tuple(tuple(int(r == j) - av[j] * a[r] for j in range(m)) for r in range(m))


def _weyl_order(datum: BasedRootDatum, bound: int) -> int:
    m = datum.rank
    if m == 0 or not datum.simple_roots:
        return 1
    gens = [reflection_matrix(a, av) for a, av in zip(datum.simple_roots, datum.simple_coroots)]
    ident = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                prod = intlinalg.mat_mul(s, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise InfiniteWeylGroup(f"Weyl closure exceeded {bound}")
        frontier = nxt
    return len(seen)


def generate_root_system(datum: BasedRootDatum, bound: int = 100_000) -> RootSystem:
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
                    if len(pairs) > bound:
                        raise InfiniteWeylGroup(f"root closure exceeded {bound}")
        frontier = nxt
    roots = sorted(pairs)
    pos = [_is_positive(datum, v) for v, _ in roots]
    return RootSystem(
        tuple(v for v, _ in roots), tuple(cv for _, cv in roots), tuple(pos)
    )


def _is_positive(datum: BasedRootDatum, v: Vec) -> bool:
    """Is v a nonnegative rational combination of the simple roots?"""
    coeffs = _simple_root_coords(datum, v)
    if coeffs is None:
        raise ValueError(f"{v} is not in the span of the simple roots")
    return all(c >= 0 for c in coeffs)


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
    """Read a datum from a JSON file; errors cite the offending field."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatumFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
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
    if not isinstance(rank, int) or rank < 0:
        fail("lattice_rank", "required nonnegative integer")

    def vectors(field):
        v = raw.get(field)
        if not isinstance(v, list):
            fail(field, "required list of integer vectors")
        out = []
        for k, row in enumerate(v):
            if not isinstance(row, list) or len(row) != rank or not all(
                isinstance(x, int) for x in row
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
