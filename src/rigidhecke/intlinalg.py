"""Small exact integer/rational linear algebra used by the lattice layer.

Everything here works on plain lists of ints/Fractions; sizes are tiny
(lattice ranks at most ~8), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def signed_basis(m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(e_i, -e_i) for each standard basis vector e_i of Z^m."""
    out = []
    for i in range(m):
        e = tuple(int(j == i) for j in range(m))
        out.append((e, tuple(-c for c in e)))
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Return (d, U, V) with U * mat * V diagonal d (as a full matrix).

    U and V are unimodular; d's diagonal entries are the elementary divisors
    (not necessarily ordered by divisibility -- not needed here).
    """
    a = [list(row) for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, nr):
                if a[i][t] % a[t][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                    done = False
                elif a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            for j in range(t + 1, nc):
                if a[t][j] % a[t][t]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                    done = False
                elif a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
            if done and all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                a[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        t += 1
    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, v


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The product a * b of square matrices, as a tuple of row tuples."""
    m = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(m)) for c in range(m))
        for r in range(m)
    )


def row_reduce(rows: Sequence[Sequence], ncols: Optional[int] = None) -> tuple[list[list[Fraction]], list[int]]:
    """Exact reduced row echelon form over Q: (reduced rows, pivot columns).

    Only the first ``ncols`` columns (default: all) are eliminated, so an
    augmented block to their right is carried along.  Each column's pivot is
    its first nonzero entry at or below the current row, scaled to 1.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nr = len(a)
    nc = (len(a[0]) if nr else 0) if ncols is None else ncols
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def mat_inverse_unimodular(m: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a unimodular integer matrix, computed exactly."""
    n = len(m)
    aug, pivots = row_reduce([list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)], n)
    out = [row[n:] for row in aug]
    if len(pivots) < n or any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def kernel_basis(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis (as rows) of the saturated lattice {x : x * mat = 0}."""
    nr = len(mat)
    if nr == 0:
        return []
    d, u, _v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0)
    return [u[i] for i in range(rank, nr)]


def row_saturation(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis (rows) of the saturation rowspace_Q(mat) ∩ Z^n."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    d, _u, v = smith_normal_form(mat)
    vinv = mat_inverse_unimodular(v)
    rank = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
    return [vinv[i] for i in range(rank)]


def solve_integer(cols: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """Integer solution c of sum_j c_j * cols[j] = target, or None.

    ``cols`` is a list of generator vectors (not necessarily independent).
    """
    n = len(target)
    if not cols:
        return [] if all(x == 0 for x in target) else None
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(n)]  # n x k
    d, u, v = smith_normal_form(mat)
    t = mat_vec(u, list(target))
    k = len(cols)
    y = [0] * k
    for i in range(n):
        di = d[i][i] if i < min(n, k) else 0
        if i < k and di != 0:
            if t[i] % di:
                return None
            y[i] = t[i] // di
        else:
            if t[i] != 0:
                return None
    return mat_vec(v, y)
