"""Exact multivariate Laurent polynomials over the rationals.

A Laurent polynomial is a finite map from integer exponent vectors (negative
exponents allowed) to nonzero rational coefficients.  Coefficients are kept
int-first: a coefficient is an ``int`` unless its denominator is not 1, and
only then a ``Fraction`` (never a ``Fraction`` with denominator 1, a ``bool``
or a ``float``).  This is the coefficient ring for everything downstream:
Hecke parameters are stored as formal square roots v_i with Q_i = v_i^2, and
unramified-character twists as extra invertible variables.

All values are immutable after construction and safe to share.  Two Laurent
polynomials are equal iff their term maps are equal; there is no floating
point anywhere.

Every product goes through one multiply-accumulate kernel, :func:`_addmul`,
which adds a·b into a *raw* term map: a dict whose sums are not normalised and
whose zero sums are kept.  A caller summing many products (a matrix entry, a
Hecke coefficient) keeps one raw map per result and cleans it once with
:func:`_clean`, which drops the zeros and applies :func:`_norm`.

A term map is keyed by packed exponent vectors (:meth:`VarTable.pack`, read
back by :meth:`VarTable.unpack`): the key is Σ e_i·2^(16(n-1-i)), a signed
16-bit field per variable with variable 0 the most significant.  An exponent
lies in [-2^14, 2^14); biased by 2^14 it fills the low 15 bits of its field,
and the top bit is a guard.  So the product of monomials adds keys, the zero
vector is 0 and the inverse is the negated key.  A sum of two in-range keys
is still unambiguous, and :func:`_clean` sees a guard bit set exactly when a
field left the range: it raises ``OverflowError`` and never wraps.  The
canonical (lexicographic) order is the integer order of the keys.

>>> t = VarTable(("v0", "v1"), ("param-sqrt", "param-sqrt"))
>>> v0, v1 = t.gens()
>>> print((v0 + v1) * (v0 - v1))
1*v0^2 - 1*v1^2
>>> print(render_in_Q(v0 ** 2 - 1))
1*Q0 - 1
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Mapping, Sequence, Union

from .intlinalg import row_reduce

Exponent = tuple[int, ...]  # an unpacked exponent vector; term maps key a packed int
Coeff = Union[int, Fraction]  # int-first: a Fraction only if its denominator is not 1
ScalarLike = Union[int, Fraction, "LaurentPoly"]

PARAM_SQRT = "param-sqrt"
TWIST = "twist"
PARAM = "param"  # rendered tables: Q_i = v_i^2

_KINDS = (PARAM_SQRT, TWIST, PARAM)

_FIELD = 16  # bits per packed exponent: a guard bit, then a biased 15-bit exponent
_BOUND = 1 << (_FIELD - 2)  # exponents lie in [-_BOUND, _BOUND)
_MASK = (1 << _FIELD) - 1


class VarTableMismatch(ValueError):
    """Operands live over different variable tables."""


class NotDivisible(ArithmeticError):
    """Exact division failed: divisor does not divide in the Laurent ring."""


class ZeroSubstitutionForUnit(ZeroDivisionError):
    """Zero was substituted for a variable that must stay invertible."""


class OddDegree(ValueError):
    """A param-sqrt variable occurs with odd exponent; no Q-form exists."""


class NonSquare(ValueError):
    """Determinant of a non-square matrix requested."""


class PolyParseError(ValueError):
    """Malformed canonical polynomial string."""


class VarTable:
    """Ordered variable context for a computation.

    The order is fixed for the lifetime of a context: the canonical monomial
    ordering (and hence printing and golden files) depends on it.  A table is
    immutable, and two tables are equal when their names and kinds are.
    """

    __slots__ = ("names", "kinds", "_index", "_bias")

    def __init__(self, names: tuple[str, ...], kinds: tuple[str, ...]):
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate variable names: {names}")
        if len(names) != len(kinds):
            raise ValueError("names and kinds must have equal length")
        for k in kinds:
            if k not in _KINDS:
                raise ValueError(f"unknown variable kind {k!r}")
        init = object.__setattr__
        init(self, "names", names)
        init(self, "kinds", kinds)
        init(self, "_index", {n: i for i, n in enumerate(names)})
        init(self, "_bias", sum(_BOUND << (_FIELD * i) for i in range(len(names))))  # _BOUND per field

    def __setattr__(self, name, value):
        raise AttributeError(f"a VarTable is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VarTable):
            return NotImplemented
        return self.names == other.names and self.kinds == other.kinds

    def __hash__(self) -> int:
        return hash((self.names, self.kinds))

    def __repr__(self) -> str:
        return f"VarTable(names={self.names!r}, kinds={self.kinds!r})"

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} (have {self.names})") from None

    def pack(self, e: Sequence[int]) -> int:
        """The packed key of exponent vector e (module docstring)."""
        if len(e) != len(self.names):
            raise ValueError(f"exponent {tuple(e)} has wrong arity for {self.names}")
        key = 0
        for x in map(int, e):
            if not -_BOUND <= x < _BOUND:
                raise OverflowError(f"exponent {x} outside [-{_BOUND}, {_BOUND})")
            key = (key << _FIELD) + x
        return key

    def unpack(self, key: int) -> Exponent:
        """The exponent vector of a packed key: the one decoding accessor."""
        b = key + self._bias
        shifts = range(_FIELD * (len(self.names) - 1), -1, -_FIELD)
        return tuple(((b >> s) & _MASK) - _BOUND for s in shifts)

    def gens(self) -> list["LaurentPoly"]:
        return [variable(self, i) for i in range(len(self.names))]

    def gen(self, name: str) -> "LaurentPoly":
        return variable(self, self.index(name))

    def qname(self, i: int) -> str:
        """Display name of the square Q_i of the i-th param-sqrt variable."""
        n = self.names[i]
        return "Q" + n[1:] if n.startswith("v") else "Q_" + n

    def q_table(self) -> "VarTable":
        """Variable table for Q-rendered polynomials (param-sqrt squared)."""
        names = tuple(
            self.qname(i) if k == PARAM_SQRT else self.names[i]
            for i, k in enumerate(self.kinds)
        )
        kinds = tuple(PARAM if k == PARAM_SQRT else k for k in self.kinds)
        return VarTable(names, kinds)


def _norm(c: Coeff) -> Coeff:
    """Int-first form of an int or Fraction: a Fraction with denominator 1 becomes its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _addmul(out: dict, a: Mapping[int, Coeff], b: Mapping[int, Coeff]) -> dict:
    """out += a·b on raw term maps (module docstring); returns out.  A one-term
    factor is a key shift, and a constant not even that."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return out
    get = out.get
    if len(b) == 1:
        ((s, cb),) = b.items()
        if s:
            for e, c in a.items():
                e += s
                out[e] = get(e, 0) + c * cb
        else:
            for e, c in a.items():
                out[e] = get(e, 0) + c * cb
        return out
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


def _clean(table: "VarTable", raw: dict) -> "LaurentPoly":
    """The polynomial of a raw term map: one pass that drops the zero sums,
    checks the guard bits of every key kept and puts every coefficient in
    :func:`_norm` form."""
    terms = {}
    bias, guard = table._bias, table._bias << 1  # guard: the top bit of every field
    for e, c in raw.items():
        if c:
            if (e + bias) & guard:
                raise OverflowError(f"an exponent left [-{_BOUND}, {_BOUND}) over {table.names}")
            terms[e] = c if type(c) is int else _norm(c)
    return LaurentPoly._of(table, terms)


def _degree_box(table: "VarTable", terms: Mapping[int, Coeff]) -> tuple[list, list]:
    """The least and the greatest exponent of each variable in a term map."""
    cols = list(zip(*map(table.unpack, terms)))
    return [min(c) for c in cols], [max(c) for c in cols]


def _coeff(c) -> Coeff:
    if isinstance(c, Fraction):
        return _norm(c)
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed :class:`VarTable`."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exponent, Coeff]):
        """From exponent tuples, each packed (and range-checked) by ``table``."""
        clean = {}
        for e, c in terms.items():
            c = _coeff(c)
            if c:
                clean[table.pack(e)] = c
        self.table = table
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(table: VarTable, terms: dict[int, Coeff]) -> "LaurentPoly":
        """Wrap a term map that is already clean: in-range packed keys of the
        table, no zero coefficient, every coefficient in :func:`_norm` form.
        The ring's own results come through here, unchecked."""
        p = object.__new__(LaurentPoly)
        p.table = table
        p.terms = terms
        return p

    @staticmethod
    def const(table: VarTable, c) -> "LaurentPoly":
        c = _coeff(c)
        return LaurentPoly._of(table, {0: c} if c else {})

    @staticmethod
    def monomial(table: VarTable, exps: Sequence[int], c=1) -> "LaurentPoly":
        return LaurentPoly(table, {tuple(exps): _coeff(c)})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.table is not other.table and self.table != other.table:
            raise VarTableMismatch(
                f"operands over {self.table.names} vs {other.table.names}"
            )

    def _lift(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        return LaurentPoly.const(self.table, other)

    def _combine(self, other, op) -> "LaurentPoly":
        """self op other for op = add or sub, one pass over other's terms."""
        other = self._lift(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = op(out.get(e, 0), c)
            if s:
                out[e] = _norm(s)
            else:
                del out[e]  # c is nonzero, so e was a term of self
        return LaurentPoly._of(self.table, out)

    def __add__(self, other) -> "LaurentPoly":
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self._combine(other, sub)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        return _clean(self.table, _addmul({}, self.terms, self._lift(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        out = LaurentPoly.const(self.table, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "LaurentPoly":
        """Inverse of a single-term (unit) Laurent polynomial."""
        if len(self.terms) != 1:
            raise NotDivisible(f"not a unit monomial: {self}")
        ((e, c),) = self.terms.items()
        return _clean(self.table, {-e: Fraction(1) / c})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table.names, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Coeff:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.terms:
            return 0
        if set(self.terms) != {0}:
            raise ValueError(f"not a constant: {self}")
        return self.terms[0]

    def uses_variable(self, name: str) -> bool:
        i = self.table.index(name)
        return any(self.table.unpack(e)[i] for e in self.terms)

    # -- exact division ----------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Quotient q with other * q == self, or :class:`NotDivisible`.

        Laurent divisibility on packed keys: both operands are shifted by
        their packed minima into the ordinary polynomial ring, where sparse
        lead-term division applies.  If other divides self, the quotient's
        degree in each variable is the difference of the operands' degree
        spans, so every quotient term lies in the box [0, span_self -
        span_other]; one mask test on the guard bits checks a term against
        both faces of the box.  Every remainder term then lies in [0,
        span_self], a field of at most 15 bits, so key arithmetic never
        carries.  The remainder's terms come off a max-heap, and the result
        goes through :func:`_clean`, whose guard check raises
        ``OverflowError`` on a quotient outside the exponent range.
        """
        other = self._lift(other)
        if other.is_zero():
            raise NotDivisible("division by zero")
        if self.is_zero():
            return LaurentPoly._of(self.table, {})
        table = self.table
        lo_a, hi_a = _degree_box(table, self.terms)
        lo_b, hi_b = _degree_box(table, other.terms)
        span = [(h - l) - (hb - lb) for l, h, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
        if any(d < 0 for d in span):
            raise NotDivisible(f"{other} does not divide {self}")
        shift_a, shift_b = table.pack(lo_a), table.pack(lo_b)
        box = sum(d << (_FIELD * i) for i, d in enumerate(reversed(span)))
        guard = table._bias << 1  # the top bit of every field
        num = {e - shift_a: c for e, c in self.terms.items()}
        den = {e - shift_b: c for e, c in other.terms.items()}
        lead = max(den)  # lex order; any term order works for exact division
        lc = den[lead]
        heap = [-e for e in num]
        heapify(heap)
        quo: dict[int, Coeff] = {}
        while heap:
            t = -heappop(heap)
            a = num.pop(t, 0)
            if not a:  # cancelled after it was pushed
                continue
            q = t - lead
            # every field of q in [0, box]: q + guard and box - q + guard keep their guard bits
            if (q + guard) & (box - q + guard) & guard != guard:
                raise NotDivisible(f"{other} does not divide {self}")
            # int // int stays exact only when lc divides a; int / int is a float
            if type(a) is int and type(lc) is int and a % lc == 0:
                cq = a // lc
            else:
                cq = Fraction(a) / lc
            quo[q] = cq
            for e, c in den.items():
                if e == lead:
                    continue
                ee = q + e
                s = num.get(ee, 0) - cq * c
                if s:
                    if ee not in num:
                        heappush(heap, -ee)
                    num[ee] = s
                else:
                    del num[ee]  # cq * c is nonzero, so ee was a term of num
        shift_q = shift_a - shift_b
        return _clean(table, {q + shift_q: c for q, c in quo.items()})

    # -- substitution ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, ScalarLike]) -> "LaurentPoly":
        """Substitution homomorphism; unassigned variables stay symbolic.

        Values may be rationals or Laurent polynomials over the same table.
        A variable occurring with a negative exponent must receive an
        invertible value (nonzero rational or unit monomial); param-sqrt
        variables must be nonzero regardless.
        """
        vals: dict[int, LaurentPoly] = {}
        for name, v in assignment.items():
            i = self.table.index(name)
            pv = v if isinstance(v, LaurentPoly) else LaurentPoly.const(self.table, v)
            self._check(pv)
            if pv.is_zero() and self.table.kinds[i] == PARAM_SQRT:
                raise ZeroSubstitutionForUnit(f"{name} is a Laurent unit, got 0")
            vals[i] = pv
        raw: dict = {}
        for e, c in self.terms.items():
            term = LaurentPoly.const(self.table, c)
            rest = list(self.table.unpack(e))
            for i, pv in vals.items():
                k = rest[i]
                rest[i] = 0
                if k == 0:
                    continue
                if k < 0 and not pv.is_monomial():
                    raise ZeroSubstitutionForUnit(
                        f"{self.table.names[i]} occurs with negative exponent; "
                        f"value {pv} is not invertible"
                    )
                term = term * pv ** k
            _addmul(raw, term.terms, {self.table.pack(rest): 1})
        return _clean(self.table, raw)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """Terms in the canonical order: lexicographically decreasing exponents."""
        return [(self.table.unpack(e), c) for e, c in sorted(self.terms.items(), reverse=True)]

    def render(self) -> str:
        """Canonical text form, e.g. ``-1*Q0^3 + 2*Q0^2*Q1``; used in goldens."""
        if not self.terms:
            return "0"
        parts = []
        for k, (e, c) in enumerate(self.sorted_terms()):
            mon = "*".join(
                f"{self.table.names[i]}^{x}" if x != 1 else self.table.names[i]
                for i, x in enumerate(e)
                if x
            )
            mag = abs(c)
            body = f"{mag}*{mon}" if mon else f"{mag}"
            if k == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


def variable(table: VarTable, i: int) -> LaurentPoly:
    e = [0] * len(table)
    e[i] = 1
    return LaurentPoly.monomial(table, e)


def render_in_Q(p: LaurentPoly) -> LaurentPoly:
    """Rewrite in the squared variables Q_i = v_i^2.

    Every param-sqrt exponent must be even in every term, else
    :class:`OddDegree` (the caller decides whether that is an error).
    The result lives over ``p.table.q_table()``.
    """
    qt = p.table.q_table()
    sqrt_idx = [i for i, k in enumerate(p.table.kinds) if k == PARAM_SQRT]
    out = {}
    for e, c in p.terms.items():
        ee = list(p.table.unpack(e))
        for i in sqrt_idx:
            if ee[i] % 2:
                raise OddDegree(f"odd exponent of {p.table.names[i]} in {p}")
            ee[i] //= 2
        out[qt.pack(ee)] = c
    return LaurentPoly._of(qt, out)


def parse_poly(table: VarTable, text: str) -> LaurentPoly:
    """Parse the canonical rendering (and fraction coefficients) back to a poly.

    Accepts e.g. ``"1*Q0^2*Q1 - 4*Q0 + 3/2"`` or ``"Q0 - 1"``.
    """
    s = text.strip()
    if s == "0":
        return LaurentPoly(table, {})
    s = s.replace(" - ", " + -")
    out = LaurentPoly(table, {})
    for raw in s.split(" + "):
        raw = raw.strip()
        if not raw:
            raise PolyParseError(f"empty term in {text!r}")
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:]
        coeff = Fraction(1)
        exps = [0] * len(table)
        for factor in raw.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError(f"empty factor in {text!r}")
            name, _, power = factor.partition("^")
            if name in table.names:
                exps[table.index(name)] += int(power) if power else 1
            else:
                try:
                    coeff *= Fraction(factor)
                except ValueError:
                    raise PolyParseError(f"bad factor {factor!r} in {text!r}") from None
        term = LaurentPoly.monomial(table, exps, -coeff if neg else coeff)
        out = out + term
    return out


class PolyMatrix:
    """Dense rectangular matrix of :class:`LaurentPoly` entries."""

    __slots__ = ("rows", "cols", "entries", "table")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        self.table = self.entries[0][0].table if self.rows and self.cols else None

    @staticmethod
    def identity(table: VarTable, n: int) -> "PolyMatrix":
        one = LaurentPoly.const(table, 1)
        zero = LaurentPoly(table, {})
        return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix([list(map(op, r, s)) for r, s in zip(self.entries, other.entries)])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, sub)

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[e * c for e in row] for row in self.entries])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.entries:
            acc = [{} for _ in range(other.cols)]  # one raw term map per entry
            for a, brow in zip(row, other.entries):
                if a.terms:
                    for s, b in zip(acc, brow):
                        if b.terms:
                            _addmul(s, a.terms, b.terms)
            out.append([_clean(self.table, s) for s in acc])
        return PolyMatrix(out)

    @staticmethod
    def combination(table: VarTable, n: int, pairs) -> "PolyMatrix":
        """Σ M·c over the (n x n matrix M, LaurentPoly c) pairs, one raw term
        map per entry."""
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for m, c in pairs:
            for srow, mrow in zip(acc, m.entries):
                for s, e in zip(srow, mrow):
                    if e.terms:
                        _addmul(s, e.terms, c.terms)
        return PolyMatrix([[_clean(table, s) for s in srow] for srow in acc])

    def trace(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise NonSquare(f"{self.rows}x{self.cols}")
        one = LaurentPoly.const(self.table, 1).terms
        acc: dict = {}
        for i in range(self.rows):
            _addmul(acc, self.entries[i][i].terms, one)
        return _clean(self.table, acc)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def det_bareiss(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant by fraction-free Bareiss elimination.

    Rows are first cleared of monomial denominators (the extracted monomial
    factors divide the fraction-free result back out at the end).  Pivots are
    chosen by the fewest-terms heuristic; row swaps only flip the sign, and
    every interior division is exact by the Bareiss identity.
    """
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        raise NonSquare("empty matrix")
    table = m.table
    nvars = len(table)
    work = []
    extracted = LaurentPoly.const(table, 1)
    for row in m.entries:
        shift = [0] * nvars
        for e in row:
            for exp in map(table.unpack, e.terms):
                shift = list(map(min, shift, exp))
        factor = LaurentPoly.monomial(table, shift)
        extracted = extracted * factor
        inv = factor.inverse()
        work.append([e * inv for e in row])
    sign = 1
    prev = LaurentPoly.const(table, 1)
    for k in range(n - 1):
        pivot_row = None
        best = None
        for r in range(k, n):
            e = work[r][k]
            if e.is_zero():
                continue
            if best is None or len(e.terms) < best:
                best = len(e.terms)
                pivot_row = r
        if pivot_row is None:
            return LaurentPoly(table, {})
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pkk = work[k][k]
        for i in range(k + 1, n):
            rik = work[i][k]
            for j in range(k + 1, n):
                num = pkk * work[i][j] - rik * work[k][j]
                work[i][j] = num.exact_div(prev)
            work[i][k] = LaurentPoly(table, {})
        prev = pkk
    det = work[n - 1][n - 1]
    if sign < 0:
        det = -det
    # each row was multiplied by factor^{-1}; multiply the factors back in
    return det * extracted


def rational_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of an exact rational matrix."""
    return len(row_reduce(rows)[1])


if __name__ == "__main__":
    import doctest

    doctest.testmod()
