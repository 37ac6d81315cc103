"""Rigid character tables and the verification suites around them.

A rigid table has one row per Newton-zero conjugacy class (the element T_O)
and one column per module of the preset panel; entries are exact traces,
rendered in the squared parameters Q.  The three table presets pin the
row order, the column selection (by trace signature), and the determinant,
which is compared up to sign against the expanded product formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .conj import classify, newton_zero_classes
from .exactpoly import (
    LaurentPoly,
    PolyMatrix,
    VarTable,
    det_bareiss,
    rational_matrix_rank,
    render_in_Q,
)
from .hecke import HeckeContext
from .repn import (
    FinDimModule,
    TwistChar,
    induce,
    induce_in_parabolic,
    inflate_chi_t,
    lift_from_parahoric,
    one_dim_modules,
    restrict,
    twist_by,
)
from .rootdata import preset as datum_preset
from .weyl import WeylData


class TableMismatch(AssertionError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    """Module descriptor, as in the CLI JSON interface."""

    label: str
    kind: str  # "onedim" | "lift" | "induced"
    signature: dict = field(default_factory=dict)
    J: tuple[int, ...] = ()
    module: str = ""
    scalars: dict = field(default_factory=dict)
    twist: str = "trivial"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "signature": dict(self.signature), "J": list(self.J)}
        if self.kind == "lift":
            out["module"] = self.module
            out["scalars"] = dict(self.scalars)
        out["twist"] = self.twist
        return out


@dataclass(frozen=True)
class PresetManifest:
    name: str
    orbit_assignment: Optional[dict]
    row_labels: tuple[str, ...]
    row_words: tuple[tuple[str, ...], ...]
    columns: tuple[ColumnSpec, ...]
    det_product: Callable[[VarTable], LaurentPoly]
    det_text: str


def _sl2_det(qt: VarTable) -> LaurentPoly:
    q = qt.gen("Q")
    return (q + 1) * (q + 1) * -1


def _pgl2_det(qt: VarTable) -> LaurentPoly:
    q = qt.gen("Q")
    return (q + 1) * 2


def _c2_det(qt: VarTable) -> LaurentPoly:
    q0, q1, q2 = qt.gen("Q0"), qt.gen("Q1"), qt.gen("Q2")
    one = LaurentPoly.const(qt, 1)
    out = LaurentPoly.const(qt, -1)
    for q in (q0, q1, q2):
        out = out * (one + q) ** 3
    return out * (q0 + q1) * (q1 + q2) * (one + q0 * q1) * (one + q1 * q2)


def c2_ext_specialized_det(qt: VarTable) -> LaurentPoly:
    """(1+q1)^3 (1+q2)^5 (q1+q2)(1+q1 q2): the extended-C2 determinant product."""
    q1, q2 = qt.gen("Q1"), qt.gen("Q2")
    one = LaurentPoly.const(qt, 1)
    return (one + q1) ** 3 * (one + q2) ** 5 * (q1 + q2) * (one + q1 * q2)


MANIFESTS: dict[str, PresetManifest] = {
    "sl2": PresetManifest(
        name="sl2",
        orbit_assignment={"q0": "q", "q1": "q"},
        row_labels=("T0", "T1", "1"),
        row_words=(("s0",), ("s1",), ()),
        columns=(
            ColumnSpec("St", "onedim", {"s0": "-1", "s1": "-1"}),
            ColumnSpec("pi+", "onedim", {"s0": "-1", "s1": "Q"}),
            ColumnSpec("i_0(1)", "induced", {}, ()),
        ),
        det_product=_sl2_det,
        det_text="-(q+1)^2",
    ),
    "pgl2": PresetManifest(
        name="pgl2",
        orbit_assignment=None,
        row_labels=("T1", "tau", "1"),
        row_words=(("s1",), ("tau",), ()),
        columns=(
            ColumnSpec("St-", "onedim", {"s1": "-1", "tau": "1"}),
            ColumnSpec("St+", "onedim", {"s1": "-1", "tau": "-1"}),
            ColumnSpec("i_0(1)", "induced", {}, ()),
        ),
        det_product=_pgl2_det,
        det_text="2(q+1)",
    ),
    "c2-aff": PresetManifest(
        name="c2-aff",
        orbit_assignment=None,
        row_labels=(
            "T1T2",
            "(T1T2)^2",
            "T0T2",
            "T0T1",
            "(T0T1)^2",
            "T0",
            "T1",
            "T2",
            "1",
        ),
        row_words=(
            ("s1", "s2"),
            ("s1", "s2", "s1", "s2"),
            ("s0", "s2"),
            ("s0", "s1"),
            ("s0", "s1", "s0", "s1"),
            ("s0",),
            ("s1",),
            ("s2",),
            (),
        ),
        columns=(
            ColumnSpec("2x0", "lift", {}, (), "2x0", {"s0": "-1"}),
            ColumnSpec("11x0", "lift", {}, (), "11x0", {"s0": "-1"}),
            ColumnSpec("0x2", "lift", {}, (), "0x2", {"s0": "-1"}),
            ColumnSpec("0x11", "lift", {}, (), "0x11", {"s0": "-1"}),
            ColumnSpec("1x1", "lift", {}, (), "1x1", {"s0": "-1"}),
            ColumnSpec("i_{1}(St)", "induced", {"s1": "-1", "tau": "1"}, (0,)),
            ColumnSpec("i_{2}(St)", "induced", {"s1": "-1", "s0": "-1"}, (1,)),
            ColumnSpec("i_{2}(pi+)", "induced", {"s1": "Q", "s0": "-1"}, (1,)),
            ColumnSpec("i_0(1)", "induced", {}, ()),
        ),
        det_product=_c2_det,
        det_text="-(1+q0)^3(1+q1)^3(1+q2)^3(q0+q1)(q1+q2)(1+q0*q1)(1+q1*q2)",
    ),
}


@dataclass
class PresetContext:
    """Everything the table and suites need, built once per preset."""

    manifest: PresetManifest
    wd: WeylData
    ctx: HeckeContext
    classes: list
    rows: list  # ConjClassRecord per manifest row
    modules: list  # FinDimModule per column

    def column_module(self, label: str) -> FinDimModule:
        for spec, mod in zip(self.manifest.columns, self.modules):
            if spec.label == label:
                return mod
        raise KeyError(label)


def _match_signature(alg: HeckeContext, mods: Sequence[FinDimModule], sig: dict) -> FinDimModule:
    wd = alg.wd

    def tag_value(name: str, tag: str) -> LaurentPoly:
        if tag == "Q":
            return alg.Q_of_sa[wd.sa_index[name]]
        return LaurentPoly.const(alg.table, Fraction(tag))

    hits = []
    for m in mods:
        if all(m.tmat[n].trace() == tag_value(n, t) for n, t in sig.items()):
            hits.append(m)
    if len(hits) != 1:
        raise TableMismatch(
            f"signature {sig} matched {len(hits)} one-dimensional modules"
        )
    return hits[0]


def resolve_column(ctx: HeckeContext, spec: ColumnSpec) -> FinDimModule:
    """Materialize a column descriptor as a certified module."""
    if spec.kind == "onedim":
        return _match_signature(ctx, one_dim_modules(ctx), spec.signature)
    if spec.kind == "lift":
        knames = tuple(
            s.name for s in ctx.wd.affine_simple if s.name not in spec.scalars
        )
        return lift_from_parahoric(ctx, knames, spec.module, spec.scalars)
    if spec.kind == "induced":
        qa = ctx.quotient_algebra(spec.J)
        sigma = _match_signature(qa.ctx, one_dim_modules(qa.ctx), spec.signature)
        return induce(ctx, spec.J, inflate_chi_t(qa, sigma))
    raise KeyError(f"unknown column kind {spec.kind!r}")


def build_preset_context(name: str, L: int = 8, n_twist: int = 0) -> PresetContext:
    man = MANIFESTS[name]
    wd = WeylData(datum_preset(name))
    ctx = HeckeContext(wd, orbit_assignment=man.orbit_assignment, n_twist=n_twist)
    classes = newton_zero_classes(wd, L)
    rows = []
    for word in man.row_words:
        rows.append(classify(wd, wd.evaluate_word(word), classes))
    if len({r.label for r in rows}) != len(man.row_labels) or len(rows) != len(classes):
        raise TableMismatch("manifest rows do not enumerate the Newton-zero classes")
    modules = [resolve_column(ctx, spec) for spec in man.columns]
    return PresetContext(man, wd, ctx, classes, rows, modules)


def datum_context(wd: WeylData, L: int = 8) -> PresetContext:
    """A context without a module panel, for the datum-only suites
    (lengths, classes, counts): every Newton-zero class is a row."""
    man = PresetManifest(wd.datum.name, None, (), (), (), lambda qt: None, "")
    classes = newton_zero_classes(wd, L)
    return PresetContext(man, wd, HeckeContext(wd), classes, list(classes), [])


@dataclass
class RigidTable:
    """Exact rigid character table, entries in the Q-variables."""

    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: list  # rows of LaurentPoly over the Q-table
    qtable: VarTable
    col_specs: tuple[ColumnSpec, ...]
    _det: Optional[LaurentPoly] = field(default=None, init=False, repr=False, compare=False)

    def det(self) -> LaurentPoly:
        """The determinant, computed once per table."""
        if self._det is None:
            self._det = det_bareiss(PolyMatrix(self.entries))
        return self._det

    def evaluate(self, assignment: dict) -> list:
        """Rational entries at a {param: value} assignment (name-insensitive)."""
        resolved = {}
        lower = {n.lower(): n for n in self.qtable.names}
        for k, v in assignment.items():
            key = k.lower()
            if key not in lower:
                raise KeyError(f"unknown parameter {k!r}; have {self.qtable.names}")
            resolved[lower[key]] = Fraction(v)
        missing = [n for n in self.qtable.names if n not in resolved]
        if missing:
            raise KeyError(f"missing parameter values for {missing}")
        out = []
        for row in self.entries:
            out.append([e.evaluate(resolved).constant_value() for e in row])
        return out

    # -- rendering --------------------------------------------------------------
    # ``cells`` replaces the rendered entries, e.g. by their values at a point.

    def _cells(self, cells: Optional[list]) -> list:
        if cells is not None:
            return cells
        return [[e.render() for e in row] for row in self.entries]

    def to_markdown(self, cells: Optional[list] = None) -> str:
        head = [self.name] + list(self.col_labels)
        lines = ["| " + " | ".join(head) + " |"]
        lines.append("|" + "|".join(["---"] * len(head)) + "|")
        for lab, row in zip(self.row_labels, self._cells(cells)):
            lines.append("| " + " | ".join([lab] + row) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self, cells: Optional[list] = None) -> str:
        lines = [",".join([self.name] + list(self.col_labels))]
        for lab, row in zip(self.row_labels, self._cells(cells)):
            lines.append(",".join([lab] + row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self, cells: Optional[list] = None) -> dict:
        return {
            "name": self.name,
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": self._cells(cells),
        }


def build_rigid_table(pc: PresetContext) -> RigidTable:
    man = pc.manifest
    qtable = pc.ctx.table.q_table()
    entries = []
    for rec in pc.rows:
        row = []
        for mod in pc.modules:
            row.append(render_in_Q(mod.trace(rec.rep)))
        entries.append(row)
    return RigidTable(
        man.name,
        man.row_labels,
        tuple(c.label for c in man.columns),
        entries,
        qtable,
        man.columns,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def determinant_check(table: RigidTable, expected: LaurentPoly, up_to_monomial: bool = False) -> CheckResult:
    """Compare det(table) with the expected product, up to sign.

    Row order only affects the determinant's sign, so the comparison accepts
    ±expected; with ``up_to_monomial`` any single-term quotient passes (the
    extended-C2 identity is only claimed up to a scalar).
    """
    det = table.det()
    try:
        quo = det.exact_div(expected)
    except Exception:
        return CheckResult(
            "determinant", "fail", f"det = {det.render()} does not divide by expected"
        )
    if quo.is_zero():
        ok = False
    elif up_to_monomial:
        ok = quo.is_monomial()
    else:
        try:
            ok = abs(quo.constant_value()) == 1
        except ValueError:
            ok = False
    return CheckResult(
        "determinant",
        "pass" if ok else "fail",
        f"det/expected = {quo.render()}",
    )


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
    except Exception as exc:
        return CheckResult("specialization-ext-c2", "fail", f"quotient not constant: {exc}")
    ok = c != 0
    return CheckResult(
        "specialization-ext-c2",
        "pass" if ok else "fail",
        f"constant c = {c}",
    )


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

ADMISSIBLE_POINTS = (2, 3, 5)


def _all_params(table_or_qt, value) -> dict:
    qt = table_or_qt.qtable if isinstance(table_or_qt, RigidTable) else table_or_qt
    return {n: Fraction(value) for n, k in zip(qt.names, qt.kinds) if k == "param"}


def _strictly_dominant_vec(wd: WeylData):
    import itertools as it

    m = wd.rank
    for bound in range(1, 8):
        for combo in it.product(range(-bound, bound + 1), repeat=m):
            x = tuple(combo)
            if all(
                sum(a * b for a, b in zip(x, wd.datum.simple_coroots[i])) > 0
                for i in range(wd.npi)
            ):
                return x
    raise RuntimeError("no strictly dominant vector found")


def suite_twist(pc: PresetContext) -> list[CheckResult]:
    """Separation theorem: table entries are twist-free; a nonzero-Newton
    class shows twist dependence (negative control)."""
    man = pc.manifest
    wd = pc.wd
    ctx2 = HeckeContext(wd, orbit_assignment=man.orbit_assignment, n_twist=wd.rank)
    out = []
    from .conj import descend_to_minimal

    nz_vec = _strictly_dominant_vec(wd)
    plateau, _ = descend_to_minimal(wd, wd.translation(nz_vec))
    nz_rep = min(plateau, key=wd.word)
    negative_control = False
    for spec in man.columns:
        if spec.kind != "induced":
            continue
        qa = ctx2.quotient_algebra(spec.J)
        sigma = _match_signature(qa.ctx, one_dim_modules(qa.ctx), spec.signature)
        t = TwistChar(qa, symbolic=True)
        mod = induce(ctx2, spec.J, inflate_chi_t(qa, sigma, t))
        leaked = []
        for rec in pc.rows:
            tr = mod.trace(rec.rep)
            if any(tr.uses_variable(z) for z in ctx2.twist_names):
                leaked.append(rec.label)
        out.append(
            CheckResult(
                f"twist-free[{spec.label}]",
                "fail" if leaked else "pass",
                f"twist variables leaked into rows {leaked}" if leaked else
                f"all {len(pc.rows)} entries free of {ctx2.twist_names}",
            )
        )
        if t.rank and any(
            mod.trace(nz_rep).uses_variable(z) for z in ctx2.twist_names
        ):
            negative_control = True
    out.append(
        CheckResult(
            "twist-negative-control",
            "pass" if negative_control else "fail",
            f"nonzero-Newton class [{wd.label(nz_rep)}] twist-dependent: {negative_control}",
        )
    )
    return out


def _probe_elements(ctx: HeckeContext, K: tuple[int, ...]):
    par = ctx.parabolic(K)
    m = ctx.wd.rank
    xs = [(0,) * m]
    for i in range(m):
        e = [0] * m
        e[i] = 1
        xs.append(tuple(e))
        xs.append(tuple(-c for c in e))
    probes = []
    for x in xs:
        for w in par.members:
            probes.append(par.elt({(x, w): ctx.one()}))
    return probes


def _sigma_for(ctx: HeckeContext, J: tuple[int, ...]) -> FinDimModule:
    qa = ctx.quotient_algebra(J)
    return inflate_chi_t(qa, one_dim_modules(qa.ctx)[0])


def suite_mackey(pc: PresetContext) -> list[CheckResult]:
    """r_K ∘ i_J = Σ_w i^K_{K_w} ∘ w ∘ r_{J_w} at the character level."""
    import itertools as it

    ctx = pc.ctx
    wd = pc.wd
    out = []
    subsets = [tuple(c) for r in range(wd.npi + 1) for c in it.combinations(range(wd.npi), r)]
    for J in subsets:
        sigma = _sigma_for(ctx, J)
        ind = induce(ctx, J, sigma)
        for K in subsets:
            lhs_mod = restrict(ind, K)
            pieces = []
            for w, kw, jw in wd.double_coset_reps(K, J):
                rho = restrict(sigma, jw)
                moved = twist_by(rho, wd.W.inverse[w], kw)
                pieces.append(induce_in_parabolic(ctx, K, kw, moved))
            bad = None
            for p in _probe_elements(ctx, K):
                lhs = lhs_mod.trace_parabolic(p)
                rhs = ctx.zero()
                for piece in pieces:
                    rhs = rhs + piece.trace_parabolic(p)
                if lhs != rhs:
                    bad = p
                    break
            out.append(
                CheckResult(
                    f"mackey[K={list(K)},J={list(J)}]",
                    "fail" if bad else "pass",
                    "character identity over the probe panel",
                )
            )
    return out


def suite_adjunction(pc: PresetContext, seed: int = 20240, samples: int = 6) -> list[CheckResult]:
    """tr(σ, r̄_J(h)) = tr(i_J(σ), h) for random h of length <= 4."""
    import itertools as it

    ctx = pc.ctx
    wd = pc.wd
    rng = random.Random(seed)
    ball = wd.enumerate_ball(4)
    out = []
    subsets = [tuple(c) for r in range(wd.npi + 1) for c in it.combinations(range(wd.npi), r)]
    for J in subsets:
        sigma = _sigma_for(ctx, J)
        ind = induce(ctx, J, sigma)
        ok = True
        for _ in range(samples):
            h = ctx.T(rng.choice(ball)) + ctx.T(rng.choice(ball)).scale(
                LaurentPoly.const(ctx.table, rng.randint(1, 3))
            )
            lhs = ind.trace(h)
            rhs = sigma.trace_parabolic(ctx.bar_restrict(h, J))
            if lhs != rhs:
                ok = False
                break
        out.append(
            CheckResult(
                f"adjunction[J={list(J)}]",
                "pass" if ok else "fail",
                f"{samples} random h of length <= 4",
            )
        )
    return out


def abar_elements(pc: PresetContext, recs=None) -> dict:
    """bar-A applied to each class element T_O (cached per preset context)."""
    ctx = pc.ctx
    out = {}
    for rec in recs if recs is not None else pc.classes:
        out[rec.label] = ctx.adjoint_A(ctx.T(rec.rep))
    return out


def suite_pairing(pc: PresetContext, table: RigidTable) -> list[CheckResult]:
    out = []
    det = table.det()
    expected = pc.manifest.det_product(table.qtable)
    chk = determinant_check(table, expected)
    out.append(CheckResult("pairing-determinant", chk.status, chk.detail))
    out.append(
        CheckResult(
            "pairing-det-nonzero",
            "pass" if not det.is_zero() else "fail",
            "determinant nonzero as a polynomial",
        )
    )
    for q in ADMISSIBLE_POINTS:
        vals = table.evaluate(_all_params(table, q))
        rank = rational_matrix_rank(vals)
        out.append(
            CheckResult(
                f"pairing-nonsingular[q={q}]",
                "pass" if rank == len(vals) else "fail",
                f"rank {rank} of {len(vals)}",
            )
        )
    # the product formula fixes det only up to sign (see determinant_check)
    val = det.evaluate(_all_params(table, -1))
    want = expected.evaluate(_all_params(table, -1))
    ok = val == want or val == -want
    if not ok:
        detail = f"determinant at q=-1 is {val.render()}, product formula gives ±{want.render()}"
    elif val.is_zero():
        detail = f"determinant at q=-1 is {val.render()} (singular, as the product formula predicts)"
    else:
        detail = f"determinant at q=-1 is {val.render()} (regular)"
    out.append(CheckResult("pairing-at-q=-1", "pass" if ok else "fail", detail))
    return out


def suite_elliptic_rank(pc: PresetContext, abar: dict) -> list[CheckResult]:
    """After projecting columns by A, elliptic rows span rank = #elliptic."""
    elliptic = [r for r in pc.classes if r.elliptic]
    rows = []
    for rec in elliptic:
        rows.append([mod.trace(abar[rec.label]) for mod in pc.modules])
    out = []
    for q in ADMISSIBLE_POINTS:
        numeric = []
        assign = _all_params(pc.ctx.table.q_table(), q)
        for row in rows:
            numeric.append(
                [render_in_Q(e).evaluate(assign).constant_value() for e in row]
            )
        rank = rational_matrix_rank(numeric) if numeric else 0
        out.append(
            CheckResult(
                f"elliptic-rank[q={q}]",
                "pass" if rank == len(elliptic) else "fail",
                f"A-projected elliptic block rank {rank}, expected {len(elliptic)}",
            )
        )
    return out


def suite_a_kills_induced(pc: PresetContext, abar: dict) -> list[CheckResult]:
    out = []
    for spec, mod in zip(pc.manifest.columns, pc.modules):
        if spec.kind != "induced" or len(spec.J) == pc.wd.npi:
            continue
        bad = [
            rec.label
            for rec in pc.classes
            if not mod.trace(abar[rec.label]).is_zero()
        ]
        out.append(
            CheckResult(
                f"A-kills[{spec.label}]",
                "fail" if bad else "pass",
                f"nonzero at {bad}" if bad else "A(i_J σ) vanishes on every T_O",
            )
        )
    return out


def suite_a_squared(pc: PresetContext, abar: dict, column: str = None) -> list[CheckResult]:
    """A^2 = a A with the scalar a recovered, tested on one elliptic column."""
    ctx = pc.ctx
    mod = None
    for spec, m in zip(pc.manifest.columns, pc.modules):
        if column is not None and spec.label == column:
            mod = m
            break
        if column is None and spec.kind in ("onedim", "lift"):
            mod = m
            break
    f = {lab: mod.trace(h) for lab, h in abar.items()}
    g = {lab: mod.trace(ctx.adjoint_A(h)) for lab, h in abar.items()}
    a_val = None
    for lab in f:
        if not f[lab].is_zero():
            a_val = g[lab].exact_div(f[lab])
            break
    if a_val is None:
        return [CheckResult("A-squared", "fail", "A vanished on the elliptic column")]
    ok = True
    try:
        const = a_val.constant_value()
    except ValueError:
        return [CheckResult("A-squared", "fail", f"ratio {a_val.render()} not constant")]
    for lab in f:
        if g[lab] != f[lab] * a_val:
            ok = False
    ok = ok and const != 0
    return [
        CheckResult(
            "A-squared",
            "pass" if ok else "fail",
            f"A^2 = a A with a = {const}",
        )
    ]


def suite_density(pc: PresetContext, table: RigidTable, seed: int = 41, extras: int = 5) -> list[CheckResult]:
    """Trace vectors of {T_O} on table panel + random-twist induced modules
    stay linearly independent at q = 2."""
    import itertools as it

    ctx = pc.ctx
    wd = pc.wd
    rng = random.Random(seed)
    assign = _all_params(table, 2)
    base = table.evaluate(assign)
    columns = [[base[i][j] for i in range(len(pc.rows))] for j in range(len(pc.modules))]
    proper = [tuple(c) for r in range(wd.npi) for c in it.combinations(range(wd.npi), r)]
    built = 0
    k = 0
    while built < extras:
        J = proper[k % len(proper)]
        k += 1
        qa = ctx.quotient_algebra(J)
        mods = one_dim_modules(qa.ctx)
        sigma = mods[rng.randrange(len(mods))]
        t_rank = TwistChar(qa).rank
        t = TwistChar(qa, values=[Fraction(rng.randint(2, 9)) for _ in range(t_rank)])
        mod = induce(ctx, J, inflate_chi_t(qa, sigma, t))
        col = []
        for rec in pc.rows:
            col.append(render_in_Q(mod.trace(rec.rep)).evaluate(assign).constant_value())
        columns.append(col)
        built += 1
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(pc.rows))]
    rank = rational_matrix_rank(matrix)
    ok = rank == len(pc.rows)
    return [
        CheckResult(
            "density-spot-check",
            "pass" if ok else "fail",
            f"rank {rank} of {len(pc.rows)} on {len(columns)} columns at q=2",
        )
    ]


def suite_counts(pc: PresetContext) -> list[CheckResult]:
    from .conj import count_identity_check

    rep = count_identity_check(pc.wd)
    return [
        CheckResult(
            "count-identity",
            "pass" if rep.ok else "fail",
            f"sum_J |elliptic/N_J| = {rep.total}, |cl(W~)_0| = {rep.expected}; "
            + ", ".join(f"J={list(J)}:{n}" for J, n in rep.per_J),
        )
    ]


def suite_relations(pc: PresetContext, seed: int = 99, triples: int = 200) -> list[CheckResult]:
    """Module relation certificates plus algebra-level structural checks."""
    ctx = pc.ctx
    wd = pc.wd
    rng = random.Random(seed)
    out = []
    for spec, mod in zip(pc.manifest.columns, pc.modules):
        try:
            fams = mod.verify_relations()
            out.append(
                CheckResult(
                    f"module-relations[{spec.label}]", "pass", ",".join(fams)
                )
            )
        except Exception as exc:
            out.append(CheckResult(f"module-relations[{spec.label}]", "fail", str(exc)))
    ball = wd.enumerate_ball(4)
    ok = True
    for _ in range(triples):
        a, b, c = (ctx.T(rng.choice(ball)) for _ in range(3))
        if (a * b) * c != a * (b * c):
            ok = False
            break
    out.append(CheckResult("im-associativity", "pass" if ok else "fail", f"{triples} random triples, radius 4"))
    ok = True
    n = len(wd.affine_simple)
    for i in range(n):
        for j in range(i + 1, n):
            m = wd.bond_order(i, j)
            if m is None:
                continue
            a = ctx.unit()
            b = ctx.unit()
            for t in range(m):
                a = a.mul_gen_right(wd.affine_simple[i].name if t % 2 == 0 else wd.affine_simple[j].name)
                b = b.mul_gen_right(wd.affine_simple[j].name if t % 2 == 0 else wd.affine_simple[i].name)
            if a != b:
                ok = False
    out.append(CheckResult("braid-relations", "pass" if ok else "fail", "alternating generator products"))
    ok = True
    sample = [e for e in ball if wd.length(e) <= 3]
    for _ in range(min(triples, 200)):
        h = ctx.T(rng.choice(sample)) + ctx.T(rng.choice(sample)).scale(
            LaurentPoly.const(ctx.table, rng.randint(1, 4))
        )
        if ctx.bernstein_to_im(ctx.im_to_bernstein(h)) != h:
            ok = False
            break
    out.append(CheckResult("bernstein-roundtrip", "pass" if ok else "fail", "IM -> Bernstein -> IM identity"))
    ok = True
    m = wd.rank
    for _ in range(20):
        # small vectors: theta supports grow fast in antidominant directions
        x = tuple(rng.randint(-1, 1) for _ in range(m))
        y = tuple(rng.randint(-1, 1) for _ in range(m))
        tx, ty = ctx.theta_im(x), ctx.theta_im(y)
        if tx * ty != ty * tx or tx * ty != ctx.theta_im(tuple(a + b for a, b in zip(x, y))):
            ok = False
            break
    out.append(CheckResult("theta-laws", "pass" if ok else "fail", "commutativity and θ_x θ_y = θ_{x+y}"))
    return out


def suite_lengths(pc: PresetContext, radius: int = 8) -> list[CheckResult]:
    wd = pc.wd
    ball = wd.enumerate_ball(radius)
    bad = 0
    for e in ball:
        word = wd.word(e)
        if sum(1 for w in word if w in wd.sa_index) != wd.length(e):
            bad += 1
    out = [
        CheckResult(
            f"length-vs-bfs[radius={radius}]",
            "pass" if bad == 0 else "fail",
            f"{len(ball)} elements, {bad} mismatches",
        )
    ]
    ok = all(wd.length(e) == wd.length(wd.inv(e)) for e in ball)
    out.append(CheckResult("length-inverse", "pass" if ok else "fail", "l(e) = l(e^-1)"))
    ok = True
    for om in wd.omega_elements[1:]:
        for e in ball[: min(len(ball), 200)]:
            if wd.length(wd.conjugate(om, e)) != wd.length(e):
                ok = False
    out.append(CheckResult("length-omega-invariance", "pass" if ok else "fail", "l(ω e ω^-1) = l(e)"))
    return out


def suite_classes(pc: PresetContext, oracle_radius: int = 6) -> list[CheckResult]:
    from .conj import _finite_order_ball, _partition

    wd = pc.wd
    out = []
    counts = {
        "sl2": (3, 2),
        "pgl2": (3, 2),
        "c2-aff": (9, 5),
    }
    n_ell = sum(1 for r in pc.classes if r.elliptic)
    if pc.manifest.name in counts:
        want, want_ell = counts[pc.manifest.name]
        ok = len(pc.classes) == want and n_ell == want_ell
        out.append(
            CheckResult(
                "class-counts",
                "pass" if ok else "fail",
                f"{len(pc.classes)} Newton-zero classes, {n_ell} elliptic",
            )
        )
    # minimality certificate: no single conjugation strictly shortens a min rep
    ok = True
    for rec in pc.classes:
        for e in rec.min_reps:
            for s in wd.affine_simple:
                if wd.length(wd.conjugate(s.elt, e)) < rec.min_length:
                    ok = False
    out.append(CheckResult("minimality-certificate", "pass" if ok else "fail", "no move s e s shortens a minimal representative"))
    # oracle agreement on the radius-6 ball
    elems = _finite_order_ball(wd, oracle_radius)
    graph_parts = _partition(wd, elems)
    index = {e: i for i, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in wd.enumerate_ball(oracle_radius):
        for e in elems:
            h = wd.conjugate(g, e)
            j = index.get(h)
            if j is not None:
                ri, rj = find(index[e]), find(j)
                if ri != rj:
                    parent[ri] = rj
    oracle_parts = {}
    for e in elems:
        oracle_parts.setdefault(find(index[e]), set()).add(e)
    graph_sets = {frozenset(g) for g in graph_parts}
    oracle_sets = {frozenset(g) for g in oracle_parts.values()}
    out.append(
        CheckResult(
            f"oracle-agreement[radius={oracle_radius}]",
            "pass" if graph_sets == oracle_sets else "fail",
            f"{len(graph_sets)} graph classes vs {len(oracle_sets)} oracle classes",
        )
    )
    # Newton-zero classes closed under Omega-conjugation; elliptic flag class-constant
    ok = True
    for rec in pc.classes:
        for om in wd.omega_elements[1:]:
            if classify(wd, wd.conjugate(om, rec.rep), pc.classes).label != rec.label:
                ok = False
        for e in rec.min_reps:
            if wd.is_elliptic(e) != rec.elliptic:
                ok = False
    out.append(CheckResult("class-invariants", "pass" if ok else "fail", "Ω-closure and elliptic constancy"))
    return out


def run_suite(pc: PresetContext, suite: str) -> list[CheckResult]:
    """Dispatch a named verification suite (the CLI surface)."""
    table = None
    abar = None

    def need_table():
        nonlocal table
        if table is None:
            table = build_rigid_table(pc)
        return table

    def need_abar():
        nonlocal abar
        if abar is None:
            abar = abar_elements(pc)
        return abar

    if suite == "relations":
        return suite_relations(pc)
    if suite == "lengths":
        return suite_lengths(pc)
    if suite == "classes":
        return suite_classes(pc)
    if suite == "mackey":
        return suite_mackey(pc)
    if suite == "adjunction":
        return suite_adjunction(pc)
    if suite == "twist":
        return suite_twist(pc)
    if suite == "pairing":
        out = suite_pairing(pc, need_table())
        out += suite_elliptic_rank(pc, need_abar())
        out += suite_a_kills_induced(pc, need_abar())
        out += suite_a_squared(pc, need_abar())
        return out
    if suite == "density":
        return suite_density(pc, need_table())
    if suite == "counts":
        return suite_counts(pc)
    if suite == "all":
        out = []
        for s in ("relations", "lengths", "classes", "mackey", "adjunction",
                  "twist", "pairing", "density", "counts"):
            out += run_suite(pc, s)
        return out
    raise KeyError(f"unknown suite {suite!r}")


SUITES = ("relations", "lengths", "classes", "mackey", "adjunction", "twist",
          "pairing", "density", "counts", "all")
