"""Rigid character tables and the verification suites around them.

A rigid table has one row per Newton-zero conjugacy class (the element T_O)
and one column per module of the preset panel; entries are exact traces,
rendered in the squared parameters Q.  The three table presets pin the
row order, the column selection (by trace signature), and the determinant,
which is compared up to sign against the expanded product formula.

A preset context builds its module panel the first time a suite reads it, so
the suites that build their own modules (``mackey``, ``adjunction``,
``twist``) never pay for the panel.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .conj import ComputationFailed, classify, newton_zero_classes
# DATUM_SUITES and SUITES are re-exported: callers of run_suite read them here
from .datumsuites import (
    CLASS_COUNTS,
    DATUM_SUITES,
    SUITES,
    CheckResult,
    _check,
    render_csv,
    render_markdown,
    suite_classes,
    suite_counts,
    suite_lengths,
)
from .exactpoly import (
    LaurentPoly,
    PolyMatrix,
    VarTable,
    det_bareiss,
    rational_matrix_rank,
    render_in_Q,
)
from .hecke import HeckeContext
from .intlinalg import signed_basis
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
from .weyl import WeylData, pi_subsets


class TableMismatch(ComputationFailed, AssertionError):
    pass


class ColumnSpec(NamedTuple):
    """Module descriptor, as in the CLI JSON interface (the default dicts
    are shared and never written)."""

    label: str
    kind: str  # "onedim" | "lift" | "induced"
    signature: dict = {}
    J: tuple[int, ...] = ()
    module: str = ""
    scalars: dict = {}


class PresetManifest(NamedTuple):
    """A preset's table layout and expectations; a datum without a preset
    gets ``PresetManifest(name)``, which has no panel and expects nothing."""

    name: str
    orbit_assignment: Optional[dict] = None
    row_labels: tuple[str, ...] = ()
    row_words: tuple[tuple[str, ...], ...] = ()
    columns: tuple[ColumnSpec, ...] = ()
    det_product: Optional[Callable[[VarTable], LaurentPoly]] = None
    det_text: str = ""
    class_counts: Optional[tuple[int, int]] = None  # (Newton-zero classes, elliptic ones)


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
        class_counts=CLASS_COUNTS["sl2"],
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
        class_counts=CLASS_COUNTS["pgl2"],
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
        class_counts=CLASS_COUNTS["c2-aff"],
    ),
}


class PresetContext:
    """Everything the table and suites need, built once per preset.

    ``rows`` holds the ConjClassRecord of each manifest row.  ``modules``, the
    certified FinDimModule of each manifest column, is built by
    :func:`panel_modules` the first time it is read, unless the constructor
    is given the panel.
    """

    __slots__ = ("manifest", "wd", "ctx", "classes", "rows", "_modules")

    def __init__(
        self,
        manifest: PresetManifest,
        wd: WeylData,
        ctx: HeckeContext,
        classes: list,
        rows: list,
        modules: Optional[list] = None,
    ):
        self.manifest = manifest
        self.wd = wd
        self.ctx = ctx
        self.classes = classes
        self.rows = rows
        self._modules = modules

    @property
    def modules(self) -> list:
        if self._modules is None:
            self._modules = panel_modules(self.ctx, self.manifest)
        return self._modules

    @property
    def class_counts(self) -> Optional[tuple[int, int]]:
        """The manifest's expected class counts, read by the datum suites."""
        return self.manifest.class_counts


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


def panel_modules(ctx: HeckeContext, man: PresetManifest) -> list[FinDimModule]:
    """The certified module of each manifest column, over ``ctx``."""
    return [resolve_column(ctx, spec) for spec in man.columns]


def datum_context(
    wd: WeylData, L: Optional[int] = None, manifest: Optional[PresetManifest] = None
) -> PresetContext:
    """A context without a module panel: every Newton-zero class is a row.
    A preset's ``manifest`` supplies the parameter merging and the expected
    class counts.  (The CLI runs the datum suites on the lighter
    ``datumsuites.datum_context``, which builds no algebra.)"""
    man = manifest if manifest is not None else PresetManifest(wd.datum.name)
    ctx = HeckeContext(wd, orbit_assignment=man.orbit_assignment)
    classes = newton_zero_classes(wd, L)
    return PresetContext(man, wd, ctx, classes, list(classes), [])


def build_preset_context(name: str, L: Optional[int] = None) -> PresetContext:
    """The context of a preset with the manifest's rows; its panel is built
    when first read."""
    man = MANIFESTS[name]
    wd = WeylData(datum_preset(name))
    ctx = HeckeContext(wd, orbit_assignment=man.orbit_assignment)
    classes = newton_zero_classes(wd, L)
    rows = [classify(wd, wd.evaluate_word(word), classes) for word in man.row_words]
    if len({r.label for r in rows}) != len(man.row_labels) or len(rows) != len(classes):
        raise TableMismatch("manifest rows do not enumerate the Newton-zero classes")
    return PresetContext(man, wd, ctx, classes, rows)


class RigidTable:
    """Exact rigid character table, entries in the Q-variables."""

    __slots__ = ("name", "row_labels", "col_labels", "entries", "qtable", "_det")

    def __init__(
        self,
        name: str,
        row_labels: tuple[str, ...],
        col_labels: tuple[str, ...],
        entries: list,  # rows of LaurentPoly over the Q-table
        qtable: VarTable,
    ):
        self.name = name
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.entries = entries
        self.qtable = qtable
        self._det: Optional[LaurentPoly] = None

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

    def _labelled(self, cells: Optional[list]) -> tuple[list, list]:
        head = [self.name] + list(self.col_labels)
        return head, [[lab] + row for lab, row in zip(self.row_labels, self._cells(cells))]

    def to_markdown(self, cells: Optional[list] = None) -> str:
        return render_markdown(*self._labelled(cells))

    def to_csv(self, cells: Optional[list] = None) -> str:
        return render_csv(*self._labelled(cells))

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
    return RigidTable(man.name, man.row_labels, tuple(c.label for c in man.columns), entries, qtable)


def determinant_check(table: RigidTable, expected: LaurentPoly) -> CheckResult:
    """Compare det(table) with the expected product, up to sign.

    Row order only affects the determinant's sign, so the comparison accepts
    ±expected: it passes iff det/expected is the constant 1 or -1.
    """
    det = table.det()
    try:
        quo = det.exact_div(expected)
    except Exception:
        return _check("determinant", False, f"det = {det.render()} does not divide by expected")
    try:
        ok = abs(quo.constant_value()) == 1
    except ValueError:
        ok = False
    return _check("determinant", ok, f"det/expected = {quo.render()}")


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
        return _check("specialization-ext-c2", False, f"quotient not constant: {exc}")
    return _check("specialization-ext-c2", c != 0, f"constant c = {c}")


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

ADMISSIBLE_POINTS = (2, 3, 5)
# fixed sampling of the randomized suites, so reports are reproducible
RELATIONS_SEED = 99
ADJUNCTION_SEED = 20240
ADJUNCTION_SAMPLES = 6
DENSITY_SEED = 41
DENSITY_EXTRAS = 5


def _all_params(table_or_qt, value) -> dict:
    qt = table_or_qt.qtable if isinstance(table_or_qt, RigidTable) else table_or_qt
    return {n: Fraction(value) for n, k in zip(qt.names, qt.kinds) if k == "param"}


def _random_h(ctx: HeckeContext, rng: random.Random, elems: list, top: int):
    """T_a + k T_b with a, b drawn from elems and k from 1..top."""
    return ctx.T(rng.choice(elems)) + ctx.T(rng.choice(elems)).scale(
        LaurentPoly.const(ctx.table, rng.randint(1, top))
    )


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
            _check(
                f"twist-free[{spec.label}]",
                not leaked,
                f"twist variables leaked into rows {leaked}" if leaked else
                f"all {len(pc.rows)} entries free of {ctx2.twist_names}",
            )
        )
        if t.rank and any(
            mod.trace(nz_rep).uses_variable(z) for z in ctx2.twist_names
        ):
            negative_control = True
    out.append(
        _check(
            "twist-negative-control",
            negative_control,
            f"nonzero-Newton class [{wd.label(nz_rep)}] twist-dependent: {negative_control}",
        )
    )
    return out


def _probe_elements(ctx: HeckeContext, K: tuple[int, ...]):
    """The probes θ_x T_w (x in {0, ±e_i}, w in W_K) as ((x, w), element)."""
    par = ctx.parabolic(K)
    m = ctx.wd.rank
    xs = [(0,) * m] + [x for pair in signed_basis(m) for x in pair]
    return [((x, w), par.elt({(x, w): ctx.one()})) for x in xs for w in par.members]


def _sigma_for(ctx: HeckeContext, J: tuple[int, ...]) -> FinDimModule:
    qa = ctx.quotient_algebra(J)
    return inflate_chi_t(qa, one_dim_modules(qa.ctx)[0])


def suite_mackey(pc: PresetContext) -> list[CheckResult]:
    """r_K ∘ i_J = Σ_w i^K_{K_w} ∘ w ∘ r_{J_w} at the character level."""
    ctx = pc.ctx
    wd = pc.wd
    out = []
    subsets = pi_subsets(wd.npi)
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
            for key, p in _probe_elements(ctx, K):
                lhs = lhs_mod.trace_parabolic(p)
                rhs = ctx.zero()
                for piece in pieces:
                    rhs = rhs + piece.trace_parabolic(p)
                if lhs != rhs:
                    bad = key
                    break
            if bad is None:
                detail = "character identity over the probe panel"
            else:
                x, w = bad
                word = "".join(wd.finite_word(w)) or "1"
                detail = f"character identity fails at the probe θ_x T_w with x = {x}, w = {word}"
            out.append(_check(f"mackey[K={list(K)},J={list(J)}]", bad is None, detail))
    return out


def suite_adjunction(pc: PresetContext) -> list[CheckResult]:
    """tr(σ, r̄_J(h)) = tr(i_J(σ), h) for random h of length <= 4."""
    ctx = pc.ctx
    rng = random.Random(ADJUNCTION_SEED)
    ball = pc.wd.enumerate_ball(4)
    out = []
    for J in pi_subsets(pc.wd.npi):
        sigma = _sigma_for(ctx, J)
        ind = induce(ctx, J, sigma)
        bad = None
        for _ in range(ADJUNCTION_SAMPLES):
            h = _random_h(ctx, rng, ball, 3)
            if ind.trace(h) != sigma.trace_parabolic(ctx.bar_restrict(h, J)):
                bad = h
                break
        out.append(
            _check(
                f"adjunction[J={list(J)}]",
                bad is None,
                f"{ADJUNCTION_SAMPLES} random h of length <= 4" if bad is None else
                f"tr(i_J σ, h) != tr(σ, r̄_J h) at h = {bad.render()}",
            )
        )
    return out


def abar_elements(pc: PresetContext) -> dict:
    """bar-A applied to each class element T_O (cached per preset context)."""
    ctx = pc.ctx
    return {rec.label: ctx.adjoint_A(ctx.T(rec.rep)) for rec in pc.classes}


def suite_pairing(pc: PresetContext, table: RigidTable) -> list[CheckResult]:
    det = table.det()
    expected = pc.manifest.det_product(table.qtable)
    chk = determinant_check(table, expected)
    out = [
        _check("pairing-determinant", chk.ok, chk.detail),
        _check("pairing-det-nonzero", not det.is_zero(), "determinant nonzero as a polynomial"),
    ]
    for q in ADMISSIBLE_POINTS:
        vals = table.evaluate(_all_params(table, q))
        rank = rational_matrix_rank(vals)
        out.append(_check(f"pairing-nonsingular[q={q}]", rank == len(vals), f"rank {rank} of {len(vals)}"))
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
    out.append(_check("pairing-at-q=-1", ok, detail))
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
            _check(
                f"elliptic-rank[q={q}]",
                rank == len(elliptic),
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
            _check(
                f"A-kills[{spec.label}]",
                not bad,
                f"nonzero at {bad}" if bad else "A(i_J σ) vanishes on every T_O",
            )
        )
    return out


def suite_a_squared(pc: PresetContext, abar: dict) -> list[CheckResult]:
    """A^2 = a A with the scalar a recovered, tested on the first
    one-dimensional or lifted (elliptic) column."""
    ctx = pc.ctx
    mod = next(
        m for spec, m in zip(pc.manifest.columns, pc.modules) if spec.kind in ("onedim", "lift")
    )
    f = {lab: mod.trace(h) for lab, h in abar.items()}
    g = {lab: mod.trace(ctx.adjoint_A(h)) for lab, h in abar.items()}
    a_val = None
    for lab in f:
        if not f[lab].is_zero():
            a_val = g[lab].exact_div(f[lab])
            break
    if a_val is None:
        return [_check("A-squared", False, "A vanished on the elliptic column")]
    try:
        const = a_val.constant_value()
    except ValueError:
        return [_check("A-squared", False, f"ratio {a_val.render()} not constant")]
    ok = const != 0 and all(g[lab] == f[lab] * a_val for lab in f)
    return [_check("A-squared", ok, f"A^2 = a A with a = {const}")]


def suite_density(pc: PresetContext, table: RigidTable) -> list[CheckResult]:
    """Trace vectors of {T_O} on table panel + random-twist induced modules
    stay linearly independent at q = 2."""
    ctx = pc.ctx
    rng = random.Random(DENSITY_SEED)
    assign = _all_params(table, 2)
    base = table.evaluate(assign)
    columns = [[base[i][j] for i in range(len(pc.rows))] for j in range(len(pc.modules))]
    proper = pi_subsets(pc.wd.npi)[:-1]
    for k in range(DENSITY_EXTRAS):
        J = proper[k % len(proper)]
        qa = ctx.quotient_algebra(J)
        mods = one_dim_modules(qa.ctx)
        sigma = mods[rng.randrange(len(mods))]
        t_rank = TwistChar(qa).rank
        t = TwistChar(qa, values=[Fraction(rng.randint(2, 9)) for _ in range(t_rank)])
        mod = induce(ctx, J, inflate_chi_t(qa, sigma, t))
        columns.append(
            [render_in_Q(mod.trace(rec.rep)).evaluate(assign).constant_value() for rec in pc.rows]
        )
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(pc.rows))]
    rank = rational_matrix_rank(matrix)
    return [
        _check(
            "density-spot-check",
            rank == len(pc.rows),
            f"rank {rank} of {len(pc.rows)} on {len(columns)} columns at q=2",
        )
    ]


def suite_relations(pc: PresetContext, triples: int = 200) -> list[CheckResult]:
    """Module relation certificates plus algebra-level structural checks."""
    ctx = pc.ctx
    wd = pc.wd
    rng = random.Random(RELATIONS_SEED)
    out = []
    for spec, mod in zip(pc.manifest.columns, pc.modules):
        name = f"module-relations[{spec.label}]"
        try:
            out.append(_check(name, True, ",".join(mod.verify_relations())))
        except Exception as exc:
            out.append(_check(name, False, str(exc)))
    ball = wd.enumerate_ball(4)
    bad = None
    for _ in range(triples):
        abc = [rng.choice(ball) for _ in range(3)]
        a, b, c = (ctx.T(e) for e in abc)
        if (a * b) * c != a * (b * c):
            bad = abc
            break
    out.append(
        _check(
            "im-associativity",
            bad is None,
            f"{triples} random triples, radius 4" if bad is None else
            f"(T_a T_b) T_c != T_a (T_b T_c) at (a, b, c) = ({', '.join(map(wd.label, bad))})",
        )
    )
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
    out.append(_check("braid-relations", ok, "alternating generator products"))
    sample = [e for e in ball if wd.length(e) <= 3]
    bad = None
    for _ in range(min(triples, 200)):
        h = _random_h(ctx, rng, sample, 4)
        if ctx.bernstein_to_im(ctx.im_to_bernstein(h)) != h:
            bad = h
            break
    out.append(
        _check(
            "bernstein-roundtrip",
            bad is None,
            "IM -> Bernstein -> IM identity" if bad is None else
            f"IM -> Bernstein -> IM changes h = {bad.render()}",
        )
    )
    bad = None
    m = wd.rank
    for _ in range(20):
        # small vectors: theta supports grow fast in antidominant directions
        x = tuple(rng.randint(-1, 1) for _ in range(m))
        y = tuple(rng.randint(-1, 1) for _ in range(m))
        tx, ty = ctx.theta_im(x), ctx.theta_im(y)
        txy = tx * ty
        if txy != ty * tx or txy != ctx.theta_im(tuple(a + b for a, b in zip(x, y))):
            bad = (x, y)
            break
    out.append(
        _check(
            "theta-laws",
            bad is None,
            "commutativity and θ_x θ_y = θ_{x+y}" if bad is None else
            f"θ_x θ_y = θ_y θ_x = θ_{{x+y}} fails at (x, y) = {bad}",
        )
    )
    return out


class _SuiteInputs:
    """The table and bar-A elements of one context, each built at most once
    and shared by the suites of one ``run_suite`` call."""

    def __init__(self, pc: PresetContext):
        self.pc = pc

    @cached_property
    def table(self) -> RigidTable:
        return build_rigid_table(self.pc)

    @cached_property
    def abar(self) -> dict:
        return abar_elements(self.pc)


_SUITE_TABLE: dict[str, Callable[[_SuiteInputs], list[CheckResult]]] = {
    "relations": lambda s: suite_relations(s.pc),
    "lengths": lambda s: suite_lengths(s.pc),
    "classes": lambda s: suite_classes(s.pc),
    "mackey": lambda s: suite_mackey(s.pc),
    "adjunction": lambda s: suite_adjunction(s.pc),
    "twist": lambda s: suite_twist(s.pc),
    "pairing": lambda s: suite_pairing(s.pc, s.table)
    + suite_elliptic_rank(s.pc, s.abar)
    + suite_a_kills_induced(s.pc, s.abar)
    + suite_a_squared(s.pc, s.abar),
    "density": lambda s: suite_density(s.pc, s.table),
    "counts": lambda s: suite_counts(s.pc),
}


def run_suite(pc: PresetContext, suite: str) -> list[CheckResult]:
    """Run a named verification suite, or every suite in order for "all"
    (the CLI surface)."""
    if suite != "all" and suite not in _SUITE_TABLE:
        raise KeyError(f"unknown suite {suite!r}")
    inputs = _SuiteInputs(pc)
    names = _SUITE_TABLE if suite == "all" else (suite,)
    return [c for name in names for c in _SUITE_TABLE[name](inputs)]
