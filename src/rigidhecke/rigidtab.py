"""Rigid character tables and the verification suites around them.

A rigid table has one row per Newton-zero conjugacy class (the element T_O)
and one column per module of the preset panel; entries are exact traces,
rendered in the squared parameters Q.  The three table presets pin the
row order, the column selection (by trace signature), and the determinant,
which is compared up to sign against the expanded product formula.

A preset context builds its module panel, its table and its Ā elements each
once, the first time a suite reads them, so the suites that build their own
modules (``mackey``, ``adjunction``, ``twist``) never pay for the panel.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .conj import ComputationFailed, classify, descend_to_minimal, newton_zero_classes
from .datumsuites import (
    CLASS_COUNTS,
    DATUM_SUITES,
    SUITES,
    CheckResult,
    _check,
    _first_failure,
    render_csv,
    render_markdown,
)
from .exactpoly import (
    LaurentPoly,
    NotDivisible,
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
    RelationFailed,
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
    """A preset's table layout and expectations; ``PresetManifest(name)``
    has no panel and expects nothing."""

    name: str
    orbit_assignment: Optional[dict] = None
    row_labels: tuple[str, ...] = ()
    row_words: tuple[tuple[str, ...], ...] = ()
    columns: tuple[ColumnSpec, ...] = ()
    det_product: Optional[Callable[[VarTable], LaurentPoly]] = None
    det_text: str = ""


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


class PresetContext:
    """Everything the table and suites need, built once per preset.

    ``rows`` holds the ConjClassRecord of each manifest row.  ``modules``,
    ``table`` and ``abar`` are each built the first time they are read; a
    panel given to the constructor, or built by the relations suite, is kept
    as ``modules``.
    """

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
        self.class_counts = CLASS_COUNTS.get(manifest.name)  # read by the datum suites
        if modules is not None:
            self.modules = modules

    @cached_property
    def modules(self) -> list:
        """The certified FinDimModule of each manifest column."""
        return panel_modules(self.ctx, self.manifest)

    @cached_property
    def table(self) -> RigidTable:
        return build_rigid_table(self)

    @cached_property
    def abar(self) -> dict:
        """bar-A applied to each class element T_O, by class label."""
        ctx = self.ctx
        return {rec.label: ctx.adjoint_A(ctx.T(rec.rep)) for rec in self.classes}


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
        return [[e.evaluate(resolved).constant_value() for e in row] for row in self.entries]

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
    entries = [[render_in_Q(mod.trace(rec.rep)) for mod in pc.modules] for rec in pc.rows]
    return RigidTable(man.name, man.row_labels, tuple(c.label for c in man.columns), entries, qtable)


def determinant_check(table: RigidTable, expected: LaurentPoly) -> CheckResult:
    """Compare det(table) with the expected product, up to sign.

    Row order only affects the determinant's sign, so the comparison accepts
    ±expected: it passes iff det/expected is the constant 1 or -1.
    """
    det = table.det()
    try:
        quo = det.exact_div(expected)
    except NotDivisible:
        return _check("determinant", False, f"det = {det.render()} does not divide by expected")
    try:
        ok = abs(quo.constant_value()) == 1
    except ValueError:
        ok = False
    return _check("determinant", ok, f"det/expected = {quo.render()}")


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

ADMISSIBLE_POINTS = (2, 3, 5)
# fixed sampling of the randomized suites, so reports are reproducible
RELATIONS_SEED = 99
RELATIONS_SAMPLES = 200  # random triples, and round trips, of the relations suite
ADJUNCTION_SEED = 20240
ADJUNCTION_SAMPLES = 6
DENSITY_SEED = 41
DENSITY_EXTRAS = 5


def _all_params(qt: VarTable, value) -> dict:
    return {n: Fraction(value) for n, k in zip(qt.names, qt.kinds) if k == "param"}


def _random_h(ctx: HeckeContext, rng: random.Random, elems: list, top: int):
    """T_a + k T_b with a, b drawn from elems and k from 1..top."""
    return ctx.T(rng.choice(elems)) + ctx.T(rng.choice(elems)).scale(
        LaurentPoly.const(ctx.table, rng.randint(1, top))
    )


def suite_twist(pc: PresetContext) -> list[CheckResult]:
    """Separation theorem: table entries are twist-free; a nonzero-Newton
    class shows twist dependence (negative control).  The control's class is
    the one t_{2ρ} descends to: 2ρ pairs to 2 with every simple coroot, so it
    is strictly dominant and the class has Newton point 2ρ, not 0."""
    man = pc.manifest
    wd = pc.wd
    ctx2 = HeckeContext(wd, orbit_assignment=man.orbit_assignment, n_twist=wd.rank)
    out = []
    plateau, _ = descend_to_minimal(wd, wd.translation(ctx2.two_rho))
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
        if any(mod.trace(nz_rep).uses_variable(z) for z in ctx2.twist_names):
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
            bad = (
                f"character identity fails at the probe θ_x T_w with x = {x}, "
                f"w = {''.join(wd.finite_word(w)) or '1'}"
                for (x, w), p in _probe_elements(ctx, K)
                if lhs_mod.trace_parabolic(p)
                != sum((piece.trace_parabolic(p) for piece in pieces), ctx.zero())
            )
            out.append(
                _first_failure(
                    f"mackey[K={list(K)},J={list(J)}]", bad, "character identity over the probe panel"
                )
            )
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
        draws = (_random_h(ctx, rng, ball, 3) for _ in range(ADJUNCTION_SAMPLES))
        bad = (
            f"tr(i_J σ, h) != tr(σ, r̄_J h) at h = {h.render()}"
            for h in draws
            if ind.trace(h) != sigma.trace_parabolic(ctx.bar_restrict(h, J))
        )
        passing = f"{ADJUNCTION_SAMPLES} random h of length <= 4"
        out.append(_first_failure(f"adjunction[J={list(J)}]", bad, passing))
    return out


def suite_pairing(pc: PresetContext) -> list[CheckResult]:
    table = pc.table
    det = table.det()
    expected = pc.manifest.det_product(table.qtable)
    chk = determinant_check(table, expected)
    nonzero = not det.is_zero()
    out = [
        _check("pairing-determinant", chk.ok, chk.detail),
        _check("pairing-det-nonzero", nonzero,
               f"determinant {'nonzero' if nonzero else 'zero'} as a polynomial"),
    ]
    for q in ADMISSIBLE_POINTS:
        vals = table.evaluate(_all_params(table.qtable, q))
        rank = rational_matrix_rank(vals)
        out.append(_check(f"pairing-nonsingular[q={q}]", rank == len(vals), f"rank {rank} of {len(vals)}"))
    # the product formula fixes det only up to sign (see determinant_check)
    val = det.evaluate(_all_params(table.qtable, -1))
    want = expected.evaluate(_all_params(table.qtable, -1))
    ok = val == want or val == -want
    if not ok:
        detail = f"determinant at q=-1 is {val.render()}, product formula gives ±{want.render()}"
    elif val.is_zero():
        detail = f"determinant at q=-1 is {val.render()} (singular, as the product formula predicts)"
    else:
        detail = f"determinant at q=-1 is {val.render()} (regular)"
    out.append(_check("pairing-at-q=-1", ok, detail))
    return out


def suite_elliptic_rank(pc: PresetContext) -> list[CheckResult]:
    """After projecting columns by A, elliptic rows span rank = #elliptic."""
    elliptic = [r for r in pc.classes if r.elliptic]
    rows = [[render_in_Q(mod.trace(pc.abar[rec.label])) for mod in pc.modules] for rec in elliptic]
    out = []
    for q in ADMISSIBLE_POINTS:
        assign = _all_params(pc.ctx.table.q_table(), q)
        numeric = [[e.evaluate(assign).constant_value() for e in row] for row in rows]
        rank = rational_matrix_rank(numeric) if numeric else 0
        out.append(
            _check(
                f"elliptic-rank[q={q}]",
                rank == len(elliptic),
                f"A-projected elliptic block rank {rank}, expected {len(elliptic)}",
            )
        )
    return out


def suite_a_kills_induced(pc: PresetContext) -> list[CheckResult]:
    out = []
    for spec, mod in zip(pc.manifest.columns, pc.modules):
        if spec.kind != "induced" or len(spec.J) == pc.wd.npi:
            continue
        bad = [
            rec.label
            for rec in pc.classes
            if not mod.trace(pc.abar[rec.label]).is_zero()
        ]
        out.append(
            _check(
                f"A-kills[{spec.label}]",
                not bad,
                f"nonzero at {bad}" if bad else "A(i_J σ) vanishes on every T_O",
            )
        )
    return out


def suite_a_squared(pc: PresetContext) -> list[CheckResult]:
    """A^2 = a A with the scalar a recovered, tested on the first
    one-dimensional or lifted (elliptic) column."""
    ctx = pc.ctx
    mod = next(
        m for spec, m in zip(pc.manifest.columns, pc.modules) if spec.kind in ("onedim", "lift")
    )
    f = {lab: mod.trace(h) for lab, h in pc.abar.items()}
    g = {lab: mod.trace(ctx.adjoint_A(h)) for lab, h in pc.abar.items()}
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


def suite_density(pc: PresetContext) -> list[CheckResult]:
    """Trace vectors of {T_O} on table panel + random-twist induced modules
    stay linearly independent at q = 2."""
    ctx = pc.ctx
    rng = random.Random(DENSITY_SEED)
    assign = _all_params(pc.table.qtable, 2)
    base = pc.table.evaluate(assign)
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


def suite_relations(pc: PresetContext) -> list[CheckResult]:
    """Module relation certificates plus algebra-level structural checks.
    Each column is built here, so a relation its constructor disproves fails."""
    ctx = pc.ctx
    wd = pc.wd
    rng = random.Random(RELATIONS_SEED)
    out = []
    mods = []
    for spec in pc.manifest.columns:
        name = f"module-relations[{spec.label}]"
        try:
            mods.append(resolve_column(ctx, spec))
        except (RelationFailed, TableMismatch) as exc:
            out.append(_check(name, False, str(exc)))
            continue
        out.append(_check(name, True, ",".join(mods[-1].verify_relations())))
    if "modules" not in vars(pc) and len(mods) == len(pc.manifest.columns):
        pc.modules = mods
    ball = wd.enumerate_ball(4)

    def associativity_failures():
        for _ in range(RELATIONS_SAMPLES):
            abc = [rng.choice(ball) for _ in range(3)]
            a, b, c = (ctx.T(e) for e in abc)
            if (a * b) * c != a * (b * c):
                yield f"(T_a T_b) T_c != T_a (T_b T_c) at (a, b, c) = ({', '.join(map(wd.label, abc))})"

    def braid_failures():
        for i, j in itertools.combinations(range(len(wd.affine_simple)), 2):
            m = wd.bond_order(i, j)
            if m is None:
                continue
            si, sj = wd.affine_simple[i].name, wd.affine_simple[j].name
            a = ctx.unit()
            b = ctx.unit()
            for t in range(m):
                a = a.mul_gen_right(si if t % 2 == 0 else sj)
                b = b.mul_gen_right(sj if t % 2 == 0 else si)
            if a != b:
                yield f"alternating products differ at ({si}, {sj}) with m = {m}"

    def theta_failures():
        for _ in range(20):
            # small vectors: theta supports grow fast in antidominant directions
            x = tuple(rng.randint(-1, 1) for _ in range(wd.rank))
            y = tuple(rng.randint(-1, 1) for _ in range(wd.rank))
            tx, ty = ctx.theta_im(x), ctx.theta_im(y)
            txy = tx * ty
            if txy != ty * tx or txy != ctx.theta_im(tuple(a + b for a, b in zip(x, y))):
                yield f"θ_x θ_y = θ_y θ_x = θ_{{x+y}} fails at (x, y) = {(x, y)}"

    out.append(
        _first_failure(
            "im-associativity", associativity_failures(), f"{RELATIONS_SAMPLES} random triples, radius 4"
        )
    )
    out.append(_first_failure("braid-relations", braid_failures(), "alternating generator products"))
    sample = [e for e in ball if wd.length(e) <= 3]
    draws = (_random_h(ctx, rng, sample, 4) for _ in range(RELATIONS_SAMPLES))
    bad = (
        f"IM -> Bernstein -> IM changes h = {h.render()}"
        for h in draws
        if ctx.bernstein_to_im(ctx.im_to_bernstein(h)) != h
    )
    out.append(_first_failure("bernstein-roundtrip", bad, "IM -> Bernstein -> IM identity"))
    out.append(_first_failure("theta-laws", theta_failures(), "commutativity and θ_x θ_y = θ_{x+y}"))
    return out


# the suites that read the module panel or build modules; "pairing" runs four
PANEL_SUITES: dict[str, tuple[Callable[[PresetContext], list[CheckResult]], ...]] = {
    "relations": (suite_relations,),
    "mackey": (suite_mackey,),
    "adjunction": (suite_adjunction,),
    "twist": (suite_twist,),
    "pairing": (suite_pairing, suite_elliptic_rank, suite_a_kills_induced, suite_a_squared),
    "density": (suite_density,),
}

# every suite but "all", in the order of SUITES
_SUITE_TABLE = {
    name: PANEL_SUITES[name] if name in PANEL_SUITES else (DATUM_SUITES[name],)
    for name in SUITES[:-1]
}


def run_suite(pc: PresetContext, suite: str) -> list[CheckResult]:
    """Run a named verification suite, or every suite in order for "all"
    (the CLI surface)."""
    if suite != "all" and suite not in _SUITE_TABLE:
        raise KeyError(f"unknown suite {suite!r}")
    names = _SUITE_TABLE if suite == "all" else (suite,)
    return [c for name in names for run in _SUITE_TABLE[name] for c in run(pc)]
