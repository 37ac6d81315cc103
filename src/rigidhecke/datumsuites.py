"""The verification suites that read only the group data of a datum.

``lengths``, ``classes`` and ``counts`` check the length function, the
Newton-zero classes and the count identity of the source paper's rigid
cocenter; none of them reads the Hecke algebra or a module panel.  This module
imports only the group layer (``rootdata``, ``weyl``, ``conj``), so a datum
command loads no coefficient ring, algebra or panel code.

A suite reads ``wd``, ``classes`` and ``class_counts`` of its context: a
:class:`DatumContext`, or a preset's ``rigidtab.PresetContext``, which has the
same three attributes.

A check that looks for a counterexample is written as a lazy iterable of
failure details given to :func:`_first_failure`, here and in ``rigidtab``: it
passes with a fixed detail, or fails naming the first witness, and computes
nothing past it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from . import conj
from .conj import ConjClassRecord, classify, key_partition, newton_zero_classes, oracle_partition
from .weyl import WeylData

LENGTH_RADIUS = 8
ORACLE_RADIUS = 6

# (Newton-zero classes, elliptic ones) of each table preset
CLASS_COUNTS = {"sl2": (3, 2), "pgl2": (3, 2), "c2-aff": (9, 5)}


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", detail)


def render_markdown(head: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A markdown table: header row, separator, then one line per row."""
    lines = ["| " + " | ".join(head) + " |", "|" + "|".join(["---"] * len(head)) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_csv(head: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Comma-separated lines, header first (cells are never quoted)."""
    return "\n".join(",".join(row) for row in [head, *rows]) + "\n"


class DatumContext(NamedTuple):
    """What the datum suites read: the group data, its Newton-zero classes
    and, for a table preset, the expected class counts."""

    wd: WeylData
    classes: list[ConjClassRecord]
    class_counts: Optional[tuple[int, int]]


def datum_context(
    wd: WeylData, L: Optional[int] = None, class_counts: Optional[tuple[int, int]] = None
) -> DatumContext:
    """The context of the datum suites; the classes are enumerated here."""
    return DatumContext(wd, newton_zero_classes(wd, L), class_counts)


def _first_failure(name: str, failures: Iterable[str], passing: str) -> CheckResult:
    """A check that passes with the passing detail, or fails naming the first
    of the failures; a lazy ``failures`` computes nothing past that one."""
    first = next(iter(failures), None)
    return _check(name, first is None, passing if first is None else first)


def suite_lengths(pc: DatumContext) -> list[CheckResult]:
    wd = pc.wd
    ball = wd.enumerate_ball(LENGTH_RADIUS)
    bad_bfs = (
        f"BFS word length {n} != l(e) = {wd.length(e)} at e = {wd.render(e)}"
        for e in ball
        if (n := sum(1 for w in wd.word(e) if w in wd.sa_index)) != wd.length(e)
    )
    bad_inverse = (
        f"l(e) != l(e^-1) at e = {wd.render(e)}"
        for e in ball
        if wd.length(e) != wd.length(wd.inv(e))
    )
    bad_omega = (
        f"l(ω e ω^-1) != l(e) at ω = {name}, e = {wd.render(e)}"
        for name, om in zip(wd.omega_names, wd.omega_elements[1:])
        for e in ball[:200]
        if wd.length(wd.conjugate(om, e)) != wd.length(e)
    )
    return [
        _first_failure(
            f"length-vs-bfs[radius={LENGTH_RADIUS}]", bad_bfs, f"{len(ball)} elements, 0 mismatches"
        ),
        _first_failure("length-inverse", bad_inverse, "l(e) = l(e^-1)"),
        _first_failure("length-omega-invariance", bad_omega, "l(ω e ω^-1) = l(e)"),
    ]


def suite_classes(pc: DatumContext) -> list[CheckResult]:
    wd = pc.wd
    out = []
    n_ell = sum(1 for r in pc.classes if r.elliptic)
    if pc.class_counts is not None:
        want, want_ell = pc.class_counts
        out.append(
            _check(
                "class-counts",
                len(pc.classes) == want and n_ell == want_ell,
                f"{len(pc.classes)} Newton-zero classes, {n_ell} elliptic",
            )
        )
    # minimality certificate: no single conjugation strictly shortens a min rep
    bad = (
        f"the move s e s with s = {s.name} shortens e = {wd.render(e)} of class [{rec.label}]"
        for rec in pc.classes
        for e in rec.min_reps
        for s in wd.affine_simple
        if wd.length(wd.conjugate(s.elt, e)) < rec.min_length
    )
    out.append(
        _first_failure("minimality-certificate", bad, "no move s e s shortens a minimal representative")
    )
    # oracle agreement on the radius-6 ball
    elems = [e for e in wd.enumerate_ball(ORACLE_RADIUS) if wd.has_finite_order(e)]
    key_sets = {frozenset(g) for g in key_partition(wd, elems)}
    oracle_sets = {frozenset(g) for g in oracle_partition(wd, elems, ORACLE_RADIUS)}
    split = set().union(*(key_sets ^ oracle_sets))  # the elements whose two classes differ
    bad = (
        f"the key class and the oracle class of e = {wd.render(e)} differ" for e in elems if e in split
    )
    out.append(
        _first_failure(
            f"oracle-agreement[radius={ORACLE_RADIUS}]",
            bad,
            f"{len(key_sets)} key classes vs {len(oracle_sets)} oracle classes",
        )
    )
    # Newton-zero classes closed under Omega-conjugation; elliptic flag class-constant
    def invariant_failures():
        for rec in pc.classes:
            for name, om in zip(wd.omega_names, wd.omega_elements[1:]):
                moved = classify(wd, wd.conjugate(om, rec.rep), pc.classes).label
                if moved != rec.label:
                    yield f"conjugation by {name} moves class [{rec.label}] to [{moved}]"
            for e in rec.min_reps:
                if wd.is_elliptic(e) != rec.elliptic:
                    yield f"the elliptic flag of class [{rec.label}] differs at e = {wd.render(e)}"

    out.append(_first_failure("class-invariants", invariant_failures(), "Ω-closure and elliptic constancy"))
    return out


def suite_counts(pc: DatumContext) -> list[CheckResult]:
    rep = conj.count_identity_check(pc.wd, classes=pc.classes)
    return [
        _check(
            "count-identity",
            rep.ok,
            f"sum_J |elliptic/N_J| = {rep.total}, |cl(W~)_0| = {rep.expected}; "
            + ", ".join(f"J={list(J)}:{n}" for J, n in rep.per_J),
        )
    ]


# the suites that read only the group data, never the module panel
DATUM_SUITES = {"lengths": suite_lengths, "classes": suite_classes, "counts": suite_counts}

# every suite name the CLI accepts, in the order "all" runs them
SUITES = (
    "relations", "lengths", "classes", "mackey", "adjunction", "twist", "pairing", "density",
    "counts", "all",
)
