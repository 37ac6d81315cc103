"""Output checkers for the benchmark's jobs.

They use only the standard library and never import ``rigidhecke``: the
references are the committed golden tables (read, never written) and the pins
in ``data/pins.json``, captured from the program at the commit that added the
benchmark.  Every checker returns ``None`` when the output passes and a short
reason when it does not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

# What a checker raises on output it cannot read; the job then counts as failed.
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError)
_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


class Refs:
    """Reference data: golden files under ``tests/golden`` and the pins."""

    def __init__(self, root: Path):
        self.golden_dir = root / "tests" / "golden"
        self.pins = json.loads((root / "perfbench" / "data" / "pins.json").read_text())
        self._golden: dict[str, bytes] = {}

    def golden(self, preset: str, fmt: str) -> bytes:
        key = f"{preset}.{fmt}"
        if key not in self._golden:
            self._golden[key] = (self.golden_dir / key).read_bytes()
        return self._golden[key]

    def golden_entries(self, preset: str) -> list[list[str]]:
        return json.loads(self.golden(preset, "json"))["entries"]


def parse_poly(text: str) -> list[tuple[Fraction, dict[str, int]]]:
    """Parse a canonical polynomial string such as ``-2*Q0*Q1^2 + 1``."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SPLIT.split(text)
    terms = []
    for k in range(0, len(parts), 2):
        if k:
            sign = -1 if parts[k - 1] == "-" else 1
        coeff, *factors = parts[k].split("*")
        mono: dict[str, int] = {}
        for f in factors:
            m = _FACTOR.match(f)
            if not m:
                raise ValueError(f"bad monomial factor {f!r} in {text!r}")
            mono[m.group(1)] = mono.get(m.group(1), 0) + int(m.group(2) or 1)
        terms.append((sign * Fraction(coeff), mono))
    return terms


def evaluate_poly(text: str, values: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for c, mono in parse_poly(text):
        for name, exp in mono.items():
            c *= values[name] ** exp
        total += c
    return total


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


# -- per-command checkers ----------------------------------------------------------


def check_golden(out: bytes, refs: Refs, preset: str, fmt: str) -> Optional[str]:
    want = refs.golden(preset, fmt)
    if out == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
    return f"table differs from tests/golden/{preset}.{fmt} at byte {at}"


def check_spec(out: bytes, refs: Refs, preset: str, values: dict[str, str]) -> Optional[str]:
    vals = {k: Fraction(v) for k, v in values.items()}
    got = json.loads(out)["entries"]
    want = refs.golden_entries(preset)
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return "--spec table has the wrong shape"
    for i, (grow, wrow) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            expect = evaluate_poly(w, vals)
            if Fraction(g) != expect:
                return f"--spec entry ({i},{j}) is {g}, golden polynomial gives {expect}"
    return None


def check_verify(out: bytes, refs: Refs, datum: str, suite: str) -> Optional[str]:
    report = json.loads(out)
    if report.get("suite") != suite:
        return f"report is for suite {report.get('suite')!r}, not {suite!r}"
    checks = report.get("checks", [])
    failed = [c["name"] for c in checks if c.get("status") != "pass"]
    if failed:
        return f"checks not passing: {failed}"
    names = sorted(c["name"] for c in checks)
    want = sorted(refs.pins["verify"][f"{datum}/{suite}"])
    if names != want:
        return f"check names {sorted(set(names) ^ set(want))} differ from the pinned set"
    return None


def class_labels(out: bytes, fmt: str) -> list[str]:
    text = out.decode()
    if fmt == "json":
        return [r["label"] for r in json.loads(text)["classes"]]
    rows = text.splitlines()[2:]  # header and separator
    return [r.split("|")[1].strip() for r in rows]


def check_classes(out: bytes, refs: Refs, datum: str, fmt: str) -> Optional[str]:
    labels = class_labels(out, fmt)
    want = refs.pins["classes"][datum]
    if labels != want:
        return f"class labels {labels} differ from the pinned {want}"
    return None


def _split_top(text: str) -> list[str]:
    """Split ``a*T[x] + (b + c)*T[y]`` at the ``+`` signs outside brackets."""
    parts, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and text.startswith(" + ", i):
            parts.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def check_reduce(out: bytes) -> Optional[str]:
    """At Q = 1 the Hecke algebra is the group algebra: T_w is one class."""
    lines = out.decode().splitlines()
    if len(lines) != 2 or lines[1] != "trace-verification: ok":
        return f"reduce output does not end in 'trace-verification: ok': {lines[-1:]}"
    nonzero = []
    for part in _split_top(lines[0]):
        coeff, sep, label = part.rpartition("*T[")
        if not sep or not label.endswith("]"):
            return f"unreadable reduce term {part!r}"
        if coeff.startswith("(") and coeff.endswith(")"):
            coeff = coeff[1:-1]
        value = sum(c for c, _ in parse_poly(coeff))
        if value:
            nonzero.append((label[:-1], value))
    if len(nonzero) != 1 or nonzero[0][1] != 1:
        return f"at Q=1 the combination is {nonzero}, not a single class with coefficient 1"
    return None


def check_kind(kind, out: bytes, refs: Refs) -> Optional[str]:
    """Check a CLI job's output by the kind's check type (see workloads.Kind)."""
    try:
        return _check_kind(kind, out, refs)
    except _MALFORMED as exc:
        return f"unreadable output: {exc!r}"


def _check_kind(kind, out: bytes, refs: Refs) -> Optional[str]:
    x = kind.extra
    if kind.check == "golden":
        return check_golden(out, refs, kind.datum, x["format"])
    if kind.check == "spec":
        return check_spec(out, refs, kind.datum, x["values"])
    if kind.check == "verify":
        return check_verify(out, refs, kind.datum, x["suite"])
    if kind.check == "classes":
        return check_classes(out, refs, kind.datum, x["format"])
    if kind.check == "reduce":
        return check_reduce(out)
    raise KeyError(f"unknown check {kind.check!r}")


# -- micro-case checkers (traced runs) ---------------------------------------------


def check_micro(name: str, out: bytes, refs: Refs) -> Optional[str]:
    """Check a micro-case's report line (a JSON object) against the references."""
    try:
        return _check_micro(name, json.loads(out), refs)
    except _MALFORMED as exc:
        return f"unreadable micro-case report: {exc!r}"


def _check_micro(name: str, rep: dict, refs: Refs) -> Optional[str]:
    if name == "det":
        # det of the golden c2-aff table, evaluated at the point, over Q
        point = {k: Fraction(v) for k, v in rep["point"].items()}
        rows = [[evaluate_poly(e, point) for e in row] for row in refs.golden_entries("c2-aff")]
        want = fraction_det(rows)
        if Fraction(rep["value"]) != want:
            return f"det at {rep['point']} is {rep['value']}, golden table gives {want}"
        return None
    if name.startswith("length_ball."):
        pin = refs.pins["length_ball"][name.split(".", 1)[1]]
        if rep["mismatches"] or [rep["ball_size"], rep["length_sum"]] != pin:
            return f"length ball {rep} differs from the pin {pin}"
        return None
    if name == "roundtrip":
        if rep["failures"] or rep["samples"] < 1:
            return f"IM -> Bernstein -> IM round trip failed: {rep}"
        return None
    raise KeyError(f"unknown micro-case {name!r}")
