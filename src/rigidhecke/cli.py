"""Command-line interface: classes, table, verify, reduce.

Exit codes are a stable contract: 0 success, 1 verification or computation
failure, 2 usage/input error.  A command raises :class:`UsageError` where it
reads a bad input; ``main`` alone prints one ``error:`` line and picks the
code: 2 for a :class:`UsageError`, 1 for any other exception (a
``ComputationFailed`` or a defect).  Output is deterministic: identical
invocations produce byte-identical output.

At module level only the group layer and the datum suites are imported, so
``classes`` and the datum-level ``verify`` suites never load the coefficient
ring, the Hecke algebra or the module panels; ``table``, ``reduce`` and the
panel suites import ``rigidtab`` and ``hecke`` when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from .conj import newton_zero_classes
from .datumsuites import (
    CLASS_COUNTS,
    DATUM_SUITES,
    SUITES,
    datum_context,
    render_csv,
    render_markdown,
)
from .rootdata import PRESET_NAMES, InvalidDatum, load_datum, preset
from .weyl import WeylData

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A usage or input error: exit 2.  Raised ``from`` the input error it
    was caught as, it reports that error's message."""


def _emit(text: str, out_path) -> None:
    """Write to --out or stdout."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError from exc


def _probe_out(out_path) -> None:
    """Check that --out (if given) can be opened for writing, before any
    work; a file the probe creates is removed."""
    if not out_path:
        return
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        raise UsageError from exc
    if not existed:
        os.remove(out_path)


def _load_weyl(args) -> WeylData:
    """The group data of --preset/--datum; a datum that cannot be read, is
    malformed or is out of scope is an input error."""
    try:
        if args.preset:
            return WeylData(preset(args.preset))
        return WeylData(load_datum(args.datum))
    except (OSError, InvalidDatum) as exc:
        raise UsageError from exc


def cmd_classes(args) -> int:
    wd = _load_weyl(args)
    classes = newton_zero_classes(wd, args.max_length)
    records = [r.to_json(wd) for r in classes]
    if args.format == "json":
        text = json.dumps({"datum": wd.datum.name, "classes": records}, indent=2) + "\n"
    else:
        sep = " " if args.format == "csv" else ", "
        rows = [
            [r["label"], r["rep"], str(r["min_length"]), f"({sep.join(r['newton'])})",
             str(r["elliptic"]).lower()]
            for r in records
        ]
        render = render_csv if args.format == "csv" else render_markdown
        text = render(["label", "rep", "min_length", "newton", "elliptic"], rows)
    _emit(text, args.out)
    return EXIT_OK


def _parse_spec(spec: str) -> dict:
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, val = part.partition("=")
        try:
            out[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad --spec entry {part!r} (want name=rational)") from None
    return out


def cmd_table(args) -> int:
    from . import rigidtab

    if not args.preset:
        raise UsageError("table requires --preset (panel manifests are preset-bound)")
    if args.preset not in rigidtab.MANIFESTS:
        raise UsageError(f"no table manifest for preset {args.preset!r}")
    pc = rigidtab.build_preset_context(args.preset, L=args.max_length)
    table = rigidtab.build_rigid_table(pc)
    cells = None
    if args.spec:
        assignment = _parse_spec(args.spec)
        try:
            cells = [[str(v) for v in row] for row in table.evaluate(assignment)]
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            raise UsageError from exc
    if args.format == "json":
        data = table.to_json_dict(cells)
        if args.spec:
            spec = {k: str(v) for k, v in sorted(assignment.items())}
            data = {"name": data.pop("name"), "spec": spec, **data}
        text = json.dumps(data, indent=2) + "\n"
    elif args.format == "csv":
        text = table.to_csv(cells)
    else:
        text = table.to_markdown(cells)
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; have {SUITES}")
    if args.suite in DATUM_SUITES:
        wd = _load_weyl(args)
        pc = datum_context(wd, args.max_length, CLASS_COUNTS.get(args.preset))
        run = DATUM_SUITES[args.suite]
    else:
        from . import rigidtab

        if args.preset not in rigidtab.MANIFESTS:
            raise UsageError("this suite needs a preset module panel (use --preset)")
        pc = rigidtab.build_preset_context(args.preset, L=args.max_length)
        run = partial(rigidtab.run_suite, suite=args.suite)
    checks = run(pc)
    report = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ],
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if args.out:
        for c in checks:
            print(f"{c.status.upper():4} {c.name}: {c.detail}")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_FAIL


def cmd_reduce(args) -> int:
    from . import rigidtab
    from .hecke import HeckeContext

    wd = _load_weyl(args)
    letters = [w.strip() for w in args.word.split(",") if w.strip()]
    try:
        e = wd.evaluate_word(letters)
    except KeyError as exc:
        raise UsageError from exc
    ctx = HeckeContext(wd)
    classes = newton_zero_classes(wd, args.max_length)
    comb = ctx.cocenter_reduce(e, classes, extend=True)
    # trace verification against the preset module panel where available,
    # built over this unmerged context: the reduction is rendered in its
    # per-orbit parameter names
    status, code = "skipped (no preset module panel)", EXIT_OK
    manifest = rigidtab.MANIFESTS.get(args.preset)
    if manifest is not None:
        ok = True
        for mod in rigidtab.panel_modules(ctx, manifest):
            rhs = ctx.zero()
            for rec, c in comb.entries:
                rhs = rhs + c * mod.trace(rec.rep)
            if mod.trace(e) != rhs:
                ok = False
        status, code = ("ok", EXIT_OK) if ok else ("FAILED", EXIT_FAIL)
    _emit(f"{comb.render()}\ntrace-verification: {status}\n", args.out)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rigidhecke",
        description="Exact rigid-cocenter computations for affine Hecke algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--preset", choices=PRESET_NAMES, help="built-in root datum")
        g.add_argument("--datum", help="JSON root datum file")
        p.add_argument("--max-length", type=int, help="fail if a class has minimal length above this")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p_classes = sub.add_parser("classes", help="enumerate Newton-zero conjugacy classes")
    common(p_classes)
    p_classes.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_classes.set_defaults(fn=cmd_classes)

    p_table = sub.add_parser("table", help="build a rigid character table")
    common(p_table)
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_table.add_argument("--spec", help="evaluate at name=rational,... parameter values")
    p_table.set_defaults(fn=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", default="all", help=f"one of {SUITES}")
    p_verify.set_defaults(fn=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="reduce T_w to the T_O spanning set")
    common(p_reduce)
    p_reduce.add_argument("--word", required=True, help="comma-separated generators, e.g. s1,s0,s1")
    p_reduce.set_defaults(fn=cmd_reduce)

    args = parser.parse_args(argv)
    try:
        if args.max_length is not None and args.max_length < 0:
            raise UsageError(f"--max-length must be >= 0, got {args.max_length}")
        _probe_out(args.out)
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_OK
    except UsageError as exc:
        err, code = exc.__cause__ or exc, EXIT_USAGE
    except Exception as exc:  # a ComputationFailed, or a defect
        err, code = exc, EXIT_FAIL
    # str() of a KeyError is the repr of its argument, quotes and all
    text = err.args[0] if isinstance(err, KeyError) and err.args else err
    print(f"error: {text}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
