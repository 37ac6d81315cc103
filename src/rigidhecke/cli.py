"""Command-line interface: classes, table, verify, reduce.

Exit codes are a stable contract: 0 success, 1 verification or computation
failure, 2 usage/input error.  Output is deterministic: identical
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
from typing import Optional

from .conj import ComputationFailed, newton_zero_classes
from .datumsuites import (
    CLASS_COUNTS,
    DATUM_SUITES,
    SUITES,
    datum_context,
    render_csv,
    render_markdown,
)
from .rootdata import (
    PRESET_NAMES,
    DatumFormatError,
    InfiniteWeylGroup,
    NotCartan,
    NotReduced,
    load_datum,
    preset,
)
from .weyl import OmegaSearchExhausted, WeylData

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(text: str, out_path) -> int:
    """Write to --out or stdout; EXIT_USAGE after an error on stderr if --out fails."""
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _out_writable(out_path) -> bool:
    """Whether --out (if given) can be opened for writing, an error on stderr
    if not.  Tested before any work; a file the probe creates is removed."""
    if not out_path:
        return True
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    if not existed:
        os.remove(out_path)
    return True


# input errors of a root datum: unreadable, malformed or out of scope
_DATUM_ERRORS = (OSError, DatumFormatError, KeyError, NotCartan, InfiniteWeylGroup, NotReduced,
                 OmegaSearchExhausted)


def _load_weyl(args) -> Optional[WeylData]:
    """The group data of --preset/--datum, or None after an error on stderr."""
    try:
        if args.preset:
            return WeylData(preset(args.preset))
        return WeylData(load_datum(args.datum))
    except _DATUM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_classes(args) -> int:
    wd = _load_weyl(args)
    if wd is None:
        return EXIT_USAGE
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
    return _emit(text, args.out)


def _parse_spec(spec: str) -> dict:
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, val = part.partition("=")
        if not val:
            raise ValueError(f"bad --spec entry {part!r} (want name=rational)")
        out[name.strip()] = Fraction(val.strip())
    return out


def cmd_table(args) -> int:
    from . import rigidtab

    if not args.preset:
        print("error: table requires --preset (panel manifests are preset-bound)", file=sys.stderr)
        return EXIT_USAGE
    if args.preset not in rigidtab.MANIFESTS:
        print(f"error: no table manifest for preset {args.preset!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        pc = rigidtab.build_preset_context(args.preset, L=args.max_length)
        table = rigidtab.build_rigid_table(pc)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    cells = None
    if args.spec:
        try:
            assignment = _parse_spec(args.spec)
            cells = [[str(v) for v in row] for row in table.evaluate(assignment)]
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
    return _emit(text, args.out)


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; have {SUITES}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite in DATUM_SUITES:
        wd = _load_weyl(args)
        if wd is None:
            return EXIT_USAGE
        pc = datum_context(wd, args.max_length, CLASS_COUNTS.get(args.preset))
        run = DATUM_SUITES[args.suite]
    else:
        from . import rigidtab

        if args.preset not in rigidtab.MANIFESTS:
            print(
                "error: this suite needs a preset module panel (use --preset)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        pc = rigidtab.build_preset_context(args.preset, L=args.max_length)
        run = partial(rigidtab.run_suite, suite=args.suite)
    try:
        checks = run(pc)
    except ComputationFailed:
        raise  # main reports it, as it does for a panel that fails to build
    except Exception as exc:
        print(f"error: suite {args.suite} crashed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ],
    }
    text = json.dumps(report, indent=2) + "\n"
    if _emit(text, args.out) != EXIT_OK:
        return EXIT_USAGE
    if args.out:
        for c in checks:
            print(f"{c.status.upper():4} {c.name}: {c.detail}")
    ok = all(c.ok for c in checks)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_reduce(args) -> int:
    from . import rigidtab
    from .hecke import HeckeContext

    wd = _load_weyl(args)
    if wd is None:
        return EXIT_USAGE
    letters = [w.strip() for w in args.word.split(",") if w.strip()]
    try:
        e = wd.evaluate_word(letters)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = HeckeContext(wd)
    classes = newton_zero_classes(wd, args.max_length)
    comb = ctx.cocenter_reduce(e, classes, extend=True)
    # trace verification against the preset module panel where available,
    # built over this unmerged context: the reduction is rendered in its
    # per-orbit parameter names
    status = "skipped (no preset module panel)"
    code = EXIT_OK
    manifest = rigidtab.MANIFESTS.get(args.preset)
    if manifest is not None:
        ok = True
        for mod in rigidtab.panel_modules(ctx, manifest):
            rhs = ctx.zero()
            for rec, c in comb.entries:
                rhs = rhs + c * mod.trace(rec.rep)
            if mod.trace(e) != rhs:
                ok = False
        status = "ok" if ok else "FAILED"
        if not ok:
            code = EXIT_FAIL
    return _emit(f"{comb.render()}\ntrace-verification: {status}\n", args.out) or code


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
    if args.max_length is not None and args.max_length < 0:
        print(f"error: --max-length must be >= 0, got {args.max_length}", file=sys.stderr)
        return EXIT_USAGE
    if not _out_writable(args.out):
        return EXIT_USAGE
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_OK
    except ComputationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
