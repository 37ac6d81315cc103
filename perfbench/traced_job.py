"""One traced job: repeat a CLI command's steps with a span around each layer call.

Run by ``run.py --trace 1`` in a fresh interpreter with ``PYTHONPATH=src``::

    python3 perfbench/traced_job.py --launch T --job N --trace FILE --kind JSON

``--kind`` is either a CLI kind (``{"argv": [...]}``) or a micro-case
(``{"micro": "det" | "roundtrip" | "length_ball.<datum>", "seed": n}``).  The
job prints what the CLI would print (or a micro-case's JSON report) and
appends its spans to FILE.  The steps mirror ``rigidhecke.cli`` and
``rigidtab.build_preset_context`` call by call through the public functions of
each layer module; two calls made inside the library are spanned by wrapping
the module attribute they go through (``weyl.validate_datum`` and
``conj.count_identity_check``).
"""

import time

T_START = time.monotonic()

import rigidhecke  # noqa: E402,F401
import rigidhecke.cli  # noqa: E402,F401
from rigidhecke import conj, exactpoly, hecke, rigidtab, weyl  # noqa: E402
from rigidhecke import rootdata as rd  # noqa: E402

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from functools import partial  # noqa: E402

from spans import Recorder  # noqa: E402
from workloads import SUITES  # noqa: E402

class Steps:
    """The layer calls of each command, each under its own span."""

    def __init__(self, rec: Recorder):
        self.rec = rec

    # -- shared pieces -------------------------------------------------------------

    def load(self, preset=None, datum=None):
        with self.rec.span("rootdata.load", "rootdata"):
            return rd.preset(preset) if preset else rd.load_datum(datum)

    def weyl(self, datum):
        with self.rec.span("weyl.init", "weyl"):
            return weyl.WeylData(datum)

    def classes(self, wd):
        with self.rec.span("conj.classes", "conj") as s:
            out = conj.newton_zero_classes(wd, 8)
            s["counts"] = {"conj.classes_found": len(out)}
        return out

    def preset_context(self, name):
        """``rigidtab.build_preset_context(name)``, one span per layer call."""
        man = rigidtab.MANIFESTS[name]
        wd = self.weyl(self.load(preset=name))
        with self.rec.span("hecke.context", "hecke"):
            ctx = hecke.HeckeContext(wd, orbit_assignment=man.orbit_assignment, n_twist=0)
        classes = self.classes(wd)
        with self.rec.span("conj.classify", "conj"):
            rows = [conj.classify(wd, wd.evaluate_word(w), classes) for w in man.row_words]
        if len({r.label for r in rows}) != len(man.row_labels) or len(rows) != len(classes):
            raise rigidtab.TableMismatch("manifest rows do not enumerate the Newton-zero classes")
        with self.rec.span("repn.panel", "repn") as s:
            modules = [rigidtab.resolve_column(ctx, spec) for spec in man.columns]
            s["counts"] = {"repn.modules_built": len(modules)}
        return rigidtab.PresetContext(man, wd, ctx, classes, rows, modules)

    def bare_context(self, a):
        """The panel-less context ``cli.cmd_verify`` builds for datum-only suites."""
        wd = self.weyl(self.load(a.preset, a.datum))
        man = rigidtab.PresetManifest(wd.datum.name, None, (), (), (), lambda qt: None, "")
        classes = self.classes(wd)
        with self.rec.span("hecke.context", "hecke"):
            ctx = hecke.HeckeContext(wd)
        return rigidtab.PresetContext(man, wd, ctx, classes, list(classes), [])

    @staticmethod
    def emit(text):
        sys.stdout.write(text)
        sys.stdout.flush()

    # -- commands --------------------------------------------------------------------

    def cmd_classes(self, a):
        wd = self.weyl(self.load(a.preset, a.datum))
        classes = self.classes(wd)
        with self.rec.span("cli.render", "cli"):
            records = [r.to_json(wd) for r in classes]
            if a.format == "json":
                text = json.dumps({"datum": wd.datum.name, "classes": records}, indent=2) + "\n"
            elif a.format == "md":
                lines = ["| label | rep | min_length | newton | elliptic |", "|---|---|---|---|---|"]
                for r in records:
                    lines.append(
                        f"| {r['label']} | {r['rep']} | {r['min_length']} | "
                        f"({', '.join(r['newton'])}) | {str(r['elliptic']).lower()} |"
                    )
                text = "\n".join(lines) + "\n"
            else:
                raise ValueError(f"traced classes has no {a.format!r} renderer")
            self.emit(text)

    def cmd_table(self, a):
        pc = self.preset_context(a.preset)
        with self.rec.span("rigidtab.table", "rigidtab"):
            table = rigidtab.build_rigid_table(pc)
        with self.rec.span("cli.render", "cli"):
            if a.spec:
                assignment = {}
                for part in a.spec.split(","):
                    name, _, val = part.partition("=")
                    assignment[name.strip()] = Fraction(val.strip())
                vals = table.evaluate(assignment)
                if a.format != "json":
                    raise ValueError("traced --spec renders json only")
                text = json.dumps({
                    "name": table.name,
                    "spec": {k: str(v) for k, v in sorted(assignment.items())},
                    "rows": list(table.row_labels),
                    "cols": list(table.col_labels),
                    "entries": [[str(v) for v in row] for row in vals],
                }, indent=2) + "\n"
            elif a.format == "json":
                text = json.dumps(table.to_json_dict(), indent=2) + "\n"
            elif a.format == "csv":
                text = table.to_csv()
            else:
                text = table.to_markdown()
            self.emit(text)

    def cmd_verify(self, a):
        if a.preset in rigidtab.MANIFESTS:
            pc = self.preset_context(a.preset)
        else:
            pc = self.bare_context(a)
        checks = []
        for s in SUITES if a.suite == "all" else (a.suite,):
            with self.rec.span(f"rigidtab.suite.{s}", "rigidtab") as sp:
                got = rigidtab.run_suite(pc, s)
                sp["counts"] = {"rigidtab.checks_run": len(got)}
            checks += got
        with self.rec.span("cli.render", "cli"):
            report = {"suite": a.suite, "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in checks]}
            self.emit(json.dumps(report, indent=2) + "\n")

    def cmd_reduce(self, a):
        wd = self.weyl(self.load(a.preset, a.datum))
        with self.rec.span("weyl.evaluate_word", "weyl"):
            e = wd.evaluate_word([w.strip() for w in a.word.split(",") if w.strip()])
        with self.rec.span("hecke.context", "hecke"):
            ctx = hecke.HeckeContext(wd)
        classes = self.classes(wd)
        with self.rec.span("hecke.reduce", "hecke"):
            comb = ctx.cocenter_reduce(e, classes, extend=True)
        ok = True
        for spec in rigidtab.MANIFESTS[a.preset].columns:
            with self.rec.span("repn.panel", "repn") as s:
                mod = rigidtab.resolve_column(ctx, spec)
                s["counts"] = {"repn.modules_built": 1}
            with self.rec.span("repn.trace", "repn"):
                rhs = ctx.zero()
                for r, c in comb.entries:
                    rhs = rhs + c * mod.trace(r.rep)
                ok = ok and mod.trace(e) == rhs
        with self.rec.span("cli.render", "cli"):
            self.emit(f"{comb.render()}\ntrace-verification: {'ok' if ok else 'FAILED'}\n")

    # -- micro-cases -------------------------------------------------------------------

    def micro_det(self, seed):
        pc = self.preset_context("c2-aff")
        with self.rec.span("rigidtab.table", "rigidtab"):
            table = rigidtab.build_rigid_table(pc)
        with self.rec.span("exactpoly.det", "exactpoly") as s:
            det = exactpoly.det_bareiss(exactpoly.PolyMatrix(table.entries))
            s["counts"] = {"exactpoly.det_terms": len(det.terms)}
        with self.rec.span("exactpoly.evaluate", "exactpoly"):
            rng = random.Random(f"det:{seed}")
            point = {n: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for n in table.qtable.names}
            value = det.evaluate(point).constant_value()
        self.emit(json.dumps({"point": {k: str(v) for k, v in point.items()},
                              "value": str(value)}) + "\n")

    def micro_length_ball(self, name):
        datum = (self.load(preset=name) if name in rd.PRESET_NAMES
                 else self.load(datum=f"perfbench/data/{name}.json"))
        warm = self.weyl(datum)
        with self.rec.span("weyl.ball", "weyl"):
            ball = warm.enumerate_ball(8)
        cold = self.weyl(datum)
        with self.rec.span("weyl.length_ball", "weyl") as s:
            lengths = [cold.length(e) for e in ball]
            s["counts"] = {"weyl.ball_size": len(ball)}
        with self.rec.span("weyl.word_check", "weyl"):
            bfs = [sum(1 for w in warm.word(e) if w in warm.sa_index) for e in ball]
            bad = sum(1 for x, y in zip(lengths, bfs) if x != y)
        self.emit(json.dumps({"ball_size": len(ball), "length_sum": sum(lengths),
                              "mismatches": bad}) + "\n")

    def micro_roundtrip(self, seed, samples=40):
        wd = self.weyl(self.load(preset="c2-aff"))
        with self.rec.span("hecke.context", "hecke"):
            ctx = hecke.HeckeContext(wd)
        with self.rec.span("weyl.ball", "weyl"):
            ball = wd.enumerate_ball(3)
        with self.rec.span("hecke.sample", "hecke"):
            rng = random.Random(f"roundtrip:{seed}")
            hs = [ctx.T(rng.choice(ball)) + ctx.T(rng.choice(ball)).scale(
                exactpoly.LaurentPoly.const(ctx.table, rng.randint(1, 4))) for _ in range(samples)]
        with self.rec.span("hecke.roundtrip", "hecke"):
            failures = sum(1 for h in hs if ctx.bernstein_to_im(ctx.im_to_bernstein(h)) != h)
        self.emit(json.dumps({"samples": samples, "failures": failures}) + "\n")


def _cli_args(argv):
    p = argparse.ArgumentParser(prog="traced")
    p.add_argument("command")
    p.add_argument("--preset")
    p.add_argument("--datum")
    p.add_argument("--format", default="md")
    p.add_argument("--suite", default="all")
    p.add_argument("--spec")
    p.add_argument("--word")
    return p.parse_args(argv)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--job", type=int, required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", required=True)
    args = p.parse_args()
    kind = json.loads(args.kind)
    rec = Recorder(args.job, f"{args.job}.0")
    rec.add("process.start", "process", args.launch, T_START)
    rec.add("process.import", "process", T_START, T_IMPORTED)
    rec.wrap(weyl, "validate_datum", "rootdata.validate", "rootdata")
    rec.wrap(conj, "count_identity_check", "conj.count_identity", "conj")

    steps = Steps(rec)
    if "micro" in kind:
        name, _, datum = kind["micro"].partition(".")
        work = (partial(steps.micro_length_ball, datum) if datum
                else partial(getattr(steps, f"micro_{name}"), kind["seed"]))
    else:
        a = _cli_args(kind["argv"])
        work = partial(getattr(steps, f"cmd_{a.command}"), a)
    with rec.span("job.work", "bench"):
        work()
    rec.dump(args.trace)


if __name__ == "__main__":
    main()
