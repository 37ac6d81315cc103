"""Benchmark of the rigidhecke CLI: cold CLI processes, one at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh ``python -m rigidhecke.cli ...`` process with
``PYTHONPATH=src``; jobs run one after another from this single benchmark
process (a closed loop with one client), so one core of the host stays free.
Every output is checked (see ``checks.py``).  A run repeats rounds of the
workload's kinds, each round in a seeded order, until ``--seconds`` have
passed; the first round always completes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each kind both
untraced and through ``traced_job.py``, adds the layer micro-cases, writes the
spans to ``perfbench/out/trace-<workload>-seed<N>.jsonl`` and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

JOB_TIMEOUT_S = 150
SETUP_PROBES = 15  # import probes, spread evenly over the run
WARM_UP_ARGV = ("classes", "--preset", "c2-aff")  # one untimed job before timing
MICRO_CASES = ("det", "roundtrip", "length_ball.c2-aff", "length_ball.sl4", "length_ball.pgl4")

# Spans the traced CLI jobs record; each gives a per-sweep self-time metric.
CLI_SPANS = (
    "rootdata.load", "rootdata.validate",
    "weyl.init", "weyl.evaluate_word",
    "conj.classes", "conj.classify", "conj.count_identity",
    "hecke.context", "hecke.reduce",
    "repn.panel", "repn.trace",
    "rigidtab.table", *(f"rigidtab.suite.{s}" for s in workloads.SUITES),
    "cli.render",
)
CLI_COUNTS = ("conj.classes_found", "repn.modules_built", "rigidtab.checks_run")
# Spans and counts of the micro-cases, summed over the micro-case jobs of a round.
MICRO_SPANS = ("weyl.length_ball", "hecke.roundtrip", "exactpoly.det")
MICRO_COUNTS = ("weyl.ball_size", "exactpoly.det_terms")


def end_to_end_metrics() -> dict[str, str]:
    return {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric a ``--trace 1`` run prints, with its unit."""
    out = {"process.start_s": "s", "process.import_s": "s"}
    out.update({f"{n}_s": "s" for n in CLI_SPANS + MICRO_SPANS})
    out.update({n: "count" for n in CLI_COUNTS + MICRO_COUNTS})
    out.update({"bench.overhead_s": "s", "trace.overhead_frac": "fraction",
                "trace.coverage_min_frac": "fraction"})
    out.update({f"cmd.{k}_s": "s" for k in workloads.all_kind_names()})
    return out


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- set-up --------------------------------------------------------------------------


def preflight(root: Path):
    need = [root / "src" / "rigidhecke" / "cli.py", root / "perfbench" / "data" / "pins.json"]
    need += [root / "tests" / "golden" / f"c2-aff.{f}" for f in ("md", "json")]
    need += [root / "perfbench" / "data" / f"{d}.json" for d in workloads.DATUM_FILES]
    missing = [str(p.relative_to(root)) for p in need if not p.is_file()]
    if missing:
        raise SetupError(f"not a rigidhecke checkout (missing {', '.join(missing)})")


def cartan(raw: dict) -> list[list[int]]:
    """A_ij = <alpha_j, alpha_i^vee> of a datum file."""
    return [[sum(a * b for a, b in zip(aj, avi)) for aj in raw["simple_roots"]]
            for avi in raw["simple_coroots"]]


def validate_data(root: Path, pins: dict):
    """Check each datum file against its pin: content hash and Cartan matrix."""
    for name in workloads.DATUM_FILES:
        blob = (root / "perfbench" / "data" / f"{name}.json").read_bytes()
        pin = pins["data"][name]
        raw = json.loads(blob)
        rank = raw.get("lattice_rank")
        vecs = raw.get("simple_roots", []) + raw.get("simple_coroots", [])
        if raw.get("name") != name or not all(len(v) == rank for v in vecs):
            raise SetupError(f"datum {name}: bad name or vector length")
        if hashlib.sha256(blob).hexdigest() != pin["sha256"]:
            raise SetupError(f"datum {name}: content differs from the pinned file")
        if cartan(raw) != pin["cartan"]:
            raise SetupError(f"datum {name}: Cartan matrix {cartan(raw)} is not {pin['cartan']}")


def calibration_ms(blocks: int = 5) -> float:
    """Median time of a fixed stdlib Fraction loop; reported, never used to normalise."""
    times = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(5):
            s = Fraction(0)
            for k in range(1, 400):
                s += Fraction(1, k)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_ms": calibration_ms(),
    }


# -- jobs ------------------------------------------------------------------------------


class Runner:
    """Launches job processes from the checkout root, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def _run(self, cmd: list[str]) -> tuple[int, bytes, bytes, float]:
        """Run one process to exit (killed after JOB_TIMEOUT_S) and time it."""
        t = time.perf_counter()
        try:
            p = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                               timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -9, b"", f"killed after {JOB_TIMEOUT_S} s".encode(), time.perf_counter() - t
        return p.returncode, p.stdout, p.stderr, time.perf_counter() - t

    def cli(self, argv) -> tuple[int, bytes, bytes, float]:
        return self._run([sys.executable, "-m", "rigidhecke.cli", *argv])

    def import_probe(self) -> float:
        rc, _, err, wall = self._run([sys.executable, "-c", "import rigidhecke"])
        if rc:
            raise SetupError(f"import rigidhecke failed: {err.decode(errors='replace')[-300:]}")
        return wall

    def warm_up(self):
        """Compile the package's and the CLI's bytecode before anything is timed."""
        self.import_probe()
        rc, _, err, _ = self.cli(WARM_UP_ARGV)
        if rc:
            raise SetupError(f"warm-up job failed: {err.decode(errors='replace')[-300:]}")

    def traced(self, payload: dict, job: int, trace_path: Path) -> tuple[int, bytes, bytes, float]:
        launch = time.monotonic()
        rc, out, err, wall = self._run([
            sys.executable, "perfbench/traced_job.py", "--launch", repr(launch),
            "--job", str(job), "--trace", str(trace_path), "--kind", json.dumps(payload)])
        with open(trace_path, "a") as fh:
            fh.write(json.dumps({"id": f"{job}.0", "name": "job", "layer": "bench",
                                 "start": launch, "end": time.monotonic(),
                                 "parent": None, "job": job}) + "\n")
        return rc, out, err, wall


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, rc: int, problem, err: bytes):
        self.attempted += 1
        if rc:
            problem = f"exit code {rc}: {err.decode(errors='replace').strip()[-300:]}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


class Prober:
    """Times ``import rigidhecke`` in fresh interpreters at even intervals of the run."""

    def __init__(self, runner: Runner, seconds: float):
        self.runner = runner
        self.every = seconds / (SETUP_PROBES - 1)
        self.walls = [runner.import_probe()]
        self.next = time.monotonic() + self.every

    def maybe(self):
        if len(self.walls) < SETUP_PROBES and time.monotonic() >= self.next:
            self.walls.append(self.runner.import_probe())
            self.next += self.every

    def finish(self) -> list[float]:
        while len(self.walls) < SETUP_PROBES:
            self.walls.append(self.runner.import_probe())
        return self.walls


def rounds(items: list, seed: int, deadline: float):
    """Yield (round, item) until the deadline; round 0 always completes."""
    r = 0
    while True:
        for item in workloads.round_order(items, seed, r):
            if r and time.monotonic() >= deadline:
                return
            yield r, item
        r += 1
        if time.monotonic() >= deadline:
            return


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


# -- the two kinds of run -------------------------------------------------------------


def timed_run(runner: Runner, kinds, refs, seed, seconds, tally, prober) -> dict:
    walls = {k.name: [] for k in kinds}
    n_rounds = 0
    for r, kind in rounds(kinds, seed, time.monotonic() + seconds):
        rc, out, err, wall = runner.cli(kind.argv)
        tally.record(kind.name, rc, None if rc else checks.check_kind(kind, out, refs), err)
        walls[kind.name].append(wall)
        n_rounds = r + 1
        prober.maybe()
    return {"walls": walls, "rounds": n_rounds}


def traced_run(runner: Runner, kinds, refs, seed, seconds, tally, prober, trace_path: Path) -> dict:
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text("")
    items = [("kind", k) for k in kinds] + [("micro", m) for m in MICRO_CASES]
    walls = {k.name: [] for k in kinds}
    traced_walls = {k.name: [] for k in kinds}
    jobs = {}  # job id -> (round, item type)
    done_in_round: dict[int, int] = {}
    job = 0
    for r, (typ, item) in rounds(items, seed, time.monotonic() + seconds):
        if typ == "kind":
            rc, out, err, wall = runner.cli(item.argv)
            tally.record(item.name, rc, None if rc else checks.check_kind(item, out, refs), err)
            walls[item.name].append(wall)
            job += 1
            rc, out, err, wall = runner.traced({"argv": list(item.argv)}, job, trace_path)
            tally.record(f"traced {item.name}", rc,
                         None if rc else checks.check_kind(item, out, refs), err)
            traced_walls[item.name].append(wall)
        else:
            job += 1
            rc, out, err, wall = runner.traced({"micro": item, "seed": seed}, job, trace_path)
            tally.record(f"micro {item}", rc, None if rc else checks.check_micro(item, out, refs), err)
        jobs[job] = (r, typ)
        done_in_round[r] = done_in_round.get(r, 0) + 1
        prober.maybe()
    complete = sorted(r for r, n in done_in_round.items() if n == len(items))
    return {"walls": walls, "traced_walls": traced_walls, "jobs": jobs, "complete": complete,
            "rounds": len(done_in_round)}


def layer_metrics(res: dict, trace: list[dict], kinds) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run; also the per-job in-process coverage."""
    own = spans.self_times(trace)
    per_round = {r: {} for r in res["complete"]}
    start_import = {"process.start": [], "process.import": []}
    coverage = {}
    for s in trace:
        r, typ = res["jobs"][s["job"]]
        name = s["name"]
        if name in start_import:
            start_import[name].append(s["end"] - s["start"])
        if name == "job.work":
            coverage[s["job"]] = 1 - own[s["id"]] / (s["end"] - s["start"])
        if r not in per_round:
            continue
        wanted = CLI_SPANS if typ == "kind" else MICRO_SPANS
        counted = CLI_COUNTS if typ == "kind" else MICRO_COUNTS
        acc = per_round[r]
        if name in wanted:
            acc[f"{name}_s"] = acc.get(f"{name}_s", 0.0) + own[s["id"]]
        if name == "job" and typ == "kind":
            acc["bench.overhead_s"] = acc.get("bench.overhead_s", 0.0) + own[s["id"]]
        for key, n in s.get("counts", {}).items():
            if key in counted:
                acc[key] = acc.get(key, 0) + n
    out = {}
    for key, unit in per_layer_metrics().items():
        vals = [acc.get(key, 0) for acc in per_round.values()]
        out[key] = (statistics.median_low if unit == "count" else statistics.median)(vals)
    for name, vals in start_import.items():
        out[f"{name}_s"] = statistics.median(vals)
    untraced = {k.name: statistics.median(res["walls"][k.name]) for k in kinds}
    traced = {k.name: statistics.median(res["traced_walls"][k.name]) for k in kinds}
    out["trace.overhead_frac"] = (sum(traced.values()) - sum(untraced.values())) / sum(untraced.values())
    out["trace.coverage_min_frac"] = min(coverage.values())
    for k, v in untraced.items():
        out[f"cmd.{k}_s"] = v
    return out, coverage


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    try:
        preflight(root)
        refs = checks.Refs(root)
        validate_data(root, refs.pins)
        runner = Runner(root)
        runner.warm_up()
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    host_start = host_facts()
    prober = Prober(runner, args.seconds)
    kinds = workloads.kinds(args.workload, args.seed)
    tally = Tally()
    t0 = time.monotonic()
    out_dir = root / "perfbench" / "out"
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        res = traced_run(runner, kinds, refs, args.seed, args.seconds, tally, prober, trace_path)
    else:
        res = timed_run(runner, kinds, refs, args.seed, args.seconds, tally, prober)
    elapsed = time.monotonic() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    probes = prober.finish()
    host_end = host_facts()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {tally.attempted} jobs, "
          f"{res['rounds']} rounds in {elapsed:.1f} s")
    kind_rows = []
    for k in kinds:
        q1, med, q3 = quartiles(res["walls"][k.name])
        kind_rows.append({"kind": k.name, "argv": list(k.argv), "n": len(res["walls"][k.name]),
                          "median_s": med, "q1_s": q1, "q3_s": q3})
        print(f"  {k.name:<28} n={len(res['walls'][k.name]):<3} median {med:8.4f} s"
              f"  q1 {q1:8.4f}  q3 {q3:8.4f}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    if args.trace:
        trace = spans.load(str(trace_path))
        metrics, coverage = layer_metrics(res, trace, kinds)
        units = per_layer_metrics()
        print(spans.summary(trace))
        low = {j: c for j, c in coverage.items() if c < 0.95}
        if low:
            print(f"WARNING: span coverage below 95% in jobs {low}", file=sys.stderr)
    else:
        metrics = {
            "sweep_s": sum(statistics.median(v) for v in res["walls"].values()),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = end_to_end_metrics()
    for name, value in metrics.items():
        if args.trace == 0 or not name.startswith("cmd."):
            print(f"  {name:<32} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<32} {failed_frac:.6g} fraction ({tally.failed} of {tally.attempted})")
    host = {"start": host_start, "end": host_end}
    print("host: " + json.dumps(host))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "kinds": kind_rows, "setup_probes_s": probes,
              "failed_frac": failed_frac, "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
