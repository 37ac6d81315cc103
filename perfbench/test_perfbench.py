"""Self-tests of the benchmark: its checkers can fail, its inputs follow the seed.

Run from the repository root with ``python3 -m pytest perfbench -q``.  They
read the golden tables and pins but start no ``rigidhecke`` process.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return checks.Refs(ROOT)


def verify_report(refs, key, status="pass"):
    _, suite = key.split("/")
    names = refs.pins["verify"][key]
    return json.dumps({"suite": suite, "checks": [
        {"name": n, "status": status, "detail": ""} for n in names]}).encode()


def test_golden_accepts_and_rejects_flipped_byte(refs):
    good = refs.golden("c2-aff", "md")
    assert checks.check_golden(good, refs, "c2-aff", "md") is None
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 1
    assert "byte" in checks.check_golden(bytes(bad), refs, "c2-aff", "md")


def test_spec_checker_evaluates_golden_polynomials(refs):
    entries = refs.golden_entries("sl2")
    vals = {"Q": "3/5"}
    got = [[str(checks.evaluate_poly(e, {"Q": checks.Fraction(3, 5)})) for e in row] for row in entries]
    out = json.dumps({"entries": got}).encode()
    assert checks.check_spec(out, refs, "sl2", vals) is None
    got[0][2] = str(checks.Fraction(got[0][2]) + 1)
    assert checks.check_spec(json.dumps({"entries": got}).encode(), refs, "sl2", vals)


def test_verify_rejects_fail_status_and_missing_name(refs):
    key = "c2-aff/pairing"
    assert checks.check_verify(verify_report(refs, key), refs, "c2-aff", "pairing") is None
    failing = verify_report(refs, key, status="fail")
    assert "not passing" in checks.check_verify(failing, refs, "c2-aff", "pairing")
    report = json.loads(verify_report(refs, key))
    report["checks"].pop()
    missing = json.dumps(report).encode()
    assert "pinned" in checks.check_verify(missing, refs, "c2-aff", "pairing")


def test_classes_rejects_wrong_label(refs):
    labels = refs.pins["classes"]["sl4"]
    md = "| label | rep |\n|---|---|\n" + "".join(f"| {lab} | x |\n" for lab in labels)
    assert checks.check_classes(md.encode(), refs, "sl4", "md") is None
    wrong = md.replace(f"| {labels[-1]} |", "| s9 |")
    assert "differ" in checks.check_classes(wrong.encode(), refs, "sl4", "md")
    js = json.dumps({"classes": [{"label": lab} for lab in labels]}).encode()
    assert checks.check_classes(js, refs, "sl4", "json") is None


def test_reduce_rejects_two_unit_coefficients():
    ok = b"(1*Q0 - 1)*T[s0s1] + 1*Q0*T[s1]\ntrace-verification: ok\n"
    assert checks.check_reduce(ok) is None
    two = b"1*Q0*T[s0s1] + 1*Q0*T[s1]\ntrace-verification: ok\n"
    assert "not a single class" in checks.check_reduce(two)
    unverified = b"1*T[s1]\ntrace-verification: FAILED\n"
    assert checks.check_reduce(unverified)


def test_micro_det_rejects_wrong_value(refs):
    point = {"Q0": "2", "Q1": "3", "Q2": "1/2"}
    rows = [[checks.evaluate_poly(e, {k: checks.Fraction(v) for k, v in point.items()})
             for e in row] for row in refs.golden_entries("c2-aff")]
    value = checks.fraction_det(rows)
    good = json.dumps({"point": point, "value": str(value)}).encode()
    assert checks.check_micro("det", good, refs) is None
    bad = json.dumps({"point": point, "value": str(value + 1)}).encode()
    assert checks.check_micro("det", bad, refs)


def test_parse_poly_handles_signs_fractions_and_negative_exponents():
    terms = checks.parse_poly("-3/2*Q0^2*Q1 - 1*Q1^-1 + 4")
    assert terms == [(checks.Fraction(-3, 2), {"Q0": 2, "Q1": 1}),
                     (checks.Fraction(-1), {"Q1": -1}), (checks.Fraction(4), {})]


def test_same_seed_same_jobs_other_seed_other_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.kinds(w, 7) == workloads.kinds(w, 7)
        assert workloads.round_order(workloads.kinds(w, 7), 7, 3) == \
            workloads.round_order(workloads.kinds(w, 7), 7, 3)
    a = {k.name: k.argv for k in workloads.kinds("c2aff-verify", 7)}
    b = {k.name: k.argv for k in workloads.kinds("c2aff-verify", 8)}
    assert a.keys() == b.keys()
    changed = {n for n in a if a[n] != b[n]}
    assert changed == {"c2-aff.table-spec", "c2-aff.reduce"}
    assert workloads.kinds("datum-classes", 7) == workloads.kinds("datum-classes", 8)


def test_self_time_subtracts_direct_children():
    tr = [
        {"id": "1.0", "name": "job", "layer": "bench", "start": 0.0, "end": 10.0, "parent": None, "job": 1},
        {"id": "1.1", "name": "a", "layer": "x", "start": 1.0, "end": 5.0, "parent": "1.0", "job": 1},
        {"id": "1.2", "name": "b", "layer": "y", "start": 2.0, "end": 3.0, "parent": "1.1", "job": 1},
    ]
    assert spans.self_times(tr) == {"1.0": 6.0, "1.1": 3.0, "1.2": 1.0}
    assert "bench (overhead" in spans.summary(tr)


def test_benchmark_json_matches_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.end_to_end_metrics()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program():
    with pytest.raises(run.SetupError):
        run.preflight(HERE)


def test_unreadable_output_is_a_failure_not_a_crash(refs):
    for k in workloads.kinds("c2aff-verify", 1) + workloads.kinds("datum-classes", 1):
        assert checks.check_kind(k, b"\xff garbage", refs)
    assert checks.check_micro("det", b"{}", refs)
