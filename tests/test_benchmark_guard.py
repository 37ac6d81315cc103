"""The benchmark's traced job (perfbench/traced_job.py) repeats CLI commands
through the library's public calls: it builds PresetContext and
PresetManifest positionally and calls cocenter_reduce(..., extend=True),
CocenterCombination.entries, conj.classify and conj.count_identity_check.
Running it unchanged guards those calls against library changes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--preset", "c2-aff", "--word", "s0,s1,s2"],
        ["verify", "--datum", "perfbench/data/sl3.json", "--suite", "counts"],
    ],
    ids=["reduce", "verify-counts"],
)
def test_traced_job_prints_what_the_cli_prints(argv, tmp_path):
    cli = _run("-m", "rigidhecke.cli", *argv)
    assert cli.returncode == 0, cli.stderr
    trace = tmp_path / "trace.jsonl"
    traced = _run(
        "perfbench/traced_job.py", "--launch", str(time.monotonic()), "--job", "0",
        "--trace", str(trace), "--kind", json.dumps({"argv": argv}),
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == cli.stdout
    assert trace.read_text()
