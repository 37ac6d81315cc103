"""CLI: subcommands, exit codes, determinism, file input."""

import argparse
import json
import pathlib

import pytest

from rigidhecke import cli, conj, hecke, repn, rigidtab, rootdata
from rigidhecke.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_sl2(capsys):
    code, out, _ = run(capsys, "classes", "--preset", "sl2")
    assert code == 0
    assert out.count("\n") == 5  # header + separator + 3 records
    assert "s0" in out and "s1" in out


def test_classes_json_c2(capsys):
    code, out, _ = run(capsys, "classes", "--preset", "c2-aff", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 9
    assert sum(1 for r in data["classes"] if r["elliptic"]) == 5


def test_classes_pgl2_has_tau(capsys):
    code, out, _ = run(capsys, "classes", "--preset", "pgl2", "--format", "json")
    assert code == 0
    recs = json.loads(out)["classes"]
    tau = next(r for r in recs if r["label"] == "tau")
    assert tau["min_length"] == 0


def test_table_golden_byte_exact(capsys, tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "sl2.md"
    code, out, _ = run(capsys, "table", "--preset", "sl2", "--format", "md")
    assert code == 0
    assert out == golden.read_text()


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--preset", "sl2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == ["T0", "T1", "1"]
    code, out, _ = run(capsys, "table", "--preset", "pgl2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "pgl2,St-,St+,i_0(1)"


def test_table_spec_evaluation(capsys):
    code, out, _ = run(capsys, "table", "--preset", "sl2", "--spec", "q=2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    # entry (T1, pi+) = q evaluated at 2
    assert lines[2].split(",")[2] == "2"


# a bad --spec and the exact stderr it gives: an unknown name, or a value
# that Fraction rejects
BAD_SPECS = {
    "bogus=2": "unknown parameter 'bogus'; have ('Q',)",
    "q0=2": "unknown parameter 'q0'; have ('Q',)",
    "q=1/0": "bad --spec entry 'q=1/0' (want name=rational)",
    "q=2=3": "bad --spec entry 'q=2=3' (want name=rational)",
    "q=nan": "bad --spec entry 'q=nan' (want name=rational)",
    "q": "bad --spec entry 'q' (want name=rational)",
    "q=2,Q=3": "parameter 'Q' given twice in --spec",
    "Q=2,Q=3": "parameter 'Q' given twice in --spec",
}


def test_table_spec_bad_name(capsys):
    for spec, err in BAD_SPECS.items():
        got = run(capsys, "table", "--preset", "sl2", "--spec", spec)
        assert got == (2, "", f"error: {err}\n"), spec


def test_jobs_option_removed(capsys):
    # there is no --jobs option: argparse rejects it as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["table", "--preset", "pgl2", "--format", "json", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "sl2", "--suite", "lengths", "--format", "json"],
    ["reduce", "--preset", "sl2", "--word", "s1", "--format", "csv"],
], ids=["verify", "reduce"])
def test_format_option_only_where_read(capsys, argv):
    # verify always writes JSON and reduce plain text: --format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


# a cheap value for each option other than --preset, --datum and --out
_CHEAP = {"max_length": "8", "format": "json", "spec": "q=2", "suite": "lengths", "word": "s1,s0"}


def _subparsers(capsys, monkeypatch):
    """The CLI's subcommand parsers by name, caught at the top-level parse."""
    caught = []
    parse = argparse.ArgumentParser.parse_args
    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_args",
                  lambda self, *a, **k: caught.append(self) or parse(self, *a, **k))
        with pytest.raises(SystemExit):
            main(["--help"])
    capsys.readouterr()
    return next(a for a in caught[0]._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_is_read(capsys, monkeypatch, tmp_path):
    """Each subcommand runs once on --preset sl2 and once on a datum file,
    with every other option it accepts set.  Each option must be read in
    some run, unless every run that sets it is rejected (exit 2): an option
    that is accepted but does nothing fails here."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    commands = _subparsers(capsys, monkeypatch)
    parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: Recording(**vars(parse(self, *a, **k))))
    sources = {"preset": "sl2", "datum": str(DATA / "sl3.json")}
    for command, sub in commands.items():
        flags = {a.dest: a.option_strings[0] for a in sub._actions if a.dest != "help"}
        values = dict(_CHEAP, out=str(tmp_path / "out"))
        others = [arg for dest in flags if dest not in sources for arg in (flags[dest], values[dest])]
        read, set_in_accepted_run = set(), set()
        for dest, value in sources.items():
            reads.clear()
            code = main([command, flags[dest], value, *others])
            capsys.readouterr()
            read |= reads
            if code != 2:
                set_in_accepted_run |= set(flags) - (set(sources) - {dest})
        unused = sorted(dest for dest in flags if dest not in read and dest in set_in_accepted_run)
        assert not unused, f"{command}: options never read: {unused}"


def test_reduce_examples(capsys):
    code, out, _ = run(capsys, "reduce", "--preset", "sl2", "--word", "s1,s0,s1")
    assert code == 0
    assert "(1*Q1 - 1)*T[s0s1] + 1*Q1*T[s0]" in out
    assert "trace-verification: ok" in out
    code, out, _ = run(capsys, "reduce", "--preset", "sl2", "--word", "s0")
    assert code == 0
    assert "1*T[s0]" in out
    code, out, _ = run(capsys, "reduce", "--preset", "pgl2", "--word", "tau")
    assert code == 0
    assert "1*T[tau]" in out


def test_reduce_unknown_generator(capsys):
    rows = [
        (["--preset", "sl2"], "s9", "unknown generator 's9'; have ['s0', 's1']"),
        (["--datum", str(DATA / "sl2xsl2.json")], "s1,s0,s1",
         "unknown generator 's0'; have ['s0a', 's0b', 's1', 's2']"),
    ]
    for source, word, err in rows:
        got = run(capsys, "reduce", *source, "--word", word)
        assert got == (2, "", f"error: {err}\n"), word


def test_verify_counts(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "sl2", "--suite", "counts")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "counts"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--preset", "sl2", "--suite", "nope")
    assert code == 2


def test_verify_c2ext_counts(capsys):
    # c2-ext has no table manifest; datum-only suites still run
    code, out, _ = run(capsys, "verify", "--preset", "c2-ext", "--suite", "counts")
    assert code == 0
    code, _, err = run(capsys, "verify", "--preset", "c2-ext", "--suite", "pairing")
    assert code == 2


def test_verify_panel_suite_without_panel_names_the_preset(capsys):
    got = run(capsys, "verify", "--preset", "c2-ext", "--suite", "mackey")
    assert got == (2, "", "error: no module panel for preset 'c2-ext'\n")


def test_verify_panel_suite_on_a_datum_file_asks_for_a_preset(capsys):
    got = run(capsys, "verify", "--datum", str(DATA / "sl3.json"), "--suite", "mackey")
    assert got == (2, "", "error: this suite needs a preset module panel (use --preset)\n")


def test_datum_file_input(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(
        json.dumps(
            {
                "name": "my-sl2",
                "lattice_rank": 1,
                "simple_roots": [[1]],
                "simple_coroots": [[2]],
            }
        )
    )
    code, out, _ = run(capsys, "classes", "--datum", str(path), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3


def test_datum_in_another_basis_of_x(capsys, tmp_path):
    # pgl3 written in the basis g = [[-4, -3], [-1, -1]] of X: roots g(a),
    # coroots g^-T(a^)
    path = tmp_path / "pgl3g.json"
    path.write_text(json.dumps({
        "name": "pgl3g",
        "lattice_rank": 2,
        "simple_roots": [[-5, -1], [-2, -1]],
        "simple_coroots": [[-1, 3], [1, -4]],
    }))
    code, out, err = run(capsys, "classes", "--datum", str(path), "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["classes"]) == 5


def test_datum_file_error_exit2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    code, _, err = run(capsys, "classes", "--datum", str(path))
    assert code == 2
    assert "line" in err


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "t.md"
    code, _, _ = run(capsys, "table", "--preset", "sl2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("| sl2 |")


SL2_COMMANDS = {
    "classes": ["classes"],
    "table": ["table"],
    "verify": ["verify", "--suite", "counts"],
    "reduce": ["reduce", "--word", "s1"],
}


@pytest.mark.parametrize("command", sorted(SL2_COMMANDS))
def test_out_unwritable_exit2(capsys, tmp_path, monkeypatch, command):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work ran before --out was checked")

    for module, name in ((cli, "WeylData"), (cli, "newton_zero_classes"), (cli, "datum_context"),
                         (hecke, "HeckeContext"), (rigidtab, "build_preset_context"),
                         (rigidtab, "build_rigid_table"), (rigidtab, "run_suite")):
        monkeypatch.setattr(module, name, no_work)
    out_path = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, *SL2_COMMANDS[command], "--preset", "sl2", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.parent.exists()


@pytest.mark.parametrize("command", sorted(SL2_COMMANDS))
def test_negative_max_length_exit2(capsys, command):
    code, out, err = run(capsys, *SL2_COMMANDS[command], "--preset", "sl2", "--max-length", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-length must be >= 0, got -1\n"


BAD_DATA = {
    "not-cartan": {  # <alpha, alpha^> = 3
        "name": "bad",
        "lattice_rank": 1,
        "simple_roots": [[1]],
        "simple_coroots": [[3]],
    },
    "not-semisimple": {  # X/Q infinite: no Omega
        "name": "gl2",
        "lattice_rank": 2,
        "simple_roots": [[1, -1]],
        "simple_coroots": [[1, -1]],
    },
    "orbit-count": {  # sl2 has two parameter orbits, not three
        "name": "sl2",
        "lattice_rank": 1,
        "simple_roots": [[1]],
        "simple_coroots": [[2]],
        "param_orbit_names": ["qa", "qb", "qc"],
    },
    "missing": None,  # no file at the path
    # bytes that json.load cannot decode
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "huge-integer": b'{"name": "x", "lattice_rank": 1, "simple_roots": [[' + b"1" * 5000 + b"]]}",
    # a valid sl2 datum but for one key given twice, or one byte too long
    "duplicate-key": b'{"name": "a", "name": "b", "lattice_rank": 1, "simple_roots": [[1]], '
    b'"simple_coroots": [[2]]}',
    "too-long": b'{"name": "sl2", "lattice_rank": 1, "simple_roots": [[1]], '
    b'"simple_coroots": [[2]]}'.ljust(rootdata.MAX_DATUM_BYTES + 1),
}


@pytest.mark.parametrize("kind", sorted(BAD_DATA))
@pytest.mark.parametrize(
    "command",
    [["classes"], ["verify", "--suite", "counts"], ["reduce", "--word", "s1"]],
    ids=["classes", "verify", "reduce"],
)
def test_bad_datum_exit2(capsys, tmp_path, command, kind):
    path = tmp_path / f"{kind}.json"
    data = BAD_DATA[kind]
    if isinstance(data, bytes):
        path.write_bytes(data)
    elif data is not None:
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, *command, "--datum", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(SL2_COMMANDS))
def test_unstable_max_length_exit1(capsys, command):
    code, out, err = run(capsys, *SL2_COMMANDS[command], "--preset", "sl2", "--max-length", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: 2 of 3 Newton-zero classes have minimal length > L=0")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, count", [("b3q", 22), ("b3p", 17), ("c3q", 17), ("c3p", 22)])
def test_b3_c3_at_default_arguments(capsys, name, count):
    """B3 and C3 have classes of minimal length 9; with no bound, ``classes``
    and the three datum suites pass."""
    import pathlib

    path = str(pathlib.Path(__file__).parent / "data" / f"{name}.json")
    code, out, _ = run(capsys, "classes", "--datum", path, "--format", "json")
    assert code == 0
    recs = json.loads(out)["classes"]
    assert len(recs) == count and max(r["min_length"] for r in recs) == 9
    for suite in ("counts", "lengths", "classes"):
        code, out, _ = run(capsys, "verify", "--datum", path, "--suite", suite)
        assert code == 0, out


def test_datum_named_like_a_preset_gets_no_class_counts(capsys, tmp_path):
    """Expected class counts come from --preset, never from a datum file's name."""
    import pathlib

    raw = json.loads((pathlib.Path(__file__).parent / "data" / "sl3.json").read_text())
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(dict(raw, name="c2-aff")))
    code, out, _ = run(capsys, "verify", "--datum", str(path), "--suite", "classes")
    assert code == 0
    assert "class-counts" not in [c["name"] for c in json.loads(out)["checks"]]


@pytest.mark.parametrize("suite", ["lengths", "classes", "counts"])
@pytest.mark.parametrize("preset", ["sl2", "pgl2", "c2-aff"])
def test_datum_level_verify_builds_no_panel(capsys, monkeypatch, request, preset, suite):
    """A datum-level suite on a table preset reports what it reports on the
    full preset context, without building a module."""
    from rigidhecke import rigidtab

    pc = request.getfixturevalue({"sl2": "pc_sl2", "pgl2": "pc_pgl2", "c2-aff": "pc_c2"}[preset])
    checks = [
        {"name": c.name, "status": c.status, "detail": c.detail}
        for c in rigidtab.run_suite(pc, suite)
    ]
    want = json.dumps({"suite": suite, "checks": checks}, indent=2) + "\n"

    def no_panel(*_args, **_kwargs):
        raise AssertionError("a datum-level suite built a module")

    monkeypatch.setattr(rigidtab, "resolve_column", no_panel)
    monkeypatch.setattr(repn.FinDimModule, "__init__", no_panel)
    code, out, _ = run(capsys, "verify", "--preset", preset, "--suite", suite)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("suite", ["mackey", "adjunction", "twist"])
@pytest.mark.parametrize("preset", ["sl2", "pgl2", "c2-aff"])
def test_self_building_suites_build_no_panel(capsys, monkeypatch, preset, suite):
    """mackey, adjunction and twist build the modules they test themselves,
    so under ``verify`` they never build a module of the preset panel."""

    def no_panel(*_args, **_kwargs):
        raise AssertionError(f"verify --suite {suite} built a panel module")

    monkeypatch.setattr(rigidtab, "resolve_column", no_panel)
    code, out, err = run(capsys, "verify", "--preset", preset, "--suite", suite)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)


_VERIFY_SL2 = ["verify", "--preset", "sl2", "--suite", "relations"]
_REDUCE_SL2 = ["reduce", "--preset", "sl2", "--word", "s1,s0"]
# the relations suite reports a column that fails to build as a failing check,
# so these two faults are injected where they escape: into the table's panel
_TABLE_SL2 = ["table", "--preset", "sl2"]
# exception, (owner, attribute) of the entry point that raises it, and a
# command that calls that entry point outside any ``try`` of its own
COMPUTATION_FAILURES = {
    "RelationFailed": (repn.RelationFailed, (rigidtab, "induce"), _TABLE_SL2),
    "TableMismatch": (rigidtab.TableMismatch, (rigidtab, "_signature_module"), _TABLE_SL2),
    "NotFound": (conj.NotFound, (rigidtab, "classify"), _VERIFY_SL2),
    "PlateauBudgetExceeded": (conj.PlateauBudgetExceeded, (hecke, "plateau"), _REDUCE_SL2),
    "BudgetExceeded": (hecke.BudgetExceeded, (hecke.HeckeContext, "cocenter_reduce"), _REDUCE_SL2),
    "NonNewtonZeroLeaf": (
        hecke.NonNewtonZeroLeaf, (hecke.HeckeContext, "cocenter_reduce"), _REDUCE_SL2
    ),
    "ConversionBudgetExceeded": (
        hecke.ConversionBudgetExceeded,
        (hecke.HeckeContext, "im_to_bernstein"),
        ["reduce", "--preset", "pgl2", "--word", "s1"],
    ),
    # a defect: any other exception is one error line and exit 1 as well
    "RuntimeError-classes": (
        RuntimeError, (cli, "newton_zero_classes"), ["classes", "--preset", "sl2"]
    ),
    "RuntimeError-table": (
        RuntimeError, (rigidtab, "build_rigid_table"), ["table", "--preset", "sl2"]
    ),
    "RuntimeError-verify": (
        RuntimeError, (conj, "count_identity_check"),
        ["verify", "--preset", "sl2", "--suite", "counts"],
    ),
    "RuntimeError-reduce": (RuntimeError, (hecke.HeckeContext, "cocenter_reduce"), _REDUCE_SL2),
}


@pytest.mark.parametrize("name", sorted(COMPUTATION_FAILURES))
def test_computation_failure_exit1(capsys, monkeypatch, name):
    """A computation failure or a defect is one ``error:`` line and exit 1,
    not a traceback."""
    exc, (owner, attr), argv = COMPUTATION_FAILURES[name]
    assert hasattr(owner, attr)

    def fail(*_args, **_kwargs):
        raise exc(f"injected {name}")

    monkeypatch.setattr(owner, attr, fail)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: injected {name}\n"


def test_panel_verify_builds_its_context_once(capsys, monkeypatch):
    builds = []
    real = rigidtab.build_preset_context
    monkeypatch.setattr(rigidtab, "build_preset_context",
                        lambda *a, **k: builds.append(a) or real(*a, **k))
    code, _, err = run(capsys, "verify", "--preset", "sl2", "--suite", "twist")
    assert code == 0, err
    assert builds == [("sl2",)]


# each computation failure, with the built-in base it had before it shared one
COMPUTATION_FAILURE_BASES = {
    conj.UnstableAtBound: RuntimeError,
    conj.NotFound: LookupError,
    conj.PlateauBudgetExceeded: RuntimeError,
    hecke.BudgetExceeded: RuntimeError,
    hecke.ConversionBudgetExceeded: RuntimeError,
    hecke.NonNewtonZeroLeaf: RuntimeError,
    repn.RelationFailed: RuntimeError,
    rigidtab.TableMismatch: AssertionError,
}


@pytest.mark.parametrize("exc", sorted(COMPUTATION_FAILURE_BASES, key=lambda e: e.__name__),
                         ids=lambda e: e.__name__)
def test_computation_failures_share_one_base(exc):
    assert issubclass(exc, conj.ComputationFailed)
    assert issubclass(exc, COMPUTATION_FAILURE_BASES[exc])
