"""The exit-code contract on out-of-scope and malformed root data.

Every datum command exits 0, 1 or 2.  A nonzero exit prints exactly one
``error:`` line and no traceback, and an input error (exit 2) is found before
any enumeration, so it takes well under 0.1 s.
"""

import contextlib
import io
import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidhecke.cli import main

DATA = pathlib.Path(__file__).parent / "data"
FAST_S = 0.1


def run_datum(argv, payload, path):
    """Write payload as the datum file, run the CLI in-process on it."""
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--datum", str(path)])
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def rank2(roots, coroots):
    return {"name": "oos", "lattice_rank": 2, "simple_roots": roots, "simple_coroots": coroots}


ID2 = [[1, 0], [0, 1]]
OUT_OF_SCOPE = {
    "affine-a1": (rank2([[2, -2], [-2, 2]], ID2), "leading principal minor 2 "),
    "hyperbolic": (rank2([[2, -3], [-3, 2]], ID2), "leading principal minor 2 "),
    "positive-entry": (rank2([[2, 1], [-1, 2]], ID2), "a_(1,0)"),
    "zero-not-symmetric": (rank2([[2, 0], [-1, 2]], ID2), "a_(0,1)"),
    "pgl3-entry-1e6": (rank2([[2, 10**6], [-1, 2]], ID2), "a_(1,0)"),
    "not-a-base": (rank2(ID2, [[2, 1], [1, 2]]), "a_(0,1)"),
    "cycle": ({"name": "a2-aff", "lattice_rank": 3,
               "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "simple_coroots": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}, "edge (1, 2)"),
    "torus-rank-3000": ({"name": "torus", "lattice_rank": 3000, "simple_roots": [],
                         "simple_coroots": []}, "not semisimple"),
}


@pytest.mark.parametrize("kind", sorted(OUT_OF_SCOPE))
def test_out_of_scope_datum_exits_fast(tmp_path, kind):
    payload, names = OUT_OF_SCOPE[kind]
    code, out, err, elapsed = run_datum(["classes"], payload, tmp_path / "d.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err
    assert elapsed < FAST_S


# -- fuzzing the contract --------------------------------------------------------

BASES = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
COMMANDS = [["classes"], ["verify", "--suite", "counts"], ["verify", "--suite", "lengths"],
            ["verify", "--suite", "classes"]]
# integers twice over, so that most entry mutations reach the Cartan test
VALUES = [0, 1, -1, 2, -2, 3, -3, 10**6, -10**6, 2**40] * 2 + [0.5, 2.0, "1", None, True, False]
FIELDS = ["name", "lattice_rank", "simple_roots", "simple_coroots", "param_orbit_names"]


def _rows(d, field):
    """The field's rows if it is still a nonempty list of nonempty lists, else None."""
    rows = d.get(field)
    ok = isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)
    return rows if ok else None


def set_entry(d, field, i, j, value):
    if rows := _rows(d, field):
        row = rows[i % len(rows)]
        row[j % len(row)] = value


def scale(d, field, c):
    if rows := _rows(d, field):
        d[field] = [[c * x if type(x) is int else x for x in row] for row in rows]


def set_field(d, field, value):
    d[field] = value


def drop(d, field):
    d.pop(field, None)


VECTORS = st.sampled_from(["simple_roots", "simple_coroots"])
ENTRY = st.tuples(st.just(set_entry), VECTORS, st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from(VALUES))
MUTATION = st.one_of(
    ENTRY, ENTRY, ENTRY,
    st.tuples(st.just(scale), VECTORS, st.sampled_from([-1, 2, -2, 3])),
    st.tuples(st.just(set_field), st.just("lattice_rank"),
              st.sampled_from([0, 1, 2, 4, -1, 10**6, 2**40, True, 2.0, "2", None])),
    st.tuples(st.just(set_field), st.just("param_orbit_names"),
              st.sampled_from([[], ["q"], ["a", "b", "c", "d", "e", "f"], [1], [""], "q", None])),
    st.tuples(st.just(drop), st.sampled_from(FIELDS)),
)


def payload_of(base, mutations, top):
    """The base datum after the mutations, at the top level of a JSON file as
    an object, inside a list, or replaced by a scalar."""
    d = json.loads(json.dumps(base))
    for fn, *args in mutations:
        fn(d, *args)
    return {"object": d, "list": [d], "string": "datum", "null": None}[top]


PAYLOAD = st.builds(payload_of, st.sampled_from(BASES), st.lists(MUTATION, max_size=2),
                    st.sampled_from(["object"] * 6 + ["list", "string", "null"]))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "datum.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(payload=PAYLOAD, argv=st.sampled_from(COMMANDS))
def test_fuzzed_datum_keeps_exit_contract(fuzz_path, payload, argv):
    code, _out, err, elapsed = run_datum(argv, payload, fuzz_path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 2:
        assert elapsed < FAST_S, err
