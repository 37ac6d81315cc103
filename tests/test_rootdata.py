"""Root data: validation, presets, derived affine data, quotients, file IO."""

import json
import pathlib

import pytest

from rigidhecke import rootdata
from rigidhecke.rootdata import (
    BasedRootDatum,
    DatumFormatError,
    NotCartan,
    NotReduced,
    InfiniteWeylGroup,
    UnknownPreset,
    generate_root_system,
    preset,
    semisimple_quotient,
    validate_datum,
)
from rigidhecke.weyl import OmegaSearchExhausted, WeylData

DATA = pathlib.Path(__file__).parent / "data"


def test_validate_presets():
    assert validate_datum(preset("sl2")) == 2
    assert validate_datum(preset("pgl2")) == 2
    assert validate_datum(preset("c2-aff")) == 8
    assert validate_datum(preset("c2-ext")) == 8


def test_validate_errors():
    with pytest.raises(NotCartan):
        validate_datum(BasedRootDatum("bad", 1, ((1,),), ((3,),)))
    # hyperbolic Cartan matrix [[2,-3],[-3,2]]: infinite Weyl group
    with pytest.raises(InfiniteWeylGroup):
        validate_datum(
            BasedRootDatum(
                "hyp", 2, ((1, 0), (0, 1)), ((2, -3), (-3, 2))
            )
        )
    with pytest.raises(NotReduced):
        validate_datum(
            BasedRootDatum("bc1", 1, ((1,), (2,)), ((2,), (1,)))
        )


def test_weyl_group_over_the_limit(monkeypatch):
    """A finite W with more elements than the enumeration limit is refused,
    and the error says that |W| is too large, not that W is infinite."""
    monkeypatch.setattr(rootdata, "W_LIMIT", 20)
    assert validate_datum(rootdata.load_datum(str(DATA / "sl3.json"))) == 6
    with pytest.raises(InfiniteWeylGroup, match=r"^\|W\| exceeds the limit of 20 elements$"):
        WeylData(rootdata.load_datum(str(DATA / "sl4.json")))


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("e8-aff")


# each datum error, with the built-in base it had before it shared one
DATUM_ERROR_BASES = {
    NotCartan: ValueError,
    InfiniteWeylGroup: ValueError,
    NotReduced: ValueError,
    UnknownPreset: KeyError,
    DatumFormatError: ValueError,
    OmegaSearchExhausted: RuntimeError,
}


@pytest.mark.parametrize("exc", sorted(DATUM_ERROR_BASES, key=lambda e: e.__name__),
                         ids=lambda e: e.__name__)
def test_datum_errors_share_one_base(exc):
    assert issubclass(exc, rootdata.InvalidDatum)
    assert issubclass(exc, DATUM_ERROR_BASES[exc])


def test_root_system_counts():
    assert len(generate_root_system(preset("sl2")).roots) == 2
    assert len(generate_root_system(preset("pgl2")).roots) == 2
    assert len(generate_root_system(preset("c2-aff")).roots) == 8


def test_root_system_involution_consistent():
    rs = generate_root_system(preset("c2-aff"))
    assert len(rs.roots) % 2 == 0
    rs2 = generate_root_system(preset("c2-aff"))
    assert rs == rs2
    # roots come in +/- pairs
    root_set = set(rs.roots)
    assert all(tuple(-x for x in r) in root_set for r in rs.roots)


def test_affine_simple_system_presets():
    ad = WeylData(preset("c2-aff"))
    assert len(ad.affine_simple) == 3
    assert len(ad.param_orbits) == 3
    ad_ext = WeylData(preset("c2-ext"))
    assert len(ad_ext.affine_simple) == 3
    assert len(ad_ext.param_orbits) == 2
    sizes = sorted(len(o) for o in ad_ext.param_orbits)
    assert sizes == [1, 2]
    ad_sl2 = WeylData(preset("sl2"))
    assert len(ad_sl2.affine_simple) == 2
    assert len(ad_sl2.param_orbits) == 2
    assert ad_sl2.two_Xvee_flags == (True,)
    ad_pgl2 = WeylData(preset("pgl2"))
    assert len(ad_pgl2.param_orbits) == 1
    assert ad_pgl2.two_Xvee_flags == (False,)


def test_omega_groups():
    assert len(WeylData(preset("sl2")).omega_elements) == 1
    og = WeylData(preset("pgl2"))
    assert len(og.omega_elements) == 2
    # tau^2 = 1
    tau = og.omega_elements[1]
    assert og.mult(tau, tau) == og.identity()
    assert len(WeylData(preset("c2-ext")).omega_elements) == 2
    assert len(WeylData(preset("c2-aff")).omega_elements) == 1


def test_omega_normalizes_sa():
    for name in ("pgl2", "c2-ext"):
        og = WeylData(preset(name))
        # action rows are genuine permutations of S^a
        for perm in og.omega_action_sa:
            assert sorted(perm) == list(range(len(perm)))


def test_semisimple_quotients():
    d = preset("c2-aff")
    full = semisimple_quotient(d, (0, 1))
    assert full.datum.rank == 2
    assert validate_datum(full.datum) == 8
    assert len(generate_root_system(full.datum).roots) == 8
    one = semisimple_quotient(d, (0,))
    assert one.datum.rank == 1
    assert validate_datum(one.datum) == 2
    empty = semisimple_quotient(d, ())
    assert empty.datum.rank == 0
    assert validate_datum(empty.datum) == 1


def test_quotient_root_counts_match_parabolic_roots():
    d = preset("c2-aff")
    rs = generate_root_system(d)
    for J in ((0,), (1,), (0, 1)):
        quot = semisimple_quotient(d, J)
        got = len(generate_root_system(quot.datum).roots)
        from rigidhecke.rootdata import _simple_root_coords

        sub = BasedRootDatum(
            "sub", d.rank,
            tuple(d.simple_roots[j] for j in J),
            tuple(d.simple_coroots[j] for j in J),
        )
        want = 0
        for r in rs.roots:
            coords = _simple_root_coords(sub, r)
            if coords is not None:
                want += 1
        assert got == want


def test_datum_json_io(tmp_path):
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
    d = rootdata.load_datum(str(path))
    assert d.name == "my-sl2"
    assert validate_datum(d) == 2


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"lattice_rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]]}, "name"),
        ({"name": "x", "simple_roots": [[1]], "simple_coroots": [[2]]}, "lattice_rank"),
        ({"name": "x", "lattice_rank": 1, "simple_roots": [[1, 2]], "simple_coroots": [[2]]}, "simple_roots"),
        ({"name": "x", "lattice_rank": 1, "simple_roots": [[1]], "simple_coroots": []}, "simple_coroots"),
        ({"name": "b", "lattice_rank": True, "simple_roots": [[True]], "simple_coroots": [[2]]}, "lattice_rank"),
        ({"name": "b", "lattice_rank": 1, "simple_roots": [[True]], "simple_coroots": [[2]]}, "simple_roots"),
    ],
)
def test_datum_errors_cite_field(tmp_path, payload, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DatumFormatError) as err:
        rootdata.load_datum(str(path))
    assert field in str(err.value)


def test_datum_syntax_error_cites_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(DatumFormatError) as err:
        rootdata.load_datum(str(path))
    assert "line" in str(err.value)


SL2_TEXT = '{"name": "my-sl2", "lattice_rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]]}'


def test_datum_duplicate_key_is_named(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(SL2_TEXT.replace('{"name": "my-sl2"', '{"name": "first", "name": "my-sl2"'))
    with pytest.raises(DatumFormatError) as err:
        rootdata.load_datum(str(path))
    assert str(err.value) == f"{path}: unreadable JSON: duplicate key 'name'"


def test_datum_read_up_to_the_byte_cap(tmp_path):
    path = tmp_path / "padded.json"
    path.write_text(SL2_TEXT.ljust(rootdata.MAX_DATUM_BYTES))
    assert rootdata.load_datum(str(path)).name == "my-sl2"
    path.write_text(SL2_TEXT.ljust(rootdata.MAX_DATUM_BYTES + 1))
    with pytest.raises(DatumFormatError) as err:
        rootdata.load_datum(str(path))
    assert str(err.value) == f"{path}: longer than {rootdata.MAX_DATUM_BYTES} bytes"


def test_param_orbit_name_override():
    d = BasedRootDatum(
        "named", 2,
        ((1, -1), (0, 1)),
        ((1, -1), (0, 2)),
        param_orbit_names=("a", "b", "c"),
    )
    wd = WeylData(d)
    assert wd.orbit_names == ("a", "b", "c")
