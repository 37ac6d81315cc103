"""Conjugacy classes: descent, enumeration, oracle, counting identity."""

import pathlib
import random
from collections import deque

import pytest

from rigidhecke import conj
from rigidhecke.conj import (
    NotFound,
    UnstableAtBound,
    classify,
    count_identity_check,
    descend_to_minimal,
    key_partition,
    newton_zero_classes,
    oracle_partition,
)
from rigidhecke.rootdata import PRESET_NAMES, load_datum, preset
from rigidhecke.weyl import WeylData, union_find

from oracles import brute_force_conjugacy_oracle

_CACHE = {}
_ORACLE = {}
_DATA = pathlib.Path(__file__).parent / "data"
_DATUMS = [*PRESET_NAMES, *sorted(p.stem for p in _DATA.glob("*.json"))]


def wd_of(name):
    if name not in _CACHE:
        datum = preset(name) if name in PRESET_NAMES else load_datum(str(_DATA / f"{name}.json"))
        _CACHE[name] = WeylData(datum)
    return _CACHE[name]


def finite_order_ball(wd, radius):
    return [e for e in wd.enumerate_ball(radius) if wd.has_finite_order(e)]


def oracle_sets6(name):
    """The oracle partition of the radius-6 finite-order ball, as sets."""
    if name not in _ORACLE:
        wd = wd_of(name)
        _ORACLE[name] = {frozenset(g) for g in oracle_partition(wd, finite_order_ball(wd, 6), 6)}
    return _ORACLE[name]


def _exhaustive_plateau(wd, e):
    """The minimal-length elements among all those reached from e by
    non-increasing moves: the plateau the exhaustive descent returned before
    the plateau walk replaced it, kept here as the reference."""
    seen = {e}
    queue = deque([e])
    while queue:
        f = queue.popleft()
        for name in wd.gen_names:
            h = wd.conjugate_gen(name, f)
            if h not in seen and wd.length(h) <= wd.length(f):
                seen.add(h)
                queue.append(h)
    best = min(map(wd.length, seen))
    return {h for h in seen if wd.length(h) == best}


@pytest.mark.parametrize("name", _DATUMS)
def test_plateau_walk_radius6(name):
    wd = wd_of(name)
    classes = newton_zero_classes(wd)
    class_of = {e: g for g in oracle_sets6(name) for e in g}
    for e in wd.enumerate_ball(6):
        le = wd.length(e)
        seen, descent = conj.plateau(wd, e)
        assert seen[e] is None and all(wd.length(f) == le for f in seen)
        for f, move in seen.items():
            if move is not None:
                assert move[0] in seen and wd.conjugate_gen(move[1], move[0]) == f
        if descent is not None:
            f, g = descent
            assert f in seen and wd.length(wd.conjugate_gen(g, f)) < le
        plateau, path = descend_to_minimal(wd, e)
        pset = set(plateau)
        lmin = wd.length(plateau[0])
        # the plateau is closed under equal-length moves and has no descent
        for p in plateau:
            assert wd.length(p) == lmin
            for g in wd.gen_names:
                h = wd.conjugate_gen(g, p)
                assert h in pset or wd.length(h) > lmin, (wd.render(p), g)
        cur = e
        for g, h in path:
            assert wd.conjugate_gen(g, cur) == h
            cur = h
        assert cur in pset
        ref = _exhaustive_plateau(wd, e)
        assert pset <= ref, wd.render(e)
        assert lmin == wd.length(next(iter(ref)))
        if e in class_of:
            rec = classify(wd, e, classes)
            assert [r for r in classes if class_of[e] & set(r.min_reps)] == [rec]


def test_descend_examples():
    wd = wd_of("sl2")
    e = wd.evaluate_word(["s1", "s0", "s1"])
    plateau, path = descend_to_minimal(wd, e)
    assert {wd.length(p) for p in plateau} == {1}
    assert wd.generator_elt("s0") in plateau
    assert path and path[-1][1] in plateau
    for s in wd.affine_simple:
        plateau, _ = descend_to_minimal(wd, s.elt)
        assert all(wd.length(p) == 1 for p in plateau)
    plateau, path = descend_to_minimal(wd, wd.identity())
    assert plateau == [wd.identity()] and path == []


def test_newton_zero_counts():
    for name, want in (("sl2", 3), ("pgl2", 3), ("c2-aff", 9), ("c2-ext", 9)):
        classes = newton_zero_classes(wd_of(name), 8)
        assert len(classes) == want
    c2 = newton_zero_classes(wd_of("c2-aff"), 8)
    assert sum(1 for r in c2 if r.elliptic) == 5
    labels = {r.label for r in c2 if r.elliptic}
    assert labels == {"s1s2", "s1s2s1s2", "s0s2", "s0s1", "s0s1s0s1"}


def test_sl2_class_labels():
    classes = newton_zero_classes(wd_of("sl2"), 8)
    assert [r.label for r in classes] == ["1", "s0", "s1"]
    assert all(all(c == 0 for c in r.newton) for r in classes)


def test_pgl2_classes_include_tau():
    classes = newton_zero_classes(wd_of("pgl2"), 8)
    labels = [r.label for r in classes]
    assert "tau" in labels
    tau_rec = next(r for r in classes if r.label == "tau")
    assert tau_rec.min_length == 0
    assert tau_rec.elliptic


def test_classify():
    wd = wd_of("sl2")
    classes = newton_zero_classes(wd, 8)
    e = wd.evaluate_word(["s1", "s0", "s1"])
    assert classify(wd, e, classes).label == "s0"
    assert classify(wd, wd.identity(), classes).label == "1"
    wdp = wd_of("pgl2")
    classesp = newton_zero_classes(wdp, 8)
    tau = wdp.generator_elt("tau")
    s = wdp.generator_elt("s1")
    assert (
        classify(wdp, wdp.conjugate(tau, s), classesp).label
        == classify(wdp, s, classesp).label
    )
    # a class outside the list is NotFound
    with pytest.raises(NotFound):
        classify(wd, wd.translation((1,)), classes)


def test_oracle():
    wd = wd_of("sl2")
    s0, s1 = wd.generator_elt("s0"), wd.generator_elt("s1")
    assert not brute_force_conjugacy_oracle(wd, s0, s1, 10)
    e = wd.evaluate_word(["s1", "s0", "s1"])
    assert brute_force_conjugacy_oracle(wd, e, s0, 1)
    assert brute_force_conjugacy_oracle(wd, e, e, 0)


def test_oracle_agreement_radius6():
    """The class-key partition of the radius-6 finite-order ball equals the
    brute-force oracle's, on every preset and data file."""
    for name in _DATUMS:
        wd = wd_of(name)
        key_sets = {frozenset(g) for g in key_partition(wd, finite_order_ball(wd, 6))}
        assert key_sets == oracle_sets6(name), name


@pytest.mark.parametrize("name", ["sl2", "pgl2", "c2-aff", "sl3"])
def test_oracle_partition_equals_pairwise_conjugation(name):
    wd = wd_of(name)
    elems = finite_order_ball(wd, 6)
    index = {e: i for i, e in enumerate(elems)}
    pairs = [
        (index[e], index[h])
        for g in wd.enumerate_ball(6)
        for e in elems
        if (h := wd.conjugate(g, e)) in index
    ]
    naive = {}
    for e, root in zip(elems, union_find(len(elems), pairs)):
        naive.setdefault(root, set()).add(e)
    assert {frozenset(g) for g in naive.values()} == {
        frozenset(g) for g in oracle_partition(wd, elems, 6)
    }


def test_minimality_certificate():
    for name in ("sl2", "pgl2", "c2-aff"):
        wd = wd_of(name)
        for rec in newton_zero_classes(wd, 8):
            for e in rec.min_reps:
                for s in wd.affine_simple:
                    assert wd.length(wd.conjugate(s.elt, e)) >= rec.min_length


def test_min_reps_pairwise_conjugate():
    for name in ("sl2", "c2-aff"):
        wd = wd_of(name)
        for rec in newton_zero_classes(wd, 8):
            for e in rec.min_reps[:4]:
                assert brute_force_conjugacy_oracle(wd, rec.rep, e, 6)


def test_count_identity_all_presets():
    for name, want in (("sl2", 3), ("pgl2", 3), ("c2-aff", 9), ("c2-ext", 9)):
        rep = count_identity_check(wd_of(name))
        assert rep.ok, rep
        assert rep.total == rep.expected == want


def test_count_identity_per_J_c2():
    rep = count_identity_check(wd_of("c2-aff"))
    per = dict(rep.per_J)
    assert per[()] == 1
    assert per[(0, 1)] == 5
    assert sorted(per.values()) == [1, 1, 2, 5]


def test_classes_sorted_and_records():
    wd = wd_of("c2-aff")
    classes = newton_zero_classes(wd, 8)
    lengths = [r.min_length for r in classes]
    assert lengths == sorted(lengths)
    for r in classes:
        assert all(wd.length(e) == r.min_length for e in r.min_reps)
        js = r.to_json(wd)
        assert set(js) == {"rep", "min_length", "newton", "elliptic", "label"}


def test_bound_below_a_minimal_length_raises():
    """A bound L is an assertion: below the largest minimal length it raises,
    naming how many classes lie above it; at that length it gives the
    unbounded records."""
    wd = WeylData(load_datum(str(_DATA / "b3q.json")))
    records = newton_zero_classes(wd)
    top = max(r.min_length for r in records)
    above = sum(r.min_length > top - 1 for r in records)
    want = rf"^{above} of {len(records)} Newton-zero classes have minimal length > L={top - 1}$"
    with pytest.raises(UnstableAtBound, match=want):
        newton_zero_classes(wd, top - 1)
    assert newton_zero_classes(wd, top) == records
