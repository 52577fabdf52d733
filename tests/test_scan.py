"""The class-first polygon scan against its per-polygon slow paths."""

import hashlib
import inspect
import json
import sys
import tracemalloc

import pytest

from polycol import columns, polytopes, scan
from polycol.cli import main
from polycol.columns import UnclassifiablePolygonError
from polycol.polytopes import (
    InternalCheckError,
    cycle_normal_form,
    polygon_cycle,
    polygon_normal_form,
    polytope_from_points,
)
from polycol.scan import enumerate_polygons, scan_polygons

from . import helpers
from .helpers import per_polygon_scan, unpruned_enumerate_polygons

UNIT_TRIANGLE = polytope_from_points([(0, 0), (1, 0), (0, 1)])


@pytest.mark.parametrize("box", [1, 2, 3])
def test_enumeration_matches_unpruned_oracle(box):
    # same polygons in the same order: the scan's sample draws follow it
    assert enumerate_polygons(box) == unpruned_enumerate_polygons(box)


def _enumeration_work(box):
    """(path nodes, candidate steps) of ``enumerate_polygons(box)``: the
    calls of its nested ``rec``, and the runs of its bounding-box test, one
    per step tried along a direction."""
    lines, first = inspect.getsourcelines(enumerate_polygons)
    box_test = first + next(
        i for i, line in enumerate(lines) if "nhi_x - nlo_x > box" in line
    )
    nodes = steps = 0

    def in_rec(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == box_test:
            steps += 1
        return in_rec

    def on_call(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if code.co_name == "rec" and code.co_filename == scan.__file__:
            nodes += 1
            return in_rec
        return None

    sys.settrace(on_call)
    try:
        enumerate_polygons(box)
    finally:
        sys.settrace(None)
    return nodes, steps


@pytest.mark.parametrize("box, work", [
    (1, (21, 73)),
    (2, (334, 1136)),
    (3, (4644, 17795)),
    (4, (56918, 224897)),
])
def test_enumeration_work_is_pinned(box, work):
    # the stop tables end a path at a point where no direction left can
    # close it; a table read at the wrong index tries steps that leave the
    # box at once, which the step count sees even where the nodes agree
    assert _enumeration_work(box) == work


@pytest.mark.parametrize("box, digest", [
    (3, "ac1f09afb4baba71a5a6db7d5dbf0c18a8c4ca192d968934bc6054e774c7203b"),
    (4, "b39e915148e093975cd9f5c7e8c402ab7b9560c80bf77dbb2c193e6261ba1c6b"),
])
def test_enumeration_order_is_pinned(box, digest):
    # the unpruned oracle is too slow on box 4, whose scan draws its sample
    # in this order too
    listing = json.dumps(enumerate_polygons(box)).encode()
    assert hashlib.sha256(listing).hexdigest() == digest


@pytest.mark.parametrize("box", [2, 3])
def test_cycles_are_hull_vertex_cycles(box):
    for cycle in enumerate_polygons(box):
        p = polytope_from_points(cycle)
        assert tuple(sorted(cycle)) == p.vertices
        ccw = polygon_cycle(p)
        start = cycle.index(ccw[0])
        assert cycle[start:] + cycle[:start] == ccw
        form = polygon_normal_form(p)
        for i in range(len(cycle)):
            rotated = cycle[i:] + cycle[:i]
            assert cycle_normal_form(rotated) == form
            assert cycle_normal_form(rotated[::-1]) == form


@pytest.mark.parametrize(
    "box, seed, rate",
    [(1, 0, 0.01), (1, 7, 0.01), (2, 0, 0.01), (2, 7, 0.01),
     (3, 0, 0.01), (3, 7, 0.01), (2, 0, 1.0)],
)
def test_scan_matches_per_polygon_oracle(box, seed, rate):
    assert scan_polygons(box, seed, rate) == per_polygon_scan(box, seed, rate)


def _mask(points, bit):
    return sum(bit[x][y] for x, y in points)


@pytest.mark.parametrize("box", [1, 2, 3])
def test_box_images_are_the_orbit_oracle(box):
    cycles = enumerate_polygons(box)
    bit = scan._grid_bits(box)
    orbit_of = {
        member: {_mask(m, bit) for m in orbit}
        for orbit in helpers.box_symmetry_orbits(cycles) for member in orbit
    }
    for cycle in cycles:
        images = set(scan._box_images(cycle, bit))
        assert images | {_mask(cycle, bit)} == orbit_of[frozenset(cycle)]


@pytest.mark.parametrize("box, orbits", [(1, 2), (2, 25), (3, 248)])
def test_scan_computes_one_normal_form_per_box_orbit(monkeypatch, box, orbits):
    calls = []

    def counting(cyc):
        calls.append(cyc)
        return cycle_normal_form(cyc)

    monkeypatch.setattr(scan, "cycle_normal_form", counting)
    scan_polygons(box)
    assert len(calls) == orbits
    assert len(helpers.box_symmetry_orbits(enumerate_polygons(box))) == orbits


@pytest.mark.parametrize("box", [1, 2, 3])
def test_cycle_forms_match_cycle_normal_form(box):
    cycles = enumerate_polygons(box)
    classes, least = scan._cycle_classes(cycles, box)
    ids = {}  # class ids number the forms by first appearance
    members = {}
    for i, cycle in enumerate(cycles):
        form = cycle_normal_form(cycle)
        assert classes[i] == ids.setdefault(form, len(ids))
        members.setdefault(classes[i], []).append(tuple(sorted(cycle)))
    assert len(least) == len(ids)
    for c, i in enumerate(least):
        assert tuple(sorted(cycles[i])) == min(members[c])


@pytest.mark.parametrize("drop", [0, 1])
def test_polygon_missing_from_its_box_orbit_exits_3(monkeypatch, capsys, drop):
    cycles = enumerate_polygons(2)
    orbit = max(helpers.box_symmetry_orbits(cycles), key=len)
    members = [c for c in cycles if frozenset(c) in orbit]
    assert len(members) > 1
    # dropping the first member moves the form computation to the second
    kept = [c for c in cycles if c != members[drop]]
    monkeypatch.setattr(scan, "enumerate_polygons", lambda box: kept)
    code = main(["scan-polygons", "--box", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: ")
    assert captured.err.count("\n") == 1


def _members(box, form):
    return [
        c for c in enumerate_polygons(box)
        if polygon_normal_form(polytope_from_points(c)) == form
    ]


def test_failing_class_lists_every_member(monkeypatch):
    target = polygon_normal_form(UNIT_TRIANGLE)
    real = columns.is_col_divisible

    def patched(p):
        if polygon_normal_form(p) == target:
            return False, ("patched", p.vertices)
        return real(p)

    monkeypatch.setattr(scan, "is_col_divisible", patched)
    monkeypatch.setattr(helpers, "is_col_divisible", patched)
    members = _members(2, target)
    assert len(members) > 1
    summary = scan_polygons(2, seed=7)
    assert summary["col_divisibility_failures"] == [
        {"vertices": [list(v) for v in sorted(c)],
         "witness": repr(("patched", tuple(sorted(c))))}
        for c in members
    ]
    assert summary == per_polygon_scan(2, seed=7)


def test_failing_representative_with_passing_member_is_a_broken_invariant(
        monkeypatch):
    rep = min(tuple(sorted(c))
              for c in _members(2, polygon_normal_form(UNIT_TRIANGLE)))
    real = columns.is_col_divisible

    def patched(p):
        return (False, "patched") if p.vertices == rep else real(p)

    monkeypatch.setattr(scan, "is_col_divisible", patched)
    with pytest.raises(InternalCheckError):
        scan_polygons(2)


def test_sample_recheck_reports_members_unlike_their_class(monkeypatch):
    triangles = _members(1, polygon_normal_form(UNIT_TRIANGLE))
    assert len(triangles) == 4
    rep = min(tuple(sorted(c)) for c in triangles)
    real = columns.is_col_divisible

    def patched(p):
        if len(p.vertices) == 3 and p.vertices != rep:
            return False, "patched"
        return real(p)

    monkeypatch.setattr(scan, "is_col_divisible", patched)
    summary = scan_polygons(1, sample_rate=1.0)
    assert summary["sample_recheck"]["checked"] == 5
    assert summary["col_divisibility_failures"] == []
    # every triangle but the class representative differs from its class
    assert summary["sample_recheck"]["failures"] == [
        [list(v) for v in sorted(c)] for c in triangles if tuple(sorted(c)) != rep
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_scan_walks_lattice_points_of_the_sample_only(monkeypatch, seed):
    # class representatives take their columns from the edge normals, so
    # only the sampled polygons' unpruned search walks lattice points; the
    # members of a failing class would walk none either, and box 3 has none
    walked = []
    walk = polytopes.Polytope._fibre_lattice_points

    def counted(p):
        walked.append(p.vertices)
        return walk(p)

    monkeypatch.setattr(polytopes.Polytope, "_fibre_lattice_points", counted)
    summary = scan_polygons(3, seed=seed)
    assert summary["col_divisibility_failures"] == []
    assert len(walked) == summary["sample_recheck"]["checked"] > 10


def test_sample_recheck_compares_pruned_and_unpruned_columns(monkeypatch):
    monkeypatch.setattr(scan, "column_vectors", lambda p, pruned=True: [])
    summary = scan_polygons(1, sample_rate=1.0)
    assert summary["sample_recheck"]["failures"] == [
        [list(v) for v in sorted(c)] for c in enumerate_polygons(1)
    ]


def test_unclassifiable_polygon_is_listed_and_exits_1(monkeypatch, capsys):
    real = columns.classify_balanced_polygon

    def patched(p):
        cls = real(p)
        if cls.label == "e":
            raise UnclassifiablePolygonError("patched")
        return cls

    monkeypatch.setattr(scan, "classify_balanced_polygon", patched)
    code = main(["scan-polygons", "--box", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["unclassified"] == [
        {"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]], "error": "patched"}
    ]
    assert out["class_counts"] == {"a": 1}


@pytest.mark.parametrize(
    "exc, prefix",
    [(KeyError("patched"), "internal error: KeyError: "),
     (InternalCheckError("patched"), "internal check failed: ")],
)
def test_other_classification_errors_exit_3(monkeypatch, capsys, exc, prefix):
    def patched(p):
        raise exc

    monkeypatch.setattr(scan, "classify_balanced_polygon", patched)
    code = main(["scan-polygons", "--box", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(prefix)


def test_scan_memory_peak_is_pinned():
    # the classing pass keys polygons by vertex masks and holds one int per
    # pending orbit member; representatives are dropped once classified.
    # A first scan in a fresh process peaks at 3.4 MB, a later one at 2.6 MB
    tracemalloc.start()
    try:
        scan_polygons(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 10**6
