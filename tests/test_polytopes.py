import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycol.exactmath import dot, mat_mul, mat_vec, rank_int, vec_add, vec_sub
from polycol.polytopes import (
    dilate,
    integral_affine_equivalent,
    is_unimodular_simplex,
    linear_image,
    normal_fan,
    normalize_full_dim,
    normalized_volume,
    polygon_cycle,
    polygon_normal_form,
    polytope_from_points,
    projectively_equivalent,
    translate,
    unimodular_frame_map,
)
from polycol.scan import enumerate_polygons

from .conftest import (
    BIG_TRAPEZOID,
    HEXAGON,
    SEGMENT,
    SIMPLEX3,
    SLANTED_QUAD,
    SQUARE_PYRAMID,
    TRAPEZOID,
    TRIANGLE,
    TRIANGLE2,
    UNIT_SQUARE,
)
from .helpers import brute_force_polygon_equivalent, facet_scan_oracle


def test_constructor_validation():
    with pytest.raises(ValueError):
        polytope_from_points([])
    with pytest.raises(ValueError):
        polytope_from_points([(0, 0), (1,)])
    with pytest.raises(ValueError):
        polytope_from_points([(0, 0), (0.5, 1)])


def test_vertex_extraction():
    p = polytope_from_points([(0, 0), (2, 0), (1, 0)])
    assert p.vertices == ((0, 0), (2, 0))
    assert p.dim == 1
    assert HEXAGON.vertices == tuple(
        sorted([(0, 0), (5, 0), (5, 2), (4, 3), (2, 3), (1, 2)])
    )


def test_square_facets():
    got = {(f.normal, f.offset) for f in UNIT_SQUARE.facets}
    assert got == {((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)}


def test_triangle_facets():
    got = {(f.normal, f.offset) for f in TRIANGLE.facets}
    assert got == {((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)}


def test_trapezoid_facets():
    # oracle: brute-force supporting-hyperplane scan
    got = {(f.normal, f.offset) for f in TRAPEZOID.facets}
    assert ((-1, -1), -2) in got
    assert got == set(facet_scan_oracle(TRAPEZOID.vertices, 2))


def test_facets_against_scan_oracle(corpus):
    for p in corpus:
        if p.ambient_dim < 1 or len(p.vertices) > 12:
            continue
        assert sorted((f.normal, f.offset) for f in p.facets) == \
            facet_scan_oracle(p.vertices, p.ambient_dim), p.name


def test_facets_against_scan_oracle_random():
    # randomized differential test across dimensions 2-4
    import random

    rng = random.Random(9)
    for _ in range(60):
        n = rng.choice([2, 2, 3, 3, 4])
        box = 4 if n == 2 else 3 if n == 3 else 2
        k = rng.randint(n + 1, n + 5)
        pts = [tuple(rng.randint(0, box) for _ in range(n)) for _ in range(k)]
        p = polytope_from_points(pts)
        if p.dim != n:
            continue
        assert sorted((f.normal, f.offset) for f in p.facets) == \
            facet_scan_oracle(p.vertices, n)


def test_facets_require_full_dim():
    p = polytope_from_points([(0, 0), (2, 0)])
    with pytest.raises(ValueError):
        p.facets


def test_lattice_points():
    assert TRIANGLE.lattice_points == ((0, 0), (0, 1), (1, 0))
    assert len(TRAPEZOID.lattice_points) == 5
    # all 19 hexagon points, row by row: 6 + 5 + 5 + 3
    assert len(HEXAGON.lattice_points) == 19
    rows = {}
    for x, y in HEXAGON.lattice_points:
        rows[y] = rows.get(y, 0) + 1
    assert rows == {0: 6, 1: 5, 2: 5, 3: 3}
    assert len(SLANTED_QUAD.lattice_points) == 9


def test_lattice_points_box_oracle(corpus):
    # independent enumeration: test every box point against every facet
    for p in corpus:
        if not p.is_full_dimensional:
            continue
        n = p.ambient_dim
        lows = [min(v[i] for v in p.vertices) for i in range(n)]
        highs = [max(v[i] for v in p.vertices) for i in range(n)]
        expected = []
        for z in itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
        ):
            if all(
                dot(f.normal, z) >= f.offset for f in p.facets
            ):
                expected.append(z)
        assert list(p.lattice_points) == expected


def test_hv_consistency(corpus):
    for p in corpus:
        if not p.is_full_dimensional or p.ambient_dim == 0:
            continue
        for v in p.vertices:
            assert all(dot(f.normal, v) >= f.offset for f in p.facets)
        for f in p.facets:
            anchor = min(f.points_on)
            diffs = [vec_sub(z, anchor) for z in f.points_on if z != anchor]
            assert rank_int(diffs) == p.dim - 1 if diffs else p.dim == 1


def test_facet_minimality(corpus):
    # dropping a facet inequality enlarges the polytope: a rational point
    # just beyond the facet's barycenter satisfies every other inequality.
    # (The sliver beyond a facet need not contain a lattice point: the
    # hexagon's short slant edge is a concrete case, so the witness is
    # rational rather than integral.)
    from fractions import Fraction

    for p in corpus:
        if not p.is_full_dimensional or p.ambient_dim == 0:
            continue
        n = p.ambient_dim
        for f in p.facets:
            bary = tuple(
                Fraction(sum(z[i] for z in f.points_on), len(f.points_on))
                for i in range(n)
            )
            others = [g for g in p.facets if g is not f]
            eps = Fraction(1)
            found = False
            for _ in range(30):
                z = tuple(b - eps * a for b, a in zip(bary, f.normal))
                if dot(f.normal, z) < f.offset and all(
                    dot(g.normal, z) >= g.offset for g in others
                ):
                    found = True
                    break
                eps /= 2
            assert found, (p.name, f)


def test_height():
    bottom = next(f for f in HEXAGON.facets if f.key() == ((0, 1), 0))
    assert HEXAGON.height(bottom, (1, 1), 1) == 1
    assert HEXAGON.height(bottom, (3, 0), 1) == 0
    assert HEXAGON.height(bottom, (0, -1), 0) == -1
    for z in HEXAGON.lattice_points:
        h = HEXAGON.height(bottom, z, 1)
        assert h >= 0
        assert (h == 0) == (z in bottom.points_on)
    foreign = UNIT_SQUARE.facets[0]
    with pytest.raises(ValueError):
        SLANTED_QUAD.height(foreign, (0, 0), 1)


def test_normalize_segment_in_plane():
    p = polytope_from_points([(0, 0), (2, 0)])
    q, carry = normalize_full_dim(p)
    assert q.ambient_dim == 1
    assert q.vertices == ((0,), (2,))
    assert q.lattice_points == ((0,), (1,), (2,))
    for z in q.lattice_points:
        back = carry.inverse.apply(z)
        assert carry.apply(back) == z


def test_normalize_idempotent(corpus):
    for p in corpus:
        q, carry = normalize_full_dim(p)
        assert q.is_normalized
        q2, carry2 = normalize_full_dim(q)
        assert q2 is q
        assert carry2.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(q.ambient_dim))
            for i in range(q.ambient_dim)
        )


def test_normalize_already_normalized_translated():
    p = translate(TRIANGLE2, (5, -7))
    q, carry = normalize_full_dim(p)
    assert q is p  # unchanged, including the translation


def test_normalize_sublattice():
    # the coarse lattice on a line gets rescaled to unit steps
    p = polytope_from_points([(0, 0), (4, 2)])
    q, carry = normalize_full_dim(p)
    assert q.ambient_dim == 1
    assert len(q.lattice_points) == 3
    assert max(v[0] for v in q.vertices) - min(v[0] for v in q.vertices) == 2


def test_normalize_empty_simplex():
    # lattice points generate an index-2 sublattice; heights halve
    p = polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert not p.is_normalized
    q, _ = normalize_full_dim(p)
    assert q.is_normalized
    assert len(q.lattice_points) == len(p.lattice_points) == 4


def test_unimodular_simplex():
    assert is_unimodular_simplex(SIMPLEX3)
    assert is_unimodular_simplex(TRIANGLE)
    assert not is_unimodular_simplex(polytope_from_points([(0, 0), (2, 0), (0, 1)]))
    assert not is_unimodular_simplex(polytope_from_points([(0, 0), (1, 0), (1, 2)]))
    assert not is_unimodular_simplex(UNIT_SQUARE)


def test_integral_affine_equivalence():
    m = integral_affine_equivalent(UNIT_SQUARE, translate(UNIT_SQUARE, (7, -3)))
    assert m is not None
    assert m.matrix == ((1, 0), (0, 1))
    assert m.translation == (7, -3)
    sheared = polytope_from_points([(0, 0), (1, 0), (1, 1)])
    assert integral_affine_equivalent(TRIANGLE, sheared) is not None
    assert integral_affine_equivalent(TRIANGLE, TRIANGLE2) is None


def test_iae_reflexive_symmetric(corpus):
    for p in corpus:
        if not p.is_full_dimensional:
            continue
        m = integral_affine_equivalent(p, p)
        assert m is not None
    for p, q in [(TRIANGLE, polytope_from_points([(0, 0), (1, 0), (1, 1)]))]:
        fwd = integral_affine_equivalent(p, q)
        back = integral_affine_equivalent(q, p)
        assert fwd is not None and back is not None
        for v in p.vertices:
            assert back.apply(fwd.apply(v)) in set(p.vertices)


def test_iae_invariants():
    pairs = [
        (TRIANGLE, polytope_from_points([(0, 0), (1, 0), (1, 1)])),
        (UNIT_SQUARE, linear_image(UNIT_SQUARE, ((1, 1), (0, 1)))),
    ]
    for p, q in pairs:
        assert integral_affine_equivalent(p, q) is not None
        assert len(p.lattice_points) == len(q.lattice_points)
        assert len(p.facets) == len(q.facets)
        assert normalized_volume(p) == normalized_volume(q)


def test_normalized_volume():
    assert normalized_volume(TRIANGLE) == 1
    assert normalized_volume(TRIANGLE2) == 4
    assert normalized_volume(UNIT_SQUARE) == 2
    assert normalized_volume(SIMPLEX3) == 1
    assert normalized_volume(SEGMENT) == 1
    assert normalized_volume(SQUARE_PYRAMID) == 2


def test_normal_fan():
    fan = normal_fan(UNIT_SQUARE)
    assert len(fan.cones) == 4
    gens = sorted(g for _, g in fan.cones)
    assert gens == [
        ((-1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((0, -1), (1, 0)),
        ((0, 1), (1, 0)),
    ]
    assert len(normal_fan(TRIANGLE).cones) == 3
    assert normal_fan(TRIANGLE) == normal_fan(TRIANGLE2)


def test_normal_fan_covers_dual_space(corpus):
    # every functional is maximized at some vertex, inside that vertex's cone
    import random

    rng = random.Random(1)
    for p in corpus:
        if not p.is_full_dimensional or p.ambient_dim == 0:
            continue
        fan = normal_fan(p)
        cone_by_vertex = dict(fan.cones)
        for _ in range(20):
            phi = tuple(rng.randint(-5, 5) for _ in range(p.ambient_dim))
            best = max(p.vertices, key=lambda v: dot(phi, v))
            if [dot(phi, v) for v in p.vertices].count(dot(phi, best)) > 1:
                continue  # ties sit on cone boundaries
            assert all(dot(phi, g) >= 0 for g in cone_by_vertex[best])


def test_projective_equivalence():
    assert projectively_equivalent(UNIT_SQUARE, dilate(UNIT_SQUARE, 2))
    assert not projectively_equivalent(UNIT_SQUARE, TRAPEZOID)
    # distinct normal sets, computed by hand from the edge data
    quad_normals = {f.normal for f in SLANTED_QUAD.facets}
    trap_normals = {f.normal for f in TRAPEZOID.facets}
    assert quad_normals == {(0, 1), (-1, 0), (0, -1), (1, -1)}
    assert trap_normals == {(0, 1), (1, 0), (0, -1), (-1, -1)}
    assert not projectively_equivalent(SLANTED_QUAD, TRAPEZOID)


def test_projective_equivalence_translation_dilation(corpus):
    for p in corpus:
        if not p.is_full_dimensional or p.ambient_dim == 0:
            continue
        t = tuple(3 for _ in range(p.ambient_dim))
        assert projectively_equivalent(p, translate(p, t))
        assert projectively_equivalent(p, dilate(p, 2))
        assert projectively_equivalent(p, dilate(p, 3))


def test_projective_equivalence_matches_fan_equality():
    # incidence matching must agree with the direct cone construction
    polys = [
        TRIANGLE,
        TRIANGLE2,
        UNIT_SQUARE,
        TRAPEZOID,
        BIG_TRAPEZOID,
        SLANTED_QUAD,
        HEXAGON,
        dilate(TRAPEZOID, 2),
        translate(UNIT_SQUARE, (4, 4)),
    ]
    for p, q in itertools.product(polys, repeat=2):
        assert projectively_equivalent(p, q) == (normal_fan(p) == normal_fan(q))


def test_polygon_cycle():
    cyc = polygon_cycle(UNIT_SQUARE)
    assert set(cyc) == set(UNIT_SQUARE.vertices)
    # consecutive cross products all positive: counterclockwise
    m = len(cyc)
    for i in range(m):
        a = vec_sub(cyc[(i + 1) % m], cyc[i])
        b = vec_sub(cyc[(i + 2) % m], cyc[(i + 1) % m])
        assert a[0] * b[1] - a[1] * b[0] > 0


def test_polygon_cycle_starts_at_angle_zero():
    # counterclockwise around the centroid (2/3, 2/3), from the first vertex
    # whose direction lies in [0, pi)
    cyc = polygon_cycle(polytope_from_points([(0, 0), (2, 1), (0, 1)]))
    assert cyc == ((2, 1), (0, 1), (0, 0))
    assert polygon_cycle(HEXAGON)[0] == (5, 2)


def _box2_polygons():
    return [polytope_from_points(c) for c in enumerate_polygons(2)]


def test_normal_form_matches_brute_force_oracle():
    polys = _box2_polygons()
    pairs = 0
    for p, q in itertools.combinations(polys, 2):
        if len(p.lattice_points) != len(q.lattice_points):
            continue
        if len(p.vertices) != len(q.vertices):
            continue
        pairs += 1
        same = polygon_normal_form(p) == polygon_normal_form(q)
        assert same == brute_force_polygon_equivalent(p.vertices, q.vertices)
        assert same == (integral_affine_equivalent(p, q) is not None)
    assert pairs == 922  # 562 of them equivalent


NEAR_MISS = (
    polytope_from_points([(0, 0), (0, 1), (1, 0), (2, 2)]),
    polytope_from_points([(0, 0), (0, 1), (2, 1), (2, 2)]),
)


def test_normal_form_separates_near_miss():
    p, q = NEAR_MISS
    assert len(p.lattice_points) == len(q.lattice_points) == 5
    assert len(p.vertices) == len(q.vertices) == 4
    assert normalized_volume(p) == normalized_volume(q) == 4
    assert polygon_normal_form(p) != polygon_normal_form(q)
    assert not brute_force_polygon_equivalent(p.vertices, q.vertices)
    assert integral_affine_equivalent(p, q) is None


def test_near_miss_is_the_only_one_in_box2():
    # classes sharing lattice-point count, vertex count and volume
    groups = {}
    for p in _box2_polygons():
        key = (len(p.lattice_points), len(p.vertices), normalized_volume(p))
        groups.setdefault(key, set()).add(polygon_normal_form(p))
    clashes = [forms for forms in groups.values() if len(forms) > 1]
    assert clashes == [{polygon_normal_form(p) for p in NEAR_MISS}]


# generators of GL2(Z) with a shear size
_GL2_STEPS = st.lists(
    st.tuples(st.sampled_from(["upper", "lower", "swap", "flip"]),
              st.integers(-3, 3)),
    max_size=5,
)


def _gl2(steps):
    u = ((1, 0), (0, 1))
    for kind, k in steps:
        g = {
            "upper": ((1, k), (0, 1)),
            "lower": ((1, 0), (k, 1)),
            "swap": ((0, 1), (1, 0)),
            "flip": ((-1, 0), (0, 1)),
        }[kind]
        u = mat_mul(g, u)
    return u


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
             min_size=3, max_size=8),
    _GL2_STEPS,
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_normal_form_invariant_under_unimodular_maps(points, steps, shift):
    p = polytope_from_points(points)
    assume(p.dim == 2)
    u = _gl2(steps)
    q = polytope_from_points([vec_add(mat_vec(u, v), shift) for v in points])
    assert polygon_normal_form(q) == polygon_normal_form(p)
    amap = integral_affine_equivalent(p, q)
    assert amap is not None
    assert {amap.apply(v) for v in p.vertices} == set(q.vertices)
    for v in p.lattice_points:
        assert amap.inverse.apply(amap.apply(v)) == v
    for w in q.lattice_points:
        assert amap.apply(amap.inverse.apply(w)) == w


def test_unimodular_frame_map():
    frame = ((1, 1), (2, 1), (1, 2))
    amap = unimodular_frame_map(frame, ((0, 0), (1, 1), (0, 1)))
    assert amap.matrix == ((1, 0), (1, 1))
    assert amap.translation == (-1, -2)
    assert [amap.apply(v) for v in frame] == [(0, 0), (1, 1), (0, 1)]
    assert amap.inverse.apply((1, 1)) == (2, 1)
    # index 2 images and non-integral maps are refused
    assert unimodular_frame_map(frame, ((0, 0), (2, 0), (0, 1))) is None
    assert unimodular_frame_map(
        ((0, 0), (2, 0), (0, 1)), ((0, 0), (1, 1), (0, 2))
    ) is None
