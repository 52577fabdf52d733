import ast
import inspect
import itertools
import random
import time
import tracemalloc
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycol.exactmath import (
    dot,
    extended_gcd,
    hermite_normal_form,
    identity_matrix,
    mat_mul,
    mat_vec,
    rank_int,
    vec_add,
    vec_sub,
)
from polycol import polytopes
from polycol.algebra import lattice_symmetries
from polycol.doubling import doubling_spectrum
from polycol.polytopes import (
    InternalCheckError,
    cycle_normal_form,
    dilate,
    fan_normal_form,
    integral_affine_equivalent,
    is_unimodular_simplex,
    lattice_equivalences,
    normal_fan,
    normalize_full_dim,
    normalized_volume,
    polygon_cycle,
    polygon_normal_form,
    polytope_from_points,
    unimodular_frame_maps,
    vertex_adjacency,
)
from polycol.scan import enumerate_polygons

from .conftest import (
    BIG_TRAPEZOID,
    CORPUS,
    EMPTY_SIMPLEX,
    HEXAGON,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SEGMENT,
    SIMPLEX3,
    SLANTED_QUAD,
    SQUARE_PYRAMID,
    TRAPEZOID,
    TRIANGLE,
    TRIANGLE2,
    TRIANGLE_X_TRIANGLE,
    UNIT_SQUARE,
)
from .helpers import (
    all_frames_cycle_normal_form,
    box_scan_lattice_points,
    brute_force_polygon_equivalent,
    facet_key,
    facet_points,
    facet_scan_oracle,
    fan_witness,
    frame_forms,
    gram_inverse_chart,
    height,
    linear_image,
    minor_loop_is_unimodular_simplex,
    off_facet_minima,
    projectively_equivalent,
    random_normalized_polytopes,
    random_unimodular_matrix,
    rank_vertex_adjacency,
    sheared_images,
    translate,
    unimodular_images,
    unpruned_lattice_equivalences,
)


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


def assert_planar_hull_matches_slow_paths(points, oracle_pairs):
    p = polytope_from_points(points)
    # the general path: double description, then the points with two
    # independent active facets
    pts = sorted(set(points))
    pairs = polytopes.facet_inequalities(pts)
    assert p.vertices == tuple(polytopes._extreme_points(pts, pairs, 2))
    assert list(p._facet_pairs) == pairs == oracle_pairs
    assert p.dim == rank_int([vec_sub(v, p.vertices[0]) for v in p.vertices])
    # a polygon built from its vertices alone takes the same facets
    assert polytopes.Polytope(p.vertices, 2)._facet_pairs == p._facet_pairs


def test_planar_hull_matches_double_description_on_box3():
    # every enumerated cycle, and every polygon's lattice points, which add
    # points inside edges and in the interior
    for cycle in enumerate_polygons(3):
        oracle_pairs = facet_scan_oracle(cycle, 2)
        assert_planar_hull_matches_slow_paths(cycle, oracle_pairs)
        points = polytope_from_points(cycle).lattice_points
        assert_planar_hull_matches_slow_paths(points, oracle_pairs)


_COORD = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=9),
    st.tuples(_COORD, _COORD),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
def test_planar_hull_matches_double_description_random(points, base, step, ts):
    # random points, with repeats, and points on one line through base
    line = [vec_add(base, (t * step[0], t * step[1])) for t in ts]
    for pts in (points + points[:2], line, line + points[:1]):
        if rank_int([vec_sub(z, pts[0]) for z in pts]) == 2:
            assert_planar_hull_matches_slow_paths(pts, facet_scan_oracle(pts, 2))
            # its image on a plane in Z^3 takes the path through the chart
            def lift(z):
                return (z[0] + 2 * z[1], z[1] - 2 * z[0], 3 * z[0] - z[1])

            assert polytope_from_points(map(lift, pts)).vertices == tuple(
                sorted(map(lift, polytope_from_points(pts).vertices))
            )
        else:
            assert len(polytopes._convex_cycle(sorted(set(pts)))) < 3
            ends = [min(pts), max(pts)]
            assert polytope_from_points(pts).vertices == tuple(sorted(set(ends)))


def height_test_polytopes():
    """The CORPUS, three sheared, translated images of each polytope in it,
    and seeded random polygons and 3-polytopes: small and large
    coordinates."""
    rng = random.Random(13)
    out = [p for p in CORPUS if p.ambient_dim >= 1]
    out += [q for p in CORPUS for q in sheared_images(p, rng)]
    return out + random_normalized_polytopes(seed=3, count=20)


def test_facet_heights_and_zero_sets():
    for p in height_test_polytopes():
        pts = p.lattice_points
        assert p.facet_heights == tuple(
            tuple(dot(f.normal, x) - f.offset for x in pts) for f in p.facets
        ), p
        for f, row in zip(p.facets, p.facet_heights):
            assert f.on_facet == tuple(i for i, h in enumerate(row) if h == 0)


def test_off_facet_minima_brute_force():
    for p in height_test_polytopes():
        pts = p.lattice_points
        expected = tuple(
            tuple(
                min(
                    dot(g.normal, x) - g.offset
                    for x in pts
                    if dot(f.normal, x) != f.offset
                )
                for g in p.facets
            )
            for f in p.facets
        )
        assert off_facet_minima(p) == expected, p


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
    # independent enumeration: test every box point against every facet;
    # the last three polytopes are widest along x, y and z in turn, so each
    # coordinate serves as the fibre axis once
    widest = [
        polytope_from_points(verts)
        for verts in (
            [(0, 0, 0), (7, 1, 2), (1, 2, 0), (3, 0, 3)],
            [(0, 0, 0), (1, 7, 2), (2, 1, 0), (0, 3, 3)],
            [(0, 0, 0), (1, 2, 7), (2, 0, 1), (3, 3, 0)],
        )
    ]
    for p in corpus + widest:
        if p.is_full_dimensional:
            assert list(p.lattice_points) == box_scan_lattice_points(p)


def test_lattice_points_thin_triangle_with_huge_coordinates():
    # a unimodular triangle whose bounding box holds about 10^60 cells
    n = 10**30
    verts = ((0, 0), (n, n + 1), (n + 1, n + 2))
    assert polytope_from_points(verts).lattice_points == verts


def test_fibre_walk_refuses_more_fibres_than_the_limit(monkeypatch):
    # a box walks one fibre per value of its narrower coordinate
    monkeypatch.setattr(polytopes, "MAX_FIBRES", 3)
    at_limit = polytope_from_points(itertools.product(range(3), range(6)))
    assert len(at_limit.lattice_points) == 18
    over = polytope_from_points(itertools.product(range(4), range(6)))
    with pytest.raises(polytopes.LatticeWalkTooLargeError,
                       match="over 4 fibres, above 3"):
        over.lattice_points
    assert issubclass(polytopes.LatticeWalkTooLargeError, ValueError)


def test_fibre_limit_clears_the_huge_thin_triangles():
    # the thin triangle at N crosses N + 2 fibres in its own box, and 2 in
    # the reduced one at every N; the limit still clears the direct walk
    # at N = 10^6, the measured baseline of the walk before the reduction
    assert polytopes.MAX_FIBRES >= 10**6 + 2


def test_fibre_limit_applies_to_the_reduced_box(monkeypatch):
    n = 10**30
    thin = ((0, 0), (n, n + 1), (n + 1, n + 2))
    monkeypatch.setattr(polytopes, "MAX_FIBRES", 2)
    assert polytope_from_points(thin).lattice_points == thin
    monkeypatch.setattr(polytopes, "MAX_FIBRES", 1)
    with pytest.raises(polytopes.LatticeWalkTooLargeError,
                       match="over 2 fibres, above 1"):
        polytope_from_points(thin).lattice_points


def test_lattice_reduction_without_its_inverse_is_internal_error(monkeypatch):
    n = 10**30
    thin = polytope_from_points([(0, 0), (n, n + 1), (n + 1, n + 2)])
    shear = ((1, 1), (0, 1))
    monkeypatch.setattr(polytopes, "lll_reduce", lambda gram: (shear, shear))
    with pytest.raises(InternalCheckError, match="lost its inverse"):
        thin.lattice_points


def test_reduced_frame_is_walked_without_mapping_vertices(monkeypatch):
    # [0, 100]^2 crosses 101 fibres, more than the direct walk takes, and
    # its frame is already LLL-reduced: U is the identity, so neither the
    # vertices nor the facet normals are mapped
    reductions, mapped = [], []
    reduce, apply = polytopes.lll_reduce, polytopes.mat_vec
    monkeypatch.setattr(polytopes, "lll_reduce",
                        lambda gram: reductions.append(gram) or reduce(gram))
    monkeypatch.setattr(polytopes, "mat_vec",
                        lambda m, v: mapped.append(v) or apply(m, v))
    square = polytope_from_points([(0, 0), (100, 0), (0, 100), (100, 100)])
    assert square.lattice_points == tuple(itertools.product(range(101), repeat=2))
    assert len(reductions) == 1 and mapped == []
    # the thin triangle's frame is not reduced, and its vertices are mapped
    n = 10**30
    thin = ((0, 0), (n, n + 1), (n + 1, n + 2))
    assert polytope_from_points(thin).lattice_points == thin
    assert len(reductions) == 2 and len(mapped) > 3


def test_lattice_walk_refuses_more_points_than_the_limit(monkeypatch):
    # a 3 x 6 box walks 3 fibres of 6 points
    box = list(itertools.product(range(3), range(6)))
    monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 18)
    assert len(polytope_from_points(box).lattice_points) == 18
    monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 17)
    with pytest.raises(polytopes.LatticeWalkTooLargeError, match="past 17 points"):
        polytope_from_points(box).lattice_points
    # a box of 9 cells holding 6 points is counted before the walk
    triangle = [(0, 0), (2, 0), (0, 2)]
    monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 6)
    assert len(polytope_from_points(triangle).lattice_points) == 6
    monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 5)
    with pytest.raises(polytopes.LatticeWalkTooLargeError, match="past 5 points"):
        polytope_from_points(triangle).lattice_points
    # a fibre that would pass the limit is refused before it is built
    monkeypatch.undo()
    tall = polytope_from_points([(0, 0), (2, 0), (0, 10**12), (2, 10**12)])
    with pytest.raises(polytopes.LatticeWalkTooLargeError,
                       match=f"past {polytopes.MAX_LATTICE_POINTS} points"):
        tall.lattice_points


def test_hv_consistency(corpus):
    for p in corpus:
        if not p.is_full_dimensional or p.ambient_dim == 0:
            continue
        for v in p.vertices:
            assert all(dot(f.normal, v) >= f.offset for f in p.facets)
        for f in p.facets:
            anchor, *rest = facet_points(p, f)
            diffs = [vec_sub(z, anchor) for z in rest]
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
            on = facet_points(p, f)
            bary = tuple(Fraction(sum(z[i] for z in on), len(on)) for i in range(n))
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
    bottom = next(f for f in HEXAGON.facets if facet_key(f) == ((0, 1), 0))
    assert height(HEXAGON, bottom, (1, 1), 1) == 1
    assert height(HEXAGON, bottom, (3, 0), 1) == 0
    assert height(HEXAGON, bottom, (0, -1), 0) == -1
    for z in HEXAGON.lattice_points:
        h = height(HEXAGON, bottom, z, 1)
        assert h >= 0
        assert (h == 0) == (z in facet_points(HEXAGON, bottom))
    foreign = UNIT_SQUARE.facets[0]
    with pytest.raises(ValueError):
        height(SLANTED_QUAD, foreign, (0, 0), 1)


def test_normalize_segment_in_plane():
    p = polytope_from_points([(0, 0), (2, 0)])
    q, embed = normalize_full_dim(p)
    assert q.ambient_dim == 1
    assert q.vertices == ((0,), (2,))
    assert q.lattice_points == ((0,), (1,), (2,))
    assert sorted(embed.apply(z) for z in q.lattice_points) == list(p.lattice_points)


def test_normalize_idempotent(corpus):
    for p in corpus:
        q, embed = normalize_full_dim(p)
        assert q.is_normalized
        q2, embed2 = normalize_full_dim(q)
        assert q2 is q
        assert embed2.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(q.ambient_dim))
            for i in range(q.ambient_dim)
        )


def test_normalize_already_normalized_translated():
    p = translate(TRIANGLE2, (5, -7))
    q, embed = normalize_full_dim(p)
    assert q is p  # unchanged, including the translation


def test_normalize_sublattice():
    # the coarse lattice on a line gets rescaled to unit steps
    p = polytope_from_points([(0, 0), (4, 2)])
    q, embed = normalize_full_dim(p)
    assert q.ambient_dim == 1
    assert len(q.lattice_points) == 3
    assert max(v[0] for v in q.vertices) - min(v[0] for v in q.vertices) == 2


def _hnf_is_normalized(p):
    """``Polytope.is_normalized`` by the Hermite form in every dimension."""
    if not p.is_full_dimensional:
        return False
    if p.ambient_dim == 0:
        return True
    x0 = p.lattice_points[0]
    h, _ = hermite_normal_form([vec_sub(z, x0) for z in p.lattice_points[1:]])
    return tuple(r for r in h if any(r)) == identity_matrix(p.ambient_dim)


def _folds_to_identity(p):
    """The least k whose first k * n differences to the least lattice point
    generate Z^n, each prefix put into Hermite form whole, or
    ceil((|L_P| - 1) / n) when no prefix does."""
    n = p.ambient_dim
    x0, *rest = p.lattice_points
    diffs = [vec_sub(z, x0) for z in rest]
    folds = -(-len(diffs) // n)
    for k in range(1, folds + 1):
        h, _ = hermite_normal_form(diffs[:k * n])
        if tuple(r for r in h if any(r)) == identity_matrix(n):
            return k
    return folds


def test_is_normalized_matches_hermite_form(monkeypatch):
    hnf_calls = []

    def counted(rows):
        hnf_calls.append((len(rows), len(rows[0])))
        return hermite_normal_form(rows)

    monkeypatch.setattr("polycol.polytopes.hermite_normal_form", counted)
    rng = random.Random(14)
    vertex_lists = list(enumerate_polygons(3))
    assert len(vertex_lists) == 1633
    vertex_lists += [p.vertices for p in CORPUS]
    vertex_lists += [q.vertices for p in CORPUS for q in sheared_images(p, rng)]
    vertex_lists.append([(0, 0), (2, 2)])
    for vertices in vertex_lists:
        p = polytope_from_points(vertices)
        hnf_calls.clear()
        assert p.is_normalized == _hnf_is_normalized(p), vertices
        # Hermite forms only above dimension 2: one per n differences
        # folded in, until the first prefix of the differences that
        # generates Z^n, each on at most 2n rows of n columns
        n = p.ambient_dim
        hermite = p.is_full_dimensional and n > 2
        assert len(hnf_calls) == (_folds_to_identity(p) if hermite else 0)
        assert all(r <= 2 * n and c == n for r, c in hnf_calls)
    # the Reeve tetrahedron: its lattice points are its vertices, and they
    # span an index-3 sublattice
    reeve = polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
    assert len(reeve.lattice_points) == 4
    hnf_calls.clear()
    assert not reeve.is_normalized
    assert hnf_calls == [(3, 3)]
    assert not _hnf_is_normalized(reeve)


def test_normalize_round_trip_with_denominators():
    rng = random.Random(12)
    inputs = [
        polytope_from_points([(0, 0), (4, 2)]),
        polytope_from_points([(0, 0, 0), (2, 4, 6)]),
        EMPTY_SIMPLEX,
        REEVE_TETRAHEDRON,
        NON_NORMAL_SIMPLEX,
    ]
    # embed carries L_Q onto L_P, and Q is the image of P under the
    # Gram-inverse chart, whose denominators the back substitution avoids
    for p in inputs:
        for x in [p] + unimodular_images(p, rng) + sheared_images(p, rng):
            q, embed = normalize_full_dim(x)
            images = sorted(embed.apply(z) for z in q.lattice_points)
            assert images == list(x.lattice_points), x.vertices
            chart, _ = gram_inverse_chart(x)
            assert q.vertices == tuple(sorted(chart(v) for v in x.vertices))
    _, denominator = gram_inverse_chart(REEVE_TETRAHEDRON)
    assert denominator > 1


def test_chart_refuses_a_point_off_its_lattice():
    # (0, 0, 1) lies in aff(P) but off the lattice that L_P generates
    pts = REEVE_TETRAHEDRON.lattice_points
    h, _ = hermite_normal_form([vec_sub(z, pts[0]) for z in pts[1:]])
    basis = [r for r in h if any(r)]
    coords, embed = polytopes._chart(pts, basis)
    assert [embed.apply(c) for c in coords] == list(pts)
    with pytest.raises(InternalCheckError):
        polytopes._chart(pts + ((0, 0, 1),), basis)


def test_polytopes_module_imports_no_fractions():
    tree = ast.parse(inspect.getsource(polytopes))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "fractions" not in modules


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


def _unimodular_simplex_inputs():
    """The CORPUS, the other conftest simplices, the 3-cube and two points;
    seeded unimodular images of each; and embeddings of each into two and
    three more dimensions, by zero padding and a unimodular map, which keeps
    the answer, and by a random integer matrix, which may not."""
    rng = random.Random(30)
    cube = polytope_from_points(list(itertools.product((0, 1), repeat=3)))
    base = CORPUS + [NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX, cube,
                     polytope_from_points([()]), polytope_from_points([(5, -2)])]
    out = list(base)
    for p in base:
        n = p.ambient_dim
        if n:
            out += unimodular_images(p, rng)
        for m in (n + 2, n + 3):
            pad = tuple(tuple(int(i == j) for j in range(n)) for i in range(m))
            out.append(linear_image(linear_image(p, pad), random_unimodular_matrix(m, rng)))
            w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            out.append(polytope_from_points([mat_vec(w, v) for v in p.vertices]))
    return out


def test_unimodular_simplex_matches_minor_loop():
    inputs = _unimodular_simplex_inputs()
    verdicts = [is_unimodular_simplex(p) for p in inputs]
    assert verdicts == [minor_loop_is_unimodular_simplex(p) for p in inputs]
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_unimodular_simplex_in_z20_takes_one_hermite_form():
    # the minor loop takes C(20, 7) = 77,520 determinants on the 3-cube in
    # Z^20, all of them 0 since its 7 edges span a 3-space
    cube = polytope_from_points(
        [v + (0,) * 17 for v in itertools.product((0, 1), repeat=3)])
    simplex = polytope_from_points(
        [tuple(int(i == j) for j in range(20)) for i in range(-1, 7)])
    start = time.perf_counter()
    verdicts = is_unimodular_simplex(cube), is_unimodular_simplex(simplex)
    assert time.perf_counter() - start < 0.05
    assert verdicts == (False, True)
    assert minor_loop_is_unimodular_simplex(simplex)


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


def test_iae_refuses_lower_dimensional_non_translates():
    pairs = [
        ([(0, 0, 0), (1, 1, 0)], [(0, 0, 0), (0, 1, 1)]),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (1, 0, 0), (0, 0, 1)]),
        ([(0, 0), (1, 1)], [(0, 0), (0, 1)]),
    ]
    for a, b in pairs:
        p, q = polytope_from_points(a), polytope_from_points(b)
        with pytest.raises(ValueError, match="full-dimensional polytopes"):
            integral_affine_equivalent(p, q)
    segment = polytope_from_points([(0, 0, 0), (1, 1, 0)])
    m = integral_affine_equivalent(segment, translate(segment, (2, -3, 4)))
    assert m.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m.translation == (2, -3, 4)
    point = polytope_from_points([()])
    m = integral_affine_equivalent(point, point)
    assert (m.matrix, m.translation) == ((), ())


def _iae_outcome(p, q, count_first):
    """(matrix, translation), None or "ValueError"; with count_first, the
    lattice point counts are compared first, as before the search read
    only vertices."""
    if (count_first and p.ambient_dim == q.ambient_dim and p.dim == q.dim
            and len(p.lattice_points) != len(q.lattice_points)):
        return None
    try:
        m = integral_affine_equivalent(p, q)
    except ValueError:
        return "ValueError"
    return None if m is None else (m.matrix, m.translation)


def test_iae_unchanged_without_the_point_count():
    rng = random.Random(41)
    polys = list(CORPUS) + [q for p in CORPUS[:6] for q in sheared_images(p, rng, 2)]
    lines = [polytope_from_points(v) for v in (
        [(0, 0), (1, 1)], [(0, 0), (2, 2)], [(0, 0), (1, 2)], [(3, 1), (5, 5)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (2, 0, 0), (0, 2, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 0, 1)], [(0, 0, 0), (1, 1, 0), (0, 0, 1)])]
    outcomes = set()
    for p, q in itertools.product(polys + lines, repeat=2):
        fresh = [polytope_from_points(r.vertices) for r in (p, q)]
        got = _iae_outcome(p, q, count_first=False)
        assert got == _iae_outcome(*fresh, count_first=True), (p, q)
        outcomes.add(got if got in (None, "ValueError") else "map")
    assert outcomes == {None, "ValueError", "map"}


def test_iae_walks_no_lattice_point():
    # 16 * cube has 17^3 points; the frame search reads its 8 vertices
    cube = polytope_from_points(
        [tuple(16 * c for c in v) for v in itertools.product((0, 1), repeat=3)])
    sheared = linear_image(cube, ((1, 2, 0), (0, 1, 3), (0, 0, 1)))
    assert integral_affine_equivalent(cube, sheared) is not None
    bigger = polytope_from_points([tuple(2 * c for c in v) for v in sheared.vertices])
    assert integral_affine_equivalent(cube, bigger) is None
    for p in (cube, sheared, bigger):
        assert "lattice_points" not in p.__dict__


def _keys(maps):
    return {(m.matrix, m.translation) for m in maps}


def test_lattice_equivalences_match_unpruned_search():
    simplex4 = polytope_from_points(
        [(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    )
    chain = [step.result.doubled for step in doubling_spectrum(TRAPEZOID, 2).steps]
    polys = CORPUS + [NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX, simplex4]
    polys += [TRIANGLE_X_TRIANGLE] + chain
    for p in polys:
        assert _keys(lattice_equivalences(p, p)) == _keys(
            unpruned_lattice_equivalences(p, p)
        ), p.name
    rng = random.Random(14)
    for p in polys:
        if p.dim not in (2, 3):
            continue
        for q in unimodular_images(p, rng, 2):
            oracle = unpruned_lattice_equivalences(p, q)
            assert oracle, p.name
            assert _keys(lattice_equivalences(p, q)) == _keys(oracle), p.name
            shift = vec_sub(q.vertices[0], p.vertices[0])
            if translate(p, shift) != q:
                m = integral_affine_equivalent(p, q)
                assert (m.matrix, m.translation) == (
                    oracle[0].matrix, oracle[0].translation
                )


def test_normalized_volume():
    assert normalized_volume(TRIANGLE) == 1
    assert normalized_volume(TRIANGLE2) == 4
    assert normalized_volume(UNIT_SQUARE) == 2
    assert normalized_volume(SIMPLEX3) == 1
    assert normalized_volume(SEGMENT) == 1
    assert normalized_volume(SQUARE_PYRAMID) == 2
    assert normalized_volume(NON_NORMAL_SIMPLEX) == 2
    assert normalized_volume(REEVE_TETRAHEDRON) == 3
    assert normalized_volume(EMPTY_SIMPLEX) == 2


def test_normalized_volume_ignores_the_embedding():
    # a lower-dimensional P is measured over aff(P) & Z^n, so embedding it
    # as (x, 0) and shearing by a unimodular map of Z^(n+1) keeps the value
    rng = random.Random(11)
    for p in CORPUS + [NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX]:
        flat = polytope_from_points([v + (0,) for v in p.vertices])
        for q in [flat] + unimodular_images(flat, rng, 2):
            assert normalized_volume(q) == normalized_volume(p), (p.name, q)


def _count_hermite_forms(monkeypatch):
    """A list that grows by one entry per Hermite form taken anywhere."""
    from polycol import exactmath

    hermite = exactmath.hermite_normal_form
    calls = []

    def counting(m):
        calls.append(m)
        return hermite(m)

    monkeypatch.setattr(exactmath, "hermite_normal_form", counting)
    monkeypatch.setattr(polytopes, "hermite_normal_form", counting)
    return calls


def test_saturated_chart_takes_three_hermite_forms(monkeypatch):
    # saturation_basis takes two (the kernel and the kernel of the kernel)
    # and solve_int one for all the points, however many there are
    calls = _count_hermite_forms(monkeypatch)
    for k in (2, 5, 9):
        # 2k points of the plane x + y + 2z = 3 in Z^3
        points = [(3 - x - 2 * z, x, z) for x in range(k) for z in range(2)]
        del calls[:]
        coords, embed = polytopes._saturated_chart(points)
        assert len(calls) == 3
        assert [embed.apply(c) for c in coords] == points


def test_lower_dimensional_input_is_charted_once(monkeypatch):
    # the hull is taken over the chart of the points, and the lattice
    # points are read over the same chart: one chart, whose three Hermite
    # forms are all the work
    chart = polytopes._saturated_chart
    charts = []

    def counting_chart(points):
        charts.append(points)
        return chart(points)

    monkeypatch.setattr(polytopes, "_saturated_chart", counting_chart)
    hermite_calls = _count_hermite_forms(monkeypatch)
    points = [(3 - x - 2 * z, x, z) for x, z in TRAPEZOID.vertices]
    p = polytope_from_points(points)
    assert p.vertices == tuple(sorted(points)) and p.dim == 2
    assert p.lattice_points == tuple(sorted(
        (3 - x - 2 * z, x, z) for x, z in TRAPEZOID.lattice_points))
    assert len(charts) == 1
    assert len(hermite_calls) == 3


def test_normalizing_takes_one_hermite_form_of_the_points(monkeypatch):
    # the Reeve tetrahedron: one Hermite form decides it is not normalized
    # and gives the basis it is charted over, one solves for the chart
    # coordinates, and one checks the model is normalized
    calls = _count_hermite_forms(monkeypatch)
    p = polytope_from_points(REEVE_TETRAHEDRON.vertices)
    p.lattice_points
    q, embed = normalize_full_dim(p)
    assert q.is_normalized
    assert sorted(embed.apply(z) for z in q.lattice_points) == list(p.lattice_points)
    assert len(calls) == 3


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


def test_vertex_adjacency_matches_rank_oracle():
    """Edges by a third vertex on the common facets, against edges by the
    rank of the common facets, neighbour order included, on the CORPUS, the
    box-3 polygons, steps 1-5 of the trapezoid's doubling chain (dimensions
    3-7) and seeded random polytopes in dimensions 2-4."""
    polys = list(CORPUS)
    polys += [polytope_from_points(cycle) for cycle in enumerate_polygons(3)]
    polys += [step.result.doubled for step in doubling_spectrum(TRAPEZOID, 5).steps]
    polys += random_normalized_polytopes(33, 60, dims=(2, 3, 4))
    for p in polys:
        assert vertex_adjacency(p) == rank_vertex_adjacency(p), p.vertices


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


def test_polygon_cycle_starts_at_least_vertex():
    # counterclockwise from the least vertex, as the monotone chain gives it
    cyc = polygon_cycle(polytope_from_points([(0, 0), (2, 1), (0, 1)]))
    assert cyc == ((0, 0), (2, 1), (0, 1))
    assert polygon_cycle(HEXAGON)[0] == (0, 0)
    for p in (polytope_from_points([(0, 0), (2, 1)]), SIMPLEX3):
        with pytest.raises(ValueError):
            polygon_cycle(p)


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


def _box3_class_representatives():
    reps = {}
    for cycle in enumerate_polygons(3):
        reps.setdefault(cycle_normal_form(cycle), cycle)
    assert len(reps) == 148
    return reps


def test_cycle_normal_form_matches_all_frames_oracle():
    # the pruned form sorts only the frames reaching the least second
    # entry; the oracle sorts all 2m frames
    cycles = enumerate_polygons(3)
    assert len(cycles) == 1633
    for cycle in cycles:
        assert cycle_normal_form(cycle) == all_frames_cycle_normal_form(cycle)
    rng = random.Random(16)
    for form, cycle in _box3_class_representatives().items():
        for q in unimodular_images(polytope_from_points(cycle), rng, 2):
            image = polygon_cycle(q)
            assert cycle_normal_form(image) == all_frames_cycle_normal_form(image)
            assert cycle_normal_form(image) == form


def test_frame_second_entries_match_the_frame_matrix():
    # the normal form picks its frames by the second entry read off the
    # edge pair; a wrong entry on a frame that does not reach the form
    # leaves every form unchanged, so each frame is checked on its own
    rng = random.Random(38)
    cycles = enumerate_polygons(3)
    while len(cycles) < 1633 + 3000:
        p = polytope_from_points([(rng.randint(0, 30), rng.randint(0, 30))
                                  for _ in range(rng.randint(3, 9))])
        if p.dim == 2:
            cycles.append(polygon_cycle(p))
    for cyc in cycles:
        frames = polytopes._cycle_frames(cyc)
        m = len(cyc)
        assert sorted((v, ea, eb) for _, v, ea, eb, _ in frames) == sorted(
            (v, vec_sub(a, v), vec_sub(b, v))
            for i, v in enumerate(cyc)
            for a, b in ((cyc[(i + 1) % m], cyc[i - 1]), (cyc[i - 1], cyc[(i + 1) % m]))
        )
        for second, v, ea, eb, bezout in frames:
            g, x, y = extended_gcd(*ea)
            assert bezout[0] == g == bezout[1] * ea[0] + bezout[2] * ea[1]
            (r0, r1), (s0, s1) = polytopes._frame_matrix(ea, eb, (g, x, y))
            assert second == min((g, 0), (r0 * eb[0] + r1 * eb[1], s0 * eb[0] + s1 * eb[1]))


def test_minimal_frames_are_one_symmetry_orbit():
    # Aut(P) acts freely on the 2m frames, and the frames reaching the
    # normal form are the images of one of them
    for form, cycle in _box3_class_representatives().items():
        forms = frame_forms(cycle)
        assert min(forms) == form
        p = polytope_from_points(cycle)
        assert forms.count(form) == len(lattice_symmetries(p)), cycle


def test_fan_normal_form_matches_fan_witness_oracle():
    refs = [TRAPEZOID, UNIT_SQUARE, TRIANGLE]
    ref_forms = [fan_normal_form(r) for r in refs]
    rng = random.Random(15)
    matches = 0
    for cycle in _box3_class_representatives().values():
        p = polytope_from_points(cycle)
        form = fan_normal_form(p)
        for ref, ref_form in zip(refs, ref_forms):
            same = form == ref_form
            assert same == (fan_witness(p, ref) is not None), (cycle, ref)
            matches += same
        (q,) = unimodular_images(p, rng, 1)
        assert fan_normal_form(q) == form
        assert fan_witness(q, p) is not None
    assert matches > 0


def test_fan_normal_form_examples():
    assert fan_normal_form(HEXAGON) == fan_normal_form(dilate(HEXAGON, 2))
    assert fan_normal_form(TRAPEZOID) != fan_normal_form(UNIT_SQUARE)


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
    assert sorted(amap.apply(z) for z in p.lattice_points) == list(q.lattice_points)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([p for p in CORPUS if p.ambient_dim in (2, 3)]),
    st.randoms(use_true_random=False),
    st.tuples(*[st.integers(-10**4, 10**4)] * 3),
)
def test_lattice_points_commute_with_unimodular_maps(p, rng, shift):
    n = p.ambient_dim
    u = random_unimodular_matrix(n, rng, shears=rng.randint(0, 6), size=6)
    shift = shift[:n]
    q = translate(linear_image(p, u), shift)
    assert q.lattice_points == tuple(
        sorted(vec_add(mat_vec(u, z), shift) for z in p.lattice_points)
    )
    box = 1
    for i in range(n):
        box *= max(v[i] for v in q.vertices) - min(v[i] for v in q.vertices) + 1
    if box <= 20000:
        assert list(q.lattice_points) == box_scan_lattice_points(q)


def test_reduced_walk_matches_direct_walk_on_sheared_images(monkeypatch):
    # seeded GL_n(Z) images in dimensions 2-4, entries up to 10^3, each
    # reduced whenever that shrinks its box: the walk against the image of
    # L_P everywhere, against the direct walk where its box crosses at most
    # 20,000 fibres, and against the box scan where it holds at most 20,000
    # cells
    walked = []
    walk = polytopes._walk_fibres

    def spy(vertices, pairs):
        walked.append(vertices)
        return walk(vertices, pairs)

    monkeypatch.setattr(polytopes, "_walk_fibres", spy)
    monkeypatch.setattr(polytopes, "_DIRECT_WALK_FIBRES", 0)
    rng = random.Random(37)
    checked = {2: 0, 3: 0, 4: 0}
    for p in [p for p in CORPUS if p.ambient_dim >= 2] + [TRIANGLE_X_TRIANGLE]:
        n = p.ambient_dim
        for _ in range(8):
            u = random_unimodular_matrix(n, rng, shears=rng.randint(2, 5),
                                         size=rng.choice((4, 12, 40)))
            if max(abs(x) for row in u for x in row) > 1000:
                continue
            shift = tuple(rng.randint(-10**3, 10**3) for _ in range(n))
            q = polytope_from_points([vec_add(mat_vec(u, v), shift) for v in p.vertices])
            pts = list(q.lattice_points)
            assert pts == sorted(vec_add(mat_vec(u, z), shift) for z in p.lattice_points)
            lows, highs, _, fibres = polytopes._fibre_box(q.vertices)
            if fibres <= 20000:
                assert pts == sorted(walk(q.vertices, q._facet_pairs))
                checked[n] += walked[-1] is not q.vertices
            if prod(h - l + 1 for l, h in zip(lows, highs)) <= 20000:
                assert pts == box_scan_lattice_points(q)
    # reduced walks checked against the direct one: 41, 11 and 6
    assert min(checked.values()) >= 5


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([p for p in CORPUS if p.ambient_dim == 2]),
    st.tuples(*[st.integers(-10**30, 10**30)] * 4),
)
def test_lattice_points_of_huge_unimodular_images(p, entries):
    a, b, *shift = entries
    g, x, y = extended_gcd(a, b)
    assume(g == 1)
    # det = a x + b y = 1
    u = ((a, b), (-y, x))
    q = polytope_from_points([vec_add(mat_vec(u, v), shift) for v in p.vertices])
    assert len(q.lattice_points) == len(p.lattice_points)
    assert q.lattice_points == tuple(
        sorted(vec_add(mat_vec(u, z), shift) for z in p.lattice_points)
    )


def test_unimodular_frame_map():
    frame = ((1, 1), (2, 1), (1, 2))
    frame_map = unimodular_frame_maps(frame)
    amap = frame_map(((0, 0), (1, 1), (0, 1)))
    assert amap.matrix == ((1, 0), (1, 1))
    assert amap.translation == (-1, -2)
    assert [amap.apply(v) for v in frame] == [(0, 0), (1, 1), (0, 1)]
    assert amap.apply((2, 1)) == (1, 1)
    # the frame's double goes onto the image's double, point for point
    source = polytope_from_points([(1, 1), (3, 1), (1, 3)])
    target = polytope_from_points([(0, 0), (2, 2), (0, 2)])
    assert sorted(amap.apply(z) for z in source.lattice_points) == list(
        target.lattice_points
    )
    # index 2 images and non-integral maps are refused
    assert frame_map(((0, 0), (2, 0), (0, 1))) is None
    assert unimodular_frame_maps(((0, 0), (2, 0), (0, 1)))(
        ((0, 0), (1, 1), (0, 2))
    ) is None


def _lattice_basis_inputs():
    """The CORPUS, the conftest simplices whose points span a sublattice,
    k * Delta_3 and k * cube for k <= 6, k * triangle for k <= 6 in a plane
    of Z^3, whose points span a rank-2 lattice over many chunks, and steps
    1-3 of the trapezoid's doubling chain."""
    cube = polytope_from_points(list(itertools.product((0, 1), repeat=3)))
    dilations = [dilate(q, k) for q in (SIMPLEX3, cube) for k in range(1, 7)]
    plane = ((1, 0), (1, 1), (2, 3))
    images = [linear_image(dilate(TRIANGLE, k), plane) for k in range(1, 7)]
    chain = [s.result.doubled for s in doubling_spectrum(TRAPEZOID, 3).steps]
    return (CORPUS + [NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX]
            + dilations + images + chain)


def test_lattice_basis_is_the_hermite_form_of_all_differences():
    # the fold n rows at a time against one Hermite form of every difference
    sublattices = 0
    for p in _lattice_basis_inputs():
        x0, *rest = p.lattice_points
        h, _ = hermite_normal_form([vec_sub(z, x0) for z in rest])
        assert p._lattice_basis == tuple(r for r in h if any(r)), p
        sublattices += p._lattice_basis != identity_matrix(p.ambient_dim)
    assert sublattices == 9


def test_lattice_basis_memory_stays_flat_on_a_dilated_cube():
    # 4,913 lattice points: a Hermite form over all 4,912 differences would
    # build a 4,912 x 4,912 transform, tens of MB
    cube = polytope_from_points(list(itertools.product((0, 1), repeat=3)))
    p = dilate(cube, 16)
    assert len(p.lattice_points) == 4913
    tracemalloc.start()
    try:
        assert p.is_normalized
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
