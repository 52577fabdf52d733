import gc
import itertools
import math
import random
import weakref

import pytest

from polycol import columns, scan
from polycol.algebra import sp_membership
from polycol.columns import (
    ColumnVector,
    DirectedGraph,
    NotRigid,
    Rigid,
    RigidCertificate,
    classify_balanced_polygon,
    column_vectors,
    columns_dot,
    columns_json_data,
    is_balanced,
    is_col_divisible,
    is_rigid,
    product,
    product_table,
    strict_hull,
    verify_rigid_certificate,
    weak_hull,
)
from polycol.doubling import doubling_spectrum
from polycol.exactmath import dot, extended_gcd, mat_vec, vec_add, vec_sub
from polycol.polytopes import (
    dilate,
    fan_normal_form,
    normalize_full_dim,
    polygon_normal_form,
    polytope_from_points,
)
from polycol.scan import enumerate_polygons

from .conftest import (
    CORPUS,
    SIMPLEX3,
    SLANTED_QUAD,
    SQUARE_PYRAMID,
    STEEP_TRIANGLE,
    TRAPEZOID,
    TRIANGLE,
    TRIANGLE2,
    UNIT_SQUARE,
    WIDE_TRIANGLE,
)
from .helpers import (
    check_k_morphism,
    coarsening_search_is_rigid,
    facet_key,
    literal_column_search,
    literal_product_table,
    random_normalized_polytopes,
    sheared_images,
    weak_product,
)


def cols_by_vector(p):
    return {c.vector: c for c in column_vectors(p)}


def test_slanted_quad_columns():
    # the four arrows of the product figure: u, v, -v, w
    cols = cols_by_vector(SLANTED_QUAD)
    assert set(cols) == {(0, -1), (-1, 0), (1, 0), (-1, -1)}
    facets = SLANTED_QUAD.facets
    assert facet_key(facets[cols[(0, -1)].base]) == ((0, 1), 0)       # bottom
    assert facet_key(facets[cols[(-1, 0)].base]) == ((1, -1), 0)      # slant
    assert facet_key(facets[cols[(1, 0)].base]) == ((-1, 0), -3)      # right
    assert facet_key(facets[cols[(-1, -1)].base]) == ((0, 1), 0)      # bottom


def test_product_table_built_once_per_object():
    p = polytope_from_points([(0, 0), (2, 0), (1, 1), (0, 1)])
    assert product_table(p) is product_table(p)
    assert product_table(p).columns == column_vectors(p)


def test_equal_polytopes_get_their_own_tables():
    p = polytope_from_points([(0, 0), (2, 0), (1, 1), (0, 1)], name="one")
    q = polytope_from_points([(0, 0), (2, 0), (1, 1), (0, 1)], name="two")
    assert p == q
    assert product_table(p) is not product_table(q)
    assert product_table(p).columns == product_table(q).columns


def test_derived_data_does_not_outlive_polytope():
    # a translated trapezoid no other test builds
    p = polytope_from_points([(7, 7), (9, 7), (8, 8), (7, 8)])
    product_table(p)
    sp_membership(p, (16, 15), 2)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_slanted_quad_products():
    # exactly two products: w = u*v and u = w*(-v)
    cols = cols_by_vector(SLANTED_QUAD)
    u, v, mv, w = cols[(0, -1)], cols[(-1, 0)], cols[(1, 0)], cols[(-1, -1)]
    table = product_table(SLANTED_QUAD)
    assert len(table.products) == 2
    assert product(SLANTED_QUAD, u, v) == w
    assert product(SLANTED_QUAD, w, mv) == u
    assert product(SLANTED_QUAD, u, mv) is None  # sum zero is not the reason
    assert product(SLANTED_QUAD, v, u) is None


def test_unit_square_columns():
    assert set(cols_by_vector(UNIT_SQUARE)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert product_table(UNIT_SQUARE).products == ()
    cols = cols_by_vector(UNIT_SQUARE)
    assert product(UNIT_SQUARE, cols[(1, 0)], cols[(0, 1)]) is None
    assert product(UNIT_SQUARE, cols[(1, 0)], cols[(-1, 0)]) is None


def test_pyramid_columns():
    cols = set(cols_by_vector(SQUARE_PYRAMID))
    assert cols == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
        (0, 0, -1), (1, 0, -1), (0, 1, -1), (1, 1, -1),
    }
    assert len(cols) == 8


def test_column_base_uniqueness_and_height(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        for c in column_vectors(q):
            base = q.facets[c.base]
            assert dot(base.normal, c.vector) == -1
            # every other facet evaluates >= 0 on the column vector
            for i, f in enumerate(q.facets):
                if i != c.base:
                    assert dot(f.normal, c.vector) >= 0


def assert_column_searches_agree(q):
    """Pruned search, unpruned search and the literal oracle agree on q,
    the searches also on the column heights."""
    cols = column_vectors(q)
    assert cols == column_vectors(q, pruned=False), q
    pruned = [(c.vector, c.base) for c in cols]
    assert pruned == literal_column_search(q), q
    return pruned


def test_pruned_matches_literal_definition(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim >= 1:
            assert_column_searches_agree(q)


def test_column_candidates_on_sheared_corpus(corpus):
    # sheared images have large coordinates but the same column structure
    rng = random.Random(5)
    for p in corpus:
        for q in sheared_images(p, rng):
            assert len(assert_column_searches_agree(q)) == len(column_vectors(p))


def trapezoid_doubling_chain():
    spectrum = doubling_spectrum(TRAPEZOID, 7)
    chain = [spectrum.initial] + [step.result.doubled for step in spectrum.steps]
    assert [q.ambient_dim for q in chain] == list(range(2, 10))
    return chain


def test_column_candidates_on_doubling_chain():
    for q in trapezoid_doubling_chain():
        assert_column_searches_agree(q)


def assert_table_matches_literal(q):
    """product_table(q) equals the literal oracle, columns and rows, and
    its pair walk sorts every pair as the oracle's rows do."""
    table = product_table(q)
    cols, rows = literal_product_table(q)
    assert [(c.vector, c.base) for c in table.columns] == cols, q
    assert table.rows == rows, q
    vecs = {v for v, _ in cols}
    expected = []
    for i, j in itertools.product(range(len(cols)), repeat=2):
        s = vec_add(cols[i][0], cols[j][0])
        k = rows[i][j]
        if k is not None:
            expected.append((i, j, "product", k))
        elif any(s):
            expected.append((i, j, "skipped" if s in vecs else "commute", None))
    assert list(table.pair_cases()) == expected, q


def test_product_table_matches_literal_on_corpus(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim >= 1:
            assert_table_matches_literal(q)


def test_product_table_matches_literal_on_sheared_corpus(corpus):
    rng = random.Random(11)
    for p in corpus:
        for q in sheared_images(p, rng):
            assert_table_matches_literal(q)


def test_product_table_matches_literal_on_doubling_chain():
    for q in trapezoid_doubling_chain():
        assert_table_matches_literal(q)


def test_product_table_matches_literal_on_box3_polygons():
    polygons = [polytope_from_points(c) for c in enumerate_polygons(3)]
    assert len(polygons) == 1633
    for q in polygons:
        assert_table_matches_literal(q)


def assert_roots_match_min_height_search(p):
    """The closed-form roots of polygon p equal the columns of the
    lattice-point search, bases and heights included."""
    expected = [ColumnVector(v, bases[0], heights)
                for v, heights, bases in columns._min_height_bases(p) if bases]
    assert list(column_vectors(p)) == expected, p.vertices


def tall_gl2_images(p, rng, count=2):
    """Seeded images of polygon p under GL2(Z) maps and translations, with
    coordinates up to about 10^6.  One row of each map is a small primitive
    vector, so one coordinate stays narrow and the oracle's lattice-point
    walk crosses few lines; the other row is large."""
    out = []
    for _ in range(count):
        c = d = 0
        while math.gcd(c, d) != 1:
            c, d = rng.randint(-9, 9), rng.randint(-9, 9)
        _, x, y = extended_gcd(d, c)
        k = rng.choice((1, -1)) * rng.randint(10 ** 4, 15000)
        # (x + kc) d - (kd - y) c = xd + yc = 1
        rows = [(x + k * c, k * d - y), (c, d)]
        rng.shuffle(rows)
        shift = tuple(rng.randint(-10 ** 5, 10 ** 5) for _ in range(2))
        out.append(polytope_from_points(
            [vec_add(mat_vec(rows, v), shift) for v in p.vertices]))
    return out


def test_polygon_roots_match_min_height_search():
    """On every box-3 polygon, on the least member of each of the 1,517
    integral-affine classes of box-4 polygons, and on tall GL2(Z) images
    of every 8th box-3 polygon."""
    box3 = [polytope_from_points(c) for c in enumerate_polygons(3)]
    cycles = enumerate_polygons(4)
    reps = [cycles[i] for i in scan._cycle_classes(cycles, 4)[1]]
    assert len(box3) == 1633 and len(reps) == 1517
    rng = random.Random(34)
    images = [q for p in box3[::8] for q in tall_gl2_images(p, rng)]
    assert max(abs(x) for q in images for v in q.vertices for x in v) > 5 * 10 ** 5
    for p in box3 + [polytope_from_points(c) for c in reps] + images:
        assert_roots_match_min_height_search(p)


def test_columns_require_normalized():
    p = polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    with pytest.raises(ValueError):
        column_vectors(p)


def test_product_closure(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        table = product_table(q)
        for (i, j, k) in table.products:
            u, v, w = table.columns[i], table.columns[j], table.columns[k]
            assert w.vector == vec_add(u.vector, v.vector)
            assert w.base == u.base


def test_column_lookup():
    table = product_table(SLANTED_QUAD)
    for i, c in enumerate(table.columns):
        assert table.column(c) == i
        assert table.column(list(c.vector)) == i
    with pytest.raises(ValueError, match="not a column vector"):
        table.column((0, 1))


def test_weak_product():
    cols = cols_by_vector(SLANTED_QUAD)
    u, v = cols[(0, -1)], cols[(-1, 0)]
    assert weak_product(SLANTED_QUAD, [u]) == u
    assert weak_product(SLANTED_QUAD, [u, v]).vector == (-1, -1)
    # triangle edge chain: (1->2)(2->3) = (1->3) in canonical vertex order
    verts = TRIANGLE.vertices
    c2 = cols_by_vector(TRIANGLE)
    e12 = c2[vec_sub(verts[1], verts[0])]
    e23 = c2[vec_sub(verts[2], verts[1])]
    got = weak_product(TRIANGLE, [e12, e23])
    assert got.vector == vec_sub(verts[2], verts[0])


def test_weak_product_bracketing_independent():
    # every successful bracketing of a length-3 sequence yields the plain sum
    for p in [TRIANGLE, SLANTED_QUAD]:
        cols = column_vectors(p)
        table = product_table(p)
        idx = {c.vector: i for i, c in enumerate(cols)}

        def pair(i, j):
            return table.rows[i][j]

        for seq in itertools.product(range(len(cols)), repeat=3):
            a, b, c = seq
            left = pair(a, b)
            right = pair(b, c)
            routes = []
            if left is not None and pair(left, c) is not None:
                routes.append(pair(left, c))
            if right is not None and pair(a, right) is not None:
                routes.append(pair(a, right))
            total = tuple(
                x + y + z for x, y, z in zip(
                    cols[a].vector, cols[b].vector, cols[c].vector
                )
            )
            for r in routes:
                assert cols[r].vector == total
            if routes:
                wp = weak_product(p, [cols[a], cols[b], cols[c]])
                assert wp is not None and wp.vector == total


def test_hulls():
    cols = cols_by_vector(SLANTED_QUAD)
    u, v = cols[(0, -1)], cols[(-1, 0)]
    expected = {(0, -1), (-1, 0), (-1, -1)}
    assert {c.vector for c in strict_hull(SLANTED_QUAD, [u, v])} == expected
    assert {c.vector for c in weak_hull(SLANTED_QUAD, [u, v])} == expected
    assert strict_hull(SLANTED_QUAD, [u]) == frozenset([u])
    sq = cols_by_vector(UNIT_SQUARE)
    pair = [sq[(1, 0)], sq[(-1, 0)]]
    assert strict_hull(UNIT_SQUARE, pair) == frozenset(pair)


def test_weak_hull_equals_weak_products(corpus):
    # hull closure agrees with achievable weak products of short sequences
    for p in [TRIANGLE, SLANTED_QUAD, TRAPEZOID]:
        cols = column_vectors(p)
        for r in (1, 2):
            for vs in itertools.combinations(cols, r):
                hull = weak_hull(p, vs)
                for seq in itertools.product(vs, repeat=2):
                    got = weak_product(p, list(seq))
                    if got is not None:
                        assert got in hull


def test_is_balanced():
    assert is_balanced(TRAPEZOID) == (True, None)
    assert is_balanced(SQUARE_PYRAMID)[0]
    flag, witness = is_balanced(STEEP_TRIANGLE)
    assert not flag
    u, v, val = witness
    assert val > 1
    # the slant form evaluated on the downward column reaches 3
    cols = cols_by_vector(STEEP_TRIANGLE)
    slant_col = cols[(1, 0)]
    slant = STEEP_TRIANGLE.facets[slant_col.base]
    assert facet_key(slant) == ((-1, -3), -3)
    assert dot(slant.normal, (0, -1)) == 3


def literal_is_balanced(q):
    """(flag, witness) of is_balanced, by dot products on Col(q)."""
    cols = product_table(q).columns
    flag, witness = True, None
    for u in cols:
        for v in cols:
            val = dot(q.facets[u.base].normal, v.vector)
            if val > 1:
                flag = False
            if abs(val) > 1 and witness is None:
                witness = (u, v, val)
    return flag, witness


def test_is_balanced_matches_dot_products(corpus):
    polygons = [polytope_from_points(c) for c in enumerate_polygons(2)]
    for p in corpus + polygons:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        assert is_balanced(q) == literal_is_balanced(q), q
        assert is_balanced(q) is is_balanced(q)  # kept on the polytope


def test_balanced_absolute_agreement(corpus):
    # both predicates computed, agreement asserted inside is_balanced
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        is_balanced(q)


def test_col_divisible_pyramid():
    ok, witness = is_col_divisible(SQUARE_PYRAMID)
    assert not ok
    assert witness[0] in ("cd1", "cd2")
    if witness[0] == "cd1":
        a, b, c = witness[1:]
        table = product_table(SQUARE_PYRAMID)
        idx = {col.vector: i for i, col in enumerate(table.columns)}
        # both products with the common right factor exist
        assert table.rows[idx[a.vector]][idx[c.vector]] is not None
        assert table.rows[idx[b.vector]][idx[c.vector]] is not None
        # and neither difference divides
        for d, tgt, other in ((vec_sub(a.vector, b.vector), a, b),
                              (vec_sub(b.vector, a.vector), b, a)):
            if d in idx:
                assert table.rows[idx[d]][idx[other.vector]] != idx[tgt.vector]


def test_col_divisible_simplices():
    for p in [TRIANGLE, TRIANGLE2, SIMPLEX3]:
        assert is_col_divisible(p) == (True, None)


def _divisibility_cases(p):
    """{(clause, first alternative holds, second holds)} over the cases of
    the two Col-divisibility clauses, with products read off the literal
    table: cd1 takes a != b with a*c and b*c, and asks a = (a-b)*b or
    b = (b-a)*a; cd2 takes a*b = c*d with a != c, and asks a*t = c and
    t*d = b for t = c-a, or c*t = a and t*b = d for t = a-c."""
    cols, rows = literal_product_table(p)
    vecs = [v for v, _ in cols]
    index = {v: i for i, v in enumerate(vecs)}

    def prod(u, v):
        if u not in index or v not in index:
            return None
        k = rows[index[u]][index[v]]
        return None if k is None else vecs[k]

    cases = set()
    for a, b, c in itertools.product(vecs, repeat=3):
        if a != b and prod(a, c) and prod(b, c):
            cases.add(("cd1", prod(vec_sub(a, b), b) == a,
                       prod(vec_sub(b, a), a) == b))
    for a, b, c, d in itertools.product(vecs, repeat=4):
        if a != c and prod(a, b) and prod(a, b) == prod(c, d):
            t1, t2 = vec_sub(c, a), vec_sub(a, c)
            cases.add(("cd2", prod(a, t1) == c and prod(t1, d) == b,
                       prod(c, t2) == a and prod(t2, b) == d))
    return cases


def test_col_divisibility_needs_each_alternative():
    # the second double of the trapezoid's chain is Col-divisible, and in
    # each clause some case holds through the first alternative only and
    # some through the second only: dropping any one of the four fails it
    q = doubling_spectrum(TRAPEZOID, 2).steps[-1].result.doubled
    assert is_col_divisible(q) == (True, None)
    assert _divisibility_cases(q) == {
        (clause, first, second)
        for clause in ("cd1", "cd2")
        for first, second in ((True, True), (True, False), (False, True))
    }


def test_col_divisible_requires_balanced():
    with pytest.raises(ValueError):
        is_col_divisible(STEEP_TRIANGLE)


def test_classification_fixtures():
    assert classify_balanced_polygon(TRIANGLE).label == "a"
    assert classify_balanced_polygon(TRIANGLE2).label == "a"
    cls = classify_balanced_polygon(TRAPEZOID)
    assert cls.label == "b"
    assert cls.vectors["u"].vector == (1, -1)
    assert cls.vectors["v"].vector == (-1, 0)
    assert cls.vectors["w"].vector == (0, -1)
    assert classify_balanced_polygon(UNIT_SQUARE).label == "e"
    wide = classify_balanced_polygon(WIDE_TRIANGLE)
    assert wide.label == "d" and wide.same_base_count == 3
    ctri = polytope_from_points([(3, 0), (0, 3), (0, 1)])
    assert classify_balanced_polygon(ctri).label == "c"


def test_classification_reference_forms_match_their_polygons():
    # classes a, b and e compare against forms fixed once; each must be the
    # form of the reference polygon it stands for
    for k in range(1, 7):
        assert columns._triangle_form(k) == polygon_normal_form(dilate(TRIANGLE, k))
    assert columns.TRAPEZOID_FAN_FORM == fan_normal_form(TRAPEZOID)
    assert columns.UNIT_SQUARE_FAN_FORM == fan_normal_form(UNIT_SQUARE)


def test_classification_zero_columns_is_tagged_d():
    # no columns at all: vacuously balanced, reported as class d with t = 0
    p = polytope_from_points([(0, 0), (2, 1), (1, 2)])
    assert column_vectors(p) == ()
    assert is_balanced(p) == (True, None)
    cls = classify_balanced_polygon(p)
    assert cls.label == "d"
    assert cls.same_base_count == 0


def test_classification_requires_balanced_polygon():
    with pytest.raises(ValueError):
        classify_balanced_polygon(STEEP_TRIANGLE)
    with pytest.raises(ValueError):
        classify_balanced_polygon(SIMPLEX3)


def test_unit_simplex_column_model():
    # n(n+1) oriented edges, composing exactly when head meets tail
    for n in (1, 2, 3):
        pts = [tuple(0 for _ in range(n))] + [
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        ]
        p = polytope_from_points(pts)
        verts = p.vertices
        cols = column_vectors(p)
        assert len(cols) == n * (n + 1)
        edge = {}
        for i, a in enumerate(verts):
            for j, b in enumerate(verts):
                if i != j:
                    edge[(i, j)] = vec_sub(b, a)
        by_vec = {c.vector: c for c in cols}
        assert set(edge.values()) == set(by_vec)
        for (i, j), u in edge.items():
            for (k, l), v in edge.items():
                got = product(p, by_vec[u], by_vec[v])
                expected = j == k and l != i
                assert (got is not None) == expected, ((i, j), (k, l))
                if expected:
                    assert got.vector == edge[(i, l)]


def test_rigid_simplex_chain():
    verts = SIMPLEX3.vertices
    by_vec = cols_by_vector(SIMPLEX3)
    forward = [
        by_vec[vec_sub(verts[j], verts[i])]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    result = is_rigid(SIMPLEX3, forward)
    assert isinstance(result, Rigid)
    graph = result.certificate.graph
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 3
    # a chain: one source, one sink, in/out degrees at most one
    heads = [e[1] for e in graph.edges]
    tails = [e[0] for e in graph.edges]
    assert len(set(heads)) == 3 and len(set(tails)) == 3
    assert verify_rigid_certificate(SIMPLEX3, forward, result.certificate)


def test_rigid_negation_pair():
    by_vec = cols_by_vector(UNIT_SQUARE)
    result = is_rigid(UNIT_SQUARE, [by_vec[(1, 0)], by_vec[(-1, 0)]])
    assert isinstance(result, NotRigid)
    assert "negative" in result.reason


def test_rigid_slanted_quad():
    by_vec = cols_by_vector(SLANTED_QUAD)
    uvw = [by_vec[(0, -1)], by_vec[(-1, 0)], by_vec[(-1, -1)]]
    result = is_rigid(SLANTED_QUAD, uvw)
    assert isinstance(result, Rigid)
    assert len(result.certificate.graph.vertices) == 3
    assert verify_rigid_certificate(SLANTED_QUAD, uvw, result.certificate)


def test_rigid_disjoint_edges():
    # two columns with different bases and no products: two disjoint edges
    by_vec = cols_by_vector(UNIT_SQUARE)
    result = is_rigid(UNIT_SQUARE, [by_vec[(1, 0)], by_vec[(0, 1)]])
    assert isinstance(result, Rigid)
    assert len(result.certificate.graph.vertices) == 4


def test_rigid_diamond_double_factorization():
    # (1,1,-1) factors two ways over the pyramid; the certificate is the
    # diamond graph, whose source joins two tails and whose sink joins two
    # heads: only the start and end of the product (1,1,-1) glue them
    by_vec = cols_by_vector(SQUARE_PYRAMID)
    quad = [by_vec[(0, 1, -1)], by_vec[(1, 0, 0)],
            by_vec[(1, 0, -1)], by_vec[(0, 1, 0)]]
    result = is_rigid(SQUARE_PYRAMID, quad)
    assert isinstance(result, Rigid)
    graph = result.certificate.graph
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 4
    assert verify_rigid_certificate(SQUARE_PYRAMID, quad, result.certificate)
    label = dict(result.certificate.labeling)
    paths = label[(1, 1, -1)]
    # both factorizations realize the same path class
    assert (label[(0, 1, -1)][0], label[(1, 0, 0)][1]) == paths
    assert (label[(1, 0, -1)][0], label[(0, 1, 0)][1]) == paths


def test_verify_rigid_certificate_refuses_each_tampering():
    # a = (-1, 0, 1) and b = (0, 1, -1) compose to r = (-1, 1, 0) over the
    # unit 3-simplex, and c = (-1, 0, 0) takes part in no product: the
    # forced graph is a path of two edges beside one more edge
    by_vec = cols_by_vector(SIMPLEX3)
    system = [by_vec[v] for v in ((-1, 0, 0), (-1, 0, 1), (0, 1, -1))]
    result = is_rigid(SIMPLEX3, system)
    assert isinstance(result, Rigid)
    graph, labeling = result.certificate
    assert verify_rigid_certificate(SIMPLEX3, system, result.certificate)
    label = dict(labeling)
    a, b, r, c = (-1, 0, 1), (0, 1, -1), (-1, 1, 0), (-1, 0, 0)
    assert set(label) == {a, b, r, c}
    x, y = "x", "y"

    def swapped(u, v):
        return tuple(sorted({**label, u: label[v], v: label[u]}.items()))

    tampered = [
        # an element of the hull without a label
        RigidCertificate(graph, labeling[1:]),
        # a graph with a multiple edge
        RigidCertificate(graph._replace(edges=graph.edges + graph.edges[:1]),
                         labeling),
        # a path class that labels no element
        RigidCertificate(DirectedGraph(graph.vertices + (x, y),
                                       graph.edges + ((x, y),)), labeling),
        # one path class labelling every element
        RigidCertificate(DirectedGraph((x, y), ((x, y),)),
                         tuple((v, (x, y)) for v in label)),
        # a product a*b whose factors' labels do not compose
        RigidCertificate(graph, swapped(a, b)),
        # a product a*b labelled apart from the path of its factors
        RigidCertificate(graph, swapped(r, c)),
    ]
    for cert in tampered:
        assert not verify_rigid_certificate(SIMPLEX3, system, cert), cert


@pytest.mark.parametrize("vertices, edges, reason", [
    ("ab", ("ab", "ab"), "multiple edges"),
    ("abc", ("ab",), "isolated vertices"),
    ("ab", ("aa", "ab"), "self-loop"),
    ("abc", ("ab", "bc", "ac"), "edge a->c shadowed by another path"),
    ("abc", ("ab", "bc", "ca"), "directed cycle"),
    ("abc", ("ab", "bc"), None),
])
def test_check_conditions_names_each_defect(vertices, edges, reason):
    graph = DirectedGraph(tuple(vertices), tuple(tuple(e) for e in edges))
    assert graph.check_conditions() == reason


def test_rigid_refutation_after_search():
    # three apex edges plus the long diagonal admit no compatible graph: the
    # forced graph already has a defect
    by_vec = cols_by_vector(SQUARE_PYRAMID)
    quad = [by_vec[(-1, 0, 0)], by_vec[(0, -1, 0)],
            by_vec[(0, 0, -1)], by_vec[(1, 1, -1)]]
    result = is_rigid(SQUARE_PYRAMID, quad)
    assert isinstance(result, NotRigid)


def test_rigid_forced_certificate_can_fail_verification():
    # a 5-simplex with 9 lattice points, and seven of its columns that stay
    # the irreducible elements of their hull of 14.  The forced graph has no
    # defect, but it joins one vertex to another by two paths of three
    # edges, and the hull element over each path gets the pair of ends as
    # its label: two elements share a label, so no certificate exists
    p = polytope_from_points([
        (0, 0, 0, 0, 0), (0, 2, 2, 0, 0), (1, 2, 1, 0, 0), (2, 2, 2, 0, 0),
        (3, 1, 1, 0, 1), (3, 1, 1, 1, 0),
    ])
    assert p.is_normalized and len(p.lattice_points) == 9
    system = [(-3, 1, 1, 0, -1), (-2, 1, 1, 0, -1), (-2, 1, 0, -1, 0),
              (-1, -1, -1, 0, 0), (-1, 0, 1, 0, 0), (0, -1, 0, 0, 0),
              (0, 0, 0, -1, 1)]
    result = is_rigid(p, system)
    assert isinstance(result, NotRigid)
    assert result.reason == "forced certificate fails verification"
    graph, labeling = result.detail
    assert graph.check_conditions() is None
    assert len(graph.edges) == len(system) and len(labeling) == 14
    label = dict(labeling)
    assert label[(-3, -1, -1, -1, 0)] == label[(-3, 0, 0, -1, 0)]
    assert isinstance(coarsening_search_is_rigid(p, system), NotRigid)


def test_rigid_pyramid_times_simplex_is_decided():
    # the refuted pyramid system padded into the square pyramid x the unit
    # 5-simplex, plus the five simplex edges at the origin; a search over
    # coarsenings of the port partition gives up on it after 50,000 states
    d5 = [(0,) * 5] + [tuple(int(i == j) for j in range(5)) for i in range(5)]
    p = polytope_from_points(
        [x + y for x in SQUARE_PYRAMID.vertices for y in d5]
    )
    assert len(p.lattice_points) == 30
    by_vec = cols_by_vector(p)
    assert len(by_vec) == 38
    system = [v + (0,) * 5 for v in ((-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                     (1, 1, -1))]
    system += [(0, 0, 0) + y for y in d5[1:]]
    result = is_rigid(p, [by_vec[v] for v in system])
    assert isinstance(result, NotRigid)
    assert result.reason == "forced graph defect: multiple edges"


def test_rigid_matches_coarsening_search():
    # every column set of size <= 3 of the corpus, the pyramid over the
    # unit 3-cube and the unit 4-simplex: 2,413 sets
    cube_pyramid = polytope_from_points(
        [c + (0,) for c in itertools.product((0, 1), repeat=3)]
        + [(0, 0, 0, 1)]
    )
    simplex4 = polytope_from_points(
        [(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    )
    count = 0
    for p in CORPUS + [cube_pyramid, simplex4]:
        cols = column_vectors(p)
        for k in (1, 2, 3):
            for system in itertools.combinations(cols, k):
                count += 1
                expected = coarsening_search_is_rigid(p, system)
                assert isinstance(expected, (Rigid, NotRigid)), system
                result = is_rigid(p, system)
                assert type(result) is type(expected), (p.vertices, system)
                if isinstance(result, Rigid):
                    assert verify_rigid_certificate(p, system,
                                                    result.certificate)
    assert count == 2413


def test_k_morphism_identity(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        cols = column_vectors(q)
        ok, violations = check_k_morphism(q, q, {c: c for c in cols})
        assert ok and not violations


def test_k_morphism_square_swap():
    by_vec = cols_by_vector(UNIT_SQUARE)
    swap = {
        by_vec[(1, 0)]: by_vec[(0, 1)],
        by_vec[(0, 1)]: by_vec[(1, 0)],
        by_vec[(-1, 0)]: by_vec[(0, -1)],
        by_vec[(0, -1)]: by_vec[(-1, 0)],
    }
    ok, violations = check_k_morphism(UNIT_SQUARE, UNIT_SQUARE, swap)
    assert ok and not violations


def test_k_morphism_broken_product():
    by_vec = cols_by_vector(SLANTED_QUAD)
    u, v, mv, w = (by_vec[(0, -1)], by_vec[(-1, 0)],
                   by_vec[(1, 0)], by_vec[(-1, -1)])
    mapping = {u: u, v: v, mv: mv, w: u}  # send w to u, rest identity
    ok, violations = check_k_morphism(SLANTED_QUAD, SLANTED_QUAD, mapping)
    assert not ok
    assert any(kind == "product" for kind, *_ in violations)


def test_random_polytope_columns_height_and_pruning():
    for q in random_normalized_polytopes(seed=7, count=40):
        if q.dim < 1:
            continue
        cols = column_vectors(q)
        assert [(c.vector, c.base) for c in cols] == literal_column_search(q)
        for c in cols:
            assert dot(q.facets[c.base].normal, c.vector) == -1


def test_columns_exports():
    data = columns_json_data(SLANTED_QUAD)
    assert len(data["columns"]) == 4
    assert len(data["products"]) == 2
    dot_text = columns_dot(SLANTED_QUAD)
    assert dot_text.startswith("digraph")
    assert dot_text.count("->") == 2
    assert 'label="(-1,-1)"' in dot_text
