import gc
import itertools
import weakref

import pytest

from polycol.algebra import sp_membership
from polycol.columns import (
    NotRigid,
    Rigid,
    check_k_morphism,
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
    weak_product,
)
from polycol.exactmath import dot, vec_add, vec_sub
from polycol.polytopes import normalize_full_dim, polytope_from_points

from .conftest import (
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
from .helpers import literal_column_search, random_normalized_polytopes


def cols_by_vector(p):
    return {c.vector: c for c in column_vectors(p)}


def test_slanted_quad_columns():
    # the four arrows of the product figure: u, v, -v, w
    cols = cols_by_vector(SLANTED_QUAD)
    assert set(cols) == {(0, -1), (-1, 0), (1, 0), (-1, -1)}
    facets = SLANTED_QUAD.facets
    assert facets[cols[(0, -1)].base].key() == ((0, 1), 0)       # bottom
    assert facets[cols[(-1, 0)].base].key() == ((1, -1), 0)      # slant
    assert facets[cols[(1, 0)].base].key() == ((-1, 0), -3)      # right
    assert facets[cols[(-1, -1)].base].key() == ((0, 1), 0)      # bottom


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


def test_pruned_matches_literal_definition(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        pruned = [(c.vector, c.base) for c in column_vectors(q)]
        unpruned = [(c.vector, c.base) for c in column_vectors(q, pruned=False)]
        oracle = literal_column_search(q)
        assert pruned == unpruned == oracle, q.name


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
            e = table.entry(i, j)
            return e[1] if e[0] == "product" else None

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
    assert slant.key() == ((-1, -3), -3)
    assert dot(slant.normal, (0, -1)) == 3


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
        assert table.entry(idx[a.vector], idx[c.vector])[0] == "product"
        assert table.entry(idx[b.vector], idx[c.vector])[0] == "product"
        # and neither difference divides
        for d, tgt, other in ((vec_sub(a.vector, b.vector), a, b),
                              (vec_sub(b.vector, a.vector), b, a)):
            if d in idx:
                e = table.entry(idx[d], idx[other.vector])
                assert e != ("product", idx[tgt.vector])


def test_col_divisible_simplices():
    for p in [TRIANGLE, TRIANGLE2, SIMPLEX3]:
        assert is_col_divisible(p) == (True, None)


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
    # diamond graph, which needs endpoint identifications beyond the ones
    # forced by composability (exercises the coarsening fallback)
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


def test_rigid_refutation_after_search():
    # three apex edges plus the long diagonal admit no compatible graph
    by_vec = cols_by_vector(SQUARE_PYRAMID)
    quad = [by_vec[(-1, 0, 0)], by_vec[(0, -1, 0)],
            by_vec[(0, 0, -1)], by_vec[(1, 1, -1)]]
    result = is_rigid(SQUARE_PYRAMID, quad)
    assert isinstance(result, NotRigid)


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
