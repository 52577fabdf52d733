import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycol.algebra import (
    check_column_property,
    elementary_automorphism,
    lattice_symmetries,
    sp_membership,
    steinberg_presentation_json,
    steinberg_presentation_lines,
    steinberg_presentation_mod,
    symmetry_group_data,
    verify_additive_embedding,
    verify_steinberg_relations,
    GradedAutomorphism,
    _kronecker_additivity,
    _kronecker_base,
    _next_slice,
)
from polycol.cli import main
from polycol.columns import (
    ColumnVector,
    ProductTable,
    column_vectors,
    is_balanced,
    product_table,
)
from polycol.doubling import doubling_spectrum
from polycol.exactmath import (
    ZZ,
    Poly,
    dot,
    mat_vec,
    rank_int,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from polycol.polytopes import (
    InternalCheckError,
    Polytope,
    dilate,
    normalize_full_dim,
    polytope_from_points,
)
from polycol.reports import analysis_report

from . import helpers
from .conftest import (
    CORPUS,
    EMPTY_SIMPLEX,
    HEXAGON,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SEGMENT,
    SIMPLEX3,
    SQUARE_PYRAMID,
    STEEP_TRIANGLE,
    TRAPEZOID,
    TRIANGLE,
    TRIANGLE_X_TRIANGLE,
    UNIT_SQUARE,
    WIDE_TRIANGLE,
)
from .helpers import (
    QQ,
    IntegersMod,
    ModInt,
    PolynomialRing,
    _multiset_image,
    column_inversion,
    conjugation_normal,
    degree_consistency_violations,
    dense_matrix,
    dense_ring_product,
    elementary_closed_formula_image,
    identity_automorphism,
    inversion_subgroup,
    literal_steinberg_report,
    monomials_of_degree,
    sigma_group,
    symmetry_permutation,
    symmetry_permutations,
    torus_automorphism,
)


def col(p, vec):
    return next(c for c in column_vectors(p) if c.vector == vec)


def test_sp_membership_basics():
    for x in TRIANGLE.lattice_points:
        assert sp_membership(TRIANGLE, x, 1)
    assert sp_membership(TRIANGLE, (0, 0), 0)
    assert not sp_membership(TRIANGLE, (1, 0), 0)
    assert not sp_membership(TRIANGLE, (5, 5), 2)  # outside the cone bound
    assert sp_membership(TRIANGLE, (1, 1), 2)


def test_sp_membership_non_normal_gap():
    # (1,1,1) lies in 2P but is not a sum of two generators: oracle below
    p = NON_NORMAL_SIMPLEX
    pts = p.lattice_points
    sums = {tuple(a + b for a, b in zip(x, y)) for x in pts for y in pts}
    assert (1, 1, 1) not in sums
    assert not sp_membership(p, (1, 1, 1), 2)
    assert all(dot(f.normal, (1, 1, 1)) >= 2 * f.offset for f in p.facets)


def test_monomials_of_degree():
    mons = monomials_of_degree(NON_NORMAL_SIMPLEX, 2)
    assert ((1, 1, 1), 2) not in mons
    assert ((2, 2, 0), 2) in mons
    assert len(monomials_of_degree(TRIANGLE, 2)) == 6


# the CORPUS is normal; these three are not, and the empty simplices have
# no lattice points but their vertices
SEMIGROUP_CORPUS = CORPUS + [NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX]


def test_semigroup_slices_match_recursive_oracle():
    for p in SEMIGROUP_CORPUS:
        for d in range(4):
            mons = monomials_of_degree(p, d)
            assert mons == helpers.dilation_monomials_of_degree(p, d), (p.name, d)
            scaled = dilate(p, d).lattice_points if d else ((0,) * p.ambient_dim,)
            memo = {}
            for z in scaled:
                assert sp_membership(p, z, d) == helpers.recursive_sp_membership(
                    p, z, d, memo
                ), (p.name, z, d)
    assert ((1, 1, 1), 2) not in monomials_of_degree(NON_NORMAL_SIMPLEX, 2)
    assert len(monomials_of_degree(EMPTY_SIMPLEX, 2)) == 10


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEMIGROUP_CORPUS), st.integers(0, 3), st.data())
def test_sp_membership_matches_oracle_inside_and_outside(p, degree, data):
    n = p.ambient_dim
    # a lattice point of degree*P, then one of a box two wider on each side
    if degree:
        inside = data.draw(st.sampled_from(dilate(p, degree).lattice_points))
        assert sp_membership(p, inside, degree) == helpers.recursive_sp_membership(
            p, inside, degree
        )
    box = [
        st.integers(degree * min(v[i] for v in p.vertices) - 2,
                    degree * max(v[i] for v in p.vertices) + 2)
        for i in range(n)
    ]
    z = data.draw(st.tuples(*box))
    assert sp_membership(p, z, degree) == helpers.recursive_sp_membership(
        p, z, degree
    )


def test_columns_property_builds_no_dilation_and_each_slice_once(
    tmp_path, capsys, monkeypatch
):
    # columns-property builds no dilation of the triangle (one more polytope)
    # and no semigroup slice, and takes no degree bound; sp_membership builds
    # each slice up to its degree once, and keeps them on the polytope
    calls = Counter()
    polytope_init = Polytope.__init__

    def counted_init(self, *args, **kwargs):
        calls["polytopes"] += 1
        polytope_init(self, *args, **kwargs)

    def counted_slice(previous, points):
        calls["slices"] += 1
        return _next_slice(previous, points)

    monkeypatch.setattr(Polytope, "__init__", counted_init)
    monkeypatch.setattr("polycol.algebra._next_slice", counted_slice)
    vertices = [[0, 0], [5, 0], [0, 5]]
    q = polytope_from_points(vertices)
    q.facets
    build = calls["polytopes"]
    calls.clear()
    path = tmp_path / "triangle5.json"
    path.write_text(json.dumps({"vertices": vertices}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--which", "columns-property",
              "--max-degree", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-degree 5" in capsys.readouterr().err
    code = main(["verify", str(path), "--which", "columns-property"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["columns"]) == 6
    assert calls["polytopes"] <= build
    assert calls["slices"] == 0
    assert sp_membership(q, (25, 0), 5)
    assert calls["slices"] == 5
    assert not sp_membership(q, (26, 0), 5) and sp_membership(q, (5, 5), 2)
    assert calls["slices"] == 5


def test_column_property():
    v = col(HEXAGON, (0, -1))
    ok, violations = check_column_property(HEXAGON, v)
    assert ok and not violations
    # points on the base face are excluded from the quantifier, so degree-1
    # monomials at height zero never show up as violations
    for p in [TRIANGLE, UNIT_SQUARE, SQUARE_PYRAMID]:
        for c in column_vectors(p):
            assert check_column_property(p, c)[0]


def test_column_property_rejects_non_column():
    with pytest.raises(ValueError):
        from polycol.columns import ColumnVector

        check_column_property(HEXAGON, ColumnVector((2, 2), 0))


@pytest.mark.parametrize("p", SEMIGROUP_CORPUS, ids=lambda p: p.name)
def test_column_property_matches_slice_oracle(p):
    # degree one decides every degree: the slice oracle at degrees 1-3 agrees
    # on every column, on the normalized model the CLI checks
    q, _ = normalize_full_dim(p)
    cols = product_table(q).columns
    for c in cols:
        assert check_column_property(q, c) == (True, [])
        for d in (1, 2, 3):
            assert helpers.slice_column_property(q, c, d) == (True, []), (
                p.name, c, d
            )


def test_shear_support_walk_refuses_an_escaping_column():
    # 2v for the column v = (0, -1) of 2 Delta_2, seeded as the one column
    # of its table: the chained walk reaches the points at height 1 first,
    # and (0, 1) + 2v lies below the base, out of P
    vertices = [(0, 0), (2, 0), (0, 2)]
    v = col(polytope_from_points(vertices), (0, -1))
    p = polytope_from_points(vertices)
    fake = ColumnVector((0, -2), v.base,
                        tuple(dot(f.normal, (0, -2)) for f in p.facets))
    product_table(p, columns=(fake,))
    with pytest.raises(InternalCheckError,
                       match=r"^\(0, 1\) \+ \(0, -2\) escaped the polytope$"):
        elementary_automorphism(p, fake, 1, ZZ)
    assert p.__dict__["_shear_supports"] == {}


def test_column_property_and_oracle_flag_a_seeded_non_column():
    # 2v for the column v = (0, -1) of 2 Delta_2, seeded as the one column
    # of a table with v's base y >= 0 (a seeded real column would meet it in
    # a product that is not a column): it sends the points at height 1,
    # (0, 1) and (1, 1), out of P, so both sides flag it in degree one, and
    # the oracle's degree-one violations are exactly those of
    # check_column_property
    from polycol.columns import ColumnVector

    vertices = [(0, 0), (2, 0), (0, 2)]
    v = col(polytope_from_points(vertices), (0, -1))
    p = polytope_from_points(vertices)
    fake = ColumnVector((0, -2), v.base,
                        tuple(dot(f.normal, (0, -2)) for f in p.facets))
    product_table(p, columns=(fake,))
    ok, violations = check_column_property(p, fake)
    assert not ok and violations == [((0, 1), 1), ((1, 1), 1)]
    for d in (1, 2, 3):
        ok, oracle = helpers.slice_column_property(p, fake, d)
        assert not ok
        assert [z for z in oracle if z[1] == 1] == violations


def test_elementary_hexagon_binomial_column():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    e = elementary_automorphism(HEXAGON, col(HEXAGON, (0, -1)), lam, ring)
    pts = HEXAGON.lattice_points
    j = pts.index((2, 3))
    m = dense_matrix(e)
    images = {
        pts[i]: m[i][j]
        for i in range(len(pts))
        if m[i][j] != ring.zero
    }
    assert images == {
        (2, 3): ring.one,
        (2, 2): 3 * lam,
        (2, 1): 3 * lam * lam,
        (2, 0): lam * lam * lam,
    }


def test_equal_automorphisms_hash_equal():
    # the hash reads the columns alone, so neither the order in which a
    # column dict was filled nor the polytope object it sits on changes it
    ring = PolynomialRing(("a",))
    e = elementary_automorphism(TRAPEZOID, col(TRAPEZOID, (0, -1)), ring.var("a"), ring)
    twin = polytope_from_points(TRAPEZOID.vertices)
    assert twin == TRAPEZOID and twin is not TRAPEZOID
    reordered = [dict(reversed(list(c.items()))) for c in e.columns]
    assert any(list(c) != list(r) for c, r in zip(e.columns, reordered))
    for other in (GradedAutomorphism(TRAPEZOID, ring, reordered),
                  GradedAutomorphism(twin, ring, e.columns)):
        assert other == e and hash(other) == hash(e)
        assert len({e, other}) == 1


def test_elementary_zero_is_identity():
    ring = PolynomialRing(("a",))
    e = elementary_automorphism(TRAPEZOID, col(TRAPEZOID, (0, -1)),
                                ring.zero, ring)
    assert e.is_identity()


def test_elementary_simplex_is_elementary_matrix():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    for p in [SEGMENT, TRIANGLE, SIMPLEX3]:
        for c in column_vectors(p):
            m = dense_matrix(elementary_automorphism(p, c, lam, ring))
            n = len(m)
            assert all(m[i][i] == ring.one for i in range(n))
            off = [(i, j) for i in range(n) for j in range(n)
                   if i != j and m[i][j] != ring.zero]
            assert len(off) == 1
            i, j = off[0]
            assert m[i][j] == lam


def test_elementary_nontrivial_for_nonzero_scalar():
    # whenever a lattice point sits off the base facet, the shear moves it
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    for p in [TRIANGLE, TRAPEZOID, HEXAGON, SQUARE_PYRAMID]:
        for c in column_vectors(p):
            e = elementary_automorphism(p, c, lam, ring)
            off_base = len(p.lattice_points) > len(
                p.facets[c.base].on_facet
            )
            assert e.is_identity() == (not off_base)


def _random_scalar(ring, rng):
    if ring is ZZ:
        return rng.randint(-2, 2)
    if ring is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if isinstance(ring, IntegersMod):
        return ModInt(rng.randrange(ring.modulus), ring.modulus)
    a, b = ring.var("a"), ring.var("b")
    return rng.choice([a, b, a + b, -a, 2 * b, a * b, ring.zero])


def _random_unit(ring, rng):
    if ring is QQ:
        return Fraction(rng.choice([1, 2, -3]), rng.choice([1, 5]))
    if isinstance(ring, IntegersMod):
        return ModInt(rng.choice([1, 5]), ring.modulus)
    return rng.choice([ring.one, -ring.one])


def _random_generator(p, ring, rng):
    kind = rng.choice(["elementary", "torus", "symmetry"])
    if kind == "elementary":
        c = rng.choice(column_vectors(p))
        return elementary_automorphism(p, c, _random_scalar(ring, rng), ring)
    if kind == "torus":
        units = [_random_unit(ring, rng) for _ in range(p.ambient_dim + 1)]
        return torus_automorphism(p, units, ring)
    return rng.choice(sigma_group(p, ring))


def _no_stored_zero(g):
    return all(c != g.ring.zero for col in g.columns for c in col.values())


def test_sparse_compose_matches_dense_oracle():
    rng = random.Random(11)
    rings = [ZZ, QQ, PolynomialRing(("a", "b")), IntegersMod(6)]
    for p in [TRIANGLE, TRAPEZOID, HEXAGON, SQUARE_PYRAMID]:
        for ring in rings:
            for _ in range(2):
                g = identity_automorphism(p, ring)
                for _ in range(4):
                    h = _random_generator(p, ring, rng)
                    assert _no_stored_zero(h)
                    for x, y in ((g, h), (h, g)):
                        xy = x.compose(y)
                        assert _no_stored_zero(xy)
                        assert dense_matrix(xy) == dense_ring_product(
                            ring, dense_matrix(x), dense_matrix(y)
                        ), (p.name, ring, x, y)
                    g = g.compose(h)


def test_elementary_stores_no_vanishing_coefficient():
    for ring in [ZZ, QQ, PolynomialRing(("a", "b")), IntegersMod(6)]:
        for p in [TRIANGLE, TRAPEZOID, HEXAGON, SQUARE_PYRAMID]:
            for c in column_vectors(p):
                e = elementary_automorphism(p, c, ring.zero, ring)
                assert e.columns == identity_automorphism(p, ring).columns
    # on the hexagon the point (2, 3) has height 3, and 3 = C(3, 1) = C(3, 2)
    # vanishes mod 3: only the two end terms of the binomial survive
    ring = IntegersMod(3)
    lam = ModInt(2, 3)
    e = elementary_automorphism(HEXAGON, col(HEXAGON, (0, -1)), lam, ring)
    pts = HEXAGON.lattice_points
    column = e.columns[pts.index((2, 3))]
    assert {pts[i]: c for i, c in column.items()} == {
        (2, 3): ring.one,
        (2, 0): lam * lam * lam,
    }
    assert _no_stored_zero(e)
    # 2 + 4 = 0 mod 6: every term of x_u(2) x_u(4) off the diagonal sums to
    # zero, and the composite must keep none of them
    ring = IntegersMod(6)
    assert not ring.zero and ring.one and not ModInt(12, 6)
    for p in [TRIANGLE, HEXAGON, SQUARE_PYRAMID]:
        for c in column_vectors(p):
            e = elementary_automorphism(p, c, ModInt(2, 6), ring).compose(
                elementary_automorphism(p, c, ModInt(4, 6), ring)
            )
            assert _no_stored_zero(e)
            assert e.columns == identity_automorphism(p, ring).columns


def _chain_steps():
    """Steps 1-3 of the trapezoid's doubling chain."""
    return [s.result.doubled for s in doubling_spectrum(TRAPEZOID, 3).steps]


def _closed_formula_scalars():
    """(ring, scalars) pairs: 0 in each ring, and over Z/6 the scalars 2
    and 3, at which binom(h, k) lam^k vanishes for h = 3 and h = 2."""
    zab = PolynomialRing(("a", "b"))
    a, b = zab.var("a"), zab.var("b")
    z6 = IntegersMod(6)
    return [
        (ZZ, [0, 1, -1, 2, 7]),
        (QQ, [Fraction(0), Fraction(-3, 2), Fraction(1)]),
        (zab, [zab.zero, a, a + b, -(a * b)]),
        (z6, [ModInt(t, 6) for t in (0, 1, 2, 3, 5)]),
    ]


def test_shear_columns_match_closed_formula():
    # every column of every shear, built from the stored supports, against
    # the binomial image of its degree-one monomial with the zeros dropped
    rings = _closed_formula_scalars()
    vanished = Counter()
    for p in CORPUS + _chain_steps():
        pts = p.lattice_points
        for c in product_table(p).columns:
            for ring, scalars in rings:
                for lam in scalars:
                    e = elementary_automorphism(p, c, lam, ring)
                    for x, column in zip(pts, e.columns):
                        image = elementary_closed_formula_image(p, c, lam, ring, x, 1)
                        assert {pts[i]: coeff for i, coeff in column.items()} == {
                            y: coeff for y, coeff in image.items() if coeff
                        }, (p.name, c, lam, ring, x)
                        if lam:
                            vanished[repr(ring)] += sum(not a for a in image.values())
    # a nonzero scalar leaves zero terms over Z/6 only
    assert +vanished == Counter({"ZZ/6": vanished["ZZ/6"]}) and vanished["ZZ/6"]


def test_equal_polytopes_walk_their_own_supports():
    p, q = (polytope_from_points(TRAPEZOID.vertices) for _ in range(2))
    assert p == q and p is not q
    c = product_table(p).columns[0]
    e = elementary_automorphism(p, c, 1, ZZ)
    assert "_shear_supports" in p.__dict__
    assert "_shear_supports" not in q.__dict__
    f = elementary_automorphism(q, c.vector, 1, ZZ)
    assert q.__dict__["_shear_supports"] is not p.__dict__["_shear_supports"]
    assert q.__dict__["_shear_supports"] == p.__dict__["_shear_supports"]
    assert e.columns == f.columns and e.polytope is p and f.polytope is q


def test_verifiers_leave_the_shears_they_hold_unchanged(monkeypatch):
    # a composite may share a column dict with its left factor; after both
    # verifiers, every shear they built equals a fresh one, so nothing
    # wrote into a shared column
    held = []

    def recording(p, c, t, ring):
        e = elementary_automorphism(p, c, t, ring)
        held.append((p, c, t, ring, e))
        return e

    monkeypatch.setattr("polycol.algebra.elementary_automorphism", recording)
    inputs = [TRAPEZOID, SQUARE_PYRAMID, WIDE_TRIANGLE, dilate(TRIANGLE, 4)]
    for p in inputs:
        verify_steinberg_relations(p)
        for f in sorted({c.base for c in product_table(p).columns}):
            verify_additive_embedding(p, f)
    monkeypatch.undo()
    assert len({id(p) for p, *_ in held}) == len(inputs)
    for p, c, t, ring, e in held:
        twin = polytope_from_points(p.vertices)
        assert e.columns == elementary_automorphism(p, c, t, ring).columns
        assert e.columns == elementary_automorphism(twin, c.vector, t, ring).columns


def test_elementary_inverse():
    # x_u(-lam) inverts x_u(lam) on both sides
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    c = col(HEXAGON, (0, -1))
    e = elementary_automorphism(HEXAGON, c, lam, ring)
    e_inv = elementary_automorphism(HEXAGON, c, -lam, ring)
    assert e.compose(e_inv).is_identity()
    assert e_inv.compose(e).is_identity()


def test_compose_word_algebra():
    ring = PolynomialRing(("a", "b"))
    lam, mu = ring.var("a"), ring.var("b")
    cols = column_vectors(TRAPEZOID)
    g = elementary_automorphism(TRAPEZOID, cols[0], lam, ring)
    h = elementary_automorphism(TRAPEZOID, cols[1], mu, ring)
    g_inv = elementary_automorphism(TRAPEZOID, cols[0], -lam, ring)
    h_inv = elementary_automorphism(TRAPEZOID, cols[1], -mu, ring)
    ident = identity_automorphism(TRAPEZOID, ring)
    assert ident.compose(g) == g
    # (gh)^-1 = h^-1 g^-1, as a two-sided inverse of gh
    gh = g.compose(h)
    gh_inv = h_inv.compose(g_inv)
    assert gh.compose(gh_inv).is_identity()
    assert gh_inv.compose(gh).is_identity()


def test_compose_rejects_different_algebras():
    # another polytope, or an equal ring held by another object
    c = col(TRAPEZOID, (0, -1))
    g = elementary_automorphism(TRAPEZOID, c, 1, ZZ)
    square = elementary_automorphism(UNIT_SQUARE, col(UNIT_SQUARE, (1, 0)), 1, ZZ)
    rings = [PolynomialRing(("a",)) for _ in range(2)]
    h, twin = (elementary_automorphism(TRAPEZOID, c, r.var("a"), r) for r in rings)
    assert h.columns == twin.columns
    for x, y in ((g, square), (square, g), (h, twin), (twin, h)):
        with pytest.raises(ValueError, match="different algebras"):
            x.compose(y)


def test_degree_consistency(corpus):
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    from polycol.polytopes import normalize_full_dim

    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        cols = column_vectors(q)
        if not cols:
            continue
        e = elementary_automorphism(q, cols[0], lam, ring)
        assert degree_consistency_violations(e, max_degree=2) == []


def test_binomial_formula_matches_multiplicative_action():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    p = TRAPEZOID
    c = col(p, (0, -1))
    e = elementary_automorphism(p, c, lam, ring)
    pts = p.lattice_points
    index = {z: i for i, z in enumerate(pts)}
    for d in (2, 3):
        for combo in itertools.combinations_with_replacement(range(len(pts)), d):
            z = pts[combo[0]]
            for i in combo[1:]:
                z = tuple(a + b for a, b in zip(z, pts[i]))
            via_matrix = _multiset_image(e, combo)
            closed = elementary_closed_formula_image(p, c, lam, ring, z, d)
            assert via_matrix == closed


def test_torus():
    ring = QQ
    t = torus_automorphism(SEGMENT, (Fraction(2), Fraction(3)), ring)
    assert [dense_matrix(t)[i][i] for i in range(2)] == [Fraction(3), Fraction(6)]
    ident = torus_automorphism(TRIANGLE, (Fraction(1),) * 3, ring)
    assert ident.is_identity()
    # scaling through the grading only: a scalar matrix
    c = torus_automorphism(TRIANGLE, (Fraction(1), Fraction(1), Fraction(5)), ring)
    assert all(dense_matrix(c)[i][i] == Fraction(5) for i in range(3))
    t_inv = torus_automorphism(SEGMENT, (Fraction(1, 2), Fraction(1, 3)), ring)
    assert t.compose(t_inv).is_identity()
    with pytest.raises(ValueError):
        torus_automorphism(TRIANGLE, (Fraction(0), Fraction(1), Fraction(1)), ring)
    with pytest.raises(ValueError):
        torus_automorphism(SEGMENT, (2, 3), ZZ)


def test_symmetry_groups():
    assert symmetry_group_data(TRIANGLE)["symmetry_order"] == 6
    square = symmetry_group_data(UNIT_SQUARE)
    assert square["symmetry_order"] == 8
    assert square["inversion_order"] == 4
    assert square["quotient_order"] == 2
    # the trapezoid has the shear-reflection swapping its slanted sides;
    # it is itself a column inversion, so both orders are 2
    trap = symmetry_group_data(TRAPEZOID)
    assert trap["symmetry_order"] == 2
    assert trap["inversion_order"] == 2
    assert symmetry_group_data(SQUARE_PYRAMID)["symmetry_order"] == 8
    # T x T and steps 1-3 of the trapezoid's chain, in dimensions 4, 3, 4, 5
    chain = [step.result.doubled for step in doubling_spectrum(TRAPEZOID, 3).steps]
    orders = [
        (data["symmetry_order"], data["inversion_order"])
        for data in map(symmetry_group_data, [TRIANGLE_X_TRIANGLE] + chain)
    ]
    assert orders == [(72, 36), (6, 6), (12, 12), (36, 36)]


def test_symmetry_groups_reject_two_sided_columns_not_of_type_a(monkeypatch):
    # B_2's 8 roots form one component of rank 2, where A_2 has 6: the
    # order (r + 1)! would be wrong, so the count is refused
    roots = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    table = SimpleNamespace(
        columns=[SimpleNamespace(vector=v) for v in roots],
        index={v: i for i, v in enumerate(roots)},
    )
    monkeypatch.setattr("polycol.algebra.product_table", lambda p: table)
    with pytest.raises(InternalCheckError, match="type A"):
        symmetry_group_data(UNIT_SQUARE)


def test_sigma_group_closure():
    perms = {symmetry_permutation(TRIANGLE, m)
             for m in lattice_symmetries(TRIANGLE)}
    for a, b in itertools.product(perms, repeat=2):
        assert tuple(a[b[i]] for i in range(len(a))) in perms
    mats = sigma_group(UNIT_SQUARE)
    assert len(mats) == 8
    assert all(len(dense_matrix(m)) == 4 for m in mats)


def _conjugation_inputs(corpus):
    """The normalized corpus of dimension >= 1, T x T, steps 1-4 of the
    trapezoid's doubling chain, and the unit cubes and simplices up to
    dimension 4."""
    chain = [step.result.doubled for step in doubling_spectrum(TRAPEZOID, 4).steps]
    units = [
        polytope_from_points(pts)
        for n in range(1, 5)
        for pts in (
            list(itertools.product((0, 1), repeat=n)),
            [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)],
        )
    ]
    normalized = [normalize_full_dim(p)[0] for p in corpus]
    return [q for q in normalized if q.dim >= 1] + [TRIANGLE_X_TRIANGLE] + chain + units


def test_inversions_normal(corpus):
    # the oracle conjugates every element of H by every element of G
    for q in _conjugation_inputs(corpus):
        assert symmetry_group_data(q)["inversions_normal"], q.name
        assert conjugation_normal(symmetry_permutations(q), inversion_subgroup(q))


def test_inversions_conjugate_to_inversions(corpus):
    # the lemma behind normality: g s_v g^-1 = s_{L_g v} for every lattice
    # symmetry g with linear part L_g and every two-sided column v
    conjugations = 0
    for q in _conjugation_inputs(corpus):
        table = product_table(q)
        two_sided = [c.vector for c in table.columns if vec_neg(c.vector) in table.index]
        for g in lattice_symmetries(q):
            perm = symmetry_permutation(q, g)
            inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
            for v in two_sided:
                s = column_inversion(q, v)
                conjugate = tuple(perm[s[inverse[i]]] for i in range(len(perm)))
                assert conjugate == column_inversion(q, mat_vec(g.matrix, v))
                conjugations += 1
    assert conjugations > 9000


def test_symmetry_permutations_walk_no_lattice_point():
    # the symmetry search and the oracle's permutations read the 8 vertices
    # of 16 * cube, not its 17^3 points
    cube = polytope_from_points(
        [tuple(16 * c for c in v) for v in itertools.product((0, 1), repeat=3)]
    )
    assert len(lattice_symmetries(cube)) == 48
    assert "lattice_points" not in cube.__dict__
    perms = symmetry_permutations(cube)
    assert len(perms) == 48
    assert {len(perm) for perm in perms} == {8}
    assert "lattice_points" not in cube.__dict__


def test_column_inversion_square_reflection():
    perm = column_inversion(UNIT_SQUARE, col(UNIT_SQUARE, (1, 0)))
    verts = UNIT_SQUARE.vertices
    # x1 -> 1 - x1
    for i, z in enumerate(verts):
        assert verts[perm[i]] == (1 - z[0], z[1])
    assert len(inversion_subgroup(UNIT_SQUARE)) == 4
    assert len(inversion_subgroup(TRIANGLE)) == 6  # all of Sigma


def test_frame_search_inverts_only_its_anchor(monkeypatch):
    # the anchor frame is inverted once; no candidate image, found map or
    # not, is inverted, and the group orders take that one search
    from polycol import exactmath, polytopes

    inverse = exactmath.mat_inverse_frac
    calls = []

    def counting(m):
        calls.append(m)
        return inverse(m)

    simplex = polytope_from_points(
        [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(0,) * 4]
    )
    simplex.facets  # the facet search inverts a basis of its own
    product_table(simplex)
    for module in (exactmath, polytopes):
        monkeypatch.setattr(module, "mat_inverse_frac", counting)
    group = lattice_symmetries(simplex)
    assert len(group) == 120
    assert len(calls) == 1
    data = symmetry_group_data(simplex)
    assert (data["symmetry_order"], data["inversion_order"]) == (120, 120)
    assert len(calls) == 2


def test_frame_searches_invert_their_anchor_once(monkeypatch):
    # each search fixes one anchor frame and sets it up once for all images
    from polycol import polytopes

    made = []
    maps = polytopes.unimodular_frame_maps

    def counting(frame):
        made.append(frame)
        return maps(frame)

    monkeypatch.setattr(polytopes, "unimodular_frame_maps", counting)
    simplex3 = polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sheared = helpers.linear_image(simplex3, ((1, 2, 0), (0, 1, 0), (0, 3, 1)))
    searches = [
        lambda: lattice_symmetries(simplex3),
        lambda: polytopes.integral_affine_equivalent(simplex3, sheared),
        lambda: polytopes.integral_affine_equivalent(simplex3, NON_NORMAL_SIMPLEX),
        lambda: polytopes.integral_affine_equivalent(
            helpers.linear_image(UNIT_SQUARE, ((1, 1), (0, 1))), UNIT_SQUARE
        ),
    ]
    found = []
    for search in searches:
        del made[:]
        found.append(search())
        assert len(made) == 1
    assert len(found[0]) == 24
    assert found[1] is not None and found[2] is None and found[3] is not None


def test_symmetries_searched_once_per_polytope(monkeypatch):
    calls = []
    search = lattice_symmetries

    def counting(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr("polycol.algebra.lattice_symmetries", counting)
    # fresh objects: the corpus polytopes may already hold their symmetries
    square = polytope_from_points(UNIT_SQUARE.vertices)
    data = symmetry_group_data(square)
    assert (data["symmetry_order"], data["inversion_order"]) == (8, 4)
    assert len(inversion_subgroup(square)) == 4
    assert len(sigma_group(square)) == 8
    assert calls == [square]
    cube = polytope_from_points(list(itertools.product((0, 1), repeat=3)))
    report = analysis_report(cube)
    assert report["symmetry_order"] == 48
    assert report["inversion_subgroup_order"] == 8
    assert calls == [square, cube]


def test_column_inversion_requires_pair():
    with pytest.raises(ValueError):
        column_inversion(TRAPEZOID, col(TRAPEZOID, (0, -1)))


def test_steinberg_relations_fixtures():
    for p in [TRIANGLE, SIMPLEX3, UNIT_SQUARE, TRAPEZOID, SQUARE_PYRAMID]:
        report = verify_steinberg_relations(p)
        assert report["balanced"]
        assert report["all_ok"], p.name
        assert all(entry["ok"] for entry in report["additivity"])
        for entry in report["pairs"]:
            if entry["case"] != "skipped":
                assert entry["ok"], (p.name, entry)


def test_steinberg_dilated_triangle_k8():
    p = dilate(TRIANGLE, 8)
    assert len(p.lattice_points) == 45
    report = verify_steinberg_relations(p)
    assert report["all_ok"]
    assert len(report["additivity"]) == 6
    cases = Counter(entry["case"] for entry in report["pairs"])
    assert cases == {"commute": 18, "product": 6, "skipped": 6}


def test_steinberg_square_all_commute():
    report = verify_steinberg_relations(UNIT_SQUARE)
    cases = {entry["case"] for entry in report["pairs"]}
    assert cases == {"commute"}
    assert all(entry["ok"] for entry in report["pairs"])


def test_steinberg_trapezoid_product_cases():
    report = verify_steinberg_relations(TRAPEZOID)
    prods = [e for e in report["pairs"] if e["case"] == "product"]
    assert {(e["u"], e["v"], e["result"]) for e in prods} == {
        ((1, -1), (-1, 0), (0, -1)),
        ((0, -1), (1, 0), (1, -1)),
    }


def test_steinberg_skipped_pairs_logged():
    report = verify_steinberg_relations(TRIANGLE)
    skipped = [e for e in report["pairs"] if e["case"] == "skipped"]
    assert skipped, "triangle has composable sums without products"
    for e in skipped:
        assert "commutes" in e


def _additivity(p):
    """The additivity entries of a Steinberg report, from
    ``_kronecker_additivity`` alone, which also reads unbalanced P."""
    return [
        {"u": c.vector,
         "ok": _kronecker_additivity(p, c, elementary_automorphism(p, c, 1, ZZ))[0]}
        for c in product_table(p).columns
    ]


def test_steinberg_matches_literal_commutators():
    balanced = [p for p in CORPUS if is_balanced(p)[0]]
    assert SQUARE_PYRAMID in balanced
    dilated = [dilate(TRIANGLE, k) for k in range(3, 9)]
    rng = random.Random(10)
    sheared = [q for p in balanced for q in helpers.sheared_images(p, rng)]
    for p in balanced + dilated + sheared:
        assert verify_steinberg_relations(p) == literal_steinberg_report(p), p.name
    # unbalanced: no report, and each column's additivity still matches
    p = STEEP_TRIANGLE
    assert not is_balanced(p)[0]
    with pytest.raises(ValueError):
        verify_steinberg_relations(p)
    assert _additivity(p) == literal_steinberg_report(p)["additivity"]


def _patch_shears(monkeypatch, shear):
    monkeypatch.setattr("polycol.algebra.elementary_automorphism", shear)
    monkeypatch.setattr(helpers, "elementary_automorphism", shear)


def test_steinberg_wrong_product_shear_fails_same_pairs(monkeypatch):
    # The literal oracle gets x_w(+lam mu) as the product shear.  The checked
    # identities are built over Z at t = 1 and t = -1; negating every such t
    # moves them to lam = mu = -1, where each x_u(-1) still inverts x_u(1)
    # and the commute identities still hold, but the product slot then holds
    # x_w(+1) = x_w(+lam mu) instead of x_w(-lam mu) = x_w(-1).
    ring = PolynomialRing(("a", "b"))
    lam_mu = ring.var("a") * ring.var("b")

    def plus_lam_mu(p, c, t, rng):
        if rng is ZZ:
            t = -t
        elif t == -lam_mu:
            t = lam_mu
        return elementary_automorphism(p, c, t, rng)

    _patch_shears(monkeypatch, plus_lam_mu)
    for p in [TRIANGLE, TRAPEZOID, SQUARE_PYRAMID, dilate(TRIANGLE, 3)]:
        report = verify_steinberg_relations(p)
        assert report == literal_steinberg_report(p), p.name
        failed = [e for e in report["pairs"] if e["ok"] is False]
        assert failed, p.name
        assert all(e["case"] == "product" for e in failed)
        assert len(failed) == sum(
            e["case"] == "product" for e in report["pairs"]
        )
        assert not report["all_ok"]


@pytest.mark.parametrize("scalar", [1, -1], ids=["unit", "inverse"])
def test_steinberg_non_inverse_shear_is_internal_error(
    tmp_path, monkeypatch, capsys, scalar
):
    # x_u(1) or x_u(-1) over Z, the pair that certifies x_u(-t) as the
    # inverse of x_u(t) for t = lam and t = mu, is built at the wrong scalar
    broken = []

    def first_not_inverse(p, c, t, rng):
        if rng is ZZ and t == scalar and not broken:
            broken.append(c)
            t = t + 1
        return elementary_automorphism(p, c, t, rng)

    _patch_shears(monkeypatch, first_not_inverse)
    with pytest.raises(InternalCheckError):
        verify_steinberg_relations(TRAPEZOID)
    assert len(broken) == 1
    broken.clear()
    path = tmp_path / "trapezoid.json"
    path.write_text('{"vertices": [[0, 0], [2, 0], [1, 1], [0, 1]]}')
    code = main(["verify", str(path), "--which", "steinberg"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal check failed: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_steinberg_parallel_pair_is_internal_error(tmp_path, monkeypatch, capsys):
    # a column 2u beside u: parallel, with a nonzero sum, a pair no
    # commutator case covers; its shears are those of u, so every check
    # before the pair loop holds.  u has no zero coordinate, so a minor
    # read with the wrong sign is nonzero
    real_table = product_table

    def slanted(p):
        return next(c for c in real_table(p).columns if all(c.vector))

    def with_double(p, columns=None):
        table = real_table(p, columns)
        u = slanted(p)
        double = ColumnVector(vec_scale(2, u.vector), u.base, vec_scale(2, u.heights))
        cols = tuple(table.columns) + (double,)
        rows = [list(r) + [None] for r in table.rows] + [[None] * len(cols)]
        index = {c.vector: i for i, c in enumerate(cols)}
        return ProductTable(cols, index, rows, table.products)

    def halved(p, c, t, ring):
        u = slanted(p)
        if getattr(c, "vector", c) == vec_scale(2, u.vector):
            c = u
        return elementary_automorphism(p, c, t, ring)

    monkeypatch.setattr("polycol.algebra.product_table", with_double)
    monkeypatch.setattr("polycol.algebra.elementary_automorphism", halved)
    with pytest.raises(InternalCheckError, match="parallel columns"):
        verify_steinberg_relations(polytope_from_points(TRAPEZOID.vertices))
    path = tmp_path / "trapezoid.json"
    path.write_text('{"vertices": [[0, 0], [2, 0], [1, 1], [0, 1]]}')
    code = main(["verify", str(path), "--which", "steinberg"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal check failed: parallel columns ")


def _rank2_composites(p, i, j, k, ring):
    """x_u(a) x_v(b), x_v(b) x_u(a) and, for a product index k,
    x_w(-ab) x_v(b) x_u(a), over Z[a, b]."""
    a, b = ring.var("a"), ring.var("b")
    cols = product_table(p).columns
    xu = elementary_automorphism(p, cols[i], a, ring)
    xv = elementary_automorphism(p, cols[j], b, ring)
    out = [xu.compose(xv), xv.compose(xu)]
    if k is not None:
        xw = elementary_automorphism(p, cols[k], -(a * b), ring)
        out.append(xw.compose(out[1]))
    return out


def test_rank2_commutator_coefficients_are_single_terms(balanced_corpus):
    # the lemma behind checking rank-2 pairs at lam = mu = 1: the coefficient
    # of y in the image of x is one term c a^q b^p, and y - x = q u + p v
    ring = PolynomialRing(("a", "b"))
    dilated = [dilate(TRIANGLE, k) for k in range(3, 9)]
    checked = 0
    for p in balanced_corpus + dilated:
        table = product_table(p)
        pts = p.lattice_points
        for i, j, case, k in table.pair_cases():
            u, v = table.columns[i].vector, table.columns[j].vector
            if rank_int([u, v]) < 2:
                continue
            for g in _rank2_composites(p, i, j, k, ring):
                for x, column in zip(pts, g.columns):
                    for r, coeff in column.items():
                        assert len(coeff.terms) == 1, (p.name, u, v, case)
                        (q, e), = coeff.terms
                        assert vec_sub(pts[r], x) == vec_add(
                            vec_scale(q, u), vec_scale(e, v)
                        ), (p.name, u, v, case)
                        checked += 1
    assert checked > 1000


def test_steinberg_symbolic_compositions(monkeypatch):
    # no composition over a polynomial ring: per column, the inverse
    # certificate x_u(1) x_u(-1) and the Kronecker product x_u(1) x_u(B),
    # all over Z; additivity settles the diagonal pair, so its x_u(B) x_u(1)
    # is composed only where additivity fails
    calls = Counter()
    compose = GradedAutomorphism.compose

    def counted(self, other):
        calls["ZZ" if self.ring is ZZ else "symbolic"] += 1
        return compose(self, other)

    def counts(p):
        calls.clear()
        report = verify_steinberg_relations(p)
        ncols = len(report["additivity"])
        parallel = [e for e in report["pairs"] if rank_int([e["u"], e["v"]]) < 2]
        assert len(parallel) == ncols
        assert all(e["u"] == e["v"] for e in parallel)
        products = sum(e["case"] == "product" for e in report["pairs"])
        assert calls["symbolic"] == 0
        # two products per unordered rank-2 pair, which decide both its
        # orders, and a third for each order's product shear
        rank2 = len(report["pairs"]) - len(parallel)
        return report, ncols, calls["ZZ"] - rank2 - products

    monkeypatch.setattr(GradedAutomorphism, "compose", counted)
    report, ncols, per_column = counts(dilate(TRIANGLE, 4))
    assert report["all_ok"]
    assert per_column == 2 * ncols

    # off-at-4 on the unit triangle: every column fails additivity, so each
    # diagonal pair is decided by its own composition again
    scalars = WRONG_SCALARS["off-at-4"]

    def wrong(p, c, t, rng):
        return elementary_automorphism(p, c, scalars.get(t, t), rng)

    monkeypatch.setattr("polycol.algebra.elementary_automorphism", wrong)
    report, ncols, per_column = counts(TRIANGLE)
    assert not any(e["ok"] for e in report["additivity"])
    assert all(e["ok"] is not False for e in report["pairs"])
    assert per_column == 3 * ncols


def test_kronecker_base_bounds_the_composed_base():
    # B from the entries and column sums of x_u(1) is never below B from the
    # composed x_u(1) x_u(1); both read 3 where every height is at most 1,
    # and the new B is larger above that (1281 against 241 on 6 Delta_2)
    polytopes = list(CORPUS) + [dilate(TRIANGLE, k) for k in range(2, 7)]
    polytopes += _chain_steps()
    checked = equal = 0
    for p in polytopes:
        for u in product_table(p).columns:
            unit = elementary_automorphism(p, u, 1, ZZ)
            b, oracle = _kronecker_base(p, u, unit), helpers.composed_kronecker_base(p, u)
            assert b >= oracle, (p.name, u.vector)
            checked += 1
            equal += b == oracle
    assert checked > 100
    assert 0 < equal < checked


def test_additive_embedding_matches_literal(corpus):
    rng = random.Random(12)
    checked = 0
    for p in corpus:
        for q in [p] + helpers.sheared_images(p, rng, count=1):
            for f in range(len(q.facets)):
                report = verify_additive_embedding(q, f)
                assert report == helpers.literal_embedding_report(q, f), p.name
                checked += "status" not in report
    assert checked >= 6


def test_additive_embedding_reports_non_commuting_shears(monkeypatch):
    # in place of x_(1,-1)(1), the shear along (1, 0): its commutator with
    # the shear along (0, -1) is the shear along their product (1, -1)
    def swapped(p, c, t, rng):
        if rng is ZZ and t == 1 and c.vector == (1, -1):
            c = col(p, (1, 0))
        return elementary_automorphism(p, c, t, rng)

    monkeypatch.setattr("polycol.algebra.elementary_automorphism", swapped)
    report = verify_additive_embedding(TRAPEZOID, col(TRAPEZOID, (0, -1)).base)
    assert report["columns"] == [(0, -1), (1, -1)]
    assert report["pairwise_commute"] is False
    assert not report["all_ok"]


def test_additive_embedding_wide_triangle():
    cols = column_vectors(WIDE_TRIANGLE)
    assert len(cols) == 3
    assert len({c.base for c in cols}) == 1
    report = verify_additive_embedding(WIDE_TRIANGLE, cols[0].base)
    assert report["all_ok"]
    assert report["pairwise_commute"]
    assert report["homomorphism"]
    assert report["distinct_images"] == 25


def test_additive_embedding_triangle_and_vacuous():
    cols = column_vectors(TRIANGLE)
    base = cols[0].base
    report = verify_additive_embedding(TRIANGLE, base)
    assert report["all_ok"]
    lonely = verify_additive_embedding(TRAPEZOID,
                                       col(TRAPEZOID, (-1, 0)).base)
    assert lonely["status"] == "vacuous"


def _embedding_reports(p, verify):
    bases = sorted({c.base for c in product_table(p).columns})
    return [verify(p, f) for f in bases]


@pytest.mark.parametrize("k", range(1, 11))
def test_kronecker_checks_match_literal_on_dilated_triangles(k):
    # additivity, the diagonal pair and the embedding homomorphism over Z
    # against the literal compositions over Z[a, b]
    p = dilate(TRIANGLE, k)
    assert verify_steinberg_relations(p) == literal_steinberg_report(p)
    assert _embedding_reports(p, verify_additive_embedding) == (
        _embedding_reports(p, helpers.literal_embedding_report)
    )


def test_kronecker_checks_match_literal_on_sheared_corpus():
    rng = random.Random(23)
    checked = unbalanced = 0
    for p in CORPUS:
        if not product_table(p).columns:
            continue
        for q in [p] + helpers.sheared_images(p, rng, count=2):
            literal = literal_steinberg_report(q)
            if literal["balanced"]:
                assert verify_steinberg_relations(q) == literal, p.name
            else:
                with pytest.raises(ValueError):
                    verify_steinberg_relations(q)
                unbalanced += 1
            assert _additivity(q) == literal["additivity"], p.name
            assert _embedding_reports(q, verify_additive_embedding) == (
                _embedding_reports(q, helpers.literal_embedding_report)
            ), p.name
            checked += len(literal["additivity"])
    assert checked >= 60
    assert unbalanced == 3


def test_verify_composes_no_polynomials(tmp_path, monkeypatch, capsys):
    counts = Counter()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Poly, "__mul__", counting("mul", Poly.__mul__))
    monkeypatch.setattr(Poly, "__add__", counting("add", Poly.__add__))
    monkeypatch.setattr(
        PolynomialRing, "__init__", counting("ring", PolynomialRing.__init__)
    )
    for p in [TRAPEZOID, WIDE_TRIANGLE, SQUARE_PYRAMID, dilate(TRIANGLE, 4)]:
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"vertices": [list(v) for v in p.vertices]}))
        for which in ["steinberg", "embedding"]:
            assert main(["verify", str(path), "--which", which]) == 0
            capsys.readouterr()
    assert counts == {}
    # the counters do see polynomial work where there is some
    literal_steinberg_report(TRIANGLE)
    assert counts["mul"] > 0 and counts["add"] > 0 and counts["ring"] == 1


# Shears at a wrong scalar: x_u(t) is built as the true x_u(g(t)), with g
# the identity off the listed values and g(1) = 1, g(-1) = -1, so that the
# inverse certificate, the rank-2 pairs and the diagonal pair still hold.
# On the unit triangle every height is at most 1, so the largest entry of a
# true x_u(c) is max(1, c), and x_u(1) = x_u(g(1)) has top entry 1 and
# column sums at most 2: top * mass = 2 = 2 g(1), the largest entry of
# x_u(1) x_u(1).  So B = 1 + max(2, g(2)), and additivity is read as
# g(1) + g(B) = g(1 + B).  Each map is additive at the B of a wrong bound,
# and not at the true B:
WRONG_SCALARS = {
    # B = 3; a B without the +1 is 2, where 1 + 2 = g(3)
    "off-at-4": {4: 5},
    # B = 3 from top * mass; x_u(2) = x_u(1) alone gives B = 2
    "low-at-2": {2: 1, 3: 2},
    # B = 4 from x_u(2) = x_u(3); top * mass alone gives B = 3
    "high-at-2": {2: 3, 5: 6},
}


@pytest.mark.parametrize("scalars", WRONG_SCALARS.values(), ids=WRONG_SCALARS)
def test_wrong_shear_fails_additivity(tmp_path, monkeypatch, capsys, scalars):
    def wrong(p, c, t, rng):
        return elementary_automorphism(p, c, scalars.get(t, t), rng)

    monkeypatch.setattr("polycol.algebra.elementary_automorphism", wrong)
    report = verify_steinberg_relations(TRIANGLE)
    assert report["additivity"]
    assert not any(e["ok"] for e in report["additivity"])
    assert all(e["ok"] is not False for e in report["pairs"])
    assert not report["all_ok"]
    embeddings = _embedding_reports(TRIANGLE, verify_additive_embedding)
    assert embeddings
    for e in embeddings:
        assert e["pairwise_commute"]
        assert e["homomorphism"] is False
        assert not e["all_ok"]
    path = tmp_path / "triangle.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    for which in ["steinberg", "embedding"]:
        assert main(["verify", str(path), "--which", which]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False


def test_wrong_polynomial_shear_fails_additivity_like_literal(monkeypatch):
    # x_u(g(t)) with g(t) = t + (t^2 - 1)(t - 2)(t - 3), in every ring: not
    # additive over Z[a, b], and g(1) = 1, g(-1) = -1
    def wrong(p, c, t, rng):
        return elementary_automorphism(p, c, t + (t * t - 1) * (t - 2) * (t - 3), rng)

    _patch_shears(monkeypatch, wrong)
    for p in [TRIANGLE, TRAPEZOID, dilate(TRIANGLE, 3)]:
        report = verify_steinberg_relations(p)
        assert report["additivity"] == literal_steinberg_report(p)["additivity"]
        assert not any(e["ok"] for e in report["additivity"]), p.name


def test_wrong_inverse_shear_exits_internal(tmp_path, monkeypatch, capsys):
    # x_u(-2) in place of x_u(-1): the inverse certificate is composed for
    # every column, never inferred from additivity, so it must fail
    def wrong(p, c, t, rng):
        return elementary_automorphism(p, c, -2 if t == -1 else t, rng)

    monkeypatch.setattr("polycol.algebra.elementary_automorphism", wrong)
    with pytest.raises(InternalCheckError, match="do not invert"):
        verify_steinberg_relations(TRIANGLE)
    path = tmp_path / "triangle.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    code = main(["verify", str(path), "--which", "steinberg"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal check failed: the shears along ")
    assert "do not invert" in err


def _count_embedding_work(monkeypatch, p, facet_index):
    calls = Counter()
    compose, hash_ = GradedAutomorphism.compose, GradedAutomorphism.__hash__

    def counted_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)

    def counted_hash(self):
        calls["hash"] += 1
        return hash_(self)

    monkeypatch.setattr(GradedAutomorphism, "compose", counted_compose)
    monkeypatch.setattr(GradedAutomorphism, "__hash__", counted_hash)
    return verify_additive_embedding(p, facet_index), calls


def test_embedding_grid_composes_no_image_in_full(monkeypatch):
    # one column tells the 25 grid images apart, so the grid makes no full
    # composition and no hash: only the s(s - 1) commutation products and
    # one Kronecker product per column are composed
    base = column_vectors(WIDE_TRIANGLE)[0].base
    report, calls = _count_embedding_work(monkeypatch, WIDE_TRIANGLE, base)
    s = len(report["columns"])
    assert s == 3
    assert report["distinct_images"] == 25
    assert calls == {"compose": s * (s - 1) + s}


def test_embedding_grid_counts_colliding_images(monkeypatch):
    # x_v(3) = x_v(1) for the second column v: the images at (a, 3) and
    # (a, 1) coincide for each a, so the grid has 20 distinct images, and
    # each of the five colliding groups of two is composed and hashed in full
    base = column_vectors(WIDE_TRIANGLE)[0].base
    v = [c for c in product_table(WIDE_TRIANGLE).columns if c.base == base][1]

    def collide(p, c, t, rng):
        if getattr(c, "vector", c) == v.vector and t == 3:
            t = 1
        return elementary_automorphism(p, c, t, rng)

    _patch_shears(monkeypatch, collide)
    literal = helpers.literal_embedding_report(WIDE_TRIANGLE, base)
    report, calls = _count_embedding_work(monkeypatch, WIDE_TRIANGLE, base)
    assert report == literal
    assert report["distinct_images"] == 20
    assert report["injective_on_grid"] is False
    assert not report["all_ok"]
    assert calls == {"compose": 3 * 2 + 3 + 10, "hash": 10}


def test_unit_simplex_words_have_determinant_one():
    # random words in elementary generators over the polynomial ring
    ring = PolynomialRing(("a", "b"))
    lam, mu = ring.var("a"), ring.var("b")
    rng = random.Random(5)
    cols = column_vectors(TRIANGLE)
    for _ in range(10):
        word = identity_automorphism(TRIANGLE, ring)
        for _ in range(rng.randint(1, 4)):
            c = cols[rng.randrange(len(cols))]
            word = word.compose(
                elementary_automorphism(TRIANGLE, c, rng.choice([lam, mu]), ring)
            )
        assert _det_ring(ring, dense_matrix(word)) == ring.one


def _det_ring(ring, m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = ring.zero
    for j in range(n):
        minor = [
            [m[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = m[0][j] * _det_ring(ring, tuple(map(tuple, minor)))
        out = out + term if j % 2 == 0 else out - term
    return out


def test_presentation_text():
    lines = steinberg_presentation_lines(TRAPEZOID)
    assert "GEN v0 base=3" in lines
    gens = [l for l in lines if l.startswith("GEN")]
    assert len(gens) == 4
    adds = [l for l in lines if l.startswith("REL add")]
    assert len(adds) == 4
    comm_product = [l for l in lines if "sign=-1" in l]
    assert len(comm_product) == 2
    data = steinberg_presentation_json(TRAPEZOID)
    assert len(data["generators"]) == 4
    assert len(data["skipped_pairs"]) == 2
    square_lines = steinberg_presentation_lines(UNIT_SQUARE)
    assert not any("sign" in l for l in square_lines)
    tri_lines = steinberg_presentation_lines(TRIANGLE)
    assert len([l for l in tri_lines if l.startswith("GEN")]) == 6
    assert len([l for l in tri_lines if "sign=-1" in l]) == 6


def test_presentation_mod():
    lines = steinberg_presentation_mod(UNIT_SQUARE, 2)
    assert lines[0] == "MOD 2"
    assert "GEN v0^1" in lines
    assert all("^" in l or l.startswith("MOD") for l in lines)


def test_presentation_requires_balanced():
    from .conftest import STEEP_TRIANGLE

    with pytest.raises(ValueError):
        steinberg_presentation_lines(STEEP_TRIANGLE)
    with pytest.raises(ValueError):
        steinberg_presentation_json(STEEP_TRIANGLE)
    with pytest.raises(ValueError):
        steinberg_presentation_mod(STEEP_TRIANGLE, 3)


def test_presentations_match_literal_pair_cases(balanced_corpus):
    # expected lines, relations and skipped pairs straight from the literal
    # product table, rendered here without the production exporters
    m = 3
    exps = range(1, m)

    def power(k, c):
        return f"v{k}^{c}" if c else "1"

    for p in balanced_corpus:
        cols, rows = helpers.literal_product_table(p)
        index = {v: i for i, (v, _) in enumerate(cols)}
        n = len(cols)
        lines = [f"GEN v{i} base={b}" for i, (_, b) in enumerate(cols)]
        lines += [f"REL add v{i}" for i in range(n)]
        relations = [{"kind": "add", "i": i} for i in range(n)]
        skipped = []
        mod_lines = [f"MOD {m}"] + [f"GEN v{i}^{a}" for i in range(n) for a in exps]
        mod_lines += [
            f"REL mul v{i}^{a} v{i}^{b} = {power(i, (a + b) % m)}"
            for i in range(n) for a in exps for b in exps
        ]
        for i, j in itertools.product(range(n), repeat=2):
            s = vec_add(cols[i][0], cols[j][0])
            k = rows[i][j]
            if not any(s):
                continue
            if k is not None:
                lines.append(f"REL comm v{i} v{j} -> v{k} sign=-1")
                relations.append(
                    {"kind": "comm", "i": i, "j": j, "result": k, "sign": -1}
                )
                mod_lines += [
                    f"REL comm v{i}^{a} v{j}^{b} = {power(k, -a * b % m)}"
                    for a in exps for b in exps
                ]
            elif s not in index:
                lines.append(f"REL comm v{i} v{j} -> 1")
                relations.append({"kind": "comm", "i": i, "j": j, "result": None})
                mod_lines += [
                    f"REL comm v{i}^{a} v{j}^{b} = 1" for a in exps for b in exps
                ]
            else:
                skipped.append({"i": i, "j": j})
        assert steinberg_presentation_lines(p) == lines, p.name
        data = steinberg_presentation_json(p)
        assert data["relations"] == relations, p.name
        assert data["skipped_pairs"] == skipped, p.name
        assert steinberg_presentation_mod(p, m) == mod_lines, p.name
