import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from polycol.algebra import (
    check_column_property,
    degree_consistency_violations,
    elementary_automorphism,
    elementary_closed_formula_image,
    identity_automorphism,
    inversion_subgroup,
    lattice_symmetries,
    monomials_of_degree,
    sigma_group,
    sp_membership,
    steinberg_presentation_json,
    steinberg_presentation_lines,
    steinberg_presentation_mod,
    symmetry_group_data,
    symmetry_permutation,
    torus_automorphism,
    verify_additive_embedding,
    verify_steinberg_relations,
    _multiset_image,
    column_inversion,
)
from polycol.columns import column_vectors
from polycol.exactmath import QQ, ZZ, IntegersMod, ModInt, PolynomialRing, dot
from polycol.polytopes import dilate

from .conftest import (
    HEXAGON,
    NON_NORMAL_SIMPLEX,
    SEGMENT,
    SIMPLEX3,
    SQUARE_PYRAMID,
    TRAPEZOID,
    TRIANGLE,
    UNIT_SQUARE,
    WIDE_TRIANGLE,
)
from .helpers import dense_ring_product


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


def test_column_property():
    v = col(HEXAGON, (0, -1))
    ok, violations = check_column_property(HEXAGON, v, max_degree=2)
    assert ok and not violations
    # points on the base face are excluded from the quantifier, so degree-1
    # monomials at height zero never show up as violations
    for p in [TRIANGLE, UNIT_SQUARE, SQUARE_PYRAMID]:
        for c in column_vectors(p):
            assert check_column_property(p, c, max_degree=2)[0]


def test_column_property_rejects_non_column():
    with pytest.raises(ValueError):
        from polycol.columns import ColumnVector

        check_column_property(HEXAGON, ColumnVector((2, 2), 0))


def test_elementary_hexagon_binomial_column():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    e = elementary_automorphism(HEXAGON, col(HEXAGON, (0, -1)), lam, ring)
    pts = HEXAGON.lattice_points
    j = pts.index((2, 3))
    images = {
        pts[i]: e.matrix[i][j]
        for i in range(len(pts))
        if e.matrix[i][j] != ring.zero
    }
    assert images == {
        (2, 3): ring.one,
        (2, 2): 3 * lam,
        (2, 1): 3 * lam * lam,
        (2, 0): lam * lam * lam,
    }


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
            m = elementary_automorphism(p, c, lam, ring).matrix
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
                        assert xy.matrix == dense_ring_product(
                            ring, x.matrix, y.matrix
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


def test_elementary_inverse():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    e = elementary_automorphism(HEXAGON, col(HEXAGON, (0, -1)), lam, ring)
    assert e.compose(e.inverse()).is_identity()
    assert e.inverse().compose(e).is_identity()


def test_compose_word_algebra():
    ring = PolynomialRing(("a", "b"))
    lam, mu = ring.var("a"), ring.var("b")
    cols = column_vectors(TRAPEZOID)
    g = elementary_automorphism(TRAPEZOID, cols[0], lam, ring)
    h = elementary_automorphism(TRAPEZOID, cols[1], mu, ring)
    ident = identity_automorphism(TRAPEZOID, ring)
    assert ident.compose(g) == g
    # (gh)^-1 = h^-1 g^-1
    gh = g.compose(h)
    assert gh.compose(gh.inverse()).is_identity()
    assert gh.inverse() == h.inverse().compose(g.inverse())


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
    assert [t.matrix[i][i] for i in range(2)] == [Fraction(3), Fraction(6)]
    ident = torus_automorphism(TRIANGLE, (Fraction(1),) * 3, ring)
    assert ident.is_identity()
    # scaling through the grading only: a scalar matrix
    c = torus_automorphism(TRIANGLE, (Fraction(1), Fraction(1), Fraction(5)), ring)
    assert all(c.matrix[i][i] == Fraction(5) for i in range(3))
    assert t.compose(t.inverse()).is_identity()
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


def test_sigma_group_closure():
    perms = {symmetry_permutation(TRIANGLE, m)
             for m in lattice_symmetries(TRIANGLE)}
    for a, b in itertools.product(perms, repeat=2):
        assert tuple(a[b[i]] for i in range(len(a))) in perms
    mats = sigma_group(UNIT_SQUARE)
    assert len(mats) == 8
    assert all(len(m.matrix) == 4 for m in mats)


def test_inversions_normal(corpus):
    from polycol.polytopes import normalize_full_dim

    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        assert symmetry_group_data(q)["inversions_normal"], q.name


def test_column_inversion_square_reflection():
    perm = column_inversion(UNIT_SQUARE, col(UNIT_SQUARE, (1, 0)))
    pts = UNIT_SQUARE.lattice_points
    # x1 -> 1 - x1
    for i, z in enumerate(pts):
        assert pts[perm[i]] == (1 - z[0], z[1])
    assert len(inversion_subgroup(UNIT_SQUARE)) == 4
    assert len(inversion_subgroup(TRIANGLE)) == 6  # all of Sigma


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
        assert _det_ring(ring, word.matrix) == ring.one


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
