"""Published theorems as oracles for the program.

Each side of an identity is computed without the other.  The lattice-point
counts come from ``Polytope.lattice_points``, the fibre walk, and the
right-hand sides from the vertices alone; class counts, equivalences and
group orders come from the normal forms and the equivalence search, and
the expected values from closed formulas.
"""

import itertools
from collections import Counter
from math import comb, factorial, gcd, prod
from operator import add, sub

import pytest

from polycol.algebra import symmetry_group_data
from polycol.columns import product_table
from polycol.doubling import doubling_spectrum
from polycol.polytopes import (
    Polytope,
    cycle_normal_form,
    dilate,
    integral_affine_equivalent,
    normalized_volume,
    polytope_from_points,
)
from polycol.scan import enumerate_polygons

from .conftest import (
    CORPUS,
    EMPTY_SIMPLEX,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SIMPLEX3,
    SQUARE_PYRAMID,
    TRAPEZOID,
)
from .helpers import (
    inversion_subgroup,
    off_facet_minima,
    random_normalized_polytopes,
    rational_rank,
)


def _twice_area_and_boundary(cycle):
    """(2A, B) of the polygon with a counterclockwise vertex cycle: 2A is
    the shoelace sum, and an edge with vector (dx, dy) holds gcd(dx, dy)
    boundary points besides its start."""
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    twice_area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)
    boundary = sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
    return twice_area, boundary


def test_pick_on_every_polygon_in_the_box():
    """Pick's theorem: a lattice polygon with area A and B lattice points on
    its boundary holds A + B/2 + 1 lattice points (G. Pick, "Geometrisches
    zur Zahlenlehre", Sitzungsber. Lotos Prag 19 (1899); M. Beck and
    S. Robins, "Computing the Continuous Discretely", 2nd ed., Springer
    2015, ch. 2).
    """
    polygons = enumerate_polygons(3)
    assert len(polygons) == 1633
    for cycle in polygons:
        twice_area, boundary = _twice_area_and_boundary(cycle)
        count = len(Polytope(cycle, 2).lattice_points)
        assert 2 * count == twice_area + boundary + 2, cycle


def test_sixteen_reflexive_polygons_in_the_box():
    """Up to lattice equivalence there are exactly 16 lattice polygons with
    one interior lattice point, the reflexive polygons (B. Poonen and
    F. Rodriguez-Villegas, "Lattice polygons and the number 12", Amer.
    Math. Monthly 107 (2000); W. Castryck, "Moving out the edges of a
    lattice polygon", Discrete Comput. Geom. 47 (2012)).  All of them fit
    in [0, 3]^2, so the classes of the box-4 polygons hold each once.

    The classes are the distinct ``cycle_normal_form`` values, and the
    interior count I = A - B/2 + 1 is read off a member's cycle by Pick's
    theorem, not from ``lattice_points``.
    """
    classes = {}
    for cycle in enumerate_polygons(4):
        classes.setdefault(cycle_normal_form(cycle), cycle)
    interior = [
        (twice_area - boundary + 2) // 2
        for twice_area, boundary in map(_twice_area_and_boundary, classes.values())
    ]
    assert interior.count(1) == 16


def _ehrhart_top_differences(p):
    """The n-th finite differences of k -> |L(kP)| at k = 0, 1 and 2, with
    |L(0P)| = 1 and |L(1P)| read off P itself."""
    n = p.ambient_dim
    counts = [1, len(p.lattice_points)]
    counts += [len(dilate(p, k).lattice_points) for k in range(2, n + 3)]
    return [
        sum((-1) ** (n - j) * comb(n, j) * counts[s + j] for j in range(n + 1))
        for s in range(3)
    ]


@pytest.mark.parametrize(
    "p",
    [SIMPLEX3, SQUARE_PYRAMID, NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX],
    ids=lambda p: p.name,
)
def test_ehrhart_top_difference_on_3_polytopes(p):
    """Ehrhart's theorem: for a lattice n-polytope P, k -> |L(kP)| is a
    polynomial of degree n with leading coefficient vol(P) and constant
    term 1, so its n-th finite difference is the constant n! vol(P), the
    normalized volume (E. Ehrhart, "Sur les polyedres rationnels homothetiques a n
    dimensions", C. R. Acad. Sci. Paris 254 (1962); Beck and Robins,
    "Computing the Continuous Discretely", 2nd ed., Springer 2015, ch. 3).

    All but the pyramid are empty tetrahedra, four lattice points each, of
    normalized volumes 1, 2, 3 and 2: there L(P) alone cannot tell them
    apart.
    """
    assert _ehrhart_top_differences(p) == [normalized_volume(p)] * 3


def test_ehrhart_top_difference_on_random_3_polytopes():
    for p in random_normalized_polytopes(26, 6, dims=(3,)):
        assert _ehrhart_top_differences(p) == [normalized_volume(p)] * 3, p


def test_ehrhart_top_difference_along_the_doubling_chain():
    """Ehrhart's theorem, as above, on steps 1-3 of the trapezoid's chain,
    in dimensions 3, 4 and 5: |L(D)| is the count seeded from P's points,
    and the dilations are walked afresh."""
    chain = doubling_spectrum(TRAPEZOID, 3)
    for st in chain.steps:
        d = st.result.doubled
        assert _ehrhart_top_differences(d) == [normalized_volume(d)] * 3


def _white_tetrahedron(p, q):
    """T(p, q) = conv(0, e1, e3, (p, q, 1))."""
    return polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1)])


def test_white_empty_tetrahedra_equivalence():
    """White's theorem: for gcd(p, q) = 1, T(p, q) holds no lattice point
    but its vertices and has normalized volume q, and T(p, q) and T(p', q)
    are lattice equivalent iff p' = +-p or p' p = +-1 (mod q) (G. K. White,
    "Lattice tetrahedra", Canad. J. Math. 16 (1964); A. Sebo, "An
    introduction to empty lattice simplices", IPCO 1999, LNCS 1610).

    All 45 pairs p < p' of residues prime to q, for q <= 9.
    """
    pairs = 0
    for q in range(1, 10):
        residues = [p for p in range(q) if gcd(p, q) == 1]
        for p in residues:
            t = _white_tetrahedron(p, q)
            assert len(t.lattice_points) == 4 and normalized_volume(t) == q
        for p, p2 in itertools.combinations(residues, 2):
            expected = p2 in {p, q - p, pow(p, -1, q), q - pow(p, -1, q)}
            found = integral_affine_equivalent(
                _white_tetrahedron(p, q), _white_tetrahedron(p2, q))
            assert (found is not None) == expected, (p, p2, q)
            pairs += 1
    assert pairs == 45


def _unit_simplex(n):
    return polytope_from_points(
        [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)])


def _cube(n):
    return polytope_from_points(list(itertools.product((0, 1), repeat=n)))


def _cross_polytope(n):
    return polytope_from_points(
        [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)])


@pytest.mark.parametrize(
    "build, n, order",
    [(_unit_simplex, n, factorial(n + 1)) for n in range(1, 5)]
    + [(_cube, n, 2 ** n * factorial(n)) for n in range(1, 5)]
    + [(_cross_polytope, n, 2 ** n * factorial(n)) for n in range(1, 5)],
    ids=lambda v: getattr(v, "__name__", str(v)).strip("_"),
)
def test_symmetry_group_orders(build, n, order):
    """The lattice symmetries of the unit n-simplex are the (n+1)! affine
    permutations of its vertices; those of the unit n-cube and of the
    cross-polytope conv(+-e_i) are the hyperoctahedral group, of order
    2^n n!, the signed permutations of the coordinates (H. S. M. Coxeter,
    "Regular Polytopes", 3rd ed., Dover 1973)."""
    assert symmetry_group_data(build(n))["symmetry_order"] == order


def test_off_facet_minima_vanish_off_the_diagonal():
    """The two facts the sign tests of ``columns`` rest on, against the
    brute-force minima M[F][G], the least height over G of a lattice point
    off F: M[F][G] = 0 for G != F, as G has a vertex off F; and a column
    with base F sits at height -M[F][F] over F (Bruns and Gubeladze,
    "Polytopal linear groups", J. Algebra 218 (1999), where a column sits
    at height -1 over its base on normalized P).

    On the CORPUS, every polygon of ``enumerate_polygons(3)`` (columns on
    the normalized ones) and steps 1-11 of the trapezoid's doubling chain.
    """
    polytopes = list(CORPUS)
    polytopes += [Polytope(cycle, 2) for cycle in enumerate_polygons(3)]
    polytopes += [st.result.doubled
                  for st in doubling_spectrum(TRAPEZOID, 11).steps]
    columns = 0
    for p in polytopes:
        minima = off_facet_minima(p)
        for f, row in enumerate(minima):
            assert row[f] >= 1 and row[:f] + row[f + 1:] == (0,) * (len(row) - 1), p
        if p.is_normalized:
            for c in product_table(p).columns:
                assert c.heights[c.base] == -minima[c.base][c.base], (p, c)
                columns += 1
    assert columns > 2000


def _demazure_roots(p):
    """The Demazure roots of P's normal fan, as (m, F): ⟨n_F, m⟩ = -1 for
    the one facet F and ⟨n_G, m⟩ >= 0 for every other, with the inner
    normals of ``p._facet_pairs``.  A column v is a difference of lattice
    points, so m is sought in the box of P's coordinate widths, one
    coordinate at a time.  A prefix is dropped once the coordinates left,
    however chosen in the box, cannot lift some height to -1 or two heights
    to 0."""
    normals = [normal for normal, _ in p._facet_pairs]
    n = p.ambient_dim
    widths = [
        max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices)
        for i in range(n)
    ]
    # reach[i][g]: the most that coordinates i, i+1, ... add to the height
    # over facet g
    reach = [[0] * len(normals)]
    for i in reversed(range(n)):
        reach.insert(0, [r + abs(a[i]) * widths[i]
                         for r, a in zip(reach[0], normals)])
    roots = set()

    def walk(m, heights):
        lifted = [h + r for h, r in zip(heights, reach[len(m)])]
        if min(lifted) < -1 or sum(h < 0 for h in lifted) > 1:
            return
        if len(m) == n:
            negative = [f for f, h in enumerate(heights) if h < 0]
            if negative:
                roots.add((m, negative[0]))
            return
        i = len(m)
        for x in range(-widths[i], widths[i] + 1):
            walk(m + (x,), [h + a[i] * x for h, a in zip(heights, normals)])

    walk((), [0] * len(normals))
    return roots


@pytest.mark.parametrize("p", CORPUS, ids=lambda p: p.name)
def test_columns_are_the_demazure_roots_and_survive_dilation(p):
    """On normalized P, Col(P) is the set of Demazure roots of the normal
    fan with their facets (M. Demazure, "Sous-groupes algébriques de rang
    maximum du groupe de Cremona", Ann. Sci. ÉNS 3 (1970); D. Cox, "The
    homogeneous coordinate ring of a toric variety", J. Algebraic Geom. 4
    (1995), §4; Bruns and Gubeladze, "Polytopal linear groups", J. Algebra
    218 (1999), §1).  A column sits at height -1 over its base and >= 0
    over every other facet; conversely, a lattice point x off F has height
    >= 1 over F, so x + m has height >= 0 there and no less than x
    elsewhere, and lies in P.  kP has the same normal fan, so
    Col(kP) = Col(P) for k = 2, 3, base facets included.

    The roots come from the facet normals and the vertex box alone, with no
    lattice point or column code.
    """
    columns = {(c.vector, c.base) for c in product_table(p).columns}
    assert columns == _demazure_roots(p)
    for k in (2, 3):
        scaled = {(c.vector, c.base) for c in product_table(dilate(p, k)).columns}
        assert scaled == columns, k


def test_columns_are_the_demazure_roots_beyond_the_corpus():
    """The theorem above on steps 1-9 of the trapezoid's doubling chain,
    whose columns the doubling seeds, and on seeded random polytopes in
    dimensions 3 and 4, whose columns the lattice-point search finds.
    Dilating these is left out: 3P at step 9 lies in Z^11."""
    polytopes = [st.result.doubled
                 for st in doubling_spectrum(TRAPEZOID, 9).steps]
    polytopes += random_normalized_polytopes(14, 40, dims=(3, 4))
    assert polytopes[8].ambient_dim == 11
    for p in polytopes:
        columns = {(c.vector, c.base) for c in product_table(p).columns}
        assert columns == _demazure_roots(p), p.vertices


def _semisimple_components(p):
    """(rank, size) of each component of S = Col(P) ∩ -Col(P), with u and v
    joined when u + v or u - v lies in S, or u + v = 0."""
    cols = {c.vector for c in product_table(p).columns}
    roots = {u for u in cols if tuple(-x for x in u) in cols}
    unseen, components = set(roots), []
    while unseen:
        component, stack = set(), [unseen.pop()]
        while stack:
            u = stack.pop()
            component.add(u)
            joined = {
                v for v in unseen
                if not any(map(add, u, v))
                or tuple(map(add, u, v)) in roots
                or tuple(map(sub, u, v)) in roots
            }
            unseen -= joined
            stack.extend(joined)
        components.append((rational_rank(sorted(component)), len(component)))
    return sorted(components)


def test_semisimple_columns_are_of_type_a():
    """The reductive part of a polytopal linear group has a root system of
    type A: its roots are the columns u with -u also a column, and each
    irreducible component is some A_l (Bruns and Gubeladze, "Polytopal
    linear groups", J. Algebra 218 (1999), §1).  Two roots of one component
    are linked by a chain of roots whose neighbours sum or differ to a
    root, so the components below are the irreducible ones.  A_l has rank l
    and l(l+1) roots; B_l and C_l have 2l², D_l has 2l(l-1) and G_2 has 12,
    which meet l(l+1) only where the types coincide (B_1 = C_1 = A_1,
    D_3 = A_3).  So the counts alone rule the other types out.

    On the CORPUS, every polygon of ``enumerate_polygons(3)``, steps 1-9 of
    the trapezoid's doubling chain and seeded random polytopes in
    dimensions 3 and 4.  The unit n-simplex gives A_n, and the n-cube
    gives n copies of A_1.
    """
    polytopes = list(CORPUS)
    polytopes += [Polytope(cycle, 2) for cycle in enumerate_polygons(3)]
    polytopes += [st.result.doubled
                  for st in doubling_spectrum(TRAPEZOID, 9).steps]
    polytopes += random_normalized_polytopes(32, 50, dims=(3, 4))
    ranks = Counter()
    for p in polytopes:
        for rank, size in _semisimple_components(p):
            assert size == rank * (rank + 1), (p, rank, size)
            ranks[rank] += 1
    assert ranks[1] > 200 and max(ranks) == 7, ranks
    for n in range(1, 6):
        assert _semisimple_components(_unit_simplex(n)) == [(n, n * (n + 1))]
    for n in range(1, 5):
        assert _semisimple_components(_cube(n)) == [(1, 2)] * n


def test_inversion_subgroup_is_the_weyl_group():
    """The inversion subgroup H, generated by the column inversions, is the
    Weyl group of the root system S = Col(P) ∩ -Col(P), of type A by
    ``test_semisimple_columns_are_of_type_a``: |W(A_r)| = (r + 1)!, so |H|
    is the product of (r_i + 1)! over the components A_{r_i} of S
    (J. E. Humphreys, "Introduction to Lie Algebras and Representation
    Theory", Springer 1972, ch. III).  ``symmetry_group_data`` reads |H| off
    its own components of S; here the right-hand sides are the product over
    ``_semisimple_components``, which also joins roots whose difference is a
    root, and the closure of the column inversions as vertex permutations.
    On the CORPUS, every polygon of ``enumerate_polygons(2)``, steps 1-4 of
    the trapezoid's doubling chain, seeded random polytopes in dimensions 3
    and 4, and the unit cubes and simplices in dimensions 2-4.
    """
    polytopes = list(CORPUS)
    polytopes += [Polytope(cycle, 2) for cycle in enumerate_polygons(2)]
    polytopes += [st.result.doubled
                  for st in doubling_spectrum(TRAPEZOID, 4).steps]
    polytopes += random_normalized_polytopes(41, 20, dims=(3, 4))
    polytopes += [build(n) for build in (_cube, _unit_simplex) for n in range(2, 5)]
    orders = Counter()
    for p in polytopes:
        weyl = prod(factorial(rank + 1) for rank, _ in _semisimple_components(p))
        assert symmetry_group_data(p)["inversion_order"] == weyl, p.vertices
        assert len(inversion_subgroup(p)) == weyl, p.vertices
        orders[weyl] += 1
    assert set(orders) == {1, 2, 4, 6, 8, 12, 16, 24, 36, 120, 144}, orders
