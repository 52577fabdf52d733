"""Classical lattice-point theorems as oracles for ``lattice_points``.

Each side of an identity is computed without the other: the counts come
from ``Polytope.lattice_points``, the fibre walk, and the right-hand sides
from the vertices alone.
"""

from math import comb, gcd

import pytest

from polycol.doubling import doubling_spectrum
from polycol.polytopes import Polytope, dilate, normalized_volume
from polycol.scan import enumerate_polygons

from .conftest import (
    EMPTY_SIMPLEX,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SIMPLEX3,
    SQUARE_PYRAMID,
    TRAPEZOID,
)
from .helpers import random_normalized_polytopes


def test_pick_on_every_polygon_in_the_box():
    """Pick's theorem: a lattice polygon with area A and B lattice points on
    its boundary holds A + B/2 + 1 lattice points (G. Pick, "Geometrisches
    zur Zahlenlehre", Sitzungsber. Lotos Prag 19 (1899); M. Beck and
    S. Robins, "Computing the Continuous Discretely", 2nd ed., Springer
    2015, ch. 2).

    2A is the shoelace sum over the counterclockwise cycle, and an edge
    with vector (dx, dy) holds gcd(dx, dy) boundary points besides its
    start.
    """
    polygons = enumerate_polygons(3)
    assert len(polygons) == 1633
    for cycle in polygons:
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        twice_area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)
        boundary = sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
        count = len(Polytope(cycle, 2).lattice_points)
        assert 2 * count == twice_area + boundary + 2, cycle


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
