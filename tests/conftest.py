import pytest

from polycol.polytopes import polytope_from_points, dilate


def _p(pts, name):
    return polytope_from_points(pts, name=name)


SEGMENT = _p([(0,), (1,)], "segment")
TRIANGLE = _p([(0, 0), (1, 0), (0, 1)], "unit triangle")
TRIANGLE2 = dilate(TRIANGLE, 2)
SIMPLEX3 = _p([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], "unit 3-simplex")
UNIT_SQUARE = _p([(0, 0), (1, 0), (0, 1), (1, 1)], "unit square")
RECTANGLE = _p([(0, 0), (2, 0), (0, 1), (2, 1)], "2x1 rectangle")
TRAPEZOID = _p([(0, 0), (2, 0), (1, 1), (0, 1)], "trapezoid")
BIG_TRAPEZOID = _p([(0, 0), (3, 0), (1, 2), (0, 2)], "big trapezoid")
SLANTED_QUAD = _p([(0, 0), (3, 0), (3, 2), (2, 2)], "slanted quad")
HEXAGON = _p([(0, 0), (5, 0), (5, 2), (4, 3), (2, 3), (1, 2)], "hexagon")
WIDE_TRIANGLE = _p([(0, 0), (6, 0), (1, 2)], "wide triangle")
STEEP_TRIANGLE = _p([(0, 0), (3, 0), (0, 1)], "steep triangle")
SQUARE_PYRAMID = _p(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], "square pyramid"
)
NON_NORMAL_SIMPLEX = _p(
    [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)], "non-normal simplex"
)
# empty simplices whose lattice points span sublattices of index 3 and 2
REEVE_TETRAHEDRON = _p(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)], "Reeve tetrahedron"
)
EMPTY_SIMPLEX = _p([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)], "empty simplex")
TRIANGLE_X_TRIANGLE = _p(
    [a + b for a in TRIANGLE.vertices for b in TRIANGLE.vertices], "triangle x triangle"
)

# normalized full-dimensional polytopes used for corpus-wide invariants
CORPUS = [
    SEGMENT,
    TRIANGLE,
    TRIANGLE2,
    SIMPLEX3,
    UNIT_SQUARE,
    RECTANGLE,
    TRAPEZOID,
    BIG_TRAPEZOID,
    SLANTED_QUAD,
    HEXAGON,
    WIDE_TRIANGLE,
    STEEP_TRIANGLE,
    SQUARE_PYRAMID,
]

BALANCED_CORPUS = [
    TRIANGLE,
    TRIANGLE2,
    SIMPLEX3,
    UNIT_SQUARE,
    RECTANGLE,
    TRAPEZOID,
    BIG_TRAPEZOID,
    WIDE_TRIANGLE,
    SQUARE_PYRAMID,
]


@pytest.fixture
def corpus():
    return list(CORPUS)


@pytest.fixture
def balanced_corpus():
    return list(BALANCED_CORPUS)
