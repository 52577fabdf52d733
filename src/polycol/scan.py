"""Exhaustive enumeration and classification of lattice polygons in a box.

Convex polygons with vertices in the (box+1) x (box+1) grid are enumerated
up to translation as closed edge-vector loops with strictly increasing
directions; that yields every hull of a grid subset exactly once, as the
counterclockwise cycle of its vertices.  A path is cut as soon as the
directions left can no longer bring it back to the origin; a table built
once per point gives the first direction from which that happens.

The scan classifies first.  The normal form (``polytopes.cycle_normal_form``)
is computed straight from a cycle, once per orbit of the eight symmetries of
the box, and gives each cycle a small class id; the other members of an
orbit are found by the bitmask of their vertices in the grid, and nothing
but the id is kept per polygon.  Balancedness, Col-divisibility, the column
table and the class label are integral-affine invariants, so they are
computed once per class, on the polygon of the class's least sorted vertex
tuple, made from its enumerated cycle with no hull or rank computed, and
dropped once classified; counts of polygons are sums of class sizes.  Only
the members of a class that fails Col-divisibility, and a seeded sample of
balanced polygons, are built in full.  The sample is the runtime check of
the invariance: each sampled polygon must match its class, and its pruned
column search must match the unpruned one.  That unpruned search is the
only lattice-point walk of the scan, as a polygon's pruned columns come from
its edge normals (``columns.column_vectors``).
"""

from __future__ import annotations

import random
from functools import cmp_to_key
from math import gcd

from .columns import (
    UnclassifiablePolygonError,
    classify_balanced_polygon,
    column_vectors,
    is_balanced,
    is_col_divisible,
    product_table,
)
from .polytopes import (
    InternalCheckError,
    cycle_normal_form,
    polygon_from_cycle,
    polytope_from_points,
)

MAX_BOX = 4


def _half_plane(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_cmp(a, b):
    ha, hb = _half_plane(a), _half_plane(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


# orders nonzero integer vectors counterclockwise, starting at direction (1, 0)
angular_key = cmp_to_key(_angular_cmp)


def _directions(box):
    """Primitive vectors with coordinates in [-box, box], sorted by angle
    counterclockwise starting at (1, 0)."""
    vecs = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1
    ]
    return sorted(vecs, key=angular_key)


def enumerate_polygons(box):
    """All convex lattice polygons fitting in [0, box]^2, up to translation.

    Returns a list of vertex tuples in counterclockwise order, each pinned
    to min x = min y = 0.  Each polygon appears exactly once because its
    edge vectors, one per direction in angular order, are a canonical
    representation.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    dirs = _directions(box)
    nd = len(dirs)
    ex, ey = dirs[-1]
    # pointed[i]: dirs[i:] lie within a half-turn, so a path can still close
    # only if -cur lies in the cone spanned by dirs[i] and dirs[-1]
    pointed = [dx * ey - dy * ex > 0 for dx, dy in dirs]
    stops = {}  # point -> [the first index s >= i failing its cone test]
    # the pinned points, one tuple each, shared by every polygon that holds one
    grid = [[(u, w) for w in range(box + 1)] for u in range(box + 1)]
    path = [(0, 0)]
    polys = []

    # one call per path node; lo_x..hi_y is the bounding box of path
    def rec(i, edges_used, lo_x, hi_x, lo_y, hi_y):
        cx, cy = path[-1]
        table = stops.get((cx, cy))
        if table is None:
            # the test on dirs[s] depends only on the point: one backward pass
            table = stops[cx, cy] = [nd] * (nd + 1)
            off = ex * cy - ey * cx < 0
            for s, (dx, dy) in reversed(list(enumerate(dirs))):
                fails = pointed[s] and (off or dy * cx - dx * cy < 0)
                table[s] = s if fails else table[s + 1]
        # dirs[stop:] cannot bring the path back, so the next edge takes a j
        # in [i, stop); the paths that skip the most directions come first
        stop = table[i]
        for j in range(stop - 1, i - 1, -1):
            dx, dy = dirs[j]
            k = 1
            while True:
                x, y = cx + k * dx, cy + k * dy
                nlo_x = x if x < lo_x else lo_x
                nhi_x = x if x > hi_x else hi_x
                nlo_y = y if y < lo_y else lo_y
                nhi_y = y if y > hi_y else hi_y
                if nhi_x - nlo_x > box or nhi_y - nlo_y > box:
                    break
                if x == 0 and y == 0:
                    # closed; the directions left turn less than a full
                    # circle, so they cannot close a second loop
                    if edges_used >= 2:
                        polys.append(tuple([grid[a - lo_x][b - lo_y] for a, b in path]))
                else:
                    path.append((x, y))
                    rec(j + 1, edges_used + 1, nlo_x, nhi_x, nlo_y, nhi_y)
                    path.pop()
                k += 1

    rec(0, 0, 0, 0, 0, 0)
    del rec  # a cycle through its own closure: free the stop tables now
    return polys


def scan_polygons(box, seed=0, sample_rate=0.01):
    """Classify every balanced polygon in the box; summary dictionary.

    The column work runs once per integral-affine class (see the module
    docstring), so the per-label counts are counts of classes and the
    polygon counts are sums of class sizes.  The seeded sample is drawn over
    the balanced polygons in enumeration order.
    """
    if box > MAX_BOX:
        raise ValueError(f"box sizes above {MAX_BOX} are not supported")
    if not 0 <= sample_rate <= 1:
        raise ValueError("sample rate must lie in [0, 1]")
    cycles = enumerate_polygons(box)
    classes, least = _cycle_classes(cycles, box)
    sizes = [0] * len(least)
    for c in classes:
        sizes[c] += 1

    invariants = []  # class id -> _invariants of its representative
    labelled = []  # (vertices, label, error) of each balanced representative
    for i in least:
        rep = polygon_from_cycle(cycles[i])
        inv = _invariants(rep)
        invariants.append(inv)
        if inv[0]:
            try:
                labelled.append((rep.vertices, classify_balanced_polygon(rep).label, None))
            except UnclassifiablePolygonError as exc:  # surfaced, never swallowed
                labelled.append((rep.vertices, None, str(exc)))

    # every member of a failing class, each with its own witness
    failing = [inv[0] and not inv[1] for inv in invariants]
    divisibility_failures = []
    for cycle, c in zip(cycles, classes):
        if failing[c]:
            p = polytope_from_points(cycle)
            ok, wit = is_col_divisible(p)
            if ok:
                raise InternalCheckError(
                    f"Col-divisible member {list(p.vertices)} of a failing class"
                )
            divisibility_failures.append(
                {"vertices": [list(v) for v in p.vertices], "witness": repr(wit)}
            )

    per_class = {}
    witnesses = {}
    unclassified = []
    for vertices, label, error in sorted(labelled):
        if error is not None:
            unclassified.append({"vertices": [list(v) for v in vertices], "error": error})
            continue
        per_class[label] = per_class.get(label, 0) + 1
        if label not in witnesses:
            witnesses[label] = [list(v) for v in vertices]

    rng = random.Random(seed)
    sample_checked = 0
    sample_failures = []
    for cycle, c in zip(cycles, classes):
        if invariants[c][0] and rng.random() < sample_rate:
            sample_checked += 1
            p = polytope_from_points(cycle)
            if (_invariants(p) != invariants[c]
                    or product_table(p).columns != column_vectors(p, pruned=False)):
                sample_failures.append([list(v) for v in p.vertices])

    return {
        "box": box,
        "polygons_up_to_translation": len(cycles),
        "balanced_polygons": sum(n for n, inv in zip(sizes, invariants) if inv[0]),
        "balanced_classes": len(labelled),
        "class_counts": dict(sorted(per_class.items())),
        "class_witnesses": dict(sorted(witnesses.items())),
        "absent_classes": sorted(set("abcdef") - set(per_class)),
        "unclassified": unclassified,
        "col_divisibility_failures": divisibility_failures,
        "sample_recheck": {
            "checked": sample_checked,
            "failures": sample_failures,
        },
    }


def _grid_bits(box):
    """bit[x][y]: the bit of the grid point (x, y) of [0, box]^2 in a vertex
    mask, the lexicographically least point on the highest bit."""
    n = box + 1
    return [[1 << (n * n - 1 - n * x - y) for y in range(n)] for x in range(n)]


def _box_images(cycle, bit):
    """Vertex masks of the images of a pinned cycle under the seven
    symmetries other than the identity of its box [0, w] x [0, h]."""
    w = max([x for x, _ in cycle])
    h = max([y for _, y in cycle])
    return (
        sum([bit[w - x][y] for x, y in cycle]),
        sum([bit[x][h - y] for x, y in cycle]),
        sum([bit[w - x][h - y] for x, y in cycle]),
        sum([bit[y][x] for x, y in cycle]),
        sum([bit[h - y][x] for x, y in cycle]),
        sum([bit[y][w - x] for x, y in cycle]),
        sum([bit[h - y][w - x] for x, y in cycle]),
    )


def _cycle_classes(cycles, box):
    """(classes, least): the integral-affine class id of each enumerated
    cycle, numbered by first appearance, and per class the index of its
    least sorted vertex tuple.

    A pinned polygon is keyed by its vertex mask (``_grid_bits``).  Two
    sorted vertex tuples of equal length have masks in the reverse order:
    the highest bit where the masks differ is the first point where the
    tuples differ, and it is set in the lesser tuple.  Members of a class
    have equally many vertices, so its greatest mask is its least sorted
    tuple.  (A proper prefix would break this, and no class holds one.)

    ``cycle_normal_form`` decides the class, computed once per orbit of the
    box's symmetries: each symmetry is in GL2(Z) x Z^2, so keeps the form,
    and keeps the box, so carries a pinned polygon to one the enumeration
    lists exactly once.  The first member of an orbit stores its class id
    under the masks of the others, and each of them pops it; a mask left
    over is a broken invariant.
    """
    bit = _grid_bits(box)
    ids = {}  # normal form -> class id
    known = {}  # mask of a pending orbit member -> class id
    classes = []
    least, best = [], []  # per class: index and mask of its least sorted tuple
    for i, cycle in enumerate(cycles):
        mask = sum([bit[x][y] for x, y in cycle])
        c = known.pop(mask, None)
        if c is None:
            # every enumerated cycle is the counterclockwise vertex cycle of its hull
            c = ids.setdefault(cycle_normal_form(cycle), len(ids))
            if c == len(least):
                least.append(i)
                best.append(mask)
            for image in _box_images(cycle, bit):
                if image != mask:
                    known[image] = c
        if mask > best[c]:
            least[c], best[c] = i, mask
        classes.append(c)
    if known:
        left = max(known)
        vertices = [(x, y) for x, row in enumerate(bit) for y, b in enumerate(row) if left & b]
        raise InternalCheckError(f"box image {vertices} of a polygon was not enumerated")
    return classes, least


def _invariants(p):
    """(balanced, Col-divisible or None, column count) of a polygon, all
    invariant under integral-affine maps."""
    flag, _ = is_balanced(p)
    divisible = is_col_divisible(p)[0] if flag else None
    return flag, divisible, len(product_table(p).columns)
