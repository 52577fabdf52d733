"""Exhaustive enumeration and classification of lattice polygons in a box.

Convex polygons with vertices in the (box+1) x (box+1) grid are enumerated
up to translation as closed edge-vector loops with strictly increasing
directions; that yields every hull of a grid subset exactly once, as the
counterclockwise cycle of its vertices.  A path is cut as soon as the
directions left can no longer bring it back to the origin; a table built
once per point gives the first direction from which that happens.

The scan classifies first.  The normal form (``polytopes.cycle_normal_form``)
is computed straight from a cycle, once per orbit of the eight symmetries of
the box, and the cycles are grouped by it.  Balancedness, Col-divisibility,
the column table and the class label are integral-affine invariants, so they
are computed once per class, on the polygon of the class's least sorted
vertex tuple, made from its enumerated cycle with no hull or rank computed;
counts of polygons are sums of class sizes.  Only the members of a class that
fails Col-divisibility, and a seeded sample of balanced polygons, are built
in full.  The sample is the runtime check of the invariance: each sampled
polygon must match its class, and its pruned column search must match the
unpruned one.  That unpruned search is the only lattice-point walk of the
scan, as a polygon's pruned columns come from its edge normals
(``columns.column_vectors``).
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
    keys, forms = _cycle_forms(cycles)
    members = {}  # form -> enumeration indices of its members
    for i, form in enumerate(forms):
        members.setdefault(form, []).append(i)

    reps = {}  # form of a balanced class -> polygon of its least sorted vertex tuple
    invariants = {}  # form of a balanced class -> _invariants of its representative
    for form, group in members.items():
        rep = polygon_from_cycle(cycles[min(group, key=keys.__getitem__)])
        inv = _invariants(rep)
        if inv[0]:
            reps[form], invariants[form] = rep, inv

    # every member of a failing class, each with its own witness
    failing = {form for form, inv in invariants.items() if not inv[1]}
    divisibility_failures = []
    for form, key in zip(forms, keys):
        if form in failing:
            ok, wit = is_col_divisible(polytope_from_points(key))
            if ok:
                raise InternalCheckError(
                    f"Col-divisible member {list(key)} of a failing class"
                )
            divisibility_failures.append(
                {"vertices": [list(v) for v in key], "witness": repr(wit)}
            )

    per_class = {}
    witnesses = {}
    unclassified = []
    for p in sorted(reps.values(), key=lambda q: q.vertices):
        try:
            cls = classify_balanced_polygon(p)
        except UnclassifiablePolygonError as exc:  # surfaced, never swallowed
            unclassified.append(
                {"vertices": [list(v) for v in p.vertices], "error": str(exc)}
            )
            continue
        per_class[cls.label] = per_class.get(cls.label, 0) + 1
        if cls.label not in witnesses:
            witnesses[cls.label] = [list(v) for v in p.vertices]

    rng = random.Random(seed)
    sample_checked = 0
    sample_failures = []
    for form, key in zip(forms, keys):
        if form in reps and rng.random() < sample_rate:
            sample_checked += 1
            p = polytope_from_points(key)
            if (_invariants(p) != invariants[form]
                    or product_table(p).columns != column_vectors(p, pruned=False)):
                sample_failures.append([list(v) for v in p.vertices])

    return {
        "box": box,
        "polygons_up_to_translation": len(cycles),
        "balanced_polygons": sum(len(members[form]) for form in reps),
        "balanced_classes": len(reps),
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


def _box_images(cycle):
    """Sorted vertex tuples of the images of a pinned cycle under the seven
    symmetries other than the identity of its box [0, w] x [0, h]."""
    w = max(x for x, _ in cycle)
    h = max(y for _, y in cycle)
    return [tuple(sorted(image)) for image in (
        [(w - x, y) for x, y in cycle],
        [(x, h - y) for x, y in cycle],
        [(w - x, h - y) for x, y in cycle],
        [(y, x) for x, y in cycle],
        [(h - y, x) for x, y in cycle],
        [(y, w - x) for x, y in cycle],
        [(h - y, w - x) for x, y in cycle],
    )]


def _cycle_forms(cycles):
    """Sorted vertex tuple and ``cycle_normal_form`` of each enumerated
    cycle, the form computed once per orbit of the box's symmetries.

    Each symmetry is in GL2(Z) x Z^2, so keeps the form, and keeps the box,
    so carries a pinned polygon to one the enumeration lists exactly once.
    The first member of an orbit stores its form under the keys of the
    others, and each of them pops it; a key left over is a broken invariant.
    """
    # every enumerated cycle is the counterclockwise vertex cycle of its hull
    known = {}
    keys, forms = [], []
    for cycle in cycles:
        key = tuple(sorted(cycle))
        form = known.pop(key, None)
        if form is None:
            form = cycle_normal_form(cycle)
            for image in _box_images(cycle):
                if image != key:
                    known[image] = form
        keys.append(key)
        forms.append(form)
    if known:
        raise InternalCheckError(
            f"box image {list(min(known))} of a polygon was not enumerated"
        )
    return keys, forms


def _invariants(p):
    """(balanced, Col-divisible or None, column count) of a polygon, all
    invariant under integral-affine maps."""
    flag, _ = is_balanced(p)
    divisible = is_col_divisible(p)[0] if flag else None
    return flag, divisible, len(product_table(p).columns)
