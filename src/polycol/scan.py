"""Exhaustive enumeration and classification of lattice polygons in a box.

Convex polygons with vertices in the (box+1) x (box+1) grid are enumerated
up to translation as closed edge-vector loops with strictly increasing
directions; that yields every hull of a grid subset exactly once.  Balanced
polygons are checked for Col-divisibility one by one, deduplicated up to
integral-affine equivalence through a dict keyed by
``polytopes.polygon_normal_form`` (the least vertex tuple represents its
class), and the representatives are classified.
"""

from __future__ import annotations

import random
from math import gcd

from .columns import (
    classify_balanced_polygon,
    column_vectors,
    is_balanced,
    is_col_divisible,
    product_table,
)
from .polytopes import angular_key, polygon_normal_form, polytope_from_points

MAX_BOX = 4


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

    Yields vertex tuples in counterclockwise order with the bounding box
    pinned at the origin.  Each polygon appears exactly once because its
    edge vectors, one per direction in angular order, are a canonical
    representation.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    dirs = _directions(box)
    nd = len(dirs)
    path = [(0, 0)]
    polys = []

    # lo_x..hi_y is the bounding box of path, carried down the recursion
    def rec(i, edges_used, lo_x, hi_x, lo_y, hi_y):
        cur = path[-1]
        if i == nd:
            if cur == (0, 0) and edges_used >= 3:
                polys.append(tuple((x - lo_x, y - lo_y) for x, y in path[:-1]))
            return
        # skip this direction entirely
        rec(i + 1, edges_used, lo_x, hi_x, lo_y, hi_y)
        dx, dy = dirs[i]
        k = 1
        while True:
            x, y = cur[0] + k * dx, cur[1] + k * dy
            nlo_x, nhi_x = min(lo_x, x), max(hi_x, x)
            nlo_y, nhi_y = min(lo_y, y), max(hi_y, y)
            if nhi_x - nlo_x > box or nhi_y - nlo_y > box:
                break
            path.append((x, y))
            rec(i + 1, edges_used + 1, nlo_x, nhi_x, nlo_y, nhi_y)
            path.pop()
            k += 1

    rec(0, 0, 0, 0, 0, 0)
    return polys


def scan_polygons(box, seed=0, sample_rate=0.01):
    """Classify every balanced polygon in the box; summary dictionary.

    Balanced polygons are deduplicated up to integral-affine equivalence by
    their normal forms, so per-class counts are counts of equivalence
    classes.  A seeded sample is re-verified with pruning disabled.
    """
    if box > MAX_BOX:
        raise ValueError(f"box sizes above {MAX_BOX} are not supported")
    if not 0 <= sample_rate <= 1:
        raise ValueError("sample rate must lie in [0, 1]")
    cycles = enumerate_polygons(box)
    balanced_polys = []
    scanned = 0
    for cycle in cycles:
        scanned += 1
        p = polytope_from_points(cycle)
        flag, _ = is_balanced(p)
        if flag:
            balanced_polys.append(p)

    # divisibility holds polygon by polygon, not just per class
    divisibility_failures = []
    for p in balanced_polys:
        ok, wit = is_col_divisible(p)
        if not ok:
            divisibility_failures.append(
                {"vertices": [list(v) for v in p.vertices], "witness": repr(wit)}
            )

    # one representative per integral-affine class: the least vertex tuple
    reps = {}
    for p in sorted(balanced_polys, key=lambda q: q.vertices):
        reps.setdefault(polygon_normal_form(p), p)
    class_reps = list(reps.values())  # inserted in vertex order

    per_class = {}
    witnesses = {}
    unclassified = []
    for p in class_reps:
        try:
            cls = classify_balanced_polygon(p)
        except Exception as exc:  # surfaced, never swallowed
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
    for p in balanced_polys:
        if rng.random() < sample_rate:
            sample_checked += 1
            if product_table(p).columns != column_vectors(p, pruned=False):
                sample_failures.append([list(v) for v in p.vertices])
            flag, _ = is_balanced(p)
            if not flag:
                sample_failures.append([list(v) for v in p.vertices])

    return {
        "box": box,
        "polygons_up_to_translation": scanned,
        "balanced_polygons": len(balanced_polys),
        "balanced_classes": len(class_reps),
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
