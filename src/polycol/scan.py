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

    def bounds(points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return max(xs) - min(xs), max(ys) - min(ys)

    out = []

    def rec(i, edges_used):
        cur = path[-1]
        if i == nd:
            if cur == (0, 0) and edges_used >= 3:
                out.append(tuple(path[:-1]) if path[-1] == (0, 0) else tuple(path))
            return
        # skip this direction entirely
        rec(i + 1, edges_used)
        dx, dy = dirs[i]
        k = 1
        while True:
            nxt = (cur[0] + k * dx, cur[1] + k * dy)
            pts = path + [nxt]
            w, h = bounds(pts)
            if w > box or h > box:
                break
            path.append(nxt)
            rec(i + 1, edges_used + 1)
            path.pop()
            k += 1

    rec(0, 0)
    polys = []
    for cycle in out:
        pts = cycle[:-1] if cycle[0] == cycle[-1] else cycle
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        mx, my = min(xs), min(ys)
        polys.append(tuple((x - mx, y - my) for x, y in pts))
    return polys


def scan_polygons(box, seed=0, sample_rate=0.01):
    """Classify every balanced polygon in the box; summary dictionary.

    Balanced polygons are deduplicated up to integral-affine equivalence by
    their normal forms, so per-class counts are counts of equivalence
    classes.  A seeded sample is re-verified with pruning disabled.
    """
    if box > MAX_BOX:
        raise ValueError(f"box sizes above {MAX_BOX} are not supported")
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
            if column_vectors(p) != column_vectors(p, pruned=False):
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
