"""Seeded workloads for the polycol benchmark, with their output checks.

A workload turns ``(seed, round)`` into a list of CLI operations.  Each
operation is plain data: ``argv`` for ``polycol.cli.main``, the text fed to
stdin, and the name and expected values of the check applied to its stdout.
The same seed gives the same bytes; another seed gives other inputs that
cost the same work (same shear size, same dilations, same box area).

Inputs that are polytopes are unimodular images of fixed polytopes: a fixed
product of elementary shears, then a random signed permutation of the
coordinates (which maps bounding boxes to boxes of the same size), then a
random translation, with the vertex list shuffled.  Every check compares
quantities that such a map leaves unchanged, pinned from the untransformed
polytope.
"""

from __future__ import annotations

import json
import random
from collections import Counter

HEXAGON = ((0, 0), (5, 0), (5, 2), (4, 3), (2, 3), (1, 2))
BIG_TRAPEZOID = ((0, 0), (3, 0), (1, 2), (0, 2))
WIDE_TRIANGLE = ((0, 0), (6, 0), (1, 2))
TRAPEZOID = ((0, 0), (2, 0), (1, 1), (0, 1))
SQUARE_PYRAMID = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))


def dilated_unit_triangle(k):
    return ((0, 0), (k, 0), (0, k))


# ---------------------------------------------------------------------------
# unimodular images


def _mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, c)) for c in cols) for row in a)


def shear_matrix(n, size, count):
    """Product of ``count`` elementary shears of the given size.

    Shear i adds ``size`` times coordinate (i+1) mod n to coordinate i mod n,
    so in the plane the product alternates upper and lower shears and its
    entries grow like size**count.
    """
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in range(count):
        a, b = i % n, (i + 1) % n
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[a][b] = size
        m = _mat_mul(m, tuple(tuple(r) for r in e))
    return m


def unimodular_image(vertices, rng, shear_size, shear_count, spread):
    """Seeded image of ``vertices``: fixed shear, signed permutation, shift."""
    n = len(vertices[0])
    shear = shear_matrix(n, shear_size, shear_count)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shift = [rng.randint(-spread, spread) for _ in range(n)]
    out = []
    for v in vertices:
        w = _mat_vec(shear, v)
        out.append([signs[i] * w[perm[i]] + shift[i] for i in range(n)])
    rng.shuffle(out)
    return out


def _polytope_json(vertices):
    return json.dumps({"vertices": vertices}, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# workloads


def _scan_box3(rng):
    return [{
        "argv": ["scan-polygons", "--box", "3", "--seed", str(rng.randrange(2**31))],
        "stdin": "",
        "check": "scan",
        "expect": SCAN_BOX3,
    }]


def _shear_verify(rng):
    ops = []
    cases = [(dilated_unit_triangle(k), STEINBERG_TRIANGLE) for k in (3, 4, 5)]
    cases.append((SQUARE_PYRAMID, STEINBERG_PYRAMID))
    for verts, expect in cases:
        image = unimodular_image(verts, rng, 1, 1, 9)
        ops.append({
            "argv": ["verify", "-", "--which", "steinberg"],
            "stdin": _polytope_json(image),
            "check": "steinberg",
            "expect": expect,
        })
    for verts, expect in ((WIDE_TRIANGLE, EMBEDDING_WIDE_TRIANGLE),
                          (BIG_TRAPEZOID, EMBEDDING_BIG_TRAPEZOID)):
        image = unimodular_image(verts, rng, 1, 1, 9)
        ops.append({
            "argv": ["verify", "-", "--which", "embedding"],
            "stdin": _polytope_json(image),
            "check": "embedding",
            "expect": expect,
        })
    # the only command that reaches sp_membership and its per-polytope memo
    for verts, expect in ((dilated_unit_triangle(5), COLUMNS_PROPERTY_TRIANGLE5),
                          (SQUARE_PYRAMID, COLUMNS_PROPERTY_PYRAMID)):
        image = unimodular_image(verts, rng, 1, 1, 9)
        ops.append({
            "argv": ["verify", "-", "--which", "columns-property"],
            "stdin": _polytope_json(image),
            "check": "columns-property",
            "expect": expect,
        })
    return ops


def _big_geometry(rng):
    ops = []
    for verts, expect in ((HEXAGON, ANALYZE_HEXAGON),
                          (BIG_TRAPEZOID, ANALYZE_BIG_TRAPEZOID),
                          (WIDE_TRIANGLE, ANALYZE_WIDE_TRIANGLE)):
        image = unimodular_image(verts, rng, BIG_SHEAR_SIZE, 3, 500)
        ops.append({
            "argv": ["analyze", "-"],
            "stdin": _polytope_json(image),
            "check": "analyze",
            "expect": expect,
        })
    trapezoid = [list(v) for v in TRAPEZOID]
    rng.shuffle(trapezoid)
    ops.append({
        "argv": ["spectrum", "-", "--steps", "7"],
        "stdin": _polytope_json(trapezoid),
        "check": "spectrum",
        "expect": SPECTRUM_TRAPEZOID_7,
    })
    return ops


# shear size of the big-geometry images: entries of the shear reach 520, and
# the sheared hexagon's bounding box holds 420,660 cells
BIG_SHEAR_SIZE = 8

WORKLOADS = {
    "scan-box3": _scan_box3,
    "shear-verify": _shear_verify,
    "big-geometry": _big_geometry,
}


def make_ops(workload, seed, round_index):
    """The operations of one round; same arguments, same bytes."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return WORKLOADS[workload](rng)


# ---------------------------------------------------------------------------
# pinned expectations, from the untransformed inputs

SCAN_BOX3 = {
    "polygons_up_to_translation": 1633,
    "balanced_polygons": 1549,
    "balanced_classes": 145,
    "class_counts": {"a": 3, "b": 3, "c": 2, "d": 118, "e": 6, "f": 13},
}
STEINBERG_TRIANGLE = {"additivity": 6, "cases": {"commute": 18, "product": 6, "skipped": 6}}
STEINBERG_PYRAMID = {"additivity": 8, "cases": {"commute": 44, "product": 8, "skipped": 8}}
# per report: [columns on the facet, status, distinct grid images or 0]
EMBEDDING_WIDE_TRIANGLE = {"reports": [[3, "checked", 25]]}
EMBEDDING_BIG_TRAPEZOID = {
    "reports": [[1, "vacuous", 0], [1, "vacuous", 0], [2, "checked", 25]],
}
# column vectors checked up to the default degree bound
COLUMNS_PROPERTY_TRIANGLE5 = {"columns": 6}
COLUMNS_PROPERTY_PYRAMID = {"columns": 8}
ANALYZE_HEXAGON = {
    "lattice_point_count": 19, "facets": 6, "columns": 1, "products": 0,
    "balanced": True, "col_divisible": True, "class": "d", "group": "E_d,1",
    "symmetry_order": 1, "inversion_subgroup_order": 1,
}
ANALYZE_BIG_TRAPEZOID = {
    "lattice_point_count": 9, "facets": 4, "columns": 4, "products": 2,
    "balanced": True, "col_divisible": True, "class": "b", "group": "E_b",
    "symmetry_order": 2, "inversion_subgroup_order": 2,
}
ANALYZE_WIDE_TRIANGLE = {
    "lattice_point_count": 11, "facets": 3, "columns": 3, "products": 0,
    "balanced": True, "col_divisible": True, "class": "d", "group": "E_d,3",
    "symmetry_order": 2, "inversion_subgroup_order": 1,
}
SPECTRUM_TRAPEZOID_7 = {
    "steps": 7, "ledger": 66, "decomposed": 16,
    "final_dim": 9, "final_vertices": 30,
}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _check_scan(out, expect):
    for key in ("polygons_up_to_translation", "balanced_polygons",
                "balanced_classes", "class_counts"):
        if out[key] != expect[key]:
            return f"{key} is {out[key]!r}, expected {expect[key]!r}"
    if out["unclassified"] or out["col_divisibility_failures"]:
        return "unclassified polygons or divisibility failures"
    if out["sample_recheck"]["failures"]:
        return "sample recheck failures"
    return None


def _check_steinberg(out, expect):
    if out.get("ok") is not True:
        return "verify reported ok != true"
    rep = out["report"]
    if len(rep["additivity"]) != expect["additivity"]:
        return f"{len(rep['additivity'])} additivity checks"
    cases = dict(Counter(p["case"] for p in rep["pairs"]))
    if cases != expect["cases"]:
        return f"pair cases {cases}"
    return None


def _check_embedding(out, expect):
    if out.get("ok") is not True:
        return "verify reported ok != true"
    got = sorted(
        [len(r["columns"]), r.get("status", "checked"), r.get("distinct_images", 0)]
        for r in out["reports"]
    )
    if got != sorted(expect["reports"]):
        return f"embedding reports {got}"
    return None


def _check_columns_property(out, expect):
    if out.get("ok") is not True:
        return "verify reported ok != true"
    cols = out["columns"]
    if len(cols) != expect["columns"]:
        return f"{len(cols)} column vectors"
    if any(c["ok"] is not True or c["violations"] for c in cols):
        return "a column vector violates the column property"
    return None


def _check_analyze(out, expect):
    cls = out["polygon_class"] or {}
    got = {
        "lattice_point_count": out["lattice_point_count"],
        "facets": len(out["facets"]),
        "columns": len(out["columns"]),
        "products": len(out["products"]),
        "balanced": out["balanced"]["holds"],
        "col_divisible": (out["col_divisible"] or {}).get("holds"),
        "class": cls.get("label"),
        "group": (out["group_shape"] or {}).get("label"),
        "symmetry_order": out["symmetry_order"],
        "inversion_subgroup_order": out["inversion_subgroup_order"],
    }
    if got != expect:
        return f"invariants {got}"
    return None


def _check_spectrum(out, expect):
    ledger = out["fairness_ledger"]
    decomposed = [e for e in ledger if e["decomposed_step"] is not None]
    if any(e["delay"] > e["enqueue_position"] for e in decomposed):
        return "fairness ledger violated"
    final = out["steps"][-1]["vertices"]
    got = {
        "steps": len(out["steps"]), "ledger": len(ledger),
        "decomposed": len(decomposed),
        "final_dim": len(final[0]), "final_vertices": len(final),
    }
    if got != expect:
        return f"spectrum shape {got}"
    return None


CHECKS = {
    "scan": _check_scan,
    "steinberg": _check_steinberg,
    "embedding": _check_embedding,
    "columns-property": _check_columns_property,
    "analyze": _check_analyze,
    "spectrum": _check_spectrum,
}


def check_output(op, returncode, stdout):
    """None when the operation exited 0 with the expected output."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKS[op["check"]](json.loads(stdout), op["expect"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
