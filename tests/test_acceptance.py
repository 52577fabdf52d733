"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each on stdout.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

from polycol.algebra import (
    elementary_automorphism,
    symmetry_group_data,
    verify_additive_embedding,
    verify_steinberg_relations,
)
from polycol.columns import (
    NotRigid,
    Rigid,
    classify_balanced_polygon,
    column_vectors,
    is_balanced,
    is_col_divisible,
    is_rigid,
    product,
    product_table,
    verify_rigid_certificate,
)
from polycol.doubling import double_along_facet, doubling_spectrum, spectrum_report
from polycol.exactmath import (
    dot,
    integral_section,
    kernel_basis_int,
    vec_sub,
)
from polycol.polytopes import (
    integral_affine_equivalent,
    is_unimodular_simplex,
    normalize_full_dim,
    polytope_from_points,
)
from polycol.scan import scan_polygons

from .conftest import (
    CORPUS,
    SIMPLEX3,
    SLANTED_QUAD,
    SQUARE_PYRAMID,
    TRAPEZOID,
    TRIANGLE,
    TRIANGLE2,
    UNIT_SQUARE,
    WIDE_TRIANGLE,
)
from .helpers import (
    PolynomialRing,
    dense_matrix,
    literal_column_search,
    random_normalized_polytopes,
)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def unit_simplex(n):
    pts = [tuple(0 for _ in range(n))] + [
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ]
    return polytope_from_points(pts)


def test_criterion_1_product_figure():
    t0 = time.monotonic()
    cols = {c.vector: c for c in column_vectors(SLANTED_QUAD)}
    ok = set(cols) == {(0, -1), (-1, 0), (1, 0), (-1, -1)}
    table = product_table(SLANTED_QUAD)
    ok = ok and len(table.products) == 2
    u, v, mv, w = cols[(0, -1)], cols[(-1, 0)], cols[(1, 0)], cols[(-1, -1)]
    ok = ok and product(SLANTED_QUAD, u, v) == w
    ok = ok and product(SLANTED_QUAD, w, mv) == u
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"four columns, exactly the two products ({elapsed:.3f}s)")


def test_criterion_2_polygon_classes():
    results = []
    for p, expected in [(TRIANGLE, "a"), (TRIANGLE2, "a"),
                        (TRAPEZOID, "b"), (UNIT_SQUARE, "e")]:
        t0 = time.monotonic()
        cls = classify_balanced_polygon(p)
        elapsed = time.monotonic() - t0
        results.append(cls.label == expected and elapsed < 1.0)
    cls = classify_balanced_polygon(TRAPEZOID)
    u, v, mv, w = (cls.vectors["u"], cls.vectors["v"],
                   cls.vectors["-v"], cls.vectors["w"])
    results.append(product(TRAPEZOID, u, v) == w)
    results.append(product(TRAPEZOID, w, mv) == u)
    _report(2, all(results),
            "triangle multiples are (a), trapezoid is (b) with u*v=w and "
            "w*(-v)=u, square is (e)")


def test_criterion_3_box4_scan():
    t0 = time.monotonic()
    summary = scan_polygons(4, seed=0)
    elapsed = time.monotonic() - t0
    counts = (
        summary["polygons_up_to_translation"],
        summary["balanced_polygons"],
        summary["balanced_classes"],
    )
    ok = (
        summary["unclassified"] == []
        and summary["col_divisibility_failures"] == []
        and summary["sample_recheck"]["failures"] == []
        and counts == (17978, 17726, 1510)
        and summary["class_counts"]
        == {"a": 4, "b": 6, "c": 8, "d": 1431, "e": 10, "f": 51}
        and elapsed < 600.0
    )
    _report(
        3,
        ok,
        f"box-4 scan: {summary['balanced_polygons']} balanced polygons, "
        f"{summary['balanced_classes']} classes, zero unclassified, all "
        f"Col-divisible ({elapsed:.0f}s)",
    )


def test_criterion_4_steinberg_relations():
    t0 = time.monotonic()
    ok = True
    for p in [TRIANGLE, SIMPLEX3, UNIT_SQUARE, TRAPEZOID, SQUARE_PYRAMID]:
        report = verify_steinberg_relations(p)
        ok = ok and report["all_ok"]
        ok = ok and all(e["ok"] for e in report["additivity"])
        ok = ok and all(
            e["ok"] for e in report["pairs"] if e["case"] != "skipped"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(4, ok,
            f"additivity and both commutator cases hold symbolically on all "
            f"five fixtures ({elapsed:.1f}s)")


def test_criterion_5_unit_simplex_degeneration():
    ring = PolynomialRing(("a",))
    lam = ring.var("a")
    ok = True
    for n in (1, 2, 3):
        p = unit_simplex(n)
        cols = column_vectors(p)
        ok = ok and len(cols) == n * (n + 1)
        for c in cols:
            m = dense_matrix(elementary_automorphism(p, c, lam, ring))
            sz = len(m)
            off = [(i, j) for i in range(sz) for j in range(sz)
                   if i != j and m[i][j] != ring.zero]
            ok = ok and all(m[i][i] == ring.one for i in range(sz))
            ok = ok and off and len(off) == 1 and m[off[0][0]][off[0][1]] == lam
        # oriented-edge composition rule against the generic product
        verts = p.vertices
        by_vec = {c.vector: c for c in cols}
        edge = {
            (i, j): vec_sub(verts[j], verts[i])
            for i in range(n + 1)
            for j in range(n + 1)
            if i != j
        }
        for (i, j), u in edge.items():
            for (k, l), v in edge.items():
                got = product(p, by_vec[u], by_vec[v])
                ok = ok and (got is not None) == (j == k and l != i)
    _report(5, ok,
            "unit simplices: n(n+1) columns, single-entry shear matrices, "
            "edge composition rule")


def test_criterion_6_doubling_chain():
    ok = True
    for n in (1, 2, 3):
        p = unit_simplex(n)
        target = unit_simplex(n + 1)
        for i in range(len(p.facets)):
            r = double_along_facet(p, i)
            q, _ = normalize_full_dim(r.doubled)
            ok = ok and is_unimodular_simplex(r.doubled)
            ok = ok and integral_affine_equivalent(q, target) is not None
    # section independence on 20 deterministic (polytope, facet, section)
    # triples
    import random

    rng = random.Random(11)
    cases = []
    for p in [TRIANGLE, UNIT_SQUARE, TRAPEZOID, SIMPLEX3, SLANTED_QUAD,
              WIDE_TRIANGLE]:
        for i, f in enumerate(p.facets):
            cases.append((p, i, f))
    done = 0
    for p, i, f in cases:
        if done >= 20:
            break
        w = integral_section(f.normal)
        kernel = kernel_basis_int([f.normal])
        w2 = w
        for row in kernel:
            c = rng.randint(-2, 2)
            w2 = tuple(a + c * b for a, b in zip(w2, row))
        if w2 == w:
            w2 = tuple(a + b for a, b in zip(w, kernel[0]))
        q1, _ = normalize_full_dim(double_along_facet(p, i, section=w).doubled)
        q2, _ = normalize_full_dim(double_along_facet(p, i, section=w2).doubled)
        ok = ok and integral_affine_equivalent(q1, q2) is not None
        done += 1
    ok = ok and done == 20
    _report(6, ok,
            "doubling unit simplices climbs the chain; 20 section choices "
            "give equivalent doubles")


def test_criterion_7_pyramid_counterexample():
    cols = {c.vector for c in column_vectors(SQUARE_PYRAMID)}
    expected = {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
        (0, 0, -1), (1, 0, -1), (0, 1, -1), (1, 1, -1),
    }
    ok = cols == expected and len(cols) == 8
    balanced, _ = is_balanced(SQUARE_PYRAMID)
    ok = ok and balanced
    divisible, witness = is_col_divisible(SQUARE_PYRAMID)
    ok = ok and not divisible and witness is not None
    ok = ok and witness[0] in ("cd1", "cd2")
    _report(7, ok,
            f"pyramid: 8 columns (base edges and apex edges), balanced, "
            f"not Col-divisible, witness clause {witness[0]}")


def test_criterion_8_column_height_lemma():
    polys = []
    for p in CORPUS:
        q, _ = normalize_full_dim(p)
        if q.dim >= 1:
            polys.append(q)
    polys.extend(random_normalized_polytopes(seed=2024, count=200))
    ok = True
    for q in polys:
        pruned = [(c.vector, c.base) for c in column_vectors(q)]
        unpruned = [(c.vector, c.base) for c in column_vectors(q, pruned=False)]
        ok = ok and pruned == unpruned
        ok = ok and pruned == literal_column_search(q)
        for vec, base in pruned:
            ok = ok and dot(q.facets[base].normal, vec) == -1
    _report(8, ok,
            f"heights are -1 and pruned = unpruned = literal definition on "
            f"{len(polys)} polytopes")


def test_criterion_9_symmetry_groups():
    tri = symmetry_group_data(TRIANGLE)
    sq = symmetry_group_data(UNIT_SQUARE)
    ok = tri["symmetry_order"] == 6
    ok = ok and sq["symmetry_order"] == 8
    ok = ok and sq["inversion_order"] == 4
    ok = ok and sq["quotient_order"] == 2
    for p in CORPUS:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        ok = ok and symmetry_group_data(q)["inversions_normal"]
    _report(9, ok,
            "symmetry orders 6 and 8, square inversions of order 4 and index "
            "2, inversion subgroup normal corpus-wide")


def test_criterion_10_additive_embedding():
    cols = column_vectors(WIDE_TRIANGLE)
    cls = classify_balanced_polygon(WIDE_TRIANGLE)
    ok = cls.label == "d" and cls.same_base_count >= 3
    report = verify_additive_embedding(WIDE_TRIANGLE, cols[0].base)
    ok = ok and report["pairwise_commute"]
    ok = ok and report["homomorphism"]
    ok = ok and report["grid_points"] == 25
    ok = ok and report["distinct_images"] == 25
    _report(10, ok,
            "three same-base columns commute symbolically and separate all "
            "25 grid points")


def test_criterion_11_rigid_systems():
    verts = SIMPLEX3.vertices
    by_vec = {c.vector: c for c in column_vectors(SIMPLEX3)}
    forward = [
        by_vec[vec_sub(verts[j], verts[i])]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    r1 = is_rigid(SIMPLEX3, forward)
    ok = isinstance(r1, Rigid)
    ok = ok and len(r1.certificate.graph.vertices) == 4
    ok = ok and len(r1.certificate.graph.edges) == 3
    ok = ok and verify_rigid_certificate(SIMPLEX3, forward, r1.certificate)

    sq = {c.vector: c for c in column_vectors(UNIT_SQUARE)}
    r2 = is_rigid(UNIT_SQUARE, [sq[(1, 0)], sq[(-1, 0)]])
    ok = ok and isinstance(r2, NotRigid) and "negative" in r2.reason

    fig = {c.vector: c for c in column_vectors(SLANTED_QUAD)}
    uvw = [fig[(0, -1)], fig[(-1, 0)], fig[(-1, -1)]]
    r3 = is_rigid(SLANTED_QUAD, uvw)
    ok = ok and isinstance(r3, Rigid)
    ok = ok and verify_rigid_certificate(SLANTED_QUAD, uvw, r3.certificate)
    _report(11, ok,
            "simplex chain certified rigid, negation pair rejected, product "
            "triangle certified rigid; certificates re-verified")


def test_criterion_12_spectrum_determinism_fairness():
    rep1 = json.dumps(spectrum_report(doubling_spectrum(TRAPEZOID, 4)),
                      sort_keys=True)
    rep2 = json.dumps(spectrum_report(doubling_spectrum(TRAPEZOID, 4)),
                      sort_keys=True)
    ok = rep1 == rep2
    ledger = json.loads(rep1)["fairness_ledger"]
    for entry in ledger:
        if entry["decomposed_step"] is not None:
            ok = ok and entry["delay"] <= entry["enqueue_position"]
    decomposed = sum(1 for e in ledger if e["decomposed_step"] is not None)
    _report(12, ok,
            f"two 4-step runs byte-identical; {decomposed} decompositions "
            f"all within their enqueue-time queue bound")
