import json
import random

import pytest

from polycol.columns import column_vectors
from polycol.doubling import (
    double_along_facet,
    doubling_spectrum,
    spectrum_report,
)
from polycol.exactmath import dot, kernel_basis_int, vec_scale, vec_sub
from polycol.polytopes import (
    integral_affine_equivalent,
    is_unimodular_simplex,
    normalize_full_dim,
    polytope_from_points,
)

from .conftest import (
    BIG_TRAPEZOID,
    SEGMENT,
    SIMPLEX3,
    SLANTED_QUAD,
    TRAPEZOID,
    TRIANGLE,
    UNIT_SQUARE,
)


def unit_simplex(n):
    pts = [tuple(0 for _ in range(n))] + [
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ]
    return polytope_from_points(pts)


def test_segment_doubles_to_triangle():
    f0 = next(f for f in SEGMENT.facets if f.key() == ((1,), 0))
    r = double_along_facet(SEGMENT, f0)
    assert r.doubled.vertices == ((0, 0), (0, 1), (1, 0))
    assert r.count_identity_holds
    # the inward column extends to (-1, 0); its sheared sibling (0, -1)
    # shows up among the double's columns
    assert r.col_inclusion[
        next(c for c in column_vectors(SEGMENT) if c.vector == (-1,))
    ].vector == (-1, 0)
    doubled_vecs = {c.vector for c in column_vectors(r.doubled)}
    assert (0, -1) in doubled_vecs


def test_simplex_chain():
    for n in (1, 2, 3):
        p = unit_simplex(n)
        target = unit_simplex(n + 1)
        for f in p.facets:
            r = double_along_facet(p, f)
            assert is_unimodular_simplex(r.doubled)
            q, _ = normalize_full_dim(r.doubled)
            assert integral_affine_equivalent(q, target) is not None


def test_square_doubles_to_prism():
    f = next(f for f in UNIT_SQUARE.facets if f.key() == ((0, 1), 0))
    r = double_along_facet(UNIT_SQUARE, f)
    assert len(r.doubled.lattice_points) == 6
    assert len(r.doubled.facets) == 5
    assert r.count_identity_holds


def test_doubling_structure(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1 or len(column_vectors(q)) == 0:
            continue
        for f in q.facets[:2]:
            r = double_along_facet(q, f)
            n = q.ambient_dim
            # base copy is the facet at the new coordinate's zero level
            keys = {g.key() for g in r.doubled.facets}
            assert ((0,) * n + (1,), 0) in keys
            assert (f.normal + (0,), 0) in keys
            assert len(r.doubled.facets) == len(q.facets) + 1
            # embeddings land inside the double, heights are preserved
            for v in q.vertices:
                b = r.embed_base.apply(v)
                c = r.embed_copy.apply(v)
                assert r.doubled.contains(b)
                assert r.doubled.contains(c)
                assert c[-1] == dot(f.normal, v) - f.offset
            # the copy embedding maps Z^n onto a direct summand: the gcd of
            # the maximal minors of its linear part is 1
            import itertools as it
            from math import gcd as _gcd

            from polycol.exactmath import det_int, transpose

            lin_rows = transpose(r.embed_copy.matrix)  # images of e_i
            g = 0
            for colset in it.combinations(range(n + 1), n):
                sub = [[row[c] for c in colset] for row in lin_rows]
                g = _gcd(g, abs(det_int(sub)))
            assert g == 1


def test_doubled_lattice_points_match_segment_model():
    # lattice points of the double = pairs (x - s*w, s), 0 <= s <= height(x)
    for p in [TRIANGLE, UNIT_SQUARE, TRAPEZOID]:
        for f in p.facets:
            r = double_along_facet(p, f)
            z0 = min(f.points_on)
            expected = set()
            for x in p.lattice_points:
                h = dot(f.normal, vec_sub(x, z0))
                for s in range(h + 1):
                    expected.add(
                        vec_sub(vec_sub(x, z0), vec_scale(s, r.section)) + (s,)
                    )
            assert set(r.doubled.lattice_points) == expected


def test_count_identity_flag():
    # heights above 1 create interior points between the copies
    bottom = next(f for f in SLANTED_QUAD.facets if f.key() == ((0, 1), 0))
    r = double_along_facet(SLANTED_QUAD, bottom)
    assert not r.count_identity_holds
    assert len(r.doubled.lattice_points) == sum(
        1 + dot(bottom.normal, x) for x in SLANTED_QUAD.lattice_points
    )


def test_column_extension_total(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1:
            continue
        cols = column_vectors(q)
        if not cols:
            continue
        f = q.facets[cols[0].base]
        r = double_along_facet(q, f)
        assert set(r.col_inclusion) == set(cols)
        doubled_cols = set(column_vectors(r.doubled))
        for src, dst in r.col_inclusion.items():
            assert dst in doubled_cols
            assert dst.vector == src.vector + (0,)


def test_extension_composes_injectively():
    r1 = double_along_facet(TRIANGLE, TRIANGLE.facets[0])
    r2 = double_along_facet(r1.doubled, r1.doubled.facets[0])
    composed = {}
    for src, mid in r1.col_inclusion.items():
        if mid in r2.col_inclusion:
            composed[src] = r2.col_inclusion[mid]
    assert len(set(composed.values())) == len(composed)


def test_section_independence():
    rng = random.Random(3)
    cases = []
    for p in [TRIANGLE, UNIT_SQUARE, TRAPEZOID, SIMPLEX3, SLANTED_QUAD,
              BIG_TRAPEZOID]:
        for f in p.facets:
            cases.append((p, f))
    done = 0
    for p, f in cases:
        if done >= 20:
            break
        from polycol.exactmath import integral_section

        w = integral_section(f.normal)
        kernel = kernel_basis_int([f.normal])
        w2 = w
        for row in kernel:
            c = rng.randint(-2, 2)
            w2 = tuple(a + c * b for a, b in zip(w2, row))
        if w2 == w:
            w2 = tuple(a + b for a, b in zip(w, kernel[0]))
        r1 = double_along_facet(p, f, section=w)
        r2 = double_along_facet(p, f, section=w2)
        q1, _ = normalize_full_dim(r1.doubled)
        q2, _ = normalize_full_dim(r2.doubled)
        assert integral_affine_equivalent(q1, q2) is not None
        done += 1
    assert done == 20


def test_bad_section_rejected():
    f = TRIANGLE.facets[0]
    with pytest.raises(ValueError):
        double_along_facet(TRIANGLE, f, section=(5, 5))


def test_foreign_facet_rejected():
    with pytest.raises(ValueError):
        double_along_facet(TRIANGLE, UNIT_SQUARE.facets[0])


def test_spectrum_requires_columns():
    with pytest.raises(ValueError):
        doubling_spectrum(TRIANGLE, 0)


def test_spectrum_simplex_chain():
    chain = doubling_spectrum(SEGMENT, 3)
    for i, step in enumerate(chain.steps):
        target = unit_simplex(i + 2)
        q, _ = normalize_full_dim(step.result.doubled)
        assert integral_affine_equivalent(q, target) is not None


def test_spectrum_determinism_and_fairness():
    rep1 = json.dumps(spectrum_report(doubling_spectrum(TRAPEZOID, 4)),
                      sort_keys=True)
    rep2 = json.dumps(spectrum_report(doubling_spectrum(TRAPEZOID, 4)),
                      sort_keys=True)
    assert rep1 == rep2
    report = json.loads(rep1)
    assert len(report["steps"]) == 4
    for entry in report["fairness_ledger"]:
        if entry["decomposed_step"] is not None:
            assert entry["delay"] <= entry["enqueue_position"]
    # the first step doubles along the canonically first column
    first = report["steps"][0]
    assert first["chosen_vector"] == [-1, 0]
    # polytopes in the chain stay normalized
    chain = doubling_spectrum(TRAPEZOID, 4)
    assert chain.final.is_normalized
