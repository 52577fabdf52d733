import io
import itertools
import json
import random
from math import gcd

import pytest

from polycol import columns, doubling
from polycol.cli import main
from polycol.columns import ColumnVector, column_vectors, product_table
from polycol.doubling import (
    double_along_facet,
    doubling_spectrum,
    spectrum_report,
)
from polycol.exactmath import (
    det_int,
    dot,
    identity_matrix,
    integral_section,
    kernel_basis_int,
    vec_scale,
    vec_sub,
)
from polycol.polytopes import (
    InternalCheckError,
    Polytope,
    integral_affine_equivalent,
    is_unimodular_simplex,
    normalize_full_dim,
    polytope_from_points,
)

from .conftest import (
    BIG_TRAPEZOID,
    EMPTY_SIMPLEX,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SEGMENT,
    SIMPLEX3,
    SLANTED_QUAD,
    TRAPEZOID,
    TRIANGLE,
    UNIT_SQUARE,
)
from .helpers import (
    contains,
    facet_index,
    facet_key,
    facet_points,
    off_facet_minima,
)


def unit_simplex(n):
    pts = [tuple(0 for _ in range(n))] + [
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ]
    return polytope_from_points(pts)


def test_segment_doubles_to_triangle():
    f0 = next(f for f in SEGMENT.facets if facet_key(f) == ((1,), 0))
    r = double_along_facet(SEGMENT, facet_index(SEGMENT, f0))
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
        for i in range(len(p.facets)):
            r = double_along_facet(p, i)
            assert is_unimodular_simplex(r.doubled)
            q, _ = normalize_full_dim(r.doubled)
            assert integral_affine_equivalent(q, target) is not None


def test_square_doubles_to_prism():
    f = next(f for f in UNIT_SQUARE.facets if facet_key(f) == ((0, 1), 0))
    r = double_along_facet(UNIT_SQUARE, facet_index(UNIT_SQUARE, f))
    assert len(r.doubled.lattice_points) == 6
    assert len(r.doubled.facets) == 5
    assert r.count_identity_holds


def test_doubling_structure(corpus):
    for p in corpus:
        q, _ = normalize_full_dim(p)
        if q.dim < 1 or len(column_vectors(q)) == 0:
            continue
        for i, f in enumerate(q.facets[:2]):
            r = double_along_facet(q, i)
            n = q.ambient_dim
            # base copy is the facet at the new coordinate's zero level
            keys = {facet_key(g) for g in r.doubled.facets}
            assert ((0,) * n + (1,), 0) in keys
            assert (f.normal + (0,), 0) in keys
            assert len(r.doubled.facets) == len(q.facets) + 1
            # the base copy (x - z0, 0) and psi(x) = (x - z0 - ht(x) w,
            # ht(x)) of each vertex land inside the double, and they are
            # its vertices
            w, z0 = r.section, min(facet_points(q, f))
            images = set()
            for v in q.vertices:
                h = dot(f.normal, v) - f.offset
                b = vec_sub(v, z0) + (0,)
                c = vec_sub(vec_sub(v, z0), vec_scale(h, w)) + (h,)
                assert contains(r.doubled, b)
                assert contains(r.doubled, c)
                images |= {b, c}
            assert images == set(r.doubled.vertices)
            # psi maps Z^n onto a direct summand: the gcd of the maximal
            # minors of its linear part x -> (x - (a . x) w, a . x) is 1
            lin_rows = [  # images of e_j
                vec_sub(e, vec_scale(a_j, w)) + (a_j,)
                for e, a_j in zip(identity_matrix(n), f.normal)
            ]
            g = 0
            for colset in itertools.combinations(range(n + 1), n):
                sub = [[row[c] for c in colset] for row in lin_rows]
                g = gcd(g, abs(det_int(sub)))
            assert g == 1


def test_doubled_lattice_points_match_segment_model():
    # lattice points of the double = pairs (x - s*w, s), 0 <= s <= height(x)
    for p in [TRIANGLE, UNIT_SQUARE, TRAPEZOID]:
        for i, f in enumerate(p.facets):
            r = double_along_facet(p, i)
            z0 = min(facet_points(p, f))
            expected = set()
            for x in p.lattice_points:
                h = dot(f.normal, vec_sub(x, z0))
                for s in range(h + 1):
                    expected.add(
                        vec_sub(vec_sub(x, z0), vec_scale(s, r.section)) + (s,)
                    )
            assert set(r.doubled.lattice_points) == expected


def _assert_matches_rebuilt(d):
    """The geometry a double inherits from P equals its rebuild from D's
    vertices by double description and the fibre walk."""
    r = polytope_from_points(d.vertices)
    assert d.vertices == r.vertices
    assert d._facet_pairs == r._facet_pairs
    assert d.lattice_points == r.lattice_points
    assert d.facet_heights == r.facet_heights
    assert off_facet_minima(d) == off_facet_minima(r)
    assert d.is_normalized == r.is_normalized


def test_seeded_double_matches_rebuild_along_the_chain():
    chain = doubling_spectrum(TRAPEZOID, 11)
    assert [st.result.doubled.dim for st in chain.steps] == list(range(3, 14))
    for st in chain.steps:
        _assert_matches_rebuilt(st.result.doubled)


def test_seeded_double_matches_rebuild_on_column_facets(corpus):
    done = 0
    for p in corpus:
        q, _ = normalize_full_dim(p)
        for base in sorted({c.base for c in column_vectors(q)}):
            _assert_matches_rebuilt(double_along_facet(q, base).doubled)
            done += 1
    assert done == 39


def _keyed(p, cols):
    """Columns with their bases and heights read through p's facet pairs."""
    pairs = p._facet_pairs
    return [(c.vector, pairs[c.base], sorted(zip(pairs, c.heights)))
            for c in cols]


def _assert_columns_match_search(d, literal=False):
    """The columns and product table seeded on a double equal the search's
    on D rebuilt from its vertices, and with ``literal`` the unpruned
    search's too."""
    r = polytope_from_points(d.vertices)
    seeded, searched = product_table(d), product_table(r)
    assert _keyed(d, seeded.columns) == _keyed(r, searched.columns)
    assert seeded.rows == searched.rows
    if literal:
        assert _keyed(d, seeded.columns) == _keyed(
            r, column_vectors(r, pruned=False))


def _random_sections(a, rng, count):
    w = integral_section(a)
    kernel = kernel_basis_int([a])
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in kernel]
        yield tuple(
            x + sum(c * row[i] for c, row in zip(coeffs, kernel))
            for i, x in enumerate(w)
        )


def test_seeded_columns_match_search_along_the_chain():
    chain = doubling_spectrum(TRAPEZOID, 11)
    assert len(product_table(chain.steps[-1].result.doubled).columns) == 134
    for step, st in enumerate(chain.steps, 1):
        _assert_columns_match_search(st.result.doubled, literal=step <= 3)


def test_seeded_columns_match_search_on_corpus_doublings(corpus):
    rng = random.Random(7)
    done = 0
    for p in corpus:
        q, _ = normalize_full_dim(p)
        for i, f in enumerate(q.facets):
            _assert_columns_match_search(double_along_facet(q, i).doubled)
            for w in _random_sections(f.normal, rng, 3):
                _assert_columns_match_search(
                    double_along_facet(q, i, section=w).doubled)
            done += 1
    assert done == 49


def test_spectrum_searches_columns_only_for_its_input(capsys, monkeypatch):
    searched = []
    original = columns.column_vectors

    def counted(p, pruned=True):
        if pruned:
            searched.append(p)
        return original(p, pruned)

    monkeypatch.setattr(columns, "column_vectors", counted)
    text = json.dumps({"vertices": [list(v) for v in TRAPEZOID.vertices]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["spectrum", "-", "--steps", "7"]) == 0
    assert len(json.loads(capsys.readouterr().out)["steps"]) == 7
    assert [q.vertices for q in searched] == [TRAPEZOID.vertices]


def _beyond_the_fibre(cols_p, index, w, sources):
    # (u - s w, s) with s = a.u + 1 over a lifted facet G: it claims height
    # -1 over G but takes the top point of a fibre off G out of the sheared
    # copy, so its height -1 over the sheared copy refuses it
    u = next(c for c in cols_p if c.base != index)
    s = u.heights[index] + 1
    return ColumnVector(
        vec_sub(u.vector, vec_scale(s, w)) + (s,),
        sources.index(u.base),
        tuple(s if src == "base" else u.heights[index] - s
              if src == "sheared" else u.heights[src] for src in sources),
    )


def _zero_shift(cols_p, index, w, sources):
    # (-w, 1) seeded at s = 0: the zero vector, with no negative height off
    # its base for the sign test to refuse, but height 0 over its base
    return ColumnVector((0,) * (len(w) + 1), sources.index("sheared"),
                        (0,) * len(sources))


@pytest.mark.parametrize("bad", [_beyond_the_fibre, _zero_shift],
                         ids=["beyond-the-fibre", "zero-shift"])
def test_certificate_refuses_a_bad_seeded_column(monkeypatch, bad):
    seeded = doubling._seeded_columns

    def with_bad_column(*args):
        return tuple(sorted(seeded(*args) + (bad(*args),)))

    monkeypatch.setattr(doubling, "_seeded_columns", with_bad_column)
    with pytest.raises(InternalCheckError, match="no column of the double"):
        double_along_facet(TRAPEZOID, 0)


def test_seeded_double_of_a_non_normalized_polytope(monkeypatch):
    # the column inclusion refuses P, so the geometry is checked without it
    with pytest.raises(ValueError, match="normalized"):
        double_along_facet(REEVE_TETRAHEDRON, 0)
    monkeypatch.setattr(doubling, "extend_columns", lambda p, d, _: {})
    for p in (NON_NORMAL_SIMPLEX, REEVE_TETRAHEDRON, EMPTY_SIMPLEX):
        for i in range(len(p.facets)):
            d = double_along_facet(p, i).doubled
            assert not d.is_normalized
            _assert_matches_rebuilt(d)


def test_certificate_refuses_a_supporting_line_posed_as_a_facet():
    # x + y >= 0 meets the unit square only at the origin, on the bottom
    # edge, so its lift is tight at no vertex above the base copy
    sq = Polytope(UNIT_SQUARE.vertices, 2)
    sq._facet_pairs = tuple(sorted(UNIT_SQUARE._facet_pairs + (((1, 1), 0),)))
    with pytest.raises(InternalCheckError, match="no facet"):
        double_along_facet(sq, sq._facet_pairs.index(((0, 1), 0)))


def test_count_identity_flag():
    # heights above 1 create interior points between the copies
    bottom = next(f for f in SLANTED_QUAD.facets if facet_key(f) == ((0, 1), 0))
    r = double_along_facet(SLANTED_QUAD, facet_index(SLANTED_QUAD, bottom))
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
        r = double_along_facet(q, cols[0].base)
        assert set(r.col_inclusion) == set(cols)
        doubled_cols = set(column_vectors(r.doubled))
        for src, dst in r.col_inclusion.items():
            assert dst in doubled_cols
            assert dst.vector == src.vector + (0,)


def test_extension_composes_injectively():
    r1 = double_along_facet(TRIANGLE, 0)
    r2 = double_along_facet(r1.doubled, 0)
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
        for i, f in enumerate(p.facets):
            cases.append((p, i, f))
    done = 0
    for p, i, f in cases:
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
        r1 = double_along_facet(p, i, section=w)
        r2 = double_along_facet(p, i, section=w2)
        q1, _ = normalize_full_dim(r1.doubled)
        q2, _ = normalize_full_dim(r2.doubled)
        assert integral_affine_equivalent(q1, q2) is not None
        done += 1
    assert done == 20


def test_bad_section_rejected():
    with pytest.raises(ValueError):
        double_along_facet(TRIANGLE, 0, section=(5, 5))


def test_out_of_range_facet_index_rejected():
    for index in (-1, len(TRIANGLE.facets)):
        with pytest.raises(ValueError):
            double_along_facet(TRIANGLE, index)


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
    assert chain.steps[-1].result.doubled.is_normalized
