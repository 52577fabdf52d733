import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycol.exactmath import (
    ZZ,
    Poly,
    det_int,
    dot,
    extended_gcd,
    hermite_normal_form,
    identity_matrix,
    independent_rows,
    integral_section,
    kernel_basis_int,
    lll_reduce,
    mat_inverse_frac,
    mat_mul,
    mat_vec,
    primitive_part,
    rank_int,
    saturation_basis,
    solve_int,
    transpose,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)

from .conftest import CORPUS
from .helpers import (
    QQ,
    IntegersMod,
    PolynomialRing,
    adjugate_int,
    generator_dot,
    generator_vec_add,
    generator_vec_neg,
    generator_vec_scale,
    generator_vec_sub,
    rank_loop_basis,
    rational_rank,
    rational_solve,
    unit_inverse,
)


def test_primitive_part_examples():
    assert primitive_part((2, 4, 6)) == (1, 2, 3)
    assert primitive_part((0, -3)) == (0, -1)
    assert primitive_part((5,)) == (1,)
    with pytest.raises(ValueError):
        primitive_part((0, 0))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
def test_primitive_part_idempotent(v):
    if not any(v):
        return
    p = primitive_part(tuple(v))
    assert primitive_part(p) == p


_COORD = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), _COORD, st.data())
def test_vector_kernels_match_generator_forms(n, k, data):
    a, b = (tuple(data.draw(st.lists(_COORD, min_size=n, max_size=n)))
            for _ in range(2))
    for got, want in [
        (vec_add(a, b), generator_vec_add(a, b)),
        (vec_sub(a, b), generator_vec_sub(a, b)),
        (vec_neg(a), generator_vec_neg(a)),
        (vec_scale(k, a), generator_vec_scale(k, a)),
    ]:
        assert got == want
        assert type(got) is tuple and all(type(x) is int for x in got)
    assert dot(a, b) == generator_dot(a, b)
    assert type(dot(a, b)) is int


@pytest.mark.parametrize("kernel", [vec_add, vec_sub, dot])
@pytest.mark.parametrize("a, b", [((1, 2), (3,)), ((), (1,)), ((1, 2, 3), (4, 5))])
def test_vector_kernels_refuse_unequal_lengths(kernel, a, b):
    # map stops at the shorter vector, so the kernels check lengths first
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError):
            kernel(x, y)


def test_extended_gcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-9, -6)]:
        g, x, y = extended_gcd(a, b)
        assert g >= 0
        assert a * x + b * y == g


def test_integral_section_examples():
    assert integral_section((1, 0)) == (1, 0)
    assert integral_section((0, 1)) == (0, 1)
    w = integral_section((2, 3))
    assert dot((2, 3), w) == 1
    assert w == (-1, 1)
    with pytest.raises(ValueError):
        integral_section((2, 4))


def test_integral_section_random():
    # 1000 random primitive vectors in dimensions 1..5
    rng = random.Random(0)
    done = 0
    while done < 1000:
        n = rng.randint(1, 5)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        if not any(v):
            continue
        v = primitive_part(v)
        assert dot(v, integral_section(v)) == 1
        done += 1


def test_hnf_examples():
    h, u = hermite_normal_form(identity_matrix(2))
    assert h == identity_matrix(2)
    assert u == identity_matrix(2)

    h, u = hermite_normal_form(((2, 0), (0, 2)))
    assert h == ((2, 0), (0, 2))

    h, u = hermite_normal_form(((1, 1), (1, -1)))
    assert h == ((1, 1), (0, 2))
    assert mat_mul(u, ((1, 1), (1, -1))) == h


def _hnf_shape_ok(h):
    pivots = []
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert j > last, "pivot columns must move right"
        last = j
        assert row[j] > 0
        pivots.append((len(pivots), j))
    for r, c in pivots:
        for i in range(r):
            assert 0 <= h[i][c] < h[r][c]
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_hnf_properties(nr, nc, data):
    m = tuple(
        tuple(data.draw(st.integers(-9, 9)) for _ in range(nc))
        for _ in range(nr)
    )
    h, u = hermite_normal_form(m)
    assert abs(det_int(u)) == 1
    assert mat_mul(u, m) == h
    assert _hnf_shape_ok(h)
    assert rank_int(h) == rank_int(m)


def test_kernel_and_saturation():
    k = kernel_basis_int(((1, 1, 0),))
    assert len(k) == 2
    assert all(dot((1, 1, 0), v) == 0 for v in k)
    sat = saturation_basis(((2, 0), (0, 2)))
    # saturation of a finite-index sublattice is the whole lattice
    h, _ = hermite_normal_form(sat)
    assert h == identity_matrix(2)


def _independent_columns(data, nr, nc):
    m = tuple(
        tuple(data.draw(st.integers(-6, 6)) for _ in range(nc))
        for _ in range(nr)
    )
    assume(rank_int(transpose(m)) == nc)
    return m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_solve_int_matches_rational_oracle(nr, data):
    nc = data.draw(st.integers(1, nr))
    m = _independent_columns(data, nr, nc)
    y = tuple(data.draw(st.integers(-9, 9)) for _ in range(nc))
    kind = data.draw(st.sampled_from(["lattice", "span", "outside"]))
    if kind == "lattice":
        rhs = mat_vec(m, y)
    elif kind == "span":
        # scaling column j by k leaves m @ y in the column span but puts the
        # solution's coordinate j at y_j / k
        j = data.draw(st.integers(0, nc - 1))
        k = data.draw(st.integers(2, 4))
        assume(y[j] % k)
        rhs = mat_vec(m, y)
        m = tuple(
            tuple(k * x if c == j else x for c, x in enumerate(row)) for row in m
        )
    else:
        rhs = tuple(data.draw(st.integers(-9, 9)) for _ in range(nr))
        assume(rank_int(transpose(m) + (rhs,)) > nc)
    oracle = rational_solve(m, rhs)
    (got,) = solve_int(m, [rhs])
    if kind == "lattice":
        assert got == y == oracle
    elif kind == "span":
        assert got is None
        assert any(c.denominator != 1 for c in oracle)
    else:
        assert got is None is oracle


def test_solve_int_examples():
    assert solve_int(((2,), (4,)), [(6, 12), (1, 2), (6, 13)]) == [(3,), None, None]
    assert solve_int(((1, 0), (0, 3)), [(5, -6)]) == [(5, -2)]
    assert solve_int(((1, 0), (0, 3)), []) == []
    with pytest.raises(ValueError):
        solve_int(((1, 2), (2, 4)), [(1, 2)])


def _square_matrices(draw, n):
    # small entries make zero pivots and singular matrices likely, huge ones
    # test the growth of the intermediate minors
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["free", "zero-pivots", "singular"]))
    if shape == "zero-pivots" and n > 1:
        # the leading k x k block vanishes, so the first k pivots need swaps
        k = draw(st.integers(1, n // 2))
        for i in range(k):
            m[i][:k] = [0] * k
    elif shape == "singular":
        # the last row is an integer combination of the others
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
        m[-1] = [sum(c * m[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    return tuple(tuple(row) for row in m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_mat_inverse_frac_is_one_fraction(n, data):
    m = _square_matrices(data.draw, n)
    det = det_int(m)
    if det == 0:
        with pytest.raises(ValueError):
            mat_inverse_frac(m)
        return
    a, d = mat_inverse_frac(m)
    assert d == abs(det) > 0
    assert mat_mul(m, a) == tuple(
        tuple(d * x for x in row) for row in identity_matrix(n)
    )
    sign = 1 if det > 0 else -1
    assert a == tuple(tuple(sign * x for x in row) for row in adjugate_int(m))


def test_mat_inverse_frac_takes_no_determinant(monkeypatch):
    from polycol import exactmath

    calls = []
    monkeypatch.setattr(exactmath, "det_int", lambda m: calls.append(m))
    assert mat_inverse_frac(((0, 2, 1), (1, 0, 0), (3, 1, 5))) == (
        ((0, 9, 0), (5, 3, -1), (-1, -6, 2)),
        9,
    )
    assert mat_inverse_frac(()) == ((), 1)
    with pytest.raises(ValueError):
        mat_inverse_frac(((1, 2), (2, 4)))
    assert calls == []


def test_independent_rows_match_rank_loop_in_facets_and_frames(monkeypatch):
    from polycol import polytopes

    seen = []
    pick = polytopes.independent_rows

    def recording(rows, limit):
        seen.append((list(rows), limit))
        return pick(rows, limit)

    monkeypatch.setattr(polytopes, "independent_rows", recording)
    rng = random.Random(12)
    point_sets = [p.vertices for p in CORPUS]
    for _ in range(40):
        n = rng.randint(2, 4)
        point_sets.append(
            [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 4)]
        )
    for pts in point_sets:
        p = polytopes.polytope_from_points(pts)
        if p.is_full_dimensional:
            next(polytopes.lattice_equivalences(p, p))
    assert len(seen) > len(point_sets)
    for rows, limit in seen:
        assert independent_rows(rows, limit) == rank_loop_basis(rows, limit)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.data())
def test_independent_rows_match_rank_loop(d, count, data):
    rows = [
        tuple(data.draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(count)
    ]
    limit = data.draw(st.integers(1, d))
    assert independent_rows(rows, limit) == rank_loop_basis(rows, limit)
    assert rank_int(rows) == rational_rank(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.data())
def test_lll_reduce_meets_the_lll_conditions(n, data):
    # rows of D span a positive definite form D^T D, with entries up to 10^30
    bound = data.draw(st.sampled_from((3, 10**3, 10**30)))
    rows = [tuple(data.draw(st.integers(-bound, bound)) for _ in range(n))
            for _ in range(data.draw(st.integers(n, n + 3)))]
    assume(rank_int(rows) == n)
    gram = mat_mul(transpose(rows), rows)
    u, v = lll_reduce(gram)
    assert mat_mul(u, v) == identity_matrix(n)
    assert abs(det_int(u)) == 1
    # Gram-Schmidt over Q in the form: |mu| <= 1/2 and Lovasz with 3/4
    form = [[Fraction(dot(a, mat_vec(gram, b))) for b in u] for a in u]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (form[i][j] - sum(mu[j][k] * mu[i][k] * norms[k]
                                         for k in range(j))) / norms[j]
        norms.append(form[i][i] - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, n))


def test_lll_reduce_finds_the_thin_frame():
    # the differences of the thin triangle (0,0), (N,N+1), (N+1,N+2) pair
    # to 0 and +-1 with both reduced rows
    n = 10**100
    diffs = ((n, n + 1), (n + 1, n + 2))
    u, v = lll_reduce(mat_mul(transpose(diffs), diffs))
    assert mat_mul(u, v) == identity_matrix(2)
    assert all(abs(dot(row, d)) <= 1 for row in u for d in diffs)


def test_mat_inverse_frac_singular():
    for m in (((0,),), ((1, 2), (2, 4)), ((1, 0, 1), (0, 1, 1), (1, 1, 2))):
        with pytest.raises(ValueError):
            mat_inverse_frac(m)
    assert mat_inverse_frac(((0, 1), (1, 0))) == (((0, 1), (1, 0)), 1)
    assert mat_inverse_frac(((2, 1), (0, -1))) == (((1, 1), (0, -2)), 2)


def test_poly_basics():
    ring = PolynomialRing(("a", "b"))
    a = ring.var("a")
    b = ring.var("b")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (a + 1) * (a + 1) == a * a + 2 * a + 1
    assert repr(a * a - b + 1) == "a^2 - b + 1"
    assert ring.zero == 0 and ring.one == 1
    assert a != b


def _stores_no_zero(p):
    return all(c != 0 for c in p.terms.values())


def test_poly_cancellation_stores_no_zero():
    ring = PolynomialRing(("a", "b"))
    a, b = ring.var("a"), ring.var("b")
    s = a + b
    for p in (
        a + (-a),
        s - s,
        (a + b) * (a - b),
        a * (b - b),
        (a * b) * (a - a + 2 * b - 2 * b),
        (a + 1) * (a - 1) + 1,
    ):
        assert _stores_no_zero(p), p
    assert (a + (-a)).terms == {}
    assert ((a + b) * (a - b)).terms == {(2, 0): 1, (0, 2): -1}
    assert (a * (b - b)).terms == {}
    assert ((a + 1) * (a - 1) + 1).terms == {(2, 0): 1}
    # a monomial times a sum whose terms cancel among themselves
    assert (a * b * (a - b + b - a)).terms == {}
    assert (a * (a * b - b * a + 3)).terms == {(1, 0): 3}


def test_poly_constant_hashes_like_its_int():
    names = ("a", "b")
    five = Poly.const(names, 5)
    assert five == 5
    assert hash(five) == hash(5)
    assert len({5, five}) == 1
    zero = Poly.const(names, 0)
    assert zero == 0 and hash(zero) == hash(0)
    assert len({0, zero, Poly(names, {(0, 0): 0})}) == 1
    # const truncates like int(), and a truncated zero is not stored
    assert Poly.const(names, Fraction(1, 2)).terms == {}
    assert Poly.const(names, Fraction(7, 2)) == 3
    minus_one = Poly.const(names, -1)
    assert hash(minus_one) == hash(-1)
    assert len({Poly.variable(names, "a"), 1, five}) == 3


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_ring_axioms(data):
    ring = PolynomialRing(("x", "y"))

    def rand_poly():
        terms = {}
        for _ in range(data.draw(st.integers(0, 4))):
            e = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
            terms[e] = data.draw(st.integers(-5, 5))
        return Poly(("x", "y"), terms)

    p, q, r = rand_poly(), rand_poly(), rand_poly()
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == ring.zero


def test_coefficient_rings():
    assert unit_inverse(ZZ, -1) == -1
    with pytest.raises(ValueError):
        unit_inverse(ZZ, 2)
    assert unit_inverse(QQ, Fraction(3, 4)) == Fraction(4, 3)
    m5 = IntegersMod(5)
    x = m5.from_int(3)
    assert unit_inverse(m5, x) * x == m5.one
    assert m5.from_int(8) == m5.from_int(3)
    with pytest.raises(ValueError):
        unit_inverse(IntegersMod(6), IntegersMod(6).from_int(2))
    ring = PolynomialRing(("t",))
    assert unit_inverse(ring, -ring.one) == -ring.one
    with pytest.raises(ValueError):
        unit_inverse(ring, ring.var("t"))
    assert [repr(r) for r in (ZZ, ring, QQ, m5)] == ["ZZ", "ZZ[t]", "QQ", "ZZ/5"]
