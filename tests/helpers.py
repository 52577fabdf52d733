"""Independent oracles used to cross-check the production algorithms.

Everything here is deliberately brute force and shares no code path with
the implementations under test, except the slow paths kept for the polygon
scan and the Steinberg check.  The scan ones call the same column and
normal-form functions, one polygon at a time, so they check the grouping and
the pruning, not those functions; the Steinberg one composes the same shears
into literal four-fold commutators over Z[lam, mu], so it checks the
two-product identity and the reduction to lam = mu = 1, and the embedding
one composes them over Z[a, b] and Q, so it checks the reduction to Z.
The composed Kronecker base forms x_u(1) x_u(1), where ``_kronecker_base``
bounds its entries by the entries and column sums of x_u(1).
The cofactor adjugate calls ``det_int``, which shares no code with the
Gauss-Jordan inverse it checks.  The graded-semigroup oracles recurse over
the last summand inside a dilation of P, where the production code builds
the semigroup slice by slice.  The unpruned equivalence search sends the
first spanning tuple of P's vertices to every ordered vertex tuple of Q,
through the same frame maps as the production search, so it checks the edge
anchor and the search, not the frame maps.  The rank adjacency joins two
vertices whose common facets have rank n - 1, where ``vertex_adjacency``
looks for a third vertex on all of them.
The fan-witness oracle searches frame maps and tests each image by facet
normals and incidences, where ``fan_normal_form`` compares sorted edge
directions; the frame-form list reuses the frame matrix of
``cycle_normal_form``, so it checks the count of minimal frames, not the
frames, and its least form is the all-frames normal form that the pruned
``cycle_normal_form`` is checked against.  The box-orbit oracle applies
the eight signed permutation matrices and translates each image back, where
the scan writes out the seven images of a pinned cycle.  The Gram-inverse
chart maps a polytope onto its normalized model by the left inverse of its
Hermite basis, where ``normalize_full_dim`` solves over that basis by back
substitution.  The column-table
functions (weak products, the column-map check) and the degree-consistency
check read the production product table and lattice points.  The rigidity
oracle glues only the irreducible elements' ports and then searches the
coarsenings of that partition, up to 50,000 of them, where ``is_rigid``
also glues the products' ends and decides from that one partition; both
read the production hulls and product table.

The off-facet minima take a minimum over the whole height matrix for every
pair of facets, where ``columns`` reads only the signs of a column's own
heights.

The generator forms of the vector kernels are the oracle for the ``map``
kernels of ``exactmath``: here ``zip(strict=True)`` refuses unequal
lengths, where the production kernels compare the lengths themselves.

The minor-loop simplex test takes one determinant per choice of maximal
minor, where ``is_unimodular_simplex`` reads the diagonal of one Hermite
form.  The report-JSON oracle copies a report into str keys and strings
for big ints and hands the copy to ``json.dumps``, where ``reports.to_json``
renders the report itself in one pass.

The slice-based column check tests every semigroup monomial up to a
degree bound against the slices behind ``algebra.sp_membership``, where
``check_column_property`` shifts the lattice points off the base facet.

The inversion subgroup is closed under composition here, as vertex
permutations generated by the column inversions, each checked to be a
lattice symmetry; ``algebra.symmetry_group_data`` builds no group and reads
|H| off the components of the two-sided columns.

The test rings and generators live here because no command needs them: Q,
Z/m and Z[x...] with the unit inverses the torus reads, the dense matrix of
an automorphism, the identity, torus and symmetry-group automorphisms, the
lattice symmetries and column inversions as vertex permutations, the
inversion subgroup, the semigroup monomials of one degree, and a polytope's
point test, facet height and translation.
"""

import argparse
import itertools
import json
import random
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from polycol import algebra, cli
from polycol.algebra import (
    GradedAutomorphism,
    elementary_automorphism,
    lattice_symmetries,
)
from polycol.columns import (
    DirectedGraph,
    NotRigid,
    Rigid,
    RigidCertificate,
    UnclassifiablePolygonError,
    classify_balanced_polygon,
    column_vectors,
    is_balanced,
    is_col_divisible,
    product_table,
    strict_hull,
    weak_hull,
)
from polycol.exactmath import (
    ZZ,
    Poly,
    det_int,
    dot,
    extended_gcd,
    hermite_normal_form,
    mat_inverse_frac,
    mat_mul,
    mat_vec,
    primitive_part,
    transpose,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from polycol.polytopes import (
    InternalCheckError,
    Polytope,
    _frame_matrix,
    dilate,
    normalize_full_dim,
    polygon_cycle,
    polygon_normal_form,
    polytope_from_points,
    unimodular_frame_maps,
)
from polycol.scan import _directions, enumerate_polygons


def generator_vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def generator_vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def generator_vec_neg(a):
    return tuple(-x for x in a)


def generator_vec_scale(k, a):
    return tuple(k * x for x in a)


def generator_dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


class PolynomialRing:
    """Z[x1, ..., xk] for a fixed tuple of variable names."""

    def __init__(self, names):
        self.names = tuple(names)
        self.name = "ZZ[" + ",".join(self.names) + "]"

    @property
    def zero(self):
        return Poly.const(self.names, 0)

    @property
    def one(self):
        return Poly.const(self.names, 1)

    def var(self, name):
        return Poly.variable(self.names, name)

    def from_int(self, n):
        return Poly.const(self.names, n)

    def __repr__(self):
        return self.name


class RationalRing:
    """Q, with ``fractions.Fraction`` elements."""

    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inverse(self, x):
        if x == 0:
            raise ValueError("0 is not a unit in QQ")
        return 1 / Fraction(x)

    def __repr__(self):
        return self.name


QQ = RationalRing()


class ModInt:
    """Element of Z/m, hashable and immutable."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.value = value % modulus
        self.modulus = modulus

    def _check(self, other):
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


class IntegersMod:
    """Z/m, with ``ModInt`` elements."""

    def __init__(self, modulus):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        self.name = f"ZZ/{modulus}"

    @property
    def zero(self):
        return ModInt(0, self.modulus)

    @property
    def one(self):
        return ModInt(1, self.modulus)

    def from_int(self, n):
        return ModInt(n, self.modulus)

    def inverse(self, x):
        if gcd(x.value, self.modulus) != 1:
            raise ValueError(f"{x!r} is not a unit in {self.name}")
        return ModInt(pow(x.value, -1, self.modulus), self.modulus)

    def __repr__(self):
        return self.name


def unit_inverse(ring, u):
    """u^-1 in ``ring``, or ValueError; the units of Z and Z[x...] are +-1."""
    if hasattr(ring, "inverse"):
        return ring.inverse(u)
    if u == 1 or u == -1:
        return u
    raise ValueError(f"{u!r} is not a unit in {ring!r}")


def dense_matrix(auto):
    """Dense view of a GradedAutomorphism: entry [i][j] is the coefficient
    of monomial i in the image of monomial j."""
    zero = auto.ring.zero
    m = len(auto.columns)
    return tuple(
        tuple(col.get(i, zero) for col in auto.columns) for i in range(m)
    )


def identity_automorphism(p, ring):
    return GradedAutomorphism(
        p, ring, [{j: ring.one} for j in range(len(p.lattice_points))]
    )


def torus_automorphism(p, units, ring):
    """Diagonal action: the monomial at z scales by the unit monomial in z.

    There are ambient_dim + 1 units, the last one acting through the
    grading; negative coordinates use the inverse units.
    """
    n = p.ambient_dim
    units = tuple(units)
    if len(units) != n + 1:
        raise ValueError("need ambient_dim + 1 units")
    inverses = [unit_inverse(ring, u) for u in units]
    columns = []
    for j, z in enumerate(p.lattice_points):
        val = units[n]
        for u, u_inv, zi in zip(units, inverses, z):
            for _ in range(abs(zi)):
                val = val * (u if zi >= 0 else u_inv)
        columns.append({j: val})
    return GradedAutomorphism(p, ring, columns)


def sigma_group(p, ring=ZZ):
    """The lattice symmetries as permutation-matrix automorphisms, in sorted
    permutation order.  Each map of ``lattice_symmetries`` is applied to
    every lattice point here, so the matrices do not rest on the vertex
    permutations ``algebra`` stores."""
    index = p.point_index
    perms = sorted(
        tuple(index[m.apply(z)] for z in p.lattice_points)
        for m in lattice_symmetries(p)
    )
    return [
        GradedAutomorphism(p, ring, [{i: ring.one} for i in perm]) for perm in perms
    ]


def symmetry_permutation(p, amap):
    """A lattice symmetry as the permutation of P's vertices it induces; the
    vertices of a full-dimensional P affinely span it, so this fixes the map."""
    return _vertex_permutation(p, map(amap.apply, p.vertices), "symmetry")


def _vertex_permutation(p, images, what):
    """The indices in ``p.vertices`` of ``images``, one image per vertex."""
    index = {v: i for i, v in enumerate(p.vertices)}
    perm = tuple(map(index.get, images))
    if None in perm:
        raise InternalCheckError(f"{what} does not permute vertices")
    return perm


def _perm_compose(a, b):
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def symmetry_permutations(p):
    """The lattice symmetries of p as permutations of its vertices.

    The set is computed once per polytope object and stored on ``p``, so
    it lives exactly as long as ``p``.  No lattice point is walked.
    """
    perms = p.__dict__.get("_symmetry_permutations")
    if perms is None:
        perms = p.__dict__["_symmetry_permutations"] = frozenset(
            symmetry_permutation(p, m) for m in lattice_symmetries(p)
        )
    return perms


def _closure(gens, n):
    """The group of permutations of range(n) generated by ``gens``.

    Starting from the identity, each new element is composed with the
    generators only; in a finite group that reaches every element.
    """
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                candidate = _perm_compose(h, g)
                if candidate not in group:
                    group.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return group


def column_inversion(p, col):
    """The symmetry flipping columns parallel to a two-sided column vector v,
    as a permutation of P's vertices: each vertex x moves to
    x + (h_+(x) - h_-(x)) v, the point with mirrored heights h_+ and h_-
    over the bases of v and -v, read from their normals and offsets.
    """
    table = product_table(p)
    cv = table.columns[table.column(col)]
    neg = table.index.get(vec_neg(cv.vector))
    if neg is None:
        raise ValueError("column inversion needs both v and -v as columns")
    v = cv.vector
    (a_plus, b_plus), (a_minus, b_minus) = (
        p._facet_pairs[c.base] for c in (cv, table.columns[neg])
    )
    perm = _vertex_permutation(p, [
        vec_add(x, vec_scale(dot(a_plus, x) - b_plus - dot(a_minus, x) + b_minus, v))
        for x in p.vertices
    ], "column inversion")
    if perm not in symmetry_permutations(p):
        raise InternalCheckError("column inversion is not a lattice symmetry")
    return perm


def _inversion_generators(p):
    """The column inversions, one per column v with -v also a column."""
    table = product_table(p)
    return [
        column_inversion(p, c)
        for c in table.columns
        if vec_neg(c.vector) in table.index
    ]


def inversion_subgroup(p):
    """The vertex permutations generated by all column inversions."""
    return _closure(_inversion_generators(p), len(p.vertices))


def contains(p, z):
    """Is the integer point z in P?"""
    if p.dim == 0:
        return tuple(z) == p.vertices[0]
    if p.is_full_dimensional:
        return all(dot(a, z) >= b for a, b in p._facet_pairs)
    return tuple(z) in p.point_index


def facet_key(f):
    """(normal, offset) of a facet form."""
    return (f.normal, f.offset)


def facet_points(p, f):
    """The sorted lattice points of P on the facet form f, read from its
    inequality rather than from the height matrix."""
    return [z for z in p.lattice_points if dot(f.normal, z) == f.offset]


def off_facet_minima(p):
    """M[F][G] = min{H[G][i] : H[F][i] > 0}, the least height over G of a
    lattice point off F, over the whole height matrix: the oracle for the
    two facts on M that ``columns`` proves and its sign tests rest on."""
    heights = p.facet_heights
    return tuple(
        tuple(
            min(h_g for h_f, h_g in zip(row_f, row_g) if h_f > 0)
            for row_g in heights
        )
        for row_f in heights
    )


def facet_index(p, facet):
    """The index of the facet form among P's facets."""
    for i, f in enumerate(p.facets):
        if facet_key(f) == facet_key(facet):
            return i
    raise ValueError("facet form does not belong to this polytope")


def height(p, facet, z, degree=1):
    """normal . z - degree * offset, for one of P's facets."""
    facet_index(p, facet)
    return dot(facet.normal, z) - degree * facet.offset


def translate(p, t):
    return Polytope([vec_add(v, t) for v in p.vertices], p.ambient_dim, name=p.name)


def facet_scan_oracle(points, n):
    """Facet pairs by scanning all affinely independent n-subsets.

    A supporting hyperplane through n affinely independent points of the
    hull is a facet hyperplane; orientation is fixed so the polytope sits
    on the >= side.
    """
    points = sorted(set(map(tuple, points)))
    out = set()
    for subset in itertools.combinations(points, n):
        base = subset[0]
        diffs = [vec_sub(q, base) for q in subset[1:]]
        normal = _hyperplane_normal(diffs, n)
        if normal is None:
            continue
        b = dot(normal, base)
        vals = [dot(normal, q) for q in points]
        if all(v >= b for v in vals):
            out.add((normal, b))
        elif all(v <= b for v in vals):
            out.add((tuple(-x for x in normal), -b))
    return sorted(out)


def _hyperplane_normal(diffs, n):
    """Primitive vector orthogonal to n-1 difference vectors, or None."""
    if n == 1:
        return (1,)
    # kernel via cofactor expansion: solve diffs . x = 0 with one dof
    # using exact fraction-free elimination
    rows = [list(r) for r in diffs]
    m = len(rows)
    used_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f, p = rows[i][c], rows[r][c]
                rows[i] = [p * x - f * y for x, y in zip(rows[i], rows[r])]
        used_cols.append(c)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in used_cols)
    x = [0] * n
    denom = 1
    for row, c in zip(rows[:r], used_cols):
        denom = denom * row[c] // gcd(denom, row[c]) if row[c] else denom
    from fractions import Fraction

    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for row, c in zip(reversed(rows[:r]), reversed(used_cols)):
        acc = Fraction(0)
        for j in range(n):
            if j != c:
                acc += row[j] * sol[j]
        sol[c] = -acc / row[c]
    lcm = 1
    for s in sol:
        lcm = lcm * s.denominator // gcd(lcm, s.denominator)
    ints = [int(s * lcm) for s in sol]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def box_scan_lattice_points(p):
    """Lattice points of a full-dimensional polytope, in lexicographic
    order, by testing every cell of the vertex bounding box against every
    facet inequality."""
    n = p.ambient_dim
    lows = [min(v[i] for v in p.vertices) for i in range(n)]
    highs = [max(v[i] for v in p.vertices) for i in range(n)]
    return [
        z
        for z in itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
        )
        if all(dot(f.normal, z) >= f.offset for f in p.facets)
    ]


def literal_column_search(p):
    """Column vectors straight from the definition, no pruning at all.

    Tries every difference of lattice points against every facet, with
    each facet's points read from its inequality.
    """
    pts = p.lattice_points
    pset = set(pts)
    on = [set(facet_points(p, f)) for f in p.facets]
    found = []
    for v in sorted({vec_sub(y, x) for x in pts for y in pts if y != x}):
        bases = []
        for i, s in enumerate(on):
            if all(
                vec_add(x, v) in pset
                for x in pts
                if x not in s
            ):
                bases.append(i)
        if len(bases) == 1:
            found.append((v, bases[0]))
        elif len(bases) > 1:
            raise AssertionError(f"non-unique base facet for {v}")
    return found


def literal_product_table(p):
    """(columns, rows) of Col(P) and its partial product, from the
    definitions: a column's base is the one facet holding every lattice
    point the column shifts out of P, and u*v exists when no lattice point
    off the base of u is shifted by u onto the base of v.

    Columns are (vector, base) pairs in sorted order; rows hold the same
    entries as ``product_table(p).rows``: the index of u*v, or None.  Facet
    point sets come from the facet inequalities, not from the polytope's
    height matrix.  A product whose sum is not a column raises.
    """
    pts = p.lattice_points
    pset = set(pts)
    on = [frozenset(facet_points(p, f)) for f in p.facets]
    cols = []
    for v in sorted({vec_sub(y, x) for x in pts for y in pts if y != x}):
        stuck = {x for x in pts if vec_add(x, v) not in pset}
        bases = [i for i, s in enumerate(on) if stuck <= s]
        if len(bases) > 1:
            raise AssertionError(f"non-unique base facet for {v}")
        if bases:
            cols.append((v, bases[0]))
    index = {v: i for i, (v, _) in enumerate(cols)}
    off_facet = [[x for x in pts if x not in s] for s in on]
    rows = []
    for u, base_u in cols:
        row = []
        for v, base_v in cols:
            s = vec_add(u, v)
            if not any(s) or any(
                vec_add(x, u) in on[base_v] for x in off_facet[base_u]
            ):
                row.append(None)
            elif s in index:
                row.append(index[s])
            else:
                raise AssertionError(f"product {u}*{v} exists but is not a column")
        rows.append(row)
    return cols, rows


def linear_image(p, u):
    """Image of P under an integer matrix (tuple of rows) acting on points."""
    return Polytope([mat_vec(u, v) for v in p.vertices], len(u), name=p.name)


def random_unimodular_matrix(n, rng, shears=6, size=5):
    """Seeded element of GL_n(Z): elementary shears, then a signed
    permutation of the rows."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-size, size)
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    signed_rows = []
    for r in rng.sample(range(n), n):
        sign = rng.choice((1, -1))
        signed_rows.append(tuple(sign * x for x in u[r]))
    return tuple(signed_rows)


def unimodular_images(p, rng, count=3):
    """``count`` images of p under seeded unimodular maps and translations,
    as they come: large coordinates, the same lattice geometry."""
    out = []
    for _ in range(count):
        n = p.ambient_dim
        u = random_unimodular_matrix(n, rng)
        shift = tuple(rng.randint(-100, 100) for _ in range(n))
        out.append(translate(linear_image(p, u), shift))
    return out


def minor_loop_is_unimodular_simplex(p):
    """The gcd of the maximal minors of the edges at the first vertex is 1,
    one determinant per set of columns, stopping at gcd 1."""
    v0 = p.vertices[0]
    diffs = [vec_sub(v, v0) for v in p.vertices[1:]]
    g = 0
    for colset in itertools.combinations(range(p.ambient_dim), len(diffs)):
        g = gcd(g, det_int([[row[c] for c in colset] for row in diffs]))
        if g == 1:
            return True
    return False


def sheared_images(p, rng, count=3):
    """``count`` normalized images of p under seeded unimodular maps and
    translations: large coordinates, the same column structure."""
    return [normalize_full_dim(q)[0] for q in unimodular_images(p, rng, count)]


def gram_inverse_chart(p):
    """(chart, denominator): the map of P's points onto the points of its
    normalized model by the Gram left inverse, the way ``normalize_full_dim``
    once computed it.

    A normalized P keeps its coordinates.  Otherwise, with B the r x n
    Hermite basis of the differences of L_P from its least point x0 and
    G = B B^T, x -> G^-1 B (x - x0) is exact on x0 + rowspan(B), which holds
    L_P; it is carried as the integer matrix adj(G) B over det(G), both
    divided by the gcd of all entries.  A remainder fails an assertion.
    """
    if p.is_normalized:
        return (lambda x: tuple(x)), 1
    pts = p.lattice_points
    x0 = pts[0]
    h, _ = hermite_normal_form([vec_sub(z, x0) for z in pts[1:]])
    basis = [r for r in h if any(r)]
    gram_inv, det = mat_inverse_frac(mat_mul(basis, transpose(basis)))
    num = mat_mul(gram_inv, basis)
    g = gcd(det, *(x for row in num for x in row))
    matrix = [[x // g for x in row] for row in num]
    d = det // g

    def chart(x):
        out = []
        for row in matrix:
            c, rem = divmod(dot(row, vec_sub(x, x0)), d)
            assert rem == 0, (x, p.vertices)
            out.append(c)
        return tuple(out)

    return chart, d


def rational_solve(m, rhs):
    """Solve m @ x = rhs by Gaussian elimination over Q; a Fraction tuple
    (free unknowns set to 0) or None when the system has no solution."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return tuple(x)


def adjugate_int(m):
    """Adjugate of a square integer matrix by cofactors: m @ adj = det * I."""
    n = len(m)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    return tuple(tuple(r) for r in adj)


def rational_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rank_loop_basis(rows, limit):
    """Indices of the greedy first basis of the rows, ranking every
    candidate basis from scratch."""
    basis_idx = []
    basis = []
    for i, r in enumerate(rows):
        if rational_rank(basis + [r]) > len(basis):
            basis_idx.append(i)
            basis.append(r)
        if len(basis) == limit:
            break
    return basis_idx


def random_normalized_polytopes(seed, count, dims=(2, 3)):
    """Seeded small random polytopes, normalized, split across dimensions."""
    rng = random.Random(seed)
    boxes = {2: 4, 3: 3, 4: 2}
    counts = {2: 4, 3: 5, 4: 5}
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        box = boxes[dim]
        k = rng.randint(dim + 1, dim + counts[dim])
        pts = [
            tuple(rng.randint(0, box) for _ in range(dim)) for _ in range(k)
        ]
        p = polytope_from_points(pts)
        if p.dim != dim:
            continue
        q, _ = normalize_full_dim(p)
        out.append(q)
    return out


def brute_force_polygon_equivalent(p_vertices, q_vertices):
    """Integral-affine equivalence of two lattice polygons by exhaustion.

    A fixed affine basis (v0, v1, v2) of P's vertices is sent to every
    ordered vertex triple (w0, w1, w2) of Q; the polygons are equivalent iff
    one of these affine maps is integral, unimodular and carries P's vertex
    set onto Q's.
    """
    ps = sorted(set(map(tuple, p_vertices)))
    qs = set(map(tuple, q_vertices))
    if len(ps) != len(qs):
        return False

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    v0, v1 = ps[0], ps[1]
    a = sub(v1, v0)
    v2 = next(v for v in ps[2:] if a[0] * sub(v, v0)[1] - a[1] * sub(v, v0)[0])
    b = sub(v2, v0)
    det = a[0] * b[1] - a[1] * b[0]
    for w0, w1, w2 in itertools.permutations(qs, 3):
        c, d = sub(w1, w0), sub(w2, w0)
        # U with U a = c and U b = d is [c d] [a b]^-1
        scaled = (
            c[0] * b[1] - d[0] * a[1], d[0] * a[0] - c[0] * b[0],
            c[1] * b[1] - d[1] * a[1], d[1] * a[0] - c[1] * b[0],
        )
        if any(x % det for x in scaled):
            continue
        u00, u01, u10, u11 = (x // det for x in scaled)
        if abs(u00 * u11 - u01 * u10) != 1:
            continue
        image = set()
        for v in ps:
            x, y = sub(v, v0)
            image.add((w0[0] + u00 * x + u01 * y, w0[1] + u10 * x + u11 * y))
        if image == qs:
            return True
    return False


def unpruned_lattice_equivalences(p, q):
    """Every lattice-affine bijection carrying the full-dimensional P onto
    Q, in search order: the first affinely spanning tuple of P's vertices,
    in vertex order, is sent to every ordered vertex tuple of Q in turn."""
    v0, *rest = p.vertices
    idx = rank_loop_basis([vec_sub(v, v0) for v in rest], p.ambient_dim)
    frame_map = unimodular_frame_maps((v0,) + tuple(rest[i] for i in idx))
    q_vert_set = set(q.vertices)
    maps = []
    for image in itertools.permutations(q.vertices, p.ambient_dim + 1):
        amap = frame_map(image)
        if amap is not None and {amap.apply(v) for v in p.vertices} == q_vert_set:
            maps.append(amap)
    return maps


def rank_vertex_adjacency(p):
    """{vertex: its edge neighbours in vertex order} of a full-dimensional
    P, by rank: u and w span an edge iff the facets through both have rank
    n - 1."""
    n = p.ambient_dim
    active = {
        v: [f.normal for f in p.facets if dot(f.normal, v) == f.offset]
        for v in p.vertices
    }
    adj = {v: [] for v in p.vertices}
    for u, w in itertools.combinations(p.vertices, 2):
        common = [a for a in active[u] if a in active[w]]
        if len(common) >= n - 1 and rational_rank(common) == n - 1:
            adj[u].append(w)
            adj[w].append(u)
    return adj


def projectively_equivalent(p, q):
    """Equality of normal fans, via facet normals plus incidence matching."""
    if p.ambient_dim != q.ambient_dim:
        return False
    if not (p.is_full_dimensional and q.is_full_dimensional):
        raise ValueError("projective equivalence requires full-dimensional input")
    if set(f.normal for f in p.facets) != set(f.normal for f in q.facets):
        return False
    if len(p.vertices) != len(q.vertices):
        return False
    p_incidence = {
        frozenset(f.normal for f in p.facets if dot(f.normal, v) == f.offset)
        for v in p.vertices
    }
    q_incidence = {
        frozenset(f.normal for f in q.facets if dot(f.normal, v) == f.offset)
        for v in q.vertices
    }
    return p_incidence == q_incidence


def fan_witness(p, ref):
    """A unimodular matrix carrying the fan of p onto the fan of ref.

    Fan equality matches vertex tangent cones, so the matrix is pinned by
    sending the edge directions at one vertex of p to the edge directions
    at some vertex of ref; all images are tried.
    """
    cyc_p = polygon_cycle(p)
    cyc_r = polygon_cycle(ref)
    if len(cyc_p) != len(cyc_r):
        return None

    def edge_dirs(cyc, i):
        v = cyc[i]
        prev = cyc[i - 1]
        nxt = cyc[(i + 1) % len(cyc)]
        return primitive_part(vec_sub(prev, v)), primitive_part(vec_sub(nxt, v))

    frame_map = unimodular_frame_maps(((0, 0),) + edge_dirs(cyc_p, 0))
    for i in range(len(cyc_r)):
        e1, e2 = edge_dirs(cyc_r, i)
        for image in (((0, 0), e1, e2), ((0, 0), e2, e1)):
            amap = frame_map(image)
            if amap is not None and projectively_equivalent(
                linear_image(p, amap.matrix), ref
            ):
                return amap.matrix
    return None


def frame_forms(cyc):
    """The form of each of the 2m frames of a polygon's vertex cycle, in the
    sense of ``polygon_normal_form``; the least of them is the normal form."""
    m = len(cyc)
    forms = []
    for i, v in enumerate(cyc):
        rel = [vec_sub(w, v) for w in cyc]
        for a, b in ((rel[(i + 1) % m], rel[i - 1]), (rel[i - 1], rel[(i + 1) % m])):
            u = _frame_matrix(a, b, extended_gcd(*a))
            forms.append(tuple(sorted(mat_vec(u, z) for z in rel)))
    return forms


def all_frames_cycle_normal_form(cyc):
    """``cycle_normal_form`` by sorting the images under all 2m frames."""
    return min(frame_forms(cyc))


def conjugation_normal(group, subgroup):
    """Whether the permutation ``subgroup`` is normal in ``group``, by
    conjugating every element of it by every element of the group."""

    def compose(a, b):  # b first, then a
        return tuple(a[i] for i in b)

    def inverse(a):
        return tuple(sorted(range(len(a)), key=a.__getitem__))

    return all(
        compose(compose(g, h), inverse(g)) in subgroup
        for g in group
        for h in subgroup
    )


def recursive_sp_membership(p, z, degree, memo=None):
    """Is (z, degree) a sum of ``degree`` lattice points of P?

    Recursion on the last summand, with a pre-test that z lies in degree*P;
    ``memo`` may be shared by calls on one polytope.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    memo = {} if memo is None else memo

    def rec(z, d):
        if d == 0:
            return not any(z)
        if d == 1:
            return z in p.point_index
        key = (z, d)
        if key not in memo:
            memo[key] = all(
                dot(a, z) >= d * b for a, b in p._facet_pairs
            ) and any(rec(vec_sub(z, x), d - 1) for x in p.lattice_points)
        return memo[key]

    return rec(tuple(z), degree)


def dilation_monomials_of_degree(p, degree):
    """The lattice points of degree*P that pass ``recursive_sp_membership``."""
    if degree == 0:
        return (((0,) * p.ambient_dim, 0),)
    scaled = dilate(p, degree) if degree > 1 else p
    memo = {}
    return tuple(
        (z, degree)
        for z in scaled.lattice_points
        if recursive_sp_membership(p, z, degree, memo)
    )


def monomials_of_degree(p, degree):
    """All (z, degree) in the graded semigroup, canonically sorted, read
    from the slices behind ``algebra.sp_membership``."""
    return tuple((z, degree) for z in sorted(algebra._semigroup_slice(p, degree)))


def slice_column_property(p, col, max_degree):
    """``algebra.check_column_property`` by the semigroup slices: every
    monomial of degree 1..max_degree off the base face cone must shift by
    the column vector into the same slice.  Returns (flag, violations)."""
    table = product_table(p)
    col = table.columns[table.column(col)]
    facet = p.facets[col.base]
    violations = []
    for d in range(1, max_degree + 1):
        for z, _ in monomials_of_degree(p, d):
            off_face = dot(facet.normal, z) != d * facet.offset
            if off_face and not algebra.sp_membership(p, vec_add(z, col.vector), d):
                violations.append((z, d))
    return (not violations), violations


def dense_ring_product(ring, a, b):
    """Product of two square matrices over ``ring``, by the triple loop."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def elementary_closed_formula_image(p, col, lam, ring, z, degree):
    """Binomial image of the degree-`degree` monomial at z, as a dict.

    Independent of the column route: used to cross-check that the closed
    formula and the multiplicative degree-one action agree.
    """
    table = product_table(p)
    col = table.columns[table.index[col.vector]]
    facet = p.facets[col.base]
    h = dot(facet.normal, z) - degree * facet.offset
    out = {}
    for k in range(h + 1):
        coeff = ring.from_int(comb(h, k))
        for _ in range(k):
            coeff = coeff * lam
        out[vec_add(z, vec_scale(k, col.vector))] = coeff
    return out


def literal_steinberg_report(p, var_names=("a", "b")):
    """``algebra.verify_steinberg_relations`` by the literal commutator: the
    four-fold composite x_u(lam) x_v(mu) x_u(-lam) x_v(-mu) of every pair,
    compared with the expected shear or the identity."""
    balanced, _ = is_balanced(p)
    ring = PolynomialRing(var_names)
    lam = ring.var(var_names[0])
    mu = ring.var(var_names[1])
    table = product_table(p)
    cols = table.columns
    report = {"additivity": [], "pairs": [], "all_ok": True, "balanced": balanced}
    # the four shears of every commutator, built once per column
    by_lam, by_mu, by_neg_lam, by_neg_mu = [], [], [], []
    for u in cols:
        by_lam.append(elementary_automorphism(p, u, lam, ring))
        by_mu.append(elementary_automorphism(p, u, mu, ring))
        by_neg_lam.append(elementary_automorphism(p, u, -lam, ring))
        by_neg_mu.append(elementary_automorphism(p, u, -mu, ring))
        rhs = elementary_automorphism(p, u, lam + mu, ring)
        ok = by_lam[-1].compose(by_mu[-1]).columns == rhs.columns
        report["additivity"].append({"u": u.vector, "ok": ok})
        if not ok:
            report["all_ok"] = False
    vecs = {c.vector for c in cols}

    def commutator(i, j):
        return (by_lam[i].compose(by_mu[j]).compose(by_neg_lam[i])
                .compose(by_neg_mu[j]))

    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            s = vec_add(u.vector, v.vector)
            if not any(s):
                continue
            k = table.rows[i][j]
            if k is not None:
                w = cols[k]
                expected = elementary_automorphism(p, w, -(lam * mu), ring)
                ok = commutator(i, j).columns == expected.columns
                report["pairs"].append(
                    {"u": u.vector, "v": v.vector, "case": "product",
                     "result": w.vector, "ok": ok}
                )
                if not ok:
                    report["all_ok"] = False
            elif s not in vecs:
                ok = commutator(i, j).is_identity()
                report["pairs"].append(
                    {"u": u.vector, "v": v.vector, "case": "commute", "ok": ok}
                )
                if not ok:
                    report["all_ok"] = False
            else:
                report["pairs"].append(
                    {"u": u.vector, "v": v.vector, "case": "skipped",
                     "note": "sum is a column but the product does not exist",
                     "commutes": commutator(i, j).is_identity(), "ok": None}
                )
    return report


def composed_kronecker_base(p, u):
    """1 + the largest entry of x_u(1) x_u(1) and of x_u(2) over Z, with the
    product x_u(1) x_u(1) composed."""
    unit = elementary_automorphism(p, u, 1, ZZ)
    sides = (unit.compose(unit), elementary_automorphism(p, u, 2, ZZ))
    return 1 + max(max(col.values()) for g in sides for col in g.columns)


def literal_embedding_report(p, facet_index, grid=5):
    """``algebra.verify_additive_embedding`` with every pair of same-base
    shears commuted over Z[a0, ..., b(s-1)] and the injectivity grid
    composed over Q."""
    cols = [c for c in product_table(p).columns if c.base == facet_index]
    s = len(cols)
    report = {"facet": facet_index, "columns": [c.vector for c in cols]}
    if s < 2:
        report["status"] = "vacuous"
        report["all_ok"] = True
        return report
    names = tuple(f"a{i}" for i in range(s)) + tuple(f"b{i}" for i in range(s))
    ring = PolynomialRing(names)
    avars = [ring.var(f"a{i}") for i in range(s)]
    bvars = [ring.var(f"b{i}") for i in range(s)]

    def shears_at(values, rng):
        return [elementary_automorphism(p, c, t, rng) for c, t in zip(cols, values)]

    def phi(factors, rng):
        out = identity_automorphism(p, rng)
        for e in factors:
            out = out.compose(e)
        return out

    shears = shears_at(avars, ring)
    report["pairwise_commute"] = all(
        ei.compose(ej).columns == ej.compose(ei).columns
        for ei, ej in itertools.combinations(shears, 2)
    )
    lhs = phi(shears_at([a + b for a, b in zip(avars, bvars)], ring), ring)
    rhs = phi(shears, ring).compose(phi(shears_at(bvars, ring), ring))
    report["homomorphism"] = lhs.columns == rhs.columns
    points = [(i, j) + (0,) * (s - 2) for i in range(grid) for j in range(grid)]
    images = {
        phi(shears_at([Fraction(t) for t in pt], QQ), QQ) for pt in points
    }
    report["grid_points"] = len(points)
    report["distinct_images"] = len(images)
    report["injective_on_grid"] = len(images) == len(points)
    report["all_ok"] = (report["pairwise_commute"] and report["homomorphism"]
                        and report["injective_on_grid"])
    return report


def unpruned_enumerate_polygons(box):
    """``scan.enumerate_polygons`` without its closing-cone pruning: every
    direction is tried at every step, and a path is kept only if it is back
    at the origin after the last direction."""
    dirs = _directions(box)
    path = [(0, 0)]
    polys = []

    def rec(i, edges_used):
        cur = path[-1]
        if i == len(dirs):
            xs = [x for x, _ in path]
            ys = [y for _, y in path]
            if cur == (0, 0) and edges_used >= 3:
                polys.append(tuple((x - min(xs), y - min(ys)) for x, y in path[:-1]))
            return
        rec(i + 1, edges_used)
        dx, dy = dirs[i]
        k = 1
        while True:
            path.append((cur[0] + k * dx, cur[1] + k * dy))
            xs = [x for x, _ in path]
            ys = [y for _, y in path]
            if max(xs) - min(xs) > box or max(ys) - min(ys) > box:
                path.pop()
                break
            rec(i + 1, edges_used + 1)
            path.pop()
            k += 1

    rec(0, 0)
    return polys


def box_symmetry_orbits(cycles):
    """Orbits of the polygons ``cycles`` under the eight signed permutation
    matrices, each image translated back to min x = min y = 0: a set of
    orbits, each a frozenset of vertex frozensets."""
    mats = [
        [[s * (c == r) for c in range(2)] for r, s in zip(perm, signs)]
        for perm in itertools.permutations(range(2))
        for signs in itertools.product((1, -1), repeat=2)
    ]
    orbits = set()
    for cycle in cycles:
        orbit = set()
        for u in mats:
            image = [mat_vec(u, v) for v in cycle]
            lo = [min(z[i] for z in image) for i in range(2)]
            orbit.add(frozenset(tuple(vec_sub(z, lo)) for z in image))
        orbits.add(frozenset(orbit))
    return orbits


def per_polygon_scan(box, seed=0, sample_rate=0.01):
    """``scan.scan_polygons`` polygon by polygon: a polytope, balancedness
    and Col-divisibility for every enumerated polygon, dedupe of the
    balanced ones by normal form afterwards."""
    cycles = enumerate_polygons(box)
    balanced_polys = []
    for cycle in cycles:
        p = polytope_from_points(cycle)
        flag, _ = is_balanced(p)
        if flag:
            balanced_polys.append(p)

    divisibility_failures = []
    for p in balanced_polys:
        ok, wit = is_col_divisible(p)
        if not ok:
            divisibility_failures.append(
                {"vertices": [list(v) for v in p.vertices], "witness": repr(wit)}
            )

    reps = {}
    for p in sorted(balanced_polys, key=lambda q: q.vertices):
        reps.setdefault(polygon_normal_form(p), p)
    class_reps = list(reps.values())

    per_class = {}
    witnesses = {}
    unclassified = []
    for p in class_reps:
        try:
            cls = classify_balanced_polygon(p)
        except UnclassifiablePolygonError as exc:
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
        "polygons_up_to_translation": len(cycles),
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


def weak_product(p, vs):
    """Product of a sequence under some bracketing, or None.

    The value never depends on the bracketing (it is the plain sum), so only
    existence is searched, by interval dynamic programming.
    """
    table = product_table(p)
    idx = [table.column(v) for v in vs]
    if not idx:
        raise ValueError("empty sequence")
    n = len(idx)
    memo = {}

    def exists(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == j:
            memo[(i, j)] = idx[i]
            return idx[i]
        result = None
        for k in range(i, j):
            left = exists(i, k)
            if left is None:
                continue
            right = exists(k + 1, j)
            if right is None:
                continue
            result = table.rows[left][right]
            if result is not None:
                break
        memo[(i, j)] = result
        return result

    k = exists(0, n - 1)
    return table.columns[k] if k is not None else None


def check_k_morphism(p, q, mapping):
    """Check compatibility of a map Col(P) -> Col(Q).

    Condition one: base-facet pairings are preserved exactly; condition two:
    existing products map to existing products.  Returns (flag, violations).
    """
    tp = product_table(p)
    tq = product_table(q)
    mu = {}
    for src, dst in mapping.items():
        mu[tp.column(src)] = tq.column(dst)
    if set(mu) != set(range(len(tp.columns))):
        raise ValueError("mapping must be total on Col(P)")
    violations = []
    for w, v in itertools.product(range(len(tp.columns)), repeat=2):
        lhs = tp.columns[v].heights[tp.columns[w].base]
        rhs = tq.columns[mu[v]].heights[tq.columns[mu[w]].base]
        if lhs != rhs:
            violations.append(
                ("pairing", tp.columns[w], tp.columns[v], lhs, rhs)
            )
    for (i, j, k) in tp.products:
        if tq.rows[mu[i]][mu[j]] != mu[k]:
            violations.append(
                ("product", tp.columns[i], tp.columns[j], tp.columns[k])
            )
    return (not violations), violations


def degree_consistency_violations(auto, max_degree=3):
    """Check the degree-one action extends to a well-defined graded map.

    Monomial multisets of equal coordinate sum must receive equal images up
    to the degree bound.  Passing is necessary for automorphy, not a proof;
    every generator built here is an automorphism on theoretical grounds.
    """
    p = auto.polytope
    pts = p.lattice_points
    violations = []
    for d in range(2, max_degree + 1):
        groups = {}
        for combo in itertools.combinations_with_replacement(range(len(pts)), d):
            total = pts[combo[0]]
            for i in combo[1:]:
                total = vec_add(total, pts[i])
            groups.setdefault(total, []).append(combo)
        for total, combos in groups.items():
            if len(combos) < 2:
                continue
            images = [
                _multiset_image(auto, combo) for combo in combos
            ]
            for other in images[1:]:
                if other != images[0]:
                    violations.append((total, d))
                    break
    return violations


def _multiset_image(auto, combo):
    """Image of a product of degree-one monomials, as a dict point -> coeff."""
    pts = auto.polytope.lattice_points
    zero = auto.ring.zero
    current = {(0,) * auto.polytope.ambient_dim: auto.ring.one}
    for i in combo:
        col = [(pts[r], c) for r, c in auto.columns[i].items()]
        nxt = {}
        for z, c in current.items():
            for x, cx in col:
                key = vec_add(z, x)
                nxt[key] = nxt.get(key, zero) + c * cx
        current = {k: v for k, v in nxt.items() if v}
    return current


# ---------------------------------------------------------------------------
# rigidity by search


class RigidUnknown(NamedTuple):
    reason: str


_FALLBACK_CAP = 50000


def coarsening_search_is_rigid(p, vectors):
    """Rigidity by a capped search over coarsenings of the port partition.

    Checks the negation-free and hull-equality clauses directly, then
    builds the forced graph whose edges are the irreducible elements of the
    strict hull, with head-tail gluing exactly where products exist.  Extra
    endpoint identifications (head-head or tail-tail) are the only freedom
    any valid graph has, so a bounded enumeration of those coarsenings is a
    complete fallback; Unknown appears only if that enumeration is cut off.
    """
    table = product_table(p)
    hull = strict_hull(p, vectors)
    hull_vecs = {c.vector for c in hull}
    for c in hull:
        if vec_neg(c.vector) in hull_vecs:
            return NotRigid("strict hull contains a vector and its negative", c)
    wh = weak_hull(p, vectors)
    if wh != hull:
        return NotRigid("strict hull differs from weak hull",
                        tuple(sorted(c.vector for c in wh ^ hull)))

    elems = sorted(hull, key=lambda c: c.vector)
    eidx = {c: i for i, c in enumerate(elems)}

    prods = {}
    for a in elems:
        for b in elems:
            r = table.product_of(a, b)
            if r is not None:
                if r not in eidx:
                    return NotRigid("products escape the hull", (a, b, r))
                prods[(a, b)] = r
    reducible = set(prods.values())
    irreducibles = [c for c in elems if c not in reducible]

    # forced gluing of ports: head(e) ~ tail(f) exactly when e*f exists
    ports = [(c, "t") for c in irreducibles] + [(c, "h") for c in irreducibles]
    parent = {pt: pt for pt in ports}

    for e in irreducibles:
        for f in irreducibles:
            if (e, f) in prods:
                parent[_find(parent, (e, "h"))] = _find(parent, (f, "t"))

    outcome = _try_graph(elems, irreducibles, prods, parent, ports)
    if outcome is not None:
        return outcome
    # fallback: enumerate legal extra gluings of the forced partition
    return _coarsening_search(elems, irreducibles, prods, parent, ports)


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _build_graph(irreducibles, class_of):
    verts = tuple(sorted({class_of[(c, "t")] for c in irreducibles}
                         | {class_of[(c, "h")] for c in irreducibles}))
    edges = tuple((class_of[(c, "t")], class_of[(c, "h")]) for c in irreducibles)
    return DirectedGraph(verts, edges)


def _try_graph(elems, irreducibles, prods, parent, ports):
    """Verify the candidate graph induced by a port partition.

    Returns Rigid, NotRigid for defects no coarsening can repair, or None
    when only extra endpoint identifications might still help.
    """
    class_of = {pt: f"n{sorted(ports).index(_find(parent, pt))}" for pt in ports}
    graph = _build_graph(irreducibles, class_of)
    defect = graph.check_conditions()
    if defect is not None:
        return NotRigid(f"forced graph defect: {defect}", graph)

    label = _label_elements(elems, irreducibles, prods, graph, class_of)
    if label is None:
        return None  # endpoint mismatch; coarsening might reconcile
    ok, why = _verify_labeling(elems, prods, graph, label)
    if ok:
        cert = RigidCertificate(graph, tuple(sorted(
            (c.vector, label[c]) for c in elems
        )))
        return Rigid(cert)
    if why == "composable pair without product":
        return NotRigid(why, graph)
    return None


def _label_elements(elems, irreducibles, prods, graph, class_of):
    label = {}
    for c in irreducibles:
        label[c] = (class_of[(c, "t")], class_of[(c, "h")])
    remaining = [c for c in elems if c not in label]
    # peel off products whose factors are already labeled
    changed = True
    while remaining and changed:
        changed = False
        for c in list(remaining):
            endpoints = set()
            for (a, b), r in prods.items():
                if r == c and a in label and b in label:
                    if label[a][1] != label[b][0]:
                        return None
                    endpoints.add((label[a][0], label[b][1]))
            if len(endpoints) > 1:
                return None
            if endpoints:
                label[c] = endpoints.pop()
                remaining.remove(c)
                changed = True
    if remaining:
        return None
    return label


def _verify_labeling(elems, prods, graph, label):
    classes = graph.path_classes()
    values = set(label.values())
    if values != classes or len(values) != len(elems):
        return False, "labeling is not a bijection onto path classes"
    for a in elems:
        for b in elems:
            composable = label[a][1] == label[b][0]
            r = prods.get((a, b))
            if (r is not None) != composable:
                if composable:
                    return False, "composable pair without product"
                return False, "product without composability"
            if r is not None and label[r] != (label[a][0], label[b][1]):
                return False, "product labels do not compose"
    return True, None


def _coarsening_search(elems, irreducibles, prods, parent, ports):
    base_classes = {}
    for pt in ports:
        base_classes.setdefault(_find(parent, pt), []).append(pt)
    blocks = [tuple(sorted(v)) for v in base_classes.values()]
    blocks.sort()

    def heads(block):
        return any(kind == "h" for _, kind in block)

    def tails(block):
        return any(kind == "t" for _, kind in block)

    # enumerate partitions coarser than the forced one such that no merge
    # ever brings a new head together with a new tail
    seen = 0
    stack = [tuple(blocks)]
    visited = {tuple(blocks)}
    while stack:
        current = stack.pop()
        seen += 1
        if seen > _FALLBACK_CAP:
            return RigidUnknown("coarsening search cap exceeded")
        merged_parent = {}
        for block in current:
            for pt in block:
                merged_parent[pt] = block[0]
        outcome = _try_graph(elems, irreducibles, prods, merged_parent, ports)
        if isinstance(outcome, Rigid):
            return outcome
        for i, j in itertools.combinations(range(len(current)), 2):
            a, b = current[i], current[j]
            if (heads(a) and tails(b)) or (heads(b) and tails(a)):
                continue
            merged = tuple(sorted(
                [blk for k, blk in enumerate(current) if k not in (i, j)]
                + [tuple(sorted(a + b))]
            ))
            if merged not in visited:
                visited.add(merged)
                stack.append(merged)
    return NotRigid("no compatible graph exists", None)


_I64 = 2**63


def json_safe(obj):
    """A copy of a report that ``json.dumps`` takes: str keys, and ints
    with |n| >= 2^63 as decimal strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _I64 else obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(x) for x in obj]
    raise TypeError(f"not JSON-serializable: {obj!r}")


def json_dumps_report(data):
    """Report JSON through the json module: sorted keys, two-space indent."""
    return json.dumps(json_safe(data), sort_keys=True, indent=2) + "\n"


def argparse_parser():
    """The CLI's argument parser as argparse builds it, the oracle for
    ``cli.parse_args``: its namespaces and its errors."""
    parser = argparse.ArgumentParser(
        prog="polycol",
        description="Exact column-structure computations on lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("input", help="polytope JSON file, or - for stdin")
        sp.add_argument("-o", "--output", default=None, help="output file")

    sp = sub.add_parser("analyze", help="full structural report")
    add_io(sp)
    sp.set_defaults(func=cli.cmd_analyze)

    sp = sub.add_parser("scan-polygons", help="exhaustive polygon scan")
    sp.add_argument("--box", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sample-rate", type=float, default=0.01)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cli.cmd_scan)

    sp = sub.add_parser("verify", help="run a verification suite")
    add_io(sp)
    sp.add_argument(
        "--which",
        required=True,
        choices=["steinberg", "embedding", "heights", "columns-property", "doubling"],
    )
    sp.set_defaults(func=cli.cmd_verify)

    sp = sub.add_parser("export", help="machine-readable exports")
    add_io(sp)
    sp.add_argument(
        "--what",
        required=True,
        choices=["dot", "presentation", "presentation-json", "fan", "columns-json"],
    )
    sp.add_argument("--modulus", type=int, default=None)
    sp.set_defaults(func=cli.cmd_export)

    sp = sub.add_parser("spectrum", help="FIFO doubling chain report")
    add_io(sp)
    sp.add_argument("--steps", type=int, default=5)
    sp.set_defaults(func=cli.cmd_spectrum)

    return parser
