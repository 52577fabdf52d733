"""Independent oracles used to cross-check the production algorithms.

Everything here is deliberately brute force and shares no code path with
the implementations under test.
"""

import itertools
import random
from math import gcd

from polycol.exactmath import dot, vec_add, vec_sub
from polycol.polytopes import normalize_full_dim, polytope_from_points


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


def literal_column_search(p):
    """Column vectors straight from the definition, no pruning at all.

    Tries every difference of lattice points against every facet.
    """
    pts = p.lattice_points
    pset = p.lattice_set
    facets = p.facets
    found = []
    for v in sorted({vec_sub(y, x) for x in pts for y in pts if y != x}):
        bases = []
        for i, f in enumerate(facets):
            if all(
                vec_add(x, v) in pset
                for x in pts
                if x not in f.points_on
            ):
                bases.append(i)
        if len(bases) == 1:
            found.append((v, bases[0]))
        elif len(bases) > 1:
            raise AssertionError(f"non-unique base facet for {v}")
    return found


def random_normalized_polytopes(seed, count, dims=(2, 3)):
    """Seeded small random polytopes, normalized, split across dimensions."""
    rng = random.Random(seed)
    boxes = {2: 4, 3: 3}
    counts = {2: 4, 3: 5}
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
