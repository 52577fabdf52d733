"""Column structures of a lattice polytope.

A nonzero integer vector v is a column vector when some facet F exists such
that every lattice point off F is carried back into the polytope by v; that
facet is the (unique) base facet.  This module computes the set of column
vectors, the partial product, strict and weak hulls, balancedness,
Col-divisibility, the classification of balanced polygons and rigid systems
of column vectors.

All operations require a normalized full-dimensional polytope: with the
lattice points affinely generating the ambient lattice, the base-facet form
evaluates to exactly -1 on its column vectors, which keeps the
polytopal-algebra shears well defined and bounds the search: a column with
base F carries a lattice point at height 1 over F onto F, so the candidates
for F are the differences y - x0 from one such point x0 to the points y of
F.

Both the base test and the product test are sign tests on c_G, the height
of a vector over facet G; a candidate carries these from H[G][i], the
height of lattice point i over G (``p.facet_heights``).  Two facts on
M[F][G], the least height over G of a lattice point off F, make them so.

(1) M[F][G] = 0 for G != F.  Distinct facets do not contain one another,
so G has a vertex off F, a lattice point at height 0 over G, and no point
of P lies below G.

(2) A column v with base F has c_F = -M[F][F].  If c_F >= 0, the points
off F would shift off F again and again, but P is bounded and v != 0.  If
-M[F][F] < c_F < 0, a lowest point off F would shift to a lower point off
F.  And c_F >= -M[F][F], as the lowest point shifts into P.

A lattice point x lies in P iff H[G][x] >= 0 for every G, so x + v does iff
H[G][x] + c_G >= 0 for every G, and v has base F exactly when
M[F][G] + c_G >= 0 for every G.  By (1), exactly when c_G >= 0 for every
G != F and c_F >= -M[F][F]; by (2) then c_F < 0, so F is the only facet
of negative height under v.  Likewise u*v exists exactly when u + v != 0
and no point x + u, x off the base F_u of u, lies on the base F_v of v,
that is when M[F_u][F_v] + c > 0 for c the height of u over F_v.  By (2)
that sum is 0 when F_v = F_u, so same-base products never exist; by (1)
it is c when F_v != F_u.  As u has negative height over F_u, u*v exists
exactly when u has positive height over F_v and v != -u.

So Col(P) is read off the facet normals alone: v is a column with base F
exactly when c_F = -1 and c_G >= 0 for every G != F, the Demazure roots of
P's normal fan.  In the plane these are found in closed form, with no
lattice point (``column_vectors``); in higher dimension the pruned lattice
search finds them.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import add, sub
from typing import NamedTuple, Optional

from .exactmath import (
    dot,
    extended_gcd,
    vec_add,
    vec_neg,
    vec_sub,
)
from .polytopes import (
    InternalCheckError,
    fan_normal_form,
    polygon_normal_form,
)


class ColumnVector(NamedTuple):
    vector: tuple
    base: int  # index into the polytope's facet list
    heights: tuple = ()  # normal_G . vector for every facet G, in facet order

    def __repr__(self):
        return f"Col({self.vector}, base={self.base})"


def column_vectors(p, pruned=True):
    """All column vectors of p with their base facets, canonically sorted.

    With ``pruned`` (the default) the candidates for a facet F are the
    vectors y - x0 over the lattice points y of F, for one lattice point x0
    at height exactly 1 over F; a facet without such a point is skipped.
    This loses no column: a column v with base F has height -1 over F on
    normalized input, so x0 + v lies in P at height 0, that is on F; and
    shifting any point off F by v again and again passes through height 1.
    Each candidate comes with its heights c_G = H[G][y] - H[G][x0] over
    every facet G (H is ``p.facet_heights``), and its base is its only
    facet of negative height, when it has just one: by the module
    docstring, v has base F exactly when c_G >= 0 for every G != F and
    c_F >= -M[F][F], and a candidate for F has c_F = -1 while M[F][F] >= 1.

    A polygon (ambient dimension 2; every lattice polygon is normalized)
    takes that rule in closed form, from its edge normals and with no
    lattice point.  For an edge F with primitive inner normal n = (a, b),
    ``extended_gcd`` gives v0 with n . v0 = -1, and the solutions of
    n . v = -1 are v0 + t e, e = (-b, a).  Every other edge G bounds t
    through n_G . v0 + t (n_G . e) >= 0, by exact floor or ceiling
    division where n_G . e != 0 (it is 0 only for n_G = -n, at height 1).
    The interval is bounded, since the inner normals of a polygon
    positively span R^2 and so some n_G . e are positive and some
    negative.  Each t in it is a column with base F and heights
    c_G = n_G . v0 + t (n_G . e), and the columns are sorted by vector.

    Without ``pruned`` every difference of two lattice points is a
    candidate, and each is checked literally, by shifting every lattice
    point and looking the result up; ``verify --which heights`` uses this
    slow path to double-check the pruning and the sign rule.  Callers
    that only need Col(P) read ``product_table(p).columns``, which searches
    once per polytope object.
    """
    if not p.is_normalized:
        raise ValueError(
            "column structures need a normalized full-dimensional polytope"
        )
    if p.dim < 1:
        raise ValueError("column vectors need dimension >= 1")
    if not pruned:
        found = _literal_bases(p)
    elif p.ambient_dim == 2:
        found = _polygon_roots(p)
    else:
        found = _min_height_bases(p)
    out = []
    for v, heights, bases in found:
        if not bases:
            continue
        if len(bases) > 1:
            raise InternalCheckError(f"column vector {v} has several base facets")
        base = bases[0]
        if heights[base] != -1:
            raise InternalCheckError(
                f"column vector {v} has base height != -1 on normalized input"
            )
        out.append(ColumnVector(v, base, heights))
    return tuple(out)


def _polygon_roots(p):
    """(v, heights, [base]) for the roots of a polygon's edge normals, in
    sorted order, with no lattice point: see ``column_vectors``."""
    normals = [normal for normal, _ in p._facet_pairs]
    roots = []
    for f, (a, b) in enumerate(normals):
        _, x, y = extended_gcd(a, b)
        # (n_G . v0, n_G . e) over every edge G, for v0 = (-x, -y) and
        # e = (-b, a); c + t d >= 0 reads t >= ceil(-c / d) for d > 0 and
        # t <= floor(c / -d) for d < 0
        pairs = [(-m0 * x - m1 * y, m1 * a - m0 * b) for m0, m1 in normals]
        lo = max([-(c // d) for c, d in pairs if d > 0])
        hi = min([c // -d for c, d in pairs if d < 0])
        for t in range(lo, hi + 1):
            roots.append(((-x - t * b, -y + t * a),
                          tuple([c + t * d for c, d in pairs]), [f]))
    roots.sort()
    return roots


def _min_height_bases(p):
    """(v, heights, bases) for the pruned candidates, in sorted order, with
    the base decided by the signs of the heights."""
    pts = p.lattice_points
    facet_heights = p.facet_heights
    point_heights = tuple(zip(*facet_heights))
    cands = {}
    for f, row in zip(p.facets, facet_heights):
        i0 = next((i for i, h in enumerate(row) if h == 1), None)
        if i0 is None:
            continue
        x0, h0 = pts[i0], point_heights[i0]
        for j in f.on_facet:
            v = vec_sub(pts[j], x0)
            if v not in cands:
                cands[v] = vec_sub(point_heights[j], h0)
    for v in sorted(cands):
        heights = cands[v]
        negative = [g for g, h in enumerate(heights) if h < 0]
        if not negative:
            raise InternalCheckError(
                f"{v} shifts every lattice point inside a bounded polytope"
            )
        yield v, heights, negative if len(negative) == 1 else []


def _literal_bases(p):
    """(v, heights, bases) for every lattice-point difference, in sorted
    order, with the bases decided by shifting every lattice point: a base
    holds every point v shifts out of P, so the bases are the bits of the
    AND of those points' facet bitmasks, and the walk stops once it is 0.
    Interior points, of mask 0, are walked first, so a stuck one stops it
    at once."""
    pts = p.lattice_points
    index = p.point_index
    facets = p.facets
    masks = [sum(1 << g for g, h in enumerate(col) if h == 0)
             for col in zip(*p.facet_heights)]
    walk = sorted(zip(pts, masks), key=lambda item: item[1] != 0)
    for v in sorted({tuple(map(sub, y, x)) for x in pts for y in pts if y != x}):
        common = -1  # every facet, until some point is stuck
        for x, mask in walk:
            if tuple(map(add, x, v)) not in index:
                common &= mask
                if not common:
                    break
        if common == -1:
            raise InternalCheckError(
                f"{v} shifts every lattice point inside a bounded polytope"
            )
        bases = [g for g in range(len(facets)) if common >> g & 1]
        heights = tuple(dot(f.normal, v) for f in facets) if bases else None
        yield v, heights, bases


class ProductTable:
    """The finite partial product on Col(P).

    ``rows[i][j]`` is the index k of the column u_i*u_j when that product
    exists, and None otherwise (u + (-u) included), at one pointer per
    entry: a table stays in memory for as long as its polytope does.
    ``products`` lists the triples (i, j, k) of the products, in row order.
    """

    def __init__(self, columns, index, rows, products):
        self.columns = columns
        self.index = index
        self.rows = rows
        self.products = products

    def column(self, v):
        """The index of a column, given as a ColumnVector or a vector."""
        vec = v.vector if isinstance(v, ColumnVector) else tuple(v)
        i = self.index.get(vec)
        if i is None:
            raise ValueError(f"{vec} is not a column vector of this polytope")
        return i

    def product_of(self, u, v):
        """The column u*v for two columns of this table, or None."""
        k = self.rows[self.index[u.vector]][self.index[v.vector]]
        return None if k is None else self.columns[k]

    def pair_cases(self):
        """(i, j, case, k) for every ordered pair of columns with a nonzero
        sum, in row order: the commutator case of x_{u_i} and x_{u_j}.

        ``case`` is "product" when u_i*u_j exists (k is its index), so the
        commutator is the shear along the product; "commute" when the sum is
        not a column, so the shears commute; and "skipped" when the sum is a
        column without a product, which neither case covers.  k is None for
        the last two.

        A skipped pair has the product v*u (the mirror lemma).  w = u + v is
        a column, so w != 0 and F_u != F_v (else c_{F_u}(w) = -2); of its
        heights c_{F_u}(v) - 1 and c_{F_v}(u) - 1 at most one is negative,
        so c_{F_u}(v) > 0 or c_{F_v}(u) > 0, and the sign rule gives v*u or
        u*v.  A sum with neither product raises InternalCheckError.
        """
        for i, (u, row) in enumerate(zip(self.columns, self.rows)):
            for j, (v, k) in enumerate(zip(self.columns, row)):
                if k is not None:
                    yield i, j, "product", k
                    continue
                s = vec_add(u.vector, v.vector)
                if s in self.index and self.rows[j][i] is None:
                    raise InternalCheckError(f"{s} is a column with neither product")
                if any(s):
                    case = "skipped" if s in self.index else "commute"
                    yield i, j, case, None

    @cached_property
    def balanced(self):
        """(flag, witness) of ``is_balanced``."""
        one_sided = True
        absolute = True
        witness = None
        for u in self.columns:
            g = u.base
            for v in self.columns:
                val = v.heights[g]
                if val > 1:
                    one_sided = False
                    absolute = False
                    if witness is None:
                        witness = (u, v, val)
                elif val < -1:
                    absolute = False
                    if witness is None:
                        witness = (u, v, val)
        if one_sided != absolute:
            raise InternalCheckError(
                "one-sided and absolute balancedness disagree"
            )
        return one_sided, witness


def product_table(p, columns=None):
    """Col(P) and its partial product, built once per polytope object.

    The product u*v of two columns exists when no lattice point x off the
    base F_u of u is carried onto the base F_v of v by u; by the module
    docstring, exactly when u has positive height over F_v and v != -u.
    So each row visits only the columns whose base lies above u, and no
    lattice point is touched.  The table is stored on ``p`` itself (next
    to its cached properties), so it lives exactly as long as ``p`` and is
    never shared with an equal polytope.  ``columns``, when given, is
    Col(P) already known in canonical order (``doubling.extend_columns``
    seeds a double's) and stands in for the search.
    """
    table = p.__dict__.get("_product_table")
    if table is not None:
        return table
    cols = column_vectors(p) if columns is None else columns
    index = {c.vector: i for i, c in enumerate(cols)}
    on_base = {}
    for j, c in enumerate(cols):
        on_base.setdefault(c.base, []).append(j)
    vectors = [c.vector for c in cols]
    rows = []
    products = []
    for i, u in enumerate(cols):
        uv = u.vector
        opposite = index.get(vec_neg(uv))
        row = [None] * len(cols)
        rows.append(row)
        for j in sorted([j for g, h in enumerate(u.heights) if h > 0
                         for j in on_base.get(g, ())]):
            if j == opposite:
                continue
            s = tuple(map(add, uv, vectors[j]))
            k = index.get(s)
            if k is None:
                raise InternalCheckError(
                    f"product {uv}*{vectors[j]} exists but {s} "
                    "is not a column"
                )
            if cols[k].base != u.base:
                raise InternalCheckError(
                    f"product {s} does not inherit the left base facet"
                )
            row[j] = k
            products.append((i, j, k))
    table = p.__dict__["_product_table"] = ProductTable(
        cols, index, rows, tuple(products))
    return table


def product(p, u, v):
    """u*v = u+v with base P_u when the product exists, else None."""
    table = product_table(p)
    u, v = (table.columns[table.column(c)] for c in (u, v))
    return table.product_of(u, v)


def weak_hull(p, vectors):
    """Closure of the given columns under binary products."""
    table = product_table(p)
    current = {table.column(v) for v in vectors}
    while True:
        new = set()
        for i, j in itertools.product(current, repeat=2):
            k = table.rows[i][j]
            if k is not None and k not in current:
                new.add(k)
        if not new:
            break
        current |= new
    return frozenset(table.columns[i] for i in current)


def strict_hull(p, vectors):
    """All values of strict products of sequences from the given columns.

    A sequence multiplies strictly when consecutive products exist and no
    contiguous interval sums to zero; prefix sums of a valid sequence are
    pairwise distinct with differences inside the finite Col(P), so the
    search space is finite.
    """
    table = product_table(p)
    gens = sorted({table.column(v) for v in vectors})
    result = set(gens)
    # state: (last column index, frozenset of suffix sums, total sum)
    start = [(g, frozenset([table.columns[g].vector]), table.columns[g].vector)
             for g in gens]
    seen = set(start)
    stack = list(start)
    while stack:
        last, suffixes, total = stack.pop()
        for g in gens:
            if table.rows[last][g] is None:
                continue
            gvec = table.columns[g].vector
            shifted = [vec_add(s, gvec) for s in suffixes]
            if any(not any(s) for s in shifted):
                continue
            new_total = vec_add(total, gvec)
            k = table.index.get(new_total)
            if k is None:
                raise InternalCheckError(
                    "strict product value escaped Col(P)"
                )
            result.add(k)
            state = (g, frozenset(shifted) | {gvec}, new_total)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return frozenset(table.columns[i] for i in result)


# ---------------------------------------------------------------------------
# balancedness and divisibility


def is_balanced(p):
    """(flag, witness): whether every base form stays <= 1 on every column.

    Also evaluates the absolute-value variant and checks the two predicates
    agree, which they must since column vectors sit at height -1 over their
    base and height >= 0 over every other facet.  The values are the
    columns' own heights, and the answer is kept with p's column table.
    """
    return product_table(p).balanced


def is_col_divisible(p):
    """(flag, witness) for the two divisibility clauses on Col(P).

    Clause one: common right factors force one left factor to divide the
    other.  Clause two: equal products factor through a middle column.
    Interpreting "a = db": d is a column, the product d*b exists and equals
    a.  Defined for balanced polytopes only.
    """
    balanced, wit = is_balanced(p)
    if not balanced:
        raise ValueError("Col-divisibility is defined for balanced polytopes")
    table = product_table(p)
    cols = table.columns
    rows = table.rows
    m = len(cols)
    for a, b, c in itertools.product(range(m), repeat=3):
        if a == b or rows[a][c] is None or rows[b][c] is None:
            continue
        d1 = table.index.get(vec_sub(cols[a].vector, cols[b].vector))
        d2 = table.index.get(vec_sub(cols[b].vector, cols[a].vector))
        if d1 is not None and rows[d1][b] == a:
            continue
        if d2 is not None and rows[d2][a] == b:
            continue
        return False, ("cd1", cols[a], cols[b], cols[c])
    for (a, b, k1) in table.products:
        for (c, d, k2) in table.products:
            if k1 != k2 or a == c:
                continue
            t1 = table.index.get(vec_sub(cols[c].vector, cols[a].vector))
            t2 = table.index.get(vec_sub(cols[a].vector, cols[c].vector))
            if t1 is not None and rows[a][t1] == c and rows[t1][d] == b:
                continue
            if t2 is not None and rows[c][t2] == a and rows[t2][b] == d:
                continue
            return False, ("cd2", cols[a], cols[b], cols[c], cols[d])
    return True, None


# ---------------------------------------------------------------------------
# balanced polygon classification


class PolygonClassification(NamedTuple):
    label: str
    vectors: dict
    same_base_count: Optional[int] = None


class UnclassifiablePolygonError(InternalCheckError):
    """A balanced polygon matched none of the six signatures."""


# fan_normal_form of the trapezoid (0, 0), (2, 0), (1, 1), (0, 1) and the unit square
TRAPEZOID_FAN_FORM = ((-1, -1), (-1, 0), (0, 1), (1, 0))
UNIT_SQUARE_FAN_FORM = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _triangle_form(k):
    """``polygon_normal_form`` of k times the unit triangle: its sorted vertices."""
    return ((0, 0), (0, k), (k, 0))


def classify_balanced_polygon(p):
    """Class label a-f for a balanced polygon, from its column signature.

    Signature order tests the negation-closed families first.  Classes a, b
    and e are also checked against their reference polygons by normal
    forms fixed once: a triangle multiple by ``polygon_normal_form``, whose
    last vertex (k, 0) names the multiple k, a fan match with the standard
    trapezoid or the unit square by ``fan_normal_form``.  A
    signature mismatch, or a matched signature whose check fails, raises:
    every balanced polygon must land in exactly one class.
    """
    if p.dim != 2:
        raise ValueError("polygon classification needs dimension 2")
    balanced, wit = is_balanced(p)
    if not balanced:
        raise ValueError("polygon classification needs a balanced polygon")
    table = product_table(p)
    cols = table.columns
    vecs = {c.vector for c in cols}
    pairs = {c.vector for c in cols if vec_neg(c.vector) in vecs}
    n_products = len(table.products)

    if len(cols) == 6 and len(pairs) == 6:
        if n_products == 6 and _triangle_relations(table):
            form = polygon_normal_form(p)
            if form != _triangle_form(form[-1][0]):
                raise UnclassifiablePolygonError(
                    f"class-a signature but not a triangle multiple: {p.vertices}"
                )
            return PolygonClassification("a", {"columns": cols})
    if len(cols) == 4 and len(pairs) == 2:
        labeled = _match_trapezoid_relations(table)
        if labeled is not None:
            if fan_normal_form(p) != TRAPEZOID_FAN_FORM:
                raise UnclassifiablePolygonError(
                    f"class-b signature but no trapezoid fan match: {p.vertices}"
                )
            return PolygonClassification("b", labeled)
    if len(cols) == 4 and len(pairs) == 4 and n_products == 0:
        if fan_normal_form(p) != UNIT_SQUARE_FAN_FORM:
            raise UnclassifiablePolygonError(
                f"class-e signature but no square fan match: {p.vertices}"
            )
        return PolygonClassification("e", {"columns": cols})
    if len(cols) == 3 and not pairs and n_products == 1:
        i, j, k = table.products[0]
        return PolygonClassification(
            "c", {"u": cols[i], "v": cols[j], "w": cols[k]}
        )
    if not pairs and n_products == 0 and len({c.base for c in cols}) <= 1:
        return PolygonClassification(
            "d", {"columns": cols}, same_base_count=len(cols)
        )
    if len(cols) == 2 and not pairs and n_products == 0:
        if cols[0].base != cols[1].base:
            return PolygonClassification("f", {"u": cols[0], "v": cols[1]})
    raise UnclassifiablePolygonError(
        f"balanced polygon {p.vertices} fits no class: "
        f"{len(cols)} columns, {len(pairs)} paired, {n_products} products"
    )


def _triangle_relations(table):
    # the six products must compose like oriented edges of a triangle: each
    # of the six columns is the left factor of exactly one product (that
    # every product is a column on its left factor's base is already
    # enforced by product_table)
    left_counts = {}
    for (i, j, k) in table.products:
        left_counts[i] = left_counts.get(i, 0) + 1
    return sorted(left_counts.values()) == [1] * 6


def _match_trapezoid_relations(table):
    cols = table.columns
    vecs = {c.vector: c for c in cols}
    paired = [c for c in cols if vec_neg(c.vector) in vecs]
    unpaired = [c for c in cols if vec_neg(c.vector) not in vecs]
    if len(table.products) != 2:
        return None
    for v in paired:
        minus_v = vecs[vec_neg(v.vector)]
        for u, w in itertools.permutations(unpaired, 2):
            if table.product_of(u, v) == w and table.product_of(w, minus_v) == u:
                return {"u": u, "v": v, "-v": minus_v, "w": w}
    return None


# ---------------------------------------------------------------------------
# rigid systems


class DirectedGraph(NamedTuple):
    """Finite digraph: no isolated vertices, no multiedges or loops, and an
    edge never shadows another directed path with the same endpoints."""

    vertices: tuple
    edges: tuple  # (tail, head) pairs

    def check_conditions(self):
        if len(set(self.edges)) != len(self.edges):
            return "multiple edges"
        touched = {v for e in self.edges for v in e}
        if set(self.vertices) != touched:
            return "isolated vertices"
        if any(a == b for a, b in self.edges):
            return "self-loop"
        counts = self._path_counts()
        # before the shadow test, which counts walks and so sees every cycle
        if any(counts.get((v, v), 0) for v in self.vertices):
            return "directed cycle"
        for a, b in self.edges:
            if counts.get((a, b), 0) != 1:
                return f"edge {a}->{b} shadowed by another path"
        return None

    def _path_counts(self):
        # path counts in a DAG-candidate; bail out if counts blow past 2
        adj = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
        # bounded relaxation: lengths up to |V| suffice for simple paths;
        # cycles reveal themselves as (v, v) entries
        step = {(a, b): 1 for a, b in self.edges}
        total = dict(step)
        for _ in range(len(self.vertices)):
            nxt = {}
            for (a, b), c in step.items():
                for d in adj.get(b, ()):
                    key = (a, d)
                    nxt[key] = nxt.get(key, 0) + c
            if not nxt:
                break
            for k, c in nxt.items():
                total[k] = total.get(k, 0) + c
            step = nxt
        return total

    def path_classes(self):
        """Pairs (start, end) joined by at least one path."""
        return frozenset(k for k, c in self._path_counts().items() if c > 0)


class RigidCertificate(NamedTuple):
    graph: DirectedGraph
    labeling: tuple  # pairs (column vector, (start, end))


class Rigid(NamedTuple):
    certificate: RigidCertificate


class NotRigid(NamedTuple):
    reason: str
    detail: object = None


def is_rigid(p, vectors):
    """Decide rigidity of a set of column vectors: Rigid or NotRigid.

    The strict hull must hold no vector with its negative and must equal
    the weak hull, so it is closed under products.  The rest is decided
    without a search, from the forced gluing.  Every hull element c has a
    start and an end, and every product a*b in the hull glues end(a) to
    start(b), start(a*b) to start(a) and end(a*b) to end(b).  One
    union-find pass over the starts and ends gives the least partition with
    these gluings.  The ports are the starts (tails) and ends (heads) of the
    irreducible elements.  The blocks holding ports are the vertices, named
    n0, n1, ... in the order of their least ports, the irreducible elements
    are the edges, and each element is labeled (block of its start, block
    of its end).

    Proof that the forced certificate is valid whenever any certificate
    (G, L) is.  (1) In G an edge is the only path between its endpoints,
    so no element labeled by an edge factors, while a longer path
    u -> v -> w splits into two path classes whose elements compose to the
    one labeled (u, w): the edges are the labels of the irreducible
    elements.  (2) An element whose path starts with edge e factors as e
    times the rest, so its start is glued to a tail; likewise its end to a
    head.  An element whose start or end block holds no port is reached by
    no factorization, and no certificate exists.  (3) L satisfies every
    gluing, so it maps the forced blocks onto the vertices of G and its
    partition coarsens the forced one.  It never joins a block holding the
    head of a to another block holding the tail of b: a and b would be
    composable in G, so a*b would exist and force that join.  So every path
    of G lifts to exactly one path of the forced graph with the same edges.
    (4) Hence the forced graph has no multiple edge, loop, cycle or
    shadowed edge; by induction on path length the forced label of an
    element is the pair of ends of its lifted path, so the labels are the
    path classes, one per element; and a pair composable in the forced
    graph is composable in G, so it has a product.  The joins a
    certificate may add, of blocks without heads or of blocks without
    tails, add no path and no composable pair, so they repair no defect:
    the forced graph is the certificate, or no certificate exists.  It is
    still handed to ``verify_rigid_certificate``, which gives the verdict.
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

    elems = sorted(hull_vecs)
    parent = {(c, kind): (c, kind) for c in elems for kind in "ht"}
    reducible = set()
    for a in elems:
        row = table.rows[table.index[a]]
        for b in elems:
            k = row[table.index[b]]
            if k is not None:
                r = table.columns[k].vector
                reducible.add(r)
                for x, y in (((a, "h"), (b, "t")), ((r, "t"), (a, "t")),
                             ((r, "h"), (b, "h"))):
                    parent[_find(parent, x)] = _find(parent, y)
    irreducibles = [c for c in elems if c not in reducible]
    name = {}
    for port in sorted(itertools.product(irreducibles, "ht")):
        name.setdefault(_find(parent, port), f"n{len(name)}")
    label = {}
    for c in elems:
        ends = tuple(name.get(_find(parent, (c, kind))) for kind in "th")
        if None in ends:
            return NotRigid("element reached by no factorization", c)
        label[c] = ends
    graph = DirectedGraph(tuple(name.values()),
                          tuple(label[c] for c in irreducibles))
    defect = graph.check_conditions()
    if defect is not None:
        return NotRigid(f"forced graph defect: {defect}", graph)
    cert = RigidCertificate(graph, tuple(sorted(label.items())))
    if not verify_rigid_certificate(p, vectors, cert):
        return NotRigid("forced certificate fails verification", cert)
    return Rigid(cert)


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def verify_rigid_certificate(p, vectors, certificate):
    """Independent re-check of a rigidity certificate."""
    hull = strict_hull(p, vectors)
    label = {vec: pair for vec, pair in certificate.labeling}
    if set(label) != {c.vector for c in hull}:
        return False
    graph = certificate.graph
    if graph.check_conditions() is not None:
        return False
    if set(label.values()) != set(graph.path_classes()):
        return False
    if len(set(label.values())) != len(label):
        return False
    table = product_table(p)
    for a in hull:
        for b in hull:
            k = table.rows[table.index[a.vector]][table.index[b.vector]]
            composable = label[a.vector][1] == label[b.vector][0]
            if (k is not None) != composable:
                return False
            if k is not None:
                r = table.columns[k].vector
                if label[r] != (label[a.vector][0], label[b.vector][1]):
                    return False
    return True


# ---------------------------------------------------------------------------
# exports


def columns_json_data(p):
    table = product_table(p)
    return {
        "columns": [
            {"v": list(c.vector), "base": c.base} for c in table.columns
        ],
        "products": [list(t) for t in table.products],
    }


def columns_dot(p):
    """DOT digraph of the product table: nodes are column vectors, an edge
    u -> w labeled with *v records u*v = w."""
    table = product_table(p)
    lines = ["digraph columns {"]
    for i, c in enumerate(table.columns):
        coord = ",".join(str(x) for x in c.vector)
        lines.append(f'  c{i} [label="({coord})"];')
    for (i, j, k) in table.products:
        coord = ",".join(str(x) for x in table.columns[j].vector)
        lines.append(f'  c{i} -> c{k} [label="*({coord})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
