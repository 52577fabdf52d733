"""Exact lattice-polytope geometry.

Polytopes are given by integer points.  A polygon's vertices and facets
come out of one monotone-chain pass over its points; in other dimensions
the facets come out of a double description run on the homogenization
cone.  Lattice points are found fibre by fibre along the widest
coordinate, each fibre cut to an exact interval by the facet inequalities,
in a lattice-reduced frame when the polytope's own box crosses many fibres.
All derived data is cached on the polytope and immutable once computed.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, prod
from operator import mul

from .exactmath import (
    det_int,
    dot,
    extended_gcd,
    hermite_normal_form,
    identity_matrix,
    independent_rows,
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
    vec_scale,
    vec_sub,
)


class InternalCheckError(AssertionError):
    """A condition the underlying theory guarantees has failed.

    Raised loudly instead of patched over: any occurrence means either a bug
    in this package or a genuinely surprising polytope.
    """


class LatticeWalkTooLargeError(ValueError):
    """A lattice-point walk over more fibres than ``MAX_FIBRES``, or to more
    points than ``MAX_LATTICE_POINTS``."""


# the most fibres a lattice-point walk takes, at ~2.6 s per 10^6 on a 2-core Xeon
MAX_FIBRES = 4 * 10**6
# the most points a lattice-point walk finds; 10^6 points of Z^2 take 0.27 s
# and about 105 MB on a 2-core Xeon
MAX_LATTICE_POINTS = 10**6
# a box crossing at most this many fibres is walked without a lattice
# reduction: on sheared images of small polytopes in dimensions 2-4, reducing
# first (about 75 us) and walking directly (about 1.3 us a fibre) break even
# at 48-64 fibres on a 2-core Xeon
_DIRECT_WALK_FIBRES = 64


class FacetForm:
    """A primitive integral linear form together with its minimum on P.

    ``normal . x >= offset`` holds on P with equality exactly on the facet;
    ``on_facet`` indexes the lattice points lying on the facet.
    """

    __slots__ = ("normal", "offset", "on_facet")

    def __init__(self, normal, offset, on_facet):
        self.normal = normal
        self.offset = offset
        self.on_facet = on_facet

    def __repr__(self):
        return f"FacetForm({self.normal}, {self.offset})"


class AffineLatticeMap:
    """x -> matrix @ x + translation, with an integer matrix and translation."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix, translation):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.translation = tuple(translation)

    @classmethod
    def identity(cls, n):
        return cls(identity_matrix(n), (0,) * n)

    def apply(self, point):
        return tuple(
            dot(row, point) + c for row, c in zip(self.matrix, self.translation)
        )

    def __repr__(self):
        return f"AffineLatticeMap({self.matrix}, {self.translation})"


# ---------------------------------------------------------------------------
# double description: facet forms from generating points


def dual_description(rows):
    """Extreme rays (primitive) of {y : r . y >= 0 for every r in rows}.

    The rows must span the whole space, so the cone is pointed.  Classic
    double description with the combinatorial adjacency test; zero sets are
    tracked as bitmasks over the processed rows.  A basis row changes no
    ray: each is >= 0 on it, and its mask already records where it is 0.
    """
    rows = sorted(set(rows))
    d = len(rows[0])
    basis_idx = independent_rows(rows, d)
    if len(basis_idx) < d:
        raise ValueError("generators do not span the space (cone not pointed)")
    basis = [rows[i] for i in basis_idx]

    # {y : B y >= 0} for the square basis B is spanned by the columns of B^-1
    inv, _ = mat_inverse_frac(basis)
    rays = []
    for j in range(d):
        col = tuple(inv[i][j] for i in range(d))
        mask = 0
        for i in range(d):
            if i != j:
                mask |= 1 << basis_idx[i]
        rays.append([primitive_part(col), mask])

    for t, h in enumerate(rows):
        vals = [dot(h, r[0]) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays = [[rays[i][0], rays[i][1]] for i in pos]
        new_rays += [[rays[i][0], rays[i][1] | (1 << t)] for i in zero]
        for i in pos:
            zi = rays[i][1]
            for j in neg:
                zc = zi & rays[j][1]
                adjacent = True
                for k in range(len(rays)):
                    if k != i and k != j and (zc & rays[k][1]) == zc:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = vec_sub(
                    vec_scale(vals[i], rays[j][0]),
                    vec_scale(vals[j], rays[i][0]),
                )
                new_rays.append([primitive_part(combo), zc | (1 << t)])
        rays = new_rays
    return sorted(r[0] for r in rays)


def facet_inequalities(points):
    """Facet pairs (primitive normal, offset) of a full-dimensional hull."""
    rows = sorted({tuple(p) + (1,) for p in points})
    out = []
    for ray in dual_description(rows):
        normal = ray[:-1]
        if not any(normal):
            raise InternalCheckError("trivial inequality among facet rays")
        out.append((normal, -ray[-1]))
    return sorted(out)


# ---------------------------------------------------------------------------
# polytope


class Polytope:
    """A lattice polytope, identified by its canonical sorted vertex tuple."""

    def __init__(self, vertices, ambient_dim, name=None):
        self.vertices = tuple(sorted(tuple(v) for v in vertices))
        self.ambient_dim = ambient_dim
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.ambient_dim, self.vertices) == (other.ambient_dim, other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        label = self.name or "polytope"
        return (
            f"<{label}: dim {self.dim} in Z^{self.ambient_dim}, "
            f"{len(self.vertices)} vertices>"
        )

    @cached_property
    def dim(self):
        v0 = self.vertices[0]
        return rank_int([vec_sub(v, v0) for v in self.vertices[1:]])

    @property
    def is_full_dimensional(self):
        return self.dim == self.ambient_dim

    @cached_property
    def is_normalized(self):
        """Full-dimensional, with lattice points affinely generating Z^n.

        Up to dimension 2 that is every full-dimensional lattice polytope,
        and no Hermite form is computed: a lattice segment holds two
        consecutive integers, and a lattice polygon holds a unimodular
        triangle, whose edge vectors are a basis of Z^2.  (Among the lattice
        triangles inside the polygon, one of least area has no lattice point
        but its vertices, or it would split into smaller ones; by Pick's
        theorem its area is 1/2.)
        """
        if not self.is_full_dimensional:
            return False
        if self.ambient_dim <= 2:
            return True
        return self._lattice_basis == identity_matrix(self.ambient_dim)

    @cached_property
    def _lattice_basis(self):
        """The nonzero rows of the Hermite form of the differences of the
        lattice points to the least one: a basis of the lattice they
        generate, for a P with at least two lattice points.

        The differences are folded into the basis n at a time, so no form
        has more than 2n rows.  The row Hermite form of a lattice is unique,
        so the basis is that of all differences at once, without its
        (|L_P| - 1) x (|L_P| - 1) transform.  Once the basis is the identity
        the lattice is Z^n, which more differences cannot change, and the
        folding stops.
        """
        pts = self.lattice_points
        x0 = pts[0]
        step = max(self.ambient_dim, 1)
        full = identity_matrix(self.ambient_dim)
        basis = ()
        for start in range(1, len(pts), step):
            chunk = [vec_sub(z, x0) for z in pts[start:start + step]]
            h, _ = hermite_normal_form(list(basis) + chunk)
            basis = tuple(r for r in h if any(r))
            if basis == full:
                break
        return basis

    @cached_property
    def _facet_pairs(self):
        if not self.is_full_dimensional:
            raise ValueError("facets require a full-dimensional polytope")
        if self.ambient_dim == 0:
            return ()
        if self.ambient_dim == 2:
            return _cycle_facet_pairs(_convex_cycle(self.vertices))
        return tuple(facet_inequalities(self.vertices))

    @cached_property
    def lattice_points(self):
        if self.dim == 0:
            return (self.vertices[0],)
        if self.is_full_dimensional:
            return self._fibre_lattice_points()
        model, embed = self._full_dim_model
        return tuple(sorted(embed.apply(z) for z in model.lattice_points))

    def _fibre_lattice_points(self):
        """Lattice points of a full-dimensional P, sorted, by ``_walk_fibres``
        in the frame whose box crosses fewer fibres.

        When P's own box crosses more than ``_DIRECT_WALK_FIBRES`` fibres,
        the walk may take U P instead, the rows of U in GL_n(Z) an LLL basis
        under the Gram matrix of the vertex differences to the least vertex,
        so each new coordinate has a small spread over P.  U maps Z^n onto
        Z^n, so the walk finds exactly U L_P, which U^-1 maps back; the
        facet pairs of U P are (a U^-1, b), as a . x = (a U^-1) . (U x).
        When U is the identity, P's own frame is already reduced and is
        walked at once.
        """
        verts, pairs, back = self.vertices, self._facet_pairs, None
        fibres = _fibre_box(verts)[3]
        if fibres > _DIRECT_WALK_FIBRES:
            x0 = verts[0]
            cols = list(zip(*(vec_sub(v, x0) for v in verts[1:])))
            u, u_inv = lll_reduce([[sum(map(mul, a, b)) for b in cols] for a in cols])
            identity = identity_matrix(self.ambient_dim)
            if u != identity:
                if mat_mul(u, u_inv) != identity:
                    raise InternalCheckError("lattice reduction lost its inverse")
                reduced = [mat_vec(u, v) for v in verts]
                if _fibre_box(reduced)[3] < fibres:
                    u_inv_t = transpose(u_inv)
                    verts, back = reduced, u_inv
                    pairs = [(mat_vec(u_inv_t, a), b) for a, b in pairs]
        pts = _walk_fibres(verts, pairs)
        if back is not None:
            pts = [tuple([sum(map(mul, row, y)) for row in back]) for y in pts]
        pts.sort()
        return tuple(pts)

    @cached_property
    def point_index(self):
        """{lattice point: its index in ``lattice_points``}."""
        return {z: i for i, z in enumerate(self.lattice_points)}

    @cached_property
    def facet_heights(self):
        """H[G][i] = normal_G . x_i - offset_G over the sorted lattice points."""
        pts = self.lattice_points
        return tuple(
            tuple([sum(map(mul, normal, z)) - offset for z in pts])
            for normal, offset in self._facet_pairs
        )

    @cached_property
    def facets(self):
        return tuple(
            FacetForm(normal, offset, tuple([i for i, h in enumerate(row) if not h]))
            for (normal, offset), row in zip(self._facet_pairs, self.facet_heights)
        )

    @cached_property
    def _full_dim_model(self):
        """(Q, embed): Q full-dimensional over the saturated coordinate
        lattice of aff(P), embed carrying Q's points back into Z^n."""
        if len(self.vertices) == 1:
            raise InternalCheckError("no full-dimensional model for a point")
        coords, embed = _saturated_chart(self.vertices)
        return Polytope(coords, len(coords[0]), name=self.name), embed


def _fibre_box(vertices):
    """(lows, highs, k, fibres) of the vertex box: its widest coordinate k
    (ties go to the highest index), and the product of the other extents,
    the number of lines of z_k through the box's integer points."""
    coords = list(zip(*vertices))
    lows, highs = [min(c) for c in coords], [max(c) for c in coords]
    spans = [h - l for l, h in zip(lows, highs)]
    k = max(range(len(spans)), key=lambda i: (spans[i], i))
    return lows, highs, k, prod(s + 1 for i, s in enumerate(spans) if i != k)


def _walk_fibres(vertices, pairs):
    """The integer points of the polytope with these vertices and facet
    pairs (a, b), a . z >= b on it, unsorted, fibre by fibre.

    The box is walked over every coordinate but the widest one, k; over
    each prefix the facet pairs cut the line of z_k to an exact integer
    interval, whose points are all in the polytope.  The cost is the fibre
    count times the facet count, plus the output.  A walk over more than
    ``MAX_FIBRES`` fibres raises ``LatticeWalkTooLargeError`` before it
    starts.  So does one to more than ``MAX_LATTICE_POINTS`` points: when
    the box holds more cells than that, the intervals are counted first,
    with no point built, up to the first one that passes the limit.
    """
    lows, highs, k, fibres = _fibre_box(vertices)
    if fibres > MAX_FIBRES:
        raise LatticeWalkTooLargeError(
            f"lattice-point walk over {fibres} fibres, above {MAX_FIBRES}")
    if fibres * (highs[k] - lows[k] + 1) > MAX_LATTICE_POINTS:
        count = 0
        for _, lo, hi in _fibre_intervals(lows, highs, k, pairs):
            count += hi - lo + 1
            if count > MAX_LATTICE_POINTS:
                raise LatticeWalkTooLargeError(
                    f"lattice-point walk past {MAX_LATTICE_POINTS} points")
    pts = []
    for prefix, lo, hi in _fibre_intervals(lows, highs, k, pairs):
        head, tail = prefix[:k], prefix[k:]
        pts.extend(head + (zk,) + tail for zk in range(lo, hi + 1))
    return pts


def _fibre_intervals(lows, highs, k, pairs):
    """(prefix, lo, hi) for each nonempty fibre of the box lows..highs: the
    coordinates but z_k, and the interval lo <= z_k <= hi that the facet
    pairs cut from the line."""
    rest = [i for i in range(len(lows)) if i != k]
    # a . z >= b reads a_k z_k >= b - s, where s = sum_{i != k} a_i z_i
    forms = [(tuple(a[i] for i in rest), a[k], b) for a, b in pairs]
    for prefix in _box_points([range(lows[i], highs[i] + 1) for i in rest]):
        lo, hi = lows[k], highs[k]
        for coeffs, ak, b in forms:
            r = sum(map(mul, coeffs, prefix)) - b
            if ak > 0:
                lo = max(lo, -(r // ak))
            elif ak < 0:
                hi = min(hi, r // -ak)
            elif r < 0:
                break
            if lo > hi:
                break
        else:
            yield prefix, lo, hi


def _box_points(ranges):
    """``itertools.product(*ranges)`` with the last range read lazily:
    product stores each range as a tuple before it yields, which for a
    plane walk of 4 * 10^6 fibres is 160 MB."""
    if not ranges:
        yield ()
        return
    *outer, last = ranges
    for head in itertools.product(*outer):
        for z in last:
            yield head + (z,)


def _saturated_chart(points):
    """``_chart`` over a basis of the saturated lattice aff(points) & Z^n,
    for distinct integer points, at least two."""
    x0 = min(points)
    return _chart(points, saturation_basis([vec_sub(p, x0) for p in points if p != x0]))


def _chart(points, basis):
    """(coords, embed): the coordinates of the integer points over the rows
    of ``basis``, based at the least point, and the map carrying coordinates
    back.  A point off that lattice is an internal error."""
    x0 = min(points)
    bt = transpose(basis)
    coords = solve_int(bt, [vec_sub(p, x0) for p in points])
    if None in coords:
        raise InternalCheckError("point off the lattice of the chart basis")
    return coords, AffineLatticeMap(bt, x0)


def polytope_from_points(points, name=None):
    """Hull of the given integer points: vertex set plus cached geometry.

    Points spanning Z^2 take the vertices and facets of their polygon from
    one monotone-chain pass, with no rank computed; collinear ones fall
    through to the rank test.  Double description serves the other
    full-dimensional inputs.  Lower-dimensional points are hulled as their
    coordinates over ``_saturated_chart``, and that hull stays as the
    polytope's full-dimensional model.  The point of Z^0 takes the rank
    path, which returns ``Polytope([()], 0)``.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("a polytope needs at least one point")
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise ValueError("ragged point dimensions")
        for c in p:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"non-integral coordinate {c!r}")
    pts = sorted(set(pts))
    if n == 2:
        cycle = _convex_cycle(pts)
        if len(cycle) >= 3:
            return polygon_from_cycle(cycle, name=name)
    x0 = pts[0]
    diffs = [vec_sub(p, x0) for p in pts[1:]]
    d = rank_int(diffs)
    if d == 0:
        return Polytope([x0], n, name=name)
    if d == n:
        pairs = facet_inequalities(pts)
        p = Polytope(_extreme_points(pts, pairs, n), n, name=name)
        # the hull of all points has the same facets as the hull of its
        # vertices, so the double description need not run again
        p._facet_pairs = tuple(pairs)
        return p
    # the chart is based at the least point, a vertex, just as a chart of
    # the vertices would be
    coords, embed = _saturated_chart(pts)
    model = polytope_from_points(coords, name=name)
    p = Polytope([embed.apply(v) for v in model.vertices], n, name=name)
    p._full_dim_model = model, embed
    return p


def polygon_from_cycle(cycle, name=None):
    """The polygon of a counterclockwise vertex cycle, facets read off it."""
    p = Polytope(cycle, 2, name=name)
    p.dim = 2
    p._facet_pairs = _cycle_facet_pairs(cycle)
    return p


def _convex_cycle(pts):
    """Vertices of the hull of sorted distinct points in Z^2, in
    counterclockwise order from the least one (Andrew's monotone chain).

    Only strict left turns are kept, so points inside an edge drop out, and
    fewer than three vertices come back exactly when the points are
    collinear.
    """
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for x, y in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append((x, y))
    return lower[:-1] + upper[:-1]


def _cycle_facet_pairs(cycle):
    """Sorted facet pairs of the polygon with counterclockwise vertex cycle
    ``cycle``: the edge from a with direction (dx, dy) has the inner normal
    primitive (-dy, dx) and the offset normal . a."""
    pairs = []
    for (ax, ay), (bx, by) in zip(cycle, cycle[1:] + cycle[:1]):
        g = gcd(bx - ax, by - ay)
        nx, ny = (ay - by) // g, (bx - ax) // g
        pairs.append(((nx, ny), nx * ax + ny * ay))
    return tuple(sorted(pairs))


def _extreme_points(pts, facet_pairs, n):
    verts = []
    for p in pts:
        active = [a for a, b in facet_pairs if dot(a, p) == b]
        if len(active) >= n and rank_int(active) == n:
            verts.append(p)
    return verts


# ---------------------------------------------------------------------------
# normalization


def normalize_full_dim(p):
    """Rewrite P so its lattice points affinely generate Z^dim(P).

    Returns (Q, embed): Q's points are the coordinates of P's points over
    the Hermite basis of the difference lattice of all of L_P, not just of
    the vertices, based at the least lattice point, and embed carries Q's
    points back into P's coordinates.  Idempotent: normalized input comes
    back unchanged with the identity map.
    """
    if p.is_normalized:
        return p, AffineLatticeMap.identity(p.ambient_dim)
    pts = p.lattice_points
    if len(pts) == 1:
        embed = AffineLatticeMap(((),) * p.ambient_dim, pts[0])
        return Polytope([()], 0, name=p.name), embed
    coords, embed = _chart(p.vertices, p._lattice_basis)
    q = Polytope(coords, len(coords[0]), name=p.name)
    if not q.is_normalized:
        raise InternalCheckError("normalization did not reach the full lattice")
    return q, embed


# ---------------------------------------------------------------------------
# predicates, transforms, invariants


def is_unimodular_simplex(p):
    """Simplex whose edge lattice at a vertex is a direct summand of Z^n:
    the gcd of the edges' maximal minors is 1.

    Row operations on the transposed n x k edge matrix leave that gcd alone,
    so it is the product of the k diagonal entries of its Hermite form, one
    of which is 0 when the edges are dependent, as on every non-simplex.
    With k > n the form has fewer than k rows and the edges are dependent.
    A single point has no edges, and its one minor, the empty one, is 1.
    """
    v0, *rest = p.vertices
    k = len(rest)
    if k == 0:
        return True
    if k > p.ambient_dim:
        return False
    h, _ = hermite_normal_form(list(zip(*(vec_sub(v, v0) for v in rest))))
    return all(h[i][i] == 1 for i in range(k))


def dilate(p, k):
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    return Polytope([vec_scale(k, v) for v in p.vertices], p.ambient_dim, name=p.name)


def normalized_volume(p):
    """dim! times the euclidean volume, an integral-affine invariant.

    A lower-dimensional P is measured over the saturated lattice
    aff(P) & Z^n, so the value does not depend on the embedding.
    """
    if p.dim == 0:
        return 1
    if p.is_full_dimensional:
        return _nvol_full(p)
    return _nvol_full(p._full_dim_model[0])


def _nvol_full(p):
    # pyramid decomposition from a vertex: nvol(P) = sum over facets of
    # lattice height times the facet's own normalized volume, which is 1
    # for the endpoints of a segment
    n = p.ambient_dim
    v0 = p.vertices[0]
    total = 0
    for normal, offset in p._facet_pairs:
        height = dot(normal, v0) - offset
        if height:
            facet = Polytope([v for v in p.vertices if dot(normal, v) == offset], n)
            total += height * normalized_volume(facet)
    return total


def integral_affine_equivalent(p, q):
    """A lattice-affine bijection carrying P onto Q, or None.

    Pure translations are tried first, so lower-dimensional translates get
    their shift map; other lower-dimensional pairs are a ValueError, unless
    their lattice point counts differ.  In every dimension the map is
    otherwise the first one ``lattice_equivalences`` finds, which reads only
    vertices and facets: a full-dimensional pair with different point
    counts has no map, so its points are never walked.
    """
    if p.ambient_dim != q.ambient_dim or p.dim != q.dim:
        return None
    if len(p.vertices) != len(q.vertices):
        return None
    # pure translations first, so equal-up-to-shift inputs (and Z^0) get
    # the shift map
    shift = vec_sub(min(q.vertices), min(p.vertices))
    if {vec_add(v, shift) for v in p.vertices} == set(q.vertices):
        return AffineLatticeMap(identity_matrix(p.ambient_dim), shift)
    if p.is_full_dimensional:
        return next(lattice_equivalences(p, q), None)
    if len(p.lattice_points) != len(q.lattice_points):
        return None
    raise ValueError("integral-affine equivalence needs full-dimensional polytopes")


def lattice_equivalences(p, q):
    """Every lattice-affine bijection carrying the full-dimensional P onto Q.

    The anchor is a vertex v0 of least degree and n neighbours along
    independent edges.  Such a map sends vertices to vertices and edges to
    edges, so the anchor goes to a vertex w of equal degree and n of its
    neighbours in order, which fix the map: each map is found once, in the
    order of w and then of ``itertools.permutations``.
    """
    n = p.ambient_dim
    adj_p = vertex_adjacency(p)
    adj_q = adj_p if q is p else vertex_adjacency(q)
    v0 = min(p.vertices, key=lambda v: len(adj_p[v]))
    nbrs = adj_p[v0]
    idx = independent_rows([vec_sub(w, v0) for w in nbrs], n)
    if len(idx) < n:
        raise InternalCheckError("the edges at a vertex must span the space")
    frame_map = unimodular_frame_maps((v0,) + tuple(nbrs[i] for i in idx))
    q_vert_set = set(q.vertices)
    for w in q.vertices:
        if len(adj_q[w]) != len(nbrs):
            continue
        for image in itertools.permutations(adj_q[w], n):
            amap = frame_map((w,) + image)
            if amap is not None and {amap.apply(v) for v in p.vertices} == q_vert_set:
                yield amap


def unimodular_frame_maps(frame):
    """The function sending a point tuple to the lattice-affine map that
    carries the affinely spanning tuple ``frame`` onto it in order, or to
    None if that map is not unimodular.

    The linear part is W V^-1, with the differences to the first point of
    each tuple as the columns of V and W.  V is inverted once per frame and
    nothing else is: an image with |det W| != |det V| is refused before any
    product.
    """
    v0 = frame[0]
    vinv, det = mat_inverse_frac(transpose([vec_sub(v, v0) for v in frame[1:]]))

    def frame_map(image):
        w0 = image[0]
        wmat = transpose([vec_sub(w, w0) for w in image[1:]])
        if abs(det_int(wmat)) != det:
            return None
        prod = mat_mul(wmat, vinv)
        if any(x % det for row in prod for x in row):
            return None
        u = tuple(tuple(x // det for x in row) for row in prod)
        return AffineLatticeMap(u, vec_sub(w0, mat_vec(u, v0)))

    return frame_map


def polygon_normal_form(p):
    """Canonical integer vertex tuple, shared by two polygons exactly when
    they are integral-affine equivalent.

    A frame is a vertex v with an ordered pair (a, b) of its two neighbours.
    It pins one U in GL2(Z): U sends the primitive direction of a - v to
    (1, 0), and U(b - v) = (x, y) with 0 <= x < y.  The normal form is the
    least sorted tuple of U(w - v) over the vertices w, taken over all 2m
    frames.  Equivalences carry frames to frames, which makes it invariant;
    the frame map between two equal forms is an equivalence, which makes it
    complete.
    """
    return cycle_normal_form(polygon_cycle(p))


def cycle_normal_form(cyc):
    """``polygon_normal_form`` of the polygon with vertex cycle ``cyc``.

    ``cyc`` lists the polygon's vertices in cyclic order, each one a vertex
    of the hull, such as ``polygon_cycle`` returns.  The form does not
    depend on the start vertex or the direction.

    Only the frames reaching the least second entry (``_cycle_frames``)
    build U and sort the images.
    """
    frames = _cycle_frames(cyc)
    least = min([frame[0] for frame in frames])
    forms = []
    for second, (vx, vy), ea, eb, bezout in frames:
        if second == least:
            (r0, r1), (s0, s1) = _frame_matrix(ea, eb, bezout)
            # U(w - v) = U w - U v
            c0, c1 = r0 * vx + r1 * vy, s0 * vx + s1 * vy
            forms.append(tuple(sorted(
                [(r0 * x + r1 * y - c0, s0 * x + s1 * y - c1) for x, y in cyc])))
    return min(forms)


def _cycle_frames(cyc):
    """(second, v, ea, eb, bezout) for each of the 2m frames of a vertex
    cycle: the vertex v, the edges ea and eb from v to its two neighbours,
    ``bezout`` = extended_gcd(*ea), and the second entry of the frame's
    sorted image tuple.

    In the frame (v; a, b), U(a - v) = (l, 0) and U(b - v) = (x, y) with
    0 <= x < y span the cone at v, so every image has X, Y >= 0 and v goes
    to (0, 0), the first entry of every form.  The second entry is
    min((l, 0), (x, y)): X is least at v and rises weakly along both
    boundary chains from v, so any other vertex w has X(w) >= l (chain
    through a) or X(w) >= x (chain through b).  If X(w) = l on the a side,
    then Y(w) > 0 as w != a.  If X(w) = x on the b side, w and b span an
    edge on the level line X = x, which holds no third vertex; it misses v,
    so x > 0 makes it the maximal level, and it misses a, so l < x.

    It is read off the edge pair with no U built: for ``bezout`` (g, p, q),
    l = g, y = |det(ea, eb)| / g, and x = (p, q) . eb mod y, as the first
    row of U is (p, q) less a multiple of the second, which sends eb to y
    (``_frame_matrix``).  So it is (x, y) if x < g, else (g, 0).

    An edge enters the frames at both its ends, and U is unique, so one
    ``extended_gcd`` (g, p, q) of e serves both: -e takes (g, -p, -q).
    """
    edges = [(wx - vx, wy - vy) for (vx, vy), (wx, wy) in zip(cyc, cyc[1:] + cyc[:1])]
    bezouts = [extended_gcd(ex, ey) for ex, ey in edges]
    frames = []
    for i, v in enumerate(cyc):
        ahead, (ex, ey), (g, p, q) = edges[i], edges[i - 1], bezouts[i - 1]
        back = (-ex, -ey)
        det = abs(ahead[0] * ey - ahead[1] * ex)
        for ea, eb, bezout in ((ahead, back, bezouts[i]), (back, ahead, (g, -p, -q))):
            l, p0, p1 = bezout
            y = det // l
            x = (p0 * eb[0] + p1 * eb[1]) % y
            frames.append(((x, y) if x < l else (l, 0), v, ea, eb, bezout))
    return frames


def fan_normal_form(p):
    """Canonical tuple, shared by two polygons exactly when some U in GL2(Z)
    carries the normal fan of one onto the normal fan of the other.

    D is the set of primitive edge directions of the counterclockwise
    vertex cycle; the fan is the set of edge normals, so fan(U P) = fan(R)
    iff U' D(P) = D(R) for U' = U, or U' = -U when det U = -1 (U P then
    lists its edges clockwise).  Each cyclically adjacent pair (a, b) of D,
    in either order, pins one U in GL2(Z) by ``_frame_matrix``; consecutive
    edges of a convex polygon are never parallel.  The form is the least
    sorted tuple of U e over e in D.  A linear map keeps or reverses the
    cyclic order of D, so it carries adjacent pairs to adjacent pairs, and
    the argument of ``polygon_normal_form`` gives invariance and
    completeness.
    """
    cyc = polygon_cycle(p)
    dirs = [primitive_part(vec_sub(w, v)) for v, w in zip(cyc, cyc[1:] + cyc[:1])]
    return min(
        tuple(sorted((r0 * x + r1 * y, s0 * x + s1 * y) for x, y in dirs))
        for a, b in zip(dirs, dirs[1:] + dirs[:1])
        for (r0, r1), (s0, s1) in (_frame_matrix(a, b, extended_gcd(*a)),
                                   _frame_matrix(b, a, extended_gcd(*b)))
    )


def _frame_matrix(ea, eb, bezout):
    """The U in GL2(Z) with U primitive(ea) = (1, 0) and U eb = (x, y),
    0 <= x < y, for linearly independent ea and eb and the triple
    ``bezout`` = extended_gcd(*ea)."""
    g, x, y = bezout
    # with (dx, dy) = ea / g, rows (x, y) and (-dy, dx) have determinant 1
    # and send (dx, dy) to (1, 0)
    s0, s1 = -ea[1] // g, ea[0] // g
    height = s0 * eb[0] + s1 * eb[1]
    if height < 0:
        s0, s1, height = -s0, -s1, -height
    k = (x * eb[0] + y * eb[1]) // height
    return (x - k * s0, y - k * s1), (s0, s1)


def polygon_cycle(p):
    """Vertices of a polygon in counterclockwise order from the least one."""
    cycle = _convex_cycle(p.vertices) if p.ambient_dim == 2 else []
    if len(cycle) < 3:
        raise ValueError("polygon_cycle needs a full-dimensional polygon")
    return tuple(cycle)


# ---------------------------------------------------------------------------
# normal fans


class NormalFan:
    """One maximal cone per vertex, described by the primitive differences
    vertex - neighbor over adjacent vertices (the cone's inequality data)."""

    __slots__ = ("cones",)

    def __init__(self, cones):
        self.cones = tuple(cones)

    def __eq__(self, other):
        if not isinstance(other, NormalFan):
            return NotImplemented
        return sorted(g for _, g in self.cones) == sorted(g for _, g in other.cones)

    def __repr__(self):
        return f"NormalFan({len(self.cones)} cones)"


def vertex_adjacency(p):
    """{vertex: its edge neighbours in vertex order} of a full-dimensional P:
    u and w span an edge iff no third vertex lies on every facet through
    both, since those facets cut out the least face holding both, all of P
    when there is none.  The incidences come from the facet pairs, so no
    lattice point is walked."""
    pairs = p._facet_pairs
    on = {
        v: sum(1 << i for i, (a, b) in enumerate(pairs) if dot(a, v) == b)
        for v in p.vertices
    }
    adj = {v: [] for v in p.vertices}
    for u, w in itertools.combinations(p.vertices, 2):
        common = on[u] & on[w]
        if not any(on[x] & common == common for x in p.vertices if x != u and x != w):
            adj[u].append(w)
            adj[w].append(u)
    return adj


def normal_fan(p):
    """One cone per vertex v, generated by the primitive v - w over its
    neighbors w in ``vertex_adjacency``, which joins the two endpoints of a
    segment, since no third vertex lies on the facets through both."""
    if not p.is_full_dimensional:
        raise ValueError("normal fan requires a full-dimensional polytope")
    adj = vertex_adjacency(p)
    cones = []
    for v in p.vertices:
        gens = tuple(sorted(primitive_part(vec_sub(v, w)) for w in adj[v]))
        cones.append((v, gens))
    return NormalFan(cones)
