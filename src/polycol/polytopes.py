"""Exact lattice-polytope geometry.

Polytopes are given by integer points; facets come out of a double
description run on the homogenization cone, lattice points out of a bounding
box scan against the facet inequalities.  All derived data is cached on the
polytope and immutable once computed.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd

from .exactmath import (
    adjugate_int,
    det_int,
    dot,
    extended_gcd,
    hermite_normal_form,
    identity_matrix,
    kernel_basis_int,
    lattice_index_is_full,
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


class FacetForm:
    """A primitive integral linear form together with its minimum on P.

    ``normal . x >= offset`` holds on P with equality exactly on the facet;
    ``on_facet`` indexes the lattice points lying on the facet.
    """

    __slots__ = ("normal", "offset", "on_facet", "points_on")

    def __init__(self, normal, offset, on_facet, points_on):
        self.normal = normal
        self.offset = offset
        self.on_facet = on_facet
        self.points_on = points_on

    def key(self):
        return (self.normal, self.offset)

    def __repr__(self):
        return f"FacetForm({self.normal}, {self.offset})"


class AffineLatticeMap:
    """x -> matrix @ x + translation, with the exact inverse when available.

    Entries may be Fractions (lattice rebasing); applying the map to a point
    must nevertheless produce integers, anything else is an internal error.
    """

    __slots__ = ("matrix", "translation", "inverse")

    def __init__(self, matrix, translation, inverse=None):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.translation = tuple(translation)
        self.inverse = inverse

    @classmethod
    def identity(cls, n):
        m = cls(identity_matrix(n), (0,) * n)
        m.inverse = m
        return m

    @classmethod
    def translation_map(cls, t):
        n = len(t)
        fwd = cls(identity_matrix(n), t)
        fwd.inverse = cls(identity_matrix(n), tuple(-x for x in t), fwd)
        return fwd

    def apply(self, point):
        out = []
        for row, c in zip(self.matrix, self.translation):
            v = Fraction(sum(a * x for a, x in zip(row, point)) + c)
            if v.denominator != 1:
                raise InternalCheckError(
                    f"affine lattice map produced non-integer {v} at {point}"
                )
            out.append(int(v))
        return tuple(out)

    def key(self):
        return (self.matrix, self.translation)

    def __repr__(self):
        return f"AffineLatticeMap({self.matrix}, {self.translation})"


# ---------------------------------------------------------------------------
# double description: facet forms from generating points


def dual_description(rows):
    """Extreme rays (primitive) of {y : r . y >= 0 for every r in rows}.

    The rows must span the whole space, so the cone is pointed.  Classic
    double description with the combinatorial adjacency test; zero sets are
    tracked as bitmasks over the processed rows.
    """
    rows = sorted(set(rows))
    d = len(rows[0])
    basis_idx = []
    basis = []
    for i, r in enumerate(rows):
        if rank_int(basis + [r]) > len(basis):
            basis_idx.append(i)
            basis.append(r)
        if len(basis) == d:
            break
    if len(basis) < d:
        raise ValueError("generators do not span the space (cone not pointed)")

    det = det_int(basis)
    adj = adjugate_int(basis)
    sign = 1 if det > 0 else -1
    rays = []
    for j in range(d):
        col = tuple(sign * adj[i][j] for i in range(d))
        mask = 0
        for i in range(d):
            if i != j:
                mask |= 1 << basis_idx[i]
        rays.append([primitive_part(col), mask])

    basis_set = set(basis_idx)
    for t, h in enumerate(rows):
        if t in basis_set:
            continue
        vals = [dot(h, r[0]) for r in rays]
        if all(v >= 0 for v in vals):
            for r, v in zip(rays, vals):
                if v == 0:
                    r[1] |= 1 << t
            continue
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
        if len(self.vertices) == 1:
            return 0
        v0 = self.vertices[0]
        return rank_int([vec_sub(v, v0) for v in self.vertices[1:]])

    @property
    def is_full_dimensional(self):
        return self.dim == self.ambient_dim

    @cached_property
    def is_normalized(self):
        """Full-dimensional, with lattice points affinely generating Z^n."""
        if not self.is_full_dimensional:
            return False
        if self.ambient_dim == 0:
            return True
        x0 = self.lattice_points[0]
        diffs = [vec_sub(z, x0) for z in self.lattice_points[1:]]
        return lattice_index_is_full(diffs, self.ambient_dim)

    @cached_property
    def _facet_pairs(self):
        if not self.is_full_dimensional:
            raise ValueError("facets require a full-dimensional polytope")
        if self.ambient_dim == 0:
            return ()
        return tuple(facet_inequalities(self.vertices))

    @cached_property
    def lattice_points(self):
        if self.dim == 0:
            return (self.vertices[0],)
        if self.is_full_dimensional:
            pairs = self._facet_pairs
            n = self.ambient_dim
            lows = [min(v[i] for v in self.vertices) for i in range(n)]
            highs = [max(v[i] for v in self.vertices) for i in range(n)]
            pts = []
            for z in itertools.product(
                *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
            ):
                if all(dot(a, z) >= b for a, b in pairs):
                    pts.append(z)
            return tuple(pts)
        model, embed = self._full_dim_model
        return tuple(sorted(embed.apply(z) for z in model.lattice_points))

    @cached_property
    def lattice_set(self):
        return frozenset(self.lattice_points)

    @cached_property
    def facets(self):
        pts = self.lattice_points
        out = []
        for normal, offset in self._facet_pairs:
            idx = tuple(i for i, z in enumerate(pts) if dot(normal, z) == offset)
            points_on = frozenset(pts[i] for i in idx)
            out.append(FacetForm(normal, offset, idx, points_on))
        return tuple(out)

    def facet_index(self, facet):
        for i, f in enumerate(self.facets):
            if f.key() == facet.key():
                return i
        raise ValueError("facet form does not belong to this polytope")

    def contains(self, z):
        if self.dim == 0:
            return tuple(z) == self.vertices[0]
        if self.is_full_dimensional:
            return all(dot(a, z) >= b for a, b in self._facet_pairs)
        return tuple(z) in self.lattice_set

    def height(self, facet, z, degree=1):
        """normal . z - degree * offset, for one of this polytope's facets."""
        self.facet_index(facet)
        return dot(facet.normal, z) - degree * facet.offset

    @cached_property
    def _full_dim_model(self):
        """(Q, embed): Q full-dimensional over the saturated coordinate
        lattice of aff(P), embed carrying Q's points back into Z^n."""
        x0 = min(self.vertices)
        diffs = [vec_sub(v, x0) for v in self.vertices if v != x0]
        if not diffs:
            raise InternalCheckError("no full-dimensional model for a point")
        basis = saturation_basis(diffs)
        bt = transpose(basis)
        new_verts = []
        for v in self.vertices:
            sol = solve_int(bt, vec_sub(v, x0))
            if sol is None or any(c.denominator != 1 for c in sol):
                raise InternalCheckError("vertex outside the saturated lattice")
            new_verts.append(tuple(int(c) for c in sol))
        q = Polytope(new_verts, len(basis), name=self.name)
        embed = AffineLatticeMap(bt, x0)
        return q, embed


def polytope_from_points(points, name=None):
    """Hull of the given integer points: vertex set plus cached geometry."""
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
    if n == 0:
        return Polytope([()], 0, name=name)
    x0 = pts[0]
    diffs = [vec_sub(p, x0) for p in pts[1:]]
    d = rank_int(diffs) if diffs else 0
    if d == 0:
        return Polytope([x0], n, name=name)
    if d == n:
        pairs = facet_inequalities(pts)
        p = Polytope(_extreme_points(pts, pairs, n), n, name=name)
        # the hull of all points has the same facets as the hull of its
        # vertices, so the double description need not run again
        p._facet_pairs = tuple(pairs)
        return p
    basis = saturation_basis(diffs)
    bt = transpose(basis)
    coords = []
    for p in pts:
        sol = solve_int(bt, vec_sub(p, x0))
        coords.append(tuple(int(c) for c in sol))
    pairs = facet_inequalities(coords)
    verts_low = _extreme_points(coords, pairs, d)
    embed = AffineLatticeMap(bt, x0)
    return Polytope([embed.apply(v) for v in verts_low], n, name=name)


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

    Returns (Q, carry) where carry maps points of P onto points of Q and
    carry.inverse embeds Q's points back into the original coordinates.
    Uses the Hermite basis of the difference lattice of all of L_P, not just
    the vertices.  Idempotent: normalized input comes back unchanged with
    the identity map.
    """
    if p.is_normalized:
        return p, AffineLatticeMap.identity(p.ambient_dim)
    pts = p.lattice_points
    n = p.ambient_dim
    if len(pts) == 1:
        x0 = pts[0]
        fwd = AffineLatticeMap((), ())
        fwd.inverse = AffineLatticeMap(tuple(() for _ in range(n)), x0, fwd)
        return Polytope([()], 0, name=p.name), fwd
    x0 = pts[0]
    h, _ = hermite_normal_form([vec_sub(z, x0) for z in pts[1:]])
    basis = tuple(r for r in h if any(r))
    r = len(basis)
    bt = transpose(basis)
    if r == n:
        fwd_matrix = mat_inverse_frac(bt)
    else:
        # left inverse (B^T B)^{-1} B^T of the n x r basis matrix; exact on
        # the affine lattice x0 + rowspan(basis), which contains L_P
        btb = tuple(tuple(dot(basis[i], basis[j]) for j in range(r)) for i in range(r))
        btb_inv = mat_inverse_frac(btb)
        fwd_matrix = tuple(
            tuple(sum(btb_inv[i][k] * basis[k][j] for k in range(r)) for j in range(n))
            for i in range(r)
        )
    t = tuple(-sum(row[j] * x0[j] for j in range(n)) for row in fwd_matrix)
    fwd = AffineLatticeMap(fwd_matrix, t)
    fwd.inverse = AffineLatticeMap(bt, x0, fwd)
    q = Polytope([fwd.apply(v) for v in p.vertices], r, name=p.name)
    if not q.is_normalized:
        raise InternalCheckError("normalization did not reach the full lattice")
    return q, fwd


# ---------------------------------------------------------------------------
# predicates, transforms, invariants


def is_unimodular_simplex(p):
    """Simplex whose edge lattice at a vertex is a direct summand of Z^n."""
    verts = p.vertices
    if len(verts) != p.dim + 1:
        return False
    v0 = verts[0]
    diffs = [vec_sub(v, v0) for v in verts[1:]]
    if rank_int(diffs) != len(diffs):
        return False
    h, _ = hermite_normal_form(diffs)
    rows = [row for row in h if any(row)]
    r = len(rows)
    # direct summand iff the gcd of all maximal minors is 1
    g = 0
    for colset in itertools.combinations(range(p.ambient_dim), r):
        sub = [[row[c] for c in colset] for row in rows]
        g = gcd(g, abs(det_int(sub)))
        if g == 1:
            return True
    return g == 1


def translate(p, t):
    return Polytope([vec_add(v, t) for v in p.vertices], p.ambient_dim, name=p.name)


def linear_image(p, u):
    """Image of P under an integer matrix (tuple of rows) acting on points."""
    return Polytope([mat_vec(u, v) for v in p.vertices], len(u), name=p.name)


def dilate(p, k):
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    return Polytope([vec_scale(k, v) for v in p.vertices], p.ambient_dim, name=p.name)


def normalized_volume(p):
    """dim! times the euclidean volume, an integral-affine invariant."""
    if p.dim == 0:
        return 1
    if p.is_full_dimensional:
        return _nvol_full(p)
    q, _ = normalize_full_dim(p)
    return _nvol_full(q)


def _nvol_full(p):
    # pyramid decomposition from a vertex: nvol(P) = sum over facets of
    # lattice height times the facet's own normalized volume
    n = p.ambient_dim
    if n == 1:
        return max(v[0] for v in p.vertices) - min(v[0] for v in p.vertices)
    v0 = p.vertices[0]
    total = 0
    for normal, offset in p._facet_pairs:
        height = dot(normal, v0) - offset
        if height == 0:
            continue
        facet_verts = [v for v in p.vertices if dot(normal, v) == offset]
        basis = kernel_basis_int([normal])
        bt = transpose(basis)
        anchor = facet_verts[0]
        proj = []
        for v in facet_verts:
            sol = solve_int(bt, vec_sub(v, anchor))
            proj.append(tuple(int(c) for c in sol))
        total += height * _nvol_full(Polytope(proj, n - 1))
    return total


def integral_affine_equivalent(p, q):
    """A lattice-affine bijection carrying P onto Q, or None.

    Pure translations are tried first.  Polygons are compared by their
    normal forms, and the map is the one between the two frames that reach
    the minimum.  In other dimensions a canonical affinely spanning vertex
    tuple of P is sent to every ordered vertex tuple of Q in turn;
    deterministic first-found under canonical order.
    """
    if p.ambient_dim != q.ambient_dim or p.dim != q.dim:
        return None
    if len(p.vertices) != len(q.vertices):
        return None
    if len(p.lattice_points) != len(q.lattice_points):
        return None
    n = p.ambient_dim
    if n == 0:
        return AffineLatticeMap.identity(0)
    # pure translations first, so equal-up-to-shift inputs get the shift map
    shift = vec_sub(min(q.vertices), min(p.vertices))
    if {vec_add(v, shift) for v in p.vertices} == set(q.vertices):
        return AffineLatticeMap.translation_map(shift)
    if n == 2:
        form_p, frame_p = _min_polygon_frame(p)
        form_q, frame_q = _min_polygon_frame(q)
        if form_p != form_q:
            return None
        amap = unimodular_frame_map(frame_p, frame_q)
        if amap is None:
            raise InternalCheckError("equal normal forms without a frame map")
        return amap
    anchor = _spanning_tuple(p)
    q_vert_set = set(q.vertices)
    for image in itertools.permutations(q.vertices, n + 1):
        amap = unimodular_frame_map(anchor, image)
        if amap is not None and {amap.apply(v) for v in p.vertices} == q_vert_set:
            return amap
    return None


def unimodular_frame_map(frame, image):
    """The lattice-affine map sending the affinely spanning point tuple
    ``frame`` onto ``image`` in order, or None if it is not unimodular.

    The linear part is W adj(V) / det(V), where the columns of V and W are
    the differences to the first point of each tuple.
    """
    v0, w0 = frame[0], image[0]
    vmat = transpose([vec_sub(v, v0) for v in frame[1:]])
    wmat = transpose([vec_sub(w, w0) for w in image[1:]])
    det = det_int(vmat)
    det_w = det_int(wmat)
    if abs(det_w) != abs(det):
        return None
    prod = mat_mul(wmat, adjugate_int(vmat))
    if any(x % det for row in prod for x in row):
        return None
    u = tuple(tuple(x // det for x in row) for row in prod)
    # det(u) = det_w / det is a unit, so u's inverse is det(u) adj(u)
    unit = det_w // det
    uinv = tuple(tuple(unit * x for x in row) for row in adjugate_int(u))
    fwd = AffineLatticeMap(u, vec_sub(w0, mat_vec(u, v0)))
    fwd.inverse = AffineLatticeMap(uinv, vec_sub(v0, mat_vec(uinv, w0)), fwd)
    return fwd


def _spanning_tuple(p):
    """The first affinely spanning vertex tuple in vertex order."""
    n = p.ambient_dim
    chosen = [p.vertices[0]]
    diffs = []
    for v in p.vertices[1:]:
        cand = diffs + [vec_sub(v, chosen[0])]
        if rank_int(cand) > len(diffs):
            chosen.append(v)
            diffs = cand
        if len(chosen) == n + 1:
            break
    if len(chosen) < n + 1:
        raise InternalCheckError("could not span a full-dimensional polytope")
    return tuple(chosen)


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
    return _min_polygon_frame(p)[0]


def _min_polygon_frame(p):
    """(normal form, (v, a, b)) for the first frame reaching the minimum."""
    cyc = polygon_cycle(p)
    m = len(cyc)
    best = None
    for i, v in enumerate(cyc):
        prev, nxt = cyc[i - 1], cyc[(i + 1) % m]
        for a, b in ((nxt, prev), (prev, nxt)):
            (r0, r1), (s0, s1) = _frame_matrix(vec_sub(a, v), vec_sub(b, v))
            form = tuple(sorted(
                (r0 * (w[0] - v[0]) + r1 * (w[1] - v[1]),
                 s0 * (w[0] - v[0]) + s1 * (w[1] - v[1]))
                for w in cyc
            ))
            if best is None or form < best[0]:
                best = (form, (v, a, b))
    return best


def _frame_matrix(ea, eb):
    """The U in GL2(Z) with U primitive(ea) = (1, 0) and U eb = (x, y),
    0 <= x < y; ea and eb must be linearly independent."""
    dx, dy = primitive_part(ea)
    _, x, y = extended_gcd(dx, dy)
    # rows (x, y) and (-dy, dx) have determinant 1 and send (dx, dy) to (1, 0)
    s0, s1 = -dy, dx
    height = s0 * eb[0] + s1 * eb[1]
    if height < 0:
        s0, s1, height = -s0, -s1, -height
    k = (x * eb[0] + y * eb[1]) // height
    return (x - k * s0, y - k * s1), (s0, s1)


def _half_plane(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_cmp(a, b):
    ha, hb = _half_plane(a), _half_plane(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


# orders nonzero integer vectors counterclockwise, starting at direction (1, 0)
angular_key = functools.cmp_to_key(_angular_cmp)


def polygon_cycle(p):
    """Vertices of a polygon in counterclockwise cyclic order, by angle
    around the centroid (scaled by the vertex count to stay integral)."""
    if p.dim != 2 or p.ambient_dim != 2:
        raise ValueError("polygon_cycle needs a full-dimensional polygon")
    verts = p.vertices
    m = len(verts)
    sx = sum(v[0] for v in verts)
    sy = sum(v[1] for v in verts)
    return tuple(
        sorted(verts, key=lambda v: angular_key((m * v[0] - sx, m * v[1] - sy)))
    )


# ---------------------------------------------------------------------------
# normal fans and projective equivalence


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
    """Vertex pairs joined by an edge: common active facets of rank dim-1."""
    facets = p.facets
    n = p.ambient_dim
    offsets = {f.normal: f.offset for f in facets}
    active = {
        v: [f.normal for f in facets if dot(f.normal, v) == f.offset]
        for v in p.vertices
    }
    adj = {v: [] for v in p.vertices}
    for u, w in itertools.combinations(p.vertices, 2):
        common = [a for a in active[u] if dot(a, w) == offsets[a]]
        if len(common) >= n - 1 and rank_int(common) == n - 1:
            adj[u].append(w)
            adj[w].append(u)
    return adj


def normal_fan(p):
    if not p.is_full_dimensional:
        raise ValueError("normal fan requires a full-dimensional polytope")
    if p.dim == 1:
        a, b = p.vertices
        return NormalFan(
            [
                (a, (primitive_part(vec_sub(a, b)),)),
                (b, (primitive_part(vec_sub(b, a)),)),
            ]
        )
    adj = vertex_adjacency(p)
    cones = []
    for v in p.vertices:
        gens = tuple(sorted(primitive_part(vec_sub(v, w)) for w in adj[v]))
        cones.append((v, gens))
    return NormalFan(cones)


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
