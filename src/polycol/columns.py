"""Column structures of a lattice polytope.

A nonzero integer vector v is a column vector when some facet F exists such
that every lattice point off F is carried back into the polytope by v; that
facet is the (unique) base facet.  This module computes the set of column
vectors, the partial product, strict and weak hulls, balancedness,
Col-divisibility, the classification of balanced polygons, rigid systems of
column vectors, and the compatibility predicate for maps between column
structures.

All operations require a normalized full-dimensional polytope: with the
lattice points affinely generating the ambient lattice, the base-facet form
evaluates to exactly -1 on its column vectors, which both prunes the search
and keeps the polytopal-algebra shears well defined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .exactmath import (
    dot,
    primitive_part,
    vec_add,
    vec_neg,
    vec_sub,
)
from .polytopes import (
    InternalCheckError,
    dilate,
    integral_affine_equivalent,
    linear_image,
    normalized_volume,
    polygon_cycle,
    polytope_from_points,
    projectively_equivalent,
    unimodular_frame_map,
)


class ColumnVector(NamedTuple):
    vector: tuple
    base: int  # index into the polytope's facet list

    def __repr__(self):
        return f"Col({self.vector}, base={self.base})"


def column_vectors(p, pruned=True):
    """All column vectors of p with their base facets, canonically sorted.

    Candidates are differences of lattice points; with ``pruned`` (the
    default) only differences at height -1 over some facet are examined.
    The literal definition is verified for every vector that is returned,
    so pruning never changes the result on normalized input; ``--no-prune``
    style runs exist to double-check exactly that.  Callers that only need
    Col(P) read ``product_table(p).columns``, which searches once per
    polytope object.
    """
    if not p.is_normalized:
        raise ValueError(
            "column structures need a normalized full-dimensional polytope"
        )
    if p.dim < 1:
        raise ValueError("column vectors need dimension >= 1")
    pts = p.lattice_points
    pset = p.lattice_set
    facets = p.facets
    diffs = sorted({vec_sub(y, x) for x in pts for y in pts if y != x})
    out = []
    for v in diffs:
        if pruned and not any(dot(f.normal, v) == -1 for f in facets):
            continue
        stuck = [x for x in pts if vec_add(x, v) not in pset]
        if not stuck:
            raise InternalCheckError(
                f"{v} shifts every lattice point inside a bounded polytope"
            )
        bases = [i for i, f in enumerate(facets) if f.points_on.issuperset(stuck)]
        if not bases:
            continue
        if len(bases) > 1:
            raise InternalCheckError(f"column vector {v} has several base facets")
        base = bases[0]
        if dot(facets[base].normal, v) != -1:
            raise InternalCheckError(
                f"column vector {v} has base height != -1 on normalized input"
            )
        out.append(ColumnVector(v, base))
    return tuple(out)


class ProductTable:
    """The finite partial product on Col(P).

    For each ordered pair of column indices the entry is ("product", k),
    ("zero",) when the vectors cancel, or ("none",).  ``rows[i][j]`` holds
    it, at one pointer per entry: a table stays in memory for as long as
    its polytope does.
    """

    def __init__(self, columns, rows):
        self.columns = columns
        self.index = {c.vector: i for i, c in enumerate(columns)}
        self.rows = rows
        self.products = tuple(
            (i, j, entry[1])
            for i, row in enumerate(rows)
            for j, entry in enumerate(row)
            if entry[0] == "product"
        )

    def entry(self, i, j):
        return self.rows[i][j]

    def product_of(self, u, v):
        """The column u*v for two columns of this table, or None."""
        entry = self.rows[self.index[u.vector]][self.index[v.vector]]
        return self.columns[entry[1]] if entry[0] == "product" else None


def product_table(p):
    """Col(P) and its partial product, built once per polytope object.

    The table is stored on ``p`` itself (next to its cached properties), so
    it lives exactly as long as ``p`` and is never shared with an equal
    polytope.
    """
    table = p.__dict__.get("_product_table")
    if table is not None:
        return table
    cols = column_vectors(p)
    facets = p.facets
    pts = p.lattice_points
    index = {c.vector: i for i, c in enumerate(cols)}
    rows = []
    # precompute, per base facet, the points off the facet
    off_facet = {}
    for i, c in enumerate(cols):
        if c.base not in off_facet:
            on = facets[c.base].points_on
            off_facet[c.base] = [x for x in pts if x not in on]
    for u in cols:
        row = []
        rows.append(row)
        for v in cols:
            s = vec_add(u.vector, v.vector)
            if not any(s):
                row.append(("zero",))
                continue
            target = facets[v.base].points_on
            exists = all(
                vec_add(x, u.vector) not in target for x in off_facet[u.base]
            )
            if not exists:
                row.append(("none",))
                continue
            k = index.get(s)
            if k is None:
                raise InternalCheckError(
                    f"product {u.vector}*{v.vector} exists but {s} is not a column"
                )
            if cols[k].base != u.base:
                raise InternalCheckError(
                    f"product {s} does not inherit the left base facet"
                )
            row.append(("product", k))
    table = p.__dict__["_product_table"] = ProductTable(cols, rows)
    return table


def _as_column(table, v):
    if isinstance(v, ColumnVector):
        vec = v.vector
    else:
        vec = tuple(v)
    i = table.index.get(vec)
    if i is None:
        raise ValueError(f"{vec} is not a column vector of this polytope")
    return i


def product(p, u, v):
    """u*v = u+v with base P_u when the product exists, else None."""
    table = product_table(p)
    u, v = (table.columns[_as_column(table, c)] for c in (u, v))
    return table.product_of(u, v)


def weak_product(p, vs):
    """Product of a sequence under some bracketing, or None.

    The value never depends on the bracketing (it is the plain sum), so only
    existence is searched, by interval dynamic programming.
    """
    table = product_table(p)
    idx = [_as_column(table, v) for v in vs]
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
            entry = table.entry(left, right)
            if entry[0] == "product":
                result = entry[1]
                break
        memo[(i, j)] = result
        return result

    k = exists(0, n - 1)
    return table.columns[k] if k is not None else None


def weak_hull(p, vectors):
    """Closure of the given columns under binary products."""
    table = product_table(p)
    current = {_as_column(table, v) for v in vectors}
    while True:
        new = set()
        for i, j in itertools.product(current, repeat=2):
            entry = table.entry(i, j)
            if entry[0] == "product" and entry[1] not in current:
                new.add(entry[1])
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
    gens = sorted({_as_column(table, v) for v in vectors})
    result = set(gens)
    # state: (last column index, frozenset of suffix sums, total sum)
    start = [(g, frozenset([table.columns[g].vector]), table.columns[g].vector)
             for g in gens]
    seen = set(start)
    stack = list(start)
    while stack:
        last, suffixes, total = stack.pop()
        for g in gens:
            entry = table.entry(last, g)
            if entry[0] != "product":
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
    base and height >= 0 over every other facet.
    """
    table = product_table(p)
    cols = table.columns
    facets = p.facets
    one_sided = True
    absolute = True
    witness = None
    for u in cols:
        normal = facets[u.base].normal
        for v in cols:
            val = dot(normal, v.vector)
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

    def exists(i, j):
        return table.entry(i, j)[0] == "product"

    def prod_is(i, j, k):
        e = table.entry(i, j)
        return e[0] == "product" and e[1] == k

    m = len(cols)
    for a, b, c in itertools.product(range(m), repeat=3):
        if a == b or not (exists(a, c) and exists(b, c)):
            continue
        d1 = table.index.get(vec_sub(cols[a].vector, cols[b].vector))
        d2 = table.index.get(vec_sub(cols[b].vector, cols[a].vector))
        if d1 is not None and prod_is(d1, b, a):
            continue
        if d2 is not None and prod_is(d2, a, b):
            continue
        return False, ("cd1", cols[a], cols[b], cols[c])
    for (a, b, k1) in table.products:
        for (c, d, k2) in table.products:
            if k1 != k2 or a == c:
                continue
            t1 = table.index.get(vec_sub(cols[c].vector, cols[a].vector))
            t2 = table.index.get(vec_sub(cols[a].vector, cols[c].vector))
            if t1 is not None and prod_is(a, t1, c) and prod_is(t1, d, b):
                continue
            if t2 is not None and prod_is(c, t2, a) and prod_is(t2, b, d):
                continue
            return False, ("cd2", cols[a], cols[b], cols[c], cols[d])
    return True, None


# ---------------------------------------------------------------------------
# balanced polygon classification


@dataclass(frozen=True)
class PolygonClassification:
    label: str
    vectors: dict
    same_base_count: Optional[int] = None
    witness: Optional[object] = None


class UnclassifiablePolygonError(InternalCheckError):
    """A balanced polygon matched none of the six signatures."""


UNIT_TRIANGLE_VERTICES = ((0, 0), (1, 0), (0, 1))
TRAPEZOID_VERTICES = ((0, 0), (2, 0), (1, 1), (0, 1))
UNIT_SQUARE_VERTICES = ((0, 0), (1, 0), (0, 1), (1, 1))


def classify_balanced_polygon(p):
    """Class label a-f for a balanced polygon, from its column signature.

    Signature order tests the negation-closed families first.  Classes a, b
    and e additionally carry the reference-polygon witness (an equivalence
    to a triangle multiple, a fan match with the standard trapezoid, or a
    fan match with the unit square).  A signature mismatch, or a matched
    signature whose witness cannot be realized, raises: every balanced
    polygon must land in exactly one class.
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
            k = math.isqrt(normalized_volume(p))
            ref = dilate(polytope_from_points(UNIT_TRIANGLE_VERTICES), k)
            amap = integral_affine_equivalent(p, ref)
            if k * k != normalized_volume(p) or amap is None:
                raise UnclassifiablePolygonError(
                    f"class-a signature but not a triangle multiple: {p.vertices}"
                )
            return PolygonClassification(
                "a", {"columns": cols},
                witness=("triangle_multiple", k, amap.key()),
            )
    if len(cols) == 4 and len(pairs) == 2:
        labeled = _match_trapezoid_relations(table)
        if labeled is not None:
            u = _fan_witness(p, polytope_from_points(TRAPEZOID_VERTICES))
            if u is None:
                raise UnclassifiablePolygonError(
                    f"class-b signature but no trapezoid fan match: {p.vertices}"
                )
            return PolygonClassification(
                "b", labeled, witness=("fan_match_trapezoid", u)
            )
    if len(cols) == 4 and len(pairs) == 4 and n_products == 0:
        u = _fan_witness(p, polytope_from_points(UNIT_SQUARE_VERTICES))
        if u is None:
            raise UnclassifiablePolygonError(
                f"class-e signature but no square fan match: {p.vertices}"
            )
        return PolygonClassification(
            "e", {"columns": cols}, witness=("fan_match_square", u)
        )
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


def _fan_witness(p, ref):
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

    frame = ((0, 0),) + edge_dirs(cyc_p, 0)
    for i in range(len(cyc_r)):
        e1, e2 = edge_dirs(cyc_r, i)
        for image in (((0, 0), e1, e2), ((0, 0), e2, e1)):
            amap = unimodular_frame_map(frame, image)
            if amap is not None and projectively_equivalent(
                linear_image(p, amap.matrix), ref
            ):
                return amap.matrix
    return None


def _triangle_relations(table):
    # the six products must compose like oriented edges of a triangle:
    # every product's value is again a column, bases chain accordingly,
    # and each column occurs exactly twice as a left factor
    left_counts = {}
    for (i, j, k) in table.products:
        left_counts[i] = left_counts.get(i, 0) + 1
    return sorted(left_counts.values()) == [1] * 6


def _match_trapezoid_relations(table):
    cols = table.columns
    vecs = {c.vector: c for c in cols}
    paired = [c for c in cols if vec_neg(c.vector) in vecs]
    unpaired = [c for c in cols if vec_neg(c.vector) not in vecs]
    if len(paired) != 2 or len(unpaired) != 2:
        return None
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


@dataclass(frozen=True)
class DirectedGraph:
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
        for a, b in self.edges:
            if counts.get((a, b), 0) != 1:
                return f"edge {a}->{b} shadowed by another path"
        if any(counts.get((v, v), 0) for v in self.vertices):
            return "directed cycle"
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


@dataclass(frozen=True)
class RigidCertificate:
    graph: DirectedGraph
    labeling: tuple  # pairs (column vector, (start, end))


@dataclass(frozen=True)
class Rigid:
    certificate: RigidCertificate


@dataclass(frozen=True)
class NotRigid:
    reason: str
    detail: object = None


@dataclass(frozen=True)
class RigidUnknown:
    reason: str


_FALLBACK_CAP = 50000


def is_rigid(p, vectors):
    """Decide rigidity of a set of column vectors.

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
    if isinstance(outcome, Rigid) or isinstance(outcome, NotRigid):
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
        for bi, block in enumerate(current):
            for pt in block:
                merged_parent[pt] = pt if pt == block[0] else block[0]
        outcome = _try_graph(elems, irreducibles, prods,
                             dict(merged_parent), ports)
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
            e = table.entry(table.index[a.vector], table.index[b.vector])
            composable = label[a.vector][1] == label[b.vector][0]
            if (e[0] == "product") != composable:
                return False
            if e[0] == "product":
                r = table.columns[e[1]].vector
                if label[r] != (label[a.vector][0], label[b.vector][1]):
                    return False
    return True


# ---------------------------------------------------------------------------
# maps between column structures


def check_k_morphism(p, q, mapping):
    """Check compatibility of a map Col(P) -> Col(Q).

    Condition one: base-facet pairings are preserved exactly; condition two:
    existing products map to existing products.  Returns (flag, violations).
    """
    tp = product_table(p)
    tq = product_table(q)
    mu = {}
    for src, dst in mapping.items():
        i = _as_column(tp, src)
        j = _as_column(tq, dst)
        mu[i] = j
    if set(mu) != set(range(len(tp.columns))):
        raise ValueError("mapping must be total on Col(P)")
    violations = []
    fp = p.facets
    fq = q.facets
    for w, v in itertools.product(range(len(tp.columns)), repeat=2):
        lhs = dot(fp[tp.columns[w].base].normal, tp.columns[v].vector)
        rhs = dot(fq[tq.columns[mu[w]].base].normal, tq.columns[mu[v]].vector)
        if lhs != rhs:
            violations.append(
                ("pairing", tp.columns[w], tp.columns[v], lhs, rhs)
            )
    for (i, j, k) in tp.products:
        e = tq.entry(mu[i], mu[j])
        if e[0] != "product" or e[1] != mu[k]:
            violations.append(
                ("product", tp.columns[i], tp.columns[j], tp.columns[k])
            )
    return (not violations), violations


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
