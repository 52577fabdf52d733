"""Graded automorphisms of the polytopal algebra of a lattice polytope.

The algebra is the semigroup ring of the monoid generated by (z, 1) for the
lattice points z, graded so every lattice point sits in degree one.  Graded
automorphisms are represented faithfully by their sparse degree-one columns:
the image of each degree-one monomial, in canonical lattice-point order, with
its nonzero coefficients only.  Every automorphism a command builds is a
composite of elementary column shears.

The shear identities are identities of polynomials in the scalars, so they
hold over every commutative ring at once, and each is decided over Z: at
scalars 1 where the monomial grading pins each coefficient to a single
term, and by Kronecker substitution where it does not.

The graded semigroup is held slice by slice, each built once from the one
below it and stored on the polytope; so are the supports of the shear
columns, walked once per column.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import add

from .columns import is_balanced, product_table
from .exactmath import (
    ZZ,
    rank_int,
    vec_add,
    vec_neg,
)
from .polytopes import InternalCheckError, lattice_equivalences


# ---------------------------------------------------------------------------
# the graded semigroup


def sp_membership(p, z, degree):
    """Is (z, degree) a sum of `degree` degree-one generators?

    The semigroup can miss integral points of the cone over P, so this reads
    the graded semigroup itself, slice by slice: S_0 = {0} and
    S_d = S_{d-1} + L_P, since a sum of d generators is a sum of d - 1
    generators plus one lattice point.  The slices are stored on ``p`` and
    live as long as ``p`` does.  No command calls it; the tests read it as
    the oracle of ``check_column_property``, and the benchmark tracer in
    ``perfbench/`` spans it by name.
    """
    return tuple(z) in _semigroup_slice(p, degree)


def _semigroup_slice(p, degree):
    """S_degree, the degree-th slice of the graded semigroup, as a set."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    slices = p.__dict__.get("_semigroup_slices")
    if slices is None:
        slices = p.__dict__["_semigroup_slices"] = [{(0,) * p.ambient_dim}]
    while len(slices) <= degree:
        slices.append(_next_slice(slices[-1], p.lattice_points))
    return slices[degree]


def _next_slice(previous, points):
    return {vec_add(a, x) for a in previous for x in points}


def check_column_property(p, col):
    """Every monomial off the base face cone shifts by the column vector.

    The shift is checked in degree one, as x + v in L_P for every lattice
    point x off the base facet F, and that decides every degree.  A
    degree-d monomial off the cone over F is z = x_1 + ... + x_d with each
    x_i in L_P; its height over F is the sum of theirs, so some x_i is off
    F, and then z + v = x_1 + ... + (x_i + v) + ... + x_d is again a sum of
    d lattice points.  Returns (flag, violations), each violation the
    degree-one monomial (x, 1).
    """
    table = product_table(p)
    col = table.columns[table.column(col)]
    index = p.point_index
    violations = [
        (x, 1)
        for x, h in zip(p.lattice_points, p.facet_heights[col.base])
        if h > 0 and vec_add(x, col.vector) not in index
    ]
    return (not violations), violations


# ---------------------------------------------------------------------------
# graded automorphisms as sparse degree-one columns


class GradedAutomorphism:
    """A graded algebra automorphism through its sparse degree-one columns.

    Column j is the image of the j-th degree-one monomial, in canonical
    lattice-point order, as a dict {row index: coefficient}.  No zero
    coefficient is ever stored, so equal automorphisms have equal columns;
    degree one generates the algebra, so equality of columns is equality of
    automorphisms.  A column dict may be shared between automorphisms (a
    composite reuses the left factor's column wherever the right factor's
    column is a single unit entry), so columns are never mutated.
    """

    def __init__(self, polytope, ring, columns):
        self.polytope = polytope
        self.ring = ring
        self.columns = tuple(columns)

    def compose(self, other):
        """self after other."""
        if (
            self.polytope is not other.polytope and self.polytope != other.polytope
        ) or self.ring is not other.ring:
            raise ValueError("automorphisms live on different algebras")
        one = self.ring.one
        mine = self.columns
        columns = []
        for col in other.columns:
            # the body runs at most once: the first entry seeds the sum (a
            # unit entry with a copy of the left column, or with the column
            # itself when it stands alone), and the inner loop adds the rest
            entries = iter(col.items())
            acc = {}
            for k, c in entries:
                if c != one:
                    acc = {i: a * c for i, a in mine[k].items()}
                elif len(col) == 1:
                    acc = mine[k]
                    break
                else:
                    acc = dict(mine[k])
                get = acc.get
                for k, c in entries:
                    for i, a in mine[k].items():
                        x = get(i)
                        acc[i] = a * c if x is None else x + a * c
                if not all(acc.values()):
                    acc = {i: x for i, x in acc.items() if x}
            columns.append(acc)
        return GradedAutomorphism(self.polytope, self.ring, columns)

    def is_identity(self):
        one = self.ring.one
        return all(
            len(col) == 1 and col.get(j) == one
            for j, col in enumerate(self.columns)
        )

    def __eq__(self, other):
        if not isinstance(other, GradedAutomorphism):
            return NotImplemented
        return (
            self.polytope == other.polytope
            and self.ring is other.ring
            and self.columns == other.columns
        )

    def __hash__(self):
        # the columns alone: equal automorphisms have equal columns
        return hash(tuple(map(frozenset, map(dict.items, self.columns))))

    def __repr__(self):
        return f"GradedAutomorphism({self.ring!r}, {self.columns})"


def elementary_automorphism(p, col, lam, ring):
    """The shear sending x to (1 + lam * v)^(height of x) times x.

    The column of x expands binomially through the points x + k v, all of
    which are lattice points because heights over the base facet drop by
    exactly one per step.  Each column's support, the indices of x, x + v,
    ..., x + h v, is walked once per polytope object and stored on ``p``
    (``_shear_supports``); a shear then only computes one binomial row
    (binom(h, k) lam^k) per height, from the row below it by Pascal's rule
    in the ring: binom(h, k) lam^k = binom(h - 1, k) lam^k
    + lam binom(h - 1, k - 1) lam^(k - 1).  Terms that vanish in the ring
    (lam = 0, or over Z/m a binomial coefficient divisible by m) are not
    stored.
    ``product_table(p)`` refuses a non-normalized P: it runs
    ``column_vectors``, which raises ValueError, and only the double of a
    normalized P has a seeded table.
    """
    table = product_table(p)
    supports = _shear_supports(p, table, table.column(col))
    one = ring.one
    rows = [[one]]
    for _ in range(1, max(map(len, supports))):
        prev = rows[-1]
        rows.append([one, *(a + lam * b for a, b in zip(prev[1:], prev)),
                     lam * prev[-1]])
    columns = [dict(zip(support, rows[len(support) - 1])) for support in supports]
    if not all(map(all, rows)):  # some term vanishes in the ring
        columns = [{i: c for i, c in col.items() if c} for col in columns]
    return GradedAutomorphism(p, ring, columns)


def _shear_supports(p, table, j):
    """Per lattice point x of height h over the base of column j, the
    indices of x, x + v, ..., x + h v; walked once and stored on ``p``.

    v has height -1 over the base, so x + v lies one lower than x, and the
    points are taken in order of height: support(x) = (x,) + support(x + v),
    one lookup per point off the base.
    """
    supports = p.__dict__.setdefault("_shear_supports", {})
    out = supports.get(j)
    if out is None:
        col = table.columns[j]
        v = col.vector
        index = p.point_index
        pts, heights = p.lattice_points, p.facet_heights[col.base]
        out = [None] * len(pts)
        for i in sorted(range(len(pts)), key=heights.__getitem__):
            if heights[i]:
                t = index.get(tuple(map(add, pts[i], v)))
                if t is None:
                    raise InternalCheckError(f"{pts[i]} + {v} escaped the polytope")
                out[i] = (i, *out[t])
            else:
                out[i] = (i,)
        out = supports[j] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# lattice symmetries


def lattice_symmetries(p):
    """All affine lattice self-maps of P, as AffineLatticeMaps sorted by
    matrix, then translation.  On Z^0, ``lattice_equivalences(p, p)``
    yields the identity."""
    if not p.is_full_dimensional:
        raise ValueError("symmetries need a full-dimensional polytope")
    return sorted(lattice_equivalences(p, p), key=lambda m: (m.matrix, m.translation))


def symmetry_group_data(p):
    """Orders of the symmetry group G and the inversion subgroup H = <S>, S
    the column inversions s_v, and whether H is normal in G, which it is for
    every P.  No group is built: |G| counts ``lattice_symmetries``, and |H|
    is |W(Phi)| for Phi, the two-sided columns: v with -v also a column.

    With (a_+, b_+) and (a_-, b_-) the forms of the bases of v and -v, and
    h_+ and h_- the heights over them, s_v moves x to x + (h_+(x) - h_-(x)) v.
    A g(x) = L x + t in G maps facets to facets and keeps heights: the form
    (a, b) of F goes to (a L^-1, b + a L^-1 t), and g(x) lies as high over
    g(F) as x over F.  As g permutes L_P, L v is a column with base g(F)
    when v is one with base F, and -L v is one when -v is.  So
    g s_v g^-1 = s_{L v}, as both move g(x) by (h_+(x) - h_-(x)) L v, and
    g H g^-1 = <g S g^-1> lies in H.

    H is isomorphic to W(Phi).  (1) The linear part x -> x + ((a_+ - a_-) x) v
    of s_v fixes a hyperplane and sends v to -v, as a_+ v = -1 and
    a_- v = 1 on normalized P: it is a reflection.  (2) By the lemma with
    g = s_u, these reflections permute Phi; a reflection keeping a finite
    spanning set and negating one of its vectors is unique (J. E. Humphreys,
    "Introduction to Lie Algebras and Representation Theory", Springer 1972,
    section 9.1), so on span Phi they generate W(Phi).  (3) Each s_v moves x
    along span Phi only, so an element of H that is the identity on span Phi
    has a unipotent linear part, which has finite order and is the identity.
    (4) An element with identity linear part is a translation keeping P, so
    it is trivial.

    Each component of Phi is of type A (Bruns and Gubeladze, "Polytopal
    linear groups", J. Algebra 218 (1999), section 1), and A_r has rank r,
    r(r + 1) roots and |W(A_r)| = (r + 1)!.  Roots u and v are joined when
    u + v is 0 or a root (u - v a root joins them through -v).  A component
    of another size, or an |H| not dividing |G|, is an InternalCheckError.
    """
    table = product_table(p)
    roots = {c.vector for c in table.columns if vec_neg(c.vector) in table.index}
    unseen, inversion_order = set(roots), 1
    while unseen:
        component, stack = [], [unseen.pop()]
        while stack:
            u = stack.pop()
            component.append(u)
            joined = {
                v for v in unseen
                if not any(map(add, u, v)) or tuple(map(add, u, v)) in roots
            }
            unseen -= joined
            stack.extend(joined)
        rank = rank_int(component)
        if len(component) != rank * (rank + 1):
            raise InternalCheckError("two-sided columns must be of type A")
        inversion_order *= factorial(rank + 1)
    symmetry_order = len(lattice_symmetries(p))
    if symmetry_order % inversion_order != 0:
        raise InternalCheckError("inversion subgroup order must divide")
    return {
        "symmetry_order": symmetry_order,
        "inversion_order": inversion_order,
        "quotient_order": symmetry_order // inversion_order,
        "inversions_normal": True,
    }


# ---------------------------------------------------------------------------
# symbolic verification of the commutator relations


def _kronecker_base(p, u, unit):
    """B = 1 + max(top * mass, largest entry of x_u(2)), above every entry
    of x_u(1) x_u(1) and x_u(2), for ``unit`` = x_u(1) over Z with top its
    largest entry and mass its largest column sum.  The entries of x_u(1)
    are positive, so an entry sum_k a_ik a_kj of x_u(1) x_u(1) is at most
    top * sum_k a_kj <= top * mass."""
    top = max(max(col.values()) for col in unit.columns)
    mass = max(sum(col.values()) for col in unit.columns)
    two = elementary_automorphism(p, u, 2, ZZ)
    return 1 + max(top * mass, max(max(col.values()) for col in two.columns))


def _kronecker_additivity(p, u, unit):
    """x_u(lam) x_u(mu) = x_u(lam + mu) over Z[lam, mu], decided at lam = 1,
    mu = B for the B of ``_kronecker_base`` (see
    ``verify_steinberg_relations``); ``unit`` is x_u(1) over Z.  Returns
    the verdict, x_u(B) and x_u(1) x_u(B)."""
    b = _kronecker_base(p, u, unit)
    by_b = elementary_automorphism(p, u, b, ZZ)
    one_b = unit.compose(by_b)
    ok = one_b.columns == elementary_automorphism(p, u, 1 + b, ZZ).columns
    return ok, by_b, one_b


def verify_steinberg_relations(p):
    """Additivity and commutator identities of the column shears, over Z.

    For every column u the composite of shears along u adds exponents; for
    every ordered pair with nonzero sum, the commutator is the shear along
    the product when it exists, and trivial when the sum is not a column.
    Pairs whose sum is a column without an existing product are outside
    both covered cases and reported as skipped, with whether they commute.
    Raises ValueError on a polytope that is not balanced.

    Each commutator is checked with two products instead of three.  Once
    x_u(-t) is known to invert x_u(t), the commutator A B A^-1 B^-1 of
    A = x_u(lam) and B = x_v(mu) equals E exactly when A B = E B A:
    multiply on the right by B A, or by its inverse.  So a pair commutes iff
    x_u(lam) x_v(mu) = x_v(mu) x_u(lam), and the product case holds iff
    x_u(lam) x_v(mu) = x_w(-lam mu) x_v(mu) x_u(lam), where w = u + v.

    Most of these identities are checked over Z at lam = mu = 1, by the
    monomial grading: give the monomial [x] degree x, lam degree -u and mu
    degree -v.  Each shear along u or v, and x_w(-lam mu), maps [x] to a sum
    of c lam^a mu^b [y] with y - a u - b v = x, so it preserves degree, and
    so does every composite of them.  Both sides of each identity are then
    homogeneous: the coefficient of [y] in the image of [x] is a sum of terms
    c lam^a mu^b with a u + b v = y - x.  When u and v are linearly
    independent, (a, b) is fixed by y - x, so that coefficient is a single
    term, determined by its value at lam = mu = 1; two such composites are
    equal over Z[lam, mu] iff they are equal at lam = mu = 1.  The same
    argument with mu absent shows x_u(lam) x_u(-lam) = 1 iff
    x_u(1) x_u(-1) = 1, so one check over Z per column certifies x_u(-t) as
    the inverse of x_u(t) for t = lam and t = mu (a one-sided inverse of a
    square matrix over a commutative ring is two-sided).  The product shear
    x_w(-1) is then the certified inverse shear of w.

    The grading does not separate lam from mu when u and v are parallel, nor
    in the additivity identity; those are decided by Kronecker substitution
    (von zur Gathen and Gerhard, "Modern Computer Algebra").  With lam and
    mu both of degree -u, the coefficient of [x + k u] in the image of [x]
    under x_u(lam) x_u(mu), x_u(mu) x_u(lam) or x_u(lam + mu) is
    homogeneous of degree k with nonnegative coefficients (each shear's are
    binom(h, k) t^k), so its value at (1, 1), an entry of x_u(1) x_u(1) or
    x_u(2), bounds them all.  For B above every such entry, the value at
    (1, B) lists them as base-B digits: additivity holds iff
    x_u(1) x_u(B) = x_u(1 + B).  B = 1 + max(top * mass, largest entry of
    x_u(2)), with top the largest entry of x_u(1) and mass its largest
    column sum, so x_u(1) x_u(1) is not formed: x_u(1) has positive
    entries, so an entry sum_k a_ik a_kj of x_u(1) x_u(1) is at most
    top * sum_k a_kj <= top * mass.  Two columns are never parallel unless
    they are equal or opposite (each has height -1 over its base facet), and
    opposite columns have sum zero, so the only parallel pair is the
    diagonal (u, u), a commute pair since 2u is not a column: it holds iff
    x_u(lam) x_u(mu) = x_u(mu) x_u(lam), which additivity settles.  The
    swap of lam and mu is a ring automorphism of Z[lam, mu]; applied entry
    by entry it respects composition and sends x_u(lam) to x_u(mu), as the
    entries of x_u(t) are binom(h, k) t^k.  So additivity
    x_u(lam) x_u(mu) = x_u(lam + mu) gives x_u(mu) x_u(lam) = x_u(mu + lam)
    = x_u(lam) x_u(mu).  Only where additivity fails is x_u(B) x_u(1)
    composed, and the diagonal decided by Kronecker substitution as
    x_u(1) x_u(B) = x_u(B) x_u(1).  The inverse certificate is never
    inferred this way: x_u(1) x_u(-1) = 1 is composed for every column.

    The pairs are scheduled unordered.  A rank-2 pair i < j composes
    x_u(1) x_v(1) and x_v(1) x_u(1) once and decides both orders from them,
    each with its own E: the product shear of ``rows[i][j]`` or of
    ``rows[j][i]``, or 1 where that entry is None (a skipped order then
    reads as whether the shears commute).  Only the two verdicts are kept,
    and the report reads them back in the row order of ``pair_cases``.
    """
    if not is_balanced(p)[0]:
        raise ValueError("Steinberg relations are verified for balanced polytopes")
    table = product_table(p)
    cols, rows = table.columns, table.rows
    report = {"additivity": [], "pairs": [], "all_ok": True, "balanced": True}
    # per column over Z: x_u(1) and its certified inverse x_u(-1); per
    # ordered pair (i, j): does x_u(1) x_v(1) = E x_v(1) x_u(1) hold
    unit, inverse, verdict = [], [], {}
    for i, u in enumerate(cols):
        unit.append(elementary_automorphism(p, u, 1, ZZ))
        inverse.append(elementary_automorphism(p, u, -1, ZZ))
        if not unit[i].compose(inverse[i]).is_identity():
            raise InternalCheckError(
                f"the shears along {u.vector} by -t do not invert those by t"
            )
        ok, by_b, one_b = _kronecker_additivity(p, u, unit[i])
        report["additivity"].append({"u": u.vector, "ok": ok})
        if not ok:
            report["all_ok"] = False
        if rows[i][i] is not None:
            raise InternalCheckError(f"the product {u.vector}*{u.vector} exists")
        verdict[i, i] = ok or one_b.columns == by_b.compose(unit[i]).columns

    # u and v are parallel exactly when every 2 x 2 minor of [u, v] is 0
    minors = list(itertools.combinations(range(p.ambient_dim), 2))
    for i, j in itertools.combinations(range(len(cols)), 2):
        u, v = cols[i].vector, cols[j].vector
        if not any(vec_add(u, v)):
            continue
        if not any(u[a] * v[b] - u[b] * v[a] for a, b in minors):
            raise InternalCheckError(
                f"parallel columns {u}, {v} in a commutator case"
            )
        uv, vu = unit[i].compose(unit[j]), unit[j].compose(unit[i])
        for a, b, lhs, rhs in ((i, j, uv, vu), (j, i, vu, uv)):
            k = rows[a][b]
            if k is not None:
                rhs = inverse[k].compose(rhs)
            verdict[a, b] = lhs.columns == rhs.columns

    for i, j, case, k in table.pair_cases():
        pair = {"u": cols[i].vector, "v": cols[j].vector, "case": case}
        if case == "skipped":
            pair.update(note="sum is a column but the product does not exist",
                        commutes=verdict[i, j], ok=None)
        else:
            if case == "product":
                pair["result"] = cols[k].vector
            pair["ok"] = verdict[i, j]
            if not pair["ok"]:
                report["all_ok"] = False
        report["pairs"].append(pair)
    return report


# values 0..EMBEDDING_GRID-1 of the first two columns in the injectivity grid
EMBEDDING_GRID = 5


def verify_additive_embedding(p, facet_index):
    """Same-base shears commute and assemble into an additive embedding.

    Commutation is checked at scalar 1 over Z, by the grading argument of
    ``verify_steinberg_relations``: two distinct columns on one base facet
    both have height -1 over it, so they are never parallel.  With
    phi(a) = x_1(a_1) ... x_s(a_s), phi(a + b) = phi(a) phi(b) holds iff
    every column is additive, decided by Kronecker substitution as there,
    and the columns commute: then phi(a + b) = prod x_i(a_i) x_i(b_i)
    = prod x_i(a_i) prod x_i(b_i); conversely, with all other variables at
    0 it reads x_i(a_i + b_i) = x_i(a_i) x_i(b_i), or
    x_i(b_i) x_j(a_j) = x_j(a_j) x_i(b_i) for i < j.  Injectivity is
    certified on a grid of distinct integer tuples whose images over Z
    must be pairwise distinct automorphisms; Z embeds in Q compatibly with
    composition, so that is the same count as over Q.  The grid shears at
    t = 1 are the unit shears of the commutation check, and the images are
    counted by ``_distinct_products``, which composes in full only the
    images that one column does not tell apart.
    """
    table = product_table(p)
    cols = [c for c in table.columns if c.base == facet_index]
    report = {"facet": facet_index, "columns": [c.vector for c in cols]}
    if len(cols) < 2:
        report["status"] = "vacuous"
        report["all_ok"] = True
        return report
    unit = [elementary_automorphism(p, c, 1, ZZ) for c in cols]
    ok_comm = all(
        ei.compose(ej).columns == ej.compose(ei).columns
        for ei, ej in itertools.combinations(unit, 2)
    )
    report["pairwise_commute"] = ok_comm
    report["homomorphism"] = ok_comm and all(
        _kronecker_additivity(p, c, e)[0] for c, e in zip(cols, unit)
    )

    # the grid varies the first two columns and keeps the rest at 0, where
    # their shears are the identity
    first, second = (
        [e if t == 1 else elementary_automorphism(p, c, t, ZZ)
         for t in range(EMBEDDING_GRID)]
        for c, e in zip(cols[:2], unit)
    )
    distinct = _distinct_products(first, second, unit[1].columns)
    report["grid_points"] = EMBEDDING_GRID ** 2
    report["distinct_images"] = distinct
    report["injective_on_grid"] = distinct == EMBEDDING_GRID ** 2
    report["all_ok"] = report["homomorphism"] and report["injective_on_grid"]
    return report


def _distinct_products(first, second, columns):
    """The number of distinct composites x y, x in ``first`` and y in
    ``second``, found by refinement on one column.

    j is the column with the most entries in ``columns``.  Column j of x y
    is sum_k y_kj x_k, so it is formed from column j of y alone, and two
    composites that differ there are distinct.  The pairs are grouped by
    that column; only a group of two or more pairs composes its members in
    full and counts them with a set.  So the count is exact whether or not
    the composites are pairwise distinct.
    """
    j = max(range(len(columns)), key=lambda k: len(columns[k]))
    groups = {}
    for x in first:
        mine = x.columns
        for y in second:
            acc = {}
            for k, c in y.columns[j].items():
                for i, a in mine[k].items():
                    acc[i] = acc.get(i, 0) + a * c
            key = frozenset((i, a) for i, a in acc.items() if a)
            groups.setdefault(key, []).append((x, y))
    return sum(
        1 if len(pairs) == 1 else len({x.compose(y) for x, y in pairs})
        for pairs in groups.values()
    )


# ---------------------------------------------------------------------------
# presentation export


def steinberg_presentation_json(p):
    """Generator and relation schema of the column-shear presentation.

    One generator per column vector; one additive relation per generator;
    one commutator relation per ordered pair in the two covered cases of
    ``ProductTable.pair_cases``, whose ``result`` is the product's index
    (sign -1) or None when the shears commute.  Pairs whose sum is a column
    without a product are left out of the schema and listed as skipped.
    """
    balanced, _ = is_balanced(p)
    if not balanced:
        raise ValueError("presentations are exported for balanced polytopes")
    table = product_table(p)
    cols = table.columns
    generators = [
        {"index": i, "v": list(c.vector), "base": c.base}
        for i, c in enumerate(cols)
    ]
    relations = [{"kind": "add", "i": i} for i in range(len(cols))]
    skipped = []
    for i, j, case, k in table.pair_cases():
        if case == "product":
            relations.append(
                {"kind": "comm", "i": i, "j": j, "result": k, "sign": -1}
            )
        elif case == "commute":
            relations.append({"kind": "comm", "i": i, "j": j, "result": None})
        else:
            skipped.append({"i": i, "j": j})
    return {
        "generators": generators,
        "relations": relations,
        "skipped_pairs": skipped,
    }


def steinberg_presentation_lines(p):
    """``steinberg_presentation_json`` as text lines."""
    data = steinberg_presentation_json(p)
    lines = [f"GEN v{g['index']} base={g['base']}" for g in data["generators"]]
    for r in data["relations"]:
        if r["kind"] == "add":
            lines.append(f"REL add v{r['i']}")
            continue
        k = r["result"]
        rhs = "1" if k is None else f"v{k} sign=-1"
        lines.append(f"REL comm v{r['i']} v{r['j']} -> {rhs}")
    return lines


def steinberg_presentation_mod(p, modulus):
    """Fully finite presentation instantiated over the integers mod m."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    data = steinberg_presentation_json(p)

    def power(k, c):
        return f"v{k}^{c}" if c else "1"

    exponents = range(1, modulus)
    lines = [f"MOD {modulus}"]
    for g in data["generators"]:
        lines.extend(f"GEN v{g['index']}^{a}" for a in exponents)
    for r in data["relations"]:
        i = r["i"]
        for a, b in itertools.product(exponents, repeat=2):
            if r["kind"] == "add":
                rhs = power(i, (a + b) % modulus)
                lines.append(f"REL mul v{i}^{a} v{i}^{b} = {rhs}")
            else:
                k = r["result"]
                rhs = "1" if k is None else power(k, (-a * b) % modulus)
                lines.append(f"REL comm v{i}^{a} v{r['j']}^{b} = {rhs}")
    return lines
