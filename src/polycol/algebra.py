"""Graded automorphisms of the polytopal algebra of a lattice polytope.

The algebra is the semigroup ring of the monoid generated by (z, 1) for the
lattice points z, graded so every lattice point sits in degree one.  Graded
automorphisms are represented faithfully by their sparse degree-one columns:
the image of each degree-one monomial, in canonical lattice-point order, with
its nonzero coefficients only.  Words in elementary, torus and symmetry
generators are carried along for provenance.

Symbolic verification happens over a polynomial ring on integer
coefficients: an identity of columns there holds over every commutative ring
at once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .columns import ColumnVector, is_balanced, product_table
from .exactmath import (
    QQ,
    ZZ,
    PolynomialRing,
    dot,
    vec_add,
    vec_scale,
    vec_sub,
)
from .polytopes import (
    AffineLatticeMap,
    InternalCheckError,
    _spanning_tuple,
    dilate,
    unimodular_frame_map,
)


# ---------------------------------------------------------------------------
# the graded semigroup


def sp_membership(p, z, degree):
    """Is (z, degree) a sum of `degree` degree-one generators?

    The semigroup can miss integral points of the cone over P, so this is
    a genuine recursion, not a cone test.  Its memo is stored on ``p`` and
    lives as long as ``p`` does.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    z = tuple(z)
    memo = p.__dict__.setdefault("_sp_memo", {})
    pset = p.lattice_set

    def rec(z, d):
        if d == 0:
            return not any(z)
        if d == 1:
            return z in pset
        key = (z, d)
        if key in memo:
            return memo[key]
        # quick cone bound: z must lie in d*P
        if not all(dot(a, z) >= d * b for a, b in p._facet_pairs):
            memo[key] = False
            return False
        result = any(rec(vec_sub(z, x), d - 1) for x in p.lattice_points)
        memo[key] = result
        return result

    return rec(z, degree)


def monomials_of_degree(p, degree):
    """All (z, degree) in the graded semigroup, canonically sorted."""
    if degree == 0:
        return (((0,) * p.ambient_dim, 0),)
    scaled = dilate(p, degree) if degree > 1 else p
    return tuple(
        (z, degree)
        for z in scaled.lattice_points
        if sp_membership(p, z, degree)
    )


def check_column_property(p, col, max_degree=2):
    """Every monomial off the base face cone shifts by the column vector.

    Face-cone membership is height zero; the property is checked for all
    semigroup monomials up to the degree bound.  Returns (flag, violations).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    table = product_table(p)
    if col.vector not in table.index:
        raise ValueError("not a column vector of this polytope")
    col = table.columns[table.index[col.vector]]
    facet = p.facets[col.base]
    violations = []
    for d in range(1, max_degree + 1):
        for z, _ in monomials_of_degree(p, d):
            height = dot(facet.normal, z) - d * facet.offset
            if height == 0:
                continue
            if not sp_membership(p, vec_add(z, col.vector), d):
                violations.append((z, d))
    return (not violations), violations


# ---------------------------------------------------------------------------
# graded automorphisms as sparse degree-one columns


class GradedAutomorphism:
    """A graded algebra automorphism through its sparse degree-one columns.

    Column j is the image of the j-th degree-one monomial, in canonical
    lattice-point order, as a dict {row index: coefficient}.  No zero
    coefficient is ever stored, so equal automorphisms have equal columns;
    degree one generates the algebra, so equality of columns is equality of
    automorphisms.
    """

    def __init__(self, polytope, ring, columns, word, inverse_word):
        self.polytope = polytope
        self.ring = ring
        self.columns = tuple(columns)
        self.word = tuple(word)
        self.inverse_word = tuple(inverse_word)

    @property
    def matrix(self):
        """Dense read-only view: matrix[i][j] is the coefficient of
        monomial i in the image of monomial j."""
        zero = self.ring.zero
        m = len(self.columns)
        return tuple(
            tuple(col.get(i, zero) for col in self.columns) for i in range(m)
        )

    def compose(self, other):
        """self after other."""
        if self.polytope != other.polytope or self.ring is not other.ring:
            raise ValueError("automorphisms live on different algebras")
        zero = self.ring.zero
        columns = []
        for col in other.columns:
            acc = {}
            for k, c in col.items():
                for i, a in self.columns[k].items():
                    acc[i] = acc[i] + a * c if i in acc else a * c
            columns.append({i: x for i, x in acc.items() if x != zero})
        return GradedAutomorphism(
            self.polytope,
            self.ring,
            columns,
            self.word + other.word,
            other.inverse_word + self.inverse_word,
        )

    def inverse(self):
        inv = automorphism_from_word(
            self.polytope, self.ring, self.inverse_word
        )
        if not self.compose(inv).is_identity():
            raise InternalCheckError("inverse word does not invert the columns")
        return inv

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
        return hash((
            self.polytope,
            id(self.ring),
            tuple(frozenset(col.items()) for col in self.columns),
        ))

    def __repr__(self):
        return f"GradedAutomorphism({self.word})"


def identity_automorphism(p, ring):
    one = ring.one
    columns = [{j: one} for j in range(len(p.lattice_points))]
    return GradedAutomorphism(p, ring, columns, (), ())


def automorphism_from_word(p, ring, word):
    out = identity_automorphism(p, ring)
    for gen in word:
        kind = gen[0]
        if kind == "elementary":
            g = elementary_automorphism(p, gen[1], gen[2], ring)
        elif kind == "torus":
            g = torus_automorphism(p, gen[1], ring)
        elif kind == "symmetry":
            g = _symmetry_from_permutation(p, ring, gen[1])
        else:
            raise ValueError(f"unknown generator {gen!r}")
        out = out.compose(g)
    return out


def elementary_automorphism(p, col, lam, ring):
    """The shear sending x to (1 + lam * v)^(height of x) times x.

    The column of x expands binomially through the points x + k v, all of
    which are lattice points because heights over the base facet drop by
    exactly one per step.  Terms that vanish in the ring (lam = 0, or a
    binomial coefficient divisible by the modulus) are not stored.
    """
    if not p.is_normalized:
        raise ValueError("elementary automorphisms need a normalized polytope")
    table = product_table(p)
    if isinstance(col, ColumnVector):
        key = col.vector
    else:
        key = tuple(col)
    if key not in table.index:
        raise ValueError(f"{key} is not a column vector")
    col = table.columns[table.index[key]]
    facet = p.facets[col.base]
    pts = p.lattice_points
    index = {z: i for i, z in enumerate(pts)}
    heights = [dot(facet.normal, x) - facet.offset for x in pts]
    powers = [ring.one]
    for _ in range(max(heights)):
        powers.append(powers[-1] * lam)
    zero = ring.zero
    columns = []
    for x, h in zip(pts, heights):
        column = {}
        for k in range(h + 1):
            target = vec_add(x, vec_scale(k, col.vector))
            if target not in index:
                raise InternalCheckError(
                    f"{x} + {k}*{col.vector} escaped the polytope"
                )
            coeff = ring.from_int(comb(h, k))
            if k:
                coeff = coeff * powers[k]
            if coeff != zero:
                column[index[target]] = coeff
        columns.append(column)
    word = (("elementary", col.vector, lam),)
    inverse_word = (("elementary", col.vector, _ring_neg(ring, lam)),)
    return GradedAutomorphism(p, ring, columns, word, inverse_word)


def _ring_pow(ring, x, k):
    out = ring.one
    for _ in range(k):
        out = out * x
    return out


def _ring_neg(ring, x):
    return ring.zero - x


def torus_automorphism(p, units, ring):
    """Diagonal action: the monomial at z scales by the unit monomial in z.

    There are ambient_dim + 1 units, the last one acting through the
    grading; negative coordinates use ring inverses.
    """
    n = p.ambient_dim
    units = tuple(units)
    if len(units) != n + 1:
        raise ValueError("need ambient_dim + 1 units")
    for u in units:
        if not ring.is_unit(u):
            raise ValueError(f"{u!r} is not a unit")
    columns = []
    for j, z in enumerate(p.lattice_points):
        val = units[n]
        for i, zi in enumerate(z):
            if zi >= 0:
                val = val * _ring_pow(ring, units[i], zi)
            else:
                val = val * _ring_pow(ring, ring.inverse(units[i]), -zi)
        columns.append({j: val})
    word = (("torus", units),)
    inverse_word = (("torus", tuple(ring.inverse(u) for u in units)),)
    return GradedAutomorphism(p, ring, columns, word, inverse_word)


def _symmetry_from_permutation(p, ring, perm):
    one = ring.one
    return GradedAutomorphism(
        p,
        ring,
        [{i: one} for i in perm],
        (("symmetry", tuple(perm)),),
        (("symmetry", _perm_inverse(perm)),),
    )


# ---------------------------------------------------------------------------
# degree consistency and monomial actions


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
        current = {k: v for k, v in nxt.items() if v != zero}
    return current


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
        if k:
            coeff = coeff * _ring_pow(ring, lam, k)
        out[vec_add(z, vec_scale(k, col.vector))] = coeff
    return out


# ---------------------------------------------------------------------------
# lattice symmetries


def lattice_symmetries(p):
    """All affine lattice self-maps of P, as AffineLatticeMaps."""
    verts = p.vertices
    if p.ambient_dim == 0:
        return [AffineLatticeMap.identity(0)]
    if not p.is_full_dimensional:
        raise ValueError("symmetries need a full-dimensional polytope")
    anchor = _spanning_tuple(p)
    vert_set = set(verts)
    sigs = _vertex_signatures(p)
    candidates = [
        [w for w in verts if sigs[w] == sigs[a]] for a in anchor
    ]
    # a map is pinned by the image of the anchor, so no map is found twice
    maps = []
    for image in itertools.product(*candidates):
        amap = unimodular_frame_map(anchor, image)
        if amap is not None and {amap.apply(v) for v in verts} == vert_set:
            maps.append(amap)
    maps.sort(key=lambda m: m.key())
    return maps


def _vertex_signatures(p):
    facets = p.facets
    sig = {}
    for v in p.vertices:
        active = sorted(
            len(f.on_facet) for f in facets if dot(f.normal, v) == f.offset
        )
        sig[v] = tuple(active)
    return sig


def symmetry_permutation(p, amap):
    pts = p.lattice_points
    index = {z: i for i, z in enumerate(pts)}
    perm = []
    for z in pts:
        img = amap.apply(z)
        if img not in index:
            raise InternalCheckError("symmetry does not permute lattice points")
        perm.append(index[img])
    return tuple(perm)


def sigma_group(p, ring=ZZ):
    """The symmetry group as permutation-matrix automorphisms."""
    return [
        _symmetry_from_permutation(p, ring, symmetry_permutation(p, m))
        for m in lattice_symmetries(p)
    ]


def _perm_compose(a, b):
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _closure(perms):
    group = set(perms)
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(group):
                for candidate in (_perm_compose(g, h), _perm_compose(h, g)):
                    if candidate not in group:
                        group.add(candidate)
                        nxt.append(candidate)
        frontier = nxt
    return group


def column_inversion(p, col):
    """The symmetry flipping columns parallel to a two-sided column vector.

    Each lattice point moves along the column direction to the unique point
    with mirrored heights over the two base facets.
    """
    table = product_table(p)
    key = col.vector if isinstance(col, ColumnVector) else tuple(col)
    if key not in table.index:
        raise ValueError(f"{key} is not a column vector")
    neg = tuple(-x for x in key)
    if neg not in table.index:
        raise ValueError("column inversion needs both v and -v as columns")
    cv = table.columns[table.index[key]]
    cnv = table.columns[table.index[neg]]
    f_plus = p.facets[cv.base]
    f_minus = p.facets[cnv.base]
    pts = p.lattice_points
    index = {z: i for i, z in enumerate(pts)}
    perm = []
    for x in pts:
        t = (dot(f_plus.normal, x) - f_plus.offset) - (
            dot(f_minus.normal, x) - f_minus.offset
        )
        y = vec_add(x, vec_scale(t, key))
        if y not in index:
            raise InternalCheckError("column inversion left the polytope")
        perm.append(index[y])
    perm = tuple(perm)
    sym_perms = {symmetry_permutation(p, m) for m in lattice_symmetries(p)}
    if perm not in sym_perms:
        raise InternalCheckError("column inversion is not a lattice symmetry")
    return perm


def inversion_subgroup(p):
    """Permutations generated by all column inversions."""
    table = product_table(p)
    vecs = {c.vector for c in table.columns}
    gens = [
        column_inversion(p, c)
        for c in table.columns
        if tuple(-x for x in c.vector) in vecs
    ]
    identity = tuple(range(len(p.lattice_points)))
    if not gens:
        return {identity}
    return _closure(gens)


def symmetry_group_data(p):
    """Orders of the symmetry group, the inversion subgroup, and normality."""
    sym = {symmetry_permutation(p, m) for m in lattice_symmetries(p)}
    sym = _closure(sym) if sym else sym
    inv = inversion_subgroup(p)
    normal = all(
        _perm_compose(_perm_compose(g, h), _perm_inverse(g)) in inv
        for g in sym
        for h in inv
    )
    if len(sym) % len(inv) != 0:
        raise InternalCheckError("inversion subgroup order must divide")
    return {
        "symmetry_order": len(sym),
        "inversion_order": len(inv),
        "quotient_order": len(sym) // len(inv),
        "inversions_normal": normal,
    }


# ---------------------------------------------------------------------------
# symbolic verification of the commutator relations


def verify_steinberg_relations(p, var_names=("a", "b")):
    """Additivity and commutator identities over a symbolic polynomial ring.

    For every column u the composite of shears along u adds exponents; for
    every ordered pair with nonzero sum, the commutator is the shear along
    the product when it exists, and trivial when the sum is not a column.
    Pairs whose sum is a column without an existing product are outside
    both covered cases and reported as skipped.
    """
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
            entry = table.entry(i, j)
            if entry[0] == "product":
                if not balanced:
                    continue
                w = cols[entry[1]]
                expected = elementary_automorphism(p, w, -(lam * mu), ring)
                ok = commutator(i, j).columns == expected.columns
                report["pairs"].append(
                    {"u": u.vector, "v": v.vector, "case": "product",
                     "result": w.vector, "ok": ok}
                )
                if not ok:
                    report["all_ok"] = False
            elif s not in vecs:
                if not balanced:
                    continue
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


def verify_additive_embedding(p, facet_index, grid=5):
    """Same-base shears commute and assemble into an additive embedding.

    Commutation and the homomorphism identity are symbolic; injectivity is
    certified on a grid of distinct rational tuples whose images must be
    pairwise distinct automorphisms.
    """
    table = product_table(p)
    cols = [c for c in table.columns if c.base == facet_index]
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

    shears = [
        elementary_automorphism(p, c, a, ring) for c, a in zip(cols, avars)
    ]
    ok_comm = True
    for ei, ej in itertools.combinations(shears, 2):
        if ei.compose(ej).columns != ej.compose(ei).columns:
            ok_comm = False
    report["pairwise_commute"] = ok_comm

    def phi(values, rng):
        out = identity_automorphism(p, rng)
        for c, lam in zip(cols, values):
            out = out.compose(elementary_automorphism(p, c, lam, rng))
        return out

    lhs = phi([a + b for a, b in zip(avars, bvars)], ring)
    rhs = phi(avars, ring).compose(phi(bvars, ring))
    report["homomorphism"] = lhs.columns == rhs.columns

    points = []
    for i in range(grid):
        for j in range(grid):
            tup = [Fraction(i), Fraction(j)] + [Fraction(0)] * (s - 2)
            points.append(tuple(tup[:s]))
    images = {phi(pt, QQ) for pt in points}
    report["grid_points"] = len(points)
    report["distinct_images"] = len(images)
    report["injective_on_grid"] = len(images) == len(points)
    report["all_ok"] = (
        ok_comm and report["homomorphism"] and report["injective_on_grid"]
    )
    return report


# ---------------------------------------------------------------------------
# presentation export


def steinberg_presentation_lines(p):
    """Generator and relation schema of the column-shear presentation.

    One generator family per column vector; additive relations per family;
    commutator relations instantiated from the product table for the two
    covered cases.  Pairs whose sum is a column without a product are left
    out of the schema.
    """
    balanced, _ = is_balanced(p)
    if not balanced:
        raise ValueError("presentations are exported for balanced polytopes")
    table = product_table(p)
    cols = table.columns
    vecs = {c.vector: i for i, c in enumerate(cols)}
    lines = []
    for i, c in enumerate(cols):
        lines.append(f"GEN v{i} base={c.base}")
    for i in range(len(cols)):
        lines.append(f"REL add v{i}")
    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            s = vec_add(u.vector, v.vector)
            if not any(s):
                continue
            entry = table.entry(i, j)
            if entry[0] == "product":
                lines.append(f"REL comm v{i} v{j} -> v{entry[1]} sign=-1")
            elif s not in vecs:
                lines.append(f"REL comm v{i} v{j} -> 1")
    return lines


def steinberg_presentation_json(p):
    table = product_table(p)
    cols = table.columns
    vecs = {c.vector: i for i, c in enumerate(cols)}
    generators = [
        {"index": i, "v": list(c.vector), "base": c.base}
        for i, c in enumerate(cols)
    ]
    relations = [{"kind": "add", "i": i} for i in range(len(cols))]
    skipped = []
    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            s = vec_add(u.vector, v.vector)
            if not any(s):
                continue
            entry = table.entry(i, j)
            if entry[0] == "product":
                relations.append(
                    {"kind": "comm", "i": i, "j": j, "result": entry[1],
                     "sign": -1}
                )
            elif s not in vecs:
                relations.append(
                    {"kind": "comm", "i": i, "j": j, "result": None}
                )
            else:
                skipped.append({"i": i, "j": j})
    return {
        "generators": generators,
        "relations": relations,
        "skipped_pairs": skipped,
    }


def steinberg_presentation_mod(p, modulus):
    """Fully finite presentation instantiated over the integers mod m."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    balanced, _ = is_balanced(p)
    if not balanced:
        raise ValueError("presentations are exported for balanced polytopes")
    table = product_table(p)
    cols = table.columns
    vecs = {c.vector: i for i, c in enumerate(cols)}
    lines = [f"MOD {modulus}"]
    for i, c in enumerate(cols):
        for a in range(1, modulus):
            lines.append(f"GEN v{i}^{a}")
    for i in range(len(cols)):
        for a in range(1, modulus):
            for b in range(1, modulus):
                c = (a + b) % modulus
                rhs = f"v{i}^{c}" if c else "1"
                lines.append(f"REL mul v{i}^{a} v{i}^{b} = {rhs}")
    for i, u in enumerate(cols):
        for j, v in enumerate(cols):
            s = vec_add(u.vector, v.vector)
            if not any(s):
                continue
            entry = table.entry(i, j)
            if entry[0] == "product":
                k = entry[1]
                for a in range(1, modulus):
                    for b in range(1, modulus):
                        c = (-a * b) % modulus
                        rhs = f"v{k}^{c}" if c else "1"
                        lines.append(f"REL comm v{i}^{a} v{j}^{b} = {rhs}")
            elif s not in vecs:
                for a in range(1, modulus):
                    for b in range(1, modulus):
                        lines.append(f"REL comm v{i}^{a} v{j}^{b} = 1")
    return lines
