"""Exact integer, rational and polynomial arithmetic kernels.

Everything in this package is exact; there is no floating point anywhere.
Arithmetic is integer-only: a rational matrix travels as an integer matrix
with one common denominator, and the coefficient ring of every command is
Z.  ``det_int`` and ``mat_inverse_frac`` are fraction-free
(Bareiss) eliminations in O(n^3) integer operations whose intermediate
entries are minors of the input; ``rank_int`` and ``independent_rows`` share
one echelon pass over primitive rows.  Vectors are plain tuples of ints,
matrices are tuples of row tuples.  The vector kernels ``vec_add``,
``vec_sub``, ``vec_neg``, ``vec_scale`` and ``dot`` take int coordinates and
return exact ints; the binary ones need vectors of equal length and raise
ValueError otherwise.  The canonical order on integer vectors is
coordinate-lexicographic (= tuple order), and all set-valued results
elsewhere in the package are emitted sorted in that order.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add, mul, neg, sub


# ---------------------------------------------------------------------------
# integer vectors


def vec_add(a, b):
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def vec_sub(a, b):
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return tuple(map(sub, a, b))


def vec_neg(a):
    return tuple(map(neg, a))


def vec_scale(k, a):
    return tuple(map(mul, repeat(k), a))


def dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def primitive_part(v):
    """v divided by the gcd of its components; positively proportional to v."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("primitive part of the zero vector is undefined")
    return tuple(x // g for x in v)


def extended_gcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def integral_section(a):
    """An integer vector w with a . w = 1, for primitive a.

    Deterministic: an extended-gcd sweep in coordinate order.
    """
    if gcd(*a) != 1:
        raise ValueError("integral_section requires a primitive vector")
    g = 0
    w = [0] * len(a)
    for i, ai in enumerate(a):
        g2, x, y = extended_gcd(g, ai)
        for j in range(i):
            w[j] *= x
        w[i] = y
        g = g2
    assert g == 1
    return tuple(w)


# ---------------------------------------------------------------------------
# integral linear algebra


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return tuple(zip(*m))


def hermite_normal_form(m):
    """Row Hermite normal form of an integer matrix.

    Returns (h, u) with u unimodular (|det u| = 1) and h = u @ m.  Pivots are
    positive, entries above a pivot are reduced into [0, pivot), zero rows
    sink to the bottom.
    """
    rows = [list(r) for r in m]
    if not rows:
        raise ValueError("empty matrix")
    nr, nc = len(rows), len(rows[0])
    u = [list(r) for r in identity_matrix(nr)]

    def row_op(i, j, q):
        # rows[i] -= q * rows[j], mirrored on u
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(nc):
        # euclid the column entries at rows >= r down to a single nonzero
        while True:
            nz = [i for i in range(r, nr) if rows[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][c]))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c] != 0:
                    row_op(i, r, rows[i][c] // rows[r][c])
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    row_op(i, r, q)
            r += 1
            if r == nr:
                break
    h = tuple(tuple(row) for row in rows)
    return h, tuple(tuple(row) for row in u)


def independent_rows(rows, limit):
    """Indices of the greedy first basis of the rows: each row is kept when
    it is independent of the rows kept before it, until ``limit`` are kept.

    One echelon pass: a row is reduced against the kept rows' primitive
    echelon forms, and it is independent exactly when something is left;
    the primitive parts keep the entries small.
    """
    kept, echelon = [], []
    for i, r in enumerate(rows):
        for c, e in echelon:
            f, p = r[c], e[c]
            if f:
                r = [p * x - f * y for x, y in zip(r, e)]
        # lists, not primitive_part's tuples, which fill the tuple free lists
        g = gcd(*r)
        if g:
            r = [x // g for x in r]
            echelon.append((next(c for c, x in enumerate(r) if x), r))
            kept.append(i)
            if len(kept) == limit:
                break
    return kept


def rank_int(rows):
    """Rank of an integer matrix (exact, one echelon pass)."""
    return len(independent_rows(rows, len(rows[0]))) if rows else 0


def det_int(m):
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def kernel_basis_int(rows):
    """Basis (rows) of the integer kernel {x : r . x = 0 for all r in rows}.

    The kernel of an integer matrix is automatically a saturated sublattice.
    """
    cols = transpose(rows)
    if not cols:
        return ()
    h, u = hermite_normal_form(cols)
    basis = tuple(u[i] for i in range(len(h)) if not any(h[i]))
    return basis


def saturation_basis(rows):
    """Basis of (Q-span of rows) intersected with Z^n, as rows."""
    perp = kernel_basis_int(rows)
    if not perp:
        n = len(rows[0])
        return identity_matrix(n)
    return kernel_basis_int(perp)


def solve_int(m, rhss):
    """The integer x with m @ x = rhs for each rhs in rhss, None where there
    is none.

    The columns of m must be linearly independent.  With h = u @ m the
    Hermite form, computed once for all right-hand sides, m @ x = rhs iff
    h @ x = u @ rhs: the rows of u @ rhs below the pivot block must vanish,
    and back substitution on the triangular pivot block must divide exactly.
    """
    h, u = hermite_normal_form(m)
    c = len(m[0])
    if len(h) < c or any(h[i][i] == 0 for i in range(c)):
        raise ValueError("solve_int needs linearly independent columns")

    def solve(rhs):
        w = mat_vec(u, rhs)
        if any(w[c:]):
            return None
        x = [0] * c
        for i in reversed(range(c)):
            x[i], rem = divmod(w[i] - dot(h[i][i + 1:c], x[i + 1:]), h[i][i])
            if rem:
                return None
        return tuple(x)

    return [solve(rhs) for rhs in rhss]


def mat_inverse_frac(m):
    """The inverse of a square integer matrix as one fraction (a, d).

    a is an integer matrix and d > 0 with m @ a = d * I, so m^-1 = a / d;
    d is |det m|.  Raises ValueError on a singular matrix.

    One fraction-free Gauss-Jordan elimination on [m | I] (Bareiss 1968):
    pivot p replaces every other row by (p * row - f * pivot row) / p', f
    its entry in the pivot column and p' the previous pivot, after a zero
    pivot is swapped with a lower row.  The division is exact by Sylvester's
    identity: after k pivots entry (i, j) is the minor of [m | I] (rows in
    swapped order) on rows and columns 1..k, with column j in place of
    column i if i <= k, or with row i and column j added if i > k.  So the
    row operations turn m into d' I, d' = +-det m the last pivot, and I
    into d' m^-1.  Pivot columns, zero off the pivot, are dropped.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][0]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        p, top = a[k][0], a[k][1:]
        a = [
            top if i == k
            else [(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
            for i, row in enumerate(a)
        ]
        prev = p
    s = 1 if prev > 0 else -1
    return tuple(tuple(s * x for x in row) for row in a), s * prev


def lll_reduce(gram):
    """(U, V) with U in GL_n(Z) and V = U^-1, the rows of U an LLL-reduced
    basis (delta = 3/4) of Z^n under the positive definite integral form
    ``gram``.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7; Lenstra-Lenstra-Lovasz 1982) on the Gram matrix
    alone: d[i] is the Gram determinant of the first i basis rows and
    lam[k][j] = d[j + 1] mu[k][j] for the Gram-Schmidt coefficients mu, all
    integers, and every division is exact.  A row operation U <- E U is
    mirrored as V <- V E^-1, a column operation kept on the rows of V^T, so
    no inverse is ever computed.
    """
    n = len(gram)
    u = [list(r) for r in identity_matrix(n)]
    vt = [list(r) for r in identity_matrix(n)]
    d = [1, gram[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        # row k -= q row l, q the integer nearest mu[k][l], if |mu| > 1/2
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            vt[l] = [x + q * y for x, y in zip(vt[l], vt[k])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        u[k - 1], u[k] = u[k], u[k - 1]
        vt[k - 1], vt[k] = vt[k], vt[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt of row k against rows 0..k-1
            kmax = k
            for j in range(k + 1):
                x = dot(u[k], mat_vec(gram, u[j]))
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = x
                else:
                    d[k + 1] = x
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return tuple(map(tuple, u)), transpose(vt)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Z


class Poly:
    """Sparse multivariate polynomial over Z with named indeterminates.

    Terms map exponent tuples to nonzero int coefficients.  Equality is
    structural, and a constant polynomial equals and hashes like its int;
    printing uses total-degree-then-lex monomial order.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms):
        self.names = tuple(names)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def const(cls, names, c):
        return cls(names, {(0,) * len(names): int(c)})

    @classmethod
    def variable(cls, names, name):
        names = tuple(names)
        i = names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(names)))
        return cls(names, {e: 1})

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError("polynomials over different variable sets")
            return other
        if isinstance(other, int):
            return Poly.const(self.names, other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.names, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.names, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not Poly:
            if isinstance(other, int):
                other = Poly.const(self.names, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            (e, c), = terms.items()
            if not any(e):
                return hash(c)
        return hash((self.names, frozenset(terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        def key(e):
            return (-sum(e), tuple(-x for x in e))
        parts = []
        for e in sorted(self.terms, key=key):
            c = self.terms[e]
            factors = [
                f"{n}^{p}" if p > 1 else n
                for n, p in zip(self.names, e)
                if p
            ]
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        head_sign, head = parts[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# ---------------------------------------------------------------------------
# coefficient rings
#
# A ring object names its ring and supplies the constants the graded
# automorphisms need; the elements are plain Python objects carrying the
# arithmetic operators.  ``repr`` of a ring is its name.


class IntegerRing:
    name = "ZZ"

    zero = 0
    one = 1

    def from_int(self, n):
        return int(n)

    def __repr__(self):
        return self.name


ZZ = IntegerRing()
