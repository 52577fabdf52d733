"""Doubling a polytope along a facet, and fair doubling chains.

The doubled polytope conv(P x {0}, psi(P)) lives one dimension higher; the
copy map psi(x) = (x - ht(x) w, ht(x)) is the integral shear model of the
rotated copy, where w is an integral section of the facet form.  Any two
sections give integral-affinely equivalent results.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .columns import ColumnVector, product_table
from .exactmath import dot, integral_section, vec_scale, vec_sub
from .polytopes import InternalCheckError, Polytope


class NoExtensionError(InternalCheckError):
    """A column vector failed to extend across a doubling."""


class DoublingResult(NamedTuple):
    doubled: Polytope
    col_inclusion: dict
    section: tuple
    facet: object
    count_identity_holds: bool


def double_along_facet(p, index, section=None):
    """conv of P x {0} and the sheared copy, as a polytope D in Z^(n+1).

    F = ``p.facets[index]`` reads a . x >= b; w is the section, z0 the
    least lattice point of F and ht(x) = a . x - b.  The base copy of x is
    (x - z0, 0), the sheared copy (x - z0 - ht(x) w, ht(x)); w maps to
    (0, 1), so the reference lattice is all of Z^(n+1).

    D inherits its geometry from P.  At (y, t) = (x - z0 - t w, t),
    ht(x) = a . y + t, so D = {(y, t) : x in P, 0 <= t <= ht(x)} is cut out
    by t >= 0 (the base copy), (a, 0) . (y, t) >= 0 (the sheared copy) and,
    for each facet (g, c) != F of P, the lift ((g, g . w), c - g . z0),
    which reads g . x - c whatever t is.  So the facets are these
    |F(P)| + 1 pairs, sorted as ``facet_inequalities`` sorts, and the
    vertices are the two copies of P's vertices.  The slice at height t is
    {x in P : ht(x) >= t} - z0 - t w, so the lattice points are
    (x - z0 - t w, t) for x in L_P and 0 <= t <= ht(x); there a lifted G
    reads P's row H[G] at x, the base copy t and the sheared copy
    ht(x) - t.  For x in L_P off F, (x - z0, 0) and (x - z0 - w, 1) are
    both in L_D, so its difference lattice is {(y - t w, t) : y in
    Lambda_P}, of P's index: D is normalized exactly when P is.

    A certificate with no rank checks the seeded pairs on the vertices:
    each holds at all of them; a lifted G is tight at the base copies of
    P's G-tight vertices, an (n - 1)-face, and at some vertex with t > 0,
    off that face's hyperplane; the base and sheared pairs are tight at
    every base and sheared copy.
    """
    if not 0 <= index < len(p.facets):
        raise ValueError(f"facet index {index} out of range")
    facet = p.facets[index]
    a = facet.normal
    n = p.ambient_dim
    if section is None:
        w = integral_section(a)
    else:
        w = tuple(section)
        if dot(a, w) != 1:
            raise ValueError("section must pair to 1 with the facet normal")
    z0 = p.lattice_points[facet.on_facet[0]]
    heights = p.facet_heights
    ht = heights[index]

    def lift(x, t):
        return vec_sub(vec_sub(x, z0), vec_scale(t, w)) + (t,)

    base = {lift(v, 0) for v in p.vertices}
    sheared = {lift(v, dot(a, v) - facet.offset) for v in p.vertices}
    verts = base | sheared
    vertex_set = set(p.vertices)
    # each pair with its source: a facet index of P, "base" or "sheared"
    seeded = sorted(
        [((g + (dot(g, w),), b - dot(g, z0)), i)
         for i, (g, b) in enumerate(p._facet_pairs) if i != index]
        + [(((0,) * n + (1,), 0), "base"), ((a + (0,), 0), "sheared")],
        key=lambda e: e[0],
    )
    # distinct pairs, each certified a facet of the double below
    keys = {pair for pair, _ in seeded}
    if len(keys) != len(p.facets) + 1:
        raise InternalCheckError("doubling must add exactly one facet")
    for (g, b), src in seeded:
        vals = {u: dot(g, u) - b for u in verts}
        tight = {u for u, h in vals.items() if h == 0}
        if src == "base":
            ok = base <= tight
        elif src == "sheared":
            ok = sheared <= tight
        else:
            on_g = [p.lattice_points[i] for i in p.facets[src].on_facet]
            ok = sum(u[-1] == 0 for u in tight) == len(
                vertex_set.intersection(on_g)
            ) and any(u[-1] > 0 for u in tight)
        if not ok or min(vals.values()) < 0:
            raise InternalCheckError(f"seeded pair {(g, b)} is no facet of the double")

    lattice = sorted(
        (lift(x, t), i)
        for i, x in enumerate(p.lattice_points)
        for t in range(ht[i] + 1)
    )
    doubled = Polytope(verts, n + 1, name=f"{p.name or 'P'} doubled")
    doubled.dim = n + 1
    doubled.is_normalized = p.is_normalized
    doubled._facet_pairs = tuple(pair for pair, _ in seeded)
    doubled.lattice_points = tuple(z for z, _ in lattice)
    doubled.facet_heights = tuple(
        tuple(z[-1] for z, _ in lattice) if src == "base"
        else tuple(ht[i] - z[-1] for z, i in lattice) if src == "sheared"
        else tuple(heights[src][i] for _, i in lattice)
        for _, src in seeded
    )

    count_identity = len(doubled.lattice_points) == 2 * len(p.lattice_points) - len(
        facet.on_facet
    )

    return DoublingResult(
        doubled=doubled,
        col_inclusion=extend_columns(
            p, doubled, (index, w, tuple(src for _, src in seeded))),
        section=w,
        facet=facet,
        count_identity_holds=count_identity,
    )


def extend_columns(p, doubled, doubling):
    """Map each column u of P to its image (u, 0) among the double's
    columns, after seeding Col(D) from Col(P).

    In the notation of ``double_along_facet``, with Col_G(P) the columns of
    P with base G, Col(D) is
      - over the base copy t >= 0: (w, -1), and (u + w, -1) for u in Col_F(P);
      - over the sheared copy: (-w, 1), and (u, 0) for u in Col_F(P), the
        first list under the involution (y, t) -> (y + (t - a . y) w, a . y),
        which swaps the two copies and fixes every lifted facet;
      - over a lifted G != F: (u - s w, s) for u in Col_G(P), 0 <= s <= a . u.
    Each is (u - s w, s) with u in Col(P) or u = 0, so its heights need no
    dot products: u's over a lifted G', s over the base copy and a . u - s
    over the sheared copy.

    Proof: (y, t) -> y + z0 + t w carries the lattice point over (x, t) to
    x, and a shift v = (y, t) to u = y + t w.  If v has base the lift of G,
    the points over x off G shift into D, so u is a column of P with base G
    (u = 0 would put v at height 0 over its base); the points at t = 0
    force t >= 0, and those at t = ht(x) force t <= a . u, since
    ht(x + u) = ht(x) + a . u.  Conversely such a v keeps every point over
    x off G at a height 0 <= t' + t <= ht(x + u).  The base copy is the
    same argument with t - 1: the points off it, over x off F at
    1 <= t' <= ht(x), shift to height t' - 1, so u is in Col_F(P) or 0.

    ``doubling`` is (F's index, w, the source of each facet of D), as
    ``double_along_facet`` seeds them.  The NoExtensionError lookup guards
    the inclusion, and a certificate stands in for the search's own guards:
    each seeded column sits at height -1 over its base and at height >= 0
    over every other facet of D, which by the sign rule of ``columns`` (a
    height of -1 is never below -M[F][F]) makes it a column with that base.
    """
    cols_p = product_table(p).columns
    cols = _seeded_columns(cols_p, *doubling)
    for c in cols:
        if c.heights[c.base] != -1 or any(
            h < 0 for g, h in enumerate(c.heights) if g != c.base
        ):
            raise InternalCheckError(
                f"seeded column {c.vector} is no column of the double"
            )
    table = product_table(doubled, cols)
    mapping = {}
    for c in cols_p:
        k = table.index.get(c.vector + (0,))
        if k is None:
            raise NoExtensionError(
                f"column {c.vector} has no image among the double's columns"
            )
        mapping[c] = table.columns[k]
    return mapping


def _seeded_columns(cols_p, index, w, sources):
    """Col(D) in canonical order, from Col(P) by the closed form of
    ``extend_columns``; ``sources`` gives the source of each facet of D,
    which has one facet more than P."""
    zero = ((0,) * len(w), (0,) * (len(sources) - 1))
    shifts = [(zero, -1, "base"), (zero, 1, "sheared")]
    for c in cols_p:
        u = (c.vector, c.heights)
        if c.base == index:
            shifts += [(u, -1, "base"), (u, 0, "sheared")]
        else:
            shifts += [(u, s, c.base) for s in range(c.heights[index] + 1)]
    position = {src: j for j, src in enumerate(sources)}
    return tuple(sorted(
        ColumnVector(
            vec_sub(u, vec_scale(s, w)) + (s,),
            position[base],
            tuple(s if src == "base" else hu[index] - s if src == "sheared"
                  else hu[src] for src in sources),
        )
        for (u, hu), s, base in shifts
    ))


# ---------------------------------------------------------------------------
# doubling chains with a fair first-in-first-out schedule


class TrackedColumn:
    """A column followed along a doubling chain: ``column`` is its column
    in the chain's current polytope, and ``decomposed_step`` is set by the
    step that doubles along its base facet."""

    def __init__(self, ident, column, birth_step, enqueue_position):
        self.ident = ident
        self.birth_vector = column.vector
        self.column = column
        self.birth_step = birth_step
        self.enqueue_position = enqueue_position
        self.decomposed_step = None


class SpectrumStep(NamedTuple):
    chosen: TrackedColumn
    chosen_vector: tuple
    result: DoublingResult
    queue_after: list


class DoublingSpectrum(NamedTuple):
    initial: Polytope
    steps: list
    tracked: list  # tracked[i].ident == i


def doubling_spectrum(p, steps):
    """Run a FIFO doubling schedule for the given number of steps.

    The queue starts with Col(P) in canonical order.  Each step pops the
    front column, doubles along its base facet, marks every tracked column
    with that base facet as decomposed, and enqueues the new columns of the
    double.  A column enqueued with k entries ahead of it is popped within
    k+1 steps, so every column is decomposed no later than its
    enqueue-time queue length: the schedule is fair.

    Each tracked column is held as its column in the current polytope P
    and carried to the double D by the step's ``col_inclusion``, the
    injective map Col(P) -> Col(D) that ``extend_columns`` checks.  The
    tracked columns are always exactly Col(P), so the new columns of D are
    those outside the image of the inclusion.
    """
    if steps < 1:
        raise ValueError("a spectrum needs at least one step")
    if not product_table(p).columns:
        raise ValueError("doubling spectra need a polytope with columns")

    tracked = []
    queue = deque()

    def enqueue(columns, birth_step):
        for c in columns:
            tracked.append(TrackedColumn(len(tracked), c, birth_step, len(queue) + 1))
            queue.append(len(tracked) - 1)

    enqueue(product_table(p).columns, 0)
    steps_done = []
    current = p
    for step_index in range(1, steps + 1):
        tc = tracked[queue.popleft()]
        chosen = tc.column
        result = double_along_facet(current, chosen.base)
        for other in tracked:
            if other.decomposed_step is None and other.column.base == chosen.base:
                other.decomposed_step = step_index
            image = result.col_inclusion.get(other.column)
            if image is None:
                raise InternalCheckError(
                    f"tracked column {other.column.vector} vanished from the chain"
                )
            other.column = image
        current = result.doubled
        carried = set(result.col_inclusion.values())
        enqueue([c for c in product_table(current).columns if c not in carried],
                step_index)
        steps_done.append(
            SpectrumStep(tc, chosen.vector, result, list(queue))
        )
    return DoublingSpectrum(p, steps_done, tracked)


def spectrum_report(spectrum):
    """JSON-ready report: per-step data plus the fairness ledger."""
    steps_data = [
        {
            "step": i,
            "chosen_id": st.chosen.ident,
            "chosen_vector": list(st.chosen_vector),
            "facet_normal": list(st.result.facet.normal),
            "facet_offset": st.result.facet.offset,
            "vertices": [list(v) for v in st.result.doubled.vertices],
            "lattice_count_identity": st.result.count_identity_holds,
            "decomposed_ids": [tc.ident for tc in spectrum.tracked
                               if tc.decomposed_step == i],
            "queue_after": list(st.queue_after),
        }
        for i, st in enumerate(spectrum.steps, 1)
    ]
    ledger = [
        {
            "id": tc.ident,
            "vector": list(tc.birth_vector),
            "enqueued_step": tc.birth_step,
            "enqueue_position": tc.enqueue_position,
            "decomposed_step": tc.decomposed_step,
            "delay": None if tc.decomposed_step is None
            else tc.decomposed_step - tc.birth_step,
        }
        for tc in spectrum.tracked
    ]
    return {
        "initial_vertices": [list(v) for v in spectrum.initial.vertices],
        "steps": steps_data,
        "fairness_ledger": ledger,
    }
