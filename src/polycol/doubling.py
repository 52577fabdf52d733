"""Doubling a polytope along a facet, and fair doubling chains.

The doubled polytope conv(P x {0}, psi(P)) lives one dimension higher; the
copy map psi(x) = (x - ht(x) w, ht(x)) is the integral shear model of the
rotated copy, where w is an integral section of the facet form.  Any two
sections give integral-affinely equivalent results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .columns import product_table
from .exactmath import dot, integral_section, vec_scale, vec_sub
from .polytopes import (
    AffineLatticeMap,
    InternalCheckError,
    Polytope,
    polytope_from_points,
)


class NoExtensionError(InternalCheckError):
    """A column vector failed to extend across a doubling."""


class AmbiguousExtensionError(InternalCheckError):
    """Several candidate extensions matched; the model is inconsistent."""


@dataclass(frozen=True)
class DoublingResult:
    doubled: Polytope
    embed_base: AffineLatticeMap
    embed_copy: AffineLatticeMap
    col_inclusion: dict
    section: tuple
    facet: object
    count_identity_holds: bool


def double_along_facet(p, facet, section=None):
    """conv of P x {0} and the sheared copy, as a polytope in Z^(n+1).

    The polytope is translated so the chosen facet passes through the
    origin; the copy of x sits at height ht(x) over the base.  The base
    copy and the sheared copy are both facets of the result, and the
    reference lattice is all of Z^(n+1) because the section w maps to
    (0, 1).
    """
    idx = p.facet_index(facet)
    facet = p.facets[idx]
    a = facet.normal
    n = p.ambient_dim
    if section is None:
        w = integral_section(a)
    else:
        w = tuple(section)
        if dot(a, w) != 1:
            raise ValueError("section must pair to 1 with the facet normal")
    z0 = min(facet.points_on)

    def base_point(x):
        return vec_sub(x, z0) + (0,)

    def copy_point(x):
        shifted = vec_sub(x, z0)
        h = dot(a, shifted)
        return vec_sub(shifted, vec_scale(h, w)) + (h,)

    points = sorted(
        {base_point(v) for v in p.vertices} | {copy_point(v) for v in p.vertices}
    )
    doubled = polytope_from_points(points, name=f"{p.name or 'P'} doubled")

    # the two copies must come back as facets
    keys = {f.key() for f in doubled.facets}
    if ((0,) * n + (1,), 0) not in keys:
        raise InternalCheckError("base copy is not a facet of the double")
    if (a + (0,), 0) not in keys:
        raise InternalCheckError("sheared copy is not a facet of the double")
    if len(doubled.facets) != len(p.facets) + 1:
        raise InternalCheckError("doubling must add exactly one facet")

    base_matrix = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ) + ((0,) * n,)
    base_translation = tuple(-c for c in z0) + (0,)
    embed_base = AffineLatticeMap(base_matrix, base_translation)

    copy_matrix = tuple(
        tuple((1 if i == j else 0) - w[i] * a[j] for j in range(n))
        for i in range(n)
    ) + (a,)
    mz0 = [sum(copy_matrix[i][j] * (-z0[j]) for j in range(n)) for i in range(n + 1)]
    embed_copy = AffineLatticeMap(copy_matrix, tuple(mz0))

    count_identity = len(doubled.lattice_points) == 2 * len(p.lattice_points) - len(
        facet.on_facet
    )

    result = DoublingResult(
        doubled=doubled,
        embed_base=embed_base,
        embed_copy=embed_copy,
        col_inclusion={},
        section=w,
        facet=facet,
        count_identity_holds=count_identity,
    )
    result.col_inclusion.update(extend_columns(p, result))
    return result


def extend_columns(p, result):
    """Map each column vector of P to its image among the double's columns.

    The natural inclusion appends a zero coordinate; the image must act on
    the base copy exactly as the original does, which pins it down, and it
    must be verified as a genuine column vector of the double.
    """
    by_vector = {c.vector: c for c in product_table(result.doubled).columns}
    mapping = {}
    for c in product_table(p).columns:
        candidates = [c.vector + (0,)]
        matches = [by_vector[v] for v in candidates if v in by_vector]
        if not matches:
            raise NoExtensionError(
                f"column {c.vector} has no image among the double's columns"
            )
        if len(matches) > 1:
            raise AmbiguousExtensionError(
                f"column {c.vector} extends ambiguously"
            )
        mapping[c] = matches[0]
    if len(set(mapping.values())) != len(mapping):
        raise AmbiguousExtensionError("column inclusion is not injective")
    return mapping


# ---------------------------------------------------------------------------
# doubling chains with a fair first-in-first-out schedule


@dataclass
class TrackedColumn:
    ident: int
    birth_vector: tuple
    birth_step: int
    enqueue_position: int
    decomposed_step: Optional[int] = None

    def vector_at(self, ambient_dim):
        pad = ambient_dim - len(self.birth_vector)
        return self.birth_vector + (0,) * pad


@dataclass
class SpectrumStep:
    index: int
    chosen: TrackedColumn
    chosen_vector: tuple
    facet_key: tuple
    result: DoublingResult
    decomposed: list
    queue_after: list


@dataclass
class DoublingSpectrum:
    initial: Polytope
    steps: list = field(default_factory=list)
    tracked: dict = field(default_factory=dict)
    final: Optional[Polytope] = None


def doubling_spectrum(p, steps):
    """Run a FIFO doubling schedule for the given number of steps.

    The queue starts with Col(P) in canonical order.  Each step pops the
    front column, doubles along its base facet, marks every tracked column
    with that base facet as decomposed, and enqueues the new columns of the
    double.  A column enqueued with k entries ahead of it is popped within
    k+1 steps, so every column is decomposed no later than its
    enqueue-time queue length: the schedule is fair.
    """
    if steps < 1:
        raise ValueError("a spectrum needs at least one step")
    initial_cols = product_table(p).columns
    if not initial_cols:
        raise ValueError("doubling spectra need a polytope with columns")

    spectrum = DoublingSpectrum(initial=p)
    queue = deque()
    next_id = 0
    for c in initial_cols:
        tc = TrackedColumn(
            ident=next_id,
            birth_vector=c.vector,
            birth_step=0,
            enqueue_position=len(queue) + 1,
        )
        next_id += 1
        spectrum.tracked[tc.ident] = tc
        queue.append(tc.ident)

    current = p
    for step_index in range(1, steps + 1):
        ident = queue.popleft()
        tc = spectrum.tracked[ident]
        vec = tc.vector_at(current.ambient_dim)
        cols = {c.vector: c for c in product_table(current).columns}
        if vec not in cols:
            raise InternalCheckError(
                f"tracked column {vec} vanished from the chain"
            )
        chosen = cols[vec]
        facet = current.facets[chosen.base]
        result = double_along_facet(current, facet)

        decomposed_now = []
        for other in spectrum.tracked.values():
            if other.decomposed_step is not None:
                continue
            ovec = other.vector_at(current.ambient_dim)
            col = cols.get(ovec)
            if col is not None and col.base == chosen.base:
                other.decomposed_step = step_index
                decomposed_now.append(other.ident)

        current = result.doubled
        new_cols = product_table(current).columns
        known = {
            t.vector_at(current.ambient_dim) for t in spectrum.tracked.values()
        }
        for c in new_cols:
            if c.vector in known:
                continue
            tc_new = TrackedColumn(
                ident=next_id,
                birth_vector=c.vector,
                birth_step=step_index,
                enqueue_position=len(queue) + 1,
            )
            next_id += 1
            spectrum.tracked[tc_new.ident] = tc_new
            queue.append(tc_new.ident)
            known.add(c.vector)

        spectrum.steps.append(
            SpectrumStep(
                index=step_index,
                chosen=tc,
                chosen_vector=vec,
                facet_key=facet.key(),
                result=result,
                decomposed=decomposed_now,
                queue_after=list(queue),
            )
        )
    spectrum.final = current
    return spectrum


def spectrum_report(spectrum):
    """JSON-ready report: per-step data plus the fairness ledger."""
    steps_data = []
    for st in spectrum.steps:
        steps_data.append(
            {
                "step": st.index,
                "chosen_id": st.chosen.ident,
                "chosen_vector": list(st.chosen_vector),
                "facet_normal": list(st.facet_key[0]),
                "facet_offset": st.facet_key[1],
                "vertices": [list(v) for v in st.result.doubled.vertices],
                "lattice_count_identity": st.result.count_identity_holds,
                "decomposed_ids": sorted(st.decomposed),
                "queue_after": list(st.queue_after),
            }
        )
    ledger = []
    for ident in sorted(spectrum.tracked):
        tc = spectrum.tracked[ident]
        delay = (
            tc.decomposed_step - tc.birth_step
            if tc.decomposed_step is not None
            else None
        )
        ledger.append(
            {
                "id": tc.ident,
                "vector": list(tc.birth_vector),
                "enqueued_step": tc.birth_step,
                "enqueue_position": tc.enqueue_position,
                "decomposed_step": tc.decomposed_step,
                "delay": delay,
            }
        )
    return {
        "initial_vertices": [list(v) for v in spectrum.initial.vertices],
        "steps": steps_data,
        "fairness_ledger": ledger,
    }
