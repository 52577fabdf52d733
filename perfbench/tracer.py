"""Outside-in span tracing for polycol, installed by rebinding public names.

Nothing inside polycol changes.  Before a workload starts, each traced
function is replaced by a wrapper in every ``polycol.*`` namespace that holds
it (so ``from .columns import column_vectors`` in ``scan`` is reached too),
methods are replaced on their class, and ``cached_property`` objects get a
wrapped ``.func``.  A wrapper records one span per call: name, start, end and
the index of the enclosing span.  Spans of one process share its run id.
Spans stay in flat in-memory arrays until ``Tracer.write`` at the end.

A few very hot functions (``Poly.__mul__``, ``Poly.__add__``) are counted
instead of spanned: a span each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from functools import cached_property
from math import prod

clock = time.perf_counter

# (module, attribute path) of every spanned function; the span name is
# "<module>.<attribute path>".
SPANNED = (
    ("exactmath", "hermite_normal_form"),
    ("exactmath", "rank_int"),
    ("exactmath", "det_int"),
    ("exactmath", "solve_int"),
    ("exactmath", "mat_inverse_frac"),
    ("polytopes", "dual_description"),
    ("polytopes", "polytope_from_points"),
    ("polytopes", "normalize_full_dim"),
    ("polytopes", "normalized_volume"),
    ("polytopes", "Polytope.lattice_points"),
    ("polytopes", "Polytope.facets"),
    ("polytopes", "integral_affine_equivalent"),
    ("polytopes", "polygon_cycle"),
    ("columns", "column_vectors"),
    ("columns", "product_table"),
    ("columns", "is_balanced"),
    ("columns", "is_col_divisible"),
    ("columns", "classify_balanced_polygon"),
    ("doubling", "double_along_facet"),
    ("doubling", "extend_columns"),
    ("doubling", "doubling_spectrum"),
    ("algebra", "elementary_automorphism"),
    ("algebra", "GradedAutomorphism.compose"),
    ("algebra", "GradedAutomorphism.is_identity"),
    ("algebra", "verify_steinberg_relations"),
    ("algebra", "verify_additive_embedding"),
    ("algebra", "symmetry_group_data"),
    ("algebra", "sp_membership"),
    ("scan", "enumerate_polygons"),
    ("scan", "scan_polygons"),
    ("reports", "parse_polytope_json"),
    ("reports", "analysis_report"),
    ("reports", "to_json"),
    ("cli", "main"),
)

COUNTED = (
    ("exactmath", "Poly.__mul__"),
    ("exactmath", "Poly.__add__"),
)

# ratio name -> (numerator tally, denominator tally) filled by the hooks below
RATIOS = {
    "polytopes.lattice_points.yield_ratio": ("lattice_points.points", "lattice_points.cells"),
    "polytopes.integral_affine_equivalent.match_ratio": ("iae.matches", "iae.calls"),
    "columns.column_vectors.distinct_ratio": ("column_vectors.distinct", "column_vectors.calls"),
    "columns.product_table.build_ratio": ("product_table.builds", "product_table.calls"),
    "algebra.elementary_automorphism.distinct_ratio": ("elementary.distinct", "elementary.calls"),
}


def metric_names():
    """Per-layer metric names in a fixed order, with their units."""
    out = []
    for module, attr in SPANNED:
        out.append((f"{module}.{attr}.calls", "count"))
        out.append((f"{module}.{attr}.self_s", "s"))
    for module, attr in COUNTED:
        out.append((f"{module}.{attr}.calls", "count"))
    for name in RATIOS:
        out.append((name, "ratio"))
    return out


class Tracer:
    """Span store plus the tallies behind the ratio metrics."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {}
        self.tally = dict.fromkeys((t for pair in RATIOS.values() for t in pair), 0)
        self._seen = {"column_vectors": set(), "elementary": set()}
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span_wrapper(self, name, fn, hook=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- ratio hooks --------------------------------------------------------

    def _hook_lattice_points(self, args, kwargs, result):
        p = args[0]
        if p.dim == 0 or not p.is_full_dimensional:
            return
        n = p.ambient_dim
        cells = prod(
            max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices) + 1
            for i in range(n)
        )
        self.tally["lattice_points.points"] += len(result)
        self.tally["lattice_points.cells"] += cells

    def _hook_iae(self, args, kwargs, result):
        self.tally["iae.calls"] += 1
        if result is not None:
            self.tally["iae.matches"] += 1

    def _hook_column_vectors(self, args, kwargs, result):
        p = args[0]
        seen = self._seen["column_vectors"]
        self.tally["column_vectors.calls"] += 1
        key = (p.ambient_dim, p.vertices)
        if key not in seen:
            seen.add(key)
            self.tally["column_vectors.distinct"] += 1

    def _hook_elementary(self, args, kwargs, result):
        p, col, lam, ring = args[:4]
        seen = self._seen["elementary"]
        self.tally["elementary.calls"] += 1
        vec = tuple(getattr(col, "vector", col))
        key = (p.ambient_dim, p.vertices, vec, repr(lam), repr(ring))
        if key not in seen:
            seen.add(key)
            self.tally["elementary.distinct"] += 1

    def _hooks(self):
        return {
            "polytopes.Polytope.lattice_points": self._hook_lattice_points,
            "polytopes.integral_affine_equivalent": self._hook_iae,
            "columns.column_vectors": self._hook_column_vectors,
            "algebra.elementary_automorphism": self._hook_elementary,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every traced name in all loaded polycol modules."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "polycol" or name.startswith("polycol.")
        ]
        hooks = self._hooks()
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            self._patch(modules, module, attr,
                        lambda fn, name=name: self.span_wrapper(name, fn, hooks.get(name)))
        for module, attr in COUNTED:
            name = f"{module}.{attr}"
            self._patch(modules, module, attr,
                        lambda fn, name=name: self.count_wrapper(name, fn))

    def _patch(self, modules, module, attr, make):
        home = sys.modules[f"polycol.{module}"]
        if "." not in attr:
            original = getattr(home, attr)
            wrapper = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
            return
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        descriptor = cls.__dict__[meth]
        if isinstance(descriptor, cached_property):
            self._set(descriptor, "func", make(descriptor.func))
            return
        wrapper = make(descriptor)
        # aliases such as ``__rmul__ = __mul__`` are the same function object
        for key, value in list(vars(cls).items()):
            if value is descriptor:
                self._set(cls, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        out = array("d", (e - s for s, e in zip(starts, ends)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                out[parent] -= ends[i] - starts[i]
        return out

    def metrics(self):
        """Per-layer metrics of this process, named as in ``metric_names``."""
        selfs = self.self_times()
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for nid, t in zip(self.span_name, selfs):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += t
        # a product_table call built a table iff it has a column_vectors child
        table_id = self.name_ids.get("columns.product_table")
        cv_id = self.name_ids.get("columns.column_vectors")
        built = {
            parent for i, parent in enumerate(self.span_parent)
            if parent >= 0 and self.span_name[i] == cv_id
            and self.span_name[parent] == table_id
        }
        tally = dict(self.tally)
        tally["product_table.builds"] = len(built)
        tally["product_table.calls"] = calls.get("columns.product_table", 0)
        out = {}
        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for module, attr in COUNTED:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = self.counts.get(name, 0)
        for name, (num, den) in RATIOS.items():
            out[name] = tally[num] / tally[den] if tally[den] else 0.0
        return out

    def write(self, path):
        """Write the spans: a JSON header with the run id and the span names,
        then one ``[name index, start, end, parent index]`` line per span,
        where a span's index is its line number after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "names": self.names}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                fh.write("[%d,%r,%r,%d]\n" % row)
