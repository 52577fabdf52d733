"""Analysis reports and machine-readable exports.

Every report is deterministic: canonical orderings everywhere, sorted JSON
keys, and integers rendered as strings once they leave the 64-bit range.

``to_json`` renders a report in one recursive pass, with no copy of the
report first.  Its bytes are those of ``json.dumps(sort_keys=True,
indent=2)`` on the report with every dict key passed through ``str`` and
every int with |n| >= 2^63 turned into its decimal string; the standard
encoder needs that copy and has no C path for indented output.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .algebra import symmetry_group_data
from .columns import (
    classify_balanced_polygon,
    is_balanced,
    is_col_divisible,
    product_table,
)
from .polytopes import (
    normal_fan,
    normalize_full_dim,
    polytope_from_points,
)

_I64 = 2**63
_INT = frozenset([int])

GROUP_SHAPES = {
    "a": ("E_a", "E(R)"),
    "b": ("E_b", "[[E(R), End(R^oo)], [0, E(R)]]"),
    "c": (
        "E_c",
        "[[E(R), End(R^oo), Hom(R^oo,R)], [0, E(R), Hom(R^oo,R)], [0, 0, 1]]",
    ),
    "d": ("E_d,t", "[[E(R), Hom(R^oo,R^t)], [0, Id_t]]"),
    "e": ("E_e", "E(R) x E(R)"),
    "f": ("E_f", "[[E(R), Hom(R^oo,R)], [0, 1]] x [[E(R), Hom(R^oo,R)], [0, 1]]"),
}


def _render(obj, nl):
    # nl is the newline plus the indent of the line obj starts on.  A dict's
    # values are rendered in insertion order before its keys are sorted, so
    # the TypeError names the first bad value in that order, and of two keys
    # with one str form the later one's value is kept.
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        if abs(obj) >= _I64:
            return encode_basestring_ascii(str(obj))
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): _render(v, inner) for k, v in obj.items()}
        body = ("," + inner).join(
            encode_basestring_ascii(k) + ": " + v for k, v in sorted(items.items())
        )
        return "{" + inner + body + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _INT.issuperset(map(type, obj)) and max(map(abs, obj)) < _I64:
            # plain ints in the 64-bit range (no bool): one join, no recursion
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in obj]) + nl + "]"
    raise TypeError(f"not JSON-serializable: {obj!r}")


def to_json(data):
    """Sorted-key JSON with a two-space indent and a final newline."""
    return _render(data, "\n") + "\n"


def parse_polytope_json(text):
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("polytope JSON is nested too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError('polytope JSON needs a "vertices" list')
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("vertices must be a nonempty list")
    pts = []
    for v in vertices:
        if not isinstance(v, list):
            raise ValueError("each vertex must be a list of integers")
        for c in v:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"non-integral coordinate {c!r}")
        pts.append(tuple(v))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"name must be a string or null, not {name!r}")
    return polytope_from_points(pts, name=name)


def analysis_report(p):
    """Full structural report of a polytope, on its normalized model."""
    q, _ = normalize_full_dim(p)
    table = product_table(q)
    balanced, bal_witness = is_balanced(q)
    report = {
        "name": p.name,
        "input_vertices": [list(v) for v in p.vertices],
        "canonical_vertices": [list(v) for v in q.vertices],
        "ambient_dim": p.ambient_dim,
        "dim": q.dim,
        "lattice_point_count": len(q.lattice_points),
        "facets": [
            {
                "normal": list(f.normal),
                "offset": f.offset,
                "lattice_point_count": len(f.on_facet),
            }
            for f in q.facets
        ],
        "columns": [
            {"vector": list(c.vector), "base_facet": c.base}
            for c in table.columns
        ],
        "products": [list(t) for t in table.products],
        "balanced": {
            "holds": balanced,
            "witness": None
            if bal_witness is None
            else {
                "u": list(bal_witness[0].vector),
                "v": list(bal_witness[1].vector),
                "value": bal_witness[2],
            },
        },
        "column_count_plus_dim_plus_1": len(table.columns) + q.dim + 1,
    }
    if balanced:
        ok, witness = is_col_divisible(q)
        report["col_divisible"] = {
            "holds": ok,
            "witness": None if witness is None else _divisibility_witness(witness),
        }
    else:
        report["col_divisible"] = None
    if q.dim == 2 and balanced:
        cls = classify_balanced_polygon(q)
        label, shape = GROUP_SHAPES[cls.label]
        if cls.label == "d":
            label = f"E_d,{cls.same_base_count}"
        report["polygon_class"] = {
            "label": cls.label,
            "same_base_count": cls.same_base_count,
        }
        report["group_shape"] = {"label": label, "blocks": shape}
    else:
        report["polygon_class"] = None
        report["group_shape"] = None
    sym = symmetry_group_data(q)
    report["symmetry_order"] = sym["symmetry_order"]
    report["inversion_subgroup_order"] = sym["inversion_order"]
    report["inversion_quotient_order"] = sym["quotient_order"]
    report["inversions_normal"] = sym["inversions_normal"]
    return report


def _divisibility_witness(witness):
    kind = witness[0]
    return {
        "clause": kind,
        "columns": [list(c.vector) for c in witness[1:]],
    }


def normal_fan_json(p):
    fan = normal_fan(p)
    return {
        "dim": p.dim,
        "cones": [
            {"vertex": list(v), "generators": [list(g) for g in gens]}
            for v, gens in sorted(fan.cones)
        ],
    }
