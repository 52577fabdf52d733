"""Command-line interface.

Subcommands: analyze, scan-polygons, verify, export, spectrum.  Input is the
polytope JSON schema {"name": ..., "vertices": [[int, ...], ...]}; outputs
are deterministic bytes for fixed input.  Exit codes: 0 success, 1 failed
checks, 2 invalid input, 3 internal consistency error or any other
unexpected exception raised inside polycol.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (
    check_column_property,
    steinberg_presentation_json,
    steinberg_presentation_lines,
    steinberg_presentation_mod,
    verify_additive_embedding,
    verify_steinberg_relations,
)
from .columns import (
    column_vectors,
    columns_dot,
    columns_json_data,
    is_balanced,
    product_table,
)
from .doubling import double_along_facet, doubling_spectrum, spectrum_report
from .exactmath import dot
from .polytopes import (
    InternalCheckError,
    is_unimodular_simplex,
    normalize_full_dim,
)
from .reports import (
    analysis_report,
    normal_fan_json,
    parse_polytope_json,
    to_json,
)
from .scan import scan_polygons


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args):
    p = parse_polytope_json(_read_input(args.input))
    _emit(to_json(analysis_report(p)), args.output)
    return 0


def cmd_scan(args):
    summary = scan_polygons(args.box, seed=args.seed, sample_rate=args.sample_rate)
    _emit(to_json(summary), args.output)
    ok = not summary["unclassified"] and not summary["col_divisibility_failures"]
    return 0 if ok else 1


def _verify_steinberg(q, args):
    balanced, _ = is_balanced(q)
    if not balanced:
        return {"check": "steinberg", "error": "polytope is not balanced"}, False
    rep = verify_steinberg_relations(q)
    return {"check": "steinberg", "report": rep}, rep["all_ok"]


def _verify_embedding(q, args):
    table = product_table(q)
    bases = sorted({c.base for c in table.columns})
    reports = [verify_additive_embedding(q, b) for b in bases]
    ok = all(r["all_ok"] for r in reports)
    return {"check": "embedding", "reports": reports}, ok


def _verify_heights(q, args):
    pruned = product_table(q).columns
    unpruned = column_vectors(q, pruned=False)
    heights = [
        {"vector": list(c.vector), "base": c.base,
         "height": dot(q.facets[c.base].normal, c.vector)}
        for c in pruned
    ]
    agree = pruned == unpruned
    ok = agree and all(h["height"] == -1 for h in heights)
    return {
        "check": "heights",
        "columns": heights,
        "pruned_matches_unpruned": agree,
    }, ok


def _verify_columns_property(q, args):
    # degree one decides every degree (see check_column_property)
    results = []
    ok = True
    for c in product_table(q).columns:
        flag, violations = check_column_property(q, c)
        results.append(
            {"vector": list(c.vector), "ok": flag,
             "violations": [[list(z), d] for z, d in violations]}
        )
        ok = ok and flag
    return {"check": "columns-property", "columns": results}, ok


def _verify_doubling(q, args):
    results = []
    ok = True
    # the step asks whether the double is the unit (n + 1)-simplex up to
    # lattice equivalence; the double is full-dimensional, and such a
    # simplex is exactly when its edges at a vertex form a lattice basis,
    # which is what is_unimodular_simplex tests
    simplex = is_unimodular_simplex(q)
    for i, f in enumerate(q.facets):
        r = double_along_facet(q, i)
        entry = {
            "facet": {"normal": list(f.normal), "offset": f.offset},
            "facet_count_delta": len(r.doubled.facets) - len(q.facets),
            "lattice_count_identity": r.count_identity_holds,
            "columns_extend": len(r.col_inclusion) == len(product_table(q).columns),
        }
        if simplex:
            entry["unimodular_simplex_step"] = is_unimodular_simplex(r.doubled)
            ok = ok and entry["unimodular_simplex_step"]
        ok = ok and entry["facet_count_delta"] == 1 and entry["columns_extend"]
        results.append(entry)
    return {"check": "doubling", "facets": results}, ok


def cmd_verify(args):
    p = parse_polytope_json(_read_input(args.input))
    q, _ = normalize_full_dim(p)
    dispatch = {
        "steinberg": _verify_steinberg,
        "embedding": _verify_embedding,
        "heights": _verify_heights,
        "columns-property": _verify_columns_property,
        "doubling": _verify_doubling,
    }
    report, ok = dispatch[args.which](q, args)
    report["ok"] = ok
    _emit(to_json(report), args.output)
    return 0 if ok else 1


def cmd_export(args):
    p = parse_polytope_json(_read_input(args.input))
    q, _ = normalize_full_dim(p)
    if args.what == "dot":
        _emit(columns_dot(q), args.output)
    elif args.what == "presentation":
        if args.modulus is not None:
            lines = steinberg_presentation_mod(q, args.modulus)
        else:
            lines = steinberg_presentation_lines(q)
        _emit("\n".join(lines) + "\n", args.output)
    elif args.what == "presentation-json":
        _emit(to_json(steinberg_presentation_json(q)), args.output)
    elif args.what == "fan":
        _emit(to_json(normal_fan_json(q)), args.output)
    elif args.what == "columns-json":
        _emit(to_json(columns_json_data(q)), args.output)
    return 0


def cmd_spectrum(args):
    p = parse_polytope_json(_read_input(args.input))
    q, _ = normalize_full_dim(p)
    chain = doubling_spectrum(q, args.steps)
    _emit(to_json(spectrum_report(chain)), args.output)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser as it was: each ``parse_args`` fills a new
    namespace from the defaults, so calls in one process see no state of
    the calls before them.
    """
    parser = argparse.ArgumentParser(
        prog="polycol",
        description="Exact column-structure computations on lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("input", help="polytope JSON file, or - for stdin")
        sp.add_argument("-o", "--output", default=None, help="output file")

    sp = sub.add_parser("analyze", help="full structural report")
    add_io(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("scan-polygons", help="exhaustive polygon scan")
    sp.add_argument("--box", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sample-rate", type=float, default=0.01)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", help="run a verification suite")
    add_io(sp)
    sp.add_argument(
        "--which",
        required=True,
        choices=["steinberg", "embedding", "heights", "columns-property", "doubling"],
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("export", help="machine-readable exports")
    add_io(sp)
    sp.add_argument(
        "--what",
        required=True,
        choices=["dot", "presentation", "presentation-json", "fan", "columns-json"],
    )
    sp.add_argument("--modulus", type=int, default=None)
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("spectrum", help="FIFO doubling chain report")
    add_io(sp)
    sp.add_argument("--steps", type=int, default=5)
    sp.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug in polycol, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
