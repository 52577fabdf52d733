"""Command-line interface.

Subcommands: analyze, scan-polygons, verify, export, spectrum.  Input is the
polytope JSON schema {"name": ..., "vertices": [[int, ...], ...]}; outputs
are deterministic bytes for fixed input.  Exit codes: 0 success, 1 failed
checks, 2 invalid input, 3 internal consistency error or any other
unexpected exception raised inside polycol.
"""

from __future__ import annotations

import re
import sys
import types

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


_CHECKS = {
    "steinberg": _verify_steinberg,
    "embedding": _verify_embedding,
    "heights": _verify_heights,
    "columns-property": _verify_columns_property,
    "doubling": _verify_doubling,
}


def cmd_verify(args):
    p = parse_polytope_json(_read_input(args.input))
    q, _ = normalize_full_dim(p)
    report, ok = _CHECKS[args.which](q, args)
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


_OUTPUT = (str, None, False)
# subcommand: (handler, reads an input, help, flags), the flags in the order
# that messages list them; a flag's key joins its option strings by "/", its
# dest is the last one without dashes, and its value is (int, float, str or
# a tuple of the choices, default, required)
_COMMANDS = {
    "analyze": (cmd_analyze, True, "full structural report", {"-o/--output": _OUTPUT}),
    "scan-polygons": (cmd_scan, False, "exhaustive polygon scan", {
        "--box": (int, 3, False), "--seed": (int, 0, False),
        "--sample-rate": (float, 0.01, False), "-o/--output": _OUTPUT}),
    "verify": (cmd_verify, True, "run a verification suite",
               {"-o/--output": _OUTPUT, "--which": (tuple(_CHECKS), None, True)}),
    "export": (cmd_export, True, "machine-readable exports", {
        "-o/--output": _OUTPUT, "--what": (("dot", "presentation", "presentation-json",
                                            "fan", "columns-json"), None, True),
        "--modulus": (int, None, False)}),
    "spectrum": (cmd_spectrum, True, "FIFO doubling chain report",
                 {"-o/--output": _OUTPUT, "--steps": (int, 5, False)}),
}


def _usage(command, full=False):
    """The usage line; with full, the help text that -h prints."""
    if command is None:
        line = "usage: polycol [-h] {" + ",".join(_COMMANDS) + "} ..."
        about = "lattice polytope column structures:" + "".join(
            f"\n  {name:<14} {spec[2]}" for name, spec in _COMMANDS.items())
    else:
        _, reads, about, flags = _COMMANDS[command]
        words = [f"usage: polycol {command} [-h]"]
        for f, (kind, _, required) in flags.items():
            meta = f.split("/")[-1][2:].replace("-", "_").upper()
            meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else meta
            words.append(f"{f} {meta}" if required else f"[{f} {meta}]")
        line = " ".join(words + ["input"] * reads)
        about += "; input: a JSON file, or -" * reads
    return f"{line}\n\n{about}\n" if full else line


def _fail(command, message):
    prog = "polycol" if command is None else f"polycol {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _value(command, name, kind, text):
    """text as a value of kind: int, float, str or a tuple of the choices."""
    if isinstance(kind, tuple) and text not in kind:
        _fail(command, f"argument {name}: invalid choice: {text!r} "
              f"(choose from {', '.join(map(repr, kind))})")
    try:
        return text if isinstance(kind, tuple) else kind(text)
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _scan(command, argv, values):
    """One pass over one parser level of argv: fills values, returns the
    unrecognized arguments.  Every option is read before any value is
    checked, so an ambiguous prefix is reported first.  The top level
    (command None) has one positional, the command, which takes every
    argument after it."""
    flags, positional = {}, "command"
    if command is not None:
        _, reads, _, flags = _COMMANDS[command]
        positional = "input" if reads else None
        if reads:
            values["input"] = None
    dests = {f: f.split("/")[-1].lstrip("-").replace("-", "_") for f in flags}
    values.update((dests[f], spec[1]) for f, spec in flags.items())
    opts = {"-h": "-h/--help", "--help": "-h/--help"}
    opts.update((s, f) for f in flags for s in f.split("/"))

    def classify(arg):
        # None for a positional, else (option string, "" for an unknown
        # one, and the value glued to it or None)
        if arg in opts:
            return arg, None
        if not arg.startswith("-") or arg == "-":
            return None
        name, eq, value = arg.partition("=")
        if eq and name in opts:
            return name, value
        if arg[1] == "-":
            hits = [(s, value if eq else None) for s in opts if s.startswith(name)]
        else:
            hits = [(arg[:2], arg[2:])] if arg[:2] in opts else []
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {arg} could match "
                  f"{', '.join(s for s, _ in hits)}")
        if hits:
            return hits[0]
        if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
            return None  # a negative number, or a value with a space
        return "", None

    cut = argv.index("--") if "--" in argv else len(argv)  # all after it are positionals
    found = {i: classify(arg) for i, arg in enumerate(argv[:cut])}
    extras, i = [], 0
    while i < len(argv):
        j = i + (i == cut)  # a positional takes the "--" before it
        if found.get(i):
            (s, glued), helped = found[i], False
            while glued is not None and opts.get(s) == "-h/--help":  # -h glues -h or -o
                if s[1] == "-" or not glued or "-" + glued[0] not in opts:
                    _fail(command, f"argument -h/--help: ignored explicit argument {glued!r}")
                s, glued, helped = "-" + glued[0], glued[1:] or None, True
            flag = opts.get(s)
            if flag and flag != "-h/--help" and glued is None:
                i += 1
                if i == len(argv) or i == cut or found.get(i):
                    _fail(command, f"argument {flag}: expected one argument")
                glued = argv[i]
            if helped or flag == "-h/--help":
                sys.stdout.write(_usage(command, full=True))
                raise SystemExit(0)
            if flag is None:
                extras.append(argv[i])
            else:
                values[dests[flag]] = _value(command, flag, flags[flag][0], glued)
            i += 1
        elif positional is None or j == len(argv):
            extras.append(argv[i])
            i += 1
        elif command is None:
            name = values["command"] = _value(None, positional, tuple(_COMMANDS), argv[i])
            values["func"] = _COMMANDS[name][0]
            return extras + _scan(name, argv[i + 1:], values)
        else:
            values["input"], positional = argv[j], None
            i = j + 1 + (j + 1 == cut)  # and the "--" after it
    # a required flag has no default, so it is missing while its value is None
    missing = [positional] if positional else []
    missing += [f for f, spec in flags.items() if spec[2] and values[dests[f]] is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return extras


def parse_args(argv):
    """The namespace for argv: command, func, input and one attribute per
    flag.  An argument error prints a usage line and a
    ``polycol[ command]: error: ...`` line to stderr and raises
    SystemExit(2); -h or --help prints the usage to stdout and raises
    SystemExit(0)."""
    values = {"command": None}
    extras = _scan(None, list(argv), values)
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**values)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
