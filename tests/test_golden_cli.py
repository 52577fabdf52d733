"""Byte-identity of the CLI against committed digests.

Each command runs in process with its polytope on stdin; the digest is the
sha256 of the JSON list [exit code, stdout, stderr].  ``golden_cli.json``
holds the digests.  A change that alters some output on purpose rewrites
the file with

    PYTHONPATH=src python -m tests.test_golden_cli

which prints each label it adds, removes or changes; a change says in its
description which commands changed and why.
"""

import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from polycol.cli import main
from polycol.doubling import doubling_spectrum
from polycol.polytopes import polytope_from_points

from .conftest import (
    CORPUS,
    EMPTY_SIMPLEX,
    NON_NORMAL_SIMPLEX,
    REEVE_TETRAHEDRON,
    SQUARE_PYRAMID,
    TRAPEZOID,
    TRIANGLE_X_TRIANGLE,
)

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMS = (
    ("analyze",),
    ("verify", "--which", "steinberg"),
    ("verify", "--which", "embedding"),
    ("verify", "--which", "heights"),
    ("verify", "--which", "columns-property"),
    ("verify", "--which", "doubling"),
    ("export", "--what", "dot"),
    ("export", "--what", "presentation"),
    ("export", "--what", "presentation-json"),
    ("export", "--what", "fan"),
    ("export", "--what", "columns-json"),
    ("spectrum", "--steps", "3"),
)

# the equivalence search beyond polygons: its symmetry groups and the
# doubling check's unimodular-simplex test; and the Steinberg report in
# dimensions 3 and 4, up to the 380 pairs of the unit 4-simplex's 20 columns
SEARCH_POLYTOPES = [
    polytope_from_points(list(itertools.product((0, 1), repeat=3)), name="3-cube"),
    polytope_from_points(
        [(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)],
        name="triangle x segment",
    ),
    polytope_from_points(
        [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(0,) * 4],
        name="unit 4-simplex",
    ),
]
SEARCH_FORMS = (
    ("analyze",),
    ("verify", "--which", "steinberg"),
    ("verify", "--which", "doubling"),
)

# a lower-dimensional input: every command charts it onto its
# full-dimensional model over the saturated lattice of its plane
PLANAR_TRAPEZOID = polytope_from_points(
    [(3 - x - 2 * z, x, z) for x, z in TRAPEZOID.vertices],
    name="trapezoid in x + y + 2z = 3",
)
PLANAR_FORMS = (
    ("analyze",),
    ("verify", "--which", "steinberg"),
    ("verify", "--which", "doubling"),
    ("export", "--what", "fan"),
    ("spectrum", "--steps", "3"),
)

# degenerate inputs: a point of Z^0, a segment of Z^1, a point of Z^2 and
# the column-free reflexive hexagon
DEGENERATE_POLYTOPES = [
    polytope_from_points([()], name="point of Z^0"),
    polytope_from_points([(0,), (4,)], name="segment of length 4"),
    polytope_from_points([(1, 2)], name="point of Z^2"),
    polytope_from_points(
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
        name="reflexive hexagon",
    ),
]
DEGENERATE_FORMS = (
    ("analyze",),
    ("export", "--what", "fan"),
    ("spectrum", "--steps", "1"),
)

# the search forms on larger symmetry groups: triangle x triangle (72
# symmetries), steps 2 and 3 of the trapezoid's doubling chain (12 and 36)
# and the 4-cube (384); numbered after the degenerate inputs, so the labels
# above keep their numbers
_CHAIN = doubling_spectrum(TRAPEZOID, 3).steps
SYMMETRY_POLYTOPES = [
    TRIANGLE_X_TRIANGLE,
    polytope_from_points(
        _CHAIN[1].result.doubled.vertices, name="trapezoid chain step 2"
    ),
    polytope_from_points(list(itertools.product((0, 1), repeat=4)), name="4-cube"),
    polytope_from_points(
        _CHAIN[2].result.doubled.vertices, name="trapezoid chain step 3"
    ),
]


def _stdin(p):
    return json.dumps({"name": p.name, "vertices": [list(v) for v in p.vertices]})


def golden_commands():
    """{label: (argv, stdin text)} for every form on every test polytope,
    numbered since two share a name, the search forms on the search
    polytopes, the planar forms on the trapezoid in a plane of Z^3, the
    degenerate forms on the degenerate inputs, the search forms on the
    symmetry polytopes, the trapezoid's presentation
    mod 3, its doubling chain to 11 steps, the chains of the square pyramid
    and triangle x segment to 7 steps, and the polygon scans of boxes 1-4 at
    seed 7."""
    commands = {}
    polytopes = CORPUS + [REEVE_TETRAHEDRON, EMPTY_SIMPLEX, NON_NORMAL_SIMPLEX]
    jobs = [(p, FORMS) for p in polytopes]
    jobs += [(p, SEARCH_FORMS) for p in SEARCH_POLYTOPES]
    jobs.append((PLANAR_TRAPEZOID, PLANAR_FORMS))
    jobs += [(p, DEGENERATE_FORMS) for p in DEGENERATE_POLYTOPES]
    jobs += [(p, SEARCH_FORMS) for p in SYMMETRY_POLYTOPES]
    for i, (p, forms) in enumerate(jobs):
        for sub, *rest in forms:
            commands[" ".join([sub, *rest, f"{i:02d}", p.name])] = ([sub, "-", *rest], _stdin(p))
    commands["export --what presentation --modulus 3 trapezoid"] = (
        ["export", "-", "--what", "presentation", "--modulus", "3"], _stdin(TRAPEZOID))
    commands["spectrum --steps 11 trapezoid"] = (
        ["spectrum", "-", "--steps", "11"], _stdin(TRAPEZOID))
    for p in (SQUARE_PYRAMID, SEARCH_POLYTOPES[1]):
        commands[f"spectrum --steps 7 {p.name}"] = (
            ["spectrum", "-", "--steps", "7"], _stdin(p))
    for box in (1, 2, 3, 4):
        argv = ["scan-polygons", "--box", str(box), "--seed", "7"]
        commands[" ".join(argv)] = (argv, "")
    return commands


def call(argv, text):
    """[exit code, stdout, stderr] of one in-process CLI call with ``text``
    on stdin; an argv that the parser refuses gives its exit code."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return [code, out.getvalue(), err.getvalue()]


def digest(argv, text):
    """sha256 of [exit code, stdout, stderr] of one in-process CLI call."""
    payload = json.dumps(call(argv, text))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_cli_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    commands = golden_commands()
    assert sorted(commands) == sorted(golden)
    changed = [label for label, (argv, text) in commands.items()
               if digest(argv, text) != golden[label]]
    assert changed == []


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = {label: digest(argv, text)
               for label, (argv, text) in golden_commands().items()}
    for label in sorted(old.keys() | digests.keys()):
        if label not in old:
            print(f"added: {label}")
        elif label not in digests:
            print(f"removed: {label}")
        elif old[label] != digests[label]:
            print(f"changed: {label}")
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
