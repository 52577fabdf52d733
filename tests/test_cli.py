import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycol
from polycol import polytopes
from polycol.cli import main, parse_args
from polycol.reports import analysis_report, parse_polytope_json, to_json
from polycol.scan import enumerate_polygons, scan_polygons

from .conftest import SQUARE_PYRAMID, TRAPEZOID
from .helpers import argparse_parser, json_dumps_report
from .test_golden_cli import call, golden_commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(tmp_path, name, vertices):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "vertices": vertices}))
    return str(path)


def test_cli_import_loads_no_unused_stdlib_modules():
    # every CLI call pays for its imports; none of these is used by a
    # command, and parsing the arguments needs neither argparse nor the
    # gettext and locale modules that it loads
    src = str(Path(polycol.__file__).resolve().parent.parent)
    code = (
        "import io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import polycol.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "code = polycol.cli.main(['scan-polygons', '--box', '1'])\n"
        "sys.stdout = out\n"
        "print(code, ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    imported, called = out.splitlines()
    code, called = called.split(" ", 1)
    added, after_call = set(imported.split()), set(called.split())
    assert code == "0"
    assert "polycol.cli" in added
    assert added.isdisjoint({"dataclasses", "fractions", "decimal", "inspect"})
    for modules in (added, after_call):
        assert modules.isdisjoint({"argparse", "gettext", "locale"})


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_polytope_json("[1, 2]")
    with pytest.raises(ValueError):
        parse_polytope_json('{"vertices": []}')
    with pytest.raises(ValueError):
        parse_polytope_json('{"vertices": [[0.5, 1]]}')


def test_analysis_report_trapezoid():
    report = analysis_report(TRAPEZOID)
    assert report["dim"] == 2
    assert report["lattice_point_count"] == 5
    assert report["balanced"]["holds"]
    assert report["col_divisible"]["holds"]
    assert report["polygon_class"]["label"] == "b"
    assert report["group_shape"]["label"] == "E_b"
    assert report["column_count_plus_dim_plus_1"] == 7
    assert len(report["products"]) == 2


def test_analysis_report_pyramid():
    report = analysis_report(SQUARE_PYRAMID)
    assert report["balanced"]["holds"]
    assert not report["col_divisible"]["holds"]
    assert report["col_divisible"]["witness"]["clause"] in ("cd1", "cd2")
    assert report["polygon_class"] is None
    assert len(report["columns"]) == 8


def test_report_round_trip():
    report = analysis_report(TRAPEZOID)
    text = to_json(report)
    assert json.loads(text) == json.loads(to_json(json.loads(text)))


_JSON_KEYS = st.one_of(st.sampled_from(["0", "1", "-1", "a"]), st.integers(-2, 2),
                      st.integers(), st.text(max_size=6))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-(2**64), 2**64), st.text(max_size=6)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, kids, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example(2**63)
@example(-(2**63))
@example(2**63 - 1)
@example(-(2**63) + 1)
@example({"n": [2**63, 2**63 - 1, -(2**63), (-(2**63) + 1,)]})
@example({1: "int key first", "1": "str key last", 0: {}, "": [], "t": ()})
@example(["\x00\x1f\x7f", "\u00e9\u20ac", "\U0001f600", "\ud800", '"\\/'])
def test_to_json_matches_the_json_module(data):
    assert to_json(data) == json_dumps_report(data)


@pytest.mark.parametrize("vector", [
    [0, 1, -1],
    (2**63 - 1, -(2**63) + 1),
    [1, True],
    (False, 0),
    [2**63 - 1, 2**63],
    [-(2**63), 0],
    [0, 1.5],
    [[1, 2], (3,)],
])
def test_to_json_int_vectors_match_the_json_module(vector):
    # a list of plain ints below 2^63 in size is rendered in one join; a
    # bool, a float or an int out of range sends it down the general path
    for data in [vector, {"v": vector, "w": [vector]}]:
        if any(type(x) is float for x in vector):
            with pytest.raises(TypeError) as ours:
                to_json(data)
            with pytest.raises(TypeError) as theirs:
                json_dumps_report(data)
            assert str(ours.value) == str(theirs.value)
        else:
            assert to_json(data) == json_dumps_report(data)


@pytest.mark.parametrize("data", [1.5, {1, 2}, [0, {"a": 2.0}],
                                  {"b": set(), "a": 1.5}])
def test_to_json_refuses_what_the_json_module_refuses(data):
    with pytest.raises(TypeError) as ours:
        to_json(data)
    with pytest.raises(TypeError) as theirs:
        json_dumps_report(data)
    assert str(ours.value) == str(theirs.value)


def test_shared_parser_keeps_no_state_between_calls():
    golden = golden_commands()
    pyramid = json.dumps({"vertices": [list(v) for v in SQUARE_PYRAMID.vertices]})
    sequence = [
        (["verify", "-", "--which", "columns-property", "--max-degree", "1"], pyramid),
        (["verify", "-", "--which", "columns-property"], pyramid),
        (["scan-polygons", "--box", "2", "--seed", "5"], ""),
        (["scan-polygons", "--box", "2"], ""),
        golden["export --what presentation --modulus 3 trapezoid"],
        (["verify", "-", "--which", "heights", "--no-prune"], pyramid),
        golden["scan-polygons --box 1 --seed 7"],
    ]
    # each call right after the refused first one, and all in one run: a
    # call's result does not depend on the calls before it
    lone = []
    for argv, text in sequence:
        call(*sequence[0])
        lone.append(call(argv, text))
    shared = [call(argv, text) for argv, text in sequence]
    assert shared == lone
    assert lone[2] != lone[3]
    assert lone[5][0] == 2 and "unrecognized arguments: --no-prune" in lone[5][2]
    # a refused flag leaves nothing behind for the next call
    assert lone[0][0] == 2 and "unrecognized arguments: --max-degree 1" in lone[0][2]
    assert lone[1][0] == 0
    parsed = [parse_args(argv) for argv, _ in sequence[2:4]]
    assert [ns.seed for ns in parsed] == [5, 0]


def _parse_outcome(parse, argv, capsys):
    """vars of the namespace, or the exit code and the last stderr line."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        err = capsys.readouterr().err.splitlines()
        return exc.code, err[-1] if err else ""


def _workload_argvs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for name in sorted(workloads.WORKLOADS)
            for op in workloads.make_ops(name, 1, 0)]


# the argument forms that argparse accepts, and that the CLI keeps
EDGE_ARGVS = [
    ["verify", "--which", "steinberg", "x.json"],
    ["verify", "x.json", "--which=steinberg"],
    ["verify", "--wh", "steinberg", "-"],
    ["verify", "--which=doubling", "-", "--which", "heights"],
    ["analyze", "-ofoo", "-"], ["analyze", "-", "-o", "foo"], ["analyze", "-", "-o=foo"],
    ["analyze", "--out=a", "-", "--output", "b"], ["analyze", "-", "--output=a=b"],
    ["analyze", "-", "-o=a=b"], ["analyze", "-", "--ou=a=b"], ["analyze", "--", "-x.json"],
    ["analyze", "-", "--"], ["export", "-", "--what", "presentation", "--modulus", "-3"],
    ["export", "--mod=-3", "--wha", "fan", "-"],
    ["scan-polygons", "--se", "-5", "--box", "2", "--box", "1"],
    ["scan-polygons", "--sample-rate", "-1.5", "--sa", ".25", "--seed=0"],
    ["scan-polygons", "--sample-rate=1e-3", "--box", " 3", "--seed", "3_0"],
    ["spectrum", "-", "--st", "2", "-o", "-"],
]
# one of each refusal: exit 2 with argparse's last stderr line
INVALID_ARGVS = [
    [], ["-o", "x"], ["frob"], ["--", "analyze", "-"], ["analyze"], ["analyze", "--"],
    ["verify", "-"], ["verify"], ["export", "-"], ["verify", "-", "--which", "x"],
    ["export", "-", "--what=dots"], ["scan-polygons", "--box", "x"],
    ["scan-polygons", "--sample-rate", "0.5.1"], ["spectrum", "-", "--steps", "2.5"],
    ["scan-polygons", "--box"], ["analyze", "-", "-o"], ["verify", "-", "--which", "--box"],
    ["scan-polygons", "--box", "--", "3"], ["verify", "-", "--which", "heights", "--max-degree", "1"],
    ["scan-polygons", "-x"], ["--foo", "analyze", "-"], ["analyze", "a", "b"],
    ["scan-polygons", "3"], ["analyze", "-", "-o", "f", "--", "g"], ["scan-polygons", "--s", "3"],
    ["scan-polygons", "--box", "x", "--s", "3"], ["verify", "--help=1"], ["analyze", "-hx"],
    ["analyze", "-", "-ho"],
]


def test_parser_matches_argparse(capsys):
    forms = ([argv for argv, _ in golden_commands().values()] + _workload_argvs()
             + EDGE_ARGVS)
    oracle = argparse_parser()
    for argv in forms:
        ours = _parse_outcome(parse_args, argv, capsys)
        assert ours == _parse_outcome(oracle.parse_args, argv, capsys), argv
        assert isinstance(ours, dict), argv
    for argv in INVALID_ARGVS:
        ours = _parse_outcome(parse_args, argv, capsys)
        assert ours == _parse_outcome(oracle.parse_args, argv, capsys), argv
        assert ours[0] == 2 and "error: " in ours[1], argv


def test_parser_matches_argparse_on_every_short_argv(capsys):
    # every argv of up to three words from a vocabulary of flag forms
    words = ["verify", "scan-polygons", "-", "--", "-o", "-ofoo", "--wh", "--which=heights",
             "heights", "--s", "--se", "-5", "--box=", "-h", "-hh", "--=x", "-x", "a b"]
    oracle = argparse_parser()
    for n in range(4):
        for argv in itertools.product(words, repeat=n):
            ours = _parse_outcome(parse_args, argv, capsys)
            assert ours == _parse_outcome(oracle.parse_args, argv, capsys), argv


def test_glued_double_dash_is_a_value(capsys):
    # argparse drops a glued "--" and sets [] (which=[] then fails with
    # exit 3 inside the command); the parser keeps it as the value
    oracle = argparse_parser()
    cases = [
        (["verify", "-", "--which=--"], "which", "polycol verify: error: argument --which: "
         "invalid choice: '--' (choose from 'steinberg', 'embedding', 'heights', "
         "'columns-property', 'doubling')"),
        (["scan-polygons", "--box=--"], "box",
         "polycol scan-polygons: error: argument --box: invalid int value: '--'"),
    ]
    for argv, dest, refusal in cases:
        assert _parse_outcome(parse_args, argv, capsys) == (2, refusal)
        assert _parse_outcome(oracle.parse_args, argv, capsys)[dest] == []
    assert parse_args(["analyze", "-", "-o=--"]).output == "--"


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"], ["verify", "-", "--help"],
                                  ["scan-polygons", "--he"]])
def test_help_lists_commands_and_choices(argv):
    src = str(Path(polycol.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "polycol.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: polycol")
    if argv == ["-h"]:
        assert all(name in done.stdout for name in
                   ("analyze", "scan-polygons", "verify", "export", "spectrum"))
    if argv[0] == "verify":
        assert all(name in done.stdout for name in ("steinberg", "embedding", "heights",
                                                    "columns-property", "doubling"))


def test_cli_module_run_matches_the_in_process_call(tmp_path, capsys):
    # a fresh interpreter builds the parser exactly once, on its one call
    path = write_poly(tmp_path, "trapezoid", [[0, 0], [2, 0], [1, 1], [0, 1]])
    src = str(Path(polycol.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "polycol.cli", "analyze", path],
                          capture_output=True, env=env)
    code, out, err = run_cli(capsys, "analyze", path)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    assert code == 0 and out.startswith("{")


def test_cli_analyze_deterministic(tmp_path, capsys):
    path = write_poly(tmp_path, "trapezoid", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code1, out1, _ = run_cli(capsys, "analyze", path)
    code2, out2, _ = run_cli(capsys, "analyze", path)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["polygon_class"]["label"] == "b"


def test_cli_analyze_pyramid(tmp_path, capsys):
    path = write_poly(
        tmp_path, "pyramid",
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
    )
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    data = json.loads(out)
    assert data["balanced"]["holds"] is True
    assert data["col_divisible"]["holds"] is False
    assert data["polygon_class"] is None


def test_cli_analyze_large_coordinates(capsys, monkeypatch):
    # the hexagon under U = ((1, 40), (40, 1601)), det 1: its bounding box
    # holds about 6 * 10^5 cells, and it still has 19 lattice points
    u = ((1, 40), (40, 1601))
    hexagon = [(0, 0), (5, 0), (5, 2), (4, 3), (2, 3), (1, 2)]
    image = [[u[0][0] * x + u[0][1] * y - 7, u[1][0] * x + u[1][1] * y + 3]
             for x, y in hexagon]
    assert max(abs(c) for row in u for c in row) > 10**3
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"vertices": image})))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["lattice_point_count"] == 19


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    missing = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "analyze", str(missing))
    assert code == 2


INPUT_COMMANDS = (
    [["analyze"]]
    + [["verify", "--which", w] for w in
       ("steinberg", "embedding", "heights", "columns-property", "doubling")]
    + [["export", "--what", w] for w in
       ("dot", "presentation", "presentation-json", "fan", "columns-json")]
    + [["spectrum"]]
)
MALFORMED_INPUTS = (
    "[]",
    '{"vertices": []}',
    '{"vertices": [[0,0],[1]]}',
    '{"vertices": [[1.5,0]]}',
    '{"vertices": "x"}',
    '{"name": 1.5, "vertices": [[0,0],[1,0],[0,1]]}',
    '{"name": [1, {"a": 2.5}], "vertices": [[0,0],[1,0],[0,1]]}',
    # json.loads recurses once per level; the id keeps the test name short
    pytest.param("[" * 100000, id="100000 open brackets"),
)


@pytest.mark.parametrize("text", MALFORMED_INPUTS)
@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
def test_cli_malformed_json_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_cli_rejects_a_vertex_that_is_not_a_list(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [5]}')
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: each vertex must be a list of integers\n"


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["export", "--what", "dot"],
    ["spectrum", "--steps", "2"],
], ids=" ".join)
def test_cli_output_file_gets_the_stdout_bytes(tmp_path, capsys, command):
    trap = write_poly(tmp_path, "trap", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, _ = run_cli(capsys, command[0], trap, *command[1:])
    target = tmp_path / "out.txt"
    code_o, out_o, err_o = run_cli(capsys, command[0], trap, *command[1:],
                                   "-o", str(target))
    assert code == code_o == 0
    assert (out_o, err_o) == ("", "")
    assert target.read_bytes() == out.encode("utf-8")


def test_oversized_fibre_walk_exits_2(tmp_path, capsys):
    # the square [0, 10^7]^2 is already reduced, so its lattice-point walk
    # would cross 10^7 + 1 fibres in any frame
    n = 10**7
    path = write_poly(tmp_path, "square", [[0, 0], [n, 0], [0, n], [n, n]])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", path)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (f"error: lattice-point walk over {n + 1} fibres, "
                   f"above {polytopes.MAX_FIBRES}\n")


def test_lattice_walk_past_the_point_budget_exits_2(tmp_path, capsys):
    # the right triangle with legs 10^5 crosses 10^5 + 1 fibres and the
    # square exactly MAX_FIBRES, neither above the fibre limit, but they
    # hold about 5 * 10^9 and 1.6 * 10^13 points; these are counted, not
    # built, and no fibre coordinate is stored ahead of the walk, so the
    # refusal takes little time and memory
    n, m = 10**5, polytopes.MAX_FIBRES - 1
    for vertices in ([[0, 0], [n, 0], [0, n]], [[0, 0], [m, 0], [0, m], [m, m]]):
        path = write_poly(tmp_path, "big", vertices)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "analyze", path)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1
        assert peak < 5 * 10**6
        assert (code, out) == (2, "")
        assert err == f"error: lattice-point walk past {polytopes.MAX_LATTICE_POINTS} points\n"


@pytest.mark.parametrize("exponent", [30, 100])
def test_thin_triangle_with_huge_coordinates_exits_0(tmp_path, capsys, exponent):
    # the lattice reduction walks the unimodular triangle (0,0), (N,N+1),
    # (N+1,N+2) in a box of 2 fibres, whatever N
    n = 10**exponent
    path = write_poly(tmp_path, "thin", [[0, 0], [n, n + 1], [n + 1, n + 2]])
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["lattice_point_count"] == 3


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(p):
        raise KeyError("stale index")

    monkeypatch.setattr("polycol.cli.analysis_report", broken)
    path = write_poly(tmp_path, "trapezoid", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3
    assert out == ""
    assert err == "internal error: KeyError: 'stale index'\n"


def test_cli_verify_commands(tmp_path, capsys):
    path = write_poly(tmp_path, "trapezoid", [[0, 0], [2, 0], [1, 1], [0, 1]])
    for which in ("steinberg", "embedding", "heights", "columns-property",
                  "doubling"):
        code, out, _ = run_cli(capsys, "verify", path, "--which", which)
        assert code == 0, which
        assert json.loads(out)["ok"] is True
    tri = write_poly(tmp_path, "d2", [[0, 0], [1, 0], [0, 1]])
    code, out, _ = run_cli(capsys, "verify", tri, "--which", "doubling")
    assert code == 0
    data = json.loads(out)
    assert all(f["unimodular_simplex_step"] for f in data["facets"])


def test_cli_output_unchanged_under_the_benchmark_tracer(tmp_path, capsys):
    # the harness's shear hook unpacks (p, col, lam, ring) and keys on
    # repr(ring); a signature it cannot read would exit 3 under the tracer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    trap = write_poly(tmp_path, "trapezoid", [[0, 0], [2, 0], [1, 1], [0, 1]])
    square = write_poly(tmp_path, "square", [[0, 0], [1, 0], [0, 1], [1, 1]])
    commands = [("verify", trap, "--which", "steinberg"),
                ("verify", trap, "--which", "embedding"), ("analyze", square)]
    untraced = [run_cli(capsys, *argv) for argv in commands]
    tracer = tracer_module.Tracer("test")
    tracer.install()
    try:
        traced = [run_cli(capsys, *argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.metrics()["algebra.elementary_automorphism.calls"] > 0


def test_cli_verify_doubling_tests_the_simplex_once(tmp_path, capsys,
                                                    monkeypatch):
    import sys

    import polycol.polytopes

    names = ("is_unimodular_simplex", "polytope_from_points",
             "normalize_full_dim", "integral_affine_equivalent")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(polycol.polytopes, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        # every polycol namespace that imported the function
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("polycol")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)

    for name in names:
        counting(name)
    unit = [[0] * 4] + [[int(i == j) for j in range(4)] for i in range(4)]
    path = write_poly(tmp_path, "simplex4", unit)
    code, out, _ = run_cli(capsys, "verify", path, "--which", "doubling")
    assert code == 0
    facets = json.loads(out)["facets"]
    assert len(facets) == 5
    assert all(f["unimodular_simplex_step"] for f in facets)
    # one test on q and one on each double; the input is the only polytope
    # built from points, and no double is normalized or matched against a
    # reference simplex
    assert calls == {"is_unimodular_simplex": 6, "polytope_from_points": 1,
                     "normalize_full_dim": 1, "integral_affine_equivalent": 0}


def test_cli_verify_steinberg_unbalanced(tmp_path, capsys):
    path = write_poly(tmp_path, "steep", [[0, 0], [3, 0], [0, 1]])
    code, out, _ = run_cli(capsys, "verify", path, "--which", "steinberg")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert "error" in data


def test_cli_export(tmp_path, capsys):
    path = write_poly(tmp_path, "quad", [[0, 0], [3, 0], [3, 2], [2, 2]])
    code, out, _ = run_cli(capsys, "export", path, "--what", "dot")
    assert code == 0
    assert out.count("->") == 2 and "digraph" in out
    code, out2, _ = run_cli(capsys, "export", path, "--what", "dot")
    assert out == out2  # bit-exact

    trap = write_poly(tmp_path, "trap", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, _ = run_cli(capsys, "export", trap, "--what", "presentation")
    assert code == 0
    assert "sign=-1" in out

    sq = write_poly(tmp_path, "sq", [[0, 0], [1, 0], [0, 1], [1, 1]])
    code, out, _ = run_cli(capsys, "export", sq, "--what", "fan")
    assert code == 0
    data = json.loads(out)
    assert len(data["cones"]) == 4

    code, out, _ = run_cli(capsys, "export", sq, "--what", "columns-json")
    assert len(json.loads(out)["columns"]) == 4

    code, out, _ = run_cli(capsys, "export", trap, "--what", "presentation-json")
    data = json.loads(out)
    assert len(data["generators"]) == 4
    assert len(data["skipped_pairs"]) == 2


def test_cli_presentations_require_balanced(tmp_path, capsys):
    path = write_poly(tmp_path, "steep", [[0, 0], [3, 0], [0, 1]])
    for what in (["presentation"], ["presentation", "--modulus", "3"],
                 ["presentation-json"]):
        code, out, err = run_cli(capsys, "export", path, "--what", *what)
        assert code == 2, what
        assert out == ""
        assert "balanced polytopes" in err


@pytest.mark.parametrize("modulus", ["0", "1", "-3"])
def test_cli_export_rejects_modulus_below_2(tmp_path, capsys, modulus):
    trap = write_poly(tmp_path, "trap", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, err = run_cli(capsys, "export", trap, "--what", "presentation",
                             "--modulus", modulus)
    assert code == 2
    assert out == ""
    assert err == "error: modulus must be >= 2\n"


@pytest.mark.parametrize("degree", ["0", "-1", "3"])
@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 0], [1, 1], [0, 1]],
    [[2, 0], [1, 2], [0, 1]],  # column-free
])
def test_cli_columns_property_rejects_degree_below_1(tmp_path, capsys, degree,
                                                     vertices):
    # degree one decides every degree, so columns-property takes no degree
    # bound: the parser refuses the flag at any value
    path = write_poly(tmp_path, "p", vertices)
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--which", "columns-property", "--max-degree", degree])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: --max-degree {degree}" in err


@pytest.mark.parametrize("rate", ["5", "-1", "nan"])
def test_cli_scan_rejects_sample_rate_outside_unit_interval(capsys, rate):
    code, out, err = run_cli(capsys, "scan-polygons", "--box", "1",
                             "--sample-rate", rate)
    assert code == 2
    assert out == ""
    assert err == "error: sample rate must lie in [0, 1]\n"


def test_cli_scan_rejects_box_below_1(capsys):
    code, out, err = run_cli(capsys, "scan-polygons", "--box", "0")
    assert (code, out) == (2, "")
    assert err == "error: box must be >= 1\n"


def test_cli_spectrum(tmp_path, capsys):
    trap = write_poly(tmp_path, "trap", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, _ = run_cli(capsys, "spectrum", trap, "--steps", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["steps"]) == 2
    assert data["steps"][0]["chosen_vector"] == [-1, 0]


def test_cli_scan(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan-polygons", "--box", "1")
    assert code == 0
    data = json.loads(out)
    assert data["unclassified"] == []
    assert "e" in data["class_counts"]  # the unit square
    code, _, err = run_cli(capsys, "scan-polygons", "--box", "9")
    assert code == 2


def test_scan_box2_summary():
    s = scan_polygons(2)
    assert s["polygons_up_to_translation"] == len(enumerate_polygons(2))
    assert s == {
        "box": 2,
        "polygons_up_to_translation": 119,
        "balanced_polygons": 99,
        "balanced_classes": 16,
        "class_counts": {"a": 2, "b": 1, "d": 8, "e": 3, "f": 2},
        "class_witnesses": {
            "a": [[0, 0], [0, 1], [1, 0]],
            "b": [[0, 0], [0, 1], [1, 0], [1, 2]],
            "d": [[0, 0], [0, 1], [1, 0], [1, 2], [2, 1]],
            "e": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "f": [[0, 0], [0, 1], [1, 2], [2, 0], [2, 2]],
        },
        "absent_classes": ["c"],
        "unclassified": [],
        "col_divisibility_failures": [],
        "sample_recheck": {"checked": 1, "failures": []},
    }


def test_scan_box3_counts():
    s = scan_polygons(3)
    got = (s["polygons_up_to_translation"], s["balanced_polygons"],
           s["balanced_classes"])
    assert got == (1633, 1549, 145)
    assert s["class_counts"] == {"a": 3, "b": 3, "c": 2, "d": 118, "e": 6,
                                 "f": 13}
    assert s["unclassified"] == [] and s["col_divisibility_failures"] == []


def test_enumerate_polygons_box1():
    # unit square plus the four unimodular corner triangles
    polys = enumerate_polygons(1)
    assert len(polys) == 5
    sizes = sorted(len(p) for p in polys)
    assert sizes == [3, 3, 3, 3, 4]
