import json

import pytest

from polycol.cli import main
from polycol.reports import analysis_report, parse_polytope_json, to_json
from polycol.scan import enumerate_polygons, scan_polygons

from .conftest import SQUARE_PYRAMID, TRAPEZOID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(tmp_path, name, vertices):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "vertices": vertices}))
    return str(path)


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


@pytest.mark.parametrize("modulus", ["0", "1", "-3"])
def test_cli_export_rejects_modulus_below_2(tmp_path, capsys, modulus):
    trap = write_poly(tmp_path, "trap", [[0, 0], [2, 0], [1, 1], [0, 1]])
    code, out, err = run_cli(capsys, "export", trap, "--what", "presentation",
                             "--modulus", modulus)
    assert code == 2
    assert out == ""
    assert err == "error: modulus must be >= 2\n"


@pytest.mark.parametrize("degree", ["0", "-1"])
@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 0], [1, 1], [0, 1]],
    [[2, 0], [1, 2], [0, 1]],  # column-free
])
def test_cli_columns_property_rejects_degree_below_1(tmp_path, capsys, degree,
                                                     vertices):
    path = write_poly(tmp_path, "p", vertices)
    code, out, err = run_cli(capsys, "verify", path, "--which",
                             "columns-property", "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert err == "error: max_degree must be >= 1\n"


@pytest.mark.parametrize("rate", ["5", "-1", "nan"])
def test_cli_scan_rejects_sample_rate_outside_unit_interval(capsys, rate):
    code, out, err = run_cli(capsys, "scan-polygons", "--box", "1",
                             "--sample-rate", rate)
    assert code == 2
    assert out == ""
    assert err == "error: sample rate must lie in [0, 1]\n"


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
