"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import polycol.cli  # noqa: E402
import polycol.columns  # noqa: E402
import polycol.scan  # noqa: E402
import run  # noqa: E402
from child import PROBE_INTERVAL_S, PROBE_REF_S, SpeedProbe, run_ops  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402
from workloads import (  # noqa: E402
    ANALYZE_BIG_TRAPEZOID,
    BIG_TRAPEZOID,
    SCAN_BOX3,
    WORKLOADS,
    make_ops,
)


def _scan_op(box, expect=SCAN_BOX3):
    return {"argv": ["scan-polygons", "--box", str(box)], "stdin": "",
            "check": "scan", "expect": expect}


def _traced(ops):
    tracer = Tracer("test")
    tracer.install()
    try:
        results = run_ops(lambda argv: polycol.cli.main(argv), ops)
    finally:
        tracer.uninstall()
    return tracer, results


def test_rebinding_reaches_from_imports():
    original = polycol.columns.column_vectors
    tracer, _ = _traced([_scan_op(2)])
    assert polycol.scan.column_vectors is original  # uninstall restores
    names = [tracer.names[i] for i in tracer.span_name]
    parents = [names[p] if p >= 0 else None for p in tracer.span_parent]
    pairs = set(zip(names, parents))
    assert ("columns.column_vectors", "scan.scan_polygons") in pairs
    assert ("scan.scan_polygons", "cli.main") in pairs
    metrics = tracer.metrics()
    assert metrics["scan.scan_polygons.calls"] == 1
    assert metrics["columns.column_vectors.calls"] > 0
    assert set(metrics) == {name for name, _ in metric_names()}


def test_child_self_times_fit_in_parent_span():
    tracer, _ = _traced([_scan_op(2)])
    selfs = tracer.self_times()
    starts, ends = tracer.span_start, tracer.span_end
    child_self = [0.0] * len(starts)
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            assert starts[parent] <= starts[i] <= ends[i] <= ends[parent]
            child_self[parent] += selfs[i]
    for i in range(len(starts)):
        assert selfs[i] >= 0.0
        assert child_self[i] <= ends[i] - starts[i]


def test_traced_output_matches_untraced():
    ops = [_scan_op(2)]
    plain = run_ops(lambda argv: polycol.cli.main(argv), ops)
    _, traced = _traced(ops)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]


def test_wrong_output_is_counted_and_the_run_goes_on():
    good = {"argv": ["analyze", "-"],
            "stdin": json.dumps({"vertices": [list(v) for v in BIG_TRAPEZOID]}),
            "check": "analyze", "expect": ANALYZE_BIG_TRAPEZOID}
    bad_input = dict(good, stdin='{"vertices": [[0, 0], [1]]}')
    ops = [_scan_op(2), bad_input, good]  # box 2 is checked against box 3
    results = run_ops(lambda argv: polycol.cli.main(argv), ops)
    assert len(results) == 3
    assert results[0]["returncode"] == 0
    assert "polygons_up_to_translation" in results[0]["error"]
    assert results[1]["error"] == "exit code 2"
    assert results[2]["error"] is None
    rounds = [{"round": 0, "trace": False, "setup_s": 0.1, "wall_s": 1.0,
               "peak_rss_mb": 20.0, "ops": results}]
    _, attempted, failed = run.summarize(rounds, trace=False)
    assert (attempted, failed) == (3, 2)


def test_digest_mismatch_is_a_failure():
    def record(traced, digest):
        return {"round": 0, "trace": traced, "setup_s": 0.1, "wall_s": 1.0,
                "peak_rss_mb": 20.0, "layers": dict.fromkeys(
                    (name for name, _ in metric_names()), 0),
                "ops": [{"argv": "analyze", "error": None, "digest": digest}]}

    rounds = [record(False, "a"), record(True, "b")]
    _, attempted, failed = run.summarize(rounds, trace=True)
    assert (attempted, failed) == (2, 1)
    assert rounds[1]["ops"][0]["error"] == run.DIGEST_MISMATCH


def test_per_layer_names_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == metric_names() + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def _box_cells(stdin):
    verts = json.loads(stdin)["vertices"]
    cells = 1
    for coords in zip(*verts):
        cells *= max(coords) - min(coords) + 1
    return cells


def test_inputs_are_seeded_and_cost_the_same():
    for workload in WORKLOADS:
        a = make_ops(workload, 1, 0)
        assert a == make_ops(workload, 1, 0)
        b = make_ops(workload, 2, 0)
        assert a != b
        assert [op["argv"][:1] + op["argv"][2:] for op in a if op["stdin"]] == \
            [op["argv"][:1] + op["argv"][2:] for op in b if op["stdin"]]
        for x, y in zip(a, b):
            if x["stdin"]:
                assert _box_cells(x["stdin"]) == _box_cells(y["stdin"])


def test_round_in_fresh_process():
    out = run.run_round("big-geometry", 5, 0, False, 120)
    assert "crashed" not in out
    assert [op["error"] for op in out["ops"]] == [None] * 4
    assert out["setup_s"] > 0 and out["wall_s"] > 0 and out["peak_rss_mb"] > 0
    # about one probe per PROBE_INTERVAL_S of the round
    assert out["probes"] >= out["raw_wall_s"] / PROBE_INTERVAL_S / 2
    assert out["wall_s"] == out["raw_wall_s"] * out["speed"]


def test_speed_probe_scales_with_probe_time():
    probe = SpeedProbe()
    probe.samples = [PROBE_REF_S, PROBE_REF_S / 2]
    assert probe.speed() == 1.5
    probe.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3 and probe.probe_s > 0


def test_runner_fails_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan-box3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
