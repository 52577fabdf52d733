"""The benchmark's tracer against the current sources.

The tracer in ``perfbench/`` rebinds polycol names and unpacks the
arguments of some of them (``_hook_elementary`` reads four positional
arguments of ``elementary_automorphism``), so a change under ``src/`` can
break a traced run while every untraced command still works.  This runs
round 0 of every workload in process, untraced and traced, as
``perfbench/child.py`` does in its fresh interpreters.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import polycol.cli  # noqa: E402
from child import run_ops  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def _main(argv):
    # looked up per call, so a traced run reaches the rebound wrapper
    return polycol.cli.main(argv)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_round_matches_untraced(workload):
    ops = make_ops(workload, 1, 0)
    plain = run_ops(_main, ops)
    tracer = Tracer(f"{workload}:1:0")
    tracer.install()
    try:
        traced = run_ops(_main, ops)
    finally:
        tracer.uninstall()
    for results in (plain, traced):
        assert [r["error"] for r in results] == [None] * len(ops)
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
    assert tracer.metrics()["cli.main.calls"] == len(ops)
