"""polycol benchmark runner.

    python3 perfbench/run.py --workload scan-box3 --seed 1 --seconds 30 --trace 0

Runs rounds of one workload, each in a fresh interpreter (``child.py``), one
after another, until the next round would end past ``--seconds``; at least
one round always runs.  A fresh process per round matters: polycol keeps
module-global caches, and a CLI user pays the cold cost on every call.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the run's rounds; ``setup_s`` also takes in ``SETUP_SPAWNS`` processes
before each round that stop after set-up:

    wall_s       first call into polycol to the last output checked
    setup_s      process start, ``import polycol`` and input generation,
                 up to the first call
    peak_rss_mb  maximum resident set size of the round's process

The two times are given at a reference CPU speed: each round's measured
time is multiplied by the speed its probe saw while it ran (see
``child.py``); a set-up-only process takes the speed of the round after it.  On a shared 2-core Xeon VM (CPython 3.11.7) the speed of the
CPU on Python code drifted by up to 1.6x, in phases from seconds to many
minutes, and process CPU time drifted with it.  Over the same rounds the
round-to-round coefficient of variation was 0.10-0.16 for the measured time
and 0.02-0.05 for the time at reference speed.  The measured times and the
speed are printed as ``#`` lines and kept in the run's details.

With ``--trace 1`` every round runs twice on the same inputs, untraced and
traced; the result holds the per-layer metrics of the traced rounds
(medians) and the tracing overhead (median traced minus median untraced
``wall_s``).  A traced output that differs from its untraced twin is a
failed operation.

Every operation's output is checked; ``attempted`` and ``failed`` count
operations, and ``fail_rate`` (failed / attempted) is printed with the other
metrics.  The last line of stdout is the result as one JSON object.  Details
of every round, the machine, and the traced rounds' spans are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

# every run ends within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
DIGEST_MISMATCH = "traced output differs from the untraced output"
# processes that only set up, started before each untraced round: set-up is
# about 0.07 s and noisy, and a run has as few as four rounds
SETUP_SPAWNS = 3


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def run_round(workload, seed, index, trace, timeout, spans=None, setup_only=False):
    """One fresh-interpreter round; a dict with its timings and op results.

    With ``setup_only`` the process stops after set-up; the record holds
    ``raw_setup_s`` and no operations, and ``measure`` scales it by the
    speed of the round that follows.
    """
    job = {"workload": workload, "seed": seed, "round": index,
           "trace": trace, "spans": spans, "setup_only": setup_only}
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        proc = None
    result = None
    if proc is not None and proc.returncode == 0 and proc.stdout:
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except ValueError:
            result = None
    if result is None:
        why = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-500:]}"
        names = (["setup"] if setup_only
                 else [op["argv"][0] for op in make_ops(workload, seed, index)])
        return {"round": index, "trace": trace, "setup_only": setup_only,
                "crashed": why,
                "ops": [{"argv": name, "error": f"round {why}", "digest": None}
                        for name in names]}
    raw_setup = result["t_first"] - t_spawn
    if setup_only:
        return {"round": index, "trace": trace, "setup_only": True,
                "raw_setup_s": raw_setup, "ops": []}
    raw_wall = result["t_done"] - result["t_first"] - result["probe_s"]
    return {
        "round": index,
        "trace": trace,
        "setup_only": False,
        "setup_s": raw_setup * result["speed"],
        "wall_s": raw_wall * result["speed"],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "speed": result["speed"],
        "probes": result["probes"],
        "ops": result["ops"],
        "layers": result.get("layers"),
    }


def median_of(rounds, key):
    values = [r[key] for r in rounds if key in r]
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, out_dir):
    """Run rounds until the budget is spent; the list of round records."""
    start = now()
    budget_end = start + seconds
    hard_end = start + HARD_LIMIT_S
    rounds = []
    index = 0
    while True:
        t0 = now()
        setups = []
        if not trace:
            setups = [run_round(workload, seed, index, False,
                                max(1.0, hard_end - now()), setup_only=True)
                      for _ in range(SETUP_SPAWNS)]
        for traced in ((False, True) if trace else (False,)):
            spans = None
            if traced:
                spans = str(out_dir / f"spans-{workload}-seed{seed}-round{index}.jsonl")
            rounds.append(run_round(workload, seed, index, traced,
                                    max(1.0, hard_end - now()), spans))
        # a set-up-only process ran a moment before the round, at its speed
        speed = rounds[-1].get("speed") if not trace else None
        for r in setups:
            if speed is not None and "raw_setup_s" in r:
                r["setup_s"] = r["raw_setup_s"] * speed
        rounds.extend(setups)
        index += 1
        # stop when another round as long as this one would end too late
        if 2 * now() - t0 > min(budget_end, hard_end):
            break
    return rounds


def summarize(rounds, trace):
    """(metrics, attempted, failed) for the result line."""
    ok_rounds = [r for r in rounds if "crashed" not in r]
    plain = [r for r in ok_rounds if not r["trace"]]
    traced = [r for r in ok_rounds if r["trace"]]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if op["error"])
    if not trace:
        metrics = {name: (median_of(plain, name), unit) for name, unit in END_TO_END}
        return metrics, attempted, failed
    # a traced output must be byte-identical to its untraced twin
    twins = {r["round"]: r for r in plain}
    for r in traced:
        twin = twins.get(r["round"])
        if twin is None:
            continue
        for op, ref in zip(r["ops"], twin["ops"]):
            if op["digest"] != ref["digest"] and not op["error"]:
                op["error"] = DIGEST_MISMATCH
                failed += 1
    metrics = {}
    for name, unit in metric_names():
        values = [r["layers"][name] for r in traced]
        metrics[name] = (statistics.median(values) if values else None, unit)
    walls = (median_of(traced, "wall_s"), median_of(plain, "wall_s"))
    overhead = walls[0] - walls[1] if None not in walls else None
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "polycol"
    if not (package / "cli.py").is_file():
        print(f"error: no polycol sources at {package}", file=sys.stderr)
        return 2
    # compile once up front, as an installed package would be
    compileall.compile_dir(str(package), quiet=1)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    metrics, attempted, failed = summarize(rounds, bool(args.trace))
    info = machine()
    missing = [name for name, (value, _) in metrics.items() if value is None]
    correct = failed == 0 and not missing

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": info, "rounds": rounds}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"# machine: nproc={info['nproc']} cpu={info['cpu_model']!r} "
          f"python={info['implementation']} {info['python']}")
    full = [r for r in rounds if not r["setup_only"]]
    print(f"# workload {args.workload}, seed {args.seed}: {len(full)} rounds "
          f"and {len(rounds) - len(full)} set-up-only processes, "
          f"{attempted} operations, {failed} failed")
    for r in rounds:
        for op in r["ops"]:
            if op["error"]:
                print(f"# round {r['round']} {op['argv']}: {op['error']}")
    print(f"# fail_rate = {failed / attempted} ratio")
    plain = [r for r in full if "crashed" not in r and not r["trace"]]
    for key in ("raw_wall_s", "raw_setup_s", "speed"):
        print(f"# median {key} = {median_of(plain, key)}")
    if args.trace:
        traced_ops = [op for r in rounds if r["trace"] for op in r["ops"]]
        differ = sum(1 for op in traced_ops if op["error"] == DIGEST_MISMATCH)
        print(f"# traced outputs that differ from their untraced twin: "
              f"{differ} of {len(traced_ops)}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value if value is not None else 0.0, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
