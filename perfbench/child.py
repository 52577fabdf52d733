"""One round of a workload, in a fresh interpreter.

Reads a job from stdin as JSON (``workload``, ``seed``, ``round``, ``trace``,
``spans``, ``setup_only``), imports polycol from the checkout's ``src``,
generates the round's operations, optionally installs the tracer, then
drives every operation through ``polycol.cli.main(argv)`` with the generated
stdin and checks its output.  A wrong output or a non-zero exit is recorded and the
round goes on.  The last line written to stdout is the round's result as
JSON; ``t_first`` and ``t_done`` are CLOCK_MONOTONIC readings, the clock the
parent reads when it starts this process.

While the operations run, a speed probe samples how fast this CPU runs
Python right now: every ``PROBE_INTERVAL_S`` a SIGALRM handler times a fixed
pure-Python loop.  ``speed`` is the mean over the samples of
``PROBE_REF_S / sample``, so 1.0 means the loop took ``PROBE_REF_S``, and
``probe_s`` is the time spent in the handler, which the parent subtracts
from the round's wall time.  The handler runs between bytecodes of the main
thread, in whatever polycol call is active, so in a traced round its time
lands in that call's span.  A ``setup_only`` job stops after generating the
operations and reports ``t_first`` alone; it lets a run measure set-up more
often than it runs rounds.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from workloads import check_output, make_ops

ROOT = Path(__file__).resolve().parent.parent

PROBE_INTERVAL_S = 0.025
PROBE_LOOPS = 1000
# one probe's duration at the reference speed; on a 2-core Xeon VM at
# 2.1 GHz (CPython 3.11.7) a probe took 0.35-0.55 ms as the host's load varied
PROBE_REF_S = 0.0004
_PROBE_DATA = [(i * 7919) % 1009 for i in range(512)]


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_loop(loops=PROBE_LOOPS):
    """Fixed interpreter work: indexing, tuples, a dict and int arithmetic."""
    seen = {}
    acc = 0
    for i in range(loops):
        x = _PROBE_DATA[i & 511]
        key = (x, i & 15)
        seen[key] = seen.get(key, 0) + x
        acc += x * 3 - (acc >> 4)
    return acc


class SpeedProbe:
    """Samples the CPU's speed on Python code while a round runs."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0

    def sample(self, *_):
        """Time one probe loop; also the SIGALRM handler."""
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.probe_s += time.perf_counter() - t0

    def start(self):
        self.sample()  # so a round never ends without a sample
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        """Mean speed over the samples, relative to the reference speed."""
        return sum(PROBE_REF_S / s for s in self.samples) / len(self.samples)


def run_ops(main, ops):
    """Run each operation through ``main``; one result dict per operation."""
    results = []
    real_stdin, real_stdout = sys.stdin, sys.stdout
    for op in ops:
        sys.stdin = io.StringIO(op["stdin"])
        sys.stdout = buf = io.StringIO()
        try:
            rc = main(op["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation failing must not end the round
            print(f"{op['argv'][0]}: {exc!r}", file=sys.stderr)
            rc = "exception"
        finally:
            sys.stdin, sys.stdout = real_stdin, real_stdout
        text = buf.getvalue()
        results.append({
            "argv": op["argv"][0],
            "returncode": rc,
            "error": check_output(op, rc, text),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        })
    return results


def main():
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    import polycol.cli

    if Path(polycol.cli.__file__).resolve().parent != ROOT / "src" / "polycol":
        raise SystemExit(f"polycol imported from {polycol.cli.__file__}, not {ROOT}")
    ops = make_ops(job["workload"], job["seed"], job["round"])
    if job.get("setup_only"):
        sys.stdout.write(json.dumps({"t_first": now()}) + "\n")
        return
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(f"{job['workload']}:{job['seed']}:{job['round']}")
        tracer.install()
    probe = SpeedProbe()
    t_first = now()
    probe.start()
    # look ``main`` up per call, so a traced run reaches the rebound wrapper
    ops_out = run_ops(lambda argv: polycol.cli.main(argv), ops)
    probe.stop()
    t_done = now()
    result = {
        "t_first": t_first,
        "t_done": t_done,
        "probe_s": probe.probe_s,
        "probes": len(probe.samples),
        "speed": probe.speed(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops_out,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if job.get("spans"):
            tracer.write(job["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
