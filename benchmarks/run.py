"""Benchmark of the ``prescurv`` command line on three fixed workloads.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload cylinder_solve --seed 1 --seconds 30 --trace 0

The workload's ``prescurv.cli.main`` invocations run in this process:
one untimed warm-up repetition, then timed repetitions until another
would overrun ``--seconds``.  Every invocation's outputs are checked
(see ``workloads.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is nonzero when any check failed.

``--trace 0`` reports the end-to-end metrics, each timing a median over
the stated number of samples:

* ``run_s``: wall seconds of one repetition of the workload's
  invocations, after imports, with tracing off;
* ``setup_s``: wall seconds of ``cli.load_config`` plus the workload's
  ``Problem`` builds, repeated at least ``SETUP_REPEATS`` times and for at
  least ``SETUP_SECONDS``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the same untraced repetitions, then one traced
repetition, and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_s`` (traced minus untraced ``run_s``).  The spans are
written to ``benchmarks/out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, known here before numpy loads.
WORKLOAD_NAMES = ("cylinder_solve", "annulus_saddle", "gamma_pohozaev")
SETUP_REPEATS = 11  # at least; more until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
THREADS = "1"
THREAD_VARS = ("PRESCURV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def invoke(cli, inv) -> tuple[object, float, str]:
    """One CLI invocation on a clean output directory: (exit code or
    None on an exception, wall seconds, captured stderr)."""
    shutil.rmtree(inv.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(inv.argv())
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return rc, wall, err.getvalue()


class Runner:
    """Repetitions of one workload, with its correctness tally."""

    def __init__(self, cli, workload, invocations, configs):
        self.cli = cli
        self.workload = workload
        self.invocations = invocations
        self.configs = configs
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # invocation id -> problems
        self.walls: dict[str, float] = {}  # last repetition: invocation id -> wall
        self.repetitions = 0

    def repetition(self, tracer=None) -> float:
        """Run every invocation once; returns their summed wall time."""
        total = 0.0
        self.walls = {}
        for inv in self.invocations:
            inv_id = f"{self.repetitions}:{inv.label}"
            if tracer is None:
                rc, wall, err = invoke(self.cli, inv)
            else:
                # Traced only while the CLI runs, not while it is checked.
                tracer.invocation = inv_id
                with tracer:
                    rc, wall, err = invoke(self.cli, inv)
            total += wall
            self.walls[inv_id] = wall
            self.attempted += 1
            problems = self.workload.check(inv, rc, self.configs)
            if problems:
                self.failures[inv_id] = problems + err.strip().splitlines()[-1:]
        self.repetitions += 1
        return total


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(table: dict) -> None:
    print(f"{'span':40s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(table):
        calls, total, self_s = table[name]
        print(f"{name:40s} {calls:7d} {total:10.4f} {self_s:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS and OpenMP read these once, when numpy loads below.
    for var in THREAD_VARS:
        os.environ[var] = THREADS

    if not (SRC / "prescurv" / "cli.py").is_file():
        print(f"error: no prescurv sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from prescurv import cli

    import tracing
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported prescurv from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    invocations = workload.invocations(OUT / workload.name, args.seed)

    # A traced run reports no setup_s and sets up once, for the checks.
    min_setups, min_seconds = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
    setup_times = []
    setup_start = time.perf_counter()
    while (len(setup_times) < min_setups
           or time.perf_counter() - setup_start < min_seconds):
        gc.collect()
        start = time.perf_counter()
        configs = workload.setup(invocations)
        setup_times.append(time.perf_counter() - start)
    workload.prepare(configs)

    runner = Runner(cli, workload, invocations, configs)
    # An untimed first repetition pays the one-off page faults of the
    # process's fresh heap, which made the first sample an outlier.
    runner.repetition()
    run_times = []
    start = time.perf_counter()
    while True:
        run_times.append(runner.repetition())
        if time.perf_counter() - start + statistics.median(run_times) > args.seconds:
            break
    run_s = statistics.median(run_times)
    lo, hi = quartiles(run_times)
    print(f"{workload.name}: run_s median {run_s:.4f} s (quartiles {lo:.4f}, {hi:.4f};"
          f" n={len(run_times)} repetitions of {len(invocations)} invocation(s):"
          f" {', '.join(f'{t:.4f}' for t in run_times)})")

    if args.trace:
        tracer = tracing.Tracer()
        traced = runner.repetition(tracer)
        walls = runner.walls
        for inv_id, problem in tracer.check_self_times(walls).items():
            runner.failures.setdefault(inv_id, []).append(problem)
        layer, absent = tracer.layer_metrics()
        layer["trace.overhead_s"] = (traced - run_s, "s")
        print_table(tracer.table())
        print(f"traced run_s {traced:.4f} s (n=1), overhead {traced - run_s:.4f} s")
        if absent:
            print("absent (wrapped name no longer exists): " + ", ".join(absent))
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{workload.name}.json", "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "environment": env, "invocation_walls": walls,
                       "absent": absent, "spans": tracer.dump()}, fh)
        metrics = layer
    else:
        setup_s = statistics.median(setup_times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{workload.name}: setup_s median {setup_s:.4f} s (n={len(setup_times)}),"
              f" peak_rss_mb {peak_mb:.1f}")
        metrics = {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_mb, "MiB")}

    failed = len(runner.failures)
    print(f"{workload.name}: failed_frac {failed}/{runner.attempted}")
    for inv_id, problems in runner.failures.items():
        print(f"FAILED {inv_id}: " + "; ".join(problems), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
