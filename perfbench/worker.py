"""One workload in one process: set up, signal ready, run passes, report.

Started by run.py.  Prints a "ready" line once set-up is done, then one JSON
result line.  With --setup-only it exits after the ready line, so run.py can
time set-up several times.

A pass is one closed-loop walk over the workload's job list: each job starts
after the previous one returned.  Only the program calls are timed; each
answer is checked right after its call, outside the timer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def _run_pass(jobs, tracer=None):
    """(wall seconds, CPU seconds, failed jobs, problems) of one pass."""
    wall = cpu = 0.0
    failed = 0
    problems: list[str] = []
    if tracer is not None:
        tracer.install()
    try:
        for label, run, check in jobs:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = run()
            except Exception:
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
                failed += 1
                print(f"{label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            problems += [f"{label}: {p}" for p in check(result)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import bellbench

    if Path(bellbench.__file__).resolve().parent != ROOT / "src" / "bellbench":
        print(f"bellbench imported from {bellbench.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        ctx = workloads.Context(ROOT, Path(tmp), args.seed,
                                threads=min(2, len(os.sched_getaffinity(0))))
        specs = workloads.job_specs(args.workload, args.seed)
        jobs = []
        for spec in specs:
            label = "/".join(f"{k}={v}" for k, v in spec.items() if k != "position")
            jobs.append((label, *workloads.bind(spec, ctx)))
        workloads.warm(specs)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        walls, cpus, traced_walls = [], [], []
        failed = 0
        problems: list[str] = []
        tracer = tracing.Tracer() if args.trace else None
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(traced_walls) < len(walls)
            wall, cpu, f, p = _run_pass(jobs, tracer if traced else None)
            (traced_walls if traced else walls).append(wall)
            if not traced:
                cpus.append(cpu)
            failed += f
            problems += p
            done = time.perf_counter() - started >= args.seconds
            if done and (tracer is None or len(traced_walls) == len(walls)):
                break

    passes = len(walls) + len(traced_walls)
    result = {
        "attempted": passes * len(jobs),
        "failed": failed,
        "problems": problems,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layers["trace.overhead_s"] = tracing.overhead(walls, traced_walls)
        result["layers"] = layers
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "untraced_walls": walls, "traced_walls": traced_walls})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
