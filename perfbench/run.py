"""bellbench benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload tightness --seed 1 --seconds 20 --trace 0

The workload runs in a worker process (worker.py) driven by this single
caller.  Set-up is timed SETUP_SAMPLES times, each in a fresh process from
spawn to its "ready" line, and reported as the median.  With --trace 0 the
last stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a run that alternates untraced and traced passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("tightness", "violation_search", "cli_reports")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def _start(args, setup_only: bool):
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, ready


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bellbench" / "__init__.py").is_file():
        print(f"no bellbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = _start(args, setup_only=True)
            proc.communicate(timeout=30)
            setups.append(ready)
        proc, ready = _start(args, setup_only=False)
        setups.append(ready)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("worker ran past the time limit", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    for problem in result["problems"]:
        print(f"WRONG {problem}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
                  "cpu_s": result["cpu_s"], "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"workload {args.workload}, seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"{len(result['problems'])} wrong answers")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
