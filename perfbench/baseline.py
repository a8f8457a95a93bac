"""Reference figures for the README, comparable with the ROADMAP baseline.

    python3 perfbench/baseline.py

Prints facet_check seconds at (3,4), (4,3), (3,5); evaluations per start and
microseconds per evaluation of optimize_phases per scenario; and the
32-start (3,2) optimize_phases run with threads=1 and threads=2.  One call
each, so expect the machine's noise in every figure.
"""

import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bellbench.optimize import OptimizerConfig, optimize_phases  # noqa: E402
from bellbench.polytope import facet_check  # noqa: E402
from bellbench.quantum import ghz_max, ghz_qubit  # noqa: E402
from bellbench.scenario import bell_expression  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    print(f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    for n, d in ((3, 4), (4, 3), (3, 5)):
        _, s = timed(lambda: facet_check(bell_expression(n, d), threads=1))
        print(f"facet_check ({n},{d}): {s:.2f} s")
    for n, d in ((3, 2), (3, 3), (5, 2), (4, 3)):
        config = OptimizerConfig(starts=4, seed=1)
        r, s = timed(lambda: optimize_phases(ghz_max(n, d), bell_expression(n, d), config))
        print(f"optimize_phases ({n},{d}), 4 starts: {r.evaluations / 4:.0f} evals/start, "
              f"{1e6 * s / r.evaluations:.0f} us/eval")
    state, expr = ghz_qubit(math.pi / 4), bell_expression(3, 2)
    config = OptimizerConfig(starts=32, seed=1)
    for threads in (1, 2):
        r, s = timed(lambda: optimize_phases(state, expr, config, threads=threads))
        print(f"optimize_phases (3,2), 32 starts, threads={threads}: {s:.2f} s, "
              f"{r.evaluations / 32:.0f} evals/start")


if __name__ == "__main__":
    main()
