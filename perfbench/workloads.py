"""The three workloads: fixed job lists, their calls into bellbench, checks.

A job list is plain data (``job_specs``), so its determinism can be tested
on its own.  ``bind`` turns a spec into a pair of callables: ``run``
calls the program and is timed; ``check`` compares the answer with the
independent computations in ``checks`` and is not timed.  ``run`` looks
bellbench names up at call time so that traced passes see them; ``check``
uses references taken at import, so its own calls into bellbench are never
traced.

--seed fixes the order of the jobs in a pass and the strategies sampled to
check the large scans.  Optimizer seeds and start counts are constants: the
amount of search work then does not depend on --seed, so the spread of
repeated runs measures the machine, not the inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

import bellbench.cli as cli
import bellbench.optimize as optimize
import bellbench.polytope as polytope
import bellbench.quantum as quantum
from bellbench.scenario import bell_expression, weight_numerators

import checks

WORKLOADS = ("tightness", "violation_search", "cli_reports")

TIGHTNESS_CASES = ((3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2))
WINDOW = (math.pi / 16, math.pi / 8, math.pi / 6)
WINDOW_STARTS, WINDOW_SEED = 2, 9
BALANCED_STARTS, BALANCED_SEED = 2, 1
SEESAW_CASES = ((3, 3), (4, 2), (5, 2))
SEESAW_STARTS, SEESAW_SEED = 1, 1
MERMIN_STARTS, SWEEP_STARTS, CLI_SEED = 4, 2, 1
LARGE_SCANS = ((7, 3), (10, 2), (5, 4))
SCAN_SAMPLE = 20000
SWEEP_GRID = "1/16pi,1/8pi,1/6pi,1/4pi"
SWEEP_THETAS = tuple(math.pi * f for f in (1 / 16, 1 / 8, 1 / 6, 1 / 4))
REDUCE_D = 5
THRESHOLD_VIOLATION = 2.8284271
RELEVANCE_AMPS = "0.169414,0,0,0,0.0461131,0.161369,0.193624,0.951652"
FIXTURES = {  # file -> (N, d), target Bell value, tolerance as the CLI tests pin them
    "ghz3_qubit.json": ((3, 2), checks.ROOT8, 1e-9),
    "ghz4_qubit.json": ((4, 2), checks.ROOT8, 1e-9),
    "ghz5_qubit.json": ((5, 2), checks.ROOT8, 1e-9),
    "ghz3_qutrit.json": ((3, 3), 2.915, 2e-3),
}


def _jobs(workload: str) -> list[dict]:
    if workload == "tightness":
        return [{"kind": "facet", "n": n, "d": d} for n, d in TIGHTNESS_CASES]
    if workload == "violation_search":
        return (
            [{"kind": "window", "theta": t} for t in WINDOW]
            + [{"kind": "balanced_qutrit"}]
            + [{"kind": "seesaw", "n": n, "d": d} for n, d in SEESAW_CASES]
        )
    if workload == "cli_reports":
        return (
            [{"kind": "classical", "n": n, "d": d} for n, d in LARGE_SCANS]
            + [{"kind": "violate", "fixture": f} for f in FIXTURES]
            + [{"kind": "mermin", "state": "relevance"}, {"kind": "mermin", "state": "ghz"}]
            + [{"kind": "sweep"}, {"kind": "reduce"}, {"kind": "threshold"}]
        )
    raise ValueError(f"unknown workload {workload!r}")


def job_specs(workload: str, seed: int) -> list[dict]:
    """The workload's job list in the order --seed gives it."""
    jobs = _jobs(workload)
    order = np.random.default_rng([seed, WORKLOADS.index(workload)]).permutation(len(jobs))
    return [dict(jobs[i], position=k) for k, i in enumerate(order)]


@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    threads: int


@lru_cache(maxsize=None)
def _reference_histogram(n: int, d: int) -> dict:
    return checks.full_histogram(n, d)


_program_scan = polytope.classical_maximum  # untraced, for the checks


def _scenario(spec: dict):
    """The (N, d) whose correlation weights a job evaluates, if any."""
    kind = spec["kind"]
    if "n" in spec:
        return spec["n"], spec["d"]
    if kind in ("window", "sweep"):
        return 3, 2
    if kind == "balanced_qutrit":
        return 3, 3
    if kind == "violate":
        return FIXTURES[spec["fixture"]][0]
    if kind == "reduce":
        return 2, REDUCE_D
    return None


def warm(specs: list[dict]) -> None:
    """Fill the weight_numerators cache for every scenario the jobs use."""
    for scenario in {_scenario(s) for s in specs} - {None}:
        expr = bell_expression(*scenario)
        for settings, _ in expr.terms:
            weight_numerators(*scenario, expr.family, settings)


def bind(spec: dict, ctx: Context):
    """(run, check) for one job; run() returns what check(result) inspects."""
    kind = spec["kind"]

    if kind == "facet":
        n, d = spec["n"], spec["d"]
        expr = bell_expression(n, d)

        def run():
            return polytope.facet_check(expr, threads=1)

        def check(report):
            reference = _reference_histogram(n, d)
            cm = _program_scan(expr)
            return (
                checks.check_facet(n, d, report, reference)
                + checks.check_histogram_exact(cm.histogram, reference)
                + checks.check_classical(n, d, cm.max_value, cm.histogram,
                                         [list(p) for p in cm.argmax.assignment])
            )

        return run, check

    if kind == "window":
        theta = spec["theta"]
        expr = bell_expression(3, 2)
        state = quantum.ghz_qubit(theta)
        config = optimize.OptimizerConfig(starts=WINDOW_STARTS, seed=WINDOW_SEED)
        amps = checks.ghz_amplitudes(3, 2, [math.cos(theta), math.sin(theta)])

        def run():
            return optimize.optimize_phases(state, expr, config, threads=1)

        def check(result):
            return checks.check_rescore(
                result.best_value, amps, result.best_phases.vectors, 3, 2
            ) + checks.check_window(result.best_value, theta)

        return run, check

    if kind == "balanced_qutrit":
        expr = bell_expression(3, 3)
        state = quantum.ghz_qutrit(math.acos(1 / math.sqrt(3)), math.pi / 4)
        config = optimize.OptimizerConfig(starts=BALANCED_STARTS, seed=BALANCED_SEED)
        amps = checks.ghz_amplitudes(3, 3, [1 / math.sqrt(3)] * 3)

        def run():
            return optimize.optimize_phases(state, expr, config, threads=1)

        def check(result):
            return checks.check_rescore(
                result.best_value, amps, result.best_phases.vectors, 3, 3
            ) + checks.check_literature(
                result.best_value, checks.QUTRIT_BALANCED, checks.LITERATURE_TOL
            )

        return run, check

    if kind == "seesaw":
        n, d = spec["n"], spec["d"]
        expr = bell_expression(n, d)
        config = optimize.OptimizerConfig(starts=SEESAW_STARTS, seed=SEESAW_SEED)
        if d == 3:
            target, tol = checks.QUTRIT_SEESAW, checks.LITERATURE_TOL
        else:
            target, tol = checks.ROOT8, checks.EXACT_OPT_TOL

        def run():
            return optimize.seesaw(expr, config, threads=1)

        def check(result):
            phases = result.best_phases.vectors
            return (
                checks.check_rescore(result.best_value, result.best_state.amplitudes,
                                     phases, n, d)
                + checks.check_literature(result.best_value, target, tol)
                + checks.check_below_operator(result.best_value, phases, n, d)
                + checks.check_trajectories(result.trajectories)
            )

        return run, check

    return _bind_cli(spec, ctx)


def _bind_cli(spec: dict, ctx: Context):
    kind = spec["kind"]
    suffix = "csv" if kind == "sweep" else "json"
    out = ctx.tmp / f"job{spec['position']}.{suffix}"
    argv = ["--threads", str(ctx.threads), "--out", str(out)]

    if kind == "classical":
        n, d = spec["n"], spec["d"]
        argv = ["classical", "--n", str(n), "--d", str(d)] + argv

        def check_report(report):
            r = report["result"]
            histogram = {Fraction(k): v for k, v in r["histogram"].items()}
            rng = np.random.default_rng([ctx.seed, spec["position"]])
            sample = checks.sample_numerators(n, d, SCAN_SAMPLE, rng)
            return checks.check_classical(
                n, d, r["classical_max"], histogram, r["argmax_assignment"]
            ) + checks.check_histogram_sample(histogram, sample, d)

    elif kind == "violate":
        _, target, tol = FIXTURES[spec["fixture"]]
        fixture = ctx.root / "src" / "bellbench" / "fixtures" / spec["fixture"]
        argv = ["--config", str(fixture)] + argv

        def check_report(report):
            r = report["result"]
            return checks.check_literature(r["bell_value"], target, tol) + (
                checks.check_threshold(r["noise_threshold"], r["bell_value"])
            )

    elif kind == "mermin":
        state = "ghz_max" if spec["state"] == "ghz" else f"amps:{RELEVANCE_AMPS}"
        argv = ["mermin", "--state", state, "--starts", str(MERMIN_STARTS),
                "--seed", str(CLI_SEED)] + argv

        def check_report(report):
            value = report["result"]["mermin_max"]
            if spec["state"] == "ghz":
                return checks.check_mermin(value, target=4.0)
            return checks.check_mermin(value, upper=2.0 + 1e-4)

    elif kind == "sweep":
        argv = ["sweep", "--n", "3", "--d", "2", "--state", "ghz_qubit", "--grid", SWEEP_GRID,
                "--starts", str(SWEEP_STARTS), "--seed", str(CLI_SEED)] + argv

        def check_report(rows):
            problems = []
            if [r[0] for r in rows[:1]] != ["theta"] or len(rows) != 1 + len(SWEEP_THETAS):
                return [f"sweep CSV has the wrong shape: {rows}"]
            for row, theta in zip(rows[1:], SWEEP_THETAS):
                problems += checks.close("grid point", float(row[0]), theta, 1e-15)
                problems += checks.check_window(float(row[1]), theta)
            return problems

    elif kind == "reduce":
        argv = ["reduce", "--n", "3", "--d", str(REDUCE_D)] + argv

        def check_report(report):
            r = report["result"]
            expected = [["".join(map(str, s)), sign] for s, sign in checks.terms(2)]
            problems = []
            if (r["n"], r["d"], r["terms"]) != (2, REDUCE_D, expected):
                problems.append(f"reduced form {r} is not the two-party family member")
            if Fraction(r["classical_max"]) != 2 or max(_reference_histogram(2, REDUCE_D)) != 2:
                problems.append(f"reduced classical maximum {r['classical_max']} is not 2")
            return problems

    elif kind == "threshold":
        argv = ["threshold", "--violation", str(THRESHOLD_VIOLATION)] + argv

        def check_report(report):
            return checks.check_threshold(report["result"]["f_thr"], THRESHOLD_VIOLATION)

    else:
        raise ValueError(f"unknown job kind {kind!r}")

    def run():
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"bellbench {' '.join(argv)} exited {code}")

    def check(_):
        text = out.read_text()
        out.unlink()  # a later pass must write its own report
        return check_report(list(csv.reader(text.splitlines())) if suffix == "csv"
                            else json.loads(text))

    return run, check
