"""Self-tests of the benchmark: each check rejects a wrong answer, the job
lists are deterministic per seed, and BENCHMARK.json names what is reported.

    python -m pytest perfbench -q
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PI = math.pi
GHZ3_PHASES = [[0, -PI / 12], [0, PI / 4], [0, -PI / 6], [0, PI / 3], [0, 0], [0, PI / 6]]
GHZ3 = checks.ghz_amplitudes(3, 2, [1 / math.sqrt(2)] * 2)


def test_oracle_reproduces_published_values():
    assert checks.quantum_value(GHZ3, GHZ3_PHASES, 3, 2) == pytest.approx(checks.ROOT8, abs=1e-12)
    theta = PI / 6
    amps = checks.ghz_amplitudes(3, 2, [math.cos(theta), math.sin(theta)])
    assert checks.quantum_value(amps, GHZ3_PHASES, 3, 2) <= checks.window_value(theta) + 1e-12
    assert checks.bell_operator_max(GHZ3_PHASES, 3, 2) >= checks.ROOT8 - 1e-12
    for n, d in ((2, 2), (3, 2), (3, 3), (2, 5)):
        hist = checks.full_histogram(n, d)
        assert max(hist) == 2 and sum(hist.values()) == d ** (2 * n)


def test_rescore_rejects_a_perturbed_phase():
    value = checks.quantum_value(GHZ3, GHZ3_PHASES, 3, 2)
    assert checks.check_rescore(value, GHZ3, GHZ3_PHASES, 3, 2) == []
    perturbed = [list(v) for v in GHZ3_PHASES]
    perturbed[3][1] += 1e-4
    assert checks.check_rescore(value, GHZ3, perturbed, 3, 2)


def _facet_report(n, d, **changes):
    dim = (2 * d - 1) ** n - 1
    fields = dict(dimension=dim, affine_rank=dim - 1, is_facet=True, classical_max=Fraction(2),
                  saturating_count=checks.full_histogram(n, d)[Fraction(2)])
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_facet_check_rejects_a_rank_one_short():
    reference = checks.full_histogram(3, 3)
    assert checks.check_facet(3, 3, _facet_report(3, 3), reference) == []
    short = _facet_report(3, 3, affine_rank=(5**3 - 1) - 2)
    assert checks.check_facet(3, 3, short, reference)
    assert checks.check_facet(3, 3, _facet_report(3, 3, is_facet=False), reference)
    assert checks.check_facet(3, 3, _facet_report(3, 3, saturating_count=1), reference)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_classical_check_rejects_a_bound_of_two_plus_one_step(d):
    n = 3
    hist = checks.full_histogram(n, d)
    digits = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    argmax = digits[int(np.argmax(checks.strategy_numerators(digits, n, d)))].reshape(n, 2)
    argmax = argmax.tolist()
    assert checks.check_classical(n, d, Fraction(2), hist, argmax) == []
    wrong = Fraction(2) + Fraction(1, d - 1)
    wrong_hist = dict(hist)
    wrong_hist[wrong] = wrong_hist.pop(Fraction(2))
    assert checks.check_classical(n, d, wrong, wrong_hist, argmax)
    assert checks.check_facet(n, d, _facet_report(n, d, classical_max=wrong), hist)
    assert checks.check_histogram_exact(wrong_hist, hist)


def test_histogram_sample_check():
    hist = checks.full_histogram(4, 3)
    rng = np.random.default_rng(0)
    sample = checks.sample_numerators(4, 3, 20000, rng)
    assert checks.check_histogram_sample(hist, sample, 3) == []
    skewed = dict(hist)
    skewed[Fraction(2)] *= 3
    assert checks.check_histogram_sample(skewed, sample, 3)
    missing = {v: c for v, c in hist.items() if v != min(hist)}
    assert checks.check_histogram_sample(missing, sample, 3)


def test_quantum_value_checks_reject_wrong_answers():
    assert checks.check_window(checks.window_value(PI / 8), PI / 8) == []
    assert checks.check_window(checks.window_value(PI / 8) + 1e-5, PI / 8)
    assert checks.check_window(float("nan"), PI / 8)
    assert checks.check_literature(2.9148, checks.QUTRIT_SEESAW, checks.LITERATURE_TOL) == []
    assert checks.check_literature(2.9, checks.QUTRIT_SEESAW, checks.LITERATURE_TOL)
    assert checks.check_below_operator(checks.ROOT8, GHZ3_PHASES, 3, 2) == []
    assert checks.check_below_operator(checks.ROOT8 + 1e-6, GHZ3_PHASES, 3, 2)


def test_trajectory_mermin_and_threshold_checks():
    assert checks.check_trajectories([(1.0, 2.0, 2.0, 2.5)]) == []
    assert checks.check_trajectories([(1.0, 2.0), (1.0, 2.0, 1.9)])
    assert checks.check_mermin(4.0 - 1e-9, target=4.0) == []
    assert checks.check_mermin(3.99, target=4.0)
    assert checks.check_mermin(1.91, upper=2 + 1e-4) == []
    assert checks.check_mermin(2.01, upper=2 + 1e-4)
    assert checks.check_threshold(1 - 2 / 2.8284271, 2.8284271) == []
    assert checks.check_threshold(0.3, 2.8284271)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(workload):
    first = workloads.job_specs(workload, 5)
    assert first == workloads.job_specs(workload, 5)
    strip = lambda specs: sorted(json.dumps({k: v for k, v in s.items() if k != "position"},
                                            sort_keys=True) for s in specs)
    orders = {tuple(json.dumps(s, sort_keys=True) for s in workloads.job_specs(workload, seed))
              for seed in range(8)}
    assert len(orders) > 1
    for seed in range(8):
        assert strip(workloads.job_specs(workload, seed)) == strip(first)


def test_benchmark_file_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert set(tracing.layer_metrics([], 1)) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


def test_layer_metrics_from_spans():
    spans = [
        {"id": 1, "name": "polytope.facet_check", "start": 0.0, "end": 2.0, "parent": None,
         "case": "n3d4"},
        {"id": 2, "name": "polytope.classical_maximum", "start": 0.0, "end": 0.5, "parent": 1,
         "strategies": 4096},
        {"id": 3, "name": "optimize.seesaw", "start": 3.0, "end": 5.0, "parent": None, "starts": 2},
        {"id": 4, "name": "quantum.bell_operator", "start": 3.0, "end": 3.001, "parent": 3},
        {"id": 5, "name": "optimize.local_search", "start": 3.1, "end": 3.5, "parent": 3,
         "nfev": 400, "success": True},
    ]
    m = tracing.layer_metrics(spans, 2)
    assert m["polytope.facet_check_s"] == pytest.approx(1.0)
    assert m["polytope.facet_check_s.n3d4"] == pytest.approx(1.0)
    assert m["polytope.facet_rank_s"] == pytest.approx(0.75)
    assert m["polytope.strategies_per_s"] == pytest.approx(4096 / 0.5)
    assert m["optimize.evals_per_start"] == pytest.approx(200)
    assert m["optimize.us_per_eval"] == pytest.approx(1000.0)
    assert m["optimize.seesaw_sweeps_per_start"] == pytest.approx(0.5)
    assert m["reference.evals_per_start"] == 0
