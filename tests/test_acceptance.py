"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time
from fractions import Fraction

import numpy as np

from bellbench import (
    BIPARTITE_LEGACY,
    ProbabilityTable,
    Scenario,
    bell_expression,
    bell_value,
    correlation,
)
from bellbench.cli import EXIT_OK, main
from bellbench.optimize import (
    OptimizerConfig,
    optimize_phases,
    optimize_state_family,
    seesaw,
)
from bellbench.polytope import classical_maximum, facet_check
from bellbench.quantum import (
    PhaseConfiguration,
    StateVector,
    _orbits,
    bell_operator,
    ghz_qubit,
    ghz_qutrit,
    joint_probabilities,
    max_eigenpair,
    noise_threshold,
    noisy_table,
    quantum_bell_value,
)
from bellbench.reference import mermin3_max, reduce_to_bipartite

PI = np.pi
ROOT8 = 2 * np.sqrt(2)

GHZ3_PHASES = [[0, -PI / 12], [0, PI / 4], [0, -PI / 6], [0, PI / 3], [0, 0], [0, PI / 6]]


def check(criterion, condition, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if condition else 'FAIL'} ({detail})")
    assert condition, f"{criterion}: {detail}"


def relevance_state():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 0.169414
    amps[4] = 0.0461131
    amps[5] = 0.161369
    amps[6] = 0.193624
    amps[7] = 0.951652
    return StateVector(Scenario(3, 2), amps)


def test_criterion_01_classical_bound():
    started = time.perf_counter()
    maxima = {}
    for d in range(2, 11):
        maxima[(3, d)] = classical_maximum(bell_expression(3, d)).max_value
    for n, d in [(4, 2), (4, 3), (5, 2)]:
        maxima[(n, d)] = classical_maximum(bell_expression(n, d)).max_value
    elapsed = time.perf_counter() - started
    ok = all(v == 2 for v in maxima.values()) and elapsed < 180
    check("1 classical bound", ok, f"all maxima 2 exactly, {elapsed:.1f}s")


def test_criterion_02_qubit_value_spectrum():
    hist = classical_maximum(bell_expression(3, 2)).histogram
    ok = set(hist) == {Fraction(-2), Fraction(2)}
    check("2 value spectrum", ok, f"support {sorted(map(str, hist))}")


def test_criterion_03_tightness():
    started = time.perf_counter()
    cases = [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2)]
    results = {}
    ok = True
    for n, d in cases:
        report = facet_check(bell_expression(n, d))
        results[(n, d)] = (report.is_facet, report.affine_rank, report.dimension)
        ok = ok and report.is_facet and report.affine_rank == report.dimension - 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 7 * 120
    check("3 tightness", ok, f"{results}, {elapsed:.1f}s")


def test_criterion_04_chsh_facet():
    started = time.perf_counter()
    report = facet_check(bell_expression(2, 2, BIPARTITE_LEGACY))
    elapsed = time.perf_counter() - started
    ok = (
        report.classical_max == 2
        and report.dimension == 8
        and report.affine_rank == 7
        and report.is_facet
        and elapsed < 1.0
    )
    check("4 CHSH facet", ok, f"max={report.classical_max}, rank={report.affine_rank}, {elapsed:.2f}s")


def test_criterion_05_three_qubit_violation():
    started = time.perf_counter()
    e = bell_expression(3, 2)
    cfg = PhaseConfiguration(Scenario(3, 2), GHZ3_PHASES)
    fixed = quantum_bell_value(ghz_qubit(PI / 4), cfg, e)
    soft = abs(fixed - ROOT8) < 1e-3
    result = optimize_phases(ghz_qubit(PI / 4), e, OptimizerConfig(starts=16, seed=1))
    binding = result.best_value >= ROOT8 - 1e-4
    elapsed = time.perf_counter() - started
    ok = soft and binding and elapsed < 10
    check(
        "5 three-qubit violation",
        ok,
        f"fixed={fixed:.7f}, optimized={result.best_value:.7f}, {elapsed:.1f}s",
    )


def test_criterion_06_three_qutrit_violations():
    started = time.perf_counter()
    e = bell_expression(3, 3)
    saw = seesaw(e, OptimizerConfig(starts=8, seed=1))
    balanced = optimize_phases(
        ghz_qutrit(np.arccos(1 / np.sqrt(3)), PI / 4), e, OptimizerConfig(starts=32, seed=1)
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(saw.best_value - 2.915) < 2e-3
        and abs(balanced.best_value - 2.873) < 2e-3
        and balanced.best_value < saw.best_value
        and elapsed < 120
    )
    check(
        "6 three-qutrit violations",
        ok,
        f"seesaw={saw.best_value:.6f}, balanced={balanced.best_value:.6f}, {elapsed:.1f}s",
    )


def test_criterion_07_four_and_five_qubits():
    started = time.perf_counter()
    v4 = seesaw(bell_expression(4, 2), OptimizerConfig(starts=8, seed=1)).best_value
    v5 = seesaw(bell_expression(5, 2), OptimizerConfig(starts=8, seed=1)).best_value
    elapsed = time.perf_counter() - started
    ok = abs(v4 - ROOT8) < 1e-3 and abs(v5 - ROOT8) < 1e-3 and elapsed < 120
    check("7 four/five qubits", ok, f"v4={v4:.7f}, v5={v5:.7f}, {elapsed:.1f}s")


def test_criterion_08_noise_thresholds():
    started = time.perf_counter()
    t1 = noise_threshold(ROOT8)
    t2 = noise_threshold(4.0)
    e = bell_expression(3, 2)
    table = joint_probabilities(ghz_qubit(PI / 4), PhaseConfiguration(Scenario(3, 2), GHZ3_PHASES))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if bell_value(e, noisy_table(table, mid)) > 2.0:
            lo = mid
        else:
            hi = mid
    crossing = lo
    elapsed = time.perf_counter() - started
    ok = (
        abs(t1 - 0.292893) < 1e-5
        and abs(t2 - 0.5) < 1e-12
        and abs(crossing - noise_threshold(bell_value(e, table))) < 1e-8
        and elapsed < 1.0
    )
    check("8 noise thresholds", ok, f"t(2sqrt2)={t1:.6f}, t(4)={t2}, crossing={crossing:.8f}")


def test_criterion_09a_relevance_splitter_violation():
    # Splitter phases only reach equatorial qubit observables, where the only
    # contributing amplitude pair of this state is (|000>, |111>); the value
    # is therefore capped at 2*sqrt(2)*2*|c000*c111| = 0.912, far below the
    # required 2.0028 (the reported 2.00382 needs general observables, see
    # qubit_general_max).  Kept as specified; expected to fail.
    started = time.perf_counter()
    result = optimize_phases(
        relevance_state(), bell_expression(3, 2), OptimizerConfig(starts=256, seed=7)
    )
    elapsed = time.perf_counter() - started
    ok = result.best_value >= 2.0028 and elapsed < 60
    check("9a relevance splitter violation", ok, f"best={result.best_value:.6f}, {elapsed:.1f}s")


def test_criterion_09b_relevance_no_mabk_violation():
    started = time.perf_counter()
    value = mermin3_max(relevance_state(), OptimizerConfig(starts=256, seed=7))
    elapsed = time.perf_counter() - started
    ok = value <= 2 + 1e-4 and elapsed < 60
    check("9b relevance within MABK bound", ok, f"mermin_max={value:.6f}, {elapsed:.1f}s")


def test_criterion_10_non_violation_window():
    started = time.perf_counter()
    e = bell_expression(3, 2)
    values = {}
    for theta in (PI / 16, PI / 8, PI / 6):
        result = optimize_phases(ghz_qubit(theta), e, OptimizerConfig(starts=256, seed=9))
        values[theta] = result.best_value
    elapsed = time.perf_counter() - started
    ok = (
        values[PI / 16] <= 2 + 1e-3
        and values[PI / 8] <= 2 + 1e-3
        and values[PI / 6] > 2.01
        and elapsed < 120
    )
    check(
        "10 non-violation window",
        ok,
        f"pi/16={values[PI/16]:.6f}, pi/8={values[PI/8]:.6f}, pi/6={values[PI/6]:.6f}, {elapsed:.1f}s",
    )


def test_criterion_11_w_states():
    # Splitter correlations vanish identically on the single-excitation
    # support (no all-party amplitude complements), so the family optimum is
    # 0, not 2*sqrt(2); the reported value needs general observables (see
    # qubit_general_family_max).  Kept as specified; expected to fail.
    started = time.perf_counter()
    result = optimize_state_family(
        "w_state", bell_expression(3, 2), OptimizerConfig(starts=64, seed=11)
    )
    elapsed = time.perf_counter() - started
    ok = abs(result.best_value - ROOT8) < 1e-2 and elapsed < 120
    check("11 W states", ok, f"best={result.best_value:.6f}, {elapsed:.1f}s")


def test_criterion_12_reduction_consistency():
    started = time.perf_counter()
    r2 = seesaw(reduce_to_bipartite(bell_expression(3, 2)), OptimizerConfig(starts=6, seed=1))
    r3 = seesaw(reduce_to_bipartite(bell_expression(3, 3)), OptimizerConfig(starts=6, seed=1))
    elapsed = time.perf_counter() - started
    ok = (
        abs(r2.best_value - ROOT8) < 1e-4
        and abs(r3.best_value - 2.9149) < 1e-3
        and elapsed < 60
    )
    check("12 reduction/CGLMP", ok, f"d2={r2.best_value:.7f}, d3={r3.best_value:.6f}, {elapsed:.1f}s")


def test_criterion_13a_uniform_correlation_exact():
    ok = True
    for n in range(2, 6):
        for d in range(2, 8):
            sc = Scenario(n, d)
            table = ProbabilityTable.uniform(sc, exact=True)
            for settings in sc.settings_tuples():
                if correlation(table, settings) != 0:
                    ok = False
    check("13a uniform correlation", ok, "exact zero for N<=5, d<=7")


def test_criterion_13b_random_table_normalization():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        sc = Scenario(n, d)
        amps = rng.normal(size=sc.dimension) + 1j * rng.normal(size=sc.dimension)
        state = StateVector(sc, amps / np.linalg.norm(amps))
        config = PhaseConfiguration(sc, rng.uniform(-PI, PI, (2 * n, d)))
        table = joint_probabilities(state, config)
        for settings in sc.settings_tuples():
            worst = max(worst, abs(float(table.blocks[settings].sum()) - 1.0))
    check("13b normalization", worst < 1e-10, f"worst deviation {worst:.2e} over 1000 draws")


def test_criterion_13c_rayleigh_consistency():
    rng = np.random.default_rng(17)
    sc = Scenario(3, 2)
    e = bell_expression(3, 2)
    cfg = PhaseConfiguration(sc, GHZ3_PHASES)
    op = bell_operator(cfg, e)
    lam, _ = max_eigenpair(op)
    worst = 0.0
    ok = True
    for _ in range(100):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(sc, amps / np.linalg.norm(amps))
        direct = quantum_bell_value(state, cfg, e)
        psi = state.amplitudes[_orbits(3, 2)[1]]
        rayleigh = float(np.einsum("oa,oab,ob->", psi.conj(), op.blocks, psi).real)
        worst = max(worst, abs(rayleigh - direct))
        ok = ok and rayleigh <= lam + 1e-9
    ok = ok and worst < 1e-10
    check("13c Rayleigh consistency", ok, f"worst operator/table gap {worst:.2e}")


def test_criterion_13d_seesaw_monotonicity():
    result = seesaw(bell_expression(3, 2), OptimizerConfig(starts=4, seed=19))
    worst = min(
        float(np.diff(np.asarray(t)).min()) for t in result.trajectories if len(t) > 1
    )
    check("13d seesaw monotonicity", worst > -1e-12, f"smallest step {worst:.2e}")


def test_criterion_13e_report_determinism(tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "optimize", "--n", "3", "--d", "2", "--state", "ghz_qubit:1/4pi",
        "--starts", "4", "--seed", "23", "--no-timestamp", "--out", str(out),
    ]
    assert main(argv + ["--threads", "1"]) == EXIT_OK
    first = out.read_bytes()
    assert main(argv + ["--threads", "1"]) == EXIT_OK
    repeat = out.read_bytes()
    assert main(argv + ["--threads", "4"]) == EXIT_OK
    threaded = json.loads(out.read_text())
    ok = (
        first == repeat
        and threaded["result"] == json.loads(first)["result"]
        and threaded["diagnostics"] == json.loads(first)["diagnostics"]
    )
    check("13e report determinism", ok, "repeat runs byte-identical, threads invariant")
