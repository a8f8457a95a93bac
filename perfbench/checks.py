"""Checks computed apart from bellbench, in plain numpy and exact fractions.

Nothing here imports bellbench.  Every check returns a list of problems
(empty when the answer is right), so one wrong answer never hides another.

The formulas are the paper's: for joint settings s = (s_1..s_N) in {1,2}^N
and outcomes o, the normalized correlation weight is

    w_s(o) = (d - 1 - 2 * mod(sign_s * sum(o), d)) / (d - 1),
    sign_s = (-1)**(s_1 * s_2 * ... * s_N),

the inequality is E(1..1) + E(1212..) + E(2121..) - E(2..2) <= 2, and party j
measures with the splitter U[k, l] = alpha**(k*l) * exp(i*phi_l) / sqrt(d),
alpha = exp(2*pi*i/d).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ROOT8 = 2.0 * math.sqrt(2.0)
RESCORE_TOL = 1e-9
QUTRIT_SEESAW = 2.9149  # three qutrits, optimal state
QUTRIT_BALANCED = 2.8729  # three qutrits, maximally entangled state
LITERATURE_TOL = 1e-3  # the literature quotes four decimals
EXACT_OPT_TOL = 1e-6  # searches that reach a closed-form optimum
MONOTONE_TOL = 1e-9


def terms(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(settings, sign) of the four correlation terms for N parties."""
    alt1 = tuple(1 + (j % 2) for j in range(n))
    alt2 = tuple(2 - (j % 2) for j in range(n))
    return [((1,) * n, 1), (alt1, 1), (alt2, 1), ((2,) * n, -1)]


def weight_numerators(settings: tuple[int, ...], d: int) -> np.ndarray:
    """(d - 1) * w_s(o) on the (d,)*N outcome grid, party 1 on axis 0."""
    n = len(settings)
    sign = (-1) ** int(np.prod(settings))
    total = sum(np.indices((d,) * n))
    return (d - 1) - 2 * np.mod(sign * total, d)


def splitter(phases, d: int) -> np.ndarray:
    phases = np.asarray(phases, dtype=float)
    alpha = np.exp(2j * np.pi / d)
    k = np.arange(d)
    return alpha ** np.outer(k, k) * np.exp(1j * phases)[None, :] / np.sqrt(d)


def joint_probabilities(amplitudes, phase_vectors, settings, d: int) -> np.ndarray:
    """P(o | s) by one Kronecker-product unitary on the whole state."""
    total = np.ones((1, 1), dtype=complex)
    for j, s in enumerate(settings):
        total = np.kron(total, splitter(phase_vectors[2 * j + s - 1], d))
    amp = total @ np.asarray(amplitudes, dtype=complex)
    return (np.abs(amp) ** 2).reshape((d,) * len(settings))


def quantum_value(amplitudes, phase_vectors, n: int, d: int) -> float:
    """Bell value of a pure state under splitter phases, from the definition."""
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    value = 0.0
    for settings, sign in terms(n):
        p = joint_probabilities(psi, phase_vectors, settings, d)
        value += sign * float((weight_numerators(settings, d) * p).sum()) / (d - 1)
    return value


def bell_operator_max(phase_vectors, n: int, d: int) -> float:
    """Largest eigenvalue of sum_t sign_t U_t^dagger diag(w_t) U_t."""
    op = np.zeros((d**n, d**n), dtype=complex)
    for settings, sign in terms(n):
        total = np.ones((1, 1), dtype=complex)
        for j, s in enumerate(settings):
            total = np.kron(total, splitter(phase_vectors[2 * j + s - 1], d))
        w = weight_numerators(settings, d).ravel() / (d - 1)
        op += sign * total.conj().T @ (w[:, None] * total)
    return float(np.linalg.eigvalsh((op + op.conj().T) / 2)[-1])


def ghz_amplitudes(n: int, d: int, coefficients) -> np.ndarray:
    """sum_x c_x |x..x>."""
    amps = np.zeros(d**n, dtype=complex)
    step = sum(d**k for k in range(n))
    amps[::step] = coefficients
    return amps


def window_value(theta: float) -> float:
    """Splitter optimum on cos(t)|000> + sin(t)|111>: only the |000>,|111>
    pair contributes, so the value is 2*sqrt(2)*sin(2t)."""
    return ROOT8 * math.sin(2.0 * theta)


def strategy_numerators(digits: np.ndarray, n: int, d: int) -> np.ndarray:
    """(d - 1) * Bell value of strategies given as rows of 2N outcomes,
    column 2j + i the outcome of party j+1 on setting i+1."""
    total = np.zeros(digits.shape[0], dtype=np.int64)
    for settings, sign in terms(n):
        outcome_sum = sum(digits[:, 2 * j + s - 1] for j, s in enumerate(settings))
        sgn = (-1) ** int(np.prod(settings))
        total += sign * ((d - 1) - 2 * np.mod(sgn * outcome_sum, d))
    return total


def strategy_value(assignment, n: int, d: int) -> Fraction:
    """Exact Bell value of one deterministic strategy [[a_1, b_1], ..]."""
    digits = np.asarray(assignment, dtype=np.int64).reshape(1, 2 * n)
    return Fraction(int(strategy_numerators(digits, n, d)[0]), d - 1)


def full_histogram(n: int, d: int) -> dict[Fraction, int]:
    """Value spectrum over every one of the d**(2N) strategies."""
    digits = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    values, counts = np.unique(strategy_numerators(digits, n, d), return_counts=True)
    return {Fraction(int(v), d - 1): int(c) for v, c in zip(values, counts)}


def sample_numerators(n: int, d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    digits = rng.integers(0, d, size=(size, 2 * n), dtype=np.int64)
    return strategy_numerators(digits, n, d)


# ---------------------------------------------------------------- checks


def close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:  # also rejects nan
        return [f"{name}: {got!r} differs from {want!r} by more than {tol:g}"]
    return []


def check_classical(n, d, max_value, histogram, argmax_assignment) -> list[str]:
    """Maximum exactly 2, counts summing to d**(2N), argmax re-scored to 2."""
    problems = []
    if Fraction(max_value) != 2:
        problems.append(f"classical maximum {max_value} is not 2")
    if max(histogram) != Fraction(max_value):
        problems.append(f"histogram top {max(histogram)} is not the maximum {max_value}")
    if sum(histogram.values()) != d ** (2 * n):
        problems.append(f"histogram counts sum to {sum(histogram.values())}, not {d ** (2 * n)}")
    rescored = strategy_value(argmax_assignment, n, d)
    if rescored != 2:
        problems.append(f"argmax strategy re-scores to {rescored}, not 2")
    return problems


def check_histogram_exact(histogram, reference) -> list[str]:
    if dict(histogram) != reference:
        return [f"histogram {dict(histogram)} differs from the recount {reference}"]
    return []


def check_histogram_sample(histogram, sample: np.ndarray, d: int) -> list[str]:
    """A seeded sample of strategies must only hit values in the histogram,
    with frequencies within six standard deviations of its shares."""
    total = sum(histogram.values())
    values, counts = np.unique(sample, return_counts=True)
    seen = {Fraction(int(v), d - 1): int(c) for v, c in zip(values, counts)}
    problems = [f"sampled value {v} missing from the histogram" for v in seen if v not in histogram]
    m = sample.size
    for value, count in histogram.items():
        p = count / total
        got = seen.get(value, 0)
        if abs(got - m * p) > 6.0 * math.sqrt(m * p * (1.0 - p)) + 1.0:
            problems.append(f"value {value}: {got} of {m} sampled, expected {m * p:.1f}")
    return problems


def check_facet(n, d, report, reference_histogram) -> list[str]:
    """dimension = (2d-1)^N - 1, rank = dimension - 1, is_facet, and the
    saturating count equal to the recount of strategies scoring 2."""
    problems = []
    dim = (2 * d - 1) ** n - 1
    if report.dimension != dim:
        problems.append(f"dimension {report.dimension}, expected {dim}")
    if report.affine_rank != dim - 1:
        problems.append(f"affine rank {report.affine_rank}, expected {dim - 1}")
    if report.is_facet is not True:
        problems.append("is_facet is not True")
    if Fraction(report.classical_max) != 2:
        problems.append(f"classical maximum {report.classical_max} is not 2")
    saturating = reference_histogram.get(Fraction(2), 0)
    if report.saturating_count != saturating:
        problems.append(f"saturating count {report.saturating_count}, recount {saturating}")
    return problems


def check_rescore(best_value, amplitudes, phase_vectors, n, d) -> list[str]:
    """The returned phases and state must reproduce the returned value."""
    return close("re-scored value", quantum_value(amplitudes, phase_vectors, n, d),
                 best_value, RESCORE_TOL)


def check_window(best_value, theta) -> list[str]:
    return close(f"window value at theta={theta:.6f}", best_value,
                 window_value(theta), EXACT_OPT_TOL)


def check_literature(best_value, target, tol) -> list[str]:
    return close("optimum", best_value, target, tol)


def check_below_operator(best_value, phase_vectors, n, d) -> list[str]:
    """No state beats the top eigenvalue of the Bell operator at the phases."""
    top = bell_operator_max(phase_vectors, n, d)
    if best_value > top + RESCORE_TOL:
        return [f"value {best_value!r} exceeds the operator maximum {top!r}"]
    return []


def check_trajectories(trajectories) -> list[str]:
    """See-saw values alternate eigen-step and phase-step; neither may lose."""
    problems = []
    for k, traj in enumerate(trajectories):
        if not traj or any(b < a - MONOTONE_TOL for a, b in zip(traj, traj[1:])):
            problems.append(f"trajectory {k} is empty or decreases: {list(traj)}")
    return problems


def check_mermin(value, upper=None, target=None) -> list[str]:
    if upper is not None and not value <= upper:
        return [f"Mermin value {value!r} exceeds {upper!r}"]
    if target is not None:
        return close("Mermin value", value, target, EXACT_OPT_TOL)
    return []


def check_threshold(f_thr, violation) -> list[str]:
    """White noise scales the value by (1 - F): F = 1 - 2/v."""
    return close("noise threshold", f_thr, 1.0 - 2.0 / violation, 1e-12)
