"""Violation search: multistart phase optimization, see-saw, state families.

All searches are deterministic: start k of a run draws from a generator
seeded by (seed, k), so the start-stream is a prefix of any longer run with
the same seed.  Every local search is `minimize`, a dense BFGS, and every
search runs its starts and sweep points in order on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .scenario import BellExpression, Scenario
from .quantum import (
    STATE_FAMILIES,
    PhaseConfiguration,
    StateFamily,
    StateVector,
    _expression_hessian,
    _expression_value_and_gradient,
    bell_operator,
    max_eigenpair,
)

MAX_SEESAW_SWEEPS = 100

# The searches' second-order escape: a top eigenvalue of the exact probe
# (the phase Hessian, beside an angle block in the family searches) above
# the threshold marks a stopping point as a saddle to step off, by
# ESCAPE_STEP along its eigenvector.
CURVATURE_THRESHOLD = 1e-6
ESCAPE_STEP = 0.3


# minimize's line search: the strong-Wolfe constants (sufficient decrease
# and curvature) and the most calls one line search may make.
WOLFE_DECREASE = 1e-4
WOLFE_CURVATURE = 0.9
LINE_SEARCH_CALLS = 20


class LocalSearch(NamedTuple):
    """What minimize returns: the point, its value, whether a stopping test
    fired within the budget, and the number of calls made."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def _cubic_step(a, fa, da, b, fb, db) -> float:
    """Minimizer of the cubic through (a, fa, da) and (b, fb, db) when it
    lies strictly between a and b, else the midpoint."""
    d1 = da + db - 3 * (fa - fb) / (a - b)
    radicand = d1 * d1 - da * db
    midpoint = (a + b) / 2
    if radicand < 0:
        return midpoint
    d2 = math.copysign(math.sqrt(radicand), b - a)
    denominator = db - da + 2 * d2
    step = b - (b - a) * (db + d2 - d1) / denominator if denominator else midpoint
    return step if min(a, b) < step < max(a, b) else midpoint


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    tol: float,
    budget: int,
) -> LocalSearch:
    """Dense BFGS on fun, which returns (value, gradient), from x0.

    The inverse Hessian starts as the identity and is scaled by s^T y / y^T y
    at the first update; an update with s^T y <= 0 is skipped.  Each step
    is a strong-Wolfe line search along -H g, starting from 1 / |g| on the
    steepest-descent direction and from 1 otherwise.  The search converges
    when max |g| <= tol, or when a step lowers the value by at most tol
    relative to max(|f_k|, |f_k+1|, 1).  A failed line search resets H to
    the identity, and one along -g stops the search unconverged at the best
    point it read, as does the budget of `budget` calls.
    """
    nfev = 0
    best = None

    def read(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal nfev, best
        value, gradient = fun(x)
        nfev += 1
        if best is None or value < best[0]:
            best = (value, x)
        return value, gradient

    x = np.asarray(x0, dtype=float)
    f, g = read(x)
    h = None  # inverse Hessian; None is the unscaled identity
    while np.abs(g).max(initial=0.0) > tol:
        p = -g if h is None else -h @ g
        first = 1 / np.linalg.norm(g) if h is None else 1.0
        step = _wolfe_step(read, x, f, g, p, first, min(budget - nfev, LINE_SEARCH_CALLS))
        if step is None:
            if h is None or nfev == budget:
                return LocalSearch(best[1], best[0], False, nfev)
            h = None
            continue
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= tol:
            break
        sy = s @ y
        if sy > 0:
            if h is None:
                h = (sy / (y @ y)) * np.eye(x.size)
            hy = h @ y
            # H += w s^T + s w^T, w = (s^T y + y^T H y) s / (2 (s^T y)^2) - H y / s^T y
            rank_two = np.array([((sy + y @ hy) / (2 * sy * sy)) * s - hy / sy, s])
            h += rank_two.T @ rank_two[::-1]
    return LocalSearch(x, f, True, nfev)


def _wolfe_step(read, x, f, g, p, step, calls):
    """(x + a p, value, gradient) at a step a meeting the strong Wolfe
    conditions, or None when p does not descend or no such step turns up
    within `calls` calls of read.  The step doubles until it brackets such
    a point, and the bracket [lo, hi] then narrows by cubic interpolation,
    or by bisection after a cubic step that did not halve it."""
    slope0 = g @ p
    if not slope0 < 0:
        return None
    lo, hi = (0.0, f, slope0), None
    width = math.inf
    for _ in range(calls):
        if hi is not None:
            bisect = abs(hi[0] - lo[0]) > width / 2
            width = abs(hi[0] - lo[0])
            step = (lo[0] + hi[0]) / 2 if bisect else _cubic_step(*lo, *hi)
        point = x + step * p
        value, gradient = read(point)
        slope = gradient @ p
        if value > f + WOLFE_DECREASE * step * slope0 or value > lo[1]:
            hi = (step, value, slope)
            continue
        if abs(slope) <= -WOLFE_CURVATURE * slope0:
            return point, value, gradient
        if (slope if hi is None else slope * (hi[0] - lo[0])) >= 0:
            hi = lo
        lo = (step, value, slope)
        if hi is None:
            step *= 2
    return None


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart search knobs; identical configs give bit-identical runs."""

    starts: int = 64
    seed: int = 0
    tol: float = 1e-9
    max_iterations: int = 5000

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError("need at least one start")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.tol < math.inf or self.max_iterations < 1:
            raise DomainError("tolerance and iteration cap must be positive and finite")


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found by a multistart search plus per-start summaries.

    converged is the best start's flag; converged_starts counts the starts
    whose local search converged.
    """

    best_value: float
    best_phases: PhaseConfiguration
    best_state: Optional[StateVector]
    start_values: tuple[tuple[int, float], ...]
    converged: bool
    converged_starts: int
    evaluations: int = 0
    family_angles: Optional[dict[str, float]] = None
    trajectories: Optional[tuple[tuple[float, ...], ...]] = None

    def to_json_dict(self) -> dict:
        out = {
            "best_value": self.best_value,
            "converged": self.converged,
            "converged_starts": self.converged_starts,
            "evaluations": self.evaluations,
            "best_phases": self.best_phases.to_json_dict(),
            "best_state": self.best_state.to_json_dict() if self.best_state else None,
            "start_values": [[k, v] for k, v in self.start_values],
        }
        if self.family_angles is not None:
            out["family_angles"] = dict(self.family_angles)
        if self.trajectories is not None:
            out["trajectories"] = [list(t) for t in self.trajectories]
        return out


def wrap_angle(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Reduce modulo 2*pi into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def _phase_vectors(x: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Unpack the free phases (gauge phi[0] = 0) into the (2N, d) phase array."""
    vectors = np.zeros((2 * scenario.parties, scenario.outcomes))
    vectors[:, 1:] = x.reshape(2 * scenario.parties, -1)
    return vectors


def _phase_param_count(scenario: Scenario) -> int:
    return 2 * scenario.parties * (scenario.outcomes - 1)


def _config_from_params(x: np.ndarray, scenario: Scenario) -> PhaseConfiguration:
    return PhaseConfiguration(scenario, _phase_vectors(wrap_angle(x), scenario))


def _gradient_max(
    objective_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, float, bool, int]:
    """minimize on the negated objective, within config.max_iterations
    calls; returns (x, value, success, evaluations), each value-and-gradient
    call counting as one evaluation."""

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, gradient = objective_and_gradient(x)
        return -value, -gradient

    result = minimize(negated, x0, config.tol, config.max_iterations)
    return result.x, -result.fun, result.success, result.nfev


def _escaping_gradient_max(
    objective_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, float, bool, int]:
    """_gradient_max, restarted past saddles; returns what it returns.

    BFGS stops at any stationary point, and splitter phases have saddles
    with a vanishing gradient that no single-axis step climbs out of (the
    zero-phase start on a degenerate eigenvector is one).  So at each stop
    the top eigenvalue of hessian(x) is read; if it is positive, one
    ESCAPE_STEP along its eigenvector (the better sign, + on a tie) is
    tried, and the search restarts there when the value rises by more than
    tol.  Every value-and-gradient call counts against max_iterations, and so
    does each probe, as 1: the exact phase Hessian costs about one kernel
    call, the family probe about two family evaluations.  A probe and its
    step run only while they fit in what is left.
    """
    x = np.asarray(x0, dtype=float)
    budget = config.max_iterations
    evaluations = 0
    while True:
        remaining = replace(config, max_iterations=budget - evaluations)
        x, value, ok, nfev = _gradient_max(objective_and_gradient, x, remaining)
        evaluations += nfev
        if not ok or x.size == 0 or evaluations + 3 >= budget:
            return x, value, ok, evaluations
        h = hessian(x)
        curvatures, directions = np.linalg.eigh((h + h.T) / 2)
        evaluations += 1
        if curvatures[-1] <= CURVATURE_THRESHOLD:
            return x, value, ok, evaluations
        up = x + ESCAPE_STEP * directions[:, -1]
        down = x - ESCAPE_STEP * directions[:, -1]
        up_value = objective_and_gradient(up)[0]
        down_value = objective_and_gradient(down)[0]
        evaluations += 2
        step, step_value = (up, up_value) if up_value >= down_value else (down, down_value)
        if step_value - value <= config.tol:
            return x, value, ok, evaluations
        x = step


def _phase_objective(
    state_tensor: np.ndarray, expression: BellExpression
) -> tuple[
    Callable[[np.ndarray], tuple[float, np.ndarray]], Callable[[np.ndarray], np.ndarray]
]:
    """(value and gradient, exact Hessian) in the free phases, the state held
    fixed."""
    sc = expression.scenario
    rows, d = 2 * sc.parties, sc.outcomes

    def objective_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, gradient, _ = _expression_value_and_gradient(
            state_tensor, _phase_vectors(x, sc), expression
        )
        return value, gradient[:, 1:].ravel()

    def hessian(x: np.ndarray) -> np.ndarray:
        full = _expression_hessian(state_tensor, _phase_vectors(x, sc), expression)
        return full.reshape(rows, d, rows, d)[:, 1:, :, 1:].reshape(x.size, x.size)

    return objective_and_gradient, hessian


def multistart(
    local_search: Callable[[np.ndarray], tuple],
    first: np.ndarray,
    config: OptimizerConfig,
) -> tuple[tuple, list[tuple]]:
    """Run local_search from config.starts points in order on the calling
    thread; (best tuple, per-start list).

    Start 0 is `first`; start k >= 1 is uniform in [-pi, pi) from a
    generator seeded by (config.seed, k).  Each tuple local_search returns
    begins (x, value, converged, evaluations); later entries pass through
    untouched.  The best start has the largest value, ties going to the
    lowest start index.
    """

    def one_start(k: int) -> tuple:
        if k == 0:
            return local_search(first.copy())
        rng = np.random.default_rng([config.seed, k])
        return local_search(rng.uniform(-np.pi, np.pi, first.size))

    per_start = [one_start(k) for k in range(config.starts)]
    return max(per_start, key=lambda r: r[1]), per_start


def _result(
    best: tuple,
    per_start: list[tuple],
    best_phases: PhaseConfiguration,
    best_state: Optional[StateVector] = None,
    **extra,
) -> OptimizationResult:
    """OptimizationResult of a multistart run; extra fields pass through."""
    return OptimizationResult(
        best_value=best[1],
        best_phases=best_phases,
        best_state=best_state,
        start_values=tuple((k, r[1]) for k, r in enumerate(per_start)),
        converged=best[2],
        converged_starts=sum(r[2] for r in per_start),
        evaluations=sum(r[3] for r in per_start),
        **extra,
    )


def optimize_phases(
    state: StateVector,
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
    threads: int = 1,
) -> OptimizationResult:
    """Maximize the Bell value over all 2N(d-1) free phases, state fixed.

    The starts run on the calling thread; `threads` is accepted and unused.
    """
    config = config or OptimizerConfig()
    sc = expression.scenario
    if state.scenario != sc:
        raise DomainError("state scenario does not match the expression")
    objective_and_gradient, hessian = _phase_objective(state.as_tensor(), expression)
    best, per_start = multistart(
        lambda x0: _escaping_gradient_max(objective_and_gradient, hessian, x0, config),
        np.zeros(_phase_param_count(sc)),
        config,
    )
    return _result(best, per_start, _config_from_params(best[0], sc))


def seesaw(
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
    threads: int = 1,
) -> OptimizationResult:
    """Alternate the eigenvector step and the phase step until stationary.

    Each sweep first replaces the state by the dominant eigenvector of the
    Bell operator at the current phases (the maximum eigenvalue dominates
    every Rayleigh quotient, so this step cannot decrease the objective),
    then locally re-optimizes the phases at the new state.  The starts run
    on the calling thread; `threads` is accepted and unused.
    """
    config = config or OptimizerConfig()
    sc = expression.scenario

    def one_start(x: np.ndarray):
        state: Optional[StateVector] = None
        trajectory: list[float] = []
        prev = -np.inf
        converged = False
        evaluations = 0
        for _ in range(MAX_SEESAW_SWEEPS):
            operator = bell_operator(_config_from_params(x, sc), expression)
            lam, state = max_eigenpair(operator)
            trajectory.append(lam)
            objective_and_gradient, hessian = _phase_objective(state.as_tensor(), expression)
            x, val, _, nfev = _escaping_gradient_max(objective_and_gradient, hessian, x, config)
            evaluations += nfev
            trajectory.append(val)
            if val - prev <= config.tol:
                converged = True
                break
            prev = val
        return x, trajectory[-1], converged, evaluations, state, tuple(trajectory)

    best, per_start = multistart(one_start, np.zeros(_phase_param_count(sc)), config)
    return _result(
        best,
        per_start,
        _config_from_params(best[0], sc),
        best_state=best[4],
        trajectories=tuple(r[5] for r in per_start),
    )


def _resolve_family(family: Union[str, StateFamily]) -> StateFamily:
    if isinstance(family, StateFamily):
        return family
    try:
        return STATE_FAMILIES[family]
    except KeyError:
        raise DomainError(
            f"unknown state family {family!r}; known: {sorted(STATE_FAMILIES)}"
        ) from None


def optimize_state_family(
    family: Union[str, StateFamily],
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
    phases: Union[str, PhaseConfiguration] = "free",
) -> OptimizationResult:
    """Optimize the family angles, jointly with the phases unless fixed."""
    config = config or OptimizerConfig()
    fam = _resolve_family(family)
    sc = expression.scenario
    if fam.scenario != sc:
        raise DomainError(
            f"family {fam.name} lives on {fam.scenario}, expression on {sc}"
        )
    n_angles = len(fam.param_names)
    free_phases = isinstance(phases, str) and phases == "free"
    if not free_phases:
        if not isinstance(phases, PhaseConfiguration):
            raise DomainError("phases must be 'free' or a PhaseConfiguration")
        if phases.scenario != sc:
            raise DomainError("fixed phases do not match the expression scenario")

    def read(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        angles = x[:n_angles]
        vectors = _phase_vectors(x[n_angles:], sc) if free_phases else phases.vectors
        return vectors, fam.build(angles).as_tensor(), fam.derivatives(angles)

    def objective_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        vectors, state_tensor, rows = read(x)
        value, phase_gradient, b_psi = _expression_value_and_gradient(
            state_tensor, vectors, expression
        )
        gradient = 2 * (rows @ np.conj(b_psi.ravel())).real
        if free_phases:
            gradient = np.concatenate([gradient, phase_gradient[:, 1:].ravel()])
        return value, gradient

    def hessian(x: np.ndarray) -> np.ndarray:
        # block diagonal, and for v in either block's span v^T H v is the
        # objective's curvature.  Phases: the exact phase Hessian at the
        # current state.  Angles: 2 Re J+ (B - value) J, J the derivative
        # rows, exact at stationary angles: there Re B psi = value * psi on
        # the support, and the unit norm turns psi's second derivatives
        # into -J^T J
        vectors, state_tensor, rows = read(x)
        value, _, _ = _expression_value_and_gradient(state_tensor, vectors, expression)
        b_rows = np.array([
            _expression_value_and_gradient(r.reshape(state_tensor.shape), vectors, expression)[2]
            for r in rows
        ]).reshape(rows.shape)
        matrix = np.zeros((x.size, x.size))
        matrix[:n_angles, :n_angles] = 2 * (rows.conj() @ (b_rows - value * rows).T).real
        if free_phases:
            phase_hessian = _phase_objective(state_tensor, expression)[1]
            matrix[n_angles:, n_angles:] = phase_hessian(x[n_angles:])
        return matrix

    first = np.zeros(n_angles + (_phase_param_count(sc) if free_phases else 0))
    first[:n_angles] = np.pi / 4
    search = lambda x0: _escaping_gradient_max(objective_and_gradient, hessian, x0, config)
    best, per_start = multistart(search, first, config)
    x = best[0]
    angles = wrap_angle(x[:n_angles])
    best_phases = (
        _config_from_params(x[n_angles:], sc) if free_phases else phases
    )
    return _result(
        best,
        per_start,
        best_phases,
        best_state=fam.build(angles),
        family_angles={name: float(a) for name, a in zip(fam.param_names, angles)},
    )


@dataclass(frozen=True)
class SweepRow:
    parameters: tuple[float, ...]
    best_value: float
    converged: bool


def sweep(
    family: Union[str, StateFamily],
    grid: Sequence[Sequence[float]],
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
) -> list[SweepRow]:
    """Phase optimization at each grid point with the same config, rows in
    grid order; every state is built first, so a bad point fails early."""
    config = config or OptimizerConfig()
    fam = _resolve_family(family)
    points = [tuple(float(v) for v in np.atleast_1d(p)) for p in grid]
    if not points:
        raise DomainError("sweep grid must not be empty")
    states = [fam.build(p) for p in points]
    rows = []
    for point, state in zip(points, states):
        result = optimize_phases(state, expression, config)
        rows.append(SweepRow(point, result.best_value, result.converged))
    return rows
