"""Multiport-beamsplitter measurements and quantum Bell values.

The measurement on each party is the symmetric unbiased d-port splitter with
tunable phase shifters: U[k, l] = alpha**(k*l) * exp(i*phi_l) / sqrt(d) with
alpha = exp(2*pi*i/d), row k the detected outcome and column l the input
basis state.  Everything runs in complex double precision on dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .scenario import (
    BellExpression,
    ProbabilityTable,
    Scenario,
    SettingsTuple,
    bell_expression,
    modular_sign,
)

OPERATOR_DIMENSION_CAP = 10**4
STATE_DIMENSION_CAP = 10**6
# relative residual that max_eigenpair's eigenvector must meet
EIGENPAIR_TOL = 1e-9


@lru_cache(maxsize=None)
def _fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    fourier.setflags(write=False)
    return fourier


def beamsplitter_unitary(phases: Sequence[float], d: int) -> np.ndarray:
    """d x d splitter matrix for one phase vector; unitary by construction."""
    phi = np.asarray(phases, dtype=float)
    if phi.shape != (d,):
        raise DomainError(f"phase vector must have length {d}, got shape {phi.shape}")
    return _fourier(d) * np.exp(1j * phi)[None, :]


class StateVector:
    """Pure state on the joint d**N space, party 1 most significant.

    Inputs within 1e-4 of unit norm are renormalized (printed amplitudes are
    routinely truncated); anything further off is rejected.
    """

    __slots__ = ("scenario", "amplitudes")

    def __init__(self, scenario: Scenario, amplitudes: Iterable[complex]) -> None:
        amps = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes,
                          dtype=np.complex128).reshape(-1)
        if amps.size != scenario.dimension:
            raise DomainError(
                f"state needs {scenario.dimension} amplitudes, got {amps.size}"
            )
        if not np.all(np.isfinite(amps)):
            raise DomainError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-4:
            raise DomainError(f"state norm {norm} deviates from 1 by more than 1e-4")
        amps = amps / norm
        amps.setflags(write=False)
        self.scenario = scenario
        self.amplitudes = amps

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.scenario.outcomes,) * self.scenario.parties)

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.parties,
            "d": self.scenario.outcomes,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        sc = Scenario(int(data["n"]), int(data["d"]))
        amps = [complex(re, im) for re, im in data["amplitudes"]]
        return cls(sc, amps)


class PhaseConfiguration:
    """One length-d phase vector per (party, setting).

    Vectors are stored in the canonical gauge phi[0] = 0; shifting a whole
    vector by a constant only multiplies the splitter by a global phase, so
    probabilities are unchanged by the shift.
    """

    __slots__ = ("scenario", "vectors")

    def __init__(
        self,
        scenario: Scenario,
        vectors: Sequence[Sequence[float]],
    ) -> None:
        if len(vectors) != 2 * scenario.parties:
            raise DomainError(
                f"need {2 * scenario.parties} phase vectors, got {len(vectors)}"
            )
        stored = []
        for vec in vectors:
            arr = np.asarray(vec, dtype=float).reshape(-1)
            if arr.size != scenario.outcomes:
                raise DomainError(
                    f"phase vector length {arr.size}, expected {scenario.outcomes}"
                )
            if not np.all(np.isfinite(arr)):
                raise DomainError("phase vectors must be finite")
            arr = arr - arr[0]
            arr.setflags(write=False)
            stored.append(arr)
        self.scenario = scenario
        self.vectors = tuple(stored)

    def vector(self, party: int, setting: int) -> np.ndarray:
        """Phase vector of 1-based (party, setting)."""
        if not (1 <= party <= self.scenario.parties and setting in (1, 2)):
            raise DomainError(f"no phase vector for party {party}, setting {setting}")
        return self.vectors[2 * (party - 1) + (setting - 1)]

    def unitaries(self) -> list[np.ndarray]:
        """Splitter matrices in the same party-major order as vectors."""
        d = self.scenario.outcomes
        return [beamsplitter_unitary(v, d) for v in self.vectors]

    @classmethod
    def zeros(cls, scenario: Scenario) -> "PhaseConfiguration":
        return cls(scenario, [np.zeros(scenario.outcomes)] * (2 * scenario.parties))

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.parties,
            "d": self.scenario.outcomes,
            "phases": [[float(x) for x in vec] for vec in self.vectors],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhaseConfiguration":
        sc = Scenario(int(data["n"]), int(data["d"]))
        return cls(sc, data["phases"])


def _apply_party_unitaries(
    tensor: np.ndarray, unitaries: Sequence[np.ndarray]
) -> np.ndarray:
    """Apply one unitary per party axis, preserving axis order.

    Each step multiplies the leading axis and rotates it to the back, so
    after one step per party the axes are in their original order again.
    """
    out = tensor
    for u in unitaries:
        out = (u @ out.reshape(u.shape[1], -1)).T
    return out.reshape(tensor.shape)


def _term_block(
    state_tensor: np.ndarray,
    unitaries: Sequence[np.ndarray],
    settings: SettingsTuple,
) -> np.ndarray:
    chosen = [unitaries[2 * j + (s - 1)] for j, s in enumerate(settings)]
    amp = _apply_party_unitaries(state_tensor, chosen)
    return np.abs(amp) ** 2


def joint_probabilities(
    state: StateVector, config: PhaseConfiguration
) -> ProbabilityTable:
    """Outcome distribution of the splitter measurements for every settings."""
    if state.scenario != config.scenario:
        raise DomainError("state and phase configuration use different scenarios")
    sc = state.scenario
    tensor = state.as_tensor()
    us = config.unitaries()
    blocks = {
        settings: _term_block(tensor, us, settings)
        for settings in sc.settings_tuples()
    }
    return ProbabilityTable(sc, blocks, validate=False)


def quantum_bell_value(
    state: StateVector,
    config: PhaseConfiguration,
    expression: BellExpression,
) -> float:
    """Bell value of the full quantum probability table."""
    if expression.scenario != state.scenario:
        raise DomainError("expression scenario does not match the state")
    # Looked up at call time, so a wrapper installed on
    # bellbench.scenario.bell_value (a tracer's span) sees this call.
    from .scenario import bell_value

    return float(bell_value(expression, joint_probabilities(state, config)))


@lru_cache(maxsize=None)
def _orbits(parties: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis states by orbit: digits, shape (d**(N-1), d, N), and flat indices.

    Orbit o holds r + a(1, ..., 1) mod d at position a, where r has first
    digit 0 and its other digits spell o in base d: orbit 0 is {|a...a>}.
    """
    reps = np.indices((1,) + (d,) * (parties - 1)).reshape(parties, -1).T
    digits = (reps[:, None, :] + np.arange(d)[:, None]) % d
    flat = digits @ (d ** np.arange(parties - 1, -1, -1))
    for table in (digits, flat):
        table.setflags(write=False)
    return digits, flat


@lru_cache(maxsize=None)
def _orbit_terms(
    parties: int, d: int, family: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical expression's terms on the orbits: (coupling, index, flat).

    On orbit o, term t acts as diag(conj(e)) coupling[t] diag(e) with
    e[a] = exp(i sum_j phi[index[t, o, a, j]]), phi the (2N, d) phase array
    flattened, so index[t, o, a, j] picks party j's vector for the term's
    setting at the orbit's digit j.  coupling[t, a, b] = sign_t
    g[sigma_t (a - b) mod d] / (d - 1), with sigma_t the term's modular sign
    and g[q] = (1/d) sum_c ((d-1) - 2c) omega**(-qc); g[0] = 0, so the
    diagonal vanishes.  flat is _orbits' flat indices.  The operator and
    every splitter search read these tables, so both stop here past
    OPERATOR_DIMENSION_CAP.
    """
    if d**parties > OPERATOR_DIMENSION_CAP:
        raise ResourceError(
            f"operator dimension {d**parties} exceeds cap {OPERATOR_DIMENSION_CAP}"
        )
    terms = bell_expression(parties, d, family).terms
    g = np.fft.fft(d - 1 - 2 * np.arange(d)) / d
    shift = np.arange(d)[:, None] - np.arange(d)
    coupling = np.array(
        [sign * g[modular_sign(t, family) * shift % d] for t, sign in terms]
    ) / (d - 1)
    rows = np.array([[2 * j + s - 1 for j, s in enumerate(t)] for t, _ in terms])
    digits, flat = _orbits(parties, d)
    index = rows[:, None, None, :] * d + digits
    for table in (coupling, index):
        table.setflags(write=False)
    return coupling, index, flat


def _phase_factors(index: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """e[t, o, a] of _orbit_terms for the 2N phase vectors."""
    return np.exp(1j * np.asarray(vectors, dtype=float).reshape(-1)[index].sum(axis=-1))


def _expression_value_and_gradient(
    state_tensor: np.ndarray,
    vectors: Sequence[np.ndarray],
    expression: BellExpression,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bell value, its gradient in every phase, shape (2N, d), and B psi.

    With u = e_t * psi_o on each orbit (see _orbit_terms), the value is
    sum_t u+ C_t u.  Moving phase k multiplies u[a] by i once per party j
    with index[t, o, a, j] = k, so its derivative sums 2 Im(conj(u) C_t u)
    over those entries.  B psi = sum_t conj(e_t) C_t u on each orbit, shaped
    like state_tensor: a change dpsi of the state moves the value by
    2 Re <B psi, dpsi>.
    """
    sc = expression.scenario
    coupling, index, flat = _orbit_terms(sc.parties, sc.outcomes, expression.family)
    e = _phase_factors(index, vectors)
    u = e * state_tensor.reshape(-1)[flat]
    cu = u @ coupling.swapaxes(1, 2)
    overlap = u.conj() * cu
    weights = np.repeat(2 * overlap.imag.ravel(), sc.parties)
    gradient = np.bincount(index.ravel(), weights, minlength=2 * sc.parties * sc.outcomes)
    b_psi = np.empty(sc.dimension, dtype=np.complex128)
    b_psi[flat] = np.einsum("toa,toa->oa", e.conj(), cu)
    return (
        float(overlap.real.sum()),
        gradient.reshape(-1, sc.outcomes),
        b_psi.reshape(state_tensor.shape),
    )


@lru_cache(maxsize=None)
def _orbit_incidence(parties: int, d: int, family: str) -> np.ndarray:
    """P[t, o, a, k] = 1 if phase k moves e[t, o, a] of _orbit_terms, else 0.

    Party j adds phase index[t, o, a, j], and those lie in party j's own
    vectors, so the entries are 0 or 1; the shape is (T, O, d, 2N * d).
    """
    _, index, _ = _orbit_terms(parties, d, family)
    incidence = np.zeros(index.shape[:-1] + (2 * parties * d,))
    np.put_along_axis(incidence, index, 1.0, axis=-1)
    incidence.setflags(write=False)
    return incidence


def _expression_hessian(
    state_tensor: np.ndarray,
    vectors: Sequence[np.ndarray],
    expression: BellExpression,
) -> np.ndarray:
    """Hessian of the Bell value in every phase, shape (2N * d, 2N * d), the
    phases flattened in the (2N, d) order of the gradient.

    With u = e_t * psi_o and W[a, b] = conj(u[a]) C_t[a, b] u[b], the value is
    sum W, and W[a, b] turns with the phases as exp(i (P_b - P_a) . phi), P
    the incidence rows of _orbit_incidence.  So H = -sum Re W[a, b]
    (P_b - P_a)(P_b - P_a)^T.  C_t is Hermitian, so R = Re W is symmetric,
    and H = 2 sum P^T (R - diag(R 1)) P: two matmuls over the orbits.
    """
    sc = expression.scenario
    coupling, index, flat = _orbit_terms(sc.parties, sc.outcomes, expression.family)
    incidence = _orbit_incidence(sc.parties, sc.outcomes, expression.family)
    u = _phase_factors(index, vectors) * state_tensor.reshape(-1)[flat]
    r = (u.conj()[..., :, None] * coupling[:, None] * u[..., None, :]).real
    diagonal = np.arange(sc.outcomes)
    r[..., diagonal, diagonal] -= r.sum(axis=-1)
    size = incidence.shape[-1]
    moved = (r @ incidence).reshape(-1, size)
    return 2 * incidence.reshape(-1, size).T @ moved


@dataclass(frozen=True)
class BellOperator:
    """Hermitian operator whose expectation equals the Bell value, held as
    its d x d diagonal blocks: blocks[o] acts on orbit o of _orbits."""

    scenario: Scenario
    blocks: np.ndarray
    expression: BellExpression
    config: PhaseConfiguration

    def __post_init__(self) -> None:
        b, d = self.blocks, self.scenario.outcomes
        if b.shape != (d ** (self.scenario.parties - 1), d, d):
            raise DomainError("operator blocks do not match the scenario")
        if float(np.abs(b - b.conj().swapaxes(1, 2)).max()) > 1e-12:
            raise DomainError("operator is not Hermitian within 1e-12")


def bell_operator(
    config: PhaseConfiguration, expression: BellExpression
) -> BellOperator:
    """Assemble the Bell operator's orbit blocks for fixed splitter settings.

    B couples |x> only to |x - m1>: B[x, x - m1] = (1/(d-1)) sum_t sign_t
    g[sigma_t m mod d] exp(i sum_j (phi_{j,s_j}[x_j - m] - phi_{j,s_j}[x_j])),
    one sum over the terms of _orbit_terms.
    """
    sc = expression.scenario
    if config.scenario != sc:
        raise DomainError("phase configuration scenario does not match")
    coupling, index, _ = _orbit_terms(sc.parties, sc.outcomes, expression.family)
    e = _phase_factors(index, config.vectors)
    blocks = np.einsum("tab,toa,tob->oab", coupling, e.conj(), e)
    blocks.setflags(write=False)
    return BellOperator(sc, blocks, expression, config)


def max_eigenpair(operator: BellOperator) -> tuple[float, StateVector]:
    """Largest eigenvalue and a matching eigenvector of the Bell operator.

    One batched Hermitian solve runs over the orbit blocks; the largest top
    eigenvalue wins, ties going to the lowest orbit index, and that block's
    eigenvector, residual-checked on the block, is embedded on its orbit.
    """
    values, vectors = np.linalg.eigh(operator.blocks)
    orbit = int(np.argmax(values[:, -1]))
    lam, vec = float(values[orbit, -1]), vectors[orbit, :, -1]
    residual = float(np.linalg.norm(operator.blocks[orbit] @ vec - lam * vec))
    if residual > EIGENPAIR_TOL * abs(lam) + 1e-30:
        raise NumericError(
            f"eigenpair residual {residual:.3e} exceeds {EIGENPAIR_TOL:.1e} * |{lam:.6f}|"
        )
    sc = operator.scenario
    amplitudes = np.zeros(sc.dimension, dtype=np.complex128)
    amplitudes[_orbits(sc.parties, sc.outcomes)[1][orbit]] = vec
    return lam, StateVector(sc, amplitudes)


def _hyperspherical(angles: np.ndarray) -> np.ndarray:
    """cos a_0, sin a_0 cos a_1, ..., sin a_0 ... sin a_{k-1} along the last
    axis: k angles give k + 1 coefficients with unit sum of squares."""
    coefficients = np.ones(angles.shape[:-1] + (angles.shape[-1] + 1,))
    coefficients[..., :-1] = np.cos(angles)
    coefficients[..., 1:] *= np.cumprod(np.sin(angles), axis=-1)
    return coefficients


@dataclass(frozen=True)
class StateFamily:
    """Named family of pure states in hyperspherical angles: build puts the
    _hyperspherical coefficients of k angles, in order, on the k + 1 flat
    basis indices of support."""

    name: str
    param_names: tuple[str, ...]
    scenario: Scenario
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.param_names) + 1
        inside = all(0 <= i < self.scenario.dimension for i in self.support)
        if len(self.support) != size or len(set(self.support)) != size or not inside:
            raise DomainError(
                f"family {self.name} needs {size} distinct basis indices below "
                f"{self.scenario.dimension}, got {self.support}"
            )

    def _angles(self, angles: Sequence[float]) -> np.ndarray:
        a = np.asarray(angles, dtype=float).reshape(-1)
        if a.size != len(self.param_names):
            raise DomainError(
                f"family {self.name} needs {len(self.param_names)} angles "
                f"({', '.join(self.param_names)}), got {a.size}"
            )
        return a

    def build(self, angles: Sequence[float]) -> StateVector:
        amps = np.zeros(self.scenario.dimension, dtype=np.complex128)
        amps[list(self.support)] = _hyperspherical(self._angles(angles))
        return StateVector(self.scenario, amps)

    def derivatives(self, angles: Sequence[float]) -> np.ndarray:
        """Row k is d psi / d angle_k: angle k is one cos or sin factor of
        coefficient i >= k and absent below, so row k is the coefficients at
        angles + (pi/2) e_k, zeroed below k."""
        a = self._angles(angles)
        shifted = _hyperspherical(a + np.eye(a.size) * (np.pi / 2))
        rows = np.zeros((a.size, self.scenario.dimension), dtype=np.complex128)
        rows[:, list(self.support)] = np.triu(shifted)
        return rows


STATE_FAMILIES: dict[str, StateFamily] = {
    family.name: family
    for family in (
        StateFamily("ghz_qubit", ("theta",), Scenario(3, 2), (0, 7)),
        StateFamily("ghz_qutrit", ("theta_1", "theta_2"), Scenario(3, 3), (26, 13, 0)),
        StateFamily("w_state", ("beta", "xi"), Scenario(3, 2), (4, 2, 1)),
    )
}


def ghz_qubit(theta: float) -> StateVector:
    """cos(theta)|000> + sin(theta)|111> on three qubits."""
    return STATE_FAMILIES["ghz_qubit"].build((theta,))


def ghz_qutrit(theta_1: float, theta_2: float) -> StateVector:
    """sin(t1)sin(t2)|000> + sin(t1)cos(t2)|111> + cos(t1)|222>."""
    return STATE_FAMILIES["ghz_qutrit"].build((theta_1, theta_2))


def ghz_max(parties: int, outcomes: int) -> StateVector:
    """Maximally entangled (1/sqrt(d)) sum_x |x...x> on N qudits."""
    sc = Scenario(parties, outcomes)
    if sc.dimension > STATE_DIMENSION_CAP:
        raise ResourceError(f"state dimension {sc.dimension} exceeds the budget")
    amps = np.zeros(sc.dimension, dtype=np.complex128)
    step = sum(outcomes**k for k in range(parties))
    amps[::step] = 1.0 / np.sqrt(outcomes)
    return StateVector(sc, amps)


def w_state(beta: float, xi: float) -> StateVector:
    """sin(b)sin(x)|001> + sin(b)cos(x)|010> + cos(b)|100> on three qubits."""
    return STATE_FAMILIES["w_state"].build((beta, xi))


def noise_threshold(violation: float) -> float:
    """Largest white-noise fraction at which the value still exceeds 2.

    Mixing with white noise scales the Bell value by (1 - F) because the
    uniform table contributes 0, so the crossing is at 1 - 2/violation,
    clamped at 0 for non-violations.
    """
    if not 0 < violation < math.inf:
        raise DomainError(f"violation must be positive and finite, got {violation}")
    return max(0.0, 1.0 - 2.0 / violation)


def noisy_table(table: ProbabilityTable, noise_fraction: float) -> ProbabilityTable:
    """(1 - F) * table + F * uniform."""
    if not 0.0 <= noise_fraction <= 1.0:
        raise DomainError(f"noise fraction {noise_fraction} outside [0, 1]")
    uniform = ProbabilityTable.uniform(table.scenario)
    return ProbabilityTable.mix(table, uniform, 1.0 - noise_fraction)
