"""Comparison inequalities: three-qubit Mermin (MABK) and the two-party
reduction of the three-party expression.

The Mermin functional is evaluated with general dichotomic qubit
observables (full Bloch sphere), which is the strongest measurement class
and therefore the meaningful benchmark for non-violation claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .optimize import OptimizerConfig, StateFamily, _gradient_max, _resolve_family, multistart
from .quantum import StateVector
from .scenario import MULTIPARTITE, BellExpression, Scenario, bell_expression

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

# terms of the three-qubit Mermin functional: E(112)+E(121)+E(211)-E(222) <= 2
_MERMIN_TERMS = (((1, 1, 2), 1), ((1, 2, 1), 1), ((2, 1, 1), 1), ((2, 2, 2), -1))


def _unit_vector(polar: float, azimuth: float) -> np.ndarray:
    return np.array(
        [
            np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth),
            np.cos(polar),
        ]
    )


@dataclass(frozen=True)
class BlochSettings:
    """A unit Bloch vector for each of the 3 parties and 2 settings."""

    vectors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if len(self.vectors) != 3 or any(len(pair) != 2 for pair in self.vectors):
            raise DomainError("need exactly 3 parties x 2 settings")
        for pair in self.vectors:
            for v in pair:
                if v.shape != (3,) or abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
                    raise DomainError("Bloch vectors must be unit 3-vectors")

    @classmethod
    def from_angles(cls, angles: Sequence[float]) -> "BlochSettings":
        """12 angles, party-major: (polar, azimuth) per (party, setting)."""
        a = np.asarray(angles, dtype=float).reshape(-1)
        if a.size != 12:
            raise DomainError(f"need 12 angles, got {a.size}")
        vectors = []
        for j in range(3):
            base = 4 * j
            vectors.append(
                (
                    _unit_vector(a[base], a[base + 1]),
                    _unit_vector(a[base + 2], a[base + 3]),
                )
            )
        return cls(tuple(vectors))

    def observable(self, party: int, setting: int) -> np.ndarray:
        """n . sigma for 1-based (party, setting)."""
        n = self.vectors[party - 1][setting - 1]
        return n[0] * _SIGMA_X + n[1] * _SIGMA_Y + n[2] * _SIGMA_Z

    def flip_party(self, party: int) -> "BlochSettings":
        """Negate both Bloch vectors of one party."""
        vectors = list(self.vectors)
        a, b = vectors[party - 1]
        vectors[party - 1] = (-a, -b)
        return BlochSettings(tuple(vectors))


def _check_three_qubits(state: StateVector) -> None:
    if state.scenario != Scenario(3, 2):
        raise DomainError("Mermin functional is defined for three qubits only")


def mermin3_value(state: StateVector, settings: BlochSettings) -> float:
    """E(112) + E(121) + E(211) - E(222) with +-1-valued observables."""
    _check_three_qubits(state)
    psi = state.amplitudes
    total = 0.0
    for term, sign in _MERMIN_TERMS:
        op = settings.observable(1, term[0])
        for party, s in ((2, term[1]), (3, term[2])):
            op = np.kron(op, settings.observable(party, s))
        total += sign * float(np.vdot(psi, op @ psi).real)
    return total


_PAULIS = np.stack([_SIGMA_X, _SIGMA_Y, _SIGMA_Z])


def _correlation_tensor(bra: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """T[..., a,b,c] = Re <bra| sigma_a x sigma_b x sigma_c |ket> for each ket
    of a (..., 8) stack.  With bra = ket every product-observable expectation
    is the trilinear form of T with the three Bloch vectors; with ket = d psi
    it is half that form's derivative."""
    p = kets.reshape(kets.shape[:-1] + (2, 2, 2))
    tmp = np.einsum("axi,...ijk->...axjk", _PAULIS, p)
    tmp = np.einsum("byj,...axjk->...abxyk", _PAULIS, tmp)
    tmp = np.einsum("czk,...abxyk->...abcxyz", _PAULIS, tmp)
    return np.real(np.einsum("xyz,...abcxyz->...abc", np.conj(bra.reshape(2, 2, 2)), tmp))


@lru_cache(maxsize=None)
def _sign_unfoldings(
    terms: tuple[tuple[tuple[int, int, int], int], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sign array S[i,j,k] of the term with 1-based settings (i+1, j+1, k+1),
    unfolded along each party p: S_p[s, (the other two parties' settings)]."""
    signs = np.zeros((2, 2, 2))
    for settings, sign in terms:
        signs[tuple(s - 1 for s in settings)] += sign
    unfoldings = (
        signs.reshape(2, 4),
        signs.transpose(1, 0, 2).reshape(2, 4),
        signs.reshape(4, 2).T,
    )
    for unfolding in unfoldings:
        unfolding.flags.writeable = False
    return unfoldings


def _tensor_functional_and_gradient(
    t: np.ndarray, angles: np.ndarray, terms: tuple[tuple[tuple[int, int, int], int], ...]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value <T, W>, its gradient in the 12 angles, and the (3, 2, 3) stack
    u[p, s] of Bloch vectors, from which `_measurement_tensor` builds W.
    The value is trilinear, so its derivative along party p's vectors, d_p,
    is T contracted with S and the other two parties' vectors: two or three
    small matmuls each, and the value is <d_1, u[0]>."""
    c, s = np.cos(angles), np.sin(angles)
    cos_p, cos_a, sin_p, sin_a = c[0::2], c[1::2], s[0::2], s[1::2]
    # frames[ps, m] is u[p, s] (m = 0) and its polar (1) and azimuth (2) derivatives
    frames = np.array(
        [
            [sin_p * cos_a, sin_p * sin_a, cos_p],
            [cos_p * cos_a, cos_p * sin_a, -sin_p],
            [-sin_p * sin_a, sin_p * cos_a, 0 * sin_p],
        ]
    ).transpose(2, 0, 1)
    u = frames[:, 0].reshape(3, 2, 3)
    s1, s2, s3 = _sign_unfoldings(terms)
    x = t.reshape(9, 3) @ u[2].T  # x[ab, k]
    d1 = s1 @ (u[1] @ x.reshape(3, 3, 2)).reshape(3, 4).T
    d2 = s2 @ (u[0] @ x.reshape(3, 6)).reshape(2, 3, 2).transpose(0, 2, 1).reshape(4, 3)
    d3 = s3 @ (u[1] @ (u[0] @ t.reshape(3, 9)).reshape(2, 3, 3)).reshape(4, 3)
    gradient = frames[:, 1:] @ np.concatenate([d1, d2, d3])[:, :, None]
    return float(np.vdot(d1, u[0])), gradient.reshape(12), u


def _measurement_tensor(u: np.ndarray, terms) -> np.ndarray:
    """W[a,b,c] = sum_ijk S[i,j,k] u[0,i,a] u[1,j,b] u[2,k,c]."""
    return u[1].T @ ((u[0].T @ _sign_unfoldings(terms)[0]).reshape(3, 2, 2) @ u[2])


def _bloch_max(state: StateVector, terms, config: Optional[OptimizerConfig]) -> float:
    """Multistart gradient maximization of a product functional of the three
    qubits over the 12 Bloch angles."""
    _check_three_qubits(state)
    config = config or OptimizerConfig()
    t = _correlation_tensor(state.amplitudes, state.amplitudes)

    def objective_and_gradient(angles: np.ndarray) -> tuple[float, np.ndarray]:
        return _tensor_functional_and_gradient(t, angles, terms)[:2]

    search = lambda x0: _gradient_max(objective_and_gradient, x0, config)
    return float(multistart(search, np.zeros(12), config)[0][1])


def mermin3_max(
    state: StateVector,
    config: Optional[OptimizerConfig] = None,
) -> float:
    """Multistart maximization of the Mermin value over the 12 Bloch angles."""
    return _bloch_max(state, _MERMIN_TERMS, config)


def _check_qubit_product_form(expression: BellExpression) -> None:
    if expression.scenario != Scenario(3, 2) or expression.family != MULTIPARTITE:
        raise DomainError(
            "general-observable maximization is implemented for the "
            "three-qubit multipartite expression"
        )


def qubit_general_max(
    state: StateVector,
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
) -> float:
    """Maximum of the three-qubit expression over general +-1 observables.

    For d=2 the normalized weight is the parity (-1)**(m+n+l), so each
    correlation is the expectation of a product of dichotomic observables
    and the full Bloch sphere is searchable.  Splitter phases only reach the
    equator, where amplitude pairs must disagree at every party to
    contribute; states without such pairs (e.g. the single-excitation
    family) score 0 there yet can violate the bound with general
    observables, which is what this routine quantifies.
    """
    _check_qubit_product_form(expression)
    return _bloch_max(state, expression.terms, config)


def _family_objective(fam: StateFamily, terms):
    """Value and gradient in (family angles, 12 Bloch angles).  The value is
    <T(psi, psi), W>, linear in the tensor, so angle k moves it by
    2 <T(psi, d psi / d angle_k), W>."""
    n_angles = len(fam.param_names)

    def objective_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        angles, bloch = x[:n_angles], x[n_angles:]
        psi = fam.build(angles).amplitudes
        t = _correlation_tensor(psi, np.vstack([psi, fam.derivatives(angles)]))
        value, bloch_gradient, u = _tensor_functional_and_gradient(t[0], bloch, terms)
        angle_gradient = 2 * (t[1:].reshape(-1, 27) @ _measurement_tensor(u, terms).reshape(27))
        return value, np.concatenate([angle_gradient, bloch_gradient])

    return objective_and_gradient


def qubit_general_family_max(
    family,
    expression: BellExpression,
    config: Optional[OptimizerConfig] = None,
) -> float:
    """Joint maximization over family angles and general qubit observables."""
    _check_qubit_product_form(expression)
    fam = _resolve_family(family)
    if fam.scenario != Scenario(3, 2):
        raise DomainError(f"family {fam.name} is not a three-qubit family")
    config = config or OptimizerConfig()
    objective_and_gradient = _family_objective(fam, expression.terms)
    search = lambda x0: _gradient_max(objective_and_gradient, x0, config)
    n_params = len(fam.param_names) + 12
    return float(multistart(search, np.zeros(n_params), config)[0][1])


def reduce_to_bipartite(expression: BellExpression) -> BellExpression:
    """Two-party functional obtained by clamping party 3's outcome to 0.

    Fixing the third outcome to 0 removes it from every modular sum while
    each term keeps the parity of its full settings product, which is
    exactly the two-party member of the multipartite family (the CGLMP-
    equivalent form); its deterministic-strategy maximum is again 2.  The
    exact form of this reduction, for every N > 2, is the even/odd party
    sum map in polytope.classical_maximum: the N-party value spectrum is
    this member's with every count scaled by d**(2N-4).
    """
    if expression.scenario.parties != 3 or expression.family != MULTIPARTITE:
        raise DomainError("reduction is defined for the three-party multipartite form")
    return bell_expression(2, expression.scenario.outcomes, MULTIPARTITE)
