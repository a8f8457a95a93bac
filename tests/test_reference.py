"""Mermin benchmark, general-observable checks, and the two-party reduction."""

import itertools

import numpy as np
import pytest

from bellbench import (
    MULTIPARTITE,
    DomainError,
    ProbabilityTable,
    Scenario,
    bell_expression,
    bell_value,
    weight_multipartite,
)
from bellbench.optimize import STATE_FAMILIES, OptimizerConfig, seesaw
from bellbench.polytope import classical_maximum, enumerate_strategies, strategy_table
from bellbench.quantum import StateVector, ghz_qubit
from bellbench.reference import (
    BlochSettings,
    mermin3_max,
    mermin3_value,
    qubit_general_family_max,
    qubit_general_max,
    reduce_to_bipartite,
)

PI = np.pi
ROOT8 = 2 * np.sqrt(2)


def relevance_state():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 0.169414
    amps[4] = 0.0461131
    amps[5] = 0.161369
    amps[6] = 0.193624
    amps[7] = 0.951652
    return StateVector(Scenario(3, 2), amps)


def projector_table(state, settings):
    """Definitional route: measurement projectors -> probability table."""
    sc = Scenario(3, 2)
    blocks = {}
    for joint in sc.settings_tuples():
        block = np.zeros((2, 2, 2))
        for outs in sc.outcome_tuples():
            op = np.ones((1, 1), dtype=complex)
            for party, (i, m) in enumerate(zip(joint, outs), start=1):
                obs = settings.observable(party, i)
                proj = (np.eye(2) + (-1) ** m * obs) / 2
                op = np.kron(op, proj)
            block[outs] = float(np.vdot(state.amplitudes, op @ state.amplitudes).real)
        blocks[joint] = block
    return ProbabilityTable(sc, blocks)


def einsum_kernel(t, angles, terms):
    """Oracle: value <T, W>, 12-angle gradient and measurement tensor W from
    one 4-operand einsum per party and one for W."""
    s = np.zeros((2, 2, 2))
    for settings, sign in terms:
        s[tuple(k - 1 for k in settings)] += sign
    polar, azimuth = angles.reshape(3, 2, 2).transpose(2, 0, 1)
    sin_p, cos_p, sin_a, cos_a = np.sin(polar), np.cos(polar), np.sin(azimuth), np.cos(azimuth)
    u = np.stack([sin_p * cos_a, sin_p * sin_a, cos_p], axis=-1)
    du = np.stack(
        [cos_p * cos_a, cos_p * sin_a, -sin_p, -sin_p * sin_a, sin_p * cos_a, 0 * sin_p], axis=-1
    ).reshape(3, 2, 2, 3)
    w = np.einsum("ijk,ia,jb,kc->abc", s, u[0], u[1], u[2])
    d_u = np.stack(
        [
            np.einsum("ijk,jb,kc,abc->ia", s, u[1], u[2], t),
            np.einsum("ijk,ia,kc,abc->jb", s, u[0], u[2], t),
            np.einsum("ijk,ia,jb,abc->kc", s, u[0], u[1], t),
        ]
    )
    return float(np.vdot(t, w)), np.einsum("psa,psma->psm", d_u, du).reshape(12), w


class TestBlochSettings:
    def test_from_angles_units(self):
        settings = BlochSettings.from_angles(np.linspace(0, 1, 12))
        for pair in settings.vectors:
            for v in pair:
                assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_angle_count(self):
        with pytest.raises(DomainError):
            BlochSettings.from_angles(np.zeros(10))

    def test_observable_is_involution(self):
        settings = BlochSettings.from_angles(np.arange(12) * 0.37)
        for party in (1, 2, 3):
            for s in (1, 2):
                obs = settings.observable(party, s)
                assert np.abs(obs @ obs - np.eye(2)).max() < 1e-12


class TestMerminValue:
    def test_product_state_z_settings(self):
        state = ghz_qubit(0.0)  # |000>
        settings = BlochSettings.from_angles(np.zeros(12))
        assert abs(mermin3_value(state, settings) - 2.0) < 1e-14

    def test_algebraic_cap(self):
        rng = np.random.default_rng(0)
        state = ghz_qubit(PI / 4)
        for _ in range(200):
            settings = BlochSettings.from_angles(rng.uniform(-PI, PI, 12))
            assert mermin3_value(state, settings) <= 4 + 1e-12

    def test_party_flip_negates_value(self):
        rng = np.random.default_rng(1)
        state = ghz_qubit(0.9)
        for _ in range(20):
            settings = BlochSettings.from_angles(rng.uniform(-PI, PI, 12))
            flipped = settings.flip_party(1)
            assert abs(mermin3_value(state, flipped) + mermin3_value(state, settings)) < 1e-12

    def test_needs_three_qubits(self):
        sc = Scenario(2, 2)
        state = StateVector(sc, [1, 0, 0, 0])
        with pytest.raises(DomainError):
            mermin3_value(state, BlochSettings.from_angles(np.zeros(12)))


class TestMerminMax:
    def test_ghz_reaches_four(self):
        value = mermin3_max(ghz_qubit(PI / 4), OptimizerConfig(starts=16, seed=2))
        assert abs(value - 4.0) < 1e-6

    def test_product_state_classical(self):
        value = mermin3_max(ghz_qubit(0.0), OptimizerConfig(starts=16, seed=2))
        assert abs(value - 2.0) < 1e-8

    def test_relevance_state_no_violation(self):
        value = mermin3_max(relevance_state(), OptimizerConfig(starts=64, seed=2))
        assert value <= 2 + 1e-4

    def test_flip_invariance(self):
        # flipping one party's settings negates every term, and the search
        # space is closed under that flip, so negating every sign of the
        # functional leaves its maximum unchanged
        from bellbench.reference import _MERMIN_TERMS, _bloch_max

        state = ghz_qubit(0.8)
        cfg = OptimizerConfig(starts=12, seed=3)
        negated = tuple((s, -sign) for s, sign in _MERMIN_TERMS)
        assert abs(mermin3_max(state, cfg) - _bloch_max(state, negated, cfg)) < 1e-8


class TestQubitGeneralMax:
    def test_consistent_with_projector_tables(self):
        rng = np.random.default_rng(4)
        e = bell_expression(3, 2)
        state = relevance_state()
        from bellbench.reference import _correlation_tensor, _tensor_functional_and_gradient

        tensor = _correlation_tensor(state.amplitudes, state.amplitudes)
        terms = tuple((s, sign) for s, sign in e.terms)
        for _ in range(10):
            angles = rng.uniform(-PI, PI, 12)
            fast = _tensor_functional_and_gradient(tensor, angles, terms)[0]
            table = projector_table(state, BlochSettings.from_angles(angles))
            assert abs(fast - bell_value(e, table)) < 1e-12

    @pytest.mark.parametrize("which", ["mermin", "multipartite"])
    def test_gradient_matches_central_differences(self, which):
        from bellbench.reference import (
            _MERMIN_TERMS,
            _correlation_tensor,
            _tensor_functional_and_gradient,
        )

        if which == "mermin":
            terms = _MERMIN_TERMS
        else:
            terms = tuple((s, sign) for s, sign in bell_expression(3, 2).terms)
        rng = np.random.default_rng(8)
        amplitudes = relevance_state().amplitudes
        tensor = _correlation_tensor(amplitudes, amplitudes)
        h = 1e-6
        for _ in range(5):
            angles = rng.uniform(-PI, PI, 12)
            gradient = _tensor_functional_and_gradient(tensor, angles, terms)[1]
            for m in range(12):
                step = np.zeros(12)
                step[m] = h
                up = _tensor_functional_and_gradient(tensor, angles + step, terms)[0]
                down = _tensor_functional_and_gradient(tensor, angles - step, terms)[0]
                assert abs(gradient[m] - (up - down) / (2 * h)) < 1e-8

    @pytest.mark.parametrize("name", ["ghz_qubit", "w_state"])
    def test_family_gradient_matches_central_differences(self, name):
        # family angles first, then the 12 Bloch angles
        from bellbench.reference import _family_objective

        family = STATE_FAMILIES[name]
        n_angles = len(family.param_names)
        e = bell_expression(3, 2)
        objective_and_gradient = _family_objective(family, tuple(e.terms))
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-PI, PI, n_angles + 12)
            value, gradient = objective_and_gradient(x)
            table = projector_table(
                family.build(x[:n_angles]), BlochSettings.from_angles(x[n_angles:])
            )
            assert abs(value - bell_value(e, table)) < 1e-12
            assert gradient.shape == x.shape
            for m in range(x.size):
                step = np.zeros(x.size)
                step[m] = h
                up = objective_and_gradient(x + step)[0]
                down = objective_and_gradient(x - step)[0]
                assert abs(gradient[m] - (up - down) / (2 * h)) < 1e-8

    @pytest.mark.parametrize("which", ["mermin", "multipartite"])
    def test_kernel_matches_the_einsum_oracle(self, which):
        from bellbench.reference import (
            _MERMIN_TERMS,
            _correlation_tensor,
            _measurement_tensor,
            _tensor_functional_and_gradient,
        )

        terms = _MERMIN_TERMS if which == "mermin" else bell_expression(3, 2).terms
        rng = np.random.default_rng(13)
        amplitudes = relevance_state().amplitudes
        tensor = _correlation_tensor(amplitudes, amplitudes)
        for _ in range(24):
            angles = rng.uniform(-PI, PI, 12)
            value, gradient, u = _tensor_functional_and_gradient(tensor, angles, terms)
            expected_value, expected_gradient, expected_w = einsum_kernel(tensor, angles, terms)
            assert abs(value - expected_value) < 1e-14
            assert np.abs(gradient - expected_gradient).max() < 1e-14
            assert np.abs(_measurement_tensor(u, terms) - expected_w).max() < 1e-14

    @pytest.mark.parametrize("name", ["ghz_qubit", "w_state"])
    def test_family_objective_matches_the_einsum_oracle(self, name, monkeypatch):
        # W as the family objective builds it, and the angle gradient read from it
        from bellbench import reference

        built = []

        def recorded(u, terms):
            built.append(measurement_tensor(u, terms))
            return built[-1]

        measurement_tensor = reference._measurement_tensor
        monkeypatch.setattr(reference, "_measurement_tensor", recorded)
        family = STATE_FAMILIES[name]
        n_angles = len(family.param_names)
        terms = bell_expression(3, 2).terms
        objective_and_gradient = reference._family_objective(family, terms)
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.uniform(-PI, PI, n_angles + 12)
            value, gradient = objective_and_gradient(x)
            psi = family.build(x[:n_angles]).amplitudes
            kets = np.vstack([psi, family.derivatives(x[:n_angles])])
            tensors = reference._correlation_tensor(psi, kets)
            expected_value, expected_gradient, expected_w = einsum_kernel(
                tensors[0], x[n_angles:], terms
            )
            assert np.abs(built[-1] - expected_w).max() < 1e-14
            assert abs(value - expected_value) < 1e-14
            assert np.abs(gradient[n_angles:] - expected_gradient).max() < 1e-14
            expected_angle_gradient = 2 * np.einsum("nabc,abc->n", tensors[1:], expected_w)
            assert np.abs(gradient[:n_angles] - expected_angle_gradient).max() < 1e-14
        assert len(built) == 20

    def test_correlation_tensor_of_a_ket_stack(self):
        from bellbench.reference import _correlation_tensor

        rng = np.random.default_rng(10)
        bra = rng.normal(size=8) + 1j * rng.normal(size=8)
        kets = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        stacked = _correlation_tensor(bra, kets)
        assert stacked.shape == (5, 3, 3, 3)
        for ket, tensor in zip(kets, stacked):
            assert np.abs(tensor - _correlation_tensor(bra, ket)).max() < 1e-15

    def test_measurement_tensor_gives_mermin_value(self):
        from bellbench.reference import (
            _MERMIN_TERMS,
            _correlation_tensor,
            _measurement_tensor,
            _tensor_functional_and_gradient,
        )

        rng = np.random.default_rng(11)
        state = relevance_state()
        tensor = _correlation_tensor(state.amplitudes, state.amplitudes)
        for _ in range(10):
            angles = rng.uniform(-PI, PI, 12)
            value, _, u = _tensor_functional_and_gradient(tensor, angles, _MERMIN_TERMS)
            w = _measurement_tensor(u, _MERMIN_TERMS)
            expected = mermin3_value(state, BlochSettings.from_angles(angles))
            assert abs(np.sum(tensor * w) - expected) < 1e-12
            assert abs(value - expected) < 1e-12

    @pytest.mark.parametrize("name", ["ghz_qubit", "w_state"])
    def test_family_objective_makes_one_kernel_call(self, name, monkeypatch):
        from bellbench import reference

        calls = {"tensor": 0, "kernel": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            reference, "_correlation_tensor", counted("tensor", reference._correlation_tensor)
        )
        monkeypatch.setattr(
            reference,
            "_tensor_functional_and_gradient",
            counted("kernel", reference._tensor_functional_and_gradient),
        )
        family = STATE_FAMILIES[name]
        objective_and_gradient = reference._family_objective(family, bell_expression(3, 2).terms)
        rng = np.random.default_rng(12)
        for evaluations in range(1, 4):
            objective_and_gradient(rng.uniform(-PI, PI, len(family.param_names) + 12))
            assert calls == {"tensor": evaluations, "kernel": evaluations}

    def test_ghz_value(self):
        value = qubit_general_max(
            ghz_qubit(PI / 4), bell_expression(3, 2), OptimizerConfig(starts=16, seed=5)
        )
        assert abs(value - ROOT8) < 1e-6

    def test_relevance_state_violates(self):
        value = qubit_general_max(
            relevance_state(), bell_expression(3, 2), OptimizerConfig(starts=64, seed=5)
        )
        assert value >= 2.0028

    def test_w_family_reaches_chsh_maximum(self):
        value = qubit_general_family_max(
            "w_state", bell_expression(3, 2), OptimizerConfig(starts=48, seed=6)
        )
        assert abs(value - ROOT8) < 1e-2

    def test_rejects_qutrits(self):
        with pytest.raises(DomainError):
            qubit_general_max(relevance_state(), bell_expression(3, 3))


class TestReduction:
    def test_reduces_to_two_party_form(self):
        reduced = reduce_to_bipartite(bell_expression(3, 4))
        assert reduced.scenario == Scenario(2, 4)
        assert reduced.family == MULTIPARTITE
        assert reduced.terms == (
            ((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), -1)
        )

    @pytest.mark.parametrize("d", range(2, 6))
    def test_weight_identity_under_clamping(self, d):
        # clamping party 3 to outcome 0 in each three-party term reproduces
        # the two-party weights term by term
        sc3, sc2 = Scenario(3, d), Scenario(2, d)
        e3 = bell_expression(3, d)
        e2 = reduce_to_bipartite(e3)
        mapping = dict(zip([s for s, _ in e3.terms], [s for s, _ in e2.terms]))
        for (s3, sign3), (s2, sign2) in zip(e3.terms, e2.terms):
            assert sign3 == sign2
            for m, n in itertools.product(range(d), repeat=2):
                assert weight_multipartite(s3, (m, n, 0), sc3) == weight_multipartite(
                    s2, (m, n), sc2
                )

    @pytest.mark.parametrize("d", range(2, 7))
    def test_classical_maximum_two(self, d):
        reduced = reduce_to_bipartite(bell_expression(3, d))
        assert classical_maximum(reduced).max_value == 2

    def test_value_lattice(self):
        reduced = reduce_to_bipartite(bell_expression(3, 4))
        for s in enumerate_strategies(reduced.scenario):
            value = bell_value(reduced, strategy_table(s))
            assert (3 * value).denominator == 1  # d - 1 = 3

    def test_quantum_optima(self):
        d2 = seesaw(reduce_to_bipartite(bell_expression(3, 2)), OptimizerConfig(starts=4, seed=1))
        assert abs(d2.best_value - ROOT8) < 1e-4
        d3 = seesaw(reduce_to_bipartite(bell_expression(3, 3)), OptimizerConfig(starts=4, seed=1))
        assert abs(d3.best_value - 2.9149) < 1e-3

    def test_rejects_other_shapes(self):
        with pytest.raises(DomainError):
            reduce_to_bipartite(bell_expression(4, 2))
        with pytest.raises(DomainError):
            reduce_to_bipartite(bell_expression(2, 2))
