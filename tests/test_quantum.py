"""Beamsplitter measurements, quantum tables, operators, states, noise."""

import itertools

import numpy as np
import pytest

import bellbench.quantum
from bellbench import (
    DomainError,
    NumericError,
    ProbabilityTable,
    ResourceError,
    Scenario,
    bell_expression,
    bell_value,
)
from bellbench.scenario import BIPARTITE_LEGACY, MULTIPARTITE, weight_numerators
from bellbench.quantum import (
    BellOperator,
    STATE_FAMILIES,
    PhaseConfiguration,
    StateFamily,
    StateVector,
    _expression_hessian,
    _expression_value_and_gradient,
    _orbits,
    beamsplitter_unitary,
    bell_operator,
    ghz_max,
    ghz_qubit,
    ghz_qutrit,
    joint_probabilities,
    max_eigenpair,
    noise_threshold,
    noisy_table,
    quantum_bell_value,
    w_state,
)

PI = np.pi
ROOT8 = 2 * np.sqrt(2)


def difference_hessian(objective_and_gradient, x, step=1e-4):
    """The Hessian by central differences of the gradient: the oracle for the
    exact Hessian, at 2 * x.size gradient calls."""
    shifts = step * np.eye(x.size)
    return np.array([
        objective_and_gradient(x + s)[1] - objective_and_gradient(x - s)[1] for s in shifts
    ]).T / (2 * step)


GHZ3_PHASES = [[0, -PI / 12], [0, PI / 4], [0, -PI / 6], [0, PI / 3], [0, 0], [0, PI / 6]]
GHZ4_PHASES = [
    [0, PI / 24], [0, PI / 12], [0, -PI / 6], [0, PI / 3],
    [0, -PI / 8], [0, PI / 3], [0, 0], [0, 0],
]
GHZ5_PHASES = [
    [0, -PI / 12], [0, PI / 3], [0, -PI / 6], [0, PI / 3],
    [0, 0], [0, PI / 12], [0, 0], [0, 0], [0, 0], [0, 0],
]
QUTRIT_PHASES = [
    [0, -PI / 5, PI / 24], [0, PI / 24, -5 * PI / 12],
    [0, 0, PI / 12], [0, PI / 3, -PI / 4],
    [0, PI / 30, PI / 20], [0, PI / 8, PI / 6],
]


def random_state(scenario, rng):
    amps = rng.normal(size=scenario.dimension) + 1j * rng.normal(size=scenario.dimension)
    return StateVector(scenario, amps / np.linalg.norm(amps))


def random_config(scenario, rng):
    return PhaseConfiguration(
        scenario,
        rng.uniform(-PI, PI, size=(2 * scenario.parties, scenario.outcomes)),
    )


def dense_bell_operator(config, expression):
    """Oracle: sum_t sign_t U_t^dagger diag(w_t / (d - 1)) U_t on the full
    d**N space, U_t the Kronecker product of the term's splitters."""
    sc = expression.scenario
    d = sc.outcomes
    us = config.unitaries()
    matrix = np.zeros((sc.dimension, sc.dimension), dtype=np.complex128)
    for settings, sign in expression.terms:
        u_total = np.ones((1, 1), dtype=np.complex128)
        for j, s in enumerate(settings):
            u_total = np.kron(u_total, us[2 * j + (s - 1)])
        w = weight_numerators(sc.parties, d, expression.family, settings).ravel()
        matrix += sign * (u_total.conj().T * (w / (d - 1))[None, :]) @ u_total
    return matrix


def embed_blocks(operator):
    """The block operator as a dense d**N matrix, each block on its orbit."""
    sc = operator.scenario
    matrix = np.zeros((sc.dimension, sc.dimension), dtype=np.complex128)
    for indices, block in zip(_orbits(sc.parties, sc.outcomes)[1], operator.blocks):
        matrix[np.ix_(indices, indices)] = block
    return matrix


def expectation(operator, state):
    """<psi|B|psi> from the operator's blocks, the state gathered by orbit."""
    sc = operator.scenario
    psi = state.amplitudes[_orbits(sc.parties, sc.outcomes)[1]]
    return float(np.einsum("oa,oab,ob->", psi.conj(), operator.blocks, psi).real)


ORACLE_CASES = [
    (2, 3, MULTIPARTITE), (3, 2, MULTIPARTITE), (3, 3, MULTIPARTITE), (4, 3, MULTIPARTITE),
    (3, 4, MULTIPARTITE), (5, 2, MULTIPARTITE), (2, 5, MULTIPARTITE), (2, 4, BIPARTITE_LEGACY),
]


def with_oracle_cases(pairs):
    """Multipartite (n, d) cases, id "n-d", then the ORACLE_CASES not among them."""
    cases = [pytest.param(n, d, MULTIPARTITE, id=f"{n}-{d}") for n, d in pairs]
    return cases + [c for c in ORACLE_CASES if c[2] != MULTIPARTITE or c[:2] not in pairs]


class TestBeamsplitter:
    def test_qubit_zero_phases(self):
        u = beamsplitter_unitary([0, 0], 2)
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_qutrit_entry(self):
        u = beamsplitter_unitary([0, 0, 0], 3)
        assert abs(u[1, 1] - np.exp(2j * PI / 3) / np.sqrt(3)) < 1e-14

    @pytest.mark.parametrize("d", range(2, 8))
    def test_unitarity(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            u = beamsplitter_unitary(rng.uniform(-PI, PI, d), d)
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            beamsplitter_unitary([0, 0, 0], 2)


class TestStateVector:
    def test_truncated_decimals_renormalized(self):
        amps = np.zeros(8)
        amps[0], amps[7] = 0.70710, 0.70711  # printed to 5 digits
        state = StateVector(Scenario(3, 2), amps)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-10

    def test_far_from_normalized_rejected(self):
        amps = np.zeros(8)
        amps[0] = 0.9
        with pytest.raises(DomainError):
            StateVector(Scenario(3, 2), amps)

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            StateVector(Scenario(3, 2), np.ones(4) / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 0)])
    def test_non_finite_rejected(self, bad):
        # a NaN norm passes the 1e-4 test, since every comparison with NaN is False
        with pytest.raises(DomainError, match="finite"):
            StateVector(Scenario(2, 2), [bad, 0, 0, 0])

    def test_json_round_trip(self):
        state = ghz_qutrit(0.9066, 0.6663)
        again = StateVector.from_json_dict(state.to_json_dict())
        assert np.allclose(state.amplitudes, again.amplitudes)


class TestPhaseConfiguration:
    def test_gauge_shift(self):
        cfg = PhaseConfiguration(Scenario(2, 2), [[0.5, 1.0]] * 4)
        for vec in cfg.vectors:
            assert vec[0] == 0.0
            assert abs(vec[1] - 0.5) < 1e-15

    def test_vector_count(self):
        with pytest.raises(DomainError):
            PhaseConfiguration(Scenario(3, 2), [[0, 0]] * 4)

    def test_json_round_trip(self):
        sc = Scenario(3, 3)
        cfg = PhaseConfiguration(sc, QUTRIT_PHASES)
        again = PhaseConfiguration.from_json_dict(cfg.to_json_dict())
        for a, b in zip(cfg.vectors, again.vectors):
            assert np.allclose(a, b)

    def test_gauge_does_not_change_probabilities(self):
        rng = np.random.default_rng(0)
        sc = Scenario(3, 3)
        state = random_state(sc, rng)
        cfg = random_config(sc, rng)
        shifted_vectors = [v.copy() for v in cfg.vectors]
        shifted_vectors[2] = shifted_vectors[2] + 1.234  # whole-vector shift
        shifted = PhaseConfiguration(sc, shifted_vectors)
        t1 = joint_probabilities(state, cfg)
        t2 = joint_probabilities(state, shifted)
        for settings in sc.settings_tuples():
            assert np.abs(t1.blocks[settings] - t2.blocks[settings]).max() < 1e-12


class TestJointProbabilities:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_ground_state_zero_phases_uniform(self, n, d):
        sc = Scenario(n, d)
        amps = np.zeros(sc.dimension)
        amps[0] = 1.0
        table = joint_probabilities(StateVector(sc, amps), PhaseConfiguration.zeros(sc))
        for settings in sc.settings_tuples():
            assert np.abs(table.blocks[settings] - 1.0 / sc.dimension).max() < 1e-12

    def test_blocks_normalized_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 5))
            sc = Scenario(n, d)
            table = joint_probabilities(random_state(sc, rng), random_config(sc, rng))
            for settings in sc.settings_tuples():
                assert abs(float(table.blocks[settings].sum()) - 1.0) < 1e-10

    def test_scenario_mismatch(self):
        with pytest.raises(DomainError):
            joint_probabilities(ghz_qubit(0.3), PhaseConfiguration.zeros(Scenario(3, 3)))

    def test_party_swap_symmetry(self):
        # swapping parties 1 and 3 everywhere fixes every term of the expression
        rng = np.random.default_rng(2)
        sc = Scenario(3, 2)
        e = bell_expression(3, 2)
        state = random_state(sc, rng)
        cfg = random_config(sc, rng)
        swapped_state = StateVector(sc, np.transpose(state.as_tensor(), (2, 1, 0)).ravel())
        v = cfg.vectors
        swapped_cfg = PhaseConfiguration(sc, [v[4], v[5], v[2], v[3], v[0], v[1]])
        assert abs(
            quantum_bell_value(state, cfg, e)
            - quantum_bell_value(swapped_state, swapped_cfg, e)
        ) < 1e-10


class TestExpressionGradient:
    @pytest.mark.parametrize(
        "n,d,family", with_oracle_cases([(2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3), (2, 4)])
    )
    def test_gradient_matches_central_differences(self, n, d, family):
        sc = Scenario(n, d)
        e = bell_expression(n, d, family)
        rng = np.random.default_rng(10 * n + d)

        def value(vectors):
            return quantum_bell_value(state, PhaseConfiguration(sc, vectors), e)

        h = 1e-6
        for _ in range(3):
            state = random_state(sc, rng)
            vectors = rng.uniform(-PI, PI, size=(2 * n, d))
            got, gradient, _ = _expression_value_and_gradient(state.as_tensor(), vectors, e)
            assert abs(got - value(vectors)) < 1e-12
            assert gradient.shape == (2 * n, d)
            for v in range(2 * n):
                for l in range(d):
                    step = np.zeros((2 * n, d))
                    step[v, l] = h
                    central = (value(vectors + step) - value(vectors - step)) / (2 * h)
                    assert abs(gradient[v, l] - central) < 1e-8

    @pytest.mark.parametrize("n,d,family", with_oracle_cases([(2, 3), (3, 2), (3, 3), (4, 2)]))
    def test_state_gradient_matches_central_differences(self, n, d, family):
        # the third output is B psi: dpsi moves the value by 2 Re <B psi, dpsi>
        sc = Scenario(n, d)
        e = bell_expression(n, d, family)
        rng = np.random.default_rng(100 + 10 * n + d)

        def value(tensor):
            return _expression_value_and_gradient(tensor, vectors, e)[0]

        h = 1e-6
        for _ in range(3):
            tensor = random_state(sc, rng).as_tensor()
            vectors = rng.uniform(-PI, PI, size=(2 * n, d))
            b_psi = _expression_value_and_gradient(tensor, vectors, e)[2]
            assert b_psi.shape == tensor.shape
            dense = dense_bell_operator(PhaseConfiguration(sc, vectors), e)
            assert np.abs(b_psi.ravel() - dense @ tensor.ravel()).max() < 1e-12
            for _ in range(4):
                direction = rng.normal(size=tensor.shape) + 1j * rng.normal(size=tensor.shape)
                central = (value(tensor + h * direction) - value(tensor - h * direction)) / (2 * h)
                assert abs(2 * np.vdot(b_psi, direction).real - central) < 1e-8

    @pytest.mark.parametrize(
        "n,d,family",
        with_oracle_cases([(2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3), (2, 4), (8, 3)]),
    )
    def test_hessian_matches_difference_hessian(self, n, d, family):
        # the exact phase Hessian against central differences of the kernel's
        # own gradient, in every phase (the gauge phases included)
        sc = Scenario(n, d)
        e = bell_expression(n, d, family)
        rng = np.random.default_rng(200 + 10 * n + d)

        def objective_and_gradient(x):
            value, gradient, _ = _expression_value_and_gradient(tensor, x.reshape(2 * n, d), e)
            return value, gradient.ravel()

        for _ in range(2):
            tensor = random_state(sc, rng).as_tensor()
            vectors = rng.uniform(-PI, PI, size=(2 * n, d))
            hessian = _expression_hessian(tensor, vectors, e)
            assert hessian.shape == (2 * n * d, 2 * n * d)
            assert np.abs(hessian - hessian.T).max() < 1e-12
            central = difference_hessian(objective_and_gradient, vectors.ravel())
            assert np.abs(hessian - central).max() < 1e-7


class TestReportedSettings:
    def test_three_qubit_value(self):
        cfg = PhaseConfiguration(Scenario(3, 2), GHZ3_PHASES)
        value = quantum_bell_value(ghz_qubit(PI / 4), cfg, bell_expression(3, 2))
        assert abs(value - ROOT8) < 1e-3
        assert abs(value - ROOT8) < 1e-10  # the settings are in fact exact

    def test_three_qutrit_value(self):
        cfg = PhaseConfiguration(Scenario(3, 3), QUTRIT_PHASES)
        value = quantum_bell_value(ghz_qutrit(0.9066, 0.6663), cfg, bell_expression(3, 3))
        assert abs(value - 2.915) < 2e-3

    def test_four_qubit_value(self):
        cfg = PhaseConfiguration(Scenario(4, 2), GHZ4_PHASES)
        value = quantum_bell_value(ghz_max(4, 2), cfg, bell_expression(4, 2))
        assert abs(value - ROOT8) < 1e-3

    def test_five_qubit_value(self):
        cfg = PhaseConfiguration(Scenario(5, 2), GHZ5_PHASES)
        value = quantum_bell_value(ghz_max(5, 2), cfg, bell_expression(5, 2))
        assert abs(value - ROOT8) < 1e-3


class TestBellOperator:
    def test_hermitian(self):
        rng = np.random.default_rng(3)
        sc = Scenario(3, 2)
        cfg = random_config(sc, rng)
        dense = dense_bell_operator(cfg, bell_expression(3, 2))
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        blocks = bell_operator(cfg, bell_expression(3, 2)).blocks
        assert np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() < 1e-12

    @pytest.mark.parametrize("n,d,family", ORACLE_CASES)
    def test_blocks_match_dense_oracle(self, n, d, family):
        sc = Scenario(n, d)
        e = bell_expression(n, d, family)
        rng = np.random.default_rng(30 * n + d)
        for _ in range(3):
            cfg = random_config(sc, rng)
            op = bell_operator(cfg, e)
            assert op.blocks.shape == (d ** (n - 1), d, d)
            assert np.abs(embed_blocks(op) - dense_bell_operator(cfg, e)).max() < 1e-12

    def test_expectation_matches_table_route(self):
        rng = np.random.default_rng(4)
        sc = Scenario(3, 2)
        e = bell_expression(3, 2)
        cfg = random_config(sc, rng)
        op = bell_operator(cfg, e)
        for _ in range(100):
            state = random_state(sc, rng)
            direct = quantum_bell_value(state, cfg, e)
            assert abs(expectation(op, state) - direct) < 1e-10

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (5, 2)])
    def test_couples_each_basis_state_only_to_its_shifts(self, n, d):
        # entries lie at (x + m(1, ..., 1), x) mod d with m != 0: the diagonal
        # and everything between different orbits {x + m(1, ..., 1)} vanish
        sc = Scenario(n, d)
        rng = np.random.default_rng(20 * n + d)
        digits = np.array(list(itertools.product(range(d), repeat=n)))
        place = d ** np.arange(n - 1, -1, -1)
        columns = np.arange(sc.dimension)
        for _ in range(3):
            matrix = dense_bell_operator(random_config(sc, rng), bell_expression(n, d))
            for m in range(1, d):
                matrix[((digits + m) % d) @ place, columns] = 0
            assert np.abs(matrix).max() < 1e-12

    def test_reported_phases_witness(self):
        cfg = PhaseConfiguration(Scenario(3, 2), GHZ3_PHASES)
        op = bell_operator(cfg, bell_expression(3, 2))
        lam, _ = max_eigenpair(op)
        assert lam >= ROOT8 - 1e-6
        assert abs(expectation(op, ghz_qubit(PI / 4)) - ROOT8) < 1e-10

    def test_qutrit_operator_consistency(self):
        rng = np.random.default_rng(5)
        sc = Scenario(3, 3)
        e = bell_expression(3, 3)
        cfg = random_config(sc, rng)
        op = bell_operator(cfg, e)
        for _ in range(20):
            state = random_state(sc, rng)
            assert abs(expectation(op, state) - quantum_bell_value(state, cfg, e)) < 1e-10


class TestMaxEigenpair:
    def test_scaled_identity(self):
        sc = Scenario(2, 2)
        cfg = PhaseConfiguration.zeros(sc)
        e = bell_expression(2, 2)
        op = BellOperator(sc, 2.5 * np.array([np.eye(2), np.eye(2)], dtype=complex), e, cfg)
        lam, state = max_eigenpair(op)
        assert abs(lam - 2.5) < 1e-12
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_residual_past_the_tolerance_raises(self, monkeypatch):
        # an eigenvalue off by 1e-6 leaves a residual of 1e-6 > EIGENPAIR_TOL * 2.5
        sc = Scenario(2, 2)
        blocks = 2.5 * np.array([np.eye(2), np.eye(2)], dtype=complex)
        op = BellOperator(sc, blocks, bell_expression(2, 2), PhaseConfiguration.zeros(sc))
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (original(a)[0] + 1e-6, original(a)[1]))
        with pytest.raises(NumericError, match=r"residual 1\.000e-06 exceeds 1\.0e-09 \* \|2\.500001\|"):
            max_eigenpair(op)

    def test_rayleigh_bound(self):
        rng = np.random.default_rng(6)
        sc = Scenario(3, 2)
        op = bell_operator(random_config(sc, rng), bell_expression(3, 2))
        lam, vec = max_eigenpair(op)
        dense = dense_bell_operator(op.config, op.expression)
        assert abs(float(np.linalg.norm(dense @ vec.amplitudes - lam * vec.amplitudes))) < 1e-9 * abs(lam) + 1e-30
        for _ in range(100):
            assert lam >= expectation(op, random_state(sc, rng)) - 1e-12

    def test_most_negative_spectrum(self):
        sc = Scenario(2, 2)
        cfg = PhaseConfiguration.zeros(sc)
        e = bell_expression(2, 2)
        blocks = np.array([np.diag([-10.0, 0.5]), np.diag([0.1, -3.0])], dtype=complex)
        lam, _ = max_eigenpair(BellOperator(sc, blocks, e, cfg))
        assert abs(lam - 0.5) < 1e-12

    @pytest.mark.parametrize("n,d,family", ORACLE_CASES)
    def test_matches_dense_oracle(self, n, d, family):
        sc = Scenario(n, d)
        e = bell_expression(n, d, family)
        rng = np.random.default_rng(40 * n + d)
        orbits = _orbits(n, d)[1]
        for _ in range(3):
            cfg = random_config(sc, rng)
            lam, state = max_eigenpair(bell_operator(cfg, e))
            dense = dense_bell_operator(cfg, e)
            assert abs(lam - np.linalg.eigvalsh(dense)[-1]) < 1e-12
            support = set(np.flatnonzero(state.amplitudes))
            assert any(support <= set(orbit) for orbit in orbits)
            residual = np.linalg.norm(dense @ state.amplitudes - lam * state.amplitudes)
            assert residual <= 1e-9 * abs(lam)

    def test_equal_blocks_resolve_to_orbit_zero(self):
        sc = Scenario(3, 3)
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        blocks = np.array([a + a.conj().T] * 9)
        op = BellOperator(sc, blocks, bell_expression(3, 3), PhaseConfiguration.zeros(sc))
        _, state = max_eigenpair(op)
        assert set(np.flatnonzero(state.amplitudes)) <= set(_orbits(3, 3)[1][0])

    @pytest.mark.parametrize("n,d", [(3, 3), (5, 2), (4, 3)])
    def test_solves_no_matrix_larger_than_a_block(self, monkeypatch, n, d):
        shapes = []
        original = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rng = np.random.default_rng(n + d)
        max_eigenpair(bell_operator(random_config(Scenario(n, d), rng), bell_expression(n, d)))
        assert shapes and all(shape == (d, d) for shape in shapes)


class TestStateFactories:
    def test_ghz_qubit(self):
        state = ghz_qubit(PI / 4)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(state.amplitudes, expected)

    def test_ghz_qutrit_balanced(self):
        state = ghz_qutrit(np.arccos(1 / np.sqrt(3)), PI / 4)
        for idx in (0, 13, 26):
            assert abs(state.amplitudes[idx] - 1 / np.sqrt(3)) < 1e-12

    def test_ghz_max(self):
        state = ghz_max(2, 5)
        tensor = state.as_tensor()
        for x in range(5):
            assert abs(tensor[x, x] - 1 / np.sqrt(5)) < 1e-12
        assert abs(np.abs(state.amplitudes).sum() - 5 / np.sqrt(5)) < 1e-12

    def test_w_state_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            beta, xi = rng.uniform(-PI, PI, 2)
            assert abs(np.linalg.norm(w_state(beta, xi).amplitudes) - 1) < 1e-12

    def test_w_state_support(self):
        state = w_state(0.4, 1.1)
        support = {i for i, a in enumerate(state.amplitudes) if abs(a) > 0}
        assert support == {1, 2, 4}

    def test_ghz_max_budget(self):
        with pytest.raises(ResourceError):
            ghz_max(21, 2)


def oracle_ghz_qubit(theta):
    """The hand-indexed factory the family record replaced."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = np.cos(theta)
    amps[7] = np.sin(theta)
    return StateVector(Scenario(3, 2), amps)


def oracle_ghz_qutrit(theta_1, theta_2):
    amps = np.zeros(27, dtype=np.complex128)
    amps[0] = np.sin(theta_1) * np.sin(theta_2)
    amps[13] = np.sin(theta_1) * np.cos(theta_2)
    amps[26] = np.cos(theta_1)
    return StateVector(Scenario(3, 3), amps)


def oracle_w_state(beta, xi):
    amps = np.zeros(8, dtype=np.complex128)
    amps[1] = np.sin(beta) * np.sin(xi)
    amps[2] = np.sin(beta) * np.cos(xi)
    amps[4] = np.cos(beta)
    return StateVector(Scenario(3, 2), amps)


ORACLE_FACTORIES = {
    "ghz_qubit": (ghz_qubit, oracle_ghz_qubit),
    "ghz_qutrit": (ghz_qutrit, oracle_ghz_qutrit),
    "w_state": (w_state, oracle_w_state),
}


def shift_rule(build, angles):
    """Oracle: row k is (psi(a + pi/2 e_k) - psi(a - pi/2 e_k)) / 2, exact
    when every amplitude is a cos + b sin + c in each angle."""
    rows = []
    for shift in np.eye(angles.size) * (PI / 2):
        rows.append((build(*(angles + shift)).amplitudes - build(*(angles - shift)).amplitudes) / 2)
    return np.array(rows)


class TestStateFamily:
    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_factories_match_the_hand_indexed_oracles_bit_for_bit(self, name):
        factory, oracle = ORACLE_FACTORIES[name]
        family = STATE_FAMILIES[name]
        rng = np.random.default_rng(31)
        for angles in rng.uniform(-2 * PI, 2 * PI, (1000, len(family.param_names))):
            expected = oracle(*angles).amplitudes
            assert np.array_equal(factory(*angles).amplitudes, expected)
            assert np.array_equal(family.build(angles).amplitudes, expected)

    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_derivatives_match_the_shift_rule(self, name):
        family = STATE_FAMILIES[name]
        rng = np.random.default_rng(32)
        for angles in rng.uniform(-2 * PI, 2 * PI, (1000, len(family.param_names))):
            expected = shift_rule(ORACLE_FACTORIES[name][1], angles)
            assert np.abs(family.derivatives(angles) - expected).max() < 1e-15

    def test_four_angles_match_central_differences(self):
        # five basis states at (3,3): a depth no named family reaches
        family = StateFamily("five", ("a", "b", "c", "e"), Scenario(3, 3), (26, 3, 13, 0, 17))
        rng = np.random.default_rng(33)
        h = 1e-6
        for _ in range(10):
            angles = rng.uniform(-PI, PI, 4)
            rows = family.derivatives(angles)
            assert rows.shape == (4, 27)
            assert abs(np.linalg.norm(family.build(angles).amplitudes) - 1) < 1e-12
            for k in range(4):
                step = np.zeros(4)
                step[k] = h
                up = family.build(angles + step).amplitudes
                down = family.build(angles - step).amplitudes
                assert np.abs(rows[k] - (up - down) / (2 * h)).max() < 1e-8

    def test_derivatives_build_no_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("derivatives built a state")

        family = STATE_FAMILIES["ghz_qutrit"]
        expected = family.derivatives(np.array([0.3, 0.7]))
        monkeypatch.setattr(StateFamily, "build", forbidden)
        monkeypatch.setattr(bellbench.quantum, "StateVector", forbidden)
        assert np.array_equal(family.derivatives(np.array([0.3, 0.7])), expected)

    @pytest.mark.parametrize("support", [(0,), (0, 7, 1), (7, 7), (0, 8), (-1, 7)])
    def test_support_validated(self, support):
        # one index per coefficient, distinct, each a basis state of (3,2)
        with pytest.raises(DomainError, match="needs 2 distinct basis indices below 8"):
            StateFamily("bad", ("theta",), Scenario(3, 2), support)

    def test_angle_count_validated(self):
        family = STATE_FAMILIES["ghz_qutrit"]
        message = r"family ghz_qutrit needs 2 angles \(theta_1, theta_2\), got 3"
        with pytest.raises(DomainError, match=message):
            family.build([0.1, 0.2, 0.3])
        with pytest.raises(DomainError, match=message):
            family.derivatives(np.array([0.1, 0.2, 0.3]))


class TestNoise:
    def test_threshold_values(self):
        assert abs(noise_threshold(ROOT8) - 0.292893) < 1e-5
        assert noise_threshold(2.0) == 0.0
        assert noise_threshold(4.0) == 0.5

    def test_threshold_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            noise_threshold(0.0)

    @pytest.mark.parametrize("violation", [np.nan, np.inf, -np.inf])
    def test_threshold_rejects_non_finite(self, violation):
        with pytest.raises(DomainError):
            noise_threshold(violation)

    def test_mixed_table_crossing(self):
        # the noisy Bell value crosses the classical bound at the threshold
        cfg = PhaseConfiguration(Scenario(3, 2), GHZ3_PHASES)
        e = bell_expression(3, 2)
        table = joint_probabilities(ghz_qubit(PI / 4), cfg)
        violation = bell_value(e, table)
        f_thr = noise_threshold(violation)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if bell_value(e, noisy_table(table, mid)) > 2.0:
                lo = mid
            else:
                hi = mid
        assert abs(lo - f_thr) < 1e-8

    def test_noisy_fraction_range(self):
        table = ProbabilityTable.uniform(Scenario(2, 2))
        with pytest.raises(DomainError):
            noisy_table(table, 1.5)

