"""Multistart phase search, see-saw, families, sweeps, determinism."""

import collections
from dataclasses import replace

import numpy as np
import pytest

import bellbench.quantum
import bellbench.scenario
from bellbench import DomainError, Scenario, bell_expression, optimize
from bellbench.optimize import (
    STATE_FAMILIES,
    OptimizerConfig,
    StateFamily,
    optimize_phases,
    optimize_state_family,
    seesaw,
    sweep,
    wrap_angle,
)
from bellbench.quantum import (
    PhaseConfiguration,
    bell_operator,
    ghz_max,
    ghz_qubit,
    ghz_qutrit,
    max_eigenpair,
    quantum_bell_value,
    w_state,
)
from bellbench.reference import mermin3_max, qubit_general_family_max, qubit_general_max

PI = np.pi
ROOT8 = 2 * np.sqrt(2)


def difference_hessian(objective_and_gradient, x, step=1e-4):
    """The Hessian by central differences of the gradient: the oracle for the
    searches' exact probes, at 2 * x.size gradient calls."""
    shifts = step * np.eye(x.size)
    return np.array([
        objective_and_gradient(x + s)[1] - objective_and_gradient(x - s)[1] for s in shifts
    ]).T / (2 * step)


def family_closures(family, expression, phases="free"):
    """The (value and gradient, probe) pair that optimize_state_family hands
    its local search; the search itself is skipped."""
    handed = []

    def local_search(objective_and_gradient, hessian, x0, config):
        handed.append((objective_and_gradient, hessian))
        return x0, 0.0, True, 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_escaping_gradient_max", local_search)
        optimize_state_family(family, expression, OptimizerConfig(starts=1), phases=phases)
    return handed[0]


class TestWrapAngle:
    def test_range(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-40, 40, 500)
        w = wrap_angle(x)
        assert np.all(w > -PI) and np.all(w <= PI)
        assert np.allclose(np.cos(w), np.cos(x))
        assert np.allclose(np.sin(w), np.sin(x))

    def test_boundary(self):
        assert wrap_angle(PI) == PI
        assert wrap_angle(-PI) == PI
        assert wrap_angle(0.0) == 0.0


class TestOptimizePhases:
    def test_ghz_reaches_maximum(self):
        result = optimize_phases(
            ghz_qubit(PI / 4), bell_expression(3, 2), OptimizerConfig(starts=8, seed=1)
        )
        assert result.best_value >= ROOT8 - 1e-4
        assert result.converged

    def test_result_invariant(self):
        e = bell_expression(3, 2)
        result = optimize_phases(ghz_qubit(0.6), e, OptimizerConfig(starts=4, seed=2))
        re_evaluated = quantum_bell_value(ghz_qubit(0.6), result.best_phases, e)
        assert abs(result.best_value - re_evaluated) < 1e-9

    def test_non_violation_at_pi_over_8(self):
        result = optimize_phases(
            ghz_qubit(PI / 8), bell_expression(3, 2), OptimizerConfig(starts=32, seed=3)
        )
        assert result.best_value <= 2 + 1e-3

    def test_deterministic(self):
        e = bell_expression(3, 2)
        cfg = OptimizerConfig(starts=6, seed=11)
        a = optimize_phases(ghz_qubit(0.5), e, cfg)
        b = optimize_phases(ghz_qubit(0.5), e, cfg)
        assert a.best_value == b.best_value
        assert a.start_values == b.start_values
        for va, vb in zip(a.best_phases.vectors, b.best_phases.vectors):
            assert va.tobytes() == vb.tobytes()

    def test_threads_do_not_change_result(self):
        e = bell_expression(3, 2)
        cfg = OptimizerConfig(starts=6, seed=11)
        a = optimize_phases(ghz_qubit(0.5), e, cfg, threads=1)
        b = optimize_phases(ghz_qubit(0.5), e, cfg, threads=4)
        assert a.best_value == b.best_value
        assert a.start_values == b.start_values

    def test_more_starts_never_worse(self):
        e = bell_expression(3, 2)
        small = optimize_phases(ghz_qubit(0.4), e, OptimizerConfig(starts=4, seed=5))
        large = optimize_phases(ghz_qubit(0.4), e, OptimizerConfig(starts=8, seed=5))
        assert large.best_value >= small.best_value
        assert large.start_values[:4] == small.start_values

    def test_algebraic_cap(self):
        e = bell_expression(3, 2)
        result = optimize_phases(ghz_qubit(PI / 4), e, OptimizerConfig(starts=8, seed=7))
        assert result.best_value <= 4.0

    def test_rayleigh_consistency(self):
        e = bell_expression(3, 2)
        result = optimize_phases(ghz_qubit(PI / 4), e, OptimizerConfig(starts=4, seed=9))
        lam, _ = max_eigenpair(bell_operator(result.best_phases, e))
        assert result.best_value <= lam + 1e-9

    def test_scenario_mismatch(self):
        with pytest.raises(DomainError):
            optimize_phases(ghz_qubit(0.5), bell_expression(3, 3))


    def test_max_iterations_bounds_every_start(self, monkeypatch):
        # minimize counts max_iterations calls inside its line search too,
        # and a capped start returns the best point it read
        runs = []
        original = optimize.multistart

        def spy(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optimize, "multistart", spy)
        state, e = ghz_max(4, 2), bell_expression(4, 2)
        config = OptimizerConfig(starts=3, seed=2, max_iterations=3)
        result = optimize_phases(state, e, config)
        [(_, per_start)] = runs
        assert all(r[3] <= 3 for r in per_start)
        assert result.evaluations == sum(r[3] for r in per_start)
        capped = [r for r in per_start if not r[2]]
        assert capped
        for x, value, *_ in capped:
            phases = optimize._config_from_params(x, e.scenario)
            assert abs(quantum_bell_value(state, phases, e) - value) < 1e-12
        rescored = quantum_bell_value(state, result.best_phases, e)
        assert abs(rescored - result.best_value) < 1e-12

    def test_converged_starts_counts_every_start(self, monkeypatch):
        # start 0 (all phases zero) steps off its saddle and converges in 16
        # calls, and start 6 of seed 323 stops at the 17-call cap 0.7 below
        # the best value, so the per-start flags are mixed
        runs = []
        original = optimize.multistart

        def spy(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optimize, "multistart", spy)
        config = OptimizerConfig(starts=8, seed=323, max_iterations=17)
        result = optimize_phases(ghz_qubit(0.6), bell_expression(3, 2), config)
        [(best, per_start)] = runs
        flags = [r[2] for r in per_start]
        assert flags[0] and not flags[6]
        assert result.start_values[6][1] < result.best_value - 0.5
        assert result.converged == best[2]
        assert result.converged_starts == sum(flags)
        data = result.to_json_dict()
        assert data["converged_starts"] == sum(flags)
        assert "trajectories" not in data


class TestSeesaw:
    def test_trajectories_in_json(self):
        result = seesaw(bell_expression(3, 2), OptimizerConfig(starts=2, seed=1))
        data = result.to_json_dict()
        assert data["trajectories"] == [list(t) for t in result.trajectories]
        assert data["converged_starts"] == result.converged_starts
        assert result.converged_starts >= result.converged

    def test_three_qubits(self):
        result = seesaw(bell_expression(3, 2), OptimizerConfig(starts=4, seed=1))
        assert abs(result.best_value - ROOT8) < 1e-4

    def test_three_qutrits(self):
        result = seesaw(bell_expression(3, 3), OptimizerConfig(starts=4, seed=1))
        assert abs(result.best_value - 2.915) < 2e-3

    def test_escapes_zero_phase_saddle(self):
        # at zero phases the gradient vanishes on the 4-fold degenerate top
        # eigenvector; only the curvature step leaves the value 2
        result = seesaw(bell_expression(4, 2), OptimizerConfig(starts=1, seed=1))
        trajectory = result.trajectories[0]
        assert abs(trajectory[0] - 2) < 1e-9
        assert abs(result.best_value - ROOT8) < 1e-6

    def test_monotone_trajectories(self):
        result = seesaw(bell_expression(3, 2), OptimizerConfig(starts=3, seed=2))
        for trajectory in result.trajectories:
            diffs = np.diff(np.asarray(trajectory))
            assert diffs.min() > -1e-12

    def test_state_matches_value(self):
        e = bell_expression(3, 2)
        result = seesaw(e, OptimizerConfig(starts=2, seed=3))
        value = quantum_bell_value(result.best_state, result.best_phases, e)
        assert abs(value - result.best_value) < 1e-9

    def test_deterministic(self):
        e = bell_expression(2, 3)
        cfg = OptimizerConfig(starts=3, seed=4)
        assert seesaw(e, cfg).best_value == seesaw(e, cfg).best_value


class TestCurvatureProbe:
    def test_phase_probe_makes_no_kernel_calls(self, monkeypatch):
        calls = []
        kernel = optimize._expression_value_and_gradient

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(optimize, "_expression_value_and_gradient", counting)
        objective_and_gradient, hessian = optimize._phase_objective(
            ghz_max(4, 2).as_tensor(), bell_expression(4, 2)
        )
        x = np.random.default_rng(5).uniform(-PI, PI, 8)
        exact = hessian(x)
        assert calls == []
        central = difference_hessian(objective_and_gradient, x)
        assert len(calls) == 2 * x.size
        assert np.abs(exact - central).max() < 1e-7

    def test_evaluations_at_the_zero_phase_saddle(self, monkeypatch):
        # one start of the (4,2) see-saw stops at the zero-phase saddle, probes
        # and steps off; evaluations = minimize calls + 1 per probe + 2 per
        # step attempt, and the steps are the only kernel calls outside
        # minimize
        nfev, probes, kernel_calls = [], [], [0]
        originals = {
            name: getattr(optimize, name)
            for name in ("minimize", "_expression_hessian", "_expression_value_and_gradient")
        }

        def minimize(*args, **kwargs):
            result = originals["minimize"](*args, **kwargs)
            nfev.append(result.nfev)
            return result

        def hessian(*args):
            before = kernel_calls[0]
            probes.append(originals["_expression_hessian"](*args))
            assert kernel_calls[0] == before
            return probes[-1]

        def kernel(*args):
            kernel_calls[0] += 1
            return originals["_expression_value_and_gradient"](*args)

        monkeypatch.setattr(optimize, "minimize", minimize)
        monkeypatch.setattr(optimize, "_expression_hessian", hessian)
        monkeypatch.setattr(optimize, "_expression_value_and_gradient", kernel)
        result = seesaw(bell_expression(4, 2), OptimizerConfig(starts=1, seed=1))
        steps, odd = divmod(kernel_calls[0] - sum(nfev), 2)
        assert odd == 0 and len(probes) >= steps >= 1
        assert result.evaluations == sum(nfev) + len(probes) + 2 * steps
        assert abs(result.best_value - ROOT8) < 1e-6


class TestFamilyProbe:
    @pytest.mark.parametrize("name", ["ghz_qutrit", "w_state"])
    def test_phase_block_matches_difference_hessian(self, name):
        family = STATE_FAMILIES[name]
        sc = family.scenario
        objective_and_gradient, probe = family_closures(
            family, bell_expression(sc.parties, sc.outcomes)
        )
        k = len(family.param_names)
        rng = np.random.default_rng(21)
        for _ in range(3):
            x = rng.uniform(-PI, PI, k + 2 * sc.parties * (sc.outcomes - 1))
            exact, central = probe(x), difference_hessian(objective_and_gradient, x)
            assert np.abs(exact[k:, k:] - central[k:, k:]).max() < 1e-7
            assert not exact[:k, k:].any() and not exact[k:, :k].any()

    @pytest.mark.parametrize("free", [True, False])
    def test_angle_block_is_exact_at_stationary_angles(self, free):
        # at fixed phases the value is c^T M c on the support, M = Re B there,
        # so each eigenvector of M spells stationary angles: the top one a
        # maximum, where the angle block has no upward curvature, and the
        # others points the probe must see a way up from
        family, e = STATE_FAMILIES["ghz_qutrit"], bell_expression(3, 3)
        rng = np.random.default_rng(8)
        vectors = np.zeros((6, 3))
        vectors[:, 1:] = rng.uniform(-PI, PI, (6, 2))
        phases = PhaseConfiguration(e.scenario, vectors)
        objective_and_gradient, probe = family_closures(family, e, "free" if free else phases)
        support = list(family.support)
        basis = np.eye(e.scenario.dimension)[support].reshape(3, 3, 3, 3)
        kernel = bellbench.quantum._expression_value_and_gradient
        m = np.array([kernel(b, vectors, e)[2].ravel()[support] for b in basis]).real
        values, eigenvectors = np.linalg.eigh(m)
        for value, c in zip(values, eigenvectors.T):
            angles = np.array([np.arccos(c[0]), np.arctan2(c[2], c[1])])
            x = np.concatenate([angles, vectors[:, 1:].ravel()]) if free else angles
            at_x, gradient = objective_and_gradient(x)
            assert abs(at_x - value) < 1e-12 and np.abs(gradient[:2]).max() < 1e-12
            exact, central = probe(x)[:2, :2], difference_hessian(objective_and_gradient, x)
            assert np.abs(exact - central[:2, :2]).max() < 1e-7
            top = np.linalg.eigvalsh(exact)[-1]
            assert top < 1e-9 if value == values[-1] else top > 1e-3

    def test_probe_calls_and_evaluations(self, monkeypatch):
        # one ghz_qutrit start with free phases: each probe reads the phase
        # Hessian once and the kernel at the state and at the 2 angle
        # derivatives, and calls nothing in minimize; evaluations = minimize
        # calls + 1 per probe + 2 per step attempt
        nfev, probes, counts = [], [], collections.Counter()
        minimize = optimize.minimize
        hessian = optimize._expression_hessian
        kernel = optimize._expression_value_and_gradient
        search = optimize._escaping_gradient_max

        def counting_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        def counting(name, function):
            def counted(*args):
                counts[name] += 1
                return function(*args)

            return counted

        def watched_search(objective_and_gradient, probe, x0, config):
            def watched(x):
                before = counts.copy()
                matrix = probe(x)
                probes.append(tuple((counts - before)[k] for k in ("kernel", "hessian")))
                return matrix

            return search(objective_and_gradient, watched, x0, config)

        monkeypatch.setattr(optimize, "minimize", counting_minimize)
        monkeypatch.setattr(optimize, "_expression_hessian", counting("hessian", hessian))
        monkeypatch.setattr(
            optimize, "_expression_value_and_gradient", counting("kernel", kernel)
        )
        monkeypatch.setattr(optimize, "_escaping_gradient_max", watched_search)
        result = optimize_state_family(
            "ghz_qutrit", bell_expression(3, 3), OptimizerConfig(starts=1, seed=1)
        )
        assert probes and set(probes) == {(3, 1)}
        steps, odd = divmod(counts["kernel"] - sum(nfev) - 3 * len(probes), 2)
        assert odd == 0 and len(probes) >= steps >= 1
        assert result.evaluations == sum(nfev) + len(probes) + 2 * steps

    def test_fixed_phases_step_off_a_minimum_start(self):
        # the Bell operator has no diagonal, so start 0's theta = pi/4 is
        # stationary; at these phases it is the minimum -2 sqrt 2, and only
        # the probe's angle block sees the way up
        e = bell_expression(3, 2)
        phases = PhaseConfiguration(
            e.scenario,
            [[0, 11 * PI / 12], [0, 5 * PI / 4], [0, -PI / 6], [0, PI / 3], [0, 0], [0, PI / 6]],
        )
        assert abs(quantum_bell_value(ghz_qubit(PI / 4), phases, e) + ROOT8) < 1e-12
        result = optimize_state_family("ghz_qubit", e, OptimizerConfig(starts=1), phases=phases)
        assert abs(result.best_value - ROOT8) < 1e-9


class TestStateFamilies:
    def test_ghz_qubit_family(self):
        result = optimize_state_family(
            "ghz_qubit", bell_expression(3, 2), OptimizerConfig(starts=8, seed=1)
        )
        assert abs(result.best_value - ROOT8) < 1e-3
        assert set(result.family_angles) == {"theta"}

    def test_ghz_qutrit_family_beats_balanced_state(self):
        e = bell_expression(3, 3)
        free = optimize_state_family(
            "ghz_qutrit", e, OptimizerConfig(starts=12, seed=2)
        )
        balanced = optimize_phases(
            ghz_qutrit(np.arccos(1 / np.sqrt(3)), PI / 4),
            e,
            OptimizerConfig(starts=12, seed=2),
        )
        assert abs(free.best_value - 2.915) < 2e-3
        assert abs(balanced.best_value - 2.873) < 2e-3
        assert balanced.best_value < free.best_value

    def test_w_family_is_blind_to_splitter_phases(self):
        # single-excitation states have no all-party amplitude complements,
        # so every correlation vanishes for every splitter setting
        result = optimize_state_family(
            "w_state", bell_expression(3, 2), OptimizerConfig(starts=8, seed=3)
        )
        assert abs(result.best_value) < 1e-9

    def test_fixed_phases_reduces_to_angle_search(self):
        e = bell_expression(3, 2)
        fixed = PhaseConfiguration(
            e.scenario,
            [[0, -PI / 12], [0, PI / 4], [0, -PI / 6], [0, PI / 3], [0, 0], [0, PI / 6]],
        )
        result = optimize_state_family(
            "ghz_qubit", e, OptimizerConfig(starts=6, seed=4), phases=fixed
        )
        assert abs(result.best_value - ROOT8) < 1e-6
        assert result.best_phases is fixed

    def test_family_without_angles(self):
        # nothing to search: every start is the one evaluation at the fixed point
        e = bell_expression(3, 2)
        family = StateFamily("ground", (), e.scenario, (0,))
        phases = PhaseConfiguration.zeros(e.scenario)
        result = optimize_state_family(family, e, OptimizerConfig(starts=2, seed=1), phases=phases)
        assert result.best_value == quantum_bell_value(family.build(()), phases, e)
        assert result.converged and result.evaluations == 2
        assert result.family_angles == {}

    @pytest.mark.parametrize("name", sorted(STATE_FAMILIES))
    def test_derivatives_match_central_differences(self, name):
        family = STATE_FAMILIES[name]
        n_angles = len(family.param_names)
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(5):
            angles = rng.uniform(-PI, PI, n_angles)
            rows = family.derivatives(angles)
            assert rows.shape == (n_angles, family.scenario.dimension)
            for k in range(n_angles):
                step = np.zeros(n_angles)
                step[k] = h
                up = family.build(angles + step).amplitudes
                down = family.build(angles - step).amplitudes
                assert np.abs(rows[k] - (up - down) / (2 * h)).max() < 1e-8

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            optimize_state_family("bogus", bell_expression(3, 2))
        for phases in (None, "fixed"):
            with pytest.raises(DomainError, match="phases must be"):
                optimize_state_family("ghz_qubit", bell_expression(3, 2), phases=phases)

    def test_family_scenario_mismatch(self):
        with pytest.raises(DomainError):
            optimize_state_family("ghz_qutrit", bell_expression(3, 2))
        qutrit_phases = PhaseConfiguration.zeros(bell_expression(3, 3).scenario)
        with pytest.raises(DomainError, match="fixed phases"):
            optimize_state_family("ghz_qubit", bell_expression(3, 2), phases=qutrit_phases)


class TestSweep:
    def test_violation_window(self):
        e = bell_expression(3, 2)
        rows = sweep(
            "ghz_qubit",
            [(PI / 16,), (PI / 8,), (PI / 6,), (PI / 4,)],
            e,
            OptimizerConfig(starts=32, seed=5),
        )
        values = [r.best_value for r in rows]
        assert values[0] <= 2 + 1e-3
        assert values[1] <= 2 + 1e-3
        assert values[2] > 2.01
        assert abs(values[3] - ROOT8) < 1e-3

    def test_single_point_equals_optimize_phases(self):
        e = bell_expression(3, 2)
        config = OptimizerConfig(starts=4, seed=6)
        rows = sweep("ghz_qubit", [(0.6,)], e, config)
        direct = optimize_phases(ghz_qubit(0.6), e, config)
        assert rows[0].best_value == direct.best_value

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep("ghz_qubit", [], bell_expression(3, 2))

    def test_wrong_arity_rejected(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a search ran before the grid was checked")

        monkeypatch.setattr(optimize, "optimize_phases", forbidden)
        with pytest.raises(DomainError, match="needs 2 angles"):
            sweep("ghz_qutrit", [(0.5, 0.5), (0.5,)], bell_expression(3, 3))


class TestOptimizerConfig:
    @pytest.mark.parametrize("field,value", [("tol", np.nan), ("tol", np.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            OptimizerConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(starts=0)
        with pytest.raises(DomainError, match="seed"):
            OptimizerConfig(seed=-1)
        with pytest.raises(DomainError):
            OptimizerConfig(tol=-1.0)


E32 = bell_expression(3, 2)

# every multistart search as config -> result, with a small config
SEARCHES = [
    pytest.param(lambda c: seesaw(E32, c), OptimizerConfig(seed=3), id="seesaw"),
    pytest.param(
        lambda c: optimize_state_family("ghz_qubit", E32, c),
        OptimizerConfig(seed=4),
        id="optimize_state_family",
    ),
    pytest.param(
        lambda c: mermin3_max(ghz_qubit(0.6), c), OptimizerConfig(seed=5), id="mermin3_max"
    ),
    pytest.param(
        lambda c: qubit_general_max(w_state(0.9, 0.8), E32, c),
        OptimizerConfig(seed=6),
        id="qubit_general_max",
    ),
    pytest.param(
        lambda c: qubit_general_family_max("w_state", E32, c),
        OptimizerConfig(seed=7, max_iterations=600),
        id="qubit_general_family_max",
    ),
]


class TestMultistartContract:
    @pytest.mark.parametrize("search,config", SEARCHES)
    def test_threads_and_start_prefix(self, search, config):
        # a repeated call gives the same result, and fewer starts a prefix
        first = search(replace(config, starts=4))
        again = search(replace(config, starts=4))
        fewer = search(replace(config, starts=2))
        if isinstance(first, float):
            assert first == again
            assert fewer <= first
        else:
            assert first.to_json_dict() == again.to_json_dict()
            assert first.start_values[:2] == fewer.start_values

    def test_ties_go_to_the_lowest_start(self):
        # every start reaches the same value, so start 0 must win
        best, per_start = optimize.multistart(
            lambda x: (x, 1.0, True, 1, "extra"), np.zeros(2), OptimizerConfig(starts=3, seed=1)
        )
        assert best is per_start[0]
        assert np.array_equal(best[0], np.zeros(2)) and best[4] == "extra"


class TestOneSplitterRoute:
    @pytest.mark.parametrize(
        "family",
        [STATE_FAMILIES["ghz_qutrit"], StateFamily("ghz4", ("theta",), Scenario(4, 2), (0, 15))],
        ids=["3-3", "4-2"],
    )
    def test_searches_never_reach_the_tensor_route(self, monkeypatch, family):
        # the probability-table route (weights times splitter passes) is the
        # oracle and the violate path; every search runs on the orbit kernel
        def forbidden(*args, **kwargs):
            raise AssertionError("a search reached the tensor route")

        monkeypatch.setattr(bellbench.scenario, "weight_numerators", forbidden)
        monkeypatch.setattr(bellbench.quantum, "_apply_party_unitaries", forbidden)
        sc = family.scenario
        e = bell_expression(sc.parties, sc.outcomes)
        config = OptimizerConfig(starts=2, seed=1)
        state = family.build(np.full(len(family.param_names), PI / 5))
        for result in (
            optimize_phases(state, e, config),
            seesaw(e, config),
            optimize_state_family(family, e, config),
        ):
            assert result.best_value > 2


def rosenbrock(x):
    """The Rosenbrock function of x.size variables and its gradient; its
    minimum 0 is at the ones vector."""
    inner = x[1:] - x[:-1] ** 2
    gradient = np.zeros_like(x)
    gradient[:-1] = -400 * x[:-1] * inner - 2 * (1 - x[:-1])
    gradient[1:] += 200 * inner
    return float(np.sum(100 * inner**2 + (1 - x[:-1]) ** 2)), gradient


class TestMinimize:
    def test_quadratic_reaches_its_minimizer(self):
        centre, scales = np.array([1.0, -2.0, 0.5]), np.array([1.0, 10.0, 100.0])

        def quadratic(x):
            shifted = x - centre
            return float(shifted @ (scales * shifted)), 2 * scales * shifted

        result = optimize.minimize(quadratic, np.zeros(3), 1e-15, 1000)
        assert result.success
        assert np.abs(result.x - centre).max() < 1e-10

    @pytest.mark.parametrize("x0", [np.array([-1.2, 1.0]), np.zeros(12)], ids=["2-D", "12-D"])
    def test_rosenbrock_converges_to_the_ones_vector(self, x0):
        result = optimize.minimize(rosenbrock, x0, 1e-12, 1000)
        assert result.success and result.nfev < 1000
        assert np.abs(result.x - 1).max() < 1e-6

    def test_budget_returns_the_best_point_read(self):
        reads = []

        def recorded(x):
            reads.append((rosenbrock(x)[0], x.copy()))
            return rosenbrock(x)

        # at 7 calls the best point read is a line-search trial, not the
        # last accepted iterate
        result = optimize.minimize(recorded, np.zeros(2), 1e-12, 7)
        assert (result.nfev, result.success, len(reads)) == (7, False, 7)
        value, x = min(reads, key=lambda r: r[0])
        assert result.fun == value and np.array_equal(result.x, x)

    def test_stationary_start_converges_at_once(self):
        result = optimize.minimize(rosenbrock, np.ones(4), 1e-9, 100)
        assert (result.fun, result.success, result.nfev) == (0.0, True, 1)
        assert np.array_equal(result.x, np.ones(4))
        assert optimize.minimize(lambda x: (2.0, x), np.zeros(0), 1e-9, 100).nfev == 1

    def test_relative_decrease_stops_a_flat_objective(self):
        # on a 1e12 offset the first step lowers the value by about 1e-10 of
        # itself, so the search stops there with |g| far above tol
        def offset_quadratic(x):
            value = 1e12 + (x[0] - 1) ** 2 + 100 * (x[1] - 1) ** 2
            return value, np.array([2 * (x[0] - 1), 200 * (x[1] - 1)])

        result = optimize.minimize(offset_quadratic, np.zeros(2), 1e-9, 100)
        assert result.success and result.nfev == 2
        assert np.abs(offset_quadratic(result.x)[1]).max() > 1


class TestTracedNames:
    """perfbench times these module attributes by name, so the searches must
    look them up at call time."""

    @pytest.mark.parametrize(
        "search,reached",
        [
            (lambda c: optimize_phases(ghz_qubit(0.5), E32, c), {"minimize"}),
            (lambda c: seesaw(E32, c), {"minimize", "bell_operator", "max_eigenpair"}),
            (lambda c: optimize_state_family("ghz_qubit", E32, c), {"minimize"}),
            (lambda c: mermin3_max(ghz_qubit(0.5), c), {"minimize"}),
            (lambda c: qubit_general_max(ghz_qubit(0.5), E32, c), {"minimize"}),
            (lambda c: qubit_general_family_max("w_state", E32, c), {"minimize"}),
        ],
        ids=[
            "optimize_phases",
            "seesaw",
            "optimize_state_family",
            "mermin3_max",
            "qubit_general_max",
            "qubit_general_family_max",
        ],
    )
    def test_searches_call_through_module_names(self, monkeypatch, search, reached):
        calls = collections.Counter()
        for name in ("minimize", "bell_operator", "max_eigenpair"):
            original = getattr(optimize, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimize, name, counting)
        search(OptimizerConfig(starts=2, seed=1))
        assert reached <= set(calls)

    def test_capped_searches_return_through_the_module_name(self, monkeypatch):
        # perfbench's tracer records a local search when minimize returns,
        # and a search stopped at max_iterations returns too
        returned = []
        original = optimize.minimize

        def wrapper(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(optimize, "minimize", wrapper)
        config = OptimizerConfig(starts=3, seed=2, max_iterations=3)
        result = optimize_phases(ghz_max(4, 2), bell_expression(4, 2), config)
        assert len(returned) == 3 and not all(r.success for r in returned)
        assert sum(r.nfev for r in returned) == result.evaluations == 7

    def test_table_route_calls_scenario_bell_value(self, monkeypatch):
        calls = []
        original = bellbench.scenario.bell_value

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bellbench.scenario, "bell_value", counting)
        cfg = PhaseConfiguration.zeros(E32.scenario)
        assert quantum_bell_value(ghz_qubit(PI / 4), cfg, E32) == pytest.approx(2)
        assert len(calls) == 1
