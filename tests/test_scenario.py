"""Core scenario: weights, expressions, tables, Bell values."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from bellbench import (
    BIPARTITE_LEGACY,
    MULTIPARTITE,
    BellExpression,
    DomainError,
    FamilyMismatchError,
    InvalidScenarioError,
    ProbabilityTable,
    Scenario,
    bell_expression,
    bell_value,
    correlation,
    euclid_mod,
    weight_bipartite,
    weight_multipartite,
)
from bellbench.polytope import DeterministicStrategy, enumerate_strategies, strategy_table


def brute_weight(settings, outcomes, d):
    """Independent re-derivation of the multipartite weight."""
    chi = 1
    for s in settings:
        chi *= s
    sign = (-1) ** chi
    m = (sign * sum(outcomes)) % d
    s_spin = Fraction(d - 1, 2)
    return (s_spin - m) / s_spin


class TestEuclidMod:
    def test_positive(self):
        assert euclid_mod(5, 3) == 2

    def test_negative(self):
        assert euclid_mod(-4, 3) == 2

    def test_zero(self):
        assert euclid_mod(0, 7) == 0

    def test_bad_modulus(self):
        with pytest.raises(InvalidScenarioError):
            euclid_mod(1, 1)

    def test_residue_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = int(rng.integers(-10**6, 10**6))
            d = int(rng.integers(2, 50))
            r = euclid_mod(x, d)
            assert 0 <= r < d
            assert (x - r) % d == 0


class TestScenario:
    def test_spin_is_exact(self):
        assert Scenario(3, 2).spin == Fraction(1, 2)
        assert Scenario(2, 4).spin == Fraction(3, 2)
        assert Scenario(3, 9).spin == 4

    @pytest.mark.parametrize("n,d", [(1, 3), (0, 2), (2, 1), (3, 0)])
    def test_rejects_small_parameters(self, n, d):
        with pytest.raises(InvalidScenarioError):
            Scenario(n, d)


class TestWeights:
    def test_multipartite_examples(self):
        sc = Scenario(3, 2)
        assert weight_multipartite((1, 1, 1), (0, 0, 0), sc) == 1
        assert weight_multipartite((1, 1, 1), (1, 1, 1), sc) == -1
        assert weight_multipartite((1, 2, 1), (1, 1, 1), Scenario(3, 3)) == 1

    def test_bipartite_examples(self):
        assert weight_bipartite(1, 2, 0, 0, Scenario(2, 3)) == 1
        assert weight_bipartite(2, 1, 1, 1, Scenario(2, 3)) == -1
        assert weight_bipartite(1, 1, 1, 0, Scenario(2, 2)) == -1

    def test_bipartite_needs_two_parties(self):
        with pytest.raises(FamilyMismatchError):
            weight_bipartite(1, 1, 0, 0, Scenario(3, 2))

    def test_outcome_out_of_range(self):
        with pytest.raises(DomainError):
            weight_multipartite((1, 1), (0, 5), Scenario(2, 3))

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 5), (3, 3), (3, 4), (4, 2)])
    def test_weight_range_and_lattice(self, n, d):
        sc = Scenario(n, d)
        for settings in sc.settings_tuples():
            for outcomes in itertools.islice(sc.outcome_tuples(), 0, None, max(1, d)):
                w = weight_multipartite(settings, outcomes, sc)
                assert -1 <= w <= 1
                assert ((d - 1) * w).denominator == 1

    def test_sign_branches_match_direct_evaluation(self):
        # all settings 1 flips the modular argument; any setting 2 keeps it
        for d in (2, 3, 5, 6):
            sc = Scenario(3, d)
            spin = sc.spin
            for outcomes in itertools.product(range(d), repeat=3):
                total = sum(outcomes)
                w_all1 = weight_multipartite((1, 1, 1), outcomes, sc)
                assert w_all1 == (spin - euclid_mod(-total, d)) / spin
                w_212 = weight_multipartite((2, 1, 2), outcomes, sc)
                assert w_212 == (spin - euclid_mod(total, d)) / spin
                assert w_all1 == brute_weight((1, 1, 1), outcomes, d)
                assert w_212 == brute_weight((2, 1, 2), outcomes, d)


class TestBellExpression:
    def test_three_party_terms(self):
        e = bell_expression(3, 3)
        assert e.terms == (
            ((1, 1, 1), 1),
            ((1, 2, 1), 1),
            ((2, 1, 2), 1),
            ((2, 2, 2), -1),
        )
        assert e.bound == 2

    def test_four_party_terms(self):
        e = bell_expression(4, 2)
        assert e.terms == (
            ((1, 1, 1, 1), 1),
            ((1, 2, 1, 2), 1),
            ((2, 1, 2, 1), 1),
            ((2, 2, 2, 2), -1),
        )

    def test_five_party_terms(self):
        e = bell_expression(5, 2)
        assert e.terms == (
            ((1, 1, 1, 1, 1), 1),
            ((1, 2, 1, 2, 1), 1),
            ((2, 1, 2, 1, 2), 1),
            ((2, 2, 2, 2, 2), -1),
        )

    def test_legacy_terms(self):
        e = bell_expression(2, 4, BIPARTITE_LEGACY)
        assert e.terms == (((1, 1), 1), ((1, 2), 1), ((2, 1), -1), ((2, 2), 1))

    def test_legacy_needs_two_parties(self):
        with pytest.raises(FamilyMismatchError, match="bipartite-legacy family requires N=2"):
            bell_expression(3, 2, BIPARTITE_LEGACY)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError, match="unknown family 'cglmp'") as info:
            bell_expression(2, 3, "cglmp")
        assert not isinstance(info.value, FamilyMismatchError)

    def test_noncanonical_terms_rejected(self):
        sc = Scenario(2, 2)
        bad = (((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), 1))
        with pytest.raises(DomainError):
            BellExpression(sc, bad, MULTIPARTITE)

    def test_with_bound(self):
        e = bell_expression(2, 2).with_bound(3)
        assert e.bound == 3


class TestProbabilityTable:
    def test_uniform_exact_blocks(self):
        sc = Scenario(2, 3)
        t = ProbabilityTable.uniform(sc, exact=True)
        assert t.exact
        assert sum(t.blocks[(1, 2)].flat) == 1

    def test_missing_block_rejected(self):
        sc = Scenario(2, 2)
        blocks = {(1, 1): np.full(4, 0.25)}
        with pytest.raises(DomainError):
            ProbabilityTable(sc, blocks)

    def test_negative_entry_rejected(self):
        sc = Scenario(2, 2)
        block = np.array([0.5, 0.6, -0.1, 0.0])
        blocks = {s: block for s in sc.settings_tuples()}
        with pytest.raises(DomainError):
            ProbabilityTable(sc, blocks)

    def test_unnormalized_rejected(self):
        sc = Scenario(2, 2)
        block = np.full(4, 0.3)
        blocks = {s: block for s in sc.settings_tuples()}
        with pytest.raises(DomainError):
            ProbabilityTable(sc, blocks)

    def test_mix_exact(self):
        sc = Scenario(2, 2)
        t1 = ProbabilityTable.uniform(sc, exact=True)
        s = DeterministicStrategy.from_index(sc, 0)
        t2 = strategy_table(s)
        mixed = ProbabilityTable.mix(t1, t2, Fraction(1, 3))
        assert mixed.exact
        assert mixed.blocks[(1, 1)][0, 0] == Fraction(1, 3) * Fraction(1, 4) + Fraction(2, 3)


class TestCorrelationAndBellValue:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 4), (3, 3), (4, 2)])
    def test_uniform_correlation_zero(self, n, d):
        sc = Scenario(n, d)
        t = ProbabilityTable.uniform(sc, exact=True)
        for settings in sc.settings_tuples():
            assert correlation(t, settings) == 0

    def test_deterministic_examples(self):
        sc = Scenario(3, 3)
        all_zero = strategy_table(DeterministicStrategy.from_index(sc, 0))
        assert correlation(all_zero, (1, 1, 1)) == 1
        # party 1 answers 1 on setting 1, everything else 0
        strat = DeterministicStrategy(sc, ((1, 0), (0, 0), (0, 0)))
        table = strategy_table(strat)
        assert correlation(table, (1, 1, 1)) == -1

    def test_unknown_settings(self):
        t = ProbabilityTable.uniform(Scenario(2, 2))
        with pytest.raises(DomainError):
            correlation(t, (1, 1, 1))

    def test_bell_value_all_zero_strategy(self):
        for d in (2, 3, 5):
            sc = Scenario(3, d)
            e = bell_expression(3, d)
            t = strategy_table(DeterministicStrategy.from_index(sc, 0))
            assert bell_value(e, t) == 2

    def test_bell_value_uniform(self):
        for n, d in [(2, 2), (3, 3), (4, 2)]:
            e = bell_expression(n, d)
            assert bell_value(e, ProbabilityTable.uniform(Scenario(n, d), exact=True)) == 0

    def test_bell_value_case_example(self):
        sc = Scenario(3, 3)
        e = bell_expression(3, 3)
        strat = DeterministicStrategy(sc, ((1, 0), (0, 0), (0, 0)))
        assert bell_value(e, strategy_table(strat)) == -1

    def test_bell_value_scenario_mismatch(self):
        e = bell_expression(3, 2)
        with pytest.raises(DomainError):
            bell_value(e, ProbabilityTable.uniform(Scenario(3, 3)))

    def test_linearity_in_table(self):
        rng = np.random.default_rng(3)
        sc = Scenario(3, 2)
        e = bell_expression(3, 2)

        def random_table():
            blocks = {}
            for s in sc.settings_tuples():
                raw = rng.random(8)
                blocks[s] = raw / raw.sum()
            return ProbabilityTable(sc, blocks)

        for _ in range(20):
            t1, t2 = random_table(), random_table()
            lam = float(rng.random())
            mixed = ProbabilityTable.mix(t1, t2, lam)
            expected = lam * bell_value(e, t1) + (1 - lam) * bell_value(e, t2)
            assert abs(bell_value(e, mixed) - expected) < 1e-12

    def test_qubit_deterministic_spectrum(self):
        # three qubits: every deterministic strategy scores exactly +-2
        sc = Scenario(3, 2)
        e = bell_expression(3, 2)
        values = {bell_value(e, strategy_table(s)) for s in enumerate_strategies(sc)}
        assert values == {Fraction(-2), Fraction(2)}
