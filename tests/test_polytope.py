"""Strategy enumeration, classical maxima, and facet certification."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellbench.polytope as polytope
from bellbench import (
    BIPARTITE_LEGACY,
    DomainError,
    NumericError,
    ResourceError,
    Scenario,
    bell_expression,
    bell_value,
)
from bellbench.polytope import (
    DeterministicStrategy,
    IntegerRankAccumulator,
    cg_vector,
    classical_maximum,
    enumerate_strategies,
    facet_check,
    modular_rank,
    polytope_dimension,
    strategy_count,
    strategy_table,
)
from bellbench.scenario import modular_sign

# every prime the facet certificate can use for d = 2..5
PRIMES = tuple(sorted({p for d in range(2, 6) for p in polytope._primes(d)}))


def value_numerators(expression, lo, hi):
    """Oracle route: (d-1) * Bell value for every strategy index in [lo, hi)."""
    sc = expression.scenario
    d = sc.outcomes
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = polytope._digit_arrays(idx, sc.parties, d)
    nums = np.zeros(hi - lo, dtype=np.int64)
    for settings, sign in expression.terms:
        total = np.zeros(hi - lo, dtype=np.int64)
        for j, s in enumerate(settings):
            total += digits[2 * j + (s - 1)]
        m = np.mod(modular_sign(settings, expression.family) * total, d)
        nums += sign * ((d - 1) - 2 * m)
    return nums


def brute_force_values(expression):
    """Oracle route: exact Bell value of every strategy via its full table."""
    return [
        bell_value(expression, strategy_table(s))
        for s in enumerate_strategies(expression.scenario)
    ]


class TestStrategies:
    @pytest.mark.parametrize("n,d,count", [(2, 2, 16), (3, 3, 729), (5, 2, 1024)])
    def test_enumeration_count(self, n, d, count):
        assert strategy_count(Scenario(n, d)) == count
        assert sum(1 for _ in enumerate_strategies(Scenario(n, d))) == count

    def test_budget(self):
        with pytest.raises(ResourceError, match="4294967296"):
            list(enumerate_strategies(Scenario(8, 4), budget=10**6))

    def test_restartable(self):
        sc = Scenario(2, 3)
        tail = list(enumerate_strategies(sc, start=40))
        assert [s.index for s in tail] == list(range(40, 81))

    def test_index_round_trip(self):
        sc = Scenario(2, 3)
        seen = set()
        for s in enumerate_strategies(sc):
            assert DeterministicStrategy.from_index(sc, s.index) == s
            seen.add(s.assignment)
        assert len(seen) == 81

    def test_mixed_radix_order(self):
        # party 1 setting 1 is the least significant digit
        sc = Scenario(2, 3)
        s = DeterministicStrategy.from_index(sc, 1)
        assert s.assignment == ((1, 0), (0, 0))
        s = DeterministicStrategy.from_index(sc, 3)
        assert s.assignment == ((0, 1), (0, 0))

    def test_outcome_validation(self):
        with pytest.raises(DomainError):
            DeterministicStrategy(Scenario(2, 2), ((0, 2), (0, 0)))


class TestStrategyTable:
    def test_all_zero_support(self):
        sc = Scenario(3, 2)
        t = strategy_table(DeterministicStrategy.from_index(sc, 0))
        for settings in sc.settings_tuples():
            block = t.blocks[settings]
            assert block[0, 0, 0] == 1
            assert sum(block.flat) == 1

    def test_blocks_normalized(self):
        sc = Scenario(2, 3)
        for idx in (5, 17, 80):
            t = strategy_table(DeterministicStrategy.from_index(sc, idx))
            for settings in sc.settings_tuples():
                assert sum(t.blocks[settings].flat) == 1

    def test_extreme_indices_differ_everywhere(self):
        sc = Scenario(2, 2)
        first = strategy_table(DeterministicStrategy.from_index(sc, 0))
        last = strategy_table(DeterministicStrategy.from_index(sc, 15))
        for settings in sc.settings_tuples():
            assert not np.array_equal(first.blocks[settings], last.blocks[settings])


class TestClassicalMaximum:
    @pytest.mark.parametrize(
        "n,d,family",
        [(2, 2, None), (2, 3, None), (3, 2, None), (2, 2, BIPARTITE_LEGACY), (2, 3, BIPARTITE_LEGACY)],
    )
    def test_matches_brute_force(self, n, d, family):
        e = bell_expression(n, d, family) if family else bell_expression(n, d)
        values = brute_force_values(e)
        cm = classical_maximum(e)
        assert cm.max_value == max(values)
        expected_hist = {}
        for v in values:
            expected_hist[v] = expected_hist.get(v, 0) + 1
        assert cm.histogram == expected_hist
        assert bell_value(e, strategy_table(cm.argmax)) == cm.max_value

    @pytest.mark.parametrize("d", range(2, 7))
    def test_three_party_bound(self, d):
        assert classical_maximum(bell_expression(3, d)).max_value == 2

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2)])
    def test_more_parties_bound(self, n, d):
        assert classical_maximum(bell_expression(n, d)).max_value == 2

    def test_qubit_histogram_support(self):
        cm = classical_maximum(bell_expression(3, 2))
        assert set(cm.histogram) == {Fraction(-2), Fraction(2)}

    def test_qutrit_value_spectrum(self):
        cm = classical_maximum(bell_expression(3, 3))
        # -1/S, -2(S+1)/S and the bound itself, with S = 1
        assert set(cm.histogram) == {Fraction(-4), Fraction(-1), Fraction(2)}

    def test_party_relabeling_invariance(self):
        # permuting parties everywhere cannot change the spectrum
        for d in (2, 3):
            e = bell_expression(3, d)
            base = sorted(brute_force_values(e))
            for perm in itertools.permutations(range(3)):
                values = []
                for s in enumerate_strategies(Scenario(3, d)):
                    value = Fraction(0)
                    for settings, sign in e.terms:
                        perm_settings = tuple(settings[perm[j]] for j in range(3))
                        outcomes = tuple(
                            s.assignment[perm[j]][perm_settings[j] - 1] for j in range(3)
                        )
                        value += sign * e.weight(perm_settings, outcomes)
                    values.append(value)
                assert sorted(values) == base

    @pytest.mark.parametrize(
        "n,d,family",
        [(2, 200, None), (2, 300, None), (2, 257, BIPARTITE_LEGACY), (10, 2, None), (7, 3, None)],
    )
    def test_narrow_scan_numerators_are_exact(self, n, d, family):
        # slice entry i is the strategy of index i < d**3, zeros past it;
        # at d = 200, 257 and 300 outcomes and their sums pass the uint8 range
        e = bell_expression(n, d, family) if family else bell_expression(n, d)
        sc = e.scenario
        for b1 in sorted({0, 1, d // 2, d - 1}):
            nums = polytope._slice_numerators(e, b1, b1 + 1)
            assert nums.dtype == np.int64 and nums.shape == (1, d, d)
            for k in sorted(set(np.linspace(0, d * d - 1, 20, dtype=np.int64).tolist())):
                s = DeterministicStrategy.from_index(sc, b1 * d * d + k)
                value = sum(
                    sign * e.weight(settings, s.outcomes_at(settings))
                    for settings, sign in e.terms
                )
                assert nums.flat[k] == value * (d - 1)

    def test_threads_do_not_change_result(self):
        # (2, 64) has 64**3 = 4 * 2**16 slice strategies: four slabs of 16 B1 rows
        for e in (bell_expression(3, 3), bell_expression(2, 64)):
            a = classical_maximum(e, threads=1)
            b = classical_maximum(e, threads=4)
            assert a.max_value == b.max_value
            assert a.argmax == b.argmax
            assert a.histogram == b.histogram

    @pytest.mark.parametrize("family", [None, BIPARTITE_LEGACY])
    @pytest.mark.parametrize("d", range(2, 13))
    def test_shift_keeps_every_two_party_value(self, d, family):
        # every term reads A_s1 + B_s2, so (c, c, -c, -c) on (A1, A2, B1, B2)
        # keeps the value; axes are (B2, B1, A2, A1)
        e = bell_expression(2, d, family) if family else bell_expression(2, d)
        nums = value_numerators(e, 0, d**4).reshape((d,) * 4)
        for c in range(1, d):
            assert np.array_equal(np.roll(nums, (c, c, -c, -c), axis=(0, 1, 2, 3)), nums)

    @pytest.mark.parametrize("family", [None, BIPARTITE_LEGACY])
    @pytest.mark.parametrize("d", range(2, 13))
    def test_slice_gives_the_full_two_party_scan(self, d, family):
        e = bell_expression(2, d, family) if family else bell_expression(2, d)
        nums = value_numerators(e, 0, d**4)
        values, counts = np.unique(nums, return_counts=True)
        cm = classical_maximum(e)
        assert list(cm.histogram.items()) == [
            (Fraction(v, d - 1), c) for v, c in zip(values.tolist(), counts.tolist())
        ]
        assert cm.max_value == Fraction(int(nums.max()), d - 1)
        assert cm.argmax.index == int(np.argmax(nums))
        for v in values.tolist():
            # the fallback reads each level through the shift from the slice
            hit = polytope._slice_numerators(e, 0, d) == v
            found = np.concatenate(list(polytope._saturating_blocks(hit, 2, d**4)))
            assert np.array_equal(found, np.flatnonzero(nums == v))

    @pytest.mark.parametrize(
        "n,d", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (3, 4), (6, 2), (5, 3)]
    )
    def test_reduction_to_two_parties_matches_full_scan(self, n, d):
        e = bell_expression(n, d)
        nums = value_numerators(e, 0, d ** (2 * n))
        values, counts = np.unique(nums, return_counts=True)
        cm = classical_maximum(e)
        assert cm.histogram == {
            Fraction(v, d - 1): c for v, c in zip(values.tolist(), counts.tolist())
        }
        assert cm.max_value == Fraction(int(nums.max()), d - 1)
        full_argmax = DeterministicStrategy.from_index(e.scenario, int(np.argmax(nums)))
        assert cm.argmax.index == full_argmax.index
        assert cm.argmax.assignment == full_argmax.assignment

    @pytest.mark.parametrize("n,d", [(7, 3), (5, 4)])
    def test_many_party_maximum_scans_only_two_party_strategies(self, n, d, monkeypatch):
        ranges = []
        original = polytope._slice_numerators

        def spy(expression, lo, hi):
            ranges.append((lo, hi))
            return original(expression, lo, hi)

        monkeypatch.setattr(polytope, "_slice_numerators", spy)
        cm = classical_maximum(bell_expression(n, d))
        assert sum(hi - lo for lo, hi in ranges) * d**2 == d**3
        assert sum(cm.histogram.values()) == cm.strategy_total == d ** (2 * n)


class TestCgVector:
    def test_all_zero_two_qubits(self):
        sc = Scenario(2, 2)
        vec = cg_vector(DeterministicStrategy.from_index(sc, 0))
        assert vec.shape == (9,)
        assert np.array_equal(vec, np.ones(9, dtype=np.int64))

    def test_entries_binary_first_one(self):
        sc = Scenario(2, 3)
        for s in enumerate_strategies(sc):
            vec = cg_vector(s)
            assert vec[0] == 1
            assert set(np.unique(vec)) <= {0, 1}

    def test_party_block_drops_last_outcome(self):
        # party with outcomes (2, 0) at d=3 contributes [1, 0,0, 1,0]
        sc = Scenario(2, 3)
        s = DeterministicStrategy(sc, ((2, 0), (0, 0)))
        expected = np.kron([1, 0, 0, 1, 0], [1, 1, 0, 1, 0])
        assert np.array_equal(cg_vector(s), expected)

    def test_vectors_separate_strategies(self):
        sc = Scenario(2, 3)
        seen = {cg_vector(s).tobytes() for s in enumerate_strategies(sc)}
        assert len(seen) == strategy_count(sc)


class TestIntegerRank:
    def test_known_rank(self):
        acc = IntegerRankAccumulator()
        assert acc.add(np.array([1, 2, 3]))
        assert not acc.add(np.array([2, 4, 6]))
        assert acc.add(np.array([0, 1, 1]))
        assert acc.add(np.array([5, 0, 1]))
        assert acc.rank == 3

    def test_zero_row(self):
        acc = IntegerRankAccumulator()
        assert not acc.add(np.zeros(4, dtype=np.int64))
        assert acc.rank == 0

    def test_matches_numpy_on_random_sign_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mat = rng.integers(-1, 2, size=(12, 8))
            acc = IntegerRankAccumulator()
            for row in mat:
                acc.add(row)
            assert acc.rank == np.linalg.matrix_rank(mat.astype(float), tol=1e-8)

    def test_survives_entry_growth(self):
        rng = np.random.default_rng(9)
        mat = rng.integers(-50, 50, size=(10, 10)) * 10**9
        acc = IntegerRankAccumulator()
        for row in mat:
            acc.add(row)
        assert acc.rank == np.linalg.matrix_rank(mat.astype(float) / 1e9, tol=1e-8)


def rank_mod_p_oracle(matrix, p):
    """Gaussian elimination over GF(p) in Python integers."""
    rows = [[int(v) % p for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bareiss_rank_and_minor(matrix):
    """Rank over Q and +-det of a nonsingular rank x rank minor (fraction-free)."""
    a = [[int(v) for v in row] for row in matrix]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            for j in range(c + 1, len(a[0])):
                a[i][j] = (a[i][j] * a[rank][c] - a[i][c] * a[rank][j]) // prev
            a[i][c] = 0
        prev = a[rank][c]
        rank += 1
    return rank, prev


@st.composite
def integer_matrices(draw):
    """Seeded 0/1 or +-1 matrices, some with duplicated or summed rows."""
    base = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    values = draw(st.sampled_from([(0, 1), (-1, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.choice(values, size=(base, cols))
    derived = []
    for _ in range(draw(st.integers(0, 8))):
        i, j = rng.integers(0, base, size=2)
        derived.append(mat[i] if draw(st.booleans()) else mat[i] + mat[j])
    if derived:
        mat = np.vstack([mat, derived])
    return mat[rng.permutation(mat.shape[0])]


class TestModularRank:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(mat=integer_matrices(), p=st.sampled_from(PRIMES + (3, 5)))
    def test_gram_rank_bounded_by_integer_rank(self, mat, p):
        acc = IntegerRankAccumulator()
        for row in mat:
            acc.add(row)
        gram = mat.T @ mat
        rank_p = modular_rank(gram, p)
        assert rank_p == rank_mod_p_oracle(gram, p)
        assert modular_rank(mat, p) == rank_mod_p_oracle(mat, p)
        assert rank_p <= acc.rank
        rank_q, minor = bareiss_rank_and_minor(gram)
        assert rank_q == acc.rank
        if minor % p:
            assert rank_p == acc.rank

    def test_dependent_rows_of_a_wide_matrix_match_oracle(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 2, size=(60, 90))
        mat = np.vstack([base, base[:20] + base[20:40]])
        for p in PRIMES:
            assert modular_rank(mat, p) == rank_mod_p_oracle(mat, p) == 60

    @pytest.mark.parametrize(
        "rows,cols", [(31, 31), (32, 32), (33, 33), (64, 64), (65, 65), (70, 70), (64, 65), (40, 80)]
    )
    def test_kernel_vector_at_any_column(self, rows, cols):
        # one column a combination of the others, at several positions;
        # (64, 65) runs out of rows before the last column
        rng = np.random.default_rng(rows * cols)
        for p in PRIMES[:3]:
            for free in sorted({0, 31, 32, cols // 2, cols - 1} & set(range(cols))):
                mat = rng.integers(-9, 10, size=(rows, cols))
                mat[:, free] = np.delete(mat, free, axis=1) @ rng.integers(-3, 4, size=cols - 1)
                assert modular_rank(mat, p) == rank_mod_p_oracle(mat, p) < cols

    def test_independent_columns_have_no_kernel_vector(self):
        mat = np.random.default_rng(4).integers(-9, 10, size=(70, 65))
        for p in PRIMES:
            assert modular_rank(mat, p) == 65

    @pytest.mark.parametrize("rows,cols,repeats", [(61, 61, 0), (61, 61, 9), (122, 61, 0), (122, 61, 30), (9, 61, 0)])
    def test_residues_next_to_p_match_oracle(self, rows, cols, repeats):
        # the largest residues, p - 1 and p - 2; 61 columns is the widest
        # shift block at d = 16 (4d - 3).  Repeated rows leave nonzero
        # multiples of p below the pivot, which only a reduced column skips.
        rng = np.random.default_rng(rows * cols + repeats)
        for p in PRIMES:
            mat = p - 1 - rng.integers(0, 2, size=(rows, cols))
            mat[rows - repeats :] = mat[rng.integers(0, rows - repeats, size=repeats)]
            mat = mat[rng.permutation(rows)]
            assert modular_rank(mat, p) == rank_mod_p_oracle(mat, p)

    @pytest.mark.parametrize("rows,rank,cols", [(61, 61, 61), (61, 50, 61), (122, 61, 61), (122, 40, 61), (30, 30, 61)])
    def test_largest_unreduced_entries_match_oracle(self, rows, rank, cols):
        # lower @ upper mod p, lower unit-triangular and both p - 1 elsewhere,
        # so every multiplier and reduced pivot-row entry is p - 1 and step k
        # leaves entries of size k * (p - 1)**2, modular_rank's stated bound;
        # below full rank, an overflow or an unreduced pivot shows in the rank
        for p in PRIMES:
            lower = np.tril(np.full((rows, rank), p - 1), -1) + np.eye(rows, rank, dtype=np.int64)
            mat = lower @ np.triu(np.full((rank, cols), p - 1)) % p
            assert modular_rank(mat, p) == rank_mod_p_oracle(mat, p) == rank


# bounds whose saturating vertices span less than a facet
DEFICIENT = [(2, 3, -4), (3, 3, -4), (2, 4, Fraction(-10, 3))]


class NoFallback:
    def __init__(self):
        raise AssertionError("integer fallback reached")


def saturating_cg_matrix(expression):
    rows = []
    for s in enumerate_strategies(expression.scenario):
        if bell_value(expression, strategy_table(s)) == expression.bound:
            rows.append(cg_vector(s))
    return np.array(rows)


class TestFacetCheck:
    def test_chsh_oracle(self):
        report = facet_check(bell_expression(2, 2, BIPARTITE_LEGACY))
        assert report.dimension == 8
        assert report.classical_max == 2
        assert report.affine_rank == 7
        assert report.is_facet

    def test_three_qubits(self):
        report = facet_check(bell_expression(3, 2))
        assert report.dimension == 26
        assert report.affine_rank == 25
        assert report.is_facet
        assert report.saturating_count == 32

    def test_unattained_bound(self):
        report = facet_check(bell_expression(2, 2).with_bound(3))
        assert report.saturating_count == 0
        assert report.affine_rank == 0
        assert not report.is_facet

    @pytest.mark.parametrize("n,d,family", [(2, 2, None), (3, 2, None), (3, 3, None), (2, 2, BIPARTITE_LEGACY)])
    def test_exact_rank_agrees_with_float_rank(self, n, d, family):
        e = bell_expression(n, d, family) if family else bell_expression(n, d)
        mat = saturating_cg_matrix(e)
        diffs = (mat[1:] - mat[0]).astype(float)
        float_rank = np.linalg.matrix_rank(diffs, tol=1e-8)
        assert facet_check(e).affine_rank == float_rank

    @pytest.mark.parametrize(
        "n,d,count",
        [
            (3, 2, 32), (3, 3, 270), (3, 4, 1280), (3, 5, 4375), (4, 2, 128), (4, 3, 2430), (5, 2, 512),
            # past the paper; at (6,3) and (5,4), D = 15624 and 16806, a dense
            # Gram matrix of the saturating rows would take about 2 GiB
            (2, 10, 2200), (6, 2, 2048), (3, 6, 12096), (6, 3, 196830), (5, 4, 327680),
        ],
    )
    def test_paper_cases_certify_without_fallback(self, n, d, count, monkeypatch):
        monkeypatch.setattr(polytope, "IntegerRankAccumulator", NoFallback)
        report = facet_check(bell_expression(n, d))
        assert report.affine_rank == report.dimension - 1 == (2 * d - 1) ** n - 2
        assert report.is_facet
        assert report.saturating_count == count

    @pytest.mark.parametrize("d", range(2, 17))
    def test_facet_for_every_n(self, d, monkeypatch):
        # the certificate reads N only through whether e and o are 0, so (4,d)
        # certifying means every N >= 2 does (see polytope._affine_rank)
        monkeypatch.setattr(polytope, "IntegerRankAccumulator", NoFallback)
        for n in (4, 2, 3, 5, 9, 40):
            report = facet_check(bell_expression(n, d))
            assert report.affine_rank == report.dimension - 1 == (2 * d - 1) ** n - 2
            assert report.is_facet

    @pytest.mark.parametrize("n,d,bound", DEFICIENT)
    def test_deficient_rank_reaches_exact_fallback(self, n, d, bound, monkeypatch):
        built = []

        class Spy(IntegerRankAccumulator):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(polytope, "IntegerRankAccumulator", Spy)
        e = bell_expression(n, d).with_bound(bound)
        report = facet_check(e)
        assert len(built) == 1
        mat = saturating_cg_matrix(e)
        diffs = (mat[1:] - mat[0]).astype(float)
        assert report.affine_rank == np.linalg.matrix_rank(diffs, tol=1e-8)
        assert report.affine_rank < report.dimension - 1
        assert not report.is_facet

    def test_modular_rank_above_dimension_raises(self, monkeypatch):
        # value - bound vanishes on every saturating CG row, so rank <= D, and
        # a zero-coset block of full rank would make every coset's full: D + 1;
        # at d = 2 its shift blocks are 5 and 4 wide
        widths = []

        def full_rank(matrix, p):
            widths.append(matrix.shape[1])
            return matrix.shape[1]

        monkeypatch.setattr(polytope, "modular_rank", full_rank)
        with pytest.raises(NumericError, match="full rank 9"):
            facet_check(bell_expression(5, 2))
        assert widths == [5, 4]

    def test_fallback_walks_every_strategy_within_the_budget(self):
        # the scan covers 3**3 strategies, the fallback 3**6 = 729
        e = bell_expression(3, 3).with_bound(-4)
        with pytest.raises(ResourceError, match="729 strategies"):
            facet_check(e, budget=728)
        report = facet_check(e, budget=729)
        assert report.affine_rank == 26
        assert not report.is_facet

    def test_partitioning_invariance(self):
        e = bell_expression(3, 3)
        assert facet_check(e, threads=1) == facet_check(e, threads=4)

    def test_json_shape(self):
        data = facet_check(bell_expression(3, 2)).to_json_dict()
        assert data == {
            "n": 3,
            "d": 2,
            "family": "multipartite",
            "dimension": 26,
            "classical_max": "2",
            "saturating_count": 32,
            "affine_rank": 25,
            "is_facet": True,
        }

    def test_dimension_formula(self):
        assert polytope_dimension(Scenario(3, 2)) == 26
        assert polytope_dimension(Scenario(3, 5)) == 728
        assert polytope_dimension(Scenario(4, 3)) == 624


def saturating_gram(expression):
    """Oracle route: Gram matrix of the saturating strategies' CG rows."""
    sc = expression.scenario
    target = expression.bound * (sc.outcomes - 1)
    nums = value_numerators(expression, 0, strategy_count(sc))
    # entries are integers at most the saturating count, exact in float64
    rows = polytope._cg_matrix(sc, np.nonzero(nums == target)[0]).astype(np.float64)
    return rows.T @ rows


def frequency_pairs(d):
    """One party's frequencies (k1, k2), at most one nonzero, in CG order."""
    return [(0, 0)] + [(k, 0) for k in range(1, d)] + [(0, k) for k in range(1, d)]


def party_change_of_basis(d, p, w):
    """Q with Q v(a, b) = [w**(k1*a + k2*b) for (k1, k2) in the frequencies] mod p.

    v(a, b) = [1, [a == c for c < d-1], [b == c for c < d-1]]; w**(k*a) is
    w**(k*(d-1)) plus (w**(k*c) - w**(k*(d-1))) at a == c < d-1.
    """
    q = np.zeros((2 * d - 1, 2 * d - 1), dtype=np.int64)
    for f, (k1, k2) in enumerate(frequency_pairs(d)):
        k, offset = (k1, 1) if k1 else (k2, d)
        last = pow(w, k * (d - 1), p)
        q[f, 0] = last
        if k:
            for c in range(d - 1):
                q[f, offset + c] = (pow(w, k * c, p) - last) % p
    return q


def character_rows(scenario, indices, p, w):
    """U[s, f] = w**<f, s> mod p, frequencies in Kronecker order."""
    n, d = scenario.parties, scenario.outcomes
    freqs = np.array(list(itertools.product(frequency_pairs(d), repeat=n)))
    digits = np.stack(polytope._digit_arrays(indices, n, d), axis=1)
    phase = np.einsum("sk,fk->sf", digits, freqs.reshape(len(freqs), 2 * n)) % d
    powers = np.array([pow(w, k, p) for k in range(d)], dtype=np.int64)
    return powers[phase]


def coset_blocks(indicator, parties, p):
    """Oracle route: (rows, cols, block) for each coset C of im(phi^T), one by one.

    Frequencies are numbered in CG coordinate order; rows lists those in C,
    cols those in -C, and block[i, j] is S^ at kappa = rows[i] + cols[j] on
    parties 0, 1, mod p.  It builds N * (2d-1)**N-entry tables, so it only
    serves small cases.
    """
    d = indicator.shape[0]
    w = polytope._unit_root(p, d)
    dft = np.array([pow(w, k, p) for k in range(d)])[np.outer(range(d), range(d)) % d]
    shat = indicator
    for _ in range(4):
        shat = np.tensordot(shat, dft, axes=([0], [1])) % p
    shat = shat.ravel()

    pairs = np.array(frequency_pairs(d))
    pair_sum = ((pairs[:, None, :] + pairs[None, :, :]) % d) @ [1, d]
    party = np.indices((2 * d - 1,) * parties).reshape(parties, -1)
    # a coset is fixed by each later party's offset from party 0 or 1
    freq = pairs[party]
    diff = (freq[2:] - freq[np.arange(2, parties) % 2]) % d
    diff = diff.transpose(1, 0, 2).reshape(party.shape[1], -1)
    weights = d ** np.arange(diff.shape[1], dtype=np.int64)
    key, neg = diff @ weights, (-diff % d) @ weights
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    cosets = dict(zip(keys.tolist(), np.split(order, starts[1:])))
    for rows in cosets.values():
        cols = cosets[int(neg[rows[0]])]
        kappa = [pair_sum[party[j][rows][:, None], party[j][cols]] for j in (0, 1)]
        yield rows, cols, shat[kappa[0] + d * d * kappa[1]]


def type_blocks(indicator, parties, p):
    """Oracle route: (count, block) for each type of coset C of im(phi^T).

    A frequency f has one pair (k1, k2), at most one nonzero, per party.  C is
    fixed by each party j >= 2's offset x_j = f_j - f_(j mod 2) and holds the
    f with f_0 in A, f_1 in B: A (B) is the set of pairs a with a + x_j a pair
    for every even (odd) j.  -C is -A x -B, so C's block, rows (a, b) and
    columns (-a', -b'), is S^ at kappa = (a - a', b - b') mod p: it depends on
    C only through its type (A, B).  count, the number of cosets of that
    type, comes from a dynamic program over the parties on the surviving set.
    """
    d = indicator.shape[0]
    w = polytope._unit_root(p, d)
    dft = np.array([pow(w, k, p) for k in range(d)])[np.outer(range(d), range(d)) % d]
    shat = indicator
    for _ in range(4):
        shat = np.tensordot(shat, dft, axes=([0], [1])) % p
    shat = shat.ravel()

    pairs = np.array(frequency_pairs(d))
    pair_diff = ((pairs[:, None, :] - pairs[None, :, :]) % d) @ [1, d]
    # how many offsets x keep each set of pairs (the a with a + x a pair)
    keeps = Counter(
        frozenset(np.flatnonzero(((pairs + x) % d == 0).any(axis=1)).tolist()) for x in np.ndindex(d, d)
    )
    sides = []
    for offsets in ((parties + 1) // 2 - 1, parties // 2 - 1):
        types = Counter({frozenset(range(2 * d - 1)): 1})
        for _ in range(offsets):
            step = Counter()
            for (kept, count), (keep, ways) in itertools.product(types.items(), keeps.items()):
                step[kept & keep] += count * ways
            types = step
        sides.append([(n, pair_diff[np.ix_(sorted(a), sorted(a))]) for a, n in types.items() if a])
    for (count_a, kappa_a), (count_b, kappa_b) in itertools.product(*sides):
        block = shat[kappa_a[:, None, :, None] + d * d * kappa_b[None, :, None, :]]
        yield count_a * count_b, block.reshape(len(kappa_a) * len(kappa_b), -1)


def type_rank_sum(indicator, parties, p):
    return sum(count * modular_rank(block, p) for count, block in type_blocks(indicator, parties, p))


def coset_rank_sum(indicator, parties, p):
    return sum(modular_rank(block, p) for _, _, block in coset_blocks(indicator, parties, p))


def expression_indicator(n, d, family=None, bound=None):
    """The expression and its (2,d) saturating set S, shaped (B2, B1, A2, A1).

    Every index below d**4 is its own (2,d) image, so S is read from the
    oracle's values there; S[0] is the B2 = 0 slice the certificate reads.
    """
    e = bell_expression(n, d, family) if family else bell_expression(n, d)
    if bound is not None:
        e = e.with_bound(bound)
    nums = value_numerators(e, 0, d**4).reshape((d,) * 4)
    return e, (nums == int(e.bound * (d - 1))).astype(np.int64)


def shift_extension(hit):
    """The d**4 set whose B2 = c layer is hit moved by the shift (c, c, -c, -c)."""
    d = hit.shape[0]
    return np.stack([np.roll(hit, (c, -c, -c), axis=(0, 1, 2)) for c in range(d)]).astype(np.int64)


ORACLE_CASES = [
    # the benchmark's tightness cases
    (3, 2, None, None), (3, 3, None, None), (3, 4, None, None), (3, 5, None, None),
    (4, 2, None, None), (4, 3, None, None), (5, 2, None, None),
    # the README's cases
    (2, 10, None, None), (6, 2, None, None), (3, 6, None, None), (7, 2, None, None),
    (4, 4, None, None), (5, 3, None, None), (3, 7, None, None), (3, 8, None, None),
    (8, 2, None, None), (4, 5, None, None), (6, 3, None, None), (5, 4, None, None),
    (2, 2, BIPARTITE_LEGACY, None), (2, 4, BIPARTITE_LEGACY, None),
    *[(n, d, None, bound) for n, d, bound in DEFICIENT],
]


class TestCharacterBlocks:
    @pytest.mark.parametrize(
        "n,d,family,bound",
        [
            (3, 2, None, None), (3, 3, None, None), (3, 4, None, None), (3, 5, None, None),
            (4, 2, None, None), (4, 3, None, None), (5, 2, None, None),
            (2, 3, None, None), (2, 5, None, None),
            (2, 2, BIPARTITE_LEGACY, None), (2, 4, BIPARTITE_LEGACY, None),
            *[(n, d, None, bound) for n, d, bound in DEFICIENT],
        ],
    )
    def test_block_rank_sum_equals_gram_rank(self, n, d, family, bound):
        e, indicator = expression_indicator(n, d, family, bound)
        gram = saturating_gram(e)
        for p in polytope._primes(d):
            assert type_rank_sum(indicator, n, p) == modular_rank(gram, p)

    @pytest.mark.parametrize("n,d,family,bound", ORACLE_CASES)
    def test_type_sum_equals_coset_sum(self, n, d, family, bound):
        _, indicator = expression_indicator(n, d, family, bound)
        for p in polytope._primes(d):
            assert type_rank_sum(indicator, n, p) == coset_rank_sum(indicator, n, p)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4))
    def test_type_sum_equals_coset_sum_on_any_face(self, data, d):
        # any 0/1 set of (2,d) strategies, most of them not a facet's
        n = data.draw(st.integers(2, 5))
        seed = data.draw(st.integers(0, 2**32 - 1))
        density = data.draw(st.sampled_from([0.02, 0.1, 0.5]))
        indicator = (np.random.default_rng(seed).random((d,) * 4) < density).astype(np.int64)
        p = data.draw(st.sampled_from(polytope._primes(d)))
        assert type_rank_sum(indicator, n, p) == coset_rank_sum(indicator, n, p)

    @pytest.mark.parametrize("n,d,family,bound", ORACLE_CASES)
    def test_zero_coset_verdict_equals_type_sum(self, n, d, family, bound):
        _, indicator = expression_indicator(n, d, family, bound)
        dim = (2 * d - 1) ** n - 1
        for p in polytope._primes(d):
            assert polytope._zero_coset_certifies(indicator[0], p) == (type_rank_sum(indicator, n, p) == dim)

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4))
    def test_zero_coset_verdict_on_any_face(self, data, d):
        # at N = 2 the zero coset is the whole Gram matrix, so its corank
        # decides any shift-invariant 0/1 face, the only faces a slice
        # describes; past N = 2 only level sets are certified
        seed = data.draw(st.integers(0, 2**32 - 1))
        density = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.5]))
        hit = np.random.default_rng(seed).random((d,) * 3) < density
        p = data.draw(st.sampled_from(polytope._primes(d)))
        total, dim = type_rank_sum(shift_extension(hit), 2, p), (2 * d - 1) ** 2 - 1
        if total > dim:
            with pytest.raises(NumericError):
                polytope._zero_coset_certifies(hit, p)
        else:
            assert polytope._zero_coset_certifies(hit, p) == (total == dim)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_level_set_verdict_holds_for_every_n(self, d):
        # every level of the (2,d) spectrum, facet or not
        for bound in classical_maximum(bell_expression(2, d)).histogram:
            _, indicator = expression_indicator(2, d, bound=bound)
            for p in polytope._primes(d):
                verdict = polytope._zero_coset_certifies(indicator[0], p)
                for n in (2, 3, 4, 5):
                    assert verdict == (type_rank_sum(indicator, n, p) == (2 * d - 1) ** n - 1)

    @pytest.mark.parametrize(
        "d,family", [*[(d, None) for d in range(2, 17)], *[(d, BIPARTITE_LEGACY) for d in range(2, 17)]]
    )
    def test_zero_coset_block_splits_into_shift_blocks(self, d, family, monkeypatch):
        # every level set S is shift-invariant, so at N = 2, where the zero
        # coset's block is the whole Gram matrix G, G[(a, b), (a', b')]
        # vanishes unless sigma(a) - sigma(b) = sigma(a') - sigma(b') mod d,
        # sigma a pair's entry sum, and the certificate ranks G's diagonal
        # blocks divided by d, so its verdict is G's corank
        e2 = bell_expression(2, d, family) if family else bell_expression(2, d)
        sigma = np.array(frequency_pairs(d)).sum(axis=1)
        lam = np.subtract.outer(sigma, sigma).ravel() % d
        ranked = []

        def rank_spy(block, p):
            ranked.append(block)
            return 0

        monkeypatch.setattr(polytope, "modular_rank", rank_spy)
        for bound in classical_maximum(e2).histogram:
            _, indicator = expression_indicator(2, d, family, bound)
            for p in polytope._primes(d):
                (_, gram), = type_blocks(indicator, 2, p)
                assert not gram[lam[:, None] != lam[None, :]].any()
                ranked.clear()
                polytope._zero_coset_certifies(indicator[0], p)
                assert len(ranked) == d
                for k, block in enumerate(ranked):
                    rows = np.flatnonzero(lam == k)
                    assert np.array_equal(d * block % p, gram[np.ix_(rows, rows)])

    @pytest.mark.parametrize(
        "d,family", [*[(d, None) for d in range(2, 9)], *[(d, BIPARTITE_LEGACY) for d in range(2, 7)]]
    )
    def test_functional_is_a_kernel_vector_of_the_zero_coset(self, d, family):
        # value - bound in characters: the constant -bound, and each term's
        # sawtooth (d-1) - 2m, whose DFT at q != 0 is 2 / (1 - w**-q); as
        # G[i, j] = S^(i - j), G c = 0 takes c at the negated frequencies
        e2 = bell_expression(2, d, family) if family else bell_expression(2, d)
        size = 2 * d - 1
        for bound in classical_maximum(e2).histogram:
            e, indicator = expression_indicator(2, d, family, bound)
            for p in polytope._primes(d):
                w = polytope._unit_root(p, d)
                c = np.zeros(size**2, dtype=object)
                c[0] = -int(bound * (d - 1)) % p
                for settings, sign in e.terms:
                    sigma = modular_sign(settings, e.family)
                    for q in range(1, d):
                        k = -q * sigma % d
                        a, b = ((k if s == 1 else d - 1 + k) for s in settings)
                        c[a * size + b] += sign * 2 * pow(1 - pow(w, -q, p), -1, p)
                c %= p
                (_, gram), = type_blocks(indicator, 2, p)
                assert not (gram.astype(object) @ c % p).any()
                support = np.flatnonzero(c)
                assert set(support // size) == set(support % size) == set(range(size))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_frequency_lies_in_one_coset(self, d):
        # sum over types of count * |A| * |B| counts each frequency once
        indicator = np.zeros((d,) * 4, dtype=np.int64)
        p = polytope._primes(d)[0]
        for n in range(2, 41):
            blocks = type_blocks(indicator, n, p)
            assert sum(count * block.shape[0] for count, block in blocks) == (2 * d - 1) ** n

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
    def test_change_of_basis_and_coset_pairing(self, n, d):
        sc = Scenario(n, d)
        e = bell_expression(n, d)
        for p in polytope._primes(d):
            w = polytope._unit_root(p, d)
            q = party_change_of_basis(d, p, w)
            assert modular_rank(q, p) == 2 * d - 1
            q_n = np.ones((1, 1), dtype=np.int64)
            for _ in range(n):
                q_n = np.kron(q_n, q) % p
            every = np.arange(strategy_count(sc))
            m = polytope._cg_matrix(sc, every)
            assert np.array_equal(character_rows(sc, every, p, w), m @ q_n.T % p)

            nums = value_numerators(e, 0, strategy_count(sc))
            u = character_rows(sc, np.nonzero(nums == 2 * (d - 1))[0], p, w)
            g = u.T @ u % p
            scale = pow(d, 2 * n - 4, p)
            covered = np.zeros(g.shape, dtype=bool)
            row_count = np.zeros(g.shape[0], dtype=np.int64)
            _, indicator = expression_indicator(n, d)
            for rows, cols, block in coset_blocks(indicator, n, p):
                assert np.array_equal(g[np.ix_(rows, cols)], scale * block % p)
                covered[np.ix_(rows, cols)] = True
                row_count[rows] += 1
            assert (row_count == 1).all()
            assert not g[~covered].any()

    @pytest.mark.parametrize("n,d", [(4, 3), (3, 5), (6, 2)])
    def test_certificate_stays_in_blocks(self, n, d, monkeypatch):
        widths, ranges = [], []
        rank, numerators = polytope.modular_rank, polytope._slice_numerators

        def rank_spy(block, p):
            widths.append(block.shape[1])
            return rank(block, p)

        def numerators_spy(expression, lo, hi):
            ranges.append((lo, hi))
            return numerators(expression, lo, hi)

        monkeypatch.setattr(polytope, "modular_rank", rank_spy)
        monkeypatch.setattr(polytope, "_slice_numerators", numerators_spy)
        monkeypatch.setattr(polytope, "IntegerRankAccumulator", NoFallback)
        report = facet_check(bell_expression(n, d))
        assert report.is_facet
        # the first prime certifies: one elimination per shift block of the
        # zero coset's block, the lambda = 0 block first
        assert widths == [4 * d - 3] + [4 * d - 4] * (d - 1)
        # the scan and the saturating set each read the d**3 slice once at most
        assert sum(hi - lo for lo, hi in ranges) * d**2 <= 2 * d**3

    @pytest.mark.parametrize("d", range(2, 17))
    def test_primes_hold_roots_of_unity(self, d):
        primes = polytope._primes(d)
        assert len(set(primes)) == 2
        for p in primes:
            assert p < 2**21 and p % d == 1
            assert all(p % q for q in range(2, int(p**0.5) + 1))
            w = polytope._unit_root(p, d)
            assert [pow(w, k, p) == 1 for k in range(1, d + 1)] == [False] * (d - 1) + [True]
