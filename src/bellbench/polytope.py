"""Deterministic local strategies, exact classical maxima, and facet checks.

Strategies are enumerated in mixed-radix index order (party 1 / setting 1
least significant) so the work can be partitioned into contiguous index
ranges whose partial results merge deterministically.  Every exact path
reads one d**3 slice of (2,d) values, built from the scenario's weight
tables: for N > 2 the value spectrum is the (2,d) one scaled by
d**(2N-4), and a shift symmetry folds that onto the slice (see
classical_maximum).  All classical values are exact rationals.  The facet
rank is certified exactly modulo a prime, for every N at once, from the zero
coset's character-sum block, which the shift splits into d blocks read from
the slice's DFT (see _affine_rank), with an exact integer rank as the
fallback.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .parallel import parallel_map
from .scenario import (
    BellExpression,
    ProbabilityTable,
    Scenario,
    SettingsTuple,
    weight_numerators,
)

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 16
_ROW_BLOCK = 512


@dataclass(frozen=True)
class DeterministicStrategy:
    """One fixed outcome per (party, setting); a local-polytope vertex.

    assignment[j][i] is the outcome party j+1 produces on setting i+1.
    """

    scenario: Scenario
    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.scenario.parties:
            raise DomainError("assignment must cover every party")
        for pair in self.assignment:
            if len(pair) != 2 or any(
                not 0 <= x < self.scenario.outcomes for x in pair
            ):
                raise DomainError(f"outcome pair {pair} out of range")

    @property
    def index(self) -> int:
        d = self.scenario.outcomes
        idx = 0
        for j in reversed(range(self.scenario.parties)):
            for i in (1, 0):
                idx = idx * d + self.assignment[j][i]
        return idx

    @classmethod
    def from_index(cls, scenario: Scenario, index: int) -> "DeterministicStrategy":
        d = scenario.outcomes
        if not 0 <= index < d ** (2 * scenario.parties):
            raise DomainError(f"strategy index {index} out of range")
        rest = index
        pairs = []
        for _ in range(scenario.parties):
            a = rest % d
            rest //= d
            b = rest % d
            rest //= d
            pairs.append((a, b))
        return cls(scenario, tuple(pairs))

    def outcomes_at(self, settings: SettingsTuple) -> tuple[int, ...]:
        return tuple(self.assignment[j][s - 1] for j, s in enumerate(settings))


def strategy_count(scenario: Scenario) -> int:
    return scenario.outcomes ** (2 * scenario.parties)


def _check_budget(total: int, budget: int) -> int:
    if total > budget:
        raise ResourceError(
            f"enumeration of {total} strategies exceeds the budget {budget}"
        )
    return total


def enumerate_strategies(
    scenario: Scenario,
    start: int = 0,
    stop: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[DeterministicStrategy]:
    """Yield strategies in index order; restartable from any index."""
    total = _check_budget(strategy_count(scenario), budget)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise DomainError(f"bad enumeration range [{start}, {stop})")
    for idx in range(start, stop):
        yield DeterministicStrategy.from_index(scenario, idx)


def strategy_table(strategy: DeterministicStrategy) -> ProbabilityTable:
    """Exact table with unit mass on the strategy's outcome per settings."""
    sc = strategy.scenario
    shape = (sc.outcomes,) * sc.parties
    blocks = {}
    for settings in sc.settings_tuples():
        arr = np.full(shape, Fraction(0), dtype=object)
        arr[strategy.outcomes_at(settings)] = Fraction(1)
        blocks[settings] = arr
    return ProbabilityTable(sc, blocks, validate=False)


def _digit_arrays(idx: np.ndarray, parties: int, d: int) -> list[np.ndarray]:
    """Mixed-radix digits of each index; slot 2*j + i is (party j, setting i)."""
    digits = []
    rest = idx.copy()
    for _ in range(2 * parties):
        digits.append(rest % d)
        rest //= d
    return digits


def _slice_numerators(expression: BellExpression, lo: int, hi: int) -> np.ndarray:
    """(d-1) * Bell value of the (2,d) strategies with B2 = 0 and B1 in [lo, hi).

    Shaped (B1, A2, A1), so C order is strategy index order.  Every term
    reads the weight table of its first two settings at (A_s1, B_s2), which
    is the (2,d) member's term at every N (see classical_maximum).
    """
    d = expression.scenario.outcomes
    nums = np.zeros((hi - lo, d, d), dtype=np.int64)
    for settings, sign in expression.terms:
        table = weight_numerators(2, d, expression.family, settings[:2])
        by_b = (table[:, lo:hi] if settings[1] == 1 else table[:, :1]).T
        nums += sign * (by_b[:, None, :] if settings[0] == 1 else by_b[:, :, None])
    return nums


@dataclass(frozen=True)
class ClassicalMaximum:
    """Exact maximum over deterministic strategies plus the value spectrum."""

    expression: BellExpression
    max_value: Fraction
    argmax: DeterministicStrategy
    histogram: dict[Fraction, int]

    @property
    def strategy_total(self) -> int:
        return strategy_count(self.expression.scenario)


def classical_maximum(
    expression: BellExpression,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ClassicalMaximum:
    """Exact maximum of the expression over local strategies, with its spectrum.

    For N > 2, with X, Y the sums of the setting-1 and setting-2 outcomes of
    the even-numbered parties (counting from 0) and Z, W those of the odd
    ones, the four terms' outcome sums are X+Z, X+W, Y+Z and Y+W: those of
    the (2,d) member at strategy (X, Y, Z, W), with the same signs.  That map
    is d**(2N-4)-to-one onto Z_d**4, and it sends every index below d**4 to
    itself.  Every term reads A_s1 + B_s2, so the shift (c, c, -c, -c) on
    (A1, A2, B1, B2) keeps every (2,d) value, and each shift orbit's one
    member with B2 = 0 is its lowest index.  So the d**3 strategies of that
    slice give the histogram (counts scaled by d**(2N-3)), the maximum and
    the lowest-index argmax (padded with zeros) exactly.

    The slice is scanned in B1 slabs whose partial results merge
    associatively (first maximum, summed value counts), so the output does
    not depend on the slabs or the thread count.  The budget bounds the d**3
    scanned strategies.
    """
    sc = expression.scenario
    d = sc.outcomes
    _check_budget(d**3, budget)
    offset = 4 * (d - 1)
    rows = max(1, _CHUNK // d**2)

    def work(lo: int):
        nums = _slice_numerators(expression, lo, min(lo + rows, d)).ravel()
        k = int(np.argmax(nums))
        return int(nums[k]), lo * d**2 + k, np.bincount(nums + offset, minlength=2 * offset + 1)

    best_num, best_idx, counts = None, None, 0
    for num, idx, slab_counts in parallel_map(threads, work, range(0, d, rows)):
        if best_num is None or num > best_num:
            best_num, best_idx = num, idx
        counts = counts + slab_counts
    scale = d ** (2 * sc.parties - 3)
    histogram = {
        Fraction(v - offset, d - 1): c * scale for v, c in enumerate(counts.tolist()) if c
    }
    return ClassicalMaximum(
        expression,
        Fraction(best_num, d - 1),
        DeterministicStrategy.from_index(sc, best_idx),
        histogram,
    )


def cg_vector(strategy: DeterministicStrategy) -> np.ndarray:
    """Collins-Gisin embedding: tensor product of per-party 0/1 vectors.

    Per party the vector is [1, P(0|s1), .., P(d-2|s1), P(0|s2), .., P(d-2|s2)],
    so the outcome d-1 is the dropped coordinate and the full joint
    distribution is recoverable.  Length (2d-1)**N, first entry always 1.
    """
    d = strategy.scenario.outcomes
    vec = np.ones(1, dtype=np.int64)
    for a, b in strategy.assignment:
        party = np.zeros(2 * d - 1, dtype=np.int64)
        party[0] = 1
        if a < d - 1:
            party[1 + a] = 1
        if b < d - 1:
            party[d + b] = 1
        vec = np.kron(vec, party)
    return vec


def _party_cg_blocks(scenario: Scenario, digits: list[np.ndarray]) -> list[np.ndarray]:
    """Per-party CG vectors for a batch of strategies given digit arrays."""
    d = scenario.outcomes
    n_rows = digits[0].shape[0]
    blocks = []
    for j in range(scenario.parties):
        block = np.zeros((n_rows, 2 * d - 1), dtype=np.int64)
        block[:, 0] = 1
        rows = np.arange(n_rows)
        a, b = digits[2 * j], digits[2 * j + 1]
        mask_a = a < d - 1
        block[rows[mask_a], 1 + a[mask_a]] = 1
        mask_b = b < d - 1
        block[rows[mask_b], d + b[mask_b]] = 1
        blocks.append(block)
    return blocks


def _cg_matrix(scenario: Scenario, indices: np.ndarray) -> np.ndarray:
    """CG vectors, one row per strategy index; vectorized tensor product."""
    digits = _digit_arrays(indices.astype(np.int64), scenario.parties, scenario.outcomes)
    blocks = _party_cg_blocks(scenario, digits)
    out = blocks[0]
    for block in blocks[1:]:
        out = (out[:, :, None] * block[:, None, :]).reshape(out.shape[0], -1)
    return out


class IntegerRankAccumulator:
    """Streaming exact rank of integer rows via fraction-free elimination.

    Rows are held as Python integers, which cannot overflow; each new pivot
    row is divided by its gcd and made positive at its pivot.
    """

    def __init__(self) -> None:
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: np.ndarray) -> bool:
        """Reduce a row against the basis; True if it increased the rank."""
        row = np.array(row, dtype=object)
        for col, pivot_row in zip(self.pivots, self.rows):
            if row[col]:
                row = pivot_row[col] * row - row[col] * pivot_row
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return False
        col = int(nz[0])
        g = math.gcd(*row.tolist())
        row = row // (g if row[col] > 0 else -g)
        pos = bisect.bisect(self.pivots, col)
        self.pivots.insert(pos, col)
        self.rows.insert(pos, row)
        return True


@dataclass(frozen=True)
class FacetReport:
    """Tightness certificate for one expression against the local polytope."""

    expression: BellExpression
    dimension: int
    classical_max: Fraction
    saturating_count: int
    affine_rank: int
    is_facet: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.expression.scenario.parties,
            "d": self.expression.scenario.outcomes,
            "family": self.expression.family,
            "dimension": self.dimension,
            "classical_max": str(self.classical_max),
            "saturating_count": self.saturating_count,
            "affine_rank": self.affine_rank,
            "is_facet": self.is_facet,
        }


def polytope_dimension(scenario: Scenario) -> int:
    """Full dimension of the local polytope in CG coordinates."""
    return (2 * scenario.outcomes - 1) ** scenario.parties - 1


def modular_rank(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an integer matrix, for a prime p < 2**21 (see _primes).

    Row-pivoted Gaussian elimination on int64 residues.  Each step reduces
    only the pivot column and the pivot row mod p and applies the rank-1
    update unreduced, so after k steps, k at most the width and far below
    2**21, every entry is below p + k * p**2 < 2**63.
    """
    a = np.mod(matrix, p).astype(np.int64, copy=False)
    n, m = a.shape
    rank = 0
    for c in range(m):
        if rank == n:
            break
        a[rank:, c] %= p
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank, c + 1 :] %= p
        mult = a[rank + 1 :, c] * pow(int(a[rank, c]), -1, p) % p
        a[rank + 1 :, c + 1 :] -= mult[:, None] * a[rank, c + 1 :]
        rank += 1
    return rank


def _saturating_blocks(hit: np.ndarray, parties: int, total: int) -> Iterator[np.ndarray]:
    """Indices of the strategies whose (2,d) image (W, Z, Y, X) is saturating,
    in index order.  hit is the saturating set of the B2 = 0 slice, shaped
    (B1, A2, A1), read at the image's shift-orbit member with B2 = 0,
    (Z - W, Y + W, X + W) mod d (see classical_maximum).

    Yielded in blocks of at most _ROW_BLOCK, so a caller building their CG
    rows never holds more than one block of them.
    """
    d = hit.shape[0]
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = _digit_arrays(idx, parties, d)
        x, y, z, w = (sum(digits[k::4]) % d for k in range(4))
        hits = idx[hit[(z - w) % d, (y + w) % d, (x + w) % d]]
        for k in range(0, hits.size, _ROW_BLOCK):
            yield hits[k : k + _ROW_BLOCK]


def _streamed_affine_rank(sc: Scenario, hit: np.ndarray, budget: int) -> int:
    """Exact affine rank of the saturating vertices, capped at D - 1.

    Difference rows are streamed in index order through the integer rank
    accumulator, stopping early once the rank reaches D - 1.
    """
    total = _check_budget(strategy_count(sc), budget)
    dim = polytope_dimension(sc)
    acc = IntegerRankAccumulator()
    base_row: Optional[np.ndarray] = None
    for block in _saturating_blocks(hit, sc.parties, total):
        mat = _cg_matrix(sc, block)
        row0 = 0
        if base_row is None:
            base_row = mat[0]
            row0 = 1
        for k in range(row0, mat.shape[0]):
            acc.add(mat[k] - base_row)
            if acc.rank >= dim - 1:
                return acc.rank
    return acc.rank


@lru_cache(maxsize=None)
def _primes(d: int) -> tuple[int, int]:
    """The two largest primes p < 2**21 with p = 1 (mod d), so GF(p) has
    w**d = 1.  Below 2**21 the int64 arithmetic is exact: each DFT
    contraction stays below d * p**2, and every entry of modular_rank's
    elimination below p + k * p**2 after k steps.
    """
    top = (2**21 - 2) // d * d + 1
    primes = (p for p in range(top, 2, -d) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    return next(primes), next(primes)


def _unit_root(p: int, d: int) -> int:
    """A primitive d-th root of unity in GF(p), for a prime p = 1 (mod d)."""
    for x in range(2, p):
        w = pow(x, (p - 1) // d, p)
        if len({pow(w, k, p) for k in range(d)}) == d:
            return w


def _zero_coset_certifies(hit: np.ndarray, p: int) -> bool:
    """True if the zero coset's block has corank 1 at the prime p, which
    certifies rank(M) = D for a level set of the expression at every N.

    hit is the saturating set of the B2 = 0 slice, shaped (B1, A2, A1).  The
    block G has rows and columns (a, b) in P x P, P the 2d-1 Collins-Gisin
    pairs of one party, and G[(a, b), (a', b')] = S^(a - a', b - b') mod p.
    By the shift (see _affine_rank) that is d * T(b1 - b1', a2 - a2', a1 - a1'),
    T the slice's 3-axis DFT, when lambda(a, b) = lambda(a', b'), and 0
    otherwise; d is a unit mod p, so the d blocks of T have G's rank.
    """
    d = hit.shape[0]
    w = _unit_root(p, d)
    dft = np.array([pow(w, k, p) for k in range(d)])[np.outer(range(d), range(d)) % d]
    # Separable DFT over the three axes; each contraction stays below 2**63.
    t = hit.astype(np.int64)
    for _ in range(3):
        t = np.tensordot(t, dft, axes=([0], [1])) % p
    ks, zeros = np.arange(1, d), np.zeros(d - 1, dtype=np.int64)
    pairs = np.vstack([[0, 0], np.column_stack([ks, zeros]), np.column_stack([zeros, ks])])
    size = len(pairs) ** 2
    a, b = np.divmod(np.arange(size), len(pairs))
    lam = (pairs[a].sum(axis=1) - pairs[b].sum(axis=1)) % d
    rank = 0
    for k in range(d):
        rows = np.flatnonzero(lam == k)
        pa, pb = pairs[a[rows]], pairs[b[rows]]
        da, db = (pa[:, None] - pa[None]) % d, (pb[:, None] - pb[None]) % d
        rank += modular_rank(t[db[..., 0], da[..., 1], da[..., 0]], p)
    if rank == size:
        raise NumericError(f"zero-coset block of full rank {rank} on a face")
    return rank == size - 1


def _affine_rank(expression: BellExpression, target_num: int, budget: int) -> int:
    """Affine rank of the saturating vertices, capped at D - 1.

    With CG rows M (first coordinate 1) it is rank(M) - 1, and rank(M) <= D:
    value - bound, nonzero as no expression is constant on the vertices,
    vanishes on every row.  The saturating set is phi^-1(S) (classical_maximum).
    1. A per-party change of basis, invertible over C with w a primitive d-th
       root of unity (and mod p), sends row s to the characters w**<f, s>;
       M^T M becomes d**(2N-4) * S^(kappa) at f + g = phi^T kappa, else 0, so
       rank(M) is the sum over the cosets of im(phi^T) of their blocks' ranks.
    2. Party j >= 2's offset x_j from party j mod 2 fixes a coset; its block is
       G[A x B, A x B], A (B) the pairs a with a + x_j a pair for every even
       (odd) j, G the zero coset's block (_zero_coset_certifies).  Over C, G is
       the Gram matrix of u_ab(s) = w**<(a, b), s>, s in S, so that block's
       rank is dim span{u_i : i in A x B}.
    3. value - bound = sum_i c_i u_i vanishes on S, so c is a relation among
       the u's: -bound at (0, 0), and for each term, with settings (s1, s2),
       sign and modular sign sigma, the sawtooth's DFT sign * 2/(1 - w**-q),
       never 0, at q * sigma * (e_s1, e_s2) for every q != 0.  Both
       projections of supp(c) hold every nonzero pair, and (0, 0) unless
       bound = 0, and no offset x != 0 keeps either inside P.  (At d = 2,
       x = (1, 1) keeps the nonzero pairs, but the (2,2) spectrum is {-2, 2},
       so a saturated bound is never 0 there.)
    4. Reducing G's entries in Z[w] mod p gives rank_p(G) <= rank_C(G), and c
       gives rank_C(G) <= |P|**2 - 1.  So if rank_p(G) = |P|**2 - 1, c is the
       u's one relation, and a block is singular only if A x B holds supp(c),
       which by 3 only the zero coset's does.  Then rank(M) = (D + 1) - 1 = D
       and the affine rank is D - 1, whatever N is.
    5. The shift (c, c, -c, -c) on (A1, A2, B1, B2) keeps S, so
       S^(k) = w**(c * (kB1 + kB2 - kA1 - kA2)) * S^(k) is 0 unless
       kA1 + kA2 = kB1 + kB2, and there it is d times the B2 = 0 slice's DFT
       at (kB1, kA2, kA1).  So G[(a, b), (a', b')] is 0 unless
       lambda(a, b) = lambda(a', b'), lambda(a, b) = a1 + a2 - b1 - b2 mod d,
       and rank_p(G) is the sum of the ranks of those d blocks, 4d - 3 wide
       at lambda = 0 and 4d - 4 wide elsewhere.
    rank_p(G) = |P|**2 would make rank(M) = D + 1 and raises NumericError.
    Without a certificate under both primes, the exact integer stream decides.
    """
    sc = expression.scenario
    hit = _slice_numerators(expression, 0, sc.outcomes) == target_num
    if any(_zero_coset_certifies(hit, p) for p in _primes(sc.outcomes)):
        return polytope_dimension(sc) - 1
    return _streamed_affine_rank(sc, hit, budget)


def facet_check(
    expression: BellExpression,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> FacetReport:
    """Certify tightness: exact classical max plus exact affine rank.

    The affine rank of the saturating vertices (Bell value equal to the
    bound) comes from the mod-p rank of one character block of their Gram
    matrix, the zero coset's, whatever N is, with an exact integer fallback
    when it does not certify (see _affine_rank).  A bound that is never
    attained yields rank 0 and is_facet False rather than an error.  The
    budget bounds the work actually done: the (4d-3)**2 + (d-1)(4d-4)**2
    entries of the block's d shift blocks, checked before anything runs, the
    d**3 strategies of the classical scan, and the d**(2N) of the fallback if
    it runs.
    """
    sc = expression.scenario
    dim = polytope_dimension(sc)
    d = sc.outcomes
    entries = (4 * d - 3) ** 2 + (d - 1) * (4 * d - 4) ** 2
    if entries > budget:
        raise ResourceError(
            f"the zero-coset block's {d} shift blocks' {entries} entries exceed the budget {budget}"
        )
    cm = classical_maximum(expression, budget=budget, threads=threads)

    target = expression.bound * (d - 1)
    saturating = (
        cm.histogram.get(expression.bound, 0) if target.denominator == 1 else 0
    )
    attained = cm.max_value == expression.bound

    rank = 0
    if saturating > 0:
        rank = _affine_rank(expression, int(target), budget)

    return FacetReport(
        expression=expression,
        dimension=dim,
        classical_max=cm.max_value,
        saturating_count=saturating,
        affine_rank=rank,
        is_facet=attained and rank == dim - 1,
    )
