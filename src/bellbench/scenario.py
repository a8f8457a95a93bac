"""Bell scenarios, correlation weights, and the four-term inequality families.

Everything classical here is exact: weights are rationals with denominator
d - 1, and Bell values of rational probability tables are rationals.  Floats
only enter through numerically produced (quantum) tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import DomainError, FamilyMismatchError, InvalidScenarioError

MULTIPARTITE = "multipartite"
BIPARTITE_LEGACY = "bipartite-legacy"
FAMILIES = (MULTIPARTITE, BIPARTITE_LEGACY)

SettingsTuple = tuple[int, ...]
OutcomeTuple = tuple[int, ...]


def euclid_mod(x: int, d: int) -> int:
    """Least nonnegative residue of x modulo d (works for negative x)."""
    if d < 2:
        raise InvalidScenarioError(f"modulus must be at least 2, got {d}")
    return x % d


@dataclass(frozen=True)
class Scenario:
    """N spatially separated parties, two settings each, d outcomes per setting.

    The spin s = (d-1)/2 is kept as an exact Fraction: for even d it is a
    half-integer and must never be rounded.
    """

    parties: int
    outcomes: int

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise InvalidScenarioError(f"need at least 2 parties, got {self.parties}")
        if self.outcomes < 2:
            raise InvalidScenarioError(f"need at least 2 outcomes, got {self.outcomes}")

    @property
    def spin(self) -> Fraction:
        return Fraction(self.outcomes - 1, 2)

    @property
    def dimension(self) -> int:
        """Dimension of the joint Hilbert space d**N."""
        return self.outcomes**self.parties

    def settings_tuples(self) -> Iterator[SettingsTuple]:
        """All 2**N joint settings, lexicographic, settings labelled 1 and 2."""
        return itertools.product((1, 2), repeat=self.parties)

    def outcome_tuples(self) -> Iterator[OutcomeTuple]:
        return itertools.product(range(self.outcomes), repeat=self.parties)

    def check_settings(self, settings: SettingsTuple) -> None:
        if len(settings) != self.parties or any(s not in (1, 2) for s in settings):
            raise DomainError(f"invalid settings tuple {settings} for N={self.parties}")

    def check_outcomes(self, outcomes: OutcomeTuple) -> None:
        if len(outcomes) != self.parties or any(
            not 0 <= x < self.outcomes for x in outcomes
        ):
            raise DomainError(
                f"invalid outcome tuple {outcomes} for d={self.outcomes}"
            )


def modular_sign(settings: SettingsTuple, family: str) -> int:
    """Sign multiplying the outcome sum inside the mod-d reduction.

    multipartite:     (-1)**prod(settings); equals -1 iff every setting is 1.
    bipartite-legacy: step function of i - j, with the i == j case mapping
                      to +1.
    """
    if family == MULTIPARTITE:
        chi = 1
        for s in settings:
            chi *= s
        return -1 if chi % 2 else 1
    if family == BIPARTITE_LEGACY:
        i, j = settings
        return -1 if i - j < 0 else 1
    raise DomainError(f"unknown weight family {family!r}")


def weight_multipartite(
    settings: SettingsTuple, outcomes: OutcomeTuple, scenario: Scenario
) -> Fraction:
    """Normalized correlation weight f/s for the N-partite family.

    f = s - mod(sign * sum(outcomes), d) with sign = (-1)**prod(settings);
    the result is exact with denominator dividing d - 1 and lies in [-1, 1].
    """
    scenario.check_settings(settings)
    scenario.check_outcomes(outcomes)
    d = scenario.outcomes
    sign = modular_sign(settings, MULTIPARTITE)
    m = euclid_mod(sign * sum(outcomes), d)
    return Fraction(d - 1 - 2 * m, d - 1)


def weight_bipartite(i: int, j: int, m: int, n: int, scenario: Scenario) -> Fraction:
    """Normalized two-party weight with the step-function sign convention."""
    if scenario.parties != 2:
        raise FamilyMismatchError(
            f"bipartite-legacy weights need N=2, got N={scenario.parties}"
        )
    scenario.check_settings((i, j))
    scenario.check_outcomes((m, n))
    d = scenario.outcomes
    sign = modular_sign((i, j), BIPARTITE_LEGACY)
    mm = euclid_mod(sign * (m + n), d)
    return Fraction(d - 1 - 2 * mm, d - 1)


def _canonical_terms(parties: int, family: str) -> tuple[tuple[SettingsTuple, int], ...]:
    if family == BIPARTITE_LEGACY:
        return (((1, 1), 1), ((1, 2), 1), ((2, 1), -1), ((2, 2), 1))
    all_ones = (1,) * parties
    all_twos = (2,) * parties
    alt_from_1 = tuple(1 if k % 2 == 0 else 2 for k in range(parties))
    alt_from_2 = tuple(2 if k % 2 == 0 else 1 for k in range(parties))
    return ((all_ones, 1), (alt_from_1, 1), (alt_from_2, 1), (all_twos, -1))


@dataclass(frozen=True)
class BellExpression:
    """Signed four-term combination of correlation functions, bounded by 2.

    terms is a tuple of (settings tuple, sign).  The bound is stored as an
    exact rational so saturation can be tested without tolerances; it may be
    overridden (e.g. deliberately unattainable) for facet-machinery tests.
    """

    scenario: Scenario
    terms: tuple[tuple[SettingsTuple, int], ...]
    family: str
    bound: Fraction = field(default_factory=lambda: Fraction(2))

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.family == BIPARTITE_LEGACY and self.scenario.parties != 2:
            raise FamilyMismatchError("bipartite-legacy family requires N=2")
        if self.terms != _canonical_terms(self.scenario.parties, self.family):
            raise DomainError(
                f"terms do not match the canonical {self.family} pattern"
            )

    def weight(self, settings: SettingsTuple, outcomes: OutcomeTuple) -> Fraction:
        if self.family == BIPARTITE_LEGACY:
            return weight_bipartite(*settings, *outcomes, self.scenario)
        return weight_multipartite(settings, outcomes, self.scenario)

    def with_bound(self, bound: Union[int, Fraction]) -> "BellExpression":
        return BellExpression(self.scenario, self.terms, self.family, Fraction(bound))


def bell_expression(
    parties: int, outcomes: int, family: str = MULTIPARTITE
) -> BellExpression:
    """The four-term inequality for the given scenario.

    The multipartite family combines (+ all-ones), (+ alternating from 1),
    (+ alternating from 2), (- all-twos); the legacy two-party form instead
    signs the terms (+11, +12, -21, +22).
    """
    scenario = Scenario(parties, outcomes)
    return BellExpression(scenario, _canonical_terms(parties, family), family)


@lru_cache(maxsize=None)
def weight_numerators(
    parties: int, outcomes: int, family: str, settings: SettingsTuple
) -> np.ndarray:
    """Integer numerators (d-1)*weight over all outcome tuples.

    Shape (d,)*N with party 1 on axis 0; read-only and cached, since the same
    array is reused by table evaluation, strategy enumeration, and the
    splitter kernel.
    """
    d = outcomes
    total = np.zeros((d,) * parties, dtype=np.int64)
    for axis in range(parties):
        shape = [1] * parties
        shape[axis] = d
        total = total + np.arange(d, dtype=np.int64).reshape(shape)
    sign = modular_sign(settings, family)
    m = np.mod(sign * total, d)
    num = (d - 1) - 2 * m
    num.setflags(write=False)
    return num


class ProbabilityTable:
    """Joint outcome probabilities for every one of the 2**N joint settings.

    Each block is a dense (d,)*N array, party 1 on axis 0 (most significant
    in the flattened mixed-radix order).  Blocks are either float64 or exact
    (object arrays of Fractions); exact tables evaluate to exact Bell values.
    """

    __slots__ = ("scenario", "blocks", "exact")

    def __init__(
        self,
        scenario: Scenario,
        blocks: Mapping[SettingsTuple, np.ndarray],
        validate: bool = True,
    ) -> None:
        self.scenario = scenario
        shape = (scenario.outcomes,) * scenario.parties
        stored: dict[SettingsTuple, np.ndarray] = {}
        for settings in scenario.settings_tuples():
            if settings not in blocks:
                raise DomainError(f"missing block for settings {settings}")
            arr = np.asarray(blocks[settings])
            if arr.size != scenario.dimension:
                raise DomainError(
                    f"block for {settings} has {arr.size} entries, "
                    f"expected {scenario.dimension}"
                )
            arr = arr.reshape(shape).copy()
            arr.setflags(write=False)
            stored[settings] = arr
        if len(blocks) != len(stored):
            raise DomainError("table has unknown settings tuples")
        self.blocks = stored
        self.exact = all(a.dtype == object for a in stored.values())
        if validate:
            self._validate()

    def _validate(self) -> None:
        for settings, arr in self.blocks.items():
            if arr.dtype == object:
                if any(p < 0 for p in arr.flat):
                    raise DomainError(f"negative probability in block {settings}")
                if sum(arr.flat) != 1:
                    raise DomainError(f"block {settings} does not sum to 1 exactly")
            else:
                if float(arr.min()) < -1e-12:
                    raise DomainError(f"negative probability in block {settings}")
                if abs(float(arr.sum()) - 1.0) > 1e-9:
                    raise DomainError(f"block {settings} sums to {arr.sum()}, not 1")

    @classmethod
    def uniform(cls, scenario: Scenario, exact: bool = False) -> "ProbabilityTable":
        if exact:
            p = Fraction(1, scenario.dimension)
            block = np.full((scenario.dimension,), p, dtype=object)
        else:
            block = np.full((scenario.dimension,), 1.0 / scenario.dimension)
        return cls(
            scenario,
            {s: block.copy() for s in scenario.settings_tuples()},
            validate=False,
        )

    @classmethod
    def mix(
        cls,
        first: "ProbabilityTable",
        second: "ProbabilityTable",
        weight: Union[float, Fraction],
    ) -> "ProbabilityTable":
        """Convex combination weight*first + (1-weight)*second."""
        if first.scenario != second.scenario:
            raise DomainError("cannot mix tables over different scenarios")
        exact = first.exact and second.exact and isinstance(weight, Fraction)
        blocks = {}
        for settings in first.scenario.settings_tuples():
            a, b = first.blocks[settings], second.blocks[settings]
            if exact:
                blocks[settings] = a * weight + b * (1 - weight)
            else:
                w = float(weight)
                blocks[settings] = (
                    np.asarray(a, dtype=float) * w
                    + np.asarray(b, dtype=float) * (1.0 - w)
                )
        return cls(first.scenario, blocks, validate=False)


def correlation(
    table: ProbabilityTable,
    settings: SettingsTuple,
    family: str = MULTIPARTITE,
) -> Union[float, Fraction]:
    """Weighted sum of one settings block; exact when the table is exact.

    An exact block is summed in integers over its entries' common
    denominator, so no Fraction arithmetic runs per entry.
    """
    if settings not in table.blocks:
        raise DomainError(f"settings {settings} not present in table")
    sc = table.scenario
    if family == BIPARTITE_LEGACY and sc.parties != 2:
        raise FamilyMismatchError("bipartite-legacy weights need N=2")
    nums = weight_numerators(sc.parties, sc.outcomes, family, settings)
    block = table.blocks[settings]
    if block.dtype == object:
        den = math.lcm(*(p.denominator for p in block.flat))
        acc = sum(
            int(w) * p.numerator * (den // p.denominator) for w, p in zip(nums.flat, block.flat)
        )
        return Fraction(acc, den * (sc.outcomes - 1))
    return float(np.dot(nums.ravel(), block.ravel())) / (sc.outcomes - 1)


def bell_value(
    expression: BellExpression, table: ProbabilityTable
) -> Union[float, Fraction]:
    """Signed sum of the expression's four correlations on the table."""
    if table.scenario != expression.scenario:
        raise DomainError(
            f"table scenario {table.scenario} does not match expression "
            f"scenario {expression.scenario}"
        )
    total: Union[float, Fraction] = Fraction(0) if table.exact else 0.0
    for settings, sign in expression.terms:
        total = total + sign * correlation(table, settings, expression.family)
    return total
