"""Core data model: periods, items, observations, and universe algebra.

A dataset is a sequence of per-period maps from item id to an observed
(unit-value price, transaction quantity) pair. Item universes differ
across periods: items are born and die, and every downstream computation
is defined relative to a comparison between a base and a current period
plus a reference-period policy.

Datasets are immutable after construction and safe to share across
concurrent readers; all operations here are pure functions of their
inputs.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

ItemId = Union[str, int]


class PriceIndexError(Exception):
    """Base class for every error raised by this package."""


class UnknownPeriodError(PriceIndexError, KeyError):
    """A period index is not present in the dataset."""

    def __str__(self) -> str:
        return f"period {self.args[0]!r} is not in the dataset"


class InvalidComparisonError(PriceIndexError, ValueError):
    """A comparison does not fit the dataset (bad periods or window)."""


class InvalidDataError(PriceIndexError, ValueError):
    """The dataset breaks the input contract; the message names its first violation."""


class NumericalError(PriceIndexError, ArithmeticError):
    """A computed value left the positive finite range."""


@dataclass(frozen=True, slots=True, init=False)
class Observation:
    """Unit-value price and transaction quantity of one item in one period."""

    price: float
    quantity: float

    def __init__(self, price: float, quantity: float) -> None:
        # One frame per observation: the slots are set through their member
        # descriptors, which the frozen __setattr__ does not guard.
        if not (math.isfinite(price) and math.isfinite(quantity)):
            raise ValueError(f"non-finite observation {price!r}, {quantity!r}")
        _set_price(self, price)
        _set_quantity(self, quantity)

    @property
    def expenditure(self) -> float:
        return self.price * self.quantity

    @classmethod
    def from_expenditure(cls, expenditure: float, quantity: float) -> "Observation":
        """Build from (expenditure, quantity); the price is the unit value."""
        if quantity == 0:
            raise ValueError("cannot derive a unit value from zero quantity")
        return cls(expenditure / quantity, quantity)


_set_price = Observation.price.__set__
_set_quantity = Observation.quantity.__set__


def _observations(prices: Sequence[float], quantities: Iterable[float]) -> list[Observation]:
    """Internal: the Observations of prices and quantities that the caller has
    checked finite, in order, built with no Python frame per observation."""
    built = list(map(object.__new__, repeat(Observation, len(prices))))
    deque(map(_set_price, built, prices), maxlen=0)
    deque(map(_set_quantity, built, quantities), maxlen=0)
    return built


# One item's run in a dataset or a reference table: the positions of the
# periods it is in, its observations there, their expenditures and their
# quantities.
ItemRun = tuple[tuple[int, ...], tuple[Observation, ...], tuple[float, ...], tuple[float, ...]]
# A dataset's item-major view: every item's run, and each position's entrants.
ItemView = tuple[dict[ItemId, ItemRun], tuple[tuple[ItemId, ...], ...]]


def _summary(period: int, items: Mapping[ItemId, Observation]) -> tuple[float, str | None]:
    """The period's total expenditure and its first break of the input contract, or None.

    The total is the correctly rounded sum of the items' expenditures;
    past the float range (fsum raises) it is their plain sum: ±inf, or nan
    where terms overflow to both inf and -inf. The contract: the period
    has items, every price and quantity is positive (Observation already
    requires finite) and the total lies in (0, inf). A period that keeps
    it takes one pass, in which a term is nan where its price or quantity
    is not positive; any other is summed again and its violation worded.
    """
    values = items.values()
    try:
        # a generator, not a list: a period of a large dataset would hold
        # one float per item at once; 0.0, not 0: a float compares faster with a float
        total = math.fsum(o.price * o.quantity if o.price > 0.0 and o.quantity > 0.0
                          else math.nan for o in values)
    except OverflowError:
        total = math.nan
    if 0 < total < math.inf:
        return total, None
    try:
        total = math.fsum(o.price * o.quantity for o in values)
    except (OverflowError, ValueError):
        total = sum(o.price * o.quantity for o in values)
    if not items:
        return total, f"period {period} has no items"
    for item, o in items.items():
        if not o.price > 0:
            return total, f"price of item {item!r} in period {period} is {o.price!r}"
        if not o.quantity > 0:
            return total, f"quantity of item {item!r} in period {period} is {o.quantity!r}"
    return total, f"total expenditure of period {period} is {total!r}"


@dataclass(frozen=True)
class PeriodData:
    """All observed data of one period: an integer index and an item map.

    The total expenditure is the correctly rounded sum of the items'
    expenditures, ±inf past the float range (nan for inf and -inf terms).
    The period is checked against the input contract once, with its total.
    """

    period: int
    items: Mapping[ItemId, Observation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", MappingProxyType(dict(self.items)))
        total, violation = _summary(self.period, self.items)
        object.__setattr__(self, "_total_expenditure", total)
        object.__setattr__(self, "_violation", violation)

    @classmethod
    def _owning(cls, period: int, items: dict[ItemId, Observation]) -> "PeriodData":
        """Internal: the public constructor without its copy, for a fresh dict
        that the caller hands over and keeps no hold on; the same total and check."""
        self = object.__new__(cls)
        total, violation = _summary(period, items)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "items", MappingProxyType(items))
        object.__setattr__(self, "_total_expenditure", total)
        object.__setattr__(self, "_violation", violation)
        return self

    def total_expenditure(self) -> float:
        return self._total_expenditure


@dataclass(frozen=True)
class Dataset:
    """An ordered, gap-checkable sequence of period data.

    Construction only rejects duplicate period indices. The engines need
    the input contract: no period is empty, every price and quantity is
    positive and every period's total expenditure lies in (0, inf). Each
    period is checked once, when it is built, and the dataset keeps its
    first violation in period order, which :meth:`require_contract`
    raises. :meth:`validate` reports every finding, gaps included, so that
    ingestion can surface them all at once.

    The item-major view that multi-period reference tables are sliced
    from is built on first use (:meth:`_item_view`), never at construction.
    """

    periods: tuple[PeriodData, ...]
    _by_period: Mapping[int, PeriodData] = field(init=False, repr=False, compare=False)
    _violation: str | None = field(init=False, repr=False, compare=False)
    _view: ItemView | None = field(
        init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        periods = tuple(self.periods)
        index = {pd.period: pd for pd in periods}
        if len(index) != len(periods):
            raise ValueError("duplicate period indices")
        # Builders hand their periods over in order; only others are sorted.
        if list(index) != sorted(index):
            index = dict(sorted(index.items()))
            periods = tuple(index.values())
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "_by_period", MappingProxyType(index))
        violation = None
        for pd in periods:
            if pd._violation is not None:
                violation = pd._violation
                break
        object.__setattr__(self, "_violation", violation)

    @classmethod
    def build(cls, data: Mapping[int, Mapping[ItemId, tuple[float, float]]]) -> "Dataset":
        """Construct from ``{period: {item: (price, quantity)}}``."""
        return cls(tuple(
            PeriodData._owning(t, {i: Observation(p, q) for i, (p, q) in data[t].items()})
            for t in sorted(data)))

    def require_contract(self) -> None:
        """Raise InvalidDataError naming the first violation of the input contract."""
        if self._violation is not None:
            raise InvalidDataError(self._violation)

    def _item_view(self) -> ItemView:
        """The item-major view, built by the first call.

        Each item's run, items in order of first appearance: the positions
        in ``periods`` of the periods it is in, its observations there (the
        dataset's own), their expenditures, price * quantity, and their
        quantities, so that sums over a run read no observation. Beside the
        runs, each position's entrants: the items of its map, in the map's
        order, that the position before does not hold. One walk of the
        period maps builds both, and one assignment publishes them; two
        threads that race build them twice, which is harmless.
        """
        view = self._view
        if view is None:
            grouped: dict[ItemId, tuple[list[int], list[Observation], list[float], list[float]]] = {}
            entrants = []
            for k, pd in enumerate(self.periods):
                entering = []
                for item, o in pd.items.items():
                    run = grouped.get(item)
                    if run is None:
                        grouped[item] = [k], [o], [o.price * o.quantity], [o.quantity]
                        entering.append(item)
                    else:
                        ks, obs, spent, quantities = run
                        if ks[-1] != k - 1:
                            entering.append(item)
                        ks.append(k)
                        obs.append(o)
                        spent.append(o.price * o.quantity)
                        quantities.append(o.quantity)
                entrants.append(tuple(entering))
            runs = {item: (tuple(ks), tuple(obs), tuple(spent), tuple(quantities))
                    for item, (ks, obs, spent, quantities) in grouped.items()}
            view = runs, tuple(entrants)
            object.__setattr__(self, "_view", view)
        return view

    def period_indices(self) -> tuple[int, ...]:
        return tuple(pd.period for pd in self.periods)

    @property
    def first_period(self) -> int:
        return self.periods[0].period

    @property
    def last_period(self) -> int:
        return self.periods[-1].period

    def period_data(self, t: int) -> PeriodData:
        try:
            return self._by_period[t]
        except KeyError:
            raise UnknownPeriodError(t) from None

    def universe(self, t: int) -> frozenset[ItemId]:
        """Item universe of period ``t``: the key set of its data."""
        return frozenset(self.period_data(t).items)

    def observation(self, t: int, item: ItemId) -> Observation:
        items = self.period_data(t).items
        try:
            return items[item]
        except KeyError:
            raise KeyError(f"item {item!r} not present in period {t}") from None

    def has(self, t: int, item: ItemId) -> bool:
        """Whether ``item`` is in period ``t``'s universe (UnknownPeriodError if no ``t``)."""
        return item in self.period_data(t).items

    def universe_algebra(
        self, base: int, current: int
    ) -> tuple[frozenset[ItemId], frozenset[ItemId], frozenset[ItemId]]:
        """Split the two universes into (persistent, births, deaths).

        The three sets are pairwise disjoint; persistent + births is the
        current universe and persistent + deaths is the base universe.
        """
        u0 = self.universe(base)
        ut = self.universe(current)
        return u0 & ut, ut - u0, u0 - ut

    def value_ratio(self, base: int, current: int) -> float:
        """Ratio of total expenditures between the two periods.

        NumericalError unless the base total is positive and finite and
        the ratio finite.
        """
        denominator = self.period_data(base).total_expenditure()
        numerator = self.period_data(current).total_expenditure()
        if not 0 < denominator < math.inf:
            raise NumericalError(f"total expenditure of period {base} is {denominator!r}")
        if not math.isfinite(numerator / denominator):
            raise NumericalError(f"degenerate value ratio {numerator}/{denominator}")
        return numerator / denominator

    def validate(self) -> list["Violation"]:
        """Report structural problems; an empty list means the dataset is ok.

        Only the periods that break the input contract are walked, and
        each of their findings is reported.
        """
        violations: list[Violation] = []
        for pd in self.periods:
            if pd._violation is None:
                continue
            if not pd.items:
                violations.append(Violation("empty-period", pd.period, None, "period has no items"))
                continue
            for item, obs in pd.items.items():
                if obs.price <= 0:
                    violations.append(
                        Violation("non-positive-price", pd.period, item, f"price {obs.price!r}")
                    )
                if obs.quantity <= 0:
                    violations.append(
                        Violation("non-positive-quantity", pd.period, item, f"quantity {obs.quantity!r}")
                    )
            total = pd._total_expenditure
            if not 0 < total < math.inf:
                violations.append(Violation(
                    "total-out-of-range", pd.period, None, f"total expenditure {total!r}"))
        indices = self.period_indices()
        for a, b in zip(indices, indices[1:]):
            if b != a + 1:
                violations.append(
                    Violation("period-gap", b, None, f"period {b} follows {a}")
                )
        return violations


@dataclass(frozen=True)
class Violation:
    """One validation finding, addressable by code for mechanical checks."""

    code: str
    period: int | None
    item: ItemId | None
    message: str


@dataclass(frozen=True)
class Bilateral:
    """Reference set {base, current}: the direct two-period comparison."""

    def reference_periods(self, dataset: Dataset, base: int, current: int) -> tuple[int, ...]:
        return (base, current)


@dataclass(frozen=True)
class FullHistory:
    """Reference set {base, base+1, ..., current}."""

    def reference_periods(self, dataset: Dataset, base: int, current: int) -> tuple[int, ...]:
        return tuple(range(base, current + 1))


@dataclass(frozen=True)
class RollingWindow:
    """The last ``window`` periods ending at the current period.

    The base period must fall inside the window, otherwise the engines
    would compare against a period with no reference data.
    """

    window: int

    def __post_init__(self) -> None:
        if self.window < 2:
            raise InvalidComparisonError(f"rolling window must be >= 2, got {self.window}")

    def reference_periods(self, dataset: Dataset, base: int, current: int) -> tuple[int, ...]:
        start = max(dataset.first_period, current - self.window + 1)
        if base < start:
            raise InvalidComparisonError(
                f"base period {base} precedes rolling window start {start}"
            )
        return tuple(range(start, current + 1))


ReferencePolicy = Union[Bilateral, FullHistory, RollingWindow]


@dataclass(frozen=True)
class ComparisonSpec:
    """Which two periods to compare and which reference periods may be used."""

    base: int
    current: int
    policy: ReferencePolicy = field(default_factory=Bilateral)

    def __post_init__(self) -> None:
        if self.base >= self.current:
            raise InvalidComparisonError(
                f"base {self.base} must precede current {self.current}"
            )

    def reference_periods(self, dataset: Dataset) -> tuple[int, ...]:
        """Resolve the policy against the dataset, checking the input contract
        and that both endpoints exist; every engine calls this first."""
        dataset.require_contract()
        dataset.period_data(self.base)
        dataset.period_data(self.current)
        return self.policy.reference_periods(dataset, self.base, self.current)


class AxiomTest(enum.Enum):
    """The paper's five dynamic-universe tests and their sharper variants.

    ``dynindex.harness`` judges engines against them; the tests are named
    here so that the CLI can offer them without loading the harness.
    """

    T1_IDENTITY = "T1"
    T2_FIXED_BASKET = "T2"
    T3_UPPER_BOUND = "T3"
    T4_LOWER_BOUND = "T4"
    T3_SHARP = "t3"
    T4_SHARP = "t4"
    T5_RESPONSIVENESS = "T5"
    T5_SHARP = "t5"
