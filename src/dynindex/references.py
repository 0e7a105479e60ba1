"""Reference prices, reference quantities, and the fixed-point solver.

Reference prices make quantities of different items commensurable; some
constructions (deflated unit values, the geometric product-dummy price)
depend on the index series itself and must be solved jointly with it.
The solver alternates the two maps, with optional damping in log space,
from the identity series or from a direct solve of the GK or TPD system,
which are linear in the right variables; its first sweep then certifies
that solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Protocol

from .core import (
    ComparisonSpec,
    Dataset,
    ItemId,
    NumericalError,
    Observation,
    PriceIndexError,
)


class SchemeError(PriceIndexError):
    """A reference price or quantity scheme is inapplicable to an item."""


def _item_periods(dataset: Dataset, item: ItemId, reference_periods: tuple[int, ...]) -> list[int]:
    periods = [r for r in reference_periods if dataset.has(r, item)]
    if not periods:
        raise SchemeError(f"item {item!r} absent from all reference periods {reference_periods}")
    return periods


def lehr_price(dataset: Dataset, item: ItemId, reference_periods: tuple[int, ...]) -> float:
    """Quantity-weighted unit value of the item over the periods it is present."""
    periods = _item_periods(dataset, item, reference_periods)
    num = math.fsum(dataset.observation(r, item).expenditure for r in periods)
    den = math.fsum(dataset.observation(r, item).quantity for r in periods)
    return num / den


def deflated_price(
    dataset: Dataset,
    item: ItemId,
    reference_periods: tuple[int, ...],
    index_series: Mapping[int, float],
) -> float:
    """Quantity-weighted mean of index-deflated prices over the item's periods."""
    periods = _item_periods(dataset, item, reference_periods)
    terms = []
    weights = []
    for r in periods:
        obs = dataset.observation(r, item)
        deflator = _series_value(index_series, r)
        terms.append(obs.price / deflator * obs.quantity)
        weights.append(obs.quantity)
    num = math.fsum(terms)
    den = math.fsum(weights)
    return num / den


def tpd_price(
    dataset: Dataset,
    item: ItemId,
    reference_periods: tuple[int, ...],
    index_series: Mapping[int, float],
) -> float:
    """Expenditure-share-weighted geometric mean of index-deflated prices.

    The per-period weight is the item's expenditure share within that
    period's universe; exponents are normalized to sum to one over the
    periods the item is present.
    """
    periods = _item_periods(dataset, item, reference_periods)
    shares = []
    logs = []
    for r in periods:
        obs = dataset.observation(r, item)
        total = dataset.period_data(r).total_expenditure()
        shares.append(obs.expenditure / total)
        logs.append(math.log(obs.price / _series_value(index_series, r)))
    weight_sum = math.fsum(shares)
    return math.exp(math.fsum(w / weight_sum * lg for w, lg in zip(shares, logs)))


def _series_value(index_series: Mapping[int, float], r: int) -> float:
    try:
        value = index_series[r]
    except KeyError:
        raise SchemeError(f"index series has no value for period {r}") from None
    if value <= 0 or not math.isfinite(value):
        raise NumericalError(f"index series value for period {r} is {value!r}")
    return value


# ---------------------------------------------------------------------------
# Reference price schemes


class LehrUnitValue:
    """Undeflated unit value over the reference periods. Index-free."""

    needs_index = False

    def price_for(self, dataset, item, reference_periods, base, current, index_series=None):
        return lehr_price(dataset, item, reference_periods)

    def __repr__(self) -> str:
        return "LehrUnitValue()"


class DeflatedUnitValue:
    """Unit value of index-deflated prices; requires a concurrent index series."""

    needs_index = True

    def price_for(self, dataset, item, reference_periods, base, current, index_series=None):
        if index_series is None:
            raise SchemeError("deflated unit values need an index series")
        return deflated_price(dataset, item, reference_periods, index_series)

    def __repr__(self) -> str:
        return "DeflatedUnitValue()"


class TPDGeometric:
    """Share-weighted geometric deflated price; requires a concurrent index series."""

    needs_index = True

    def price_for(self, dataset, item, reference_periods, base, current, index_series=None):
        if index_series is None:
            raise SchemeError("geometric product-dummy prices need an index series")
        return tpd_price(dataset, item, reference_periods, index_series)

    def __repr__(self) -> str:
        return "TPDGeometric()"


class FixedBase:
    """Base-period price where available, current-period price otherwise."""

    needs_index = False

    def price_for(self, dataset, item, reference_periods, base, current, index_series=None):
        if dataset.has(base, item):
            return dataset.observation(base, item).price
        if dataset.has(current, item):
            return dataset.observation(current, item).price
        raise SchemeError(f"item {item!r} absent from both compared periods")

    def __repr__(self) -> str:
        return "FixedBase()"


@dataclass(frozen=True)
class CustomPrices:
    """Externally supplied reference prices, e.g. from a hedonic model."""

    prices: Mapping[ItemId, float]
    needs_index = False

    def price_for(self, dataset, item, reference_periods, base, current, index_series=None):
        try:
            value = self.prices[item]
        except KeyError:
            raise SchemeError(f"no custom reference price for item {item!r}") from None
        if value <= 0:
            raise SchemeError(f"custom reference price for {item!r} is not positive")
        return value


class ReferencePriceScheme(Protocol):
    needs_index: bool

    def price_for(
        self,
        dataset: Dataset,
        item: ItemId,
        reference_periods: tuple[int, ...],
        base: int,
        current: int,
        index_series: Mapping[int, float] | None = None,
    ) -> float: ...


def reference_prices(
    dataset: Dataset,
    scheme: ReferencePriceScheme,
    items: frozenset[ItemId],
    reference_periods: tuple[int, ...],
    base: int,
    current: int,
    index_series: Mapping[int, float] | None = None,
) -> dict[ItemId, float]:
    return {
        item: scheme.price_for(dataset, item, reference_periods, base, current, index_series)
        for item in items
    }


# ---------------------------------------------------------------------------
# Reference quantity schemes


class BaseQuantity:
    """Base-period transaction quantity; only defined for base-period items."""

    def quantity_for(self, dataset, item, reference_periods, base, current, prices=None):
        if not dataset.has(base, item):
            raise SchemeError(f"item {item!r} has no base-period quantity")
        return dataset.observation(base, item).quantity


class CurrentQuantity:
    """Current-period transaction quantity."""

    def quantity_for(self, dataset, item, reference_periods, base, current, prices=None):
        if not dataset.has(current, item):
            raise SchemeError(f"item {item!r} has no current-period quantity")
        return dataset.observation(current, item).quantity


class ArithmeticMeanQuantity:
    """Mean quantity over the reference periods in which the item is present."""

    def quantity_for(self, dataset, item, reference_periods, base, current, prices=None):
        periods = _item_periods(dataset, item, reference_periods)
        return math.fsum(dataset.observation(r, item).quantity for r in periods) / len(periods)


class ExpenditureOverReferencePrice:
    """Mean expenditure over the item's reference periods divided by its reference price."""

    def quantity_for(self, dataset, item, reference_periods, base, current, prices=None):
        if prices is None or item not in prices:
            raise SchemeError(f"no reference price available for item {item!r}")
        periods = _item_periods(dataset, item, reference_periods)
        mean_expenditure = math.fsum(
            dataset.observation(r, item).expenditure for r in periods
        ) / len(periods)
        return mean_expenditure / prices[item]


@dataclass(frozen=True)
class CustomQuantities:
    """Externally supplied reference quantities."""

    quantities: Mapping[ItemId, float]

    def quantity_for(self, dataset, item, reference_periods, base, current, prices=None):
        try:
            value = self.quantities[item]
        except KeyError:
            raise SchemeError(f"no custom reference quantity for item {item!r}") from None
        return value


class ReferenceQuantityScheme(Protocol):
    def quantity_for(
        self,
        dataset: Dataset,
        item: ItemId,
        reference_periods: tuple[int, ...],
        base: int,
        current: int,
        prices: Mapping[ItemId, float] | None = None,
    ) -> float: ...


def reference_quantity(
    dataset: Dataset,
    scheme: ReferenceQuantityScheme,
    item: ItemId,
    spec: ComparisonSpec,
    prices: Mapping[ItemId, float] | None = None,
) -> float:
    """Resolve one reference quantity; positive or SchemeError."""
    value = scheme.quantity_for(
        dataset, item, spec.reference_periods(dataset), spec.base, spec.current, prices
    )
    if value <= 0 or not math.isfinite(value):
        raise SchemeError(f"reference quantity for {item!r} is {value!r}")
    return value


# ---------------------------------------------------------------------------
# Direct starts for the two coupled systems that are linear


# exp(v) and exp(-v) are positive and finite exactly when |v| is below this.
_MAX_LOG = math.log(sys.float_info.max)


def _period_maps(
    dataset: Dataset, periods: tuple[int, ...]
) -> list[Mapping[ItemId, Observation]] | None:
    """Each reference period's observations; None unless all prices and quantities are positive."""
    maps = [dataset.period_data(r).items for r in periods]
    if all(obs.price > 0 and obs.quantity > 0 for m in maps for obs in m.values()):
        return maps
    return None


def _solve_linked(
    links: list[list[float]], rhs: list[float], pin: int, value: float
) -> list[float] | None:
    """Solve the Laplacian system of a weighted period graph with z[pin] = value.

    links[r][s] (r != s) is positive exactly when periods r and s share an
    item; None if that graph is not connected. Row r reads
    sum_s links[s][r] * z[r] - sum_s links[r][s] * z[s] = rhs[r] over s != r.
    Its columns sum to zero, so row pin is dropped and the other n - 1 rows
    are solved by Gaussian elimination with partial pivoting.
    """
    n = len(links)
    reached, frontier = {pin}, [pin]
    while frontier:
        r = frontier.pop()
        for s in range(n):
            if s not in reached and links[r][s] > 0:
                reached.add(s)
                frontier.append(s)
    if len(reached) < n:
        return None
    keep = [r for r in range(n) if r != pin]
    degree = [math.fsum(links[s][r] for s in range(n) if s != r) for r in range(n)]
    rows = [
        [degree[r] if s == r else -links[r][s] for s in keep] + [rhs[r] + links[r][pin] * value]
        for r in keep
    ]
    m = n - 1
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, m):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    z = [0.0] * m
    for r in reversed(range(m)):
        z[r] = (rows[r][m] - math.fsum(rows[r][s] * z[s] for s in range(r + 1, m))) / rows[r][r]
    z.insert(pin, value)
    return z


def _series_from_logs(periods: tuple[int, ...], logs: list[float] | None) -> dict[int, float] | None:
    """exp of each log, or None unless every value is positive and finite."""
    if logs is None or not all(abs(v) < _MAX_LOG for v in logs):
        return None
    return dict(zip(periods, map(math.exp, logs)))


def gk_start(dataset: Dataset, periods: tuple[int, ...], base: int) -> dict[int, float] | None:
    """The GUV series with deflated unit values (GK), solved directly.

    With x_r = 1/P_r the equations read (diag(E) - M) x = 0, the
    eigenvector form of Diewert and Fox, where M_rs = sum_i q_ir e_is / Q_i
    over the items present in r and s, Q_i is the item's quantity summed
    over the reference periods, and E_r = sum_s M_sr is period r's
    expenditure. None where the reference periods are not linked by common
    items or the data or the solution is not positive and finite.
    """
    maps = _period_maps(dataset, periods)
    if maps is None:
        return None
    items = frozenset().union(*maps)
    quantity = {i: math.fsum(m[i].quantity for m in maps if i in m) for i in items}
    links = [
        [
            math.fsum(obs.quantity * ms[i].expenditure / quantity[i]
                      for i, obs in mr.items() if i in ms) if r != s else 0.0
            for s, ms in enumerate(maps)
        ]
        for r, mr in enumerate(maps)
    ]
    x = _solve_linked(links, [0.0] * len(maps), periods.index(base), 1.0)
    if x is None or not all(v > 0 for v in x):
        return None
    return _series_from_logs(periods, [-math.log(v) for v in x])


def tpd_start(dataset: Dataset, periods: tuple[int, ...], base: int) -> dict[int, float] | None:
    """The WGM series with expenditure shares and TPD prices, solved directly.

    In y_r = log P_r the equations are the weighted time-product-dummy
    normal equations (I - B) y = c (Rao 2005), where w_ir is the item's
    expenditure share in period r, W_i = sum_r w_ir,
    B_rs = sum_i w_ir w_is / W_i and c_r = sum_i w_ir (log p_ir - L_i), with
    L_i the item's w-weighted mean log price. None where the reference
    periods are not linked by common items or the data or the solution is
    not positive and finite.
    """
    maps = _period_maps(dataset, periods)
    if maps is None:
        return None
    totals = [dataset.period_data(r).total_expenditure() for r in periods]
    items = frozenset().union(*maps)
    weight = {
        i: math.fsum(m[i].expenditure / t for m, t in zip(maps, totals) if i in m) for i in items
    }
    mean_log = {
        i: math.fsum(m[i].expenditure / t * math.log(m[i].price)
                     for m, t in zip(maps, totals) if i in m) / weight[i]
        for i in items
    }
    n = len(maps)
    links = [[0.0] * n for _ in range(n)]
    for r in range(n):
        for s in range(r + 1, n):
            links[r][s] = links[s][r] = math.fsum(
                obs.expenditure / totals[r] * maps[s][i].expenditure / totals[s] / weight[i]
                for i, obs in maps[r].items() if i in maps[s]
            )
    rhs = [
        math.fsum(obs.expenditure / t * (math.log(obs.price) - mean_log[i]) for i, obs in m.items())
        for m, t in zip(maps, totals)
    ]
    return _series_from_logs(periods, _solve_linked(links, rhs, periods.index(base), 0.0))


# ---------------------------------------------------------------------------
# Fixed point solver


def require_tolerance(tolerance: float) -> None:
    """Raise ValueError unless the tolerance is positive and finite."""
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule for the alternating solver.

    tolerance is on the max absolute log-change of any index value
    between sweeps; damping in (0, 1] blends old and new iterates in log
    space (1.0 is undamped).
    """

    tolerance: float = 1e-10
    max_iterations: int = 1000
    damping: float = 1.0

    def __post_init__(self) -> None:
        require_tolerance(self.tolerance)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class FixedPointReport:
    """How a coupled series was found.

    method is "direct" when the sweeps started from a direct solve of a
    linear system, whose first sweep then certifies it, and "sweep" when
    they started from the identity series.
    """

    converged: bool
    iterations: int
    final_residual: float
    method: str = "sweep"


class EngineEquations(Protocol):
    """The two coupled maps of an index whose reference prices contain it."""

    def prices_from_index(self, index_series: Mapping[int, float]) -> dict[ItemId, float]: ...

    def index_from_prices(self, prices: Mapping[ItemId, float]) -> dict[int, float]: ...


def solve_fixed_point(
    dataset: Dataset,
    spec: ComparisonSpec,
    equations: EngineEquations,
    config: FixedPointConfig | None = None,
    start: Mapping[int, float] | None = None,
) -> tuple[dict[int, float], dict[ItemId, float], FixedPointReport]:
    """Alternate reference prices and index values until the series is stable.

    Starts from ``start`` (a directly solved series, with the base at one)
    or else the identity series (all ones), renormalizes the base period
    to one after every sweep, and stops when no index value moves by more
    than the tolerance in log space. Returns the last sweep's series, the
    reference prices that sweep computed (from the series it started
    from) and the report. Non-convergence is reported, not raised; an
    index value reaching zero or infinity is a hard error.
    """
    cfg = config or FixedPointConfig()
    periods = spec.reference_periods(dataset)
    series = dict(start) if start is not None else {r: 1.0 for r in periods}
    iterations = 0
    residual = math.inf
    converged = False
    while iterations < cfg.max_iterations:
        iterations += 1
        prices = equations.prices_from_index(series)
        candidate = equations.index_from_prices(prices)
        candidate[spec.base] = 1.0
        new_series = {}
        residual = 0.0
        for r in periods:
            value = candidate[r]
            if value <= 0 or not math.isfinite(value):
                raise NumericalError(f"index value for period {r} left (0, inf): {value!r}")
            old_log = math.log(series[r])
            new_log = (1.0 - cfg.damping) * old_log + cfg.damping * math.log(value)
            new_series[r] = math.exp(new_log)
            residual = max(residual, abs(new_log - old_log))
        series = new_series
        if residual <= cfg.tolerance:
            converged = True
            break
    method = "sweep" if start is None else "direct"
    return series, prices, FixedPointReport(converged, iterations, residual, method)
