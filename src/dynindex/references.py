"""Reference prices, reference quantities, and the fixed-point solver.

Each scheme is one call per comparison over its ``ReferenceData``, the
reference periods' observations grouped once by ``reference_data``, and
returns every item's value. Reference prices make quantities of
different items commensurable; some constructions (deflated unit values,
the geometric product-dummy price) depend on the index series itself
and must be solved jointly with it.
The solver takes the table, the scheme and the engine's ``index_at``, the
index of one period against the base at given prices, and alternates
pricing and indexing, with optional damping in log space, from the
identity series or from a direct solve of the GK or TPD system, which are
linear in the right variables; its first sweep then certifies that solve.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .core import (
    ComparisonSpec,
    Dataset,
    ItemId,
    ItemRun,
    NumericalError,
    Observation,
    PeriodColumns,
    PriceIndexError,
)


class SchemeError(PriceIndexError):
    """A reference price or quantity scheme is inapplicable to an item."""


# A run's shares in run order, their fsum W and fsum(w * log p) / W (None for W 0).
RunShares = tuple[Sequence[float], float, float | None]


def _run_shares(positions: Sequence[int], observations: Sequence[Observation],
                spent: Sequence[float], totals: Sequence[float]) -> RunShares:
    """A run's RunShares, each share its expenditure over its period's total."""
    shares = [e / totals[k] for k, e in zip(positions, spent)]
    weight = math.fsum(shares)
    terms = [w * math.log(o.price) for w, o in zip(shares, observations)]
    return shares, weight, math.fsum(terms) / weight if weight else None


@dataclass(frozen=True)
class ReferenceData:
    """The observations one comparison's schemes read, grouped by item.

    period_items[k] and totals[k] are the item map and total expenditure
    of reference period periods[k]; base and current are the positions of
    the compared periods. runs maps each requested item, in order of first
    appearance in the reference periods, to its run there (core.ItemRun):
    the positions it occupies, its observations there (the dataset's own),
    each observation's price * quantity, each observation's quantity, and
    the fsum of those expenditures and of those quantities, or None where
    the table does not carry them. The mapping is the table's own; a run is
    a tuple of read-only tuples and totals that may be shared with the
    dataset and with other tables. dataset is the one they were grouped from.
    """

    periods: tuple[int, ...]
    base: int
    current: int
    period_items: tuple[Mapping[ItemId, Observation], ...]
    totals: tuple[float, ...]
    runs: Mapping[ItemId, ItemRun]
    dataset: Dataset = field(repr=False, compare=False)
    _shares: tuple[RunShares, ...] | None = field(
        init=False, default=None, repr=False, compare=False)

    def columns(self, k: int) -> PeriodColumns:
        """Period position k's expenditure shares and log prices, in its map's order."""
        return self.dataset.period_data(self.periods[k])._share_columns()

    def run_shares(self) -> tuple[RunShares, ...]:
        """Each run's RunShares, in the order of runs, computed once per table. A run
        that carries the view's totals (one taken whole, or only shifted) gets the
        dataset's, its shares an array, which the first table to take it computes.
        Inside the input contract only."""
        shares = self._shares
        if shares is None:
            kept, shares = self.dataset._share_map(), []
            for item, (ks, obs, spent, _, expenditure, _) in self.runs.items():
                carried = None if expenditure is None else kept.get(item)
                if carried is None:
                    carried = _run_shares(ks, obs, spent, self.totals)
                    if expenditure is not None:
                        carried = kept[item] = array("d", carried[0]), *carried[1:]
                shares.append(carried)
            shares = tuple(shares)
            object.__setattr__(self, "_shares", shares)
        return shares


def reference_data(
    dataset: Dataset, spec: ComparisonSpec, items: Iterable[ItemId] | None = None
) -> ReferenceData:
    """Group the reference periods' observations of ``items`` (default: all of them).

    A two-period table walks the two item maps. A longer window, whose
    periods are consecutive, is sliced from the dataset's item-major view
    (built by the first such call): each item's run is the view's own
    where it lies inside a window that starts at the dataset's first
    period, and is cut or shifted otherwise. A run taken whole, or only
    shifted, carries the view's totals; a cut run, and every run of a
    two-period table, carries None, so no table sums what no scheme may
    read. Raises SchemeError for an item present in no reference period.
    """
    periods = spec.reference_periods(dataset)
    period_data = [dataset.period_data(r) for r in periods]
    period_items = tuple(pd.items for pd in period_data)
    wanted = items if items is None or isinstance(items, AbstractSet) else frozenset(items)
    runs: dict[ItemId, ItemRun] = {}
    if len(periods) == 2:
        first, second = period_items
        for item, a in first.items():
            if wanted is None or item in wanted:
                if item not in second:  # faster than a get on the read-only map
                    runs[item] = (0,), (a,), (a.price * a.quantity,), (a.quantity,), None, None
                else:
                    b = second[item]
                    runs[item] = ((0, 1), (a, b), (a.price * a.quantity, b.price * b.quantity),
                                  (a.quantity, b.quantity), None, None)
        for item, b in second.items():
            if item not in first and (wanted is None or item in wanted):
                runs[item] = (1,), (b,), (b.price * b.quantity,), (b.quantity,), None, None
    else:
        view, entrants = dataset._item_view()
        lo = dataset.period_indices().index(periods[0])
        hi = lo + len(periods) - 1
        span = tuple(range(len(periods)))
        # The view's order is the order of first appearance from the first
        # period on. A later window's order is its first map's, then each
        # later position's entrants not yet seen: an item can leave and
        # come back.
        for item in view if lo == 0 else dict.fromkeys(
                chain(period_items[0], *entrants[lo + 1:hi + 1])):
            if wanted is not None and item not in wanted:
                continue
            run = view[item]
            ks, obs, spent, traded, expenditure, quantity = run
            first, last = ks[0], ks[-1]
            if last - first == len(ks) - 1:
                # no gaps: the window cuts the run where its positions say,
                # and the positions are a slice of the window's
                if first < lo or last > hi:
                    a = lo - first if first < lo else 0
                    b = hi - first + 1 if last > hi else len(ks)
                    if a >= b:
                        continue
                    run = (span[first + a - lo:first + b - lo], obs[a:b], spent[a:b],
                           traded[a:b], None, None)
                elif lo:
                    run = span[first - lo:last - lo + 1], obs, spent, traded, expenditure, quantity
            else:
                a, b = bisect_left(ks, lo), bisect_right(ks, hi)
                if a == b:
                    continue
                if lo or b - a < len(ks):
                    if b - a < len(ks):
                        expenditure = quantity = None
                    ks = ks[a:b]
                    run = (tuple([k - lo for k in ks]) if lo else ks,
                           obs[a:b], spent[a:b], traded[a:b], expenditure, quantity)
            runs[item] = run
    if wanted is not None and len(runs) < len(wanted):
        missing = next(item for item in wanted if item not in runs)
        raise SchemeError(f"item {missing!r} absent from all reference periods {periods}")
    return ReferenceData(
        periods,
        periods.index(spec.base),
        periods.index(spec.current),
        period_items,
        tuple(pd.total_expenditure() for pd in period_data),
        runs,
        dataset,
    )


def _deflators(data: ReferenceData, index_series: Mapping[int, float] | None) -> list[float]:
    """The index value of each reference period, checked once."""
    if index_series is None:
        raise SchemeError("index-deflated reference prices need an index series")
    for r in data.periods:
        if r not in index_series:
            raise SchemeError(f"index series has no value for period {r}")
        if not 0 < index_series[r] < math.inf:
            raise NumericalError(f"index series value for period {r} is {index_series[r]!r}")
    return [index_series[r] for r in data.periods]


# ---------------------------------------------------------------------------
# Reference price schemes


def _undefined_log() -> NumericalError:
    """The error of a WGM whose price or reference price has no log (not positive)."""
    return NumericalError("a price or reference price of the weighted geometric mean "
                          "is not positive, so its log is undefined")


def _overflow(item: ItemId, periods: tuple[int, ...]) -> NumericalError:
    """The error of an item whose expenditures or quantities sum past the float range."""
    return NumericalError(
        f"expenditures or quantities of item {item!r} sum past the float range "
        f"over reference periods {periods}")


@dataclass(frozen=True)
class LehrUnitValue:
    """Undeflated unit value over the reference periods. Index-free."""

    needs_index = False

    def prices_for(self, data, index_series=None):
        # Expenditure over quantity, summed over the item's run: the run's
        # carried totals where it has both, else the fsum of each column.
        # An fsum that overflows raises, which is caught once, outside the loop.
        prices = {}
        try:
            for item, (_, _, spent, traded, expenditure, quantity) in data.runs.items():
                if expenditure is None or quantity is None:
                    expenditure, quantity = math.fsum(spent), math.fsum(traded)
                prices[item] = expenditure / quantity
        except OverflowError:
            raise _overflow(item, data.periods) from None
        return prices


@dataclass(frozen=True)
class DeflatedUnitValue:
    """Unit value of index-deflated prices; requires a concurrent index series."""

    needs_index = True

    def prices_for(self, data, index_series=None):
        deflators = _deflators(data, index_series)
        prices = {}
        try:
            for item, (ks, obs, _, traded, _, quantity) in data.runs.items():
                prices[item] = (math.fsum([o.price / deflators[k] * o.quantity
                                           for k, o in zip(ks, obs)])
                                / (math.fsum(traded) if quantity is None else quantity))
        except OverflowError:
            raise _overflow(item, data.periods) from None
        return prices


@dataclass(frozen=True)
class TPDGeometric:
    """Share-weighted geometric deflated price; requires a concurrent index series.

    The per-period weight is the item's expenditure share within that
    period's universe; exponents are normalized to sum to one over the
    periods the item is present.
    """

    needs_index = True

    def prices_for(self, data, index_series=None):
        deflators = _deflators(data, index_series)
        prices = {}
        for (item, (ks, obs, _, _, _, _)), (shares, weight_sum, _) in zip(data.runs.items(),
                                                                         data.run_shares()):
            try:
                logs = [math.log(o.price / deflators[k]) for k, o in zip(ks, obs)]
            except ValueError:
                raise _undefined_log() from None
            if weight_sum == 0:
                raise NumericalError(f"expenditure shares of item {item!r} sum to {weight_sum!r}")
            try:
                prices[item] = math.exp(math.fsum(w / weight_sum * lg
                                                  for w, lg in zip(shares, logs)))
            except OverflowError:
                raise NumericalError("weighted geometric mean is past the float range") from None
        return prices


@dataclass(frozen=True)
class FixedBase:
    """Base-period price where available, current-period price otherwise."""

    needs_index = False

    def prices_for(self, data, index_series=None):
        base, current = data.period_items[data.base], data.period_items[data.current]
        prices = {}
        for item in data.runs:
            found = base.get(item)
            if found is None:
                found = current.get(item)
            if found is None:
                raise SchemeError(f"item {item!r} absent from both compared periods")
            prices[item] = found.price
        return prices


@dataclass(frozen=True)
class CustomPrices:
    """Externally supplied reference prices, e.g. from a hedonic model."""

    prices: Mapping[ItemId, float]
    needs_index = False

    def prices_for(self, data, index_series=None):
        for item in data.runs:
            if item not in self.prices:
                raise SchemeError(f"no custom reference price for item {item!r}")
            if not 0 < self.prices[item] < math.inf:
                raise SchemeError(f"custom reference price for {item!r} is {self.prices[item]!r}")
        return {item: self.prices[item] for item in data.runs}


class ReferencePriceScheme(Protocol):
    needs_index: bool

    def prices_for(
        self, data: ReferenceData, index_series: Mapping[int, float] | None = None
    ) -> dict[ItemId, float]: ...


def reference_prices(
    data: ReferenceData,
    scheme: ReferencePriceScheme,
    index_series: Mapping[int, float] | None = None,
) -> dict[ItemId, float]:
    """Every item's reference price under the scheme."""
    return scheme.prices_for(data, index_series)


# ---------------------------------------------------------------------------
# Reference quantity schemes


def _quantity_at(data: ReferenceData, position: int, what: str) -> dict[ItemId, float]:
    period = data.period_items[position]
    quantities = {}
    for item in data.runs:
        obs = period.get(item)
        if obs is None:
            raise SchemeError(f"item {item!r} has no {what}-period quantity")
        quantities[item] = obs.quantity
    return quantities


class BaseQuantity:
    """Base-period transaction quantity; only defined for base-period items."""

    def quantities_for(self, data, prices=None):
        return _quantity_at(data, data.base, "base")


class CurrentQuantity:
    """Current-period transaction quantity."""

    def quantities_for(self, data, prices=None):
        return _quantity_at(data, data.current, "current")


class ArithmeticMeanQuantity:
    """Mean quantity over the reference periods in which the item is present."""

    def quantities_for(self, data, prices=None):
        quantities = {}
        try:
            for item, (_, _, _, traded, _, q) in data.runs.items():
                quantities[item] = (math.fsum(traded) if q is None else q) / len(traded)
        except OverflowError:
            raise _overflow(item, data.periods) from None
        return quantities


class ExpenditureOverReferencePrice:
    """Mean expenditure over the item's reference periods divided by its reference price."""

    def quantities_for(self, data, prices=None):
        quantities = {}
        try:
            for item, (_, _, spent, _, e, _) in data.runs.items():
                if prices is None or item not in prices:
                    raise SchemeError(f"no reference price available for item {item!r}")
                mean_expenditure = (math.fsum(spent) if e is None else e) / len(spent)
                quantities[item] = mean_expenditure / prices[item]
        except ZeroDivisionError:
            raise NumericalError(f"reference price of item {item!r} is {prices[item]!r}") from None
        except OverflowError:
            raise _overflow(item, data.periods) from None
        return quantities


@dataclass(frozen=True)
class CustomQuantities:
    """Externally supplied reference quantities."""

    quantities: Mapping[ItemId, float]

    def quantities_for(self, data, prices=None):
        for item in data.runs:
            if item not in self.quantities:
                raise SchemeError(f"no custom reference quantity for item {item!r}")
        return {item: self.quantities[item] for item in data.runs}


class ReferenceQuantityScheme(Protocol):
    def quantities_for(
        self, data: ReferenceData, prices: Mapping[ItemId, float] | None = None
    ) -> dict[ItemId, float]: ...


def reference_quantities(
    data: ReferenceData,
    scheme: ReferenceQuantityScheme,
    prices: Mapping[ItemId, float] | None = None,
) -> dict[ItemId, float]:
    """Every item's reference quantity under the scheme; each positive or SchemeError."""
    quantities = scheme.quantities_for(data, prices)
    for item, value in quantities.items():
        if not 0 < value < math.inf:
            raise SchemeError(f"reference quantity for {item!r} is {value!r}")
    return quantities


# ---------------------------------------------------------------------------
# Direct starts for the two coupled systems that are linear


# exp(v) and exp(-v) are positive and finite exactly when |v| is below this.
_MAX_LOG = math.log(sys.float_info.max)


def _solve_linked(
    links: list[list[float]], rhs: list[float], pin: int, value: float
) -> list[float] | None:
    """Solve the Laplacian system of a weighted period graph with z[pin] = value.

    links[r][s] (r != s) is positive exactly when periods r and s share an
    item, and links[r][r] is 0; None if that graph is not connected. Row r
    reads sum_s links[s][r] * z[r] - sum_s links[r][s] * z[s] = rhs[r] over
    s != r. Its columns sum to zero, so row pin is dropped and the other
    n - 1 rows are solved by Gaussian elimination with partial pivoting;
    None at a zero pivot, which data spanning many orders of magnitude can
    round to.
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
    degree = [math.fsum(column) for column in zip(*links)]
    rows = [
        [degree[r] if s == r else -links[r][s] for s in keep] + [rhs[r] + links[r][pin] * value]
        for r in keep
    ]
    m = n - 1
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        if rows[p][c] == 0:
            return None
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


def gk_start(data: ReferenceData) -> dict[int, float] | None:
    """The GUV series with deflated unit values (GK), solved directly.

    With x_r = 1/P_r the equations read (diag(E) - M) x = 0, the
    eigenvector form of Diewert and Fox, where M_rs = sum_i q_ir e_is / Q_i
    over the items present in r and s, Q_i is the item's quantity summed
    over the reference periods, and E_r = sum_s M_sr is period r's
    expenditure. data must cover every item of its reference periods.
    None where the reference periods are not linked by common items, or a
    sum of the data or the solution is not positive and finite.

    M is built one row at a time, item-major within the row: each item of
    period r adds one term to M_rs for each other position s it occupies,
    read from the positions and expenditures of its run in data.runs,
    and each entry is one fsum. Only one row's terms are held at once. An
    entry's terms are those of a scan of period r's items for the ones in
    s, with the same expression and in the same order, so M is
    bit-identical to that scan's, even where a sum overflows (where
    fsum's result can depend on the order of its terms).
    """
    runs = data.runs
    n = len(data.periods)
    links = []
    try:
        quantity = {i: math.fsum(traded) if q is None else q
                    for i, (_, _, _, traded, _, q) in runs.items()}
        for r, mr in enumerate(data.period_items):
            row: list[list[float]] = [[] for _ in range(n)]
            for i, o in mr.items():
                ks, _, spent, _, _, _ = runs[i]
                q, total = o.quantity, quantity[i]
                for s, e in zip(ks, spent):
                    if s != r:
                        row[s].append(q * e / total)
            links.append(list(map(math.fsum, row)))
    except OverflowError:
        return None
    x = _solve_linked(links, [0.0] * n, data.base, 1.0)
    if x is None or not all(v > 0 for v in x):
        return None
    return _series_from_logs(data.periods, [-math.log(v) for v in x])


def tpd_start(data: ReferenceData) -> dict[int, float] | None:
    """The WGM series with expenditure shares and TPD prices, solved directly.

    In y_r = log P_r the equations are the weighted time-product-dummy
    normal equations (I - B) y = c (Rao 2005), where w_ir is the item's
    expenditure share in period r, W_i = sum_r w_ir,
    B_rs = sum_i w_ir w_is / W_i and c_r = sum_i w_ir (log p_ir - L_i), with
    L_i the item's w-weighted mean log price. data must cover every item
    of its reference periods. None where the reference periods are not
    linked by common items, an item's W_i is zero (its expenditure
    underflows) or the solution is not positive and finite.

    B and c are built as gk_start builds M, one row at a time: each item
    of period r adds its term to c_r and one term to B_rs for each later
    position s it occupies, and B_sr mirrors B_rs. A term of B_rs is
    e_ir / T_r * e_is / T_s / W_i, with T_r the period's total, evaluated
    left to right (w_ir w_is / W_i would round differently), in the order
    of period r's items, so B is bit-identical to a scan of period r's
    items for the ones in s. Rows visit an item's periods in order, so a
    cursor per item finds period r's entry in its run in data.runs, and
    the row reads only the later entries. w_ir and log p_ir come from
    period r's share columns, W_i and L_i from the run's RunShares.
    """
    runs, totals = data.runs, data.totals
    weight, mean_log = {}, {}
    for i, (_, weight[i], mean_log[i]) in zip(runs, data.run_shares()):
        if not weight[i] > 0:
            return None
    n = len(data.periods)
    links = [[0.0] * n for _ in range(n)]
    rhs = []
    cursor = dict.fromkeys(weight, 0)
    for r, mr in enumerate(data.period_items):
        row: list[list[float]] = [[] for _ in range(n)]
        constant = []
        for i, w, lg in zip(mr, *data.columns(r)):
            j = cursor[i]
            cursor[i] = j + 1
            item_positions, _, spent, _, _, _ = runs[i]
            item_weight = weight[i]
            constant.append(w * (lg - mean_log[i]))
            for m in range(j + 1, len(item_positions)):
                s = item_positions[m]
                # w is e_ir / T_r, so this is e_ir / T_r * e_is / T_s / W_i
                row[s].append(w * spent[m] / totals[s] / item_weight)
        for s in range(r + 1, n):
            links[r][s] = links[s][r] = math.fsum(row[s])
        rhs.append(math.fsum(constant))
    return _series_from_logs(data.periods, _solve_linked(links, rhs, data.base, 0.0))


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


def solve_fixed_point(
    data: ReferenceData,
    scheme: ReferencePriceScheme,
    index_at: Callable[[int, Mapping[ItemId, float]], float],
    config: FixedPointConfig | None = None,
    start: Mapping[int, float] | None = None,
) -> tuple[dict[int, float], dict[ItemId, float], FixedPointReport]:
    """Alternate reference prices and index values until the series is stable.

    Each sweep prices data with the scheme, deflating by the current
    series, and takes each non-base period's index from
    index_at(position, prices); the base period stays at one. Starts from
    ``start`` (a directly solved series, with the base at one) or else the
    identity series (all ones), and stops when no index value moves by
    more than the tolerance in log space. Returns the last sweep's series,
    the reference prices that sweep computed (from the series it started
    from) and the report. Non-convergence is reported, not raised; an
    index value reaching zero or infinity is a hard error.
    """
    cfg = config or FixedPointConfig()
    periods, base = data.periods, data.base
    series = dict(start) if start is not None else {r: 1.0 for r in periods}
    iterations = 0
    residual = math.inf
    converged = False
    while iterations < cfg.max_iterations:
        iterations += 1
        prices = reference_prices(data, scheme, series)
        candidate = [index_at(k, prices) if k != base else 1.0 for k in range(len(periods))]
        new_series = {}
        residual = 0.0
        for r, value in zip(periods, candidate):
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
