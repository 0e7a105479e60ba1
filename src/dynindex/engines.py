"""Index engines for dynamic item universes.

Implements the value-ratio-deflating family (GK, MGK, generalised unit
value), the weighted-geometric-mean family (Tornqvist, time-product-
dummy), GEKS chaining over a bilateral engine, the reference-quantity
index with imputation, its geometric mixture with a unit-value index,
and the classical fixed-universe indices.

All engines are pure functions of (dataset, comparison spec, options)
and safe to evaluate concurrently over shared datasets. Sums use
``math.fsum`` and products go through log space, so results do not
depend on item iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Mapping

from .core import (
    Bilateral,
    ComparisonSpec,
    Dataset,
    InvalidComparisonError,
    ItemId,
    NumericalError,
)
from .references import (
    ArithmeticMeanQuantity,
    CustomPrices,
    DeflatedUnitValue,
    FixedPointConfig,
    FixedPointReport,
    LehrUnitValue,
    ReferenceData,
    ReferencePriceScheme,
    ReferenceQuantityScheme,
    SchemeError,
    TPDGeometric,
    _overflow,
    _undefined_log,
    _zero_quantity,
    gk_start,
    reference_data,
    reference_prices,
    reference_quantities,
    share_total,
    solve_fixed_point,
    tpd_start,
)


@dataclass(frozen=True)
class IndexResult:
    """One computed index value plus whatever context the engine produced.

    decomposition, when present, is (value ratio, quantity-index divisor)
    with value * divisor = value ratio. series carries per-period values
    for multilateral engines, keyed by period and normalized to 1 at the
    base. components carries sub-index values for composite engines.
    """

    value: float
    diagnostics: FixedPointReport | None = None
    decomposition: tuple[float, float] | None = None
    series: Mapping[int, float] | None = None
    components: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.value <= 0 or not math.isfinite(self.value):
            raise NumericalError(f"index value {self.value!r} is not positive and finite")


def _quantity_ratio(numerator_terms: Iterable[float], denominator_terms: Iterable[float]) -> float:
    """The quantity index whose numerator and denominator are the fsums of these terms."""
    try:
        numerator = math.fsum(numerator_terms)
        denominator = math.fsum(denominator_terms)
    except OverflowError:
        raise NumericalError("reference-price quantity index sums past the float range") from None
    except ValueError:  # fsum of inf and -inf
        raise NumericalError("reference-price quantity index sums hold both inf and -inf") from None
    if denominator <= 0 or numerator <= 0:
        raise NumericalError("reference-price quantity index is not positive")
    quantity = numerator / denominator
    if quantity == 0:
        raise NumericalError(
            f"reference-price quantity index {numerator!r}/{denominator!r} underflows to 0")
    # inf where a sum is infinite or the quotient overflows, nan for inf/inf
    if not quantity < math.inf:
        raise NumericalError(
            f"reference-price quantity index {numerator!r}/{denominator!r} is {quantity!r}")
    return quantity


def _quantity_index(data: ReferenceData, position: int, prices: Mapping[ItemId, float]) -> float:
    """The reference-price quantity index of the period at position against the base."""
    current, base = data.period_items[position], data.period_items[data.base]
    return _quantity_ratio((prices[i] * o.quantity for i, o in current.items()),
                           (prices[i] * o.quantity for i, o in base.items()))


# ---------------------------------------------------------------------------
# Reference prices and the per-period index they imply
#
# An engine's index_at(k, prices) is the index of the period at position k
# of its table against the base. An index-free scheme prices a table of the
# two compared universes once; a coupled one is solved jointly with the
# index series over every reference period's universe, starting from a
# direct solve where the system is linear and that solve succeeds.


def _compared_table(dataset: Dataset, spec: ComparisonSpec) -> ReferenceData:
    """The table of the items in the base or the current universe.

    Where the compared periods are the only reference periods, that
    filter would keep every item, so none is passed.
    """
    if spec.reference_periods(dataset) == (spec.base, spec.current):
        return reference_data(dataset, spec)
    base, current = dataset.period_data(spec.base), dataset.period_data(spec.current)
    return reference_data(dataset, spec, base.items.keys() | current.items.keys())


# ---------------------------------------------------------------------------
# Value-ratio-deflating family: GUV, MGK, GK


def _lehr_bilateral(dataset: Dataset, base: int, current: int) -> tuple[float, float]:
    """The value ratio and the Lehr quantity index of GUV over the compared periods alone.

    What the index-free table path gives with LehrUnitValue where the
    compared periods are the only reference periods: an item's reference
    price p_i is its expenditure over its quantity, each summed over the
    compared periods it is in, and the quantity index is
    sum_i p_i q_it / sum_i p_i q_i0 over each period's own items.

    Prices and terms come from two walks of the period maps, with no
    table, no observation lists and no price dict for their union: the
    base map, in its order, prices each item and adds its denominator
    term, keeping the prices of the items also in the current map; the
    current map, in its order, prices the rest and adds the numerator
    terms. Each price is LehrUnitValue's expression for one or two
    observations (base first), each term is price times quantity, and
    each list of terms comes in the table path's order, so the result is
    bit-identical to the table path's, even where a sum overflows. So are
    the errors, in the table path's order: the price of the first failing
    item (base map first), then the value ratio, then the quantity index.

    GEKS chains of more than two periods price their legs from per-period
    columns instead (_lehr_legs). This kernel stays for one-shot
    comparisons and 2-period chains: building a period's columns costs
    more than walking its map once (a one-leg comparison through the
    columns took 1.3 to 3 times as long, on 6 or 400 items).
    """
    ms, mt = dataset.period_data(base).items, dataset.period_data(current).items
    shared = {}
    denominator_terms = []
    numerator_terms = []
    try:
        for item, a in ms.items():
            if item not in mt:  # faster than a get on the read-only map
                p = a.price * a.quantity / a.quantity
            else:
                b = mt[item]
                expenditure = a.price * a.quantity + b.price * b.quantity
                quantity = a.quantity + b.quantity
                # x - x is 0.0 for a finite x and nan for inf or nan
                if not (expenditure - expenditure or quantity - quantity):
                    p = (expenditure or 0.0) / quantity
                else:
                    p = (math.fsum([a.price * a.quantity, b.price * b.quantity])
                         / math.fsum([a.quantity, b.quantity]))
                shared[item] = p
            denominator_terms.append(p * a.quantity)
        for item, b in mt.items():
            p = shared.get(item)
            if p is None:
                p = b.price * b.quantity / b.quantity
            numerator_terms.append(p * b.quantity)
    except ZeroDivisionError:
        raise _zero_quantity(item, (base, current)) from None
    except (OverflowError, ValueError):
        raise _overflow(item, (base, current)) from None
    value_ratio = dataset.value_ratio(base, current)
    return value_ratio, _quantity_ratio(numerator_terms, denominator_terms)


def _guv_index_at(
    dataset: Dataset, spec: ComparisonSpec, data: ReferenceData
) -> Callable[[int, Mapping[ItemId, float]], float]:
    """The GUV index_at: the value ratio over the quantity index at the given prices.

    A sweep calls it for every period with one price map, so the
    denominator's terms, the base items' prices times quantities in the
    base map's order, are built once per price map (the last one, told
    apart by identity) and summed on each call. Each value, and each
    error in its order (value ratio, numerator, denominator), is
    _quantity_index's.
    """
    base = data.period_items[data.base]
    built: tuple[object, list[float]] = (None, [])

    def index_at(k: int, prices: Mapping[ItemId, float]) -> float:
        nonlocal built
        value_ratio = dataset.value_ratio(spec.base, data.periods[k])
        if built[0] is not prices:
            built = prices, [prices[i] * o.quantity for i, o in base.items()]
        numerator_terms = (prices[i] * o.quantity for i, o in data.period_items[k].items())
        return value_ratio / _quantity_ratio(numerator_terms, built[1])

    return index_at


def _guv(
    dataset: Dataset,
    spec: ComparisonSpec,
    scheme: ReferencePriceScheme,
    config: FixedPointConfig | None,
) -> tuple[IndexResult, ReferenceData | None, dict[ItemId, float] | None]:
    """The GUV result, plus its table and reference prices when the scheme is index-free."""
    if not scheme.needs_index:
        data = _compared_table(dataset, spec)
        prices = reference_prices(data, scheme)
        value_ratio = dataset.value_ratio(spec.base, spec.current)
        # The divisor itself: value_ratio / value can differ from it in the last bit.
        quantity = _quantity_index(data, data.current, prices)
        result = IndexResult(value_ratio / quantity, decomposition=(value_ratio, quantity))
        return result, data, prices
    data = reference_data(dataset, spec)
    start = gk_start(data) if isinstance(scheme, DeflatedUnitValue) else None
    series, _, report = solve_fixed_point(
        data, scheme, _guv_index_at(dataset, spec, data), config, start)
    value_ratio = dataset.value_ratio(spec.base, spec.current)
    value = series[spec.current]
    return IndexResult(value, report, (value_ratio, value_ratio / value), series), None, None


def guv_index(
    dataset: Dataset,
    spec: ComparisonSpec,
    reference_price: ReferencePriceScheme | None = None,
    config: FixedPointConfig | None = None,
) -> IndexResult:
    """Generalised unit value index: value ratio over a reference-price quantity index.

    Index-free schemes evaluate directly, Lehr unit values over the two
    compared periods alone without a table; schemes that deflate by the
    index itself are solved jointly through the fixed-point solver.
    """
    scheme = reference_price if reference_price is not None else LehrUnitValue()
    # the type itself: a subclass may price otherwise
    if (type(scheme) is LehrUnitValue
            and spec.reference_periods(dataset) == (spec.base, spec.current)):
        value_ratio, quantity = _lehr_bilateral(dataset, spec.base, spec.current)
        return IndexResult(value_ratio / quantity, decomposition=(value_ratio, quantity))
    return _guv(dataset, spec, scheme, config)[0]


def mgk_index(dataset: Dataset, spec: ComparisonSpec) -> IndexResult:
    """Modified GK index: unit-value reference prices, no fixed point."""
    return guv_index(dataset, spec, LehrUnitValue())


def gk_index(
    dataset: Dataset, spec: ComparisonSpec, config: FixedPointConfig | None = None
) -> IndexResult:
    """GK index: jointly solved index-deflated unit-value reference prices."""
    return guv_index(dataset, spec, DeflatedUnitValue(), config)


# ---------------------------------------------------------------------------
# Weighted geometric mean family: WGM, Tornqvist, TPD


def _expenditure_shares(data: ReferenceData, position: int) -> dict[ItemId, float]:
    total = share_total(data, position)
    return {i: o.price * o.quantity / total for i, o in data.period_items[position].items()}


def _base_shares(data: ReferenceData) -> Callable[[], dict[ItemId, float]]:
    """The base period's expenditure shares, computed on the first call only."""
    return cache(partial(_expenditure_shares, data, data.base))


# A weight scheme's weights_for(data) returns weights(k): the base and the
# period at position k's item weights, for the index of k against the base.
# weights_for itself computes and checks nothing, so a pricing error is
# raised before a weighting error.


class ExpenditureShare:
    """Per-period expenditure shares; defined in any universe."""

    def weights_for(self, data):
        base = _base_shares(data)
        return lambda k: (base(), _expenditure_shares(data, k))


class TornqvistWeights:
    """Symmetric mean of the two periods' expenditure shares; fixed universe only."""

    def weights_for(self, data):
        base = _base_shares(data)

        def weights(k):
            if data.period_items[k].keys() != data.period_items[data.base].keys():
                raise SchemeError("symmetric weights require a fixed item universe")
            w0, wk = base(), _expenditure_shares(data, k)
            shared = {i: 0.5 * (w0[i] + wk[i]) for i in w0}
            return shared, shared

        return weights


@dataclass(frozen=True)
class CustomWeights:
    """Externally supplied per-period weights; each period must sum to one."""

    base_weights: Mapping[ItemId, float]
    current_weights: Mapping[ItemId, float]

    def weights_for(self, data):
        def check(k, weights):
            if weights.keys() != data.period_items[k].keys():
                raise SchemeError(
                    f"custom weights do not cover the period {data.periods[k]} universe")
            total = math.fsum(weights.values())
            if abs(total - 1.0) > 1e-9:
                raise SchemeError(f"custom weights for period {data.periods[k]} sum to {total!r}")

        def weights(k):
            check(data.base, self.base_weights)
            check(k, self.current_weights)
            return self.base_weights, self.current_weights

        return weights


def _wgm_exp(log_terms: list[float]) -> float:
    """exp of the fsum of a WGM's log terms, NumericalError past the float range.

    fsum raises an OverflowError where a partial sum overflows and a
    ValueError where the terms hold inf and -inf; exp an OverflowError
    where the index itself is past the float range.
    """
    try:
        return math.exp(math.fsum(log_terms))
    except (OverflowError, ValueError):
        raise NumericalError("weighted geometric mean is past the float range") from None


def _wgm_index_at(
    data: ReferenceData, weights: object
) -> Callable[[int, Mapping[ItemId, float]], float]:
    """The WGM index_at: exp of the fsum of the log terms at the given prices.

    The log terms are w_it log(p_it / p_i) over the period's weights,
    then -w_i0 log(p_i0 / p_i) over the base weights. A sweep calls it for
    every period with one price map, and ExpenditureShare hands out one
    base-weight map for every period, so the base terms are built once
    per pair of price map and base-weight map (the last pair, told apart
    by identity), on the first call, after the weights' own checks and
    the period's terms, as a fresh build would. Values and errors are
    those of building every term on each call.
    """
    weights_at = weights.weights_for(data)
    base = data.period_items[data.base]
    log = math.log
    built: tuple[object, object, list[float]] = (None, None, [])

    def index_at(k: int, prices: Mapping[ItemId, float]) -> float:
        nonlocal built
        base_weights, period_weights = weights_at(k)
        current = data.period_items[k]
        try:
            log_terms = [w * (log(current[i].price) - log(prices[i]))
                         for i, w in period_weights.items()]
            if built[0] is not prices or built[1] is not base_weights:
                built = prices, base_weights, [-w * (log(base[i].price) - log(prices[i]))
                                               for i, w in base_weights.items()]
        except ValueError:
            raise _undefined_log() from None
        log_terms.extend(built[2])
        return _wgm_exp(log_terms)

    return index_at


def _wgm_bilateral(dataset: Dataset, base: int, current: int) -> float:
    """The WGM index with Lehr prices and expenditure shares over the compared periods alone.

    What the index-free table path gives with LehrUnitValue and
    ExpenditureShare where the compared periods are the only reference
    periods: with p_i the Lehr price of _lehr_bilateral and w_it the
    item's share of its period's total expenditure T_t, the index is
    exp(sum_i w_it log(p_it / p_i) - sum_i w_i0 log(p_i0 / p_i)) over each
    period's own items.

    Prices come from two walks of the period maps, with no table, no
    observation lists and no price dict for their union: the base map, in
    its order, prices each item, keeping the prices of the items also in
    the current map; the current map, in its order, prices the rest. Each
    price is _lehr_bilateral's expression, written out again: a shared
    pricing helper or walk would slow bilateral MGK, whose one-shot
    comparisons run that kernel. The log terms are _wgm_index_at's,
    current items first, each share computed as there, so
    the result is bit-identical to the table path's, even where a sum
    overflows. So are the errors, in the table path's order: the price of
    the first failing item (base map first), then the base period's total,
    then the current period's, then an undefined log or an index past the
    float range.
    """
    pd0, pdt = dataset.period_data(base), dataset.period_data(current)
    ms, mt = pd0.items, pdt.items
    shared = {}
    base_prices = []
    current_prices = []
    try:
        for item, a in ms.items():
            if item not in mt:  # faster than a get on the read-only map
                p = a.price * a.quantity / a.quantity
            else:
                b = mt[item]
                expenditure = a.price * a.quantity + b.price * b.quantity
                quantity = a.quantity + b.quantity
                # x - x is 0.0 for a finite x and nan for inf or nan
                if not (expenditure - expenditure or quantity - quantity):
                    p = (expenditure or 0.0) / quantity
                else:
                    p = (math.fsum([a.price * a.quantity, b.price * b.quantity])
                         / math.fsum([a.quantity, b.quantity]))
                shared[item] = p
            base_prices.append(p)
        for item, b in mt.items():
            p = shared.get(item)
            if p is None:
                p = b.price * b.quantity / b.quantity
            current_prices.append(p)
    except ZeroDivisionError:
        raise _zero_quantity(item, (base, current)) from None
    except (OverflowError, ValueError):
        raise _overflow(item, (base, current)) from None
    total0, totalt = pd0.total_expenditure(), pdt.total_expenditure()
    # share_total's checks, base period first
    for period, m, total in ((base, ms, total0), (current, mt, totalt)):
        if m and not 0 < total < math.inf:
            raise NumericalError(f"total expenditure of period {period} is {total!r}")
    log = math.log
    try:
        log_terms = [o.price * o.quantity / totalt * (log(o.price) - log(p))
                     for o, p in zip(mt.values(), current_prices)]
        log_terms.extend(-(o.price * o.quantity / total0) * (log(o.price) - log(p))
                         for o, p in zip(ms.values(), base_prices))
    except ValueError:
        raise _undefined_log() from None
    return _wgm_exp(log_terms)


def wgm_index(
    dataset: Dataset,
    spec: ComparisonSpec,
    weights: object | None = None,
    reference_price: ReferencePriceScheme | None = None,
    config: FixedPointConfig | None = None,
) -> IndexResult:
    """Ratio of weighted geometric means of price-to-reference-price relatives."""
    weight_scheme = weights if weights is not None else ExpenditureShare()
    scheme = reference_price if reference_price is not None else LehrUnitValue()
    # the types themselves: a subclass may price or weight otherwise
    if (type(scheme) is LehrUnitValue and type(weight_scheme) is ExpenditureShare
            and spec.reference_periods(dataset) == (spec.base, spec.current)):
        return IndexResult(_wgm_bilateral(dataset, spec.base, spec.current))
    if not scheme.needs_index:
        data = _compared_table(dataset, spec)
        index_at = _wgm_index_at(data, weight_scheme)
        return IndexResult(index_at(data.current, reference_prices(data, scheme)))
    data = reference_data(dataset, spec)
    linear = isinstance(weight_scheme, ExpenditureShare) and isinstance(scheme, TPDGeometric)
    series, _, report = solve_fixed_point(
        data, scheme, _wgm_index_at(data, weight_scheme), config,
        tpd_start(data) if linear else None)
    return IndexResult(series[spec.current], diagnostics=report, series=series)


def tornqvist_index(dataset: Dataset, spec: ComparisonSpec) -> IndexResult:
    """Tornqvist index: symmetric expenditure-share weights on a fixed universe.

    Reference prices cancel between numerator and denominator, so the
    result is the weighted geometric mean of the price relatives.
    """
    return wgm_index(dataset, spec, TornqvistWeights(), LehrUnitValue())


def tpd_index(
    dataset: Dataset, spec: ComparisonSpec, config: FixedPointConfig | None = None
) -> IndexResult:
    """Time-product-dummy index: share-weighted geometric reference prices,
    deflated by the index series and solved jointly with it."""
    return wgm_index(dataset, spec, ExpenditureShare(), TPDGeometric(), config)


# ---------------------------------------------------------------------------
# GEKS


def _lehr_legs(dataset: Dataset) -> Callable[[int, int], float | None]:
    """leg(s, t): bilateral MGK of period t against s, priced from per-period columns.

    Each period's columns are built once, on its first leg: {item:
    position} over its map, the map's observations in order, and each
    item's lone term p * q with p = e / q, what the item adds to the
    quantity index where the other period lacks it. A leg copies the two
    lone-term lists and overwrites the entries of the items both periods
    hold with _lehr_bilateral's two-observation price times quantity, so
    each list holds _lehr_bilateral's terms in its order and the value is
    bit-identical to that kernel's, even where a sum overflows; the value
    ratio and then the quantity index raise as there.

    None where the leg must go through evaluate, which raises the error
    of its data in its order: a period whose lone term divides by a zero
    quantity, a shared item whose expenditures or quantities sum to zero
    or past the float range, or a value that is not positive and finite.
    """
    columns: dict[int, tuple[dict[ItemId, int], list, list[float]] | None] = {}

    def period_columns(t: int):
        if t not in columns:
            items = dataset.period_data(t).items
            observations = list(items.values())
            try:
                lone = [a.price * a.quantity / a.quantity * a.quantity for a in observations]
            except ZeroDivisionError:
                columns[t] = None
            else:
                columns[t] = {item: k for k, item in enumerate(items)}, observations, lone
        return columns[t]

    def leg(s: int, t: int) -> float | None:
        cs, ct = period_columns(s), period_columns(t)
        if cs is None or ct is None:
            return None
        (index_s, observations_s, lone_s), (index_t, observations_t, lone_t) = cs, ct
        denominator_terms, numerator_terms = lone_s.copy(), lone_t.copy()
        try:
            for item in index_s.keys() & index_t.keys():
                i, j = index_s[item], index_t[item]
                a, b = observations_s[i], observations_t[j]
                expenditure = a.price * a.quantity + b.price * b.quantity
                quantity = a.quantity + b.quantity
                # x - x is 0.0 for a finite x and nan for inf or nan
                if expenditure - expenditure or quantity - quantity:
                    return None
                p = (expenditure or 0.0) / quantity
                denominator_terms[i] = p * a.quantity
                numerator_terms[j] = p * b.quantity
        except ZeroDivisionError:
            return None
        value = dataset.value_ratio(s, t) / _quantity_ratio(numerator_terms, denominator_terms)
        return value if 0 < value < math.inf else None

    return leg


def geks_index(
    dataset: Dataset, spec: ComparisonSpec, inner: "EngineSpec | None" = None
) -> IndexResult:
    """GEKS index: geometric mean of chained bilateral comparisons.

    Each series entry uses the reference window ending at its own period
    (the disseminated convention), so entries are the values that would
    have been published at their own time; the headline value is the one
    for the current period. Bilateral legs are computed once per
    unordered pair and inverted for the reverse direction, which keeps
    the chaining exactly time-reversal consistent.

    Legs that evaluate would price with _lehr_bilateral (an mgk inner, or
    a guv inner with Lehr prices) are priced from per-period columns
    (_lehr_legs) where the chain spans more than two periods; a 2-period
    chain has one leg, which the two walks price faster. Other inners,
    and column legs that give up, go through evaluate.
    """
    inner_spec = inner if inner is not None else _MGK
    _require_time_reversible(inner_spec)
    periods = spec.reference_periods(dataset)
    # the type itself, as guv_index selects its kernel
    lehr = inner_spec.family == "mgk" or (
        inner_spec.family == "guv" and (inner_spec.reference_price is None
                                        or type(inner_spec.reference_price) is LehrUnitValue))
    leg = _lehr_legs(dataset) if lehr and len(periods) > 2 else None
    cache: dict[tuple[int, int], float] = {}

    def bilateral(s: int, r: int) -> float:
        if s == r:
            return 1.0
        if (s, r) in cache:
            return cache[(s, r)]
        if s < r:
            value = leg(s, r) if leg is not None else None
            if value is None:
                value = evaluate(dataset, ComparisonSpec(s, r, Bilateral()), inner_spec).value
        else:
            value = 1.0 / bilateral(r, s)
        cache[(s, r)] = value
        return value

    def disseminated(r: int) -> float:
        window = spec.policy.reference_periods(dataset, spec.base, r)
        logs = [
            math.log(bilateral(spec.base, s)) + math.log(bilateral(s, r)) for s in window
        ]
        return math.exp(math.fsum(logs) / len(window))

    series = {spec.base: 1.0}
    for r in periods:
        if r > spec.base:
            series[r] = disseminated(r)
    return IndexResult(series[spec.current], series=series)


# ---------------------------------------------------------------------------
# Reference-quantity family: RQ, RQP


@dataclass(frozen=True)
class ImputationPolicy:
    """Imputed prices for items missing from one of the compared periods.

    Birth items get an imputed base price of birth_markup times their
    current price; death items get an imputed current price of
    death_markup times their base price. Markups below one are rejected:
    they would invert the intended direction of the imputation. Custom
    per-item prices override the markups.
    """

    birth_markup: float = 1.05
    death_markup: float = 1.05
    custom_birth_prices: Mapping[ItemId, float] | None = None
    custom_death_prices: Mapping[ItemId, float] | None = None

    def __post_init__(self) -> None:
        if self.birth_markup < 1 or self.death_markup < 1:
            raise ValueError("imputation markups must be at least 1")

    def base_price_for_birth(self, item: ItemId, current_price: float) -> float:
        if self.custom_birth_prices is not None and item in self.custom_birth_prices:
            return self.custom_birth_prices[item]
        return self.birth_markup * current_price

    def current_price_for_death(self, item: ItemId, base_price: float) -> float:
        if self.custom_death_prices is not None and item in self.custom_death_prices:
            return self.custom_death_prices[item]
        return self.death_markup * base_price


def _rq(
    data: ReferenceData,
    quantities: ReferenceQuantityScheme | None,
    imputation: ImputationPolicy | None,
    prices: Mapping[ItemId, float] | None,
) -> IndexResult:
    """The reference-quantity index over the compared items' table.

    prices feeds quantity schemes that divide expenditure by a reference
    price; other schemes ignore it.
    """
    scheme = quantities if quantities is not None else ArithmeticMeanQuantity()
    policy = imputation if imputation is not None else ImputationPolicy()
    base, current = data.period_items[data.base], data.period_items[data.current]
    numerator_terms = []
    denominator_terms = []
    for item, quantity in reference_quantities(data, scheme, prices).items():
        base_obs, current_obs = base.get(item), current.get(item)
        if base_obs is None:
            current_price = current_obs.price
            base_price = policy.base_price_for_birth(item, current_price)
        elif current_obs is None:
            base_price = base_obs.price
            current_price = policy.current_price_for_death(item, base_price)
        else:
            base_price, current_price = base_obs.price, current_obs.price
        if base_price <= 0 or current_price <= 0:
            raise SchemeError(f"imputed price for {item!r} is not positive")
        numerator_terms.append(quantity * current_price)
        denominator_terms.append(quantity * base_price)
    # IndexResult rejects a quotient that is not positive and finite.
    try:
        denominator = math.fsum(denominator_terms)
        if not 0 < denominator < math.inf:
            raise NumericalError(f"reference-quantity index denominator is {denominator!r}")
        return IndexResult(math.fsum(numerator_terms) / denominator)
    except OverflowError:
        raise NumericalError("reference-quantity index sums past the float range") from None


def rq_index(
    dataset: Dataset,
    spec: ComparisonSpec,
    quantities: ReferenceQuantityScheme | None = None,
    imputation: ImputationPolicy | None = None,
) -> IndexResult:
    """Reference-quantity index over the union universe with imputed prices."""
    return _rq(_compared_table(dataset, spec), quantities, imputation, None)


def rqp_index(
    dataset: Dataset,
    spec: ComparisonSpec,
    alpha: float = 0.5,
    quantities: ReferenceQuantityScheme | None = None,
    imputation: ImputationPolicy | None = None,
    reference_price: ReferencePriceScheme | None = None,
    config: FixedPointConfig | None = None,
) -> IndexResult:
    """Geometric mixture of the reference-quantity and unit-value indices.

    alpha = 1 evaluates identically to the unit-value index, alpha = 0 to
    the reference-quantity index. An index-free unit-value side's table
    and reference prices are shared with the quantity side, so
    expenditure-over-price quantities stay consistent between the two
    sides; index-deflated prices are not offered.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    scheme = reference_price if reference_price is not None else LehrUnitValue()
    guv, data, shared_prices = _guv(dataset, spec, scheme, config)
    if data is None:
        data = _compared_table(dataset, spec)
    rq = _rq(data, quantities, imputation, shared_prices)
    value = rq.value ** (1.0 - alpha) * guv.value**alpha
    return IndexResult(
        value,
        diagnostics=guv.diagnostics,
        components={"rq": rq.value, "guv": guv.value, "alpha": alpha},
    )


# ---------------------------------------------------------------------------
# Classical fixed-universe indices


def classical_indices(dataset: Dataset, base: int, current: int) -> tuple[float, float, float]:
    """(Laspeyres, Paasche, Fisher) over the persistent universe."""
    m0, mt = dataset.period_data(base).items, dataset.period_data(current).items
    persistent = m0.keys() & mt.keys()
    if not persistent:
        raise InvalidComparisonError("classical indices need a non-empty persistent universe")
    q0p0 = math.fsum([m0[i].expenditure for i in persistent])
    qtpt = math.fsum([mt[i].expenditure for i in persistent])
    q0pt = math.fsum([m0[i].quantity * mt[i].price for i in persistent])
    qtp0 = math.fsum([mt[i].quantity * m0[i].price for i in persistent])
    laspeyres = q0pt / q0p0
    paasche = qtpt / qtp0
    return laspeyres, paasche, math.sqrt(laspeyres * paasche)


def adjusted_laspeyres(
    dataset: Dataset, base: int, current: int, config: FixedPointConfig | None = None
) -> float:
    """Laspeyres with its current prices deflated by the index being solved for.

    The self-referential equation P = L / P is iterated in log space with
    half damping until stable; the solution is the square root of the
    plain Laspeyres index. Undamped, it oscillates between 1 and L and
    raises NumericalError.
    """
    cfg = config or FixedPointConfig(damping=0.5)
    laspeyres, _, _ = classical_indices(dataset, base, current)
    log_l = math.log(laspeyres)
    log_p = 0.0
    for _ in range(cfg.max_iterations):
        new_log_p = (1.0 - cfg.damping) * log_p + cfg.damping * (log_l - log_p)
        moved = abs(new_log_p - log_p)
        log_p = new_log_p
        if moved <= cfg.tolerance:
            break
    else:
        raise NumericalError(f"adjusted Laspeyres did not converge in {cfg.max_iterations} sweeps")
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# Engine registry and uniform dispatch


# family: (runner, usable as a GEKS inner). Runners look their engine up by
# module-level name at call time, so a wrapper installed on this module's
# attributes sees every dispatched call.
_REGISTRY = {
    "gk": (lambda d, s, e: gk_index(d, s, e.fixed_point), False),
    "mgk": (lambda d, s, e: mgk_index(d, s), True),
    "guv": (lambda d, s, e: guv_index(d, s, e.reference_price, e.fixed_point), True),
    "wgm": (lambda d, s, e: wgm_index(d, s, e.weights, e.reference_price, e.fixed_point), True),
    "tornqvist": (lambda d, s, e: tornqvist_index(d, s), True),
    "tpd": (lambda d, s, e: tpd_index(d, s, e.fixed_point), False),
    "geks": (lambda d, s, e: geks_index(d, s, e.inner), False),
    "rq": (lambda d, s, e: rq_index(d, s, e.reference_quantity, e.imputation), False),
    "rqp": (
        lambda d, s, e: rqp_index(
            d, s, e.alpha, e.reference_quantity, e.imputation, e.reference_price, e.fixed_point
        ),
        False,
    ),
}
ENGINE_FAMILIES = tuple(_REGISTRY)
CHAINABLE_FAMILIES = tuple(name for name, (_run, chainable) in _REGISTRY.items() if chainable)
# The families with a row in the paper's Table 1, in its order: the verdict
# matrix's default rows.
TABLE1_ROWS = ("mgk", "wgm", "geks")


@dataclass(frozen=True)
class EngineSpec:
    """Declarative engine choice, used by the harness, the CLI and GEKS."""

    family: str
    reference_price: ReferencePriceScheme | None = None
    reference_quantity: ReferenceQuantityScheme | None = None
    weights: object | None = None
    alpha: float = 0.5
    imputation: ImputationPolicy | None = None
    inner: "EngineSpec | None" = None
    fixed_point: FixedPointConfig | None = None

    def __post_init__(self) -> None:
        if self.family not in ENGINE_FAMILIES:
            raise ValueError(f"unknown engine family {self.family!r}")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.family == "geks":
            _require_time_reversible(self.inner if self.inner is not None else EngineSpec("mgk"))

    def label(self) -> str:
        if self.family == "geks":
            inner = self.inner.label() if self.inner is not None else "mgk"
            return f"geks({inner})"
        if self.family == "rqp":
            return f"rqp(alpha={self.alpha})"
        return self.family


# GEKS's default inner, built once: geks_index runs on every small chain
# of the verdict matrix.
_MGK = EngineSpec("mgk")


def _require_time_reversible(inner: EngineSpec) -> None:
    if inner.family not in CHAINABLE_FAMILIES:
        raise ValueError(f"engine family {inner.family!r} is not a time-reversible bilateral")
    scheme = inner.reference_price
    if scheme is not None and scheme.needs_index:
        raise ValueError("index-coupled reference prices break time reversal for chaining")
    if scheme is not None and not isinstance(scheme, (LehrUnitValue, CustomPrices)):
        raise ValueError(
            f"reference price scheme {scheme!r} is not symmetric in the compared periods"
        )


def evaluate(dataset: Dataset, spec: ComparisonSpec, engine: EngineSpec) -> IndexResult:
    """Run the engine described by ``engine`` on one comparison."""
    run, _chainable = _REGISTRY[engine.family]
    return run(dataset, spec, engine)
