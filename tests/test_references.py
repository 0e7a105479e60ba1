import dataclasses
import math
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynindex import (
    ArithmeticMeanQuantity,
    BaseQuantity,
    Bilateral,
    ComparisonSpec,
    CurrentQuantity,
    CustomPrices,
    CustomQuantities,
    Dataset,
    DeflatedUnitValue,
    EngineSpec,
    ExpenditureOverReferencePrice,
    ExpenditureShare,
    FixedBase,
    FixedPointConfig,
    FixedPointReport,
    FullHistory,
    InvalidDataError,
    LehrUnitValue,
    NumericalError,
    PriceIndexError,
    ReferenceData,
    RollingWindow,
    SchemeError,
    TPDGeometric,
    emit_csv,
    evaluate,
    ingest_csv,
    reference_data,
    reference_prices,
    reference_quantities,
    solve_fixed_point,
)
from dynindex.engines import _guv_index_at, _wgm_index_at
from dynindex.references import _run_shares, gk_start, tpd_start
from helpers import (
    OVERFLOWING_QUANTITY_INDEX,
    OVERFLOWING_QUANTITY_SUM,
    POSITIVE_EDGE_FLOATS,
    SMALL_DYN,
    ZERO_PIVOT,
    random_market,
    raw_reference_values,
    small_dyn,
    small_fixed,
)

BILATERAL = ComparisonSpec(0, 1, Bilateral())


def _price(scheme, dataset, item, series=None):
    """One item's reference price over the bilateral comparison 0 -> 1."""
    return reference_prices(reference_data(dataset, BILATERAL, {item}), scheme, series)[item]


def lehr_price(dataset, item):
    return _price(LehrUnitValue(), dataset, item)


def deflated_price(dataset, item, series):
    return _price(DeflatedUnitValue(), dataset, item, series)


def tpd_price(dataset, item, series):
    return _price(TPDGeometric(), dataset, item, series)


def reference_quantity(dataset, scheme, item, spec, prices=None):
    return reference_quantities(reference_data(dataset, spec, {item}), scheme, prices)[item]


class TestReferenceData:
    def test_absent_item(self):
        ds = Dataset.build({**SMALL_DYN, 2: {"D": (1.0, 1.0)}})
        with pytest.raises(SchemeError):
            reference_data(ds, BILATERAL, {"A", "D"})

    def test_groups_observations_by_position(self):
        ds = random_market(4, periods=5, items=6, churn=0.5)
        spec = ComparisonSpec(2, 4, RollingWindow(4))
        data = reference_data(ds, spec)
        assert data.periods == (1, 2, 3, 4)
        assert (data.base, data.current) == (1, 3)
        for k, r in enumerate(data.periods):
            assert data.period_items[k] is ds.period_data(r).items
            assert data.totals[k] == ds.period_data(r).total_expenditure()
        assert set(data.runs) == set().union(*(ds.universe(r) for r in data.periods))
        for item, (ks, present, _, _, _, _) in data.runs.items():
            positions = tuple(k for k, r in enumerate(data.periods) if ds.has(r, item))
            assert ks == positions
            assert len(present) == len(positions)
            for k, obs in zip(positions, present):
                assert obs is ds.observation(data.periods[k], item)

    def test_keeps_only_requested_items_in_first_appearance_order(self):
        ds = Dataset.build({
            0: {"A": (1.0, 1.0), "B": (2.0, 1.0)},
            1: {"C": (3.0, 1.0), "A": (1.5, 2.0)},
            2: {"D": (4.0, 1.0), "B": (2.5, 1.0)},
        })
        data = reference_data(ds, ComparisonSpec(0, 2, FullHistory()), ["B", "C", "A"])
        assert list(data.runs) == ["A", "B", "C"]
        assert [o.price for o in data.runs["A"][1]] == [1.0, 1.5]
        assert [o.price for o in data.runs["B"][1]] == [2.0, 2.5]
        assert {i: ks for i, (ks, _, _, _, _, _) in data.runs.items()} == {
            "A": (0, 1), "B": (0, 2), "C": (1,)}


def _returning_market(seed, first=0, gap=None):
    """Six or seven periods of up to eight items that leave and come back, each
    map in its own random order; with a gap, the period ``gap`` is missing."""
    rng = random.Random(seed)
    pool = [f"i{n}" for n in range(8)]
    data = {}
    for t in range(first, first + 7 if gap is not None else first + 6):
        if t == gap:
            continue
        items = [i for i in pool if rng.random() < 0.6] or [rng.choice(pool)]
        rng.shuffle(items)
        data[t] = {i: (rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)) for i in items}
    return Dataset.build(data)


def _carried(column):
    """A run's carried total: the fsum of its column, None where that overflows."""
    try:
        return math.fsum(column)
    except OverflowError:
        return None


def _walked_table(ds, spec, items=None):
    """The table that one walk of the reference periods' maps gives, with no view.

    A run carries its totals where the table has three or more periods and
    the run is the item's whole run in the dataset.
    """
    periods = spec.reference_periods(ds)
    maps = tuple(ds.period_data(r).items for r in periods)
    observations, positions = {}, {}
    for k, m in enumerate(maps):
        for item, o in m.items():
            if items is None or item in items:
                observations.setdefault(item, []).append(o)
                positions.setdefault(item, []).append(k)
    if items is not None:
        missing = [item for item in items if item not in observations]
        if missing:
            raise SchemeError(f"item {missing[0]!r} absent from all reference periods {periods}")
    runs = {}
    for i, obs in observations.items():
        spent = tuple(o.price * o.quantity for o in obs)
        traded = tuple(o.quantity for o in obs)
        whole = len(periods) > 2 and len(obs) == sum(ds.has(r, i) for r in ds.period_indices())
        runs[i] = (tuple(positions[i]), tuple(obs), spent, traded,
                   _carried(spent) if whole else None, _carried(traded) if whole else None)
    return ReferenceData(
        periods, periods.index(spec.base), periods.index(spec.current), maps,
        tuple(ds.period_data(r).total_expenditure() for r in periods), runs, ds)


def _windows(ds):
    """Every comparison over consecutive periods of the dataset, under every policy."""
    indices = ds.period_indices()

    def present(start, current):
        return all(r in indices for r in range(start, current + 1))

    for base in indices:
        for current in indices:
            if current <= base or not present(base, current):
                continue
            yield ComparisonSpec(base, current, FullHistory())
            yield ComparisonSpec(base, current, Bilateral())
            for window in range(current - base + 1, current - indices[0] + 2):
                if present(max(indices[0], current - window + 1), current):
                    yield ComparisonSpec(base, current, RollingWindow(window))


def _outcome(f):
    try:
        return f()
    except SchemeError as e:
        return str(e)


class TestItemView:
    @pytest.mark.parametrize("seed, first, gap", [(0, 0, None), (1, 0, None), (2, 3, None),
                                                  (3, 0, 3), (4, 2, 4)])
    def test_tables_match_a_walk_of_the_period_maps(self, seed, first, gap):
        ds = _returning_market(seed, first, gap)
        rng = random.Random(seed)
        everything = sorted(set().union(*(ds.universe(r) for r in ds.period_indices())))
        for spec in _windows(ds):
            compared = ds.universe(spec.base) | ds.universe(spec.current)
            some = set(rng.sample(everything, rng.randint(1, len(everything))))
            for items in (None, compared, some):
                expected = _outcome(lambda: _walked_table(ds, spec, items))
                data = _outcome(lambda: reference_data(ds, spec, items))
                if isinstance(expected, str):
                    assert data == expected
                    continue
                assert (data.periods, data.base, data.current) == (
                    expected.periods, expected.base, expected.current)
                assert all(a is b for a, b in zip(data.period_items, expected.period_items))
                assert data.totals == expected.totals
                assert list(data.runs) == list(expected.runs)
                for item, (ks, obs, spent, traded, *totals) in expected.runs.items():
                    run = data.runs[item]
                    assert len(run[1]) == len(obs)
                    assert all(a is b for a, b in zip(run[1], obs))
                    assert (run[0], run[2], run[3], *run[4:]) == (ks, spent, traded, *totals)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_run_inside_a_window_from_the_first_period_is_the_views_own(self, seed):
        ds = _returning_market(seed)
        indices = ds.period_indices()
        for hi, current in enumerate(indices[2:], 2):
            data = reference_data(ds, ComparisonSpec(indices[0], current, FullHistory()))
            view = ds._item_view()[0]
            for item, run in data.runs.items():
                assert (run is view[item]) == (view[item][0][-1] <= hi)

    @pytest.mark.parametrize("seed, first, gap", [(5, 0, None), (6, 1, 3)])
    def test_schemes_name_the_walks_first_missing_item(self, seed, first, gap):
        ds = _returning_market(seed, first, gap)
        rng = random.Random(seed)
        everything = sorted(set().union(*(ds.universe(r) for r in ds.period_indices())))
        for spec in _windows(ds):
            covered = rng.sample(everything, rng.randint(0, len(everything)))
            schemes = (FixedBase().prices_for,
                       CustomPrices(dict.fromkeys(covered, 2.0)).prices_for,
                       CustomQuantities(dict.fromkeys(covered, 2.0)).quantities_for)
            for scheme in schemes:
                expected = _outcome(lambda: scheme(_walked_table(ds, spec)))
                assert _outcome(lambda: scheme(reference_data(ds, spec))) == expected

    def test_only_tables_of_three_or_more_periods_build_the_view(self, tmp_path):
        data = {t: {"a": (1.0 + t, 2.0), "b": (2.0, 1.0 + t), f"c{t}": (3.0, 1.0)} for t in range(4)}
        built = [Dataset.build(data), Dataset(Dataset.build(data).periods)]
        path = tmp_path / "market.csv"
        path.write_text("period,item,price,quantity\n" + "".join(
            f"{t},{i},{p},{q}\n" for t, m in data.items() for i, (p, q) in m.items()))
        with path.open() as f:
            built.append(ingest_csv(f))
        full = ComparisonSpec(0, 3, FullHistory())
        for ds in built:
            assert ds._view is None
            # the bilateral Lehr and WGM kernels, and GEKS column legs
            for family in ("mgk", "wgm"):
                evaluate(ds, ComparisonSpec(0, 1, Bilateral()), EngineSpec(family))
                evaluate(ds, full, EngineSpec("geks", inner=EngineSpec(family)))
            reference_data(ds, ComparisonSpec(1, 2, RollingWindow(2)))
            assert ds._view is None
            reference_data(ds, full)
            view = ds._view
            assert view is not None
            for family in ("gk", "tpd", "mgk", "rq"):
                evaluate(ds, ComparisonSpec(1, 3, RollingWindow(3)), EngineSpec(family))
                evaluate(ds, full, EngineSpec(family))
            assert ds._view is view


# Runs that sum past the float range, over three or more periods so that
# their tables are sliced from the view: a's quantities, and a's
# expenditures (four halves of 2e308), while every period's total is finite.
_OVERFLOWING = {
    "quantity-sum": {**OVERFLOWING_QUANTITY_SUM, 2: OVERFLOWING_QUANTITY_SUM[0]},
    "expenditure-sum": {0: OVERFLOWING_QUANTITY_INDEX[0], 1: OVERFLOWING_QUANTITY_INDEX[1],
                        2: OVERFLOWING_QUANTITY_INDEX[1], 3: OVERFLOWING_QUANTITY_INDEX[0]},
}


def _stripped(data):
    """The table with every run's totals set to None, as no view carries them."""
    return dataclasses.replace(
        data, runs={item: run[:4] + (None, None) for item, run in data.runs.items()})


def _read(f):
    """Each value of a reader as float.hex (None for no start), or its error."""
    try:
        values = f()
    except PriceIndexError as e:
        return type(e), str(e)
    return None if values is None else {key: value.hex() for key, value in values.items()}


def _readers_of_totals(data, series, prices):
    """The schemes and the start that read a run's carried totals, each on data."""
    return (lambda: LehrUnitValue().prices_for(data),
            lambda: DeflatedUnitValue().prices_for(data, series),
            lambda: ArithmeticMeanQuantity().quantities_for(data),
            lambda: ExpenditureOverReferencePrice().quantities_for(data, prices),
            lambda: gk_start(data))


class TestCarriedTotals:
    @pytest.mark.parametrize("seed", range(4))
    def test_the_views_runs_carry_the_fsum_of_their_columns(self, seed):
        ds = random_market(seed, periods=8, items=12, churn=0.3)
        for _, _, spent, traded, expenditure, quantity in ds._item_view()[0].values():
            assert expenditure.hex() == math.fsum(spent).hex()
            assert quantity.hex() == math.fsum(traded).hex()

    def test_a_run_that_sums_past_the_float_range_carries_none(self):
        view = Dataset.build(_OVERFLOWING["quantity-sum"])._item_view()[0]
        assert view["a"][4:] == (math.fsum(view["a"][2]), None)
        assert view["b"][4:] == (math.fsum(view["b"][2]), math.fsum(view["b"][3]))
        for run in Dataset.build(_OVERFLOWING["expenditure-sum"])._item_view()[0].values():
            assert run[4:] == (None, math.fsum(run[3]))

    @pytest.mark.parametrize("seed", range(3))
    def test_only_whole_runs_of_longer_tables_carry_the_views_totals(self, seed):
        ds = random_market(seed, periods=8, items=12, churn=0.3)
        view = ds._item_view()[0]
        seen = set()
        for spec in (ComparisonSpec(0, 4, FullHistory()), ComparisonSpec(5, 7, RollingWindow(4)),
                     ComparisonSpec(3, 7, FullHistory()), ComparisonSpec(2, 5, Bilateral()),
                     ComparisonSpec(6, 7, RollingWindow(2))):
            data = reference_data(ds, spec)
            for item, run in data.runs.items():
                whole = len(data.periods) > 2 and len(run[0]) == len(view[item][0])
                if whole:
                    # shifted where the window starts after the first period
                    assert run[4] is view[item][4] and run[5] is view[item][5]
                    seen.add("shifted" if run[0] != view[item][0] else "whole")
                else:
                    assert run[4:] == (None, None)
                    seen.add("cut" if len(data.periods) > 2 else "two-period")
        assert seen == {"whole", "shifted", "cut", "two-period"}

    @pytest.mark.parametrize("name", [0, 1, 2, 3, *_OVERFLOWING])
    def test_readers_give_what_they_sum_without_carried_totals(self, name):
        if name in _OVERFLOWING:
            ds = Dataset.build(_OVERFLOWING[name])
        else:
            ds = random_market(name, periods=6, items=10, churn=0.3)
        rng = random.Random(str(name))
        series = {r: rng.uniform(0.5, 2.0) for r in ds.period_indices()}
        for spec in _windows(ds):
            data = reference_data(ds, spec)
            # a zero price makes the expenditure reader raise at that item
            prices = {item: rng.choice([0.0, 1.5, 2.0]) for item in data.runs}
            assert ([_read(f) for f in _readers_of_totals(data, series, prices)]
                    == [_read(f) for f in _readers_of_totals(_stripped(data), series, prices)])


class TestLehrPrice:
    def test_small_fixed_item_a(self):
        assert lehr_price(small_fixed(), "A") == pytest.approx(1.5, abs=1e-15)

    def test_single_observation(self):
        assert lehr_price(small_dyn(), "B") == 2.0

    def test_single_observation_is_expenditure_over_quantity(self):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, not to the price 0.1
        ds = Dataset.build({0: {"A": (0.1, 3.0)}, 1: {"B": (1.0, 1.0)}})
        price = lehr_price(ds, "A")
        assert price == 0.1 * 3.0 / 3.0 == 0.10000000000000002
        assert price != 0.1

    def test_constant_price(self):
        ds = Dataset.build({0: {"A": (3.5, 2.0)}, 1: {"A": (3.5, 9.0)}})
        assert lehr_price(ds, "A") == pytest.approx(3.5, rel=1e-15)

    @given(
        p0=st.floats(0.1, 50, allow_nan=False),
        p1=st.floats(0.1, 50, allow_nan=False),
        q0=st.floats(0.1, 50, allow_nan=False),
        q1=st.floats(0.1, 50, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_within_observed_price_range(self, p0, p1, q0, q1):
        ds = Dataset.build({0: {"A": (p0, q0)}, 1: {"A": (p1, q1)}})
        value = lehr_price(ds, "A")
        assert min(p0, p1) * (1 - 1e-12) <= value <= max(p0, p1) * (1 + 1e-12)


_MAX = sys.float_info.max


def _lehr_formula(data):
    """Expenditure over quantity: p*q/q for one observation, fsum for more."""
    prices = {}
    for item, (_, obs, _, _, _, _) in data.runs.items():
        if len(obs) == 1:
            (o,) = obs
            prices[item] = o.price * o.quantity / o.quantity
        else:
            prices[item] = (math.fsum([o.price * o.quantity for o in obs])
                            / math.fsum([o.quantity for o in obs]))
    return prices


def _hex_prices(prices, errors):
    """Each price as float.hex, so that the sign of a zero counts; or the error kind."""
    try:
        return {item: price.hex() for item, price in prices().items()}
    except errors:
        return PriceIndexError


class TestLehrShortcut:
    @given(st.lists(st.tuples(st.sampled_from([(0,), (1,), (0, 1)]),
                              POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS,
                              POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS),
                    min_size=1, max_size=6))
    @example([((0, 1), 1e300, 1e8, 1e300, 1e8)])  # finite expenditures, overflowing sum
    @example([((0, 1), 1.0, _MAX, 1.0, _MAX)])  # overflowing quantity sum
    @settings(max_examples=400)
    def test_one_or_two_observations_price_as_the_formula(self, draws):
        # on data inside the input contract the formula raises only on overflow
        periods = {0: {}, 1: {}}
        for n, (present, p0, q0, p1, q1) in enumerate(draws):
            for t in present:
                periods[t][f"i{n}"] = (p0, q0) if t == 0 else (p1, q1)
        ds = Dataset.build(periods)
        if ds._violation is not None:
            with pytest.raises(InvalidDataError):
                reference_data(ds, BILATERAL)
            return
        data = reference_data(ds, BILATERAL)
        assert (_hex_prices(lambda: LehrUnitValue().prices_for(data), PriceIndexError)
                == _hex_prices(lambda: _lehr_formula(data), OverflowError))


class TestDeflatedPrice:
    def test_unit_series_equals_lehr(self):
        ds = small_fixed()
        series = {0: 1.0, 1: 1.0}
        assert deflated_price(ds, "A", series) == lehr_price(ds, "A")

    def test_small_dyn_item_a(self):
        value = deflated_price(small_dyn(), "A", {0: 1.0, 1: 1.2})
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_single_period_item(self):
        value = deflated_price(small_dyn(), "C", {0: 1.0, 1: 1.5})
        assert value == pytest.approx(3.0 / 1.5, rel=1e-15)

    def test_missing_index_value(self):
        with pytest.raises(SchemeError):
            deflated_price(small_dyn(), "A", {0: 1.0})


@pytest.mark.parametrize("scheme", [DeflatedUnitValue(), TPDGeometric()])
@pytest.mark.parametrize("series, error, message", [
    (None, SchemeError, "index-deflated reference prices need an index series"),
    ({0: 1.0, 2: 1.0}, SchemeError, "index series has no value for period 1"),
    ({0: 1.0, 1: 0.0}, NumericalError, "index series value for period 1 is 0.0"),
    ({0: math.inf, 1: 1.0}, NumericalError, "index series value for period 0 is inf"),
])
def test_deflated_schemes_refuse_a_series_without_a_usable_value(scheme, series, error, message):
    data = reference_data(small_dyn(), BILATERAL)
    with pytest.raises(error, match=f"^{message}$"):
        reference_prices(data, scheme, series)


class TestTpdPrice:
    def test_constant_price_unit_series(self):
        ds = Dataset.build({0: {"A": (3.5, 2.0), "B": (1, 5)}, 1: {"A": (3.5, 9.0), "B": (2, 1)}})
        assert tpd_price(ds, "A", {0: 1.0, 1: 1.0}) == pytest.approx(3.5, rel=1e-12)

    def test_single_period_item(self):
        value = tpd_price(small_dyn(), "C", {0: 1.0, 1: 2.0})
        assert value == pytest.approx(1.5, rel=1e-15)

    def test_a_mean_of_the_largest_log_rounded_past_it_overflows(self):
        # Every price is the largest float, so every log is the largest, and
        # the normalized shares 1/2 and 1/3 of item a sum to just over one.
        top = sys.float_info.max
        ds = Dataset.build({0: {"a": (top, 0.1), "b": (top, 0.1)},
                            1: {"a": (top, 0.1), "b": (top, 0.2)}})
        with pytest.raises(NumericalError,
                           match="^weighted geometric mean is past the float range$"):
            tpd_price(ds, "a", {0: 1.0, 1: 1.0})

    def test_small_fixed_item_a_exponents(self):
        # shares 1/2 and 2/3 normalize to 3/7 and 4/7, giving 2**(4/7)
        value = tpd_price(small_fixed(), "A", {0: 1.0, 1: 1.0})
        assert value == pytest.approx(2 ** (4 / 7), rel=1e-14)

    def test_equal_shares_unit_index_is_geometric_mean(self):
        # equal expenditure in both periods makes the exponents 1/2 each
        ds = Dataset.build({0: {"A": (2.0, 3.0), "B": (6.0, 1.0)}, 1: {"A": (8.0, 1.0), "B": (4.0, 2.0)}})
        value = tpd_price(ds, "A", {0: 1.0, 1: 1.0})
        assert value == pytest.approx((2.0 * 8.0) ** 0.5, rel=1e-14)


class TestReferenceQuantity:
    def test_base_quantity(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        assert reference_quantity(small_fixed(), BaseQuantity(), "A", spec) == 1.0

    def test_arithmetic_mean(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        assert reference_quantity(small_dyn(), ArithmeticMeanQuantity(), "A", spec) == 1.0

    def test_expenditure_over_reference_price(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        value = reference_quantity(
            small_fixed(), ExpenditureOverReferencePrice(), "A", spec, {"A": 1.5}
        )
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_base_quantity_for_birth_item(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        with pytest.raises(SchemeError):
            reference_quantity(small_dyn(), BaseQuantity(), "C", spec)

    def test_custom_quantity_must_be_positive(self):
        engine = EngineSpec("rq", reference_quantity=CustomQuantities({"A": 0.0, "B": 1.0}))
        with pytest.raises(SchemeError, match="^reference quantity for 'A' is 0.0$"):
            evaluate(small_fixed(), ComparisonSpec(0, 1, Bilateral()), engine)


class TestCustomPrices:
    def test_missing_coverage(self):
        scheme = CustomPrices({"A": 1.0})
        with pytest.raises(SchemeError):
            _price(scheme, small_dyn(), "B")

    def test_non_positive(self):
        scheme = CustomPrices({"A": 0.0})
        with pytest.raises(SchemeError):
            _price(scheme, small_dyn(), "A")


@pytest.mark.parametrize(
    "spec",
    [
        ComparisonSpec(1, 3, Bilateral()),
        ComparisonSpec(1, 4, FullHistory()),
        ComparisonSpec(2, 4, RollingWindow(4)),
    ],
    ids=["bilateral", "full-history", "rolling-base-mid-window"],
)
@pytest.mark.parametrize("seed", range(8))
def test_table_schemes_match_raw_sums(seed, spec):
    ds = random_market(seed, periods=5, items=9, churn=0.4)
    rng = random.Random(seed)
    periods = spec.reference_periods(ds)
    series = {r: rng.uniform(0.5, 2.0) for r in periods}
    universe = frozenset().union(*(ds.universe(r) for r in periods))
    compared = ds.universe(spec.base) | ds.universe(spec.current)
    oracle = {item: raw_reference_values(ds, periods, spec.base, spec.current, item, series)
              for item in universe}

    def check(key, values, items):
        assert set(values) == items
        for item in items:
            assert values[item] == pytest.approx(oracle[item][key], rel=1e-12), (key, item)

    everything = reference_data(ds, spec)
    check("lehr", reference_prices(everything, LehrUnitValue()), universe)
    check("deflated", reference_prices(everything, DeflatedUnitValue(), series), universe)
    check("tpd", reference_prices(everything, TPDGeometric(), series), universe)
    check("mean", reference_quantities(everything, ArithmeticMeanQuantity()), universe)
    lehr = reference_prices(everything, LehrUnitValue())
    check("expenditure", reference_quantities(everything, ExpenditureOverReferencePrice(), lehr),
          universe)
    check("fixed-base", reference_prices(reference_data(ds, spec, compared), FixedBase()), compared)
    for key, scheme, period in (("base", BaseQuantity(), spec.base),
                                ("current", CurrentQuantity(), spec.current)):
        check(key, reference_quantities(reference_data(ds, spec, ds.universe(period)), scheme),
              ds.universe(period))
        if compared != ds.universe(period):
            with pytest.raises(SchemeError):
                reference_quantities(reference_data(ds, spec, compared), scheme)


class TestFixedPointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointConfig(tolerance=0)
        with pytest.raises(ValueError):
            FixedPointConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FixedPointConfig(damping=0)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="positive and finite"):
            FixedPointConfig(tolerance=tolerance)


def test_report_method_defaults_to_sweep():
    assert FixedPointReport(True, 3, 1e-12) == FixedPointReport(True, 3, 1e-12, "sweep")


def _coupled(family, ds, spec):
    """The solver's (table, scheme, index_at) for the GK or TPD system."""
    data = reference_data(ds, spec)
    if family == "tpd":
        return data, TPDGeometric(), _wgm_index_at(data, ExpenditureShare())
    return data, DeflatedUnitValue(), _guv_index_at(ds, spec, data)


@pytest.mark.parametrize("family", ["gk", "tpd"])
def test_index_at_follows_each_new_price_map(family):
    # index_at builds the base side once per price map; a map it has not
    # seen last must not reuse the last one's terms
    ds = random_market(4, periods=5, items=10, churn=0.3)
    spec = ComparisonSpec(0, 4, FullHistory())
    data, scheme, index_at = _coupled(family, ds, spec)
    first = reference_prices(data, scheme, {r: 1.0 for r in data.periods})
    second = reference_prices(data, scheme, {r: 1.0 + r / 10 for r in data.periods})
    for prices in (first, second, first):
        for k in range(1, len(data.periods)):
            fresh = _coupled(family, ds, spec)[2]
            assert index_at(k, prices).hex() == fresh(k, prices).hex()
    assert index_at(4, first) != index_at(4, second)


class TestSolveFixedPoint:
    def test_constant_data_is_identity(self):
        ds = Dataset.build({t: {"A": (2, 5), "B": (3, 1 + t)} for t in range(4)})
        from dynindex import FullHistory

        spec = ComparisonSpec(0, 3, FullHistory())
        series, prices, report = solve_fixed_point(*_coupled("gk", ds, spec))
        assert report.converged
        assert report.iterations <= 2
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in series.values())
        assert prices["A"] == pytest.approx(2.0, rel=1e-12)

    def test_bilateral_small_dyn(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        ds = small_dyn()
        series, _, report = solve_fixed_point(*_coupled("gk", ds, spec))
        assert report.converged
        assert series[1] == pytest.approx(1.2, abs=1e-9)

    def test_bilateral_small_fixed_scalar_oracle(self):
        # independent oracle: plain scalar iteration of the one-unknown equation
        ds = small_fixed()
        expected = 1.0
        for _ in range(200):
            pa = (1.0 + 2.0 / expected) / 2.0
            pb = (1.0 + 1.0 / expected) / 2.0
            expected = 1.5 / ((pa + pb) / (pa + pb))
        spec = ComparisonSpec(0, 1, Bilateral())
        series, _, report = solve_fixed_point(*_coupled("gk", ds, spec))
        assert report.converged
        assert series[1] == pytest.approx(expected, abs=1e-9)

    def test_converged_implies_residual_within_tolerance(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        ds = small_dyn()
        config = FixedPointConfig(tolerance=1e-12)
        _, _, report = solve_fixed_point(*_coupled("gk", ds, spec), config)
        assert report.converged
        assert report.final_residual <= config.tolerance

    def test_non_convergence_reported(self):
        spec = ComparisonSpec(0, 1, Bilateral())
        ds = small_dyn()
        config = FixedPointConfig(max_iterations=2)
        _, _, report = solve_fixed_point(*_coupled("gk", ds, spec), config)
        assert not report.converged
        assert report.iterations == 2

    def test_prices_come_from_the_last_sweep(self):
        ds = random_market(3, periods=4)
        spec = ComparisonSpec(0, 3, FullHistory())
        data, scheme, index_at = _coupled("gk", ds, spec)
        priced_from = []

        class Recording:
            needs_index = True

            def prices_for(self, data, series):
                priced_from.append(dict(series))
                return scheme.prices_for(data, series)

        _, prices, report = solve_fixed_point(data, Recording(), index_at)
        assert report.iterations > 1
        assert len(priced_from) == report.iterations
        assert prices == reference_prices(data, scheme, priced_from[-1])


# An identity-start sweep run this tight is the reference for the direct start.
TIGHT = FixedPointConfig(tolerance=1e-14, max_iterations=100_000)


def _evaluate(family, ds, spec, config=None):
    if family == "rqp":
        engine = EngineSpec("rqp", reference_price=DeflatedUnitValue(), fixed_point=config)
    else:
        engine = EngineSpec(family, fixed_point=config)
    return evaluate(ds, spec, engine)


class TestDirectStart:
    """GK and TPD start from a direct solve that one sweep certifies."""

    @pytest.mark.parametrize("family", ["gk", "tpd", "rqp"])
    @pytest.mark.parametrize(
        "spec, config",
        [
            (ComparisonSpec(0, 1, Bilateral()), None),
            (ComparisonSpec(0, 4, FullHistory()), None),
            (ComparisonSpec(2, 4, RollingWindow(4)), None),
            (ComparisonSpec(0, 4, FullHistory()), FixedPointConfig(damping=0.5)),
        ],
        ids=["bilateral", "full-history", "rolling-base-mid-window", "damped"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_one_sweep_certifies_the_fixed_point(self, family, spec, config, seed):
        ds = random_market(seed, periods=5, items=12)
        result = _evaluate(family, ds, spec, config)
        assert result.diagnostics.method == "direct"
        assert result.diagnostics.iterations == 1
        assert result.diagnostics.converged
        reference, _, report = solve_fixed_point(*_coupled(family, ds, spec), TIGHT)
        assert report.converged and report.method == "sweep"
        if family == "rqp":
            solved = {spec.current: result.components["guv"]}
        else:
            solved = result.series
            assert solved.keys() == reference.keys()
        for r, value in solved.items():
            assert abs(math.log(value) - math.log(reference[r])) <= 1e-11

    @pytest.mark.parametrize("family", ["gk", "tpd"])
    @pytest.mark.parametrize(
        "data, spec",
        [
            ({0: {"A": (1, 2)}, 1: {"B": (3, 4)}}, ComparisonSpec(0, 1, Bilateral())),
            (
                {
                    0: {"A": (1.0, 2.0), "B": (2.0, 1.0)},
                    1: {"C": (5.0, 1.0)},
                    2: {"A": (1.5, 1.0), "B": (1.8, 3.0)},
                },
                ComparisonSpec(0, 2, FullHistory()),
            ),
            (ZERO_PIVOT, ComparisonSpec(0, 2, FullHistory())),
        ],
        ids=["disjoint-universes", "unlinked-middle-period", "zero-pivot"],
    )
    def test_identity_start_where_no_direct_solve(self, family, data, spec):
        ds = Dataset.build(data)
        result = _evaluate(family, ds, spec)
        series, _, report = solve_fixed_point(*_coupled(family, ds, spec))
        assert result.diagnostics == report
        assert report.method == "sweep"
        assert result.series == series

    @pytest.mark.parametrize("family", ["gk", "tpd"])
    def test_zero_quantity_raises_the_contract_error(self, family):
        # a zero quantity is refused before the start and the sweeps
        ds = Dataset.build({0: {"A": (1.0, 0.0), "B": (2.0, 1.0)},
                            1: {"A": (1.5, 1.0), "B": (2.5, 2.0)}})
        with pytest.raises(InvalidDataError, match=r"^quantity of item 'A' in period 0 is 0\.0$"):
            _evaluate(family, ds, ComparisonSpec(0, 1, Bilateral()))

    @pytest.mark.parametrize("family, value, sweeps",
                             [("gk", 3.499999999999998e38, 4), ("tpd", 5.3452248382484745e45, 2)])
    def test_zero_pivot_converges_from_the_identity(self, family, value, sweeps):
        result = _evaluate(family, Dataset.build(ZERO_PIVOT), ComparisonSpec(0, 2, FullHistory()))
        assert result.diagnostics.converged and result.diagnostics.iterations == sweeps
        assert result.value == pytest.approx(value, rel=1e-12)



# The period-major direct starts: each link entry scans one period's item
# map for the items of another. The row-at-a-time starts must match them
# bit for bit.


def _oracle_solve(links, rhs, pin, value):
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
    try:
        for c in range(m):
            p = max(range(c, m), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(c + 1, m):
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
        z = [0.0] * m
        for r in reversed(range(m)):
            z[r] = ((rows[r][m] - math.fsum(rows[r][s] * z[s] for s in range(r + 1, m)))
                    / rows[r][r])
    except ZeroDivisionError:  # a zero pivot: no direct start
        return None
    z.insert(pin, value)
    return z


def _oracle_series(periods, logs):
    if logs is None or not all(abs(v) < math.log(sys.float_info.max) for v in logs):
        return None
    return dict(zip(periods, map(math.exp, logs)))


def oracle_gk_start(data):
    maps = data.period_items
    try:
        quantity = {
            i: math.fsum([o.quantity for o in obs])
            for i, (_, obs, _, _, _, _) in data.runs.items()
        }
        links = [
            [
                math.fsum(obs.quantity * ms[i].expenditure / quantity[i]
                          for i, obs in mr.items() if i in ms) if r != s else 0.0
                for s, ms in enumerate(maps)
            ]
            for r, mr in enumerate(maps)
        ]
    except OverflowError:
        return None
    x = _oracle_solve(links, [0.0] * len(maps), data.base, 1.0)
    if x is None or not all(v > 0 for v in x):
        return None
    return _oracle_series(data.periods, [-math.log(v) for v in x])


def oracle_tpd_start(data):
    maps, totals = data.period_items, data.totals
    weight = {
        i: math.fsum([o.expenditure / totals[k] for k, o in zip(ks, obs)])
        for i, (ks, obs, _, _, _, _) in data.runs.items()
    }
    if not all(w > 0 for w in weight.values()):
        return None
    mean_log = {
        i: math.fsum([o.expenditure / totals[k] * math.log(o.price)
                      for k, o in zip(ks, obs)])
        / weight[i]
        for i, (ks, obs, _, _, _, _) in data.runs.items()
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
    return _oracle_series(data.periods, _oracle_solve(links, rhs, data.base, 0.0))


def _hex(series):
    return None if series is None else {r: v.hex() for r, v in series.items()}


_START_SPECS = [
    ComparisonSpec(0, 1, Bilateral()),
    ComparisonSpec(2, 5, Bilateral()),
    ComparisonSpec(0, 7, FullHistory()),
    ComparisonSpec(3, 6, RollingWindow(5)),
    ComparisonSpec(5, 7, RollingWindow(3)),
]

_DEGENERATE_STARTS = {
    "disjoint-universes": ({0: {"A": (1, 2)}, 1: {"B": (3, 4)}}, ComparisonSpec(0, 1, Bilateral())),
    "unlinked-middle-period": (
        {
            0: {"A": (1.0, 2.0), "B": (2.0, 1.0)},
            1: {"C": (5.0, 1.0)},
            2: {"A": (1.5, 1.0), "B": (1.8, 3.0)},
        },
        ComparisonSpec(0, 2, FullHistory()),
    ),
    # a's expenditures are finite, their sum is not
    "overflowing-expenditure-sum": (
        {t: {"a": (1e300, 1e8), "b": (1, 1)} for t in range(3)}, ComparisonSpec(0, 2, FullHistory())),
    # a's quantities are finite, their sum is not
    "overflowing-quantity-sum": (
        {t: {"a": (1e-300, sys.float_info.max), "b": (1, 1)} for t in range(2)},
        ComparisonSpec(0, 1, Bilateral())),
    # positive and finite, but the elimination rounds a pivot to zero
    "zero-pivot": (ZERO_PIVOT, ComparisonSpec(0, 2, FullHistory())),
}


class TestStartsMatchThePeriodMajorBuild:
    @pytest.mark.parametrize(
        "spec", _START_SPECS,
        ids=["bilateral", "bilateral-mid", "full-history", "rolling-base-mid-window", "window-3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_churn_markets(self, seed, spec):
        ds = random_market(seed, periods=8, items=12, churn=0.3)
        for start, oracle in ((gk_start, oracle_gk_start), (tpd_start, oracle_tpd_start)):
            expected = _hex(oracle(reference_data(ds, spec)))
            assert expected is not None
            assert _hex(start(reference_data(ds, spec))) == expected

    @pytest.mark.parametrize("name", _DEGENERATE_STARTS)
    def test_degenerate_data(self, name):
        data, spec = _DEGENERATE_STARTS[name]
        ds = Dataset.build(data)
        for start, oracle in ((gk_start, oracle_gk_start), (tpd_start, oracle_tpd_start)):
            assert _hex(start(reference_data(ds, spec))) == _hex(oracle(reference_data(ds, spec)))

    @pytest.mark.parametrize("data, message", [
        ({0: {"A": (1.0, 0.0), "B": (2.0, 1.0)}, 1: {"A": (1.5, 1.0), "B": (2.5, 2.0)}},
         "quantity of item 'A' in period 0 is 0.0"),
        # a's expenditure, price times quantity, overflows to inf
        ({t: {"a": (1e200, 1e200), "b": (1, 1)} for t in range(2)},
         "total expenditure of period 0 is inf"),
        # each period's total is past the float range
        ({t: {"a": (1e300, 1e8), "b": (1e300, 1e8)} for t in range(2)},
         "total expenditure of period 0 is inf"),
        # every expenditure, and so every period's total, underflows to 0
        ({0: {"a": (1e-200, 1e-200)}, 1: {"a": (1e-200, 2e-200)}},
         "total expenditure of period 0 is 0.0"),
    ], ids=["zero-quantity", "overflowing-expenditure", "overflowing-total", "underflow"])
    def test_data_outside_the_contract_build_no_table(self, data, message):
        # reference_data refuses data outside the contract, so the starts never see them
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            reference_data(Dataset.build(data), BILATERAL)

    def test_zero_pivot_gives_no_start(self):
        data, spec = _DEGENERATE_STARTS["zero-pivot"]
        ds = Dataset.build(data)
        for start in (gk_start, tpd_start, oracle_gk_start, oracle_tpd_start):
            assert start(reference_data(ds, spec)) is None


@pytest.mark.parametrize("start, share", [(gk_start, 1.0), (tpd_start, 0.5)],
                         ids=["gk", "tpd"])
def test_start_holds_one_row_of_terms_at_a_time(start, share):
    # Holding every term of the link matrix at once would take one float
    # and one list slot, 32 bytes, per ordered pair of an item's
    # positions (per unordered pair for TPD's symmetric matrix).
    ds = random_market(3, periods=20, items=100, churn=0.05)
    data = reference_data(ds, ComparisonSpec(0, 19, FullHistory()))
    pairs = sum(len(ks) * (len(ks) - 1) for ks, _, _, _, _, _ in data.runs.values())
    every_term = pairs * share * 32
    tracemalloc.start()
    try:
        assert start(data) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < every_term / 2


def test_scale_equivariance_of_reference_prices():
    ds = small_fixed()
    scaled = Dataset.build(
        {
            t: {i: (obs.price * 7.0, obs.quantity) for i, obs in ds.period_data(t).items.items()}
            for t in (0, 1)
        }
    )
    assert lehr_price(scaled, "A") == pytest.approx(
        7.0 * lehr_price(ds, "A"), rel=1e-12
    )
    assert tpd_price(scaled, "A", {0: 1.0, 1: 1.0}) == pytest.approx(
        7.0 * tpd_price(ds, "A", {0: 1.0, 1: 1.0}), rel=1e-12
    )


def _built(ds):
    """The periods whose share columns are built, and the items whose run shares are kept."""
    return [pd.period for pd in ds.periods if pd._columns is not None], set(ds._shares or ())


def _shares_hex(run_shares):
    shares, weight, mean = run_shares
    return [w.hex() for w in shares], weight.hex(), None if mean is None else mean.hex()


def _outcome_hex(f):
    """An engine result's value, series and report, floats as float.hex, or its error."""
    try:
        result = f()
    except PriceIndexError as e:
        return type(e), str(e)
    series = None if result.series is None else _hex(result.series)
    return result.value.hex(), series, result.diagnostics


_SHARE_SPECS = [ComparisonSpec(0, 7, FullHistory()), ComparisonSpec(0, 4, FullHistory()),
                ComparisonSpec(3, 7, FullHistory()), ComparisonSpec(5, 7, RollingWindow(4)),
                ComparisonSpec(2, 5, Bilateral()), ComparisonSpec(6, 7, RollingWindow(2))]


class TestShareColumns:
    """Expenditure shares and log prices, built once per dataset for TPD and WGM."""

    @pytest.mark.parametrize("seed", range(2))
    def test_period_columns_are_each_items_share_and_log_price(self, seed):
        for pd in random_market(seed, periods=4, items=10, churn=0.3).periods:
            shares, logs = pd._share_columns()
            total = pd.total_expenditure()
            assert [w.hex() for w in shares] == [
                (o.price * o.quantity / total).hex() for o in pd.items.values()]
            assert [lg.hex() for lg in logs] == [
                math.log(o.price).hex() for o in pd.items.values()]
            assert pd._share_columns()[0] is shares

    @pytest.mark.parametrize("seed", range(2))
    def test_run_shares_are_each_runs_shares_and_sums(self, seed):
        ds = random_market(seed, periods=6, items=10, churn=0.3)
        reference_data(ds, ComparisonSpec(0, 5, FullHistory())).run_shares()
        totals = [pd.total_expenditure() for pd in ds.periods]
        view = ds._item_view()[0]
        assert ds._shares.keys() == view.keys()
        for item, (shares, weight, mean) in ds._shares.items():
            ks, obs, _, _, _, _ = view[item]
            expected = [o.price * o.quantity / totals[k] for k, o in zip(ks, obs)]
            assert [w.hex() for w in shares] == [w.hex() for w in expected]
            assert weight.hex() == math.fsum(expected).hex()
            assert mean.hex() == (math.fsum([w * math.log(o.price) for w, o in zip(expected, obs)])
                                  / weight).hex()

    def test_a_run_whose_shares_underflow_has_no_mean(self):
        ds = Dataset.build({t: {"a": (1e-300, 1e-30), "b": (1.0, 1.0)} for t in range(3)})
        reference_data(ds, ComparisonSpec(0, 2, FullHistory())).run_shares()
        shares, weight, mean = ds._shares["a"]
        assert list(shares) == [0.0] * 3 and weight == 0.0 and mean is None
        assert _run_shares((0,), (ds.observation(0, "a"),), (0.0,), (1.0,)) == ([0.0], 0.0, None)

    @pytest.mark.parametrize("seed", range(3))
    def test_only_whole_runs_of_longer_tables_carry_the_datasets(self, seed):
        ds = random_market(seed, periods=8, items=12, churn=0.3)
        view = ds._item_view()[0]
        for spec in _SHARE_SPECS:
            data = reference_data(ds, spec)
            for (item, run), carried in zip(data.runs.items(), data.run_shares()):
                if len(data.periods) > 2 and len(run[0]) == len(view[item][0]):
                    assert carried is ds._shares[item]
                else:
                    assert carried is not ds._shares.get(item)
                    ks, obs, spent, _, _, _ = run
                    assert _shares_hex(carried) == _shares_hex(
                        _run_shares(ks, obs, spent, data.totals))
            assert data.run_shares() is data.run_shares()

    @pytest.mark.parametrize("churn", [0.0, 0.3])
    def test_a_window_keeps_only_the_runs_it_takes_whole(self, churn):
        ds = random_market(4, periods=10, items=12, churn=churn)
        evaluate(ds, ComparisonSpec(8, 9, RollingWindow(4)), EngineSpec("tpd"))
        whole = {item for item, run in ds._item_view()[0].items() if run[0][0] >= 6}
        assert _built(ds) == ([6, 7, 8, 9], whole)
        # with no churn every run spans the history, so the window cuts them all
        assert bool(whole) == bool(churn)

    def test_two_period_tables_build_no_run_shares(self):
        ds = random_market(0, periods=4, items=10, churn=0.3)
        for spec in (ComparisonSpec(0, 3, Bilateral()), ComparisonSpec(2, 3, RollingWindow(2))):
            reference_data(ds, spec).run_shares()
            evaluate(ds, spec, EngineSpec("tpd"))
        assert _built(ds) == ([0, 2, 3], set())

    def test_other_engines_and_the_io_build_none(self, tmp_path):
        market = {pd.period: {i: (o.price, o.quantity) for i, o in pd.items.items()}
                  for pd in random_market(3, periods=5, items=10, churn=0.3).periods}
        path = tmp_path / "market.csv"
        path.write_text("period,item,price,quantity\n" + "".join(
            f"{t},{i},{p!r},{q!r}\n" for t, m in market.items() for i, (p, q) in m.items()))
        built = [Dataset.build(market), ingest_csv(path)]
        with path.open() as f:
            built.append(ingest_csv(f))
        engines = [EngineSpec(family) for family in ("mgk", "gk", "rq", "rqp", "geks")]
        # the bilateral WGM kernel, and geks legs over it
        engines.append(EngineSpec("geks", inner=EngineSpec("wgm")))
        for ds in built:
            emit_csv(ds, tmp_path / "emitted.csv")
            for policy in (Bilateral(), FullHistory(), RollingWindow(3)):
                for base, current in ((0, 1), (0, 2), (1, 4), (2, 4), (3, 4)):
                    if isinstance(policy, RollingWindow) and current - base >= 3:
                        continue
                    spec = ComparisonSpec(base, current, policy)
                    for engine in engines:
                        evaluate(ds, spec, engine)
                    if isinstance(policy, Bilateral):
                        evaluate(ds, spec, EngineSpec("wgm"))
            assert _built(ds) == ([], set())

    def test_full_history_wgm_builds_its_compared_periods_only(self):
        ds = random_market(1, periods=6, items=10, churn=0.3)
        evaluate(ds, ComparisonSpec(1, 4, FullHistory()), EngineSpec("wgm"))
        assert _built(ds) == ([1, 4], set())
        evaluate(ds, ComparisonSpec(0, 5, FullHistory()), EngineSpec("tpd"))
        assert _built(ds) == ([0, 1, 2, 3, 4, 5], set(ds._item_view()[0]))

    @pytest.mark.parametrize("family, churn", [("tpd", 0.3), ("wgm", 0.3), ("tornqvist", 0.0)])
    def test_cold_warm_and_fresh_calls_agree(self, family, churn):
        market = {pd.period: {i: (o.price, o.quantity) for i, o in pd.items.items()}
                  for pd in random_market(2, periods=8, items=12, churn=churn).periods}
        engine = EngineSpec(family)

        def outcomes(ds):
            return [_outcome_hex(lambda: evaluate(ds, spec, engine)) for spec in _SHARE_SPECS]

        ds = Dataset.build(market)
        cold = outcomes(ds)
        assert cold == outcomes(ds)
        assert cold == outcomes(Dataset.build(market))
        # and in the other order: the whole history last
        assert cold[::-1] == outcomes(Dataset.build(market))[::-1]

    def test_threads_racing_to_build_them(self):
        market = {pd.period: {i: (o.price, o.quantity) for i, o in pd.items.items()}
                  for pd in random_market(5, periods=10, items=30, churn=0.2).periods}
        specs = (ComparisonSpec(0, 9, FullHistory()), ComparisonSpec(2, 7, FullHistory()),
                 ComparisonSpec(6, 9, RollingWindow(4)), ComparisonSpec(3, 4))
        jobs = [(spec, EngineSpec(family)) for family in ("tpd", "wgm") for spec in specs]
        serial = [_outcome_hex(lambda: evaluate(Dataset.build(market), *job)) for job in jobs]
        ds = Dataset.build(market)
        barrier, results = threading.Barrier(4), {}

        def run(k):
            barrier.wait(timeout=60)
            order = jobs if k % 2 == 0 else jobs[::-1]
            results[k] = {job: _outcome_hex(lambda: evaluate(ds, *job)) for job in order}

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        # switch threads often, so that they interleave inside each other's builds
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [[results[k][job] for job in jobs] for k in range(4)] == [serial] * 4
