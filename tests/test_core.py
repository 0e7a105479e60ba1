import dataclasses
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynindex import (
    Bilateral,
    ComparisonSpec,
    Dataset,
    FullHistory,
    InvalidComparisonError,
    InvalidDataError,
    NumericalError,
    Observation,
    PeriodData,
    RollingWindow,
    UnknownPeriodError,
    Violation,
)
from helpers import relabeled, small_dyn, small_fixed


class TestUniverse:
    def test_small_dyn_period_0(self):
        assert small_dyn().universe(0) == {"A", "B"}

    def test_small_dyn_period_1(self):
        assert small_dyn().universe(1) == {"A", "C"}

    def test_small_fixed(self):
        assert small_fixed().universe(1) == {"A", "B"}

    def test_unknown_period(self):
        with pytest.raises(UnknownPeriodError):
            small_fixed().universe(7)


def test_observation_of_an_absent_item_names_it_and_its_period():
    ds = small_dyn()
    assert ds.observation(1, "C").price == 3.0
    with pytest.raises(KeyError, match=r"^\"item 'B' not present in period 1\"$"):
        ds.observation(1, "B")
    with pytest.raises(UnknownPeriodError):
        ds.observation(7, "A")


class TestUniverseAlgebra:
    def test_small_dyn(self):
        persistent, births, deaths = small_dyn().universe_algebra(0, 1)
        assert (persistent, births, deaths) == ({"A"}, {"C"}, {"B"})

    def test_small_fixed(self):
        persistent, births, deaths = small_fixed().universe_algebra(0, 1)
        assert persistent == {"A", "B"}
        assert births == frozenset()
        assert deaths == frozenset()

    def test_disjoint(self):
        ds = Dataset.build({0: {"A": (1, 1)}, 1: {"B": (1, 1)}})
        persistent, births, deaths = ds.universe_algebra(0, 1)
        assert (persistent, births, deaths) == (frozenset(), {"B"}, {"A"})


class TestValueRatio:
    def test_small_fixed(self):
        assert small_fixed().value_ratio(0, 1) == pytest.approx(1.5, abs=1e-15)

    def test_small_dyn(self):
        assert small_dyn().value_ratio(0, 1) == pytest.approx(1.4, abs=1e-15)

    def test_identical_periods(self):
        ds = Dataset.build({0: {"A": (2, 3)}, 1: {"A": (2, 3)}})
        assert ds.value_ratio(0, 1) == 1.0

    def test_relabeling_invariance(self):
        ds = small_dyn()
        assert relabeled(ds).value_ratio(0, 1) == ds.value_ratio(0, 1)

    @pytest.mark.parametrize(
        "base, total",
        [
            ({"a": (1e300, 1e8), "b": (1e300, 1e8)}, "inf"),
            ({"a": (-1, 1), "b": (1, 1)}, "0.0"),
            ({"a": (-2, 1), "b": (1, 1)}, "-1.0"),
        ],
        ids=["inf", "zero", "negative"],
    )
    def test_base_total_must_be_positive_and_finite(self, base, total):
        ds = Dataset.build({0: base, 1: {"a": (1, 1), "b": (1, 1)}})
        with pytest.raises(NumericalError, match=f"total expenditure of period 0 is {total}$"):
            ds.value_ratio(0, 1)

    def test_overflowing_ratio_raises(self):
        ds = Dataset.build({0: {"a": (1e-300, 1e-8)}, 1: {"a": (1e300, 1e8)}})
        with pytest.raises(NumericalError, match="degenerate value ratio"):
            ds.value_ratio(0, 1)


MAX = sys.float_info.max


PAST_THE_FLOAT_RANGE = pytest.mark.parametrize(
    "items, total",
    [
        ({"a": (1e300, 1e8), "b": (1e300, 1e8)}, math.inf),
        ({"a": (-1e300, 1e8), "b": (-1e300, 1e8)}, -math.inf),
        # fsum overflows on the first two terms; so does their plain sum
        ({"a": (MAX, 1), "b": (MAX, 1), "c": (-MAX, 1)}, math.inf),
        # a's expenditure itself overflows, in both directions
        ({"a": (1e200, 1e200), "b": (-1e200, 1e200)}, math.nan),
    ],
    ids=["inf", "minus-inf", "exact", "inf-and-minus-inf"],
)


def _observations(items):
    return {i: Observation(p, q) for i, (p, q) in items.items()}


class TestTotalExpenditure:
    @PAST_THE_FLOAT_RANGE
    def test_a_total_past_the_float_range_still_builds(self, items, total):
        got = Dataset.build({0: items}).period_data(0).total_expenditure()
        assert got == total or math.isnan(got) and math.isnan(total)

    @PAST_THE_FLOAT_RANGE
    def test_an_owned_map_totals_as_the_public_constructor(self, items, total):
        public = PeriodData(0, _observations(items)).total_expenditure()
        owned = PeriodData._owning(0, _observations(items)).total_expenditure()
        assert owned.hex() == public.hex()

    def test_an_owned_map_totals_ordinary_data_as_the_public_constructor(self):
        rng = random.Random(0)
        for _ in range(50):
            items = {f"i{k}": (rng.uniform(0, 10), rng.uniform(0, 1e6)) for k in range(7)}
            public = PeriodData(0, _observations(items))
            assert PeriodData._owning(0, _observations(items)) == public
            assert (PeriodData._owning(0, _observations(items)).total_expenditure().hex()
                    == public.total_expenditure().hex())


class TestConstructors:
    def test_the_public_period_constructor_copies_its_map(self):
        items = _observations({"a": (1.0, 2.0)})
        period = PeriodData(0, items)
        items["a"], items["b"] = Observation(5.0, 5.0), Observation(3.0, 1.0)
        assert dict(period.items) == {"a": Observation(1.0, 2.0)}
        assert period.total_expenditure() == 2.0

    @pytest.mark.parametrize("indices", [(0, 0), (0, 1, 1), (1, 0, 1), (2, 0, 2, 1)],
                             ids=["duplicate", "trailing-duplicate", "apart", "out-of-order"])
    def test_the_dataset_constructor_refuses_duplicate_periods(self, indices):
        periods = tuple(PeriodData(t, _observations({"a": (1, 1)})) for t in indices)
        with pytest.raises(ValueError, match="duplicate period indices"):
            Dataset(periods)

    def test_the_dataset_constructor_keeps_periods_in_order_as_given(self):
        periods = tuple(PeriodData(t, _observations({"a": (1, t + 1)})) for t in (0, 2, 5))
        dataset = Dataset(periods)
        assert dataset.periods is periods
        assert dataset.period_data(2) is periods[1]

    @pytest.mark.parametrize("indices", [(5, 2, 0), (0, 5, 2), (2, 0, 5)])
    def test_the_dataset_constructor_sorts_periods_out_of_order(self, indices):
        periods = [PeriodData(t, _observations({"a": (1, t + 1)})) for t in indices]
        dataset = Dataset(periods)
        assert dataset.period_indices() == (0, 2, 5)
        assert dataset == Dataset(tuple(sorted(periods, key=lambda pd: pd.period)))
        assert all(dataset.period_data(pd.period) is pd for pd in periods)

    def test_build_orders_the_periods(self):
        data = {2: {"a": (1, 1)}, 0: {"a": (2, 1)}, 1: {"b": (1, 3)}}
        assert Dataset.build(data).period_indices() == (0, 1, 2)
        assert Dataset.build(data) == Dataset(tuple(
            PeriodData(t, _observations(items)) for t, items in data.items()))


class TestValidate:
    def test_ok(self):
        assert small_fixed().validate() == []

    def test_non_positive_price(self):
        ds = Dataset.build({0: {"A": (0.0, 1.0)}})
        assert any(v.code == "non-positive-price" for v in ds.validate())

    def test_period_gap(self):
        ds = Dataset.build({0: {"A": (1, 1)}, 2: {"A": (1, 1)}})
        assert any(v.code == "period-gap" for v in ds.validate())

    def test_empty_period(self):
        ds = Dataset(tuple([small_fixed().period_data(0)]))
        bad = Dataset.build({0: {}})
        assert any(v.code == "empty-period" for v in bad.validate())
        assert ds.validate() == []

    def test_findings_are_the_contract_s_sentences_in_order(self):
        # every break of each period, price before quantity, then the total,
        # then the gaps; the first is what require_contract raises
        ds = Dataset.build({0: {"a": (1.0, 1.0)},
                            1: {"a": (-1.0, 2.0), "b": (3.0, 0.0), "c": (-2.0, -1.0)},
                            3: {}})
        assert ds.validate() == [
            Violation("non-positive-price", 1, "a", "price of item 'a' in period 1 is -1.0"),
            Violation("non-positive-quantity", 1, "b", "quantity of item 'b' in period 1 is 0.0"),
            Violation("non-positive-price", 1, "c", "price of item 'c' in period 1 is -2.0"),
            Violation("non-positive-quantity", 1, "c",
                      "quantity of item 'c' in period 1 is -1.0"),
            Violation("total-out-of-range", 1, None, "total expenditure of period 1 is 0.0"),
            Violation("empty-period", 3, None, "period 3 has no items"),
            Violation("period-gap", 3, None, "period 3 follows 1"),
        ]
        with pytest.raises(InvalidDataError, match=r"^price of item 'a' in period 1 is -1\.0$"):
            ds.require_contract()


class TestObservation:
    def test_from_expenditure(self):
        obs = Observation(1.5, 2.0)
        assert obs.expenditure == 3.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Observation(math.inf, 1.0)

    def test_non_finite_message_names_both_values(self):
        with pytest.raises(ValueError, match=r"^non-finite observation 1\.0, nan$"):
            Observation(1.0, math.nan)

    def test_keeps_the_values_it_is_given(self):
        obs = Observation(1, 2)
        assert obs.price == 1 and type(obs.price) is int
        assert Observation(price=1.5, quantity=2.0).quantity == 2.0

    def test_is_frozen(self):
        obs = Observation(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.price = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obs.quantity
        assert not hasattr(obs, "__dict__")

    def test_value_semantics(self):
        obs = Observation(1.5, 2.0)
        assert obs == Observation(1.5, 2.0) != Observation(1.5, 3.0)
        assert hash(obs) == hash(Observation(1.5, 2.0)) == hash((1.5, 2.0))
        assert repr(obs) == "Observation(price=1.5, quantity=2.0)"
        assert pickle.loads(pickle.dumps(obs)) == obs
        assert dataclasses.replace(obs, price=3.0) == Observation(3.0, 2.0)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(obs, quantity=math.inf)


class TestComparisonSpec:
    def test_base_must_precede_current(self):
        with pytest.raises(InvalidComparisonError):
            ComparisonSpec(1, 0)

    def test_bilateral_reference_periods(self):
        spec = ComparisonSpec(0, 3, Bilateral())
        ds = Dataset.build({t: {"A": (1, 1)} for t in range(4)})
        assert spec.reference_periods(ds) == (0, 3)

    def test_full_history(self):
        spec = ComparisonSpec(0, 3, FullHistory())
        ds = Dataset.build({t: {"A": (1, 1)} for t in range(4)})
        assert spec.reference_periods(ds) == (0, 1, 2, 3)

    def test_rolling_window(self):
        ds = Dataset.build({t: {"A": (1, 1)} for t in range(6)})
        spec = ComparisonSpec(3, 5, RollingWindow(3))
        assert spec.reference_periods(ds) == (3, 4, 5)

    def test_rolling_window_excluding_base_rejected(self):
        ds = Dataset.build({t: {"A": (1, 1)} for t in range(6)})
        with pytest.raises(InvalidComparisonError):
            ComparisonSpec(0, 5, RollingWindow(3)).reference_periods(ds)

    def test_rolling_window_too_short(self):
        with pytest.raises(InvalidComparisonError):
            RollingWindow(1)

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownPeriodError):
            ComparisonSpec(0, 9).reference_periods(small_fixed())


def _dataset_strategy():
    item_pool = [f"i{k}" for k in range(6)]
    value = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
    observation = st.tuples(value, value)
    period_items = st.dictionaries(st.sampled_from(item_pool), observation, min_size=1)
    return st.tuples(period_items, period_items).map(
        lambda pair: Dataset.build({0: pair[0], 1: pair[1]})
    )


@given(_dataset_strategy())
@settings(max_examples=200)
def test_universe_algebra_partitions(ds):
    persistent, births, deaths = ds.universe_algebra(0, 1)
    assert persistent | births == ds.universe(1)
    assert persistent | deaths == ds.universe(0)
    assert not persistent & births
    assert not persistent & deaths
    assert not births & deaths


@given(_dataset_strategy())
@settings(max_examples=200)
def test_value_ratio_reciprocal(ds):
    forward = ds.value_ratio(0, 1)
    backward = ds.value_ratio(1, 0)
    assert forward * backward == pytest.approx(1.0, abs=1e-12)


def test_duplicate_period_rejected():
    pd = small_fixed().period_data(0)
    with pytest.raises(ValueError):
        Dataset((pd, pd))
