import dataclasses
import gc
import math
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynindex import (
    ArithmeticMeanQuantity,
    BaseQuantity,
    Bilateral,
    ComparisonSpec,
    CustomPrices,
    CustomWeights,
    Dataset,
    DeflatedUnitValue,
    EngineSpec,
    ExpenditureShare,
    ExpenditureOverReferencePrice,
    FixedBase,
    FixedPointConfig,
    FullHistory,
    ImputationPolicy,
    InvalidComparisonError,
    InvalidDataError,
    LehrUnitValue,
    NumericalError,
    PriceIndexError,
    RollingWindow,
    SchemeError,
    TPDGeometric,
    TornqvistWeights,
    adjusted_laspeyres,
    classical_indices,
    evaluate,
    geks_index,
    gk_index,
    guv_index,
    mgk_index,
    rq_index,
    rqp_index,
    tornqvist_index,
    tpd_index,
    wgm_index,
)
from dynindex import engines, references
from dynindex.simulate import SynthConfig, synth
from dynindex.engines import (
    CHAINABLE_FAMILIES,
    ENGINE_FAMILIES,
    IndexResult,
    _compared_table,
    _quantity_index,
    _wgm_index_at,
)
from dynindex.references import reference_prices
from helpers import (
    DISJOINT_UNIVERSES,
    ENGINES,
    LEHR_PRICE_UNDERFLOW,
    OVERFLOWING_QUANTITY_INDEX,
    OVERFLOWING_QUANTITY_SUM,
    POSITIVE_EDGE_FLOATS,
    QUANTITY_INDEX_UNDERFLOW,
    WGM_INDEX_OVERFLOW,
    ZERO_PIVOT,
    fixed_market,
    random_market,
    raw_mgk,
    raw_reference_values,
    small_dyn,
    small_fixed,
)

BILATERAL = ComparisonSpec(0, 1, Bilateral())

# hand computation: unit quantities make the reference-price basket the
# two universes' price sums, so the quantity divisor is 4.1/3.1
SMALL_DYN_LEHR_VALUE = 1.4 * 3.1 / 4.1


class TestGuv:
    def test_small_fixed_lehr(self):
        result = guv_index(small_fixed(), BILATERAL, LehrUnitValue())
        assert result.value == pytest.approx(1.5, abs=1e-12)
        ratio, quantity = result.decomposition
        assert ratio == pytest.approx(1.5, abs=1e-15)
        assert quantity == pytest.approx(1.0, abs=1e-15)

    def test_identity_bilateral(self):
        ds = Dataset.build({0: {"A": (2, 3), "B": (1, 4)}, 1: {"A": (2, 9), "B": (1, 2)}})
        assert guv_index(ds, BILATERAL).value == pytest.approx(1.0, abs=1e-12)

    def test_small_dyn_lehr(self):
        result = guv_index(small_dyn(), BILATERAL, LehrUnitValue())
        assert result.value == pytest.approx(SMALL_DYN_LEHR_VALUE, abs=1e-12)
        assert result.value == pytest.approx(1.0585, abs=1e-4)


class TestGk:
    def test_small_dyn_persistent_collapse(self):
        result = gk_index(small_dyn(), BILATERAL)
        assert result.value == pytest.approx(1.2, abs=1e-9)
        assert result.diagnostics.converged

    def test_identical_periods(self):
        ds = Dataset.build({0: {"A": (2, 3), "B": (5, 1)}, 1: {"A": (2, 3), "B": (5, 1)}})
        result = gk_index(ds, BILATERAL)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.diagnostics.iterations <= 2

    def test_small_fixed(self):
        assert gk_index(small_fixed(), BILATERAL).value == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("churn", [0.1, 0.25, 0.5])
    def test_bilateral_gk_ignores_births_and_deaths(self, churn):
        # with deflated unit values a born item adds e1 to the value ratio's
        # numerator and e1/P to the quantity index's, a dead one e0 to both
        # denominators, so they cancel in P = V / quantity index
        for seed in range(20):
            ds = synth(SynthConfig(periods=6, initial_items=40, churn_rate=churn,
                                   seed=seed)).dataset
            periods = ds.period_indices()
            for a, base in enumerate(periods):
                for current in periods[a + 1:]:
                    shared = ds.universe(base) & ds.universe(current)
                    if not shared:
                        continue
                    matched = Dataset.build({t: {
                        i: (o.price, o.quantity) for i, o in ds.period_data(t).items.items()
                        if i in shared} for t in (base, current)})
                    spec = ComparisonSpec(base, current, Bilateral())
                    gap = math.log(gk_index(ds, spec).value) - math.log(
                        gk_index(matched, spec).value)
                    assert abs(gap) <= 1e-12, (churn, seed, base, current)

    def test_decomposition(self):
        result = gk_index(small_dyn(), BILATERAL)
        ratio, quantity = result.decomposition
        assert result.value * quantity == pytest.approx(ratio, rel=1e-12)


class TestMgk:
    def test_small_fixed(self):
        assert mgk_index(small_fixed(), BILATERAL).value == pytest.approx(1.5, abs=1e-12)

    def test_identical_periods(self):
        ds = Dataset.build({0: {"A": (2, 3)}, 1: {"A": (2, 3)}})
        assert mgk_index(ds, BILATERAL).value == pytest.approx(1.0, abs=1e-14)

    def test_small_dyn_matches_lehr_unit_value_route(self):
        # same engine as the generalised unit value index with Lehr prices
        assert mgk_index(small_dyn(), BILATERAL).value == pytest.approx(
            SMALL_DYN_LEHR_VALUE, abs=1e-12
        )


class TestWgm:
    def test_tornqvist_reduction(self):
        ds = small_fixed()
        via_wgm = wgm_index(ds, BILATERAL, TornqvistWeights(), LehrUnitValue())
        direct = tornqvist_index(ds, BILATERAL)
        assert via_wgm.value == pytest.approx(direct.value, rel=1e-15)

    def test_small_fixed_tornqvist_value(self):
        assert tornqvist_index(small_fixed(), BILATERAL).value == pytest.approx(
            2 ** (7 / 12), rel=1e-14
        )

    def test_identical_periods(self):
        ds = Dataset.build({0: {"A": (2, 3), "B": (5, 1)}, 1: {"A": (2, 3), "B": (5, 1)}})
        assert wgm_index(ds, BILATERAL).value == pytest.approx(1.0, abs=1e-14)

    def test_custom_weights_must_sum_to_one(self):
        from dynindex import CustomWeights, SchemeError

        bad = CustomWeights({"A": 0.7, "B": 0.7}, {"A": 0.5, "B": 0.5})
        with pytest.raises(SchemeError, match="sum"):
            wgm_index(small_fixed(), BILATERAL, bad)

    def test_custom_weights_price_with_each_periods_weights(self):
        from dynindex import CustomWeights

        # Lehr reference prices of small_fixed: A (1 + 2) / 2, B 1
        weights = CustomWeights({"A": 0.25, "B": 0.75}, {"A": 0.5, "B": 0.5})
        expected = math.exp(0.5 * math.log(2.0 / 1.5) - 0.25 * math.log(1.0 / 1.5))
        assert wgm_index(small_fixed(), BILATERAL, weights).value == pytest.approx(
            expected, rel=1e-15)

    def test_custom_weights_must_cover_universe(self):
        from dynindex import CustomWeights, SchemeError

        bad = CustomWeights({"A": 1.0}, {"A": 0.5, "B": 0.5})
        with pytest.raises(SchemeError, match="cover"):
            wgm_index(small_fixed(), BILATERAL, bad)

    def test_tornqvist_weights_need_fixed_universe(self):
        from dynindex import SchemeError

        with pytest.raises(SchemeError):
            tornqvist_index(small_dyn(), BILATERAL)

    def test_infinite_custom_reference_price_names_the_item(self):
        prices = CustomPrices({"A": math.inf, "B": 1.0})
        with pytest.raises(SchemeError, match="^custom reference price for 'A' is inf$"):
            wgm_index(small_fixed(), BILATERAL, reference_price=prices)

    def test_contract_error_precedes_the_tornqvist_universe_check(self):
        # period 0's total expenditure is zero, and its universe is not period 1's
        ds = Dataset.build({0: {"A": (-1, 1), "B": (1, 1)}, 1: {"A": (1, 1), "C": (1, 1)}})
        with pytest.raises(InvalidDataError, match="^price of item 'A' in period 0 is -1$"):
            wgm_index(ds, BILATERAL, TornqvistWeights(), LehrUnitValue())

    def test_coupled_index_underflowing_to_zero_raises_numerical_error(self):
        # a's price falls 1e600-fold: the first sweep's exp(log 1e-300 - log 1e300) is 0.0
        ds = Dataset.build({0: {"a": (1e300, 1.0)}, 1: {"a": (1e-300, 1.0)}})
        with pytest.raises(NumericalError,
                           match=r"^index value for period 1 left \(0, inf\): 0\.0$"):
            wgm_index(ds, BILATERAL, reference_price=DeflatedUnitValue())


class TestTpd:
    def test_identical_periods_full_history(self):
        ds = Dataset.build({t: {"A": (2, 3), "B": (5, 1)} for t in range(3)})
        result = tpd_index(ds, ComparisonSpec(0, 2, FullHistory()))
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_prices_varying_quantities(self):
        ds = Dataset.build(
            {0: {"A": (2, 3), "B": (5, 1)}, 1: {"A": (2, 8), "B": (5, 4)}}
        )
        assert tpd_index(ds, BILATERAL).value == pytest.approx(1.0, abs=1e-10)

    def test_small_fixed_closed_form(self):
        # two-unknown fixed point solves in closed form to 2**(10/17),
        # cross-checked by bisection while freezing this value
        result = tpd_index(small_fixed(), BILATERAL)
        assert result.value == pytest.approx(2 ** (10 / 17), abs=1e-8)
        assert result.diagnostics.converged

    def test_underflowing_expenditure_raises_numerical_error(self):
        # a's expenditure 1e-300 * 1e-300 underflows to zero: its shares sum to zero
        ds = Dataset.build({t: {"a": (1e-300, 1e-300), "b": (1.0 + t, 1.0)} for t in range(2)})
        with pytest.raises(NumericalError, match="sum to 0.0"):
            tpd_index(ds, BILATERAL)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize("price", [0.0, -1.0], ids=["zero", "negative"])
    def test_price_without_a_log_raises_the_contract_error(self, price, policy):
        # a's TPD price would take the log of a price that is not positive
        ds = Dataset.build({0: {"a": (price, 1), "b": (2, 1)}, 1: {"a": (1, 1), "b": (2, 1)}})
        with pytest.raises(InvalidDataError, match=f"^price of item 'a' in period 0 is {price!r}$"):
            evaluate(ds, ComparisonSpec(0, 1, policy), EngineSpec("tpd"))

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    def test_price_past_the_float_range_raises_the_contract_error(self, policy):
        # i1's quantity is negative in period 1, so its normalized exponents
        # would be far from [0, 1] and its weighted mean log price past log(MAX)
        ds = Dataset.build({0: {"i1": (7.860754740424663, 1.604596347358267e+300)},
                            1: {"i0": (0.9884215900728961, 6.212111752060901),
                                "i1": (3.127345666404902, -1.098021518089503)}})
        with pytest.raises(InvalidDataError,
                           match="^quantity of item 'i1' in period 1 is -1.098021518089503$"):
            evaluate(ds, ComparisonSpec(0, 1, policy), EngineSpec("tpd"))

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    def test_deflated_price_without_a_log_raises_numerical_error(self, policy):
        # b's price 5e-324 over a deflator above one underflows to 0.0, whose
        # log the TPD reference price cannot take
        ds = Dataset.build({0: {"a": (1, 1), "b": (1, 1)}, 1: {"a": (4, 1), "b": (5e-324, 1)}})
        with pytest.raises(NumericalError, match="its log is undefined$") as raised:
            evaluate(ds, ComparisonSpec(0, 1, policy), EngineSpec("tpd"))
        last = raised.traceback[-1]
        assert (last.name, last.path) == ("prices_for", Path(references.__file__))

    def test_negative_share_sum_raises_the_contract_error(self):
        # a's quantity is negative in both periods, so its shares would sum
        # to -1/2 - 1/3
        ds = Dataset.build({0: {"a": (1, -1), "b": (3, 1)}, 1: {"a": (1, -1), "b": (4, 1)}})
        with pytest.raises(InvalidDataError, match="^quantity of item 'a' in period 0 is -1$"):
            tpd_index(ds, BILATERAL)


class TestGeks:
    def test_two_periods_equals_inner(self):
        ds = Dataset.build(
            {0: {"A": (1, 1), "B": (2, 3)}, 1: {"A": (1.4, 2), "B": (1.9, 1)}}
        )
        geks = geks_index(ds, ComparisonSpec(0, 1, FullHistory()))
        assert geks.value == pytest.approx(mgk_index(ds, BILATERAL).value, rel=1e-15)

    def test_three_period_formula(self):
        ds = Dataset.build(
            {
                0: {"A": (1, 1), "B": (2, 3)},
                1: {"A": (1.4, 2), "B": (1.9, 1)},
                2: {"A": (1.7, 1), "C": (2.4, 2)},
            }
        )
        p01 = mgk_index(ds, ComparisonSpec(0, 1, Bilateral())).value
        p12 = mgk_index(ds, ComparisonSpec(1, 2, Bilateral())).value
        p02 = mgk_index(ds, ComparisonSpec(0, 2, Bilateral())).value
        expected = (p02**2 * p01 * p12) ** (1 / 3)
        result = geks_index(ds, ComparisonSpec(0, 2, FullHistory()))
        assert result.value == pytest.approx(expected, rel=1e-14)
        assert result.series[1] == pytest.approx(p01, rel=1e-14)

    def test_identical_periods_all_one(self):
        ds = Dataset.build({t: {"A": (2, 3), "B": (5, 1)} for t in range(4)})
        result = geks_index(ds, ComparisonSpec(0, 3, FullHistory()))
        assert all(v == pytest.approx(1.0, abs=1e-14) for v in result.series.values())

    @pytest.mark.parametrize("seed", range(6))
    def test_full_history_series_matches_raw_sum_legs(self, seed):
        periods = 3 + seed % 4
        ds = random_market(seed, periods=periods, items=7, churn=0.4)
        last = ds.last_period

        def leg(s, r):
            if s == r:
                return 1.0
            return raw_mgk(ds, s, r) if s < r else 1.0 / raw_mgk(ds, r, s)

        result = geks_index(ds, ComparisonSpec(0, last, FullHistory()))
        assert sorted(result.series) == list(range(last + 1))
        assert result.series[0] == 1.0
        for r in range(1, last + 1):
            logs = [math.log(leg(0, s)) + math.log(leg(s, r)) for s in range(r + 1)]
            expected = math.exp(math.fsum(logs) / (r + 1))
            assert result.series[r] == pytest.approx(expected, rel=1e-12), r

    def test_full_history_series_is_the_mean_over_evaluated_legs(self):
        """Bit for bit: each leg is one bilateral MGK evaluation."""
        ds = random_market(3, periods=6, items=7, churn=0.4)

        def leg(s, r):
            if s == r:
                return 1.0
            if s > r:
                return 1.0 / leg(r, s)
            return evaluate(ds, ComparisonSpec(s, r, Bilateral()), EngineSpec("mgk")).value

        result = geks_index(ds, ComparisonSpec(0, 5, FullHistory()))
        for r in range(1, 6):
            logs = [math.log(leg(0, s)) + math.log(leg(s, r)) for s in range(r + 1)]
            assert result.series[r] == math.exp(math.fsum(logs) / (r + 1)), r


class TestRq:
    def test_imputed_birth_example(self):
        ds = Dataset.build({0: {"A": (1, 1)}, 1: {"A": (1, 1), "B": (2, 1)}})
        result = rq_index(ds, BILATERAL, imputation=ImputationPolicy(1.05, 1.05))
        assert result.value == pytest.approx(3.0 / 3.1, rel=1e-15)
        assert result.value < 1.0

    def test_fixed_universe_base_quantity_is_laspeyres(self):
        ds = small_fixed()
        laspeyres, _, _ = classical_indices(ds, 0, 1)
        assert rq_index(ds, BILATERAL, BaseQuantity()).value == pytest.approx(
            laspeyres, rel=1e-15
        )

    def test_small_fixed(self):
        assert rq_index(small_fixed(), BILATERAL, BaseQuantity()).value == pytest.approx(
            1.5, abs=1e-15
        )

    def test_markup_below_one_rejected(self):
        with pytest.raises(ValueError):
            ImputationPolicy(birth_markup=0.9)

    def test_custom_imputed_prices_override_markup(self):
        ds = Dataset.build({0: {"A": (1, 1)}, 1: {"A": (1, 1), "B": (2, 1)}})
        policy = ImputationPolicy(custom_birth_prices={"B": 4.0})
        result = rq_index(ds, BILATERAL, imputation=policy)
        assert result.value == pytest.approx(3.0 / 5.0, rel=1e-15)

    def test_result_must_be_positive_finite(self):
        from dynindex import IndexResult

        with pytest.raises(NumericalError):
            IndexResult(0.0)
        with pytest.raises(NumericalError):
            IndexResult(math.inf)


_NOT_POSITIVE_AND_FINITE = [math.inf, math.nan, 0.0, -1.0]


@pytest.mark.parametrize("price", _NOT_POSITIVE_AND_FINITE)
@pytest.mark.parametrize("family", ["guv", "wgm", "rqp"])
def test_custom_reference_price_must_be_positive_and_finite(family, price):
    prices = CustomPrices({"A": 1.0, "B": price})
    with pytest.raises(SchemeError, match=f"^custom reference price for 'B' is {price!r}$"):
        evaluate(small_fixed(), BILATERAL, EngineSpec(family, reference_price=prices))


@pytest.mark.parametrize("price", _NOT_POSITIVE_AND_FINITE)
@pytest.mark.parametrize("which", ["custom_birth_prices", "custom_death_prices"])
def test_custom_imputed_price_must_be_positive_and_finite(which, price):
    ds = Dataset.build({0: {"A": (1, 1), "D": (2, 1)}, 1: {"A": (1, 1), "B": (2, 1)}})
    item = "B" if which == "custom_birth_prices" else "D"
    policy = ImputationPolicy(**{which: {item: price}})
    with pytest.raises(SchemeError, match=f"^imputed price for '{item}' is {price!r}$"):
        rq_index(ds, BILATERAL, imputation=policy)


@pytest.mark.parametrize("markup", [math.inf, math.nan, 0.9])
@pytest.mark.parametrize("which", ["birth_markup", "death_markup"])
def test_imputation_markups_must_be_finite_and_at_least_one(which, markup):
    with pytest.raises(ValueError, match="imputation markups must be finite and at least 1"):
        ImputationPolicy(**{which: markup})


@pytest.mark.parametrize("policy", [Bilateral(), FullHistory(), RollingWindow(3)],
                         ids=["bilateral", "full-history", "rolling-3"])
@pytest.mark.parametrize("label", list(ENGINES))
def test_a_call_leaves_no_cycles_for_the_collector(label, policy):
    # Everything a call allocates is freed by reference counting as it
    # returns, so no working set waits for a cyclic collection.
    ds = random_market(1, periods=6, items=20, churn=0.2)
    spec = ComparisonSpec(3, 5, policy)

    def call():
        try:
            evaluate(Dataset(ds.periods), spec, ENGINES[label])
        except PriceIndexError:
            pass

    call()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestRqp:
    def test_alpha_one_is_unit_value_index(self):
        ds = small_dyn()
        rqp = rqp_index(ds, BILATERAL, alpha=1.0)
        guv = guv_index(ds, BILATERAL, LehrUnitValue())
        assert rqp.value == guv.value

    def test_alpha_zero_is_reference_quantity_index(self):
        ds = small_dyn()
        rqp = rqp_index(ds, BILATERAL, alpha=0.0)
        rq = rq_index(ds, BILATERAL, ArithmeticMeanQuantity(), ImputationPolicy())
        assert rqp.value == rq.value

    def test_fisher_on_small_fixed(self):
        rqp = rqp_index(
            small_fixed(), BILATERAL, 0.5, BaseQuantity(), None, FixedBase()
        )
        _, _, fisher = classical_indices(small_fixed(), 0, 1)
        assert rqp.value == pytest.approx(fisher, abs=1e-12)

    def test_interpolates_between_components(self):
        ds = small_dyn()
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            result = rqp_index(ds, BILATERAL, alpha)
            low = min(result.components["rq"], result.components["guv"])
            high = max(result.components["rq"], result.components["guv"])
            assert low * (1 - 1e-12) <= result.value <= high * (1 + 1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            rqp_index(small_dyn(), BILATERAL, alpha=1.5)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize("seed", range(4))
    def test_expenditure_quantities_divide_by_the_shared_lehr_prices(self, seed, policy):
        ds = random_market(seed, periods=4, items=8, churn=0.4)
        spec = ComparisonSpec(1, 3, policy)
        periods = spec.reference_periods(ds)
        series = {r: 1.0 for r in periods}
        m0, m1 = ds.period_data(1).items, ds.period_data(3).items
        numerator, denominator = [], []
        for item in m0.keys() | m1.keys():
            q = raw_reference_values(ds, periods, 1, 3, item, series)["expenditure"]
            p0 = m0[item].price if item in m0 else 1.05 * m1[item].price
            p1 = m1[item].price if item in m1 else 1.05 * m0[item].price
            numerator.append(q * p1)
            denominator.append(q * p0)
        result = rqp_index(ds, spec, quantities=ExpenditureOverReferencePrice())
        expected = math.fsum(numerator) / math.fsum(denominator)
        assert result.components["rq"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    def test_index_deflated_prices_are_not_shared(self, policy):
        ds = random_market(0, periods=4, items=8, churn=0.4)
        with pytest.raises(SchemeError, match="no reference price"):
            rqp_index(ds, ComparisonSpec(1, 3, policy),
                      quantities=ExpenditureOverReferencePrice(),
                      reference_price=DeflatedUnitValue())


class TestClassical:
    def test_small_fixed(self):
        assert classical_indices(small_fixed(), 0, 1) == pytest.approx((1.5, 1.5, 1.5))

    def test_identical_periods(self):
        ds = Dataset.build({0: {"A": (2, 3), "B": (5, 1)}, 1: {"A": (2, 3), "B": (5, 1)}})
        assert classical_indices(ds, 0, 1) == pytest.approx((1.0, 1.0, 1.0))

    def test_adjusted_laspeyres_square_root(self):
        assert adjusted_laspeyres(small_fixed(), 0, 1) == pytest.approx(
            math.sqrt(1.5), abs=1e-12
        )

    @pytest.mark.parametrize("max_iterations", [1000, 1001])
    def test_adjusted_laspeyres_undamped_does_not_converge(self, max_iterations):
        # undamped, P = L / P alternates between 1 and L and never reaches sqrt(L)
        config = FixedPointConfig(max_iterations=max_iterations)
        with pytest.raises(NumericalError):
            adjusted_laspeyres(small_fixed(), 0, 1, config)

    def test_empty_persistent_universe(self):
        ds = Dataset.build({0: {"A": (1, 1)}, 1: {"B": (1, 1)}})
        with pytest.raises(InvalidComparisonError):
            classical_indices(ds, 0, 1)

    @pytest.mark.parametrize("compute", [classical_indices, adjusted_laspeyres])
    def test_underflowing_persistent_sums_raise_numerical_error(self, compute):
        # the only persistent item's expenditures underflow to 0; the totals do not
        ds = Dataset.build({0: {"a": (1e-200, 1e-200), "b": (1, 1)},
                            1: {"a": (1e-200, 1e-200), "c": (1, 1)}})
        with pytest.raises(NumericalError, match="sums are zero or past the float range"):
            compute(ds, 0, 1)

    def test_overflowing_cross_sums_raise_numerical_error(self):
        # each period's expenditures are finite, the cross products q0 * pt are not
        ds = Dataset.build({0: {"a": (1e-100, 1e300)}, 1: {"a": (1e300, 1e-100)}})
        with pytest.raises(NumericalError, match="not all positive and finite"):
            classical_indices(ds, 0, 1)


# The EngineSpec options each family reads, written out independently of
# engines._REGISTRY; every other (family, option) pair is refused.
READS = {
    "gk": {"fixed_point"}, "tpd": {"fixed_point"},
    "mgk": set(), "tornqvist": set(),
    "guv": {"reference_price", "fixed_point"},
    "wgm": {"weights", "reference_price", "fixed_point"},
    "geks": {"inner"},
    "rq": {"reference_quantity", "imputation"},
    "rqp": {"alpha", "reference_quantity", "imputation", "reference_price", "fixed_point"},
}
# A value of each option other than its default, valid for every family that reads it.
NOT_DEFAULT = {
    "reference_price": FixedBase(),
    "reference_quantity": BaseQuantity(),
    "weights": TornqvistWeights(),
    "alpha": 0.25,
    "imputation": ImputationPolicy(),
    "inner": EngineSpec("wgm"),
    "fixed_point": FixedPointConfig(),
}
DEFAULT_LABELS = {
    "gk": "gk", "mgk": "mgk", "guv": "guv", "wgm": "wgm", "tornqvist": "tornqvist",
    "tpd": "tpd", "geks": "geks(mgk)", "rq": "rq", "rqp": "rqp(alpha=0.5)",
}


class TestEngineRegistry:
    def test_the_table_reads_fifteen_of_sixty_three_settings(self):
        assert sorted(READS) == sorted(ENGINE_FAMILIES)
        assert list(NOT_DEFAULT) == [f.name for f in dataclasses.fields(EngineSpec)][1:]
        assert sum(map(len, READS.values())) == 15
        assert len(ENGINE_FAMILIES) * len(NOT_DEFAULT) == 63

    @pytest.mark.parametrize("option", NOT_DEFAULT)
    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_a_family_accepts_exactly_the_options_it_reads(self, family, option):
        options = {option: NOT_DEFAULT[option]}
        if option == "fixed_point" and "reference_price" in READS[family]:
            # a solver config is read only beside an index-coupled price
            options["reference_price"] = TPDGeometric() if family == "wgm" else DeflatedUnitValue()
        if option in READS[family]:
            assert EngineSpec(family, **options).family == family
        else:
            message = f"^engine family '{family}' does not read {option}$"
            with pytest.raises(ValueError, match=message):
                EngineSpec(family, **{option: NOT_DEFAULT[option]})

    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_each_runner_reads_exactly_its_entry_s_options(self, family):
        run, options, _chainable = engines._REGISTRY[family]
        assert run.__code__.co_names == (f"{family}_index", *options)
        assert set(options) == READS[family]

    @pytest.mark.parametrize("family", ["guv", "wgm", "rqp"])
    @pytest.mark.parametrize("price, read", [
        (None, False), (LehrUnitValue(), False), (FixedBase(), False),
        (CustomPrices({"a": 1.0}), False), (DeflatedUnitValue(), True), (TPDGeometric(), True),
    ], ids=["default", "lehr", "fixed-base", "custom", "deflated", "tpd"])
    def test_fixed_point_needs_an_index_coupled_price(self, family, price, read):
        options = {"fixed_point": FixedPointConfig(max_iterations=1)}
        if price is not None:
            options["reference_price"] = price
        if read:
            assert EngineSpec(family, **options).family == family
        else:
            message = (f"^engine family '{family}' reads fixed_point only with an "
                       "index-coupled reference price$")
            with pytest.raises(ValueError, match=message):
                EngineSpec(family, **options)

    def test_default_labels(self):
        assert {f: EngineSpec(f).label() for f in ENGINE_FAMILIES} == DEFAULT_LABELS

    @pytest.mark.parametrize("spec, label", [
        (EngineSpec("guv", reference_price=FixedBase()), "guv(reference_price=fixed-base)"),
        (EngineSpec("gk", fixed_point=FixedPointConfig(max_iterations=5)),
         "gk(fixed_point=FixedPointConfig(tolerance=1e-10, max_iterations=5, damping=1.0))"),
        (EngineSpec("wgm", weights=CustomWeights({"a": 1.0}, {"a": 1.0}),
                    reference_price=CustomPrices({"a": 2.0})),
         "wgm(reference_price=CustomPrices(prices={'a': 2.0}), "
         "weights=CustomWeights(base_weights={'a': 1.0}, current_weights={'a': 1.0}))"),
        (EngineSpec("geks", inner=EngineSpec("wgm")), "geks(wgm)"),
        (EngineSpec("geks", inner=EngineSpec("guv", reference_price=CustomPrices({}))),
         "geks(guv(reference_price=CustomPrices(prices={})))"),
        (EngineSpec("rq", reference_quantity=ExpenditureOverReferencePrice()),
         "rq(reference_quantity=expenditure)"),
        (EngineSpec("rqp", alpha=0.25, reference_price=DeflatedUnitValue()),
         "rqp(reference_price=deflated, alpha=0.25)"),
        (EngineSpec("rqp", alpha=0.5), "rqp(alpha=0.5)"),
        (EngineSpec("wgm", weights=TornqvistWeights()), "wgm(weights=tornqvist)"),
        (EngineSpec("wgm", weights=ExpenditureShare()), "wgm(weights=share)"),
    ], ids=["scheme", "config", "two-options", "inner", "inner-options", "quantity",
            "rqp-options", "rqp-default-alpha", "tornqvist-weights", "share-weights"])
    def test_a_label_names_each_option_not_at_its_default(self, spec, label):
        assert spec.label() == label

    def test_the_label_is_built_once_and_rebuilt_by_replace(self):
        spec = EngineSpec("guv")
        assert spec.label() is spec.label()
        changed = dataclasses.replace(spec, reference_price=FixedBase())
        assert changed.label() == "guv(reference_price=fixed-base)"
        assert spec.label() == "guv"


class TestEngineSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            EngineSpec("median")

    @pytest.mark.parametrize(
        "family", [f for f in ENGINE_FAMILIES if f not in CHAINABLE_FAMILIES]
    )
    def test_geks_inner_must_be_reversible(self, family):
        with pytest.raises(ValueError):
            EngineSpec("geks", inner=EngineSpec(family))
        with pytest.raises(ValueError):
            EngineSpec("geks", inner=EngineSpec("guv", reference_price=FixedBase()))
        with pytest.raises(ValueError, match="^index-coupled reference prices"):
            EngineSpec("geks", inner=EngineSpec("guv", reference_price=DeflatedUnitValue()))

    def test_geks_inner_lehr_allowed(self):
        spec = EngineSpec("geks", inner=EngineSpec("guv", reference_price=LehrUnitValue()))
        assert spec.label() == "geks(guv(reference_price=lehr))"

    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_dispatch_matches_direct_call(self, family):
        direct = {
            "gk": gk_index,
            "mgk": mgk_index,
            "guv": guv_index,
            "wgm": wgm_index,
            "tornqvist": tornqvist_index,
            "tpd": tpd_index,
            "geks": geks_index,
            "rq": rq_index,
            "rqp": rqp_index,
        }[family]
        # fixed universe, so every family (tornqvist too) is defined
        ds = fixed_market(5, periods=3, items=4)
        spec = ComparisonSpec(0, 2, FullHistory())
        assert evaluate(ds, spec, EngineSpec(family)) == direct(ds, spec)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize(
        "data, defined",
        [
            # period 0 has a total expenditure of zero
            ({0: {"a": (-1, 1), "b": (1, 1)}, 1: {"a": (1, 1), "b": (1, 1)}}, ()),
            # a's expenditure, price times quantity, overflows to inf
            ({t: {"a": (1e200, 1e200), "b": (1, 1)} for t in range(2)}, ()),
            # a's only quantity is zero, so its unit value is 0/0
            ({0: {"a": (1, 0), "b": (1, 1)}, 1: {"b": (1, 1), "c": (2, 1)}}, ()),
            # every expenditure, and so every period's total, underflows to 0
            ({0: {"a": (1e-200, 1e-200)}, 1: {"a": (1e-200, 2e-200)}}, ()),
            # each period's total is past the float range
            ({t: {"a": (1e300, 1e8), "b": (1e300, 1e8)} for t in range(2)}, ()),
            # a's expenditure overflows to inf in period 0 and to -inf in
            # period 1, and fsum of the two raises a ValueError
            ({0: {"a": (1e200, 1e200), "b": (1, 1)}, 1: {"a": (-1e200, 1e200), "b": (2, 1)}},
             ()),
            # the quantity index's sums are positive, their quotient underflows
            # to 0; the WGM family and rq take no such quotient
            (QUANTITY_INDEX_UNDERFLOW, ("wgm", "tpd", "rq")),
            # a's Lehr price underflows to 0, whose log only wgm takes (and
            # tornqvist, which refuses the changing universe first)
            (LEHR_PRICE_UNDERFLOW, ("gk", "mgk", "guv", "geks", "rq", "rqp")),
            # the WGM index is past the float range, the quantity index underflows
            (WGM_INDEX_OVERFLOW, ()),
        ],
        ids=["zero-total", "overflow", "zero-quantity", "underflow", "overflowing-total",
             "infinite-expenditures-of-both-signs", "quantity-index-underflow",
             "lehr-price-underflow", "wgm-index-overflow"],
    )
    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_degenerate_totals_raise_price_index_errors(self, family, data, defined, policy):
        engine, spec = EngineSpec(family), ComparisonSpec(0, 1, policy)
        if family in defined:
            assert evaluate(Dataset.build(data), spec, engine).value > 0
            return
        with pytest.raises(PriceIndexError):
            evaluate(Dataset.build(data), spec, engine)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize(
        "data, unsummed",
        [
            # a's expenditures are finite, their sum is not
            ({t: {"a": (1e300, 1e8), "b": (1, 1)} for t in range(2)}, {"tpd", "rq"}),
            # a's quantities are finite, their sum is not
            ({t: {"a": (1e-300, sys.float_info.max), "b": (1, 1)} for t in range(2)},
             {"tpd", "rqp-expenditure"}),
        ],
        ids=["expenditures", "quantities"],
    )
    @pytest.mark.parametrize("name", [*ENGINE_FAMILIES, "rqp-expenditure"])
    def test_overflowing_sum_raises_numerical_error(self, name, data, unsummed, policy):
        # the engines in unsummed take no such sum, and the two periods are the same
        engine = EngineSpec(name) if name in ENGINE_FAMILIES else EngineSpec(
            "rqp", reference_quantity=ExpenditureOverReferencePrice(), reference_price=FixedBase())
        spec = ComparisonSpec(0, 1, policy)
        if name in unsummed:
            assert evaluate(Dataset.build(data), spec, engine).value == 1.0
            return
        with pytest.raises(NumericalError, match="item 'a' sum past the float range"):
            evaluate(Dataset.build(data), spec, engine)

    def test_infinite_expenditures_of_both_signs_raise_the_contract_error(self):
        # a's expenditures overflow to inf and -inf in the middle periods,
        # so the compared periods' totals, and the value ratio, are finite
        data = {0: {"a": (1, 1), "b": (1, 1)}, 1: {"a": (1e200, 1e200), "b": (1, 1)},
                2: {"a": (-1e200, 1e200), "b": (1, 1)}, 3: {"a": (2, 1), "b": (1, 1)}}
        engine = EngineSpec("rqp", reference_quantity=ExpenditureOverReferencePrice(),
                            reference_price=FixedBase())
        with pytest.raises(InvalidDataError, match="^total expenditure of period 1 is inf$"):
            evaluate(Dataset.build(data), ComparisonSpec(0, 3, FullHistory()), engine)

    @pytest.mark.parametrize("family", ["gk", "mgk", "guv", "geks", "rqp"])
    def test_overflowing_quantity_index_sum_raises_numerical_error(self, family):
        # both totals are 1e308, but period 1's quantities at the unit values
        # sum past the float range
        data = {0: {"a": (0.5e308, 1.0), "b": (0.5e308, 1.0)},
                1: {"a": (0.5e8, 1e300), "b": (0.5e8, 1e300)}}
        with pytest.raises(NumericalError, match="quantity index sums past the float range"):
            evaluate(Dataset.build(data), BILATERAL, EngineSpec(family))

    def test_overflowing_reference_quantity_sum_raises_numerical_error(self):
        # mean quantities of about 1e8 at period 1's prices of 1e300 give
        # numerator terms of 1e308 that sum past the float range
        data = {0: {"a": (1e-10, 2e8), "b": (1e-10, 2e8)}, 1: {"a": (1e300, 1), "b": (1e300, 1)}}
        with pytest.raises(NumericalError,
                           match="^reference-quantity index sums past the float range$"):
            evaluate(Dataset.build(data), BILATERAL, EngineSpec("rq"))

    def test_quantity_index_sum_of_inf_and_minus_inf_raises_the_contract_error(self):
        # period 3's deflated reference prices times quantities would
        # overflow to inf for i1 and to -inf for i2 (a negative quantity in
        # period 1)
        ds = Dataset.build({
            0: {"i1": (4.95291902285522, 17217992998.845654),
                "i2": (6.757911917259712, 7.201318602055424),
                "i3": (8.964195529769558, 5.882935845792564)},
            1: {"i0": (1.6590838491345347e+300, 5.191162736072662),
                "i1": (6.607017271681254, -6.583311394007627),
                "i2": (8.40258046529794, 7.096628509585138),
                "i3": (4.040826552760663, 3.404934878490495)},
            2: {"i0": (2.6796643027423794, 8820330940.347004),
                "i1": (2.561429267886817, 9.066512825652904),
                "i2": (0.3595751566402172, 1.0231745995922787e+150),
                "i3": (3.7662877989509953, 6.628168120547132)},
            3: {"i0": (4.3760707086876, 5.66555543522032),
                "i1": (0.3193200032675951, 1.6648842937803134e+300),
                "i2": (8.164239231568183e+149, 1.4849661066147963)}})
        with pytest.raises(InvalidDataError,
                           match="^quantity of item 'i1' in period 1 is -6.583311394007627$"):
            evaluate(ds, ComparisonSpec(1, 3, FullHistory()), EngineSpec("gk"))

    @pytest.mark.parametrize("numerator, denominator, message", [
        ([math.inf, 1.0], [math.inf], "inf/inf is nan"),
        ([math.inf], [2.0, 1.0], "inf/3.0 is inf"),
        ([1e300], [1e-300], "1e+300/1e-300 is inf"),
    ], ids=["nan", "infinite-sum", "overflowing-quotient"])
    def test_quantity_ratio_names_an_infinite_or_nan_quotient(
            self, numerator, denominator, message):
        with pytest.raises(NumericalError, match=re.escape(f"quantity index {message}")):
            engines._quantity_ratio(numerator, denominator)

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize("family", ["gk", "mgk", "guv", "geks", "rqp"])
    def test_overflowing_quantity_index_quotient_names_both_sums(self, family, policy):
        # a's quantity rises by a factor of 1e400 while its price falls by
        # 1e-200: the value ratio and the quantity index's sums are finite,
        # their quotient is not (the index was 0.0 and named as such)
        data = {0: {"a": (1e100, 1e-200)}, 1: {"a": (1e-100, 1e200)}}
        with pytest.raises(NumericalError, match=r"quantity index \S+/\S+ is inf"):
            evaluate(Dataset.build(data), ComparisonSpec(0, 1, policy), EngineSpec(family))

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    @pytest.mark.parametrize("family", ["gk", "mgk", "guv", "geks", "rqp"])
    def test_infinite_base_total_names_the_total(self, family, policy):
        # period 0's total is past the float range, so the value ratio is no number
        data = {0: {"a": (1e300, 1e8), "b": (1e300, 1e8)}, 1: {"a": (1, 1), "b": (1, 1)}}
        with pytest.raises(InvalidDataError, match="^total expenditure of period 0 is inf$"):
            evaluate(Dataset.build(data), ComparisonSpec(0, 1, policy), EngineSpec(family))

    @pytest.mark.parametrize("policy", [Bilateral(), FullHistory()],
                             ids=["bilateral", "full-history"])
    def test_zero_reference_price_raises_numerical_error(self, policy):
        # a's expenditure, and so its Lehr reference price, underflows to 0
        engine = EngineSpec("rqp", reference_quantity=ExpenditureOverReferencePrice())
        with pytest.raises(NumericalError, match="^reference price of item 'a' is 0.0$"):
            evaluate(Dataset.build(LEHR_PRICE_UNDERFLOW), ComparisonSpec(0, 1, policy), engine)

    @pytest.mark.parametrize(
        "spec",
        [ComparisonSpec(1, 3, Bilateral()), ComparisonSpec(2, 3, RollingWindow(2)),
         ComparisonSpec(1, 3, RollingWindow(3)), ComparisonSpec(0, 3, FullHistory())],
        ids=["bilateral", "window-2", "window-3", "full-history"],
    )
    def test_compared_table_holds_the_compared_items(self, spec):
        ds = random_market(6, periods=4, items=8, churn=0.5)
        data = _compared_table(ds, spec)
        assert data.periods == spec.reference_periods(ds)
        compared = ds.universe(spec.base) | ds.universe(spec.current)
        in_order = [i for r in data.periods for i in ds.period_data(r).items if i in compared]
        assert list(data.runs) == list(dict.fromkeys(in_order))

    def test_disjoint_universes_still_evaluate(self):
        ds = Dataset.build({0: {"A": (1, 2)}, 1: {"B": (3, 4)}})
        assert mgk_index(ds, BILATERAL).value > 0


# ---------------------------------------------------------------------------
# Bilateral Lehr MGK, priced from the two period maps without a table, must
# match the table path bit for bit, errors included.


def _table_path(ds, spec):
    """MGK through the compared items' table, its Lehr prices and the quantity index."""
    data = _compared_table(ds, spec)
    prices = reference_prices(data, LehrUnitValue())
    value_ratio = ds.value_ratio(spec.base, spec.current)
    quantity = _quantity_index(data, data.current, prices)
    return IndexResult(value_ratio / quantity, decomposition=(value_ratio, quantity))


def _outcome(compute):
    """The value and decomposition as float.hex, or the error's type and message."""
    try:
        result = compute()
    except Exception as error:
        return type(error), str(error)
    return result.value.hex(), tuple(v.hex() for v in result.decomposition)


def _assert_kernel_matches_table_path(ds, spec):
    expected = _outcome(lambda: _table_path(ds, spec))
    assert _outcome(lambda: mgk_index(ds, spec)) == expected
    assert _outcome(lambda: guv_index(ds, spec)) == expected
    assert _outcome(lambda: evaluate(ds, spec, EngineSpec("mgk"))) == expected


_A0, _A1 = (2.0**-100, 2.0**100), (2.0**1000, 2.0**23)

# Positive, finite tables on which a sum, a quotient, a log or an exp leaves
# the float range, or the compared universes share no item.
_DEGENERATE_TABLES = {
    "disjoint-universes": DISJOINT_UNIVERSES,
    # a's expenditures are finite, their sum is not
    "overflowing-expenditure-sum": {t: {"a": (1e300, 1e8), "b": (1, 1)} for t in range(2)},
    "overflowing-quantity-sum": OVERFLOWING_QUANTITY_SUM,
    "overflowing-quantity-index": OVERFLOWING_QUANTITY_INDEX,
    "zero-pivot": ZERO_PIVOT,
    "quantity-index-underflow": QUANTITY_INDEX_UNDERFLOW,
    "lehr-price-underflow": LEHR_PRICE_UNDERFLOW,
    "wgm-index-overflow": WGM_INDEX_OVERFLOW,
}

# Tables that break the input contract, each with the first violation,
# which every engine names before it reads any data.
_OUT_OF_CONTRACT = {
    "zero-quantity": ({0: {"a": (1, 0), "b": (1, 1)}, 1: {"b": (1, 1), "c": (2, 1)}},
                      "quantity of item 'a' in period 0 is 0"),
    "zero-quantity-sum": ({0: {"a": (1, 1), "b": (1, 1)}, 1: {"a": (2, -1), "b": (1, 1)}},
                          "quantity of item 'a' in period 1 is -1"),
    "zero-total": ({0: {"a": (-1, 1), "b": (1, 1)}, 1: {"a": (1, 1), "b": (1, 1)}},
                   "price of item 'a' in period 0 is -1"),
    "negative-price": ({0: {"a": (1, 1), "b": (2, 1)}, 1: {"a": (-1, 1), "b": (4, 1)}},
                       "price of item 'a' in period 1 is -1"),
    "empty-current-period": ({0: {"a": (1, 1), "b": (2, 1)}, 1: {}}, "period 1 has no items"),
    "overflowing-expenditure": ({t: {"a": (1e200, 1e200), "b": (1, 1)} for t in range(2)},
                                "total expenditure of period 0 is inf"),
    "overflowing-total": ({t: {"a": (1e300, 1e8), "b": (1e300, 1e8)} for t in range(2)},
                          "total expenditure of period 0 is inf"),
    # every expenditure, and so every period's total, underflows to 0
    "underflow": ({0: {"a": (1e-200, 1e-200)}, 1: {"a": (1e-200, 2e-200)}},
                  "total expenditure of period 0 is 0.0"),
    "infinite-expenditures-of-both-signs": (
        {0: {"a": (1e200, 1e200), "b": (1, 1)}, 1: {"a": (-1e200, 1e200), "b": (2, 1)}},
        "total expenditure of period 0 is inf"),
    # WGM's log terms would be c, c, -c, -b (current items) then b, b, -b,
    # -c (base items), with c past half the float range and b small: fsum
    # overflows in that order and sums them to 0 with the base items first
    "wgm-log-terms-in-order": (
        {0: {"a": _A0, "a2": _A0, "d": (_A0[0], -_A0[1]), "g": _A1,
             "j1": (1.0, -2.0**1023), "j2": (31.0, 1.0)},
         1: {"a": _A1, "a2": _A1, "d": (_A1[0], -_A1[1]), "g": _A0,
             "k1": (1.0, -2.0**1023), "k2": (31.0, 1.0)}},
        f"quantity of item 'd' in period 0 is {-_A0[1]!r}"),
}

_POLICIES = [Bilateral(), FullHistory(), RollingWindow(2)]
_POLICY_IDS = ["bilateral", "full-history", "window-2"]


def _no_empty_period(periods, items):
    return all(any(t in present for present, *_ in items) for t in periods)


# Items of a 2-period table: the periods each is in, then its price and
# quantity in period 0 and in period 1. No period is empty.
_TWO_PERIOD_DRAWS = st.lists(
    st.tuples(st.sampled_from([(0,), (1,), (0, 1)]), POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS,
              POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS),
    min_size=1, max_size=6).filter(lambda items: _no_empty_period((0, 1), items))


def _two_period_table(draws):
    periods = {0: {}, 1: {}}
    for n, (present, p0, q0, p1, q1) in enumerate(draws):
        for t in present:
            periods[t][f"i{n}"] = (p0, q0) if t == 0 else (p1, q1)
    return Dataset.build(periods)


def _chained(ds, spec, leg):
    """GEKS's series spelled out over leg(s, r), s < r, as its hex, or the first leg's error.

    Each leg is taken once, the reverse direction is its inverse, and
    legs are taken in geks_index's order.
    """
    legs = {}

    def bilateral(s, r):
        if s == r:
            return 1.0
        if s > r:
            return 1.0 / bilateral(r, s)
        if (s, r) not in legs:
            legs[(s, r)] = leg(s, r)
        return legs[(s, r)]

    series = {spec.base: 1.0}
    try:
        for r in spec.reference_periods(ds):
            if r > spec.base:
                window = spec.policy.reference_periods(ds, spec.base, r)
                logs = [math.log(bilateral(spec.base, s)) + math.log(bilateral(s, r))
                        for s in window]
                series[r] = math.exp(math.fsum(logs) / len(window))
        IndexResult(series[spec.current], series=series)
    except Exception as error:
        return type(error), str(error)
    return {r: v.hex() for r, v in series.items()}


def _series_outcome(compute):
    """The series as float.hex, or the error's type and message."""
    try:
        return {r: v.hex() for r, v in compute().series.items()}
    except Exception as error:
        return type(error), str(error)


def _count_tables(monkeypatch):
    """The specs of the reference_data calls made from here on."""
    calls = []
    build = references.reference_data

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(references, "reference_data", counted)
    monkeypatch.setattr(engines, "reference_data", counted)
    return calls


class TestLehrBilateral:
    @pytest.mark.parametrize("seed", range(4))
    def test_churn_markets_every_pair(self, seed):
        ds = random_market(seed, periods=6, items=12, churn=0.4)
        for s in range(6):
            for t in range(s + 1, 6):
                _assert_kernel_matches_table_path(ds, ComparisonSpec(s, t, Bilateral()))

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    @pytest.mark.parametrize("name", _DEGENERATE_TABLES)
    def test_degenerate_tables(self, name, policy):
        ds = Dataset.build(_DEGENERATE_TABLES[name])
        last = ds.last_period
        for s in range(last):
            for t in range(s + 1, last + 1):
                _assert_kernel_matches_table_path(ds, ComparisonSpec(s, t, policy))

    @given(_TWO_PERIOD_DRAWS)
    # a's expenditures are finite, their sum is not
    @example([((0, 1), 1e300, 1e8, 1e300, 1e8), ((0, 1), 1.0, 1.0, 1.0, 1.0)])
    # a's quantities are finite, their sum is not
    @example([((0, 1), 1e-300, sys.float_info.max, 1e-300, sys.float_info.max),
              ((0, 1), 1.0, 1.0, 1.0, 1.0)])
    @settings(max_examples=300, deadline=None)
    def test_random_two_period_tables(self, draws):
        _assert_kernel_matches_table_path(_two_period_table(draws), BILATERAL)

    def test_geks_series_matches_table_path_legs(self):
        ds = random_market(2, periods=25, items=20, churn=0.2)
        spec = ComparisonSpec(0, 24, FullHistory())
        legs = {}

        def table_leg(s, r):
            legs[(s, r)] = _table_path(ds, ComparisonSpec(s, r, Bilateral())).value
            return legs[(s, r)]

        expected = _chained(ds, spec, table_leg)
        assert len(legs) == 300
        assert _series_outcome(lambda: geks_index(ds, spec)) == expected

    def test_geks_legs_build_no_table(self, monkeypatch):
        ds = random_market(1, periods=25, items=20, churn=0.2)
        calls = _count_tables(monkeypatch)
        geks_index(ds, ComparisonSpec(0, 24, FullHistory()))
        assert calls == []

    def test_rqp_still_builds_one_table(self, monkeypatch):
        ds = random_market(1, periods=3, items=20, churn=0.2)
        calls = _count_tables(monkeypatch)
        evaluate(ds, ComparisonSpec(0, 2, Bilateral()), EngineSpec("rqp"))
        assert calls == [ComparisonSpec(0, 2, Bilateral())]


# ---------------------------------------------------------------------------
# GEKS chains of more than two periods price their MGK legs from per-period
# columns; each leg must match the bilateral kernel bit for bit, or raise
# what the leg through evaluate raises.


def _kernel_leg(ds, s, t):
    """The MGK leg of t against s through the two-walk kernel, as evaluate takes it."""
    ds.require_contract()
    value_ratio, quantity = engines._lehr_bilateral(ds, s, t)
    return IndexResult(value_ratio / quantity).value


def _column_leg(leg, ds, s, t):
    """The leg as geks_index takes it: from the columns, else through evaluate."""
    ds.require_contract()
    value = leg(s, t)
    if value is None:
        value = evaluate(ds, ComparisonSpec(s, t, Bilateral()), EngineSpec("mgk")).value
    return value


def _leg_outcome(compute):
    try:
        return compute().hex()
    except Exception as error:
        return type(error), str(error)


def _assert_chain_matches(ds, spec, expected):
    """The chain's series on a fresh dataset, whose every leg is priced in
    this call, and on ds, whose leg map keeps the legs of earlier calls."""
    assert _series_outcome(lambda: geks_index(Dataset(ds.periods), spec)) == expected, spec
    assert _series_outcome(lambda: geks_index(ds, spec)) == expected, spec


def _assert_columns_match_kernel(ds, policies=(FullHistory(), RollingWindow(3))):
    """Every leg, and every GEKS chain from the first period, matches the kernel's."""
    periods = ds.period_indices()
    leg = engines._lehr_legs(ds)
    for a, s in enumerate(periods):
        for t in periods[a + 1:]:
            expected = _leg_outcome(lambda: _kernel_leg(ds, s, t))
            assert _leg_outcome(lambda: _column_leg(leg, ds, s, t)) == expected, (s, t)
    for policy in policies:
        for t in periods[1:]:
            if policy == RollingWindow(3) and t - periods[0] > 2:
                continue
            spec = ComparisonSpec(periods[0], t, policy)
            _assert_chain_matches(ds, spec, _chained(ds, spec, lambda s, r: _kernel_leg(ds, s, r)))


# A plain period sharing items with most degenerate tables, to place them inside
# longer chains.
_PLAIN = {"a": (1.5, 2.0), "b": (2.0, 1.0), "i0": (3.0, 0.5), "n": (0.7, 4.0)}

# Items of a table of three to five periods: the periods each is in, then
# its price and quantity in each of five periods. No period is empty.
_CHAIN_DRAWS = st.tuples(
    st.integers(3, 5),
    st.lists(st.tuples(st.sets(st.integers(0, 4), min_size=1),
                       st.lists(st.tuples(POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS),
                                min_size=5, max_size=5)),
             min_size=1, max_size=6),
).filter(lambda draws: _no_empty_period(range(draws[0]), draws[1]))


def _chain_table(draws):
    n, items = draws
    periods = {t: {} for t in range(n)}
    for k, (present, observations) in enumerate(items):
        for t in present:
            if t < n:
                periods[t][f"i{k}"] = observations[t]
    return Dataset.build(periods)


def _count_legs(monkeypatch):
    """The specs of the engines.evaluate calls made from here on."""
    calls = []
    run = engines.evaluate

    def counted(dataset, spec, engine):
        calls.append(spec)
        return run(dataset, spec, engine)

    monkeypatch.setattr(engines, "evaluate", counted)
    return calls


class TestGeksColumns:
    @pytest.mark.parametrize("seed", range(4))
    def test_churn_markets_every_chain(self, seed):
        _assert_columns_match_kernel(random_market(seed, periods=6, items=12, churn=0.4))

    @pytest.mark.parametrize("seed", range(2))
    def test_rolling_window_chains(self, seed):
        ds = random_market(seed, periods=7, items=10, churn=0.3)
        for current in range(2, 7):
            for base in range(current - 2, current):
                spec = ComparisonSpec(base, current, RollingWindow(3))
                _assert_chain_matches(
                    ds, spec, _chained(ds, spec, lambda s, r: _kernel_leg(ds, s, r)))

    @pytest.mark.parametrize("layout", ["plain-first", "plain-last", "plain-both-ends"])
    @pytest.mark.parametrize("name", _DEGENERATE_TABLES)
    def test_degenerate_tables_inside_longer_chains(self, name, layout):
        table = list(_DEGENERATE_TABLES[name].values())
        chain = {"plain-first": [_PLAIN, *table], "plain-last": [*table, _PLAIN],
                 "plain-both-ends": [_PLAIN, *table, _PLAIN]}[layout]
        _assert_columns_match_kernel(Dataset.build(dict(enumerate(chain))))

    @given(_CHAIN_DRAWS)
    @settings(max_examples=200, deadline=None)
    def test_random_chain_tables(self, draws):
        _assert_columns_match_kernel(_chain_table(draws))

    @pytest.mark.parametrize("inner", [None, EngineSpec("mgk"), EngineSpec("guv"),
                                       EngineSpec("guv", reference_price=LehrUnitValue())],
                             ids=["default", "mgk", "guv", "guv-lehr"])
    def test_lehr_legs_skip_evaluate(self, monkeypatch, inner):
        ds = random_market(1, periods=25, items=20, churn=0.2)
        calls = _count_legs(monkeypatch)
        geks_index(ds, ComparisonSpec(0, 24, FullHistory()), inner)
        assert calls == []

    def test_two_period_chain_takes_the_kernel(self, monkeypatch):
        ds = random_market(1, periods=3, items=20, churn=0.2)
        calls = _count_legs(monkeypatch)
        geks_index(ds, ComparisonSpec(0, 1, FullHistory()))
        geks_index(ds, ComparisonSpec(0, 2, Bilateral()))
        assert calls == [ComparisonSpec(0, 1, Bilateral()), ComparisonSpec(0, 2, Bilateral())]

    @pytest.mark.parametrize("inner", ["wgm", "lehr-subclass", "custom-prices"])
    def test_other_inners_evaluate_every_leg(self, monkeypatch, inner):
        ds = random_market(1, periods=6, items=20, churn=0.2)
        prices = {i: 1.0 + len(i) for t in range(6) for i in ds.period_data(t).items}
        engine = {"wgm": EngineSpec("wgm"),
                  "lehr-subclass": EngineSpec("guv", reference_price=_Lehr()),
                  "custom-prices": EngineSpec("guv", reference_price=CustomPrices(prices))}[inner]
        calls = _count_legs(monkeypatch)
        # their legs are kept for the call only, so a second call prices them again
        for _ in range(2):
            geks_index(ds, ComparisonSpec(0, 5, FullHistory()), engine)
        assert sorted(calls, key=lambda c: (c.base, c.current)) == [
            ComparisonSpec(s, t, Bilateral()) for s in range(6) for t in range(s + 1, 6)
            for _ in range(2)]


# ---------------------------------------------------------------------------
# A Lehr leg is a function of its two periods alone, so GEKS keeps it in the
# dataset's leg map: later chains over the dataset take it from there, with
# the values and errors of a dataset that prices it afresh.


def _count_column_legs(monkeypatch):
    """The pairs asked of _lehr_legs's leg from here on."""
    asked = []
    columns = engines._lehr_legs

    def counted(dataset):
        leg = columns(dataset)

        def counted_leg(s, t):
            asked.append((s, t))
            return leg(s, t)

        return counted_leg

    monkeypatch.setattr(engines, "_lehr_legs", counted)
    return asked


def _expanding(last):
    return [ComparisonSpec(0, current, FullHistory()) for current in range(2, last + 1)]


def _rolling(last):
    return [ComparisonSpec(current - 2, current, RollingWindow(3))
            for current in range(2, last + 1)]


class TestGeksLegMap:
    @pytest.mark.parametrize("inner", [None, EngineSpec("guv"),
                                       EngineSpec("guv", reference_price=LehrUnitValue())],
                             ids=["default", "guv", "guv-lehr"])
    def test_second_call_prices_no_leg(self, monkeypatch, inner):
        data = {pd.period: {i: (o.price, o.quantity) for i, o in pd.items.items()}
                for pd in random_market(1, periods=8, items=20, churn=0.2).periods}
        ds, spec = Dataset.build(data), ComparisonSpec(0, 7, FullHistory())
        asked, calls = _count_column_legs(monkeypatch), _count_legs(monkeypatch)
        first = _series_outcome(lambda: geks_index(ds, spec, inner))
        assert sorted(asked) == [(s, t) for s in range(8) for t in range(s + 1, 8)]
        asked.clear()
        second = _series_outcome(lambda: geks_index(ds, spec, inner))
        assert asked == [] and calls == []
        assert first == second == _series_outcome(lambda: geks_index(Dataset.build(data), spec))

    def test_inners_share_the_map(self, monkeypatch):
        ds = random_market(2, periods=5, items=10, churn=0.3)
        geks_index(ds, ComparisonSpec(0, 4, FullHistory()), EngineSpec("mgk"))
        asked, calls = _count_column_legs(monkeypatch), _count_legs(monkeypatch)
        geks_index(ds, ComparisonSpec(1, 4, FullHistory()), EngineSpec("guv"))
        geks_index(ds, ComparisonSpec(0, 4), EngineSpec("guv", reference_price=LehrUnitValue()))
        assert asked == [] and calls == []

    def test_two_period_chain_keeps_its_leg(self, monkeypatch):
        ds = random_market(1, periods=3, items=20, churn=0.2)
        calls = _count_legs(monkeypatch)
        for _ in range(2):
            geks_index(ds, ComparisonSpec(0, 1, FullHistory()))
        asked = _count_column_legs(monkeypatch)
        geks_index(ds, ComparisonSpec(0, 2, FullHistory()))
        assert calls == [ComparisonSpec(0, 1, Bilateral())]
        assert sorted(asked) == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("layout", ["plain-first", "plain-last", "plain-both-ends"])
    @pytest.mark.parametrize("name", _DEGENERATE_TABLES)
    def test_failing_leg_raises_on_every_call(self, name, layout):
        table = list(_DEGENERATE_TABLES[name].values())
        chain = {"plain-first": [_PLAIN, *table], "plain-last": [*table, _PLAIN],
                 "plain-both-ends": [_PLAIN, *table, _PLAIN]}[layout]
        ds = Dataset.build(dict(enumerate(chain)))
        spec = ComparisonSpec(0, ds.last_period, FullHistory())
        outcomes = [_series_outcome(lambda: geks_index(ds, spec)) for _ in range(2)]
        assert outcomes[0] == outcomes[1] == _series_outcome(
            lambda: geks_index(Dataset(ds.periods), spec))
        if isinstance(outcomes[0], tuple):
            # the failing leg and every one after it in the chain stay unpriced
            assert len(ds._legs) < ds.last_period * (ds.last_period + 1) // 2

    @pytest.mark.parametrize("sequence", [_expanding, _rolling], ids=["expanding", "rolling"])
    def test_production_sequences(self, monkeypatch, sequence):
        ds = random_market(4, periods=8, items=15, churn=0.3)
        specs = sequence(ds.last_period)
        expected = [_series_outcome(lambda: geks_index(Dataset(ds.periods), spec))
                    for spec in specs]
        asked, calls = _count_column_legs(monkeypatch), _count_legs(monkeypatch)
        assert [_series_outcome(lambda: geks_index(ds, spec)) for spec in specs] == expected
        assert calls == [] and len(asked) == len(set(asked))
        assert set(asked) == set(ds._legs)

    def test_threads_sharing_a_dataset(self):
        ds = random_market(5, periods=10, items=30, churn=0.2)
        specs = [ComparisonSpec(0, 9, FullHistory()), *_rolling(9), *_expanding(9)]
        serial = [_series_outcome(lambda: geks_index(Dataset(ds.periods), spec))
                  for spec in specs]
        barrier, results = threading.Barrier(4), {}

        def run(k):
            barrier.wait(timeout=60)
            order = specs if k % 2 == 0 else specs[::-1]
            results[k] = {spec: _series_outcome(lambda: geks_index(ds, spec)) for spec in order}

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        # switch threads often, so that they interleave inside each other's legs
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [[results[k][spec] for spec in specs] for k in range(4)] == [serial] * 4


# ---------------------------------------------------------------------------
# Bilateral WGM with expenditure shares, priced and weighted from the two
# period maps without a table, must match the table path bit for bit,
# errors included.


def _wgm_table_path(ds, spec):
    """WGM through the compared items' table, its Lehr prices and expenditure shares."""
    data = _compared_table(ds, spec)
    prices = reference_prices(data, LehrUnitValue())
    return IndexResult(_wgm_index_at(data, ExpenditureShare())(data.current, prices))


def _wgm_outcome(compute):
    """The value as float.hex, or the error's type and message."""
    try:
        return compute().value.hex()
    except Exception as error:
        return type(error), str(error)


def _assert_wgm_kernel_matches_table_path(ds, spec):
    expected = _wgm_outcome(lambda: _wgm_table_path(ds, spec))
    assert _wgm_outcome(lambda: wgm_index(ds, spec)) == expected
    explicit = (ExpenditureShare(), LehrUnitValue())
    assert _wgm_outcome(lambda: wgm_index(ds, spec, *explicit)) == expected
    assert _wgm_outcome(lambda: evaluate(ds, spec, EngineSpec("wgm"))) == expected


class _Lehr(LehrUnitValue):
    """Prices as its parent; a subclass may price otherwise, so it keeps the table."""


class _Shares(ExpenditureShare):
    """Weights as its parent; a subclass may weight otherwise, so it keeps the table."""


class TestWgmBilateral:
    @pytest.mark.parametrize("seed", range(4))
    def test_churn_markets_every_pair(self, seed):
        ds = random_market(seed, periods=6, items=12, churn=0.4)
        for s in range(6):
            for t in range(s + 1, 6):
                _assert_wgm_kernel_matches_table_path(ds, ComparisonSpec(s, t, Bilateral()))

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    @pytest.mark.parametrize("name", _DEGENERATE_TABLES)
    def test_degenerate_tables(self, name, policy):
        ds = Dataset.build(_DEGENERATE_TABLES[name])
        last = ds.last_period
        for s in range(last):
            for t in range(s + 1, last + 1):
                _assert_wgm_kernel_matches_table_path(ds, ComparisonSpec(s, t, policy))

    @given(_TWO_PERIOD_DRAWS)
    @settings(max_examples=300, deadline=None)
    def test_random_two_period_tables(self, draws):
        _assert_wgm_kernel_matches_table_path(_two_period_table(draws), BILATERAL)

    @pytest.mark.parametrize("data, message", [
        (LEHR_PRICE_UNDERFLOW, "its log is undefined"),
        (WGM_INDEX_OVERFLOW, "weighted geometric mean is past the float range"),
    ], ids=["undefined-log", "index-overflow"])
    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    def test_float_range_errors_are_numerical_errors(self, data, message, policy):
        with pytest.raises(NumericalError, match=message):
            wgm_index(Dataset.build(data), ComparisonSpec(0, 1, policy))

    def test_geks_series_matches_table_path_legs(self, monkeypatch):
        ds = random_market(2, periods=25, items=20, churn=0.2)
        spec, inner = ComparisonSpec(0, 24, FullHistory()), EngineSpec("wgm")
        series = geks_index(ds, spec, inner).series
        legs = []

        def table_leg(dataset, leg_spec, engine):
            legs.append(leg_spec)
            return _wgm_table_path(dataset, leg_spec)

        monkeypatch.setattr(engines, "evaluate", table_leg)
        expected = geks_index(ds, spec, inner).series
        assert len(legs) == 300
        assert {r: v.hex() for r, v in series.items()} == {r: v.hex() for r, v in expected.items()}

    def test_bilateral_wgm_builds_no_table(self, monkeypatch):
        ds = random_market(1, periods=3, items=20, churn=0.2)
        calls = _count_tables(monkeypatch)
        evaluate(ds, ComparisonSpec(0, 2, Bilateral()), EngineSpec("wgm"))
        evaluate(ds, ComparisonSpec(1, 2, RollingWindow(2)), EngineSpec("wgm"))
        geks_index(ds, ComparisonSpec(0, 2, FullHistory()), EngineSpec("wgm"))
        assert calls == []

    @pytest.mark.parametrize("spec, engine", [
        (ComparisonSpec(0, 2, FullHistory()), EngineSpec("wgm")),
        (ComparisonSpec(0, 2, Bilateral()), EngineSpec("tornqvist")),
        (ComparisonSpec(0, 2, Bilateral()), EngineSpec("wgm", weights=TornqvistWeights())),
        (ComparisonSpec(0, 2, Bilateral()), EngineSpec("wgm", reference_price=FixedBase())),
        (ComparisonSpec(0, 2, Bilateral()), EngineSpec("wgm", reference_price=_Lehr())),
        (ComparisonSpec(0, 2, Bilateral()), EngineSpec("wgm", weights=_Shares())),
    ], ids=["full-history", "tornqvist", "tornqvist-weights", "fixed-base", "lehr-subclass",
            "share-subclass"])
    def test_other_wgm_paths_still_build_one_table(self, monkeypatch, spec, engine):
        ds = fixed_market(1, periods=3, items=20)
        calls = _count_tables(monkeypatch)
        evaluate(ds, spec, engine)
        assert calls == [spec]


# ---------------------------------------------------------------------------
# The input contract: every engine, and the classical indices, name the
# dataset's first violation before they read any data.


class TestInputContract:
    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", _OUT_OF_CONTRACT)
    def test_every_engine_names_the_first_violation(self, name, engine, policy):
        data, message = _OUT_OF_CONTRACT[name]
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            evaluate(Dataset.build(data), ComparisonSpec(0, 1, policy), ENGINES[engine])

    @pytest.mark.parametrize("compute", [classical_indices, adjusted_laspeyres])
    @pytest.mark.parametrize("name", _OUT_OF_CONTRACT)
    def test_classical_indices_name_the_first_violation(self, name, compute):
        data, message = _OUT_OF_CONTRACT[name]
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            compute(Dataset.build(data), 0, 1)

    @pytest.mark.parametrize("name", _OUT_OF_CONTRACT)
    def test_datasets_outside_the_contract_still_build_and_validate(self, name):
        # construction rejects only duplicate periods; validate lists the findings
        assert Dataset.build(_OUT_OF_CONTRACT[name][0]).validate()

    @pytest.mark.parametrize("spec", [ComparisonSpec(0, 2, RollingWindow(2)), ComparisonSpec(0, 9)],
                             ids=["base-outside-the-window", "unknown-period"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_the_contract_error_comes_before_any_other(self, engine, spec):
        ds = Dataset.build({0: {"a": (1, 1)}, 1: {"a": (2, 1)}, 2: {"a": (0, 1)}})
        with pytest.raises(InvalidDataError, match="^price of item 'a' in period 2 is 0$"):
            evaluate(ds, spec, ENGINES[engine])

    @pytest.mark.parametrize("data, message", [
        ({3: {"a": (1, -1)}, 1: {"b": (-1, 1)}, 2: {}}, "price of item 'b' in period 1 is -1"),
        ({0: {"a": (1, 1), "b": (1, 0), "c": (-1, 1)}, 1: {}}, "quantity of item 'b' in period 0 is 0"),
        ({0: {"a": (-1, 0)}, 1: {"a": (1, 1)}}, "price of item 'a' in period 0 is -1"),
        ({0: {"a": (1e300, 1e8), "b": (1e300, 1e8), "c": (0, 1)}, 1: {"a": (1, 1)}},
         "price of item 'c' in period 0 is 0"),
    ], ids=["periods-in-order", "items-in-order", "price-before-quantity", "items-before-total"])
    def test_the_first_violation_is_named(self, data, message):
        ds = Dataset.build(data)
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            ds.require_contract()
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            evaluate(ds, ComparisonSpec(ds.first_period, ds.last_period), EngineSpec("mgk"))
