"""Structural invariants of the engines, mostly hypothesis-driven.

The large counted suites required for sign-off live in
test_acceptance.py; these are the fast, shrinkable versions.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynindex import (
    AxiomTest,
    Bilateral,
    ComparisonSpec,
    Dataset,
    EngineSpec,
    FullHistory,
    InvalidDataError,
    LehrUnitValue,
    PriceIndexError,
    RollingWindow,
    ScenarioParams,
    adjusted_laspeyres,
    classical_indices,
    evaluate,
    generate_scenario,
    geks_index,
    gk_index,
    guv_index,
    mgk_index,
    rqp_index,
    tornqvist_index,
    wgm_index,
)
from helpers import (
    ENGINES,
    POSITIVE_EDGE_FLOATS,
    presence_mgk,
    random_market,
    relabeled,
    scaled,
    swapped,
)

BILATERAL = ComparisonSpec(0, 1, Bilateral())


def _two_period_datasets():
    item_pool = [f"i{k}" for k in range(5)]
    value = st.floats(min_value=0.1, max_value=40.0, allow_nan=False)
    observation = st.tuples(value, value)
    items = st.dictionaries(st.sampled_from(item_pool), observation, min_size=1)
    return st.tuples(items, items).map(lambda p: Dataset.build({0: p[0], 1: p[1]}))


@given(_two_period_datasets())
@settings(max_examples=150, deadline=None)
def test_time_reversal_unit_value_engine(ds):
    forward = mgk_index(ds, BILATERAL).value
    backward = mgk_index(swapped(ds), BILATERAL).value
    assert forward * backward == pytest.approx(1.0, abs=1e-10)


@given(_two_period_datasets())
@settings(max_examples=150, deadline=None)
def test_time_reversal_geometric_engine(ds):
    forward = wgm_index(ds, BILATERAL).value
    backward = wgm_index(swapped(ds), BILATERAL).value
    assert forward * backward == pytest.approx(1.0, abs=1e-10)


@given(_two_period_datasets())
@settings(max_examples=100, deadline=None)
def test_value_ratio_decomposition(ds):
    result = mgk_index(ds, BILATERAL)
    ratio, quantity = result.decomposition
    assert result.value * quantity == pytest.approx(ratio, rel=1e-12)
    assert ratio == pytest.approx(ds.value_ratio(0, 1), rel=1e-15)


@given(_two_period_datasets(), st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_scale_equivariance_in_prices(ds, lam):
    base = mgk_index(ds, BILATERAL).value
    rescaled = mgk_index(scaled(ds, price_factor=lam), BILATERAL).value
    assert rescaled == pytest.approx(base, rel=1e-10)


@given(_two_period_datasets(), st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_scale_equivariance_in_quantities(ds, lam):
    base = mgk_index(ds, BILATERAL).value
    rescaled = mgk_index(scaled(ds, quantity_factor=lam), BILATERAL).value
    assert rescaled == pytest.approx(base, rel=1e-10)


@given(_two_period_datasets(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_rqp_interpolates(ds, alpha):
    result = rqp_index(ds, BILATERAL, alpha)
    low = min(result.components["rq"], result.components["guv"])
    high = max(result.components["rq"], result.components["guv"])
    assert low * (1 - 1e-12) <= result.value <= high * (1 + 1e-12)


class TestBoundSandwich:
    def test_upper_bound_with_unit_value_prices(self):
        # declining persistent prices put the unit-value reference price
        # between the two observations, which caps the index at one
        for seed in range(50):
            scenario = generate_scenario(
                AxiomTest.T3_UPPER_BOUND, seed, ScenarioParams(n_periods=2)
            )
            value = guv_index(scenario.dataset, scenario.spec, LehrUnitValue()).value
            assert math.log(value) <= 1e-9

    def test_lower_bound_with_unit_value_prices(self):
        for seed in range(50):
            scenario = generate_scenario(
                AxiomTest.T4_LOWER_BOUND, seed, ScenarioParams(n_periods=2)
            )
            value = guv_index(scenario.dataset, scenario.spec, LehrUnitValue()).value
            assert math.log(value) >= -1e-9


class TestFixedBasket:
    def test_value_family_returns_value_ratio(self):
        for seed in range(50):
            scenario = generate_scenario(
                AxiomTest.T2_FIXED_BASKET, seed, ScenarioParams(n_periods=2)
            )
            ds = scenario.dataset
            ratio = ds.value_ratio(0, 1)
            assert mgk_index(ds, scenario.spec).value == pytest.approx(ratio, rel=1e-12)
            assert gk_index(ds, scenario.spec).value == pytest.approx(ratio, rel=1e-9)


class TestPresenceData:
    def test_mgk_closed_form_on_unit_quantities(self):
        # the general check behind the one-seed closed-form oracle
        params = ScenarioParams(n_periods=2, setting="both", unit_quantities=True)
        for seed in range(200):
            scenario = generate_scenario(AxiomTest.T5_RESPONSIVENESS, seed, params)
            ds, spec = scenario.dataset, scenario.spec
            expected = presence_mgk(ds, spec.base, spec.current)
            assert mgk_index(ds, spec).value == pytest.approx(expected, rel=1e-12)


class TestRelabeling:
    @pytest.mark.parametrize(
        "engine",
        [
            EngineSpec("mgk"),
            EngineSpec("gk"),
            EngineSpec("wgm"),
            EngineSpec("tpd"),
            EngineSpec("geks"),
            EngineSpec("rq"),
            EngineSpec("rqp"),
        ],
    )
    def test_engines_ignore_item_names(self, engine):
        for seed in (0, 1, 2):
            ds = random_market(seed, periods=3, items=6, churn=0.3)
            spec = ComparisonSpec(0, 2, FullHistory())
            assert evaluate(relabeled(ds), spec, engine).value == evaluate(ds, spec, engine).value


class TestGeksDeterminism:
    def test_repeated_evaluation_identical(self):
        ds = random_market(5, periods=4, items=8, churn=0.25)
        spec = ComparisonSpec(0, 3, FullHistory())
        first = geks_index(ds, spec)
        second = geks_index(ds, spec)
        assert first.value == second.value
        assert dict(first.series) == dict(second.series)


class TestTornqvistSymmetry:
    def test_reference_prices_cancel(self):
        # any constant reference price map gives the same weighted mean
        from dynindex import CustomPrices, TornqvistWeights

        ds = random_market(8, periods=2, items=6, churn=0.0)
        torn = tornqvist_index(ds, BILATERAL).value
        custom = wgm_index(
            ds,
            BILATERAL,
            TornqvistWeights(),
            CustomPrices({i: 17.0 for i in ds.universe(0)}),
        ).value
        assert custom == pytest.approx(torn, rel=1e-12)


# Dataset.build inputs of finite floats of any sign: zeros, magnitudes of
# 1e±300 and empty periods drawn often.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300]),
)
_ANY_TABLE = st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.sampled_from("abcd"), st.tuples(_ANY_FLOAT, _ANY_FLOAT), max_size=4),
    min_size=2, max_size=3)
# Few of those keep the contract, so half the tables draw positive values
# into periods that are not empty, most of which keep it.
_TABLES = st.one_of(_ANY_TABLE, st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.sampled_from("abcd"),
                    st.tuples(POSITIVE_EDGE_FLOATS, POSITIVE_EDGE_FLOATS), min_size=1, max_size=4),
    min_size=2, max_size=3))


def _first_violation(data):
    """The input contract, stated over the raw table: the first violation in
    period order, then item order, or None."""
    for t in sorted(data):
        items = data[t]
        if not items:
            return f"period {t} has no items"
        for item, (price, quantity) in items.items():
            if price <= 0:
                return f"price of item {item!r} in period {t} is {price!r}"
            if quantity <= 0:
                return f"quantity of item {item!r} in period {t} is {quantity!r}"
        try:
            total = math.fsum(p * q for p, q in items.values())
        except OverflowError:
            total = math.inf
        if total == 0 or total == math.inf:
            return f"total expenditure of period {t} is {total!r}"
    return None


def _kept(violation, compute):
    """compute() gives positive, finite values or raises a PriceIndexError:
    the contract error, naming the violation, exactly when there is one."""
    try:
        values = compute()
    except InvalidDataError as error:
        assert str(error) == violation
        return
    except PriceIndexError:
        assert violation is None
        return
    assert violation is None
    assert all(0 < v < math.inf for v in values)


@given(_TABLES)
@settings(max_examples=150, deadline=None)
def test_engines_keep_the_input_contract(data):
    ds = Dataset.build(data)
    violation = _first_violation(data)
    periods = ds.period_indices()
    for a, base in enumerate(periods):
        for current in periods[a + 1:]:
            for policy in (Bilateral(), FullHistory(), RollingWindow(3)):
                spec = ComparisonSpec(base, current, policy)
                for engine in ENGINES.values():
                    _kept(violation, lambda: [evaluate(ds, spec, engine).value])
            _kept(violation, lambda: classical_indices(ds, base, current))
            _kept(violation, lambda: [adjusted_laspeyres(ds, base, current)])
