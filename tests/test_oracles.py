"""The engines against the formula oracles of oracles.py, at |delta log| <= 1e-12."""

import math

import pytest

from dynindex import Bilateral, ComparisonSpec, Dataset, EngineSpec, FullHistory, RollingWindow
from dynindex import evaluate, geks_index
from helpers import random_market
import oracles

TOLERANCE = 1e-12
# each policy as dynindex spells it and as the oracle does
POLICIES = {"bilateral": (Bilateral(), "bilateral"), "full": (FullHistory(), "full"),
            "rolling-3": (RollingWindow(3), 3)}


def _market(dataset):
    """The dataset's observations as plain floats."""
    return {pd.period: {i: (o.price, o.quantity) for i, o in pd.items.items()}
            for pd in dataset.periods}


def _assert_series_close(series, expected):
    assert series.keys() == expected.keys()
    for r, value in series.items():
        assert abs(math.log(value) - math.log(expected[r])) <= TOLERANCE, (r, value, expected[r])


def _comparisons(periods, policy):
    """Every comparison of a later period against an earlier one the policy allows."""
    return [(base, current) for current in range(1, periods) for base in range(current)
            if not isinstance(policy, int) or current - base < policy]


@pytest.mark.parametrize("seed", range(3))
def test_lehr_mgk_legs(seed):
    dataset = random_market(seed, periods=5, items=12, churn=0.4)
    market = _market(dataset)
    for s in range(5):
        for t in range(s + 1, 5):
            log_value = math.log(evaluate(dataset, ComparisonSpec(s, t), EngineSpec("mgk")).value)
            # the oracle prices the reverse direction afresh: MGK is time-reversible
            assert abs(log_value - math.log(oracles.lehr_mgk(market, s, t))) <= TOLERANCE
            assert abs(log_value + math.log(oracles.lehr_mgk(market, t, s))) <= TOLERANCE


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(3))
def test_geks_every_comparison_twice(seed, policy):
    """Every comparison on one dataset, twice: the second pass takes the kept legs."""
    dataset = random_market(seed, periods=6, items=12, churn=0.3)
    market, (spec_policy, oracle_policy) = _market(dataset), POLICIES[policy]
    comparisons = _comparisons(6, oracle_policy)
    for _ in range(2):
        for base, current in comparisons:
            _assert_series_close(
                geks_index(dataset, ComparisonSpec(base, current, spec_policy)).series,
                oracles.geks(market, base, current, oracle_policy))


@pytest.mark.parametrize("seed", range(2))
def test_geks_production_sequences(seed):
    """An expanding full-history sequence and a RollingWindow(3) one, on one dataset."""
    dataset = random_market(seed + 10, periods=9, items=15, churn=0.2)
    market = _market(dataset)
    for current in range(2, 9):
        _assert_series_close(geks_index(dataset, ComparisonSpec(0, current, FullHistory())).series,
                             oracles.geks(market, 0, current, "full"))
    for current in range(2, 9):
        spec = ComparisonSpec(current - 2, current, RollingWindow(3))
        _assert_series_close(geks_index(dataset, spec).series,
                             oracles.geks(market, current - 2, current, 3))


# engines run on a dataset before tpd and wgm, so that these read what they left behind
OTHER_ENGINES = [EngineSpec(family) for family in ("gk", "mgk", "rq", "rqp", "geks")]


def _assert_tpd_and_wgm_match(dataset, spec_policy, expected):
    for (base, current), (wgm, tpd) in expected.items():
        spec = ComparisonSpec(base, current, spec_policy)
        value = evaluate(dataset, spec, EngineSpec("wgm")).value
        assert abs(math.log(value) - math.log(wgm)) <= TOLERANCE, (base, current, value, wgm)
        _assert_series_close(evaluate(dataset, spec, EngineSpec("tpd")).series, tpd)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(3))
def test_tpd_and_wgm(seed, policy):
    """Fresh, then warm on one dataset; and on a fresh one after the other engines."""
    dataset = random_market(seed + 20, periods=5, items=8, churn=0.3)
    market, (spec_policy, oracle_policy) = _market(dataset), POLICIES[policy]
    expected = {(base, current): (oracles.lehr_wgm(market, base, current, oracle_policy),
                                  oracles.tpd(market, base, current, oracle_policy))
                for base, current in _comparisons(5, oracle_policy)}
    for _ in range(2):
        _assert_tpd_and_wgm_match(dataset, spec_policy, expected)
    dataset = Dataset.build(market)
    for base, current in expected:
        for engine in OTHER_ENGINES:
            evaluate(dataset, ComparisonSpec(base, current, spec_policy), engine)
    _assert_tpd_and_wgm_match(dataset, spec_policy, expected)


def test_oracle_reads_plain_floats():
    """The oracle needs no dynindex object: a hand-worked three-period chain."""
    market = {0: {"a": (1.0, 1.0), "b": (2.0, 3.0)}, 1: {"a": (1.4, 2.0), "b": (1.9, 1.0)},
              2: {"a": (1.7, 1.0), "c": (2.4, 2.0)}}
    # a is priced at (1 + 2.8) / 3 over periods 0 and 1, b at (6 + 1.9) / 4
    p01 = (4.7 / 7.0) / ((3.8 / 3 * 2 + 7.9 / 4) / (3.8 / 3 + 7.9 / 4 * 3))
    assert oracles.lehr_mgk(market, 0, 1) == pytest.approx(p01, rel=1e-15)
    series = oracles.geks(market, 0, 2, "full")
    p02, p12 = oracles.lehr_mgk(market, 0, 2), oracles.lehr_mgk(market, 1, 2)
    assert series[2] == pytest.approx((p02 ** 2 * p01 * p12) ** (1 / 3), rel=1e-14)
    _assert_series_close(geks_index(Dataset.build(market),
                                    ComparisonSpec(0, 2, FullHistory())).series, series)
