"""Shared dataset builders for the test suite."""

from __future__ import annotations

import math
import random
import sys

from hypothesis import strategies as st

from dynindex import Dataset, EngineSpec, PeriodData, SynthConfig, synth
from dynindex.engines import ENGINE_FAMILIES

# Every registered family with its defaults, plus GEKS over WGM legs.
ENGINES = {**{family: EngineSpec(family) for family in ENGINE_FAMILIES},
           "geks(wgm)": EngineSpec("geks", inner=EngineSpec("wgm"))}

SMALL_FIXED = {
    0: {"A": (1.0, 1.0), "B": (1.0, 1.0)},
    1: {"A": (2.0, 1.0), "B": (1.0, 1.0)},
}
SMALL_DYN = {
    0: {"A": (1.0, 1.0), "B": (2.0, 1.0)},
    1: {"A": (1.2, 1.0), "C": (3.0, 1.0)},
}

# Positive and finite, but spanning so many orders of magnitude that
# eliminating the GK and TPD link systems of FullHistory 0 -> 2 rounds a
# pivot to zero.
ZERO_PIVOT = {
    0: {"i0": (2e35, 2e12), "i2": (1e14, 3e120), "i3": (6e8, 9e108), "i4": (2e77, 6e8)},
    1: {"i0": (7e66, 3e93), "i4": (3e53, 8e82)},
    2: {"i0": (2e158, 9e43), "i1": (1e50, 6e40), "i3": (6e81, 2e67), "i4": (5e48, 5e138)},
}

# Positive, finite data on which a quotient, a log or an exp leaves the float range.
QUANTITY_INDEX_UNDERFLOW = {0: {"a": (1e-200, 1), "b": (1e200, 1)}, 1: {"a": (1e-200, 1)}}
LEHR_PRICE_UNDERFLOW = {0: {"a": (1e-200, 1e-200), "b": (1, 1)}, 1: {"b": (1, 1)}}
WGM_INDEX_OVERFLOW = {0: {"i0": (4.3276978235882203e-274, 1.603698683294405e+282)},
                      1: {"i0": (1.851300659041873e+195, 3.0420246316116697e-274)}}
# a's quantities are finite, their sum is not
OVERFLOWING_QUANTITY_SUM = {t: {"a": (1e-300, sys.float_info.max), "b": (1, 1)} for t in range(2)}
# both totals are 1e308, but period 1's quantities at the unit values sum
# past the float range
OVERFLOWING_QUANTITY_INDEX = {0: {"a": (0.5e308, 1.0), "b": (0.5e308, 1.0)},
                              1: {"a": (0.5e8, 1e300), "b": (0.5e8, 1e300)}}
DISJOINT_UNIVERSES = {0: {"A": (1, 2)}, 1: {"B": (3, 4)}}

# Positive finite floats, the prices and quantities the input contract
# admits. Most lie in [1e-150, 1e150], where products and short sums stay
# in the float range; one in eight is an edge, where they leave it, so
# that most drawn tables keep the contract and the rest break it at a total.
POSITIVE_EDGE_FLOATS = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from([5e-324, sys.float_info.min, 1e-200, 1.0, 1e200, sys.float_info.max])
    if k == 0 else st.floats(min_value=1e-150, max_value=1e150))


def small_fixed() -> Dataset:
    return Dataset.build(SMALL_FIXED)


def small_dyn() -> Dataset:
    return Dataset.build(SMALL_DYN)


def random_market(
    seed: int,
    periods: int = 2,
    items: int = 8,
    churn: float = 0.25,
    drift_sd: float = 0.3,
    quantity_sd: float = 0.8,
    elasticity: float = 1.0,
) -> Dataset:
    return synth(
        SynthConfig(
            periods=periods,
            initial_items=items,
            churn_rate=churn,
            drift_sd=drift_sd,
            quantity_sd=quantity_sd,
            demand_elasticity=elasticity,
            seed=seed,
        )
    ).dataset


def fixed_market(seed: int, periods: int = 2, items: int = 8) -> Dataset:
    return random_market(seed, periods=periods, items=items, churn=0.0)


def desk_scale_market(seed: int) -> Dataset:
    """Random dataset up to 50 items and 12 periods."""
    rng = random.Random(seed)
    return random_market(
        seed,
        periods=rng.randint(2, 12),
        items=rng.randint(3, 50),
        churn=rng.uniform(0.0, 0.4),
        elasticity=rng.uniform(0.0, 2.0),
    )


def swapped(dataset: Dataset, a: int = 0, b: int = 1) -> Dataset:
    """Exchange the data of two periods (time reversal for a bilateral pair)."""
    pa = dict(dataset.period_data(a).items)
    pb = dict(dataset.period_data(b).items)
    replaced = []
    for pd in dataset.periods:
        if pd.period == a:
            replaced.append(PeriodData(a, pb))
        elif pd.period == b:
            replaced.append(PeriodData(b, pa))
        else:
            replaced.append(pd)
    return Dataset(tuple(replaced))


def relabeled(dataset: Dataset, prefix: str = "relabeled::") -> Dataset:
    return Dataset(
        tuple(
            PeriodData(pd.period, {f"{prefix}{item}": obs for item, obs in pd.items.items()})
            for pd in dataset.periods
        )
    )


def scaled(dataset: Dataset, price_factor: float = 1.0, quantity_factor: float = 1.0) -> Dataset:
    return Dataset.build(
        {
            pd.period: {
                item: (obs.price * price_factor, obs.quantity * quantity_factor)
                for item, obs in pd.items.items()
            }
            for pd in dataset.periods
        }
    )


def presence_mgk(dataset: Dataset, base: int = 0, current: int = 1) -> float:
    """Bilateral MGK on unit-quantity data, from raw price sums.

    With A/B the persistent items' base/current price totals and C/D the
    born/dead items' price totals, the Lehr reference prices give the
    quantity index (A+B+2C)/(A+B+2D), so MGK = V (A+B+2D)/(A+B+2C).
    """
    u0, ut = dataset.universe(base), dataset.universe(current)

    def total(t: int, items: frozenset) -> float:
        observations = [dataset.observation(t, i) for i in items]
        assert all(o.quantity == 1.0 for o in observations), "needs unit quantities"
        return math.fsum(o.price for o in observations)

    a, b = total(base, u0 & ut), total(current, u0 & ut)
    c, d = total(current, ut - u0), total(base, u0 - ut)
    return (b + c) / (a + d) * (a + b + 2 * d) / (a + b + 2 * c)


def raw_reference_values(
    dataset: Dataset,
    periods: tuple[int, ...],
    base: int,
    current: int,
    item,
    series: dict[int, float],
) -> dict[str, float | None]:
    """Every built-in scheme's reference value for one item, from raw sums.

    Reads each reference period's observation of the item directly; the
    deflated and TPD prices deflate by ``series``. Keys: lehr, deflated,
    tpd, fixed-base (prices); mean, expenditure (over the Lehr price),
    base, current (quantities; None where the item is absent).
    """
    present = [r for r in periods if item in dataset.period_data(r).items]
    obs = {r: dataset.observation(r, item) for r in present}
    quantity = math.fsum(obs[r].quantity for r in present)
    expenditure = math.fsum(obs[r].price * obs[r].quantity for r in present)
    totals = {r: math.fsum(o.price * o.quantity for o in dataset.period_data(r).items.values())
              for r in present}
    shares = {r: obs[r].price * obs[r].quantity / totals[r] for r in present}
    share_sum = math.fsum(shares.values())
    lehr = expenditure / quantity
    fixed = obs.get(base, obs.get(current))
    return {
        "lehr": lehr,
        "deflated": math.fsum(obs[r].price / series[r] * obs[r].quantity for r in present)
        / quantity,
        "tpd": math.prod((obs[r].price / series[r]) ** (shares[r] / share_sum) for r in present),
        "fixed-base": fixed.price if fixed is not None else None,
        "mean": quantity / len(present),
        "expenditure": expenditure / len(present) / lehr,
        "base": obs[base].quantity if base in obs else None,
        "current": obs[current].quantity if current in obs else None,
    }


def raw_mgk(dataset: Dataset, base: int, current: int) -> float:
    """Bilateral MGK from raw sums: the value ratio over the quantity index
    priced at each item's Lehr unit value over the two periods."""
    items = dataset.universe(base) | dataset.universe(current)
    series = {base: 1.0, current: 1.0}
    lehr = {i: raw_reference_values(dataset, (base, current), base, current, i, series)["lehr"]
            for i in items}

    def totals(t: int) -> tuple[float, float]:
        observations = dataset.period_data(t).items
        return (math.fsum(o.price * o.quantity for o in observations.values()),
                math.fsum(lehr[i] * o.quantity for i, o in observations.items()))

    (e0, v0), (e1, v1) = totals(base), totals(current)
    return (e1 / e0) / (v1 / v0)
