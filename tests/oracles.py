"""Formula oracles: plain implementations written from the published formulas.

Each oracle reads a market as ``{period: {item: (price, quantity)}}`` of
plain floats and shares no code with ``dynindex``, so comparing the two
checks what an engine means, not only the bits it gave before. They are
slow on purpose: every sum is written out over the items it ranges over,
and nothing is cached.

Covered so far: bilateral MGK with Lehr (1885) unit values, and GEKS over
it (Ivancic, Diewert & Fox 2011).
"""

import math


def lehr_mgk(market, s, t):
    """The MGK index of period t against period s.

    Each item of either period is priced at its Lehr unit value over the
    two periods, its expenditure there over its quantity there:
    p_i = sum_tau p_i,tau q_i,tau / sum_tau q_i,tau. The index is the
    value ratio over the quantity index at those prices,
    (sum_i p_it q_it / sum_i p_is q_is) / (sum_i p_i q_it / sum_i p_i q_is),
    each period summing over its own items.
    """
    compared = (market[s], market[t])
    prices = {}
    for item in set(market[s]) | set(market[t]):
        present = [period[item] for period in compared if item in period]
        prices[item] = (math.fsum(p * q for p, q in present)
                        / math.fsum(q for _, q in present))
    value_ratio = (math.fsum(p * q for p, q in market[t].values())
                   / math.fsum(p * q for p, q in market[s].values()))
    quantity_index = (math.fsum(prices[i] * q for i, (_, q) in market[t].items())
                      / math.fsum(prices[i] * q for i, (_, q) in market[s].items()))
    return value_ratio / quantity_index


def reference_periods(market, policy, base, current):
    """The periods a comparison of current against base may use.

    policy is "bilateral" (the two periods), "full" (base to current) or
    an int w, a rolling window of the last w periods ending at current,
    which must hold the base.
    """
    if policy == "bilateral":
        return [base, current]
    if policy == "full":
        return list(range(base, current + 1))
    start = max(min(market), current - policy + 1)
    assert start <= base, "the base lies outside the rolling window"
    return list(range(start, current + 1))


def geks(market, base, current, policy, bilateral=lehr_mgk):
    """The GEKS series of the comparison, keyed by period, 1 at the base.

    Each period r after the base in the comparison's reference periods
    gets the geometric mean, over the periods s of the window ending at r,
    of the chained bilateral indices P(base, s) * P(s, r), with
    P(s, s) = 1 (the disseminated convention: each entry is what would
    have been published at r). P(s, r) is evaluated directly in both
    directions, not inverted.
    """

    def leg(s, r):
        return 1.0 if s == r else bilateral(market, s, r)

    series = {base: 1.0}
    for r in reference_periods(market, policy, base, current):
        if r > base:
            window = reference_periods(market, policy, base, r)
            chained = [leg(base, s) * leg(s, r) for s in window]
            series[r] = math.prod(chained) ** (1 / len(window))
    return series
