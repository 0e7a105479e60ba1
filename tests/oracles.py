"""Formula oracles: plain implementations written from the published formulas.

Each oracle reads a market as ``{period: {item: (price, quantity)}}`` of
plain floats and shares no code with ``dynindex``, so comparing the two
checks what an engine means, not only the bits it gave before. They are
slow on purpose: every sum is written out over the items it ranges over,
and nothing is cached.

Covered so far: bilateral MGK with Lehr (1885) unit values, GEKS over it
(Ivancic, Diewert & Fox 2011), WGM with Lehr prices and expenditure shares,
and TPD as a weighted least-squares time-product-dummy regression (Rao 2005;
de Haan & Krsinich 2014).
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


def _share(market, r, item):
    """The item's expenditure share in period r: p q over the period's total."""
    price, quantity = market[r][item]
    return price * quantity / math.fsum(p * q for p, q in market[r].values())


def lehr_wgm(market, base, current, policy):
    """The WGM index of current against base with Lehr prices and expenditure shares.

    Each item of either compared period is priced at its Lehr unit value
    over the reference periods of the policy (see reference_periods), and
    the index is exp(sum_i w_it log(p_it / p_i) - sum_i w_i0 log(p_i0 / p_i)),
    each sum over its own period's items, with w_it the item's share of
    its period's expenditure.
    """
    window = [market[r] for r in reference_periods(market, policy, base, current)]
    prices = {}
    for item in set(market[base]) | set(market[current]):
        present = [period[item] for period in window if item in period]
        prices[item] = (math.fsum(p * q for p, q in present)
                        / math.fsum(q for _, q in present))

    def mean_log(r):
        return math.fsum(_share(market, r, item) * math.log(p / prices[item])
                         for item, (p, _) in market[r].items())

    return math.exp(mean_log(current) - mean_log(base))


def _solve(matrix, rhs):
    """x with matrix x = rhs, by Gaussian elimination with partial pivoting."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def tpd(market, base, current, policy):
    """The TPD series of the comparison, keyed by reference period, 1 at the base.

    The weighted least-squares regression of log p_ir on a period dummy
    delta_r and an item dummy gamma_i over every observation of the
    reference periods, weighted by the item's expenditure share w_ir,
    with delta_base = 0: it minimizes sum w_ir (log p_ir - delta_r - gamma_i)^2.
    The series is exp(delta_r). Its normal equations, one per unknown, are
    solved jointly, not by eliminating the item dummies first.
    """
    periods = reference_periods(market, policy, base, current)
    items = sorted(set().union(*(market[r] for r in periods)))
    dummies = [("period", r) for r in periods if r != base] + [("item", i) for i in items]
    column = {dummy: k for k, dummy in enumerate(dummies)}
    observations = [(column.get(("period", r)), column[("item", i)], _share(market, r, i),
                     math.log(p))
                    for r in periods for i, (p, _) in market[r].items()]
    # X'WX and X'Wy, summed over the observations, each with a 1 in its
    # period's column (none for the base) and in its item's column
    terms = [[[] for _ in dummies] for _ in dummies]
    rhs_terms = [[] for _ in dummies]
    for period, item, weight, log_price in observations:
        ones = [item] if period is None else [period, item]
        for a in ones:
            rhs_terms[a].append(weight * log_price)
            for b in ones:
                terms[a][b].append(weight)
    delta = _solve([[math.fsum(entry) for entry in row] for row in terms],
                   [math.fsum(entry) for entry in rhs_terms])
    return {r: 1.0 if r == base else math.exp(delta[column[("period", r)]]) for r in periods}
