"""Input generators of the benchmark, kept apart from ``dynindex.simulate``.

The workloads must not change when the program changes, so the churn
market and the CSV writer live here and use only the standard library.
Both are deterministic in the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path
from typing import Iterator

Period = dict[str, tuple[float, float]]

# Log-price trend per period shared by all items. A common trend makes the
# index series, and with it the fixed-point sweep count, depend little on
# the seed; item prices and quantities are stationary around it, so no
# handful of items comes to dominate the expenditure weights.
TREND = 0.01
PRICE_NOISE = 0.1
QUANTITY_NOISE = 0.2
DEMAND_ELASTICITY = 1.0
# Which items die in which period is part of the workload's shape, drawn
# from this fixed seed rather than the workload seed: the fixed-point
# engines' sweep count depends on the churn pattern more than on anything
# else, and a seed-dependent pattern moves the work per run by several
# sweeps in fifty.
CHURN_PATTERN_SEED = 0


def market_periods(seed: int, periods: int, items: int, churn: float) -> Iterator[tuple[int, Period]]:
    """Yield ``(period, {item: (price, quantity)})`` one period at a time.

    Every period holds ``items`` items. From period 1 on, exactly
    ``round(churn * items)`` items chosen at random die and as many new
    ones are born, so the window holds ``items + (periods - 1) * replaced``
    distinct items. The seed draws every price and quantity; the churn
    pattern is the same for every seed. Only the live items' parameters
    are kept in memory.
    """
    rng = random.Random(seed)
    pattern = random.Random(CHURN_PATTERN_SEED)
    live: dict[str, tuple[float, float]] = {}
    born = 0

    def birth() -> None:
        nonlocal born
        live[f"i{born:06d}"] = (rng.uniform(0.0, 2.0), rng.gauss(math.log(10.0), 0.5))
        born += 1

    for _ in range(items):
        birth()
    replaced = round(churn * items)
    for t in range(periods):
        if t:
            for name in pattern.sample(sorted(live), replaced):
                del live[name]
            for _ in range(replaced):
                birth()
        rows: Period = {}
        for name in sorted(live):
            level, log_quantity = live[name]
            shock = rng.gauss(0.0, PRICE_NOISE)
            rows[name] = (
                math.exp(TREND * t + level + shock),
                math.exp(log_quantity - DEMAND_ELASTICITY * shock + rng.gauss(0.0, QUANTITY_NOISE)),
            )
        yield t, rows


def churn_market(seed: int, periods: int, items: int, churn: float) -> dict[int, Period]:
    """The whole market as ``{period: {item: (price, quantity)}}``."""
    return dict(market_periods(seed, periods, items, churn))


def csv_lines(periods: Iterator[tuple[int, Period]]) -> Iterator[str]:
    """CSV text in the program's schema, items sorted per period by ``str(item)``.

    Floats are written with ``repr``, the way ``dynindex.format_csv`` writes
    them, so emitting the ingested file reproduces it byte for byte.
    """
    yield "period,item,price,quantity\n"
    for t, rows in periods:
        for item in sorted(rows, key=str):
            price, quantity = rows[item]
            yield f"{t},{item},{price!r},{quantity!r}\n"


def write_csv(path: Path, periods: Iterator[tuple[int, Period]]) -> int:
    """Stream the CSV to ``path``; returns the number of data rows."""
    rows = -1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in csv_lines(periods):
            handle.write(line)
            rows += 1
    return rows


def digest(periods: Iterator[tuple[int, Period]]) -> str:
    """SHA-256 of the CSV rendering: equal digests mean equal inputs."""
    sha = hashlib.sha256()
    for line in csv_lines(periods):
        sha.update(line.encode())
    return sha.hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes; equals ``digest`` of the periods it holds."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()
