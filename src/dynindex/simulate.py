"""Synthetic churn-market generation.

Produces datasets with configurable item replacement per period, a
geometric random walk on prices, optional deterministic lifecycle
decline, and a quantity model with noise and an own-price demand
response. Deterministic in the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import Dataset, Observation, PeriodData


@dataclass(frozen=True)
class SynthConfig:
    periods: int = 5
    initial_items: int = 20
    churn_rate: float = 0.2
    drift_mean: float = 0.0
    drift_sd: float = 0.1
    lifecycle_decline: float = 0.0
    quantity_scale: float = 10.0
    quantity_sd: float = 0.5
    demand_elasticity: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.periods < 1 or self.initial_items < 1:
            raise ValueError("periods and initial_items must be at least 1")
        if not 0 <= self.churn_rate < 1:
            raise ValueError(f"churn_rate must lie in [0, 1), got {self.churn_rate!r}")
        if self.drift_sd < 0 or self.quantity_sd < 0:
            raise ValueError("dispersions must be non-negative")


@dataclass(frozen=True)
class SynthResult:
    """Generated dataset plus realized summary statistics."""

    dataset: Dataset
    realized_churn: tuple[float, ...]
    mean_log_price_change: float


def synth(config: SynthConfig) -> SynthResult:
    """Generate a churn market; same config and seed give the same dataset."""
    rng = random.Random(config.seed)
    counter = 0

    def new_item(log_price: float) -> tuple[str, float, float]:
        nonlocal counter
        name = f"i{counter:04d}"
        counter += 1
        price = math.exp(log_price)
        quantity = config.quantity_scale * math.exp(rng.gauss(0.0, config.quantity_sd))
        return name, price, quantity

    items: dict[str, tuple[float, float]] = {}
    for _ in range(config.initial_items):
        name, price, quantity = new_item(rng.uniform(0.0, 2.0))
        items[name] = (price, quantity)

    periods = [PeriodData._owning(0, {i: Observation(p, q) for i, (p, q) in items.items()})]
    realized_churn = []
    survivor_changes = []

    for t in range(1, config.periods):
        n_replace = round(config.churn_rate * len(items))
        dead = set(rng.sample(sorted(items), n_replace)) if n_replace else set()
        realized_churn.append(n_replace / len(items))
        next_items: dict[str, tuple[float, float]] = {}
        for name in sorted(items):
            if name in dead:
                continue
            price, quantity = items[name]
            log_shock = rng.gauss(config.drift_mean, config.drift_sd) - config.lifecycle_decline
            new_price = price * math.exp(log_shock)
            new_quantity = (
                quantity
                * math.exp(rng.gauss(0.0, config.quantity_sd))
                * math.exp(-config.demand_elasticity * log_shock)
            )
            next_items[name] = (new_price, new_quantity)
            survivor_changes.append(log_shock)
        survivor_logs = [math.log(p) for p, _ in next_items.values()]
        entry_level = (
            math.fsum(survivor_logs) / len(survivor_logs) if survivor_logs else rng.uniform(0.0, 2.0)
        )
        for _ in range(n_replace):
            name, price, quantity = new_item(entry_level + rng.gauss(0.0, 0.5))
            next_items[name] = (price, quantity)
        items = next_items
        periods.append(PeriodData._owning(t, {i: Observation(p, q) for i, (p, q) in items.items()}))

    mean_change = (
        math.fsum(survivor_changes) / len(survivor_changes) if survivor_changes else 0.0
    )
    return SynthResult(Dataset(tuple(periods)), tuple(realized_churn), mean_change)
