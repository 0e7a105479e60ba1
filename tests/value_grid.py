"""Write, or recompute, the grid of every engine's values on fixed data.

    python tests/value_grid.py            # rewrites tests/value_grid.json

Each cell is one engine on one comparison: every registered family plus
``geks(wgm)``, under Bilateral, FullHistory and RollingWindow(3), on every
period pair of three seeded churn markets (5 periods, 10 items, churn 0.3)
and of the positive, finite degenerate tables of ``helpers``. A cell holds
float.hex of the value, decomposition, series and components and the
fixed-point report's fields, or the error's type and message.

``tests/test_value_grid.py`` recomputes the grid and compares it with the
file, so a change that moves any value in its last bit, or changes an
error, fails Tier-1. Regenerating the file is a deliberate act: a change
that moves a cell says which cells moved and why.

``math.log`` and ``math.exp`` come from the platform's libm, whose last bit
can differ between builds, so the file pins the results of the Python
build it was written with (CPython 3.11.7, recorded in the file).
The package is imported from the ``src/`` next to this file. pytest does
not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dynindex import (  # noqa: E402
    Bilateral,
    ComparisonSpec,
    Dataset,
    EngineSpec,
    FullHistory,
    RollingWindow,
    evaluate,
)
from helpers import (  # noqa: E402
    DISJOINT_UNIVERSES,
    ENGINES,
    LEHR_PRICE_UNDERFLOW,
    OVERFLOWING_QUANTITY_INDEX,
    OVERFLOWING_QUANTITY_SUM,
    QUANTITY_INDEX_UNDERFLOW,
    WGM_INDEX_OVERFLOW,
    ZERO_PIVOT,
    random_market,
)

GRID_FILE = HERE / "value_grid.json"

POLICIES = {"bilateral": Bilateral(), "full-history": FullHistory(),
            "window-3": RollingWindow(3)}
TABLES = {
    "zero-pivot": ZERO_PIVOT,
    "quantity-index-underflow": QUANTITY_INDEX_UNDERFLOW,
    "lehr-price-underflow": LEHR_PRICE_UNDERFLOW,
    "wgm-index-overflow": WGM_INDEX_OVERFLOW,
    "overflowing-quantity-sum": OVERFLOWING_QUANTITY_SUM,
    "overflowing-quantity-index": OVERFLOWING_QUANTITY_INDEX,
    "disjoint-universes": DISJOINT_UNIVERSES,
}


def datasets() -> dict[str, Dataset]:
    markets = {f"market-{seed}": random_market(seed, periods=5, items=10, churn=0.3)
               for seed in range(3)}
    return {**markets, **{name: Dataset.build(table) for name, table in TABLES.items()}}


def _hex_map(values):
    return None if values is None else {str(k): v.hex() for k, v in values.items()}


def outcome(dataset: Dataset, spec: ComparisonSpec, engine: EngineSpec) -> list:
    """The cell: ["ok", value, decomposition, series, components, report] or
    ["error", type, message], its floats as float.hex."""
    try:
        result = evaluate(dataset, spec, engine)
    except Exception as error:
        return ["error", type(error).__name__, str(error)]
    report = result.diagnostics
    return [
        "ok",
        result.value.hex(),
        None if result.decomposition is None else [v.hex() for v in result.decomposition],
        _hex_map(result.series),
        _hex_map(result.components),
        None if report is None else [report.converged, report.iterations,
                                     report.final_residual.hex(), report.method],
    ]


def compute_grid() -> dict[str, list]:
    """Every cell, keyed "data/policy/base-current/engine", in a fixed order."""
    cells = {}
    for name, dataset in datasets().items():
        periods = dataset.period_indices()
        for policy_name, policy in POLICIES.items():
            for a, base in enumerate(periods):
                for current in periods[a + 1:]:
                    spec = ComparisonSpec(base, current, policy)
                    for label, engine in ENGINES.items():
                        cells[f"{name}/{policy_name}/{base}-{current}/{label}"] = outcome(
                            dataset, spec, engine)
    return cells


def write(path: Path = GRID_FILE) -> None:
    """One cell per line, so a regenerated file diffs cell by cell."""
    lines = [f"{json.dumps(key)}: {json.dumps(cell)}" for key, cell in compute_grid().items()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"python": ' + json.dumps(platform.python_version()) + ',\n"cells": {\n')
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")


def load(path: Path = GRID_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    write()
    print(f"wrote {GRID_FILE}")
