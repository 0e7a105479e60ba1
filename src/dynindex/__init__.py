"""Price-index computation for dynamic item universes.

Index engines (GK, MGK, GUV, WGM, Tornqvist, TPD, GEKS, RQ, RQP and the
classical fixed-universe trio), pluggable reference-price and
reference-quantity schemes with a fixed-point solver for the
index-coupled ones, an axiomatic test harness with randomized scenario
generation, synthetic churn-market data, and CSV tooling.
"""

from importlib import import_module as _import_module

from ._version import __version__
from .core import (
    AxiomTest,
    Bilateral,
    ComparisonSpec,
    Dataset,
    FullHistory,
    InvalidComparisonError,
    InvalidDataError,
    ItemId,
    NumericalError,
    Observation,
    PeriodData,
    PriceIndexError,
    RollingWindow,
    UnknownPeriodError,
    Violation,
)
from .dataio import CsvError, IngestWarning, emit_csv, format_csv, ingest_csv, write_report
from .engines import (
    CustomWeights,
    EngineSpec,
    ExpenditureShare,
    ImputationPolicy,
    IndexResult,
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
from .references import (
    ArithmeticMeanQuantity,
    BaseQuantity,
    CurrentQuantity,
    CustomPrices,
    CustomQuantities,
    DeflatedUnitValue,
    ExpenditureOverReferencePrice,
    FixedBase,
    FixedPointConfig,
    FixedPointReport,
    LehrUnitValue,
    ReferenceData,
    SchemeError,
    TPDGeometric,
    reference_data,
    reference_prices,
    reference_quantities,
    solve_fixed_point,
)

# The test harness and the synthetic market are separate jobs from computing
# an index, so ``import dynindex`` does not load them: their public names,
# and the two modules themselves, are imported on first use.
_LAZY = {
    "harness": (
        "Outcome", "Scenario", "ScenarioParams", "Verdict", "VerdictMatrix", "check",
        "closed_form_suite", "find_counterexample", "find_intransitivity_witness",
        "generate_scenario", "perturb_dynamic_data", "precondition_holds", "run_matrix",
    ),
    "simulate": ("SynthConfig", "SynthResult", "synth"),
}
_LAZY_HOMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_LAZY_HOMES]
)


def __getattr__(name: str) -> object:
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    module = _LAZY_HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
