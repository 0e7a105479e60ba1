"""Price-index computation for dynamic item universes.

Index engines (GK, MGK, GUV, WGM, Tornqvist, TPD, GEKS, RQ, RQP and the
classical fixed-universe trio), pluggable reference-price and
reference-quantity schemes with a fixed-point solver for the
index-coupled ones, an axiomatic test harness with randomized scenario
generation, synthetic churn-market data, and CSV tooling.
"""

from ._version import __version__
from .core import (
    Bilateral,
    ComparisonSpec,
    Dataset,
    FullHistory,
    InvalidComparisonError,
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
from .harness import (
    AxiomTest,
    Outcome,
    Scenario,
    ScenarioParams,
    Verdict,
    VerdictMatrix,
    check,
    closed_form_suite,
    find_counterexample,
    find_intransitivity_witness,
    generate_scenario,
    perturb_dynamic_data,
    precondition_holds,
    run_matrix,
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
from .simulate import SynthConfig, SynthResult, synth

__all__ = [name for name in dir() if not name.startswith("_")]
