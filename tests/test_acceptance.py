"""Acceptance suite: every sign-off criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion check. Tolerances are pinned here and nowhere else.
"""

import math
import time

import pytest

from dynindex import (
    ArithmeticMeanQuantity,
    AxiomTest,
    BaseQuantity,
    Bilateral,
    ComparisonSpec,
    EngineSpec,
    ExpenditureShare,
    FixedBase,
    FixedPointConfig,
    FullHistory,
    ImputationPolicy,
    LehrUnitValue,
    ScenarioParams,
    TornqvistWeights,
    check,
    classical_indices,
    closed_form_suite,
    evaluate,
    find_intransitivity_witness,
    generate_scenario,
    gk_index,
    guv_index,
    mgk_index,
    rq_index,
    rqp_index,
    run_matrix,
    tpd_index,
    wgm_index,
)
from dynindex.engines import _guv_index_at, _wgm_index_at
from dynindex.harness import derive_seed
from dynindex.references import (
    DeflatedUnitValue,
    TPDGeometric,
    reference_data,
    reference_prices,
)
from helpers import desk_scale_market, fixed_market, random_market, relabeled, scaled, swapped

BILATERAL = ComparisonSpec(0, 1, Bilateral())


def _line(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# Criterion 1: the expected verdict summary, 200 trials, under a minute


def test_criterion_1_summary_matrix():
    start = time.perf_counter()
    matrix = run_matrix(trials=200, seed=0, tolerance=1e-9)
    elapsed = time.perf_counter() - start
    mismatches = matrix.mismatches()
    ok = not mismatches and elapsed < 60.0
    _line("1 summary matrix (200 trials)", ok, f"({elapsed:.1f}s)")
    assert mismatches == []
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 2: closed forms within 1e-9


@pytest.fixture(scope="module")
def closed_forms():
    return {v.test: v for v in closed_form_suite(seed=0, tolerance=1e-9)}


@pytest.mark.parametrize(
    "name",
    [
        "gk-rental-persistent-value-ratio",
        "mgk-rental-sqrt-value-ratio",
        "adjusted-laspeyres-sqrt",
        "geks-two-period-window-is-bilateral",
        "geks-three-period-window-formula",
    ],
)
def test_criterion_2_closed_forms(name, closed_forms):
    verdict = closed_forms[name]
    _line(f"2 closed form {name}", verdict.passed,
          f"(log gap {verdict.witness['log_gap']:.2e})")
    assert verdict.passed, dict(verdict.witness)


# ---------------------------------------------------------------------------
# Criterion 3: chaining discrepancy witness within 100 datasets


def test_criterion_3_geks_intransitivity():
    witness = find_intransitivity_witness(
        budget=100, seed=0, n_items=6, churn_rate=0.2, threshold=1e-6
    )
    ok = witness is not None and witness["gap"] > 1e-6
    _line("3 geks intransitivity witness", ok,
          f"(gap {witness['gap']:.2e})" if witness else "(not found)")
    assert witness is not None
    assert witness["gap"] > 1e-6


# ---------------------------------------------------------------------------
# Criterion 4: imputed reference-quantity index, and the Fisher mixture


RQ_ENGINE = EngineSpec(
    "rq",
    reference_quantity=ArithmeticMeanQuantity(),
    imputation=ImputationPolicy(birth_markup=1.05, death_markup=1.05),
)

_RQ_BATCHES = [
    ("T1", AxiomTest.T1_IDENTITY, ScenarioParams(n_periods=2)),
    ("T2-bilateral", AxiomTest.T2_FIXED_BASKET, ScenarioParams(n_periods=2)),
    ("T3", AxiomTest.T3_UPPER_BOUND, ScenarioParams(n_periods=2)),
    ("T4", AxiomTest.T4_LOWER_BOUND, ScenarioParams(n_periods=2)),
    ("t3", AxiomTest.T3_SHARP, ScenarioParams(n_periods=2)),
    ("t4", AxiomTest.T4_SHARP, ScenarioParams(n_periods=2)),
    ("t5-expanding", AxiomTest.T5_SHARP, ScenarioParams(n_periods=2, setting="expanding")),
    ("t5-shrinking", AxiomTest.T5_SHARP, ScenarioParams(n_periods=2, setting="shrinking")),
]


@pytest.mark.parametrize("label,test,params", _RQ_BATCHES, ids=[b[0] for b in _RQ_BATCHES])
def test_criterion_4_imputed_rq_batches(label, test, params):
    failures = []
    for trial in range(200):
        scenario = generate_scenario(test, derive_seed("acceptance-rq", label, trial), params)
        verdict = check(test, RQ_ENGINE, scenario, tolerance=1e-9)
        if not verdict.passed:
            failures.append((trial, dict(verdict.witness)))
    _line(f"4 imputed rq {label} (200 trials)", not failures)
    assert failures == []


def test_criterion_4_rqp_generalises_fisher():
    worst = 0.0
    for k in range(100):
        ds = fixed_market(derive_seed("acceptance-fisher", k), periods=2, items=8)
        mixture = rqp_index(ds, BILATERAL, 0.5, BaseQuantity(), None, FixedBase()).value
        _, _, fisher = classical_indices(ds, 0, 1)
        worst = max(worst, abs(mixture - fisher) / fisher)
    ok = worst <= 1e-12
    _line("4 rqp alpha=0.5 equals fisher (100 datasets)", ok, f"(worst rel {worst:.2e})")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 5: property suites


def test_criterion_5_time_reversal():
    worst = 0.0
    engines = [
        ("mgk", lambda d: mgk_index(d, BILATERAL).value),
        ("guv-lehr", lambda d: guv_index(d, BILATERAL, LehrUnitValue()).value),
        ("wgm", lambda d: wgm_index(d, BILATERAL, ExpenditureShare(), LehrUnitValue()).value),
    ]
    for k in range(500):
        ds = random_market(derive_seed("acceptance-reversal", k), periods=2, items=6, churn=0.3)
        reversed_ds = swapped(ds)
        for _, fn in engines:
            worst = max(worst, abs(fn(ds) * fn(reversed_ds) - 1.0))
    ok = worst <= 1e-10
    _line("5 time reversal (500 datasets x 3 engines)", ok, f"(worst {worst:.2e})")
    assert worst <= 1e-10


def test_criterion_5_value_ratio_decomposition():
    worst = 0.0
    for k in range(200):
        ds = random_market(derive_seed("acceptance-decomp", k), periods=2, items=6, churn=0.3)
        ratio = ds.value_ratio(0, 1)
        for result in (
            mgk_index(ds, BILATERAL),
            gk_index(ds, BILATERAL),
            guv_index(ds, BILATERAL, FixedBase()),
        ):
            value_ratio, quantity = result.decomposition
            worst = max(worst, abs(result.value * quantity - ratio) / ratio)
    ok = worst <= 1e-12
    _line("5 value-ratio decomposition (200 datasets)", ok, f"(worst rel {worst:.2e})")
    assert worst <= 1e-12


def test_criterion_5_scale_equivariance():
    worst = 0.0
    engines = [
        EngineSpec("mgk"),
        EngineSpec("gk"),
        EngineSpec("guv", reference_price=LehrUnitValue()),
        EngineSpec("wgm"),
        EngineSpec("tpd"),
        EngineSpec("geks"),
    ]
    for k in range(100):
        ds = random_market(derive_seed("acceptance-scale", k), periods=3, items=6, churn=0.25)
        spec = ComparisonSpec(0, 2, FullHistory())
        for engine in engines:
            base = evaluate(ds, spec, engine).value
            for variant in (
                scaled(ds, price_factor=3.7),
                scaled(ds, quantity_factor=0.23),
            ):
                worst = max(
                    worst, abs(math.log(evaluate(variant, spec, engine).value / base))
                )
    ok = worst <= 1e-10
    _line("5 scale equivariance (100 datasets x 6 engines)", ok, f"(worst log {worst:.2e})")
    assert worst <= 1e-10


def test_criterion_5_relabeling_invariance():
    engines = [
        EngineSpec("mgk"),
        EngineSpec("gk"),
        EngineSpec("wgm"),
        EngineSpec("tpd"),
        EngineSpec("geks"),
        EngineSpec("rq"),
        EngineSpec("rqp"),
    ]
    mismatches = 0
    for k in range(100):
        ds = random_market(derive_seed("acceptance-relabel", k), periods=3, items=6, churn=0.25)
        spec = ComparisonSpec(0, 2, FullHistory())
        renamed = relabeled(ds)
        for engine in engines:
            if evaluate(ds, spec, engine).value != evaluate(renamed, spec, engine).value:
                mismatches += 1
    _line("5 relabeling invariance (100 datasets x 7 engines)", mismatches == 0)
    assert mismatches == 0


def test_criterion_5_fixed_point_convergence_and_idempotence():
    config = FixedPointConfig(tolerance=1e-10, max_iterations=20000)
    non_converged = []
    worst_residual = 0.0
    worst_reapplication = 0.0
    for k in range(500):
        ds = desk_scale_market(derive_seed("acceptance-fixed-point", k))
        spec = ComparisonSpec(ds.first_period, ds.last_period, FullHistory())
        data = reference_data(ds, spec)
        for name, solve, scheme, index_at in (
            ("gk", gk_index, DeflatedUnitValue(), _guv_index_at(ds, spec, data)),
            ("tpd", tpd_index, TPDGeometric(), _wgm_index_at(data, ExpenditureShare())),
        ):
            result = solve(ds, spec, config)
            if not result.diagnostics.converged:
                non_converged.append((k, name))
                continue
            worst_residual = max(worst_residual, result.diagnostics.final_residual)
            prices = reference_prices(data, scheme, result.series)
            candidate = {r: index_at(pos, prices) if pos != data.base else 1.0
                         for pos, r in enumerate(data.periods)}
            gap = max(
                abs(math.log(candidate[r]) - math.log(result.series[r])) for r in data.periods
            )
            worst_reapplication = max(worst_reapplication, gap)
    ok = not non_converged and worst_residual <= 1e-10 and worst_reapplication <= 1e-10
    _line(
        "5 fixed-point convergence + idempotence (500 desk-scale datasets x 2 engines)",
        ok,
        f"(non-converged {len(non_converged)}, worst residual {worst_residual:.2e}, "
        f"worst re-application {worst_reapplication:.2e})",
    )
    assert non_converged == []
    assert worst_residual <= 1e-10
    assert worst_reapplication <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 6: fixed-universe reductions on 100 random datasets


def _independent_tornqvist(ds) -> float:
    universe = ds.universe(0)
    total0 = math.fsum(ds.observation(0, i).expenditure for i in universe)
    total1 = math.fsum(ds.observation(1, i).expenditure for i in universe)
    log_terms = []
    for i in universe:
        share0 = ds.observation(0, i).expenditure / total0
        share1 = ds.observation(1, i).expenditure / total1
        weight = 0.5 * (share0 + share1)
        log_terms.append(
            weight * math.log(ds.observation(1, i).price / ds.observation(0, i).price)
        )
    return math.exp(math.fsum(log_terms))


def test_criterion_6_fixed_universe_reductions():
    worst_tornqvist = worst_laspeyres = worst_paasche = 0.0
    for k in range(100):
        ds = fixed_market(derive_seed("acceptance-reduction", k), periods=2, items=8)
        laspeyres, paasche, _ = classical_indices(ds, 0, 1)
        via_wgm = wgm_index(ds, BILATERAL, TornqvistWeights(), LehrUnitValue()).value
        worst_tornqvist = max(
            worst_tornqvist, abs(via_wgm - _independent_tornqvist(ds)) / via_wgm
        )
        via_rq = rq_index(ds, BILATERAL, BaseQuantity()).value
        worst_laspeyres = max(worst_laspeyres, abs(via_rq - laspeyres) / laspeyres)
        via_guv = guv_index(ds, BILATERAL, FixedBase()).value
        worst_paasche = max(worst_paasche, abs(via_guv - paasche) / paasche)
    ok = max(worst_tornqvist, worst_laspeyres, worst_paasche) <= 1e-12
    _line(
        "6 fixed-universe reductions (100 datasets)",
        ok,
        f"(tornqvist {worst_tornqvist:.2e}, laspeyres {worst_laspeyres:.2e}, "
        f"paasche {worst_paasche:.2e})",
    )
    assert worst_tornqvist <= 1e-12
    assert worst_laspeyres <= 1e-12
    assert worst_paasche <= 1e-12
