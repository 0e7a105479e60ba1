"""Axiomatic test harness for dynamic-universe price indices.

Five tests and their sharper variants, each backed by a randomized
scenario generator that constructs datasets provably satisfying the
test's precondition, an independent precondition checker, and a verdict
predicate. A verdict matrix aggregates outcomes over many trials into
the familiar yes/no summary; counterexample search and a closed-form
suite round out the tooling.

Equality-style conclusions are judged on the log scale: identity asks
|log P| <= tol, the fixed-basket test |log(P/V)| <= tol, and the bound
tests log P <= tol (resp. >= -tol). Responsiveness is existential and
can only ever be refuted by a batch: the engine fails if the index never
moves while the birth and death data are perturbed, and a moving index
is reported as "no reduction detected" rather than proof of compliance.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from . import _workers
from .core import (
    AxiomTest,
    Bilateral,
    ComparisonSpec,
    Dataset,
    FullHistory,
    Observation,
    PeriodData,
    PriceIndexError,
    ReferencePolicy,
)
from .engines import (
    ENGINE_FAMILIES,
    TABLE1_ROWS,
    EngineSpec,
    IndexResult,
    adjusted_laspeyres,
    classical_indices,
    evaluate,
    geks_index,
    gk_index,
    mgk_index,
)
from .references import FixedPointConfig, require_tolerance
from .simulate import SynthConfig, synth


_RESPONSIVENESS_TESTS = (AxiomTest.T5_RESPONSIVENESS, AxiomTest.T5_SHARP)


class Outcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    ENGINE_ERROR = "engine-error"


def derive_seed(*parts: object) -> int:
    """Stable sub-seed derivation, independent of hash randomization."""
    key = "/".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs of the scenario generator.

    Intermediate periods get price shocks of up to middle_volatility in
    log space with quantities responding at -quantity_elasticity; final
    period price trends for the bound tests are drawn per item from
    [decline_low, 1] resp. [1, rise_high] times the base price. setting
    picks the churn direction for the responsiveness tests.
    """

    n_items: int = 6
    n_periods: int = 3
    churn_fraction: float = 0.3
    price_log_range: tuple[float, float] = (0.0, 2.0)
    quantity_log_range: tuple[float, float] = (0.0, 4.0)
    middle_volatility: float = 2.0
    quantity_elasticity: float = 1.5
    decline_low: float = 0.5
    rise_high: float = 2.0
    setting: str = "both"
    policy: ReferencePolicy = field(default_factory=Bilateral)
    unit_quantities: bool = False

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.n_periods < 2:
            raise ValueError("need at least one item and two periods")
        if self.setting not in ("expanding", "shrinking", "both"):
            raise ValueError(f"unknown setting {self.setting!r}")


@dataclass(frozen=True)
class Scenario:
    dataset: Dataset
    spec: ComparisonSpec
    test: AxiomTest
    seed: int
    metadata: Mapping[str, object]
    params: ScenarioParams


class InfeasibleParams(PriceIndexError):
    """The requested scenario cannot be built from these parameters."""


def generate_scenario(
    test: AxiomTest, seed: int, params: ScenarioParams | None = None
) -> Scenario:
    """Build a dataset meeting the test's precondition, deterministically in seed.

    The construction is double-checked against the independent
    precondition checker before the scenario is returned.
    """
    return _draw_scenario(random.Random(), test, seed, params)


def _draw_scenario(rng: random.Random, test: AxiomTest, seed: int,
                   params: ScenarioParams | None) -> Scenario:
    """generate_scenario, drawn from rng reseeded to the scenario's seed.

    Each draw is random.uniform's own expression, a + (b - a) * random().
    """
    p = params if params is not None else ScenarioParams()
    rng.seed(derive_seed(seed, test.value, "scenario"))
    (price_lo, price_hi), (quantity_lo, quantity_hi) = p.price_log_range, p.quantity_log_range

    def price() -> float:
        return math.exp(price_lo + (price_hi - price_lo) * rng.random())

    def quantity() -> float:
        if p.unit_quantities:
            return 1.0
        return math.exp(quantity_lo + (quantity_hi - quantity_lo) * rng.random())

    base_items = {f"i{k}": Observation(price(), quantity()) for k in range(p.n_items)}

    expanding = test in (AxiomTest.T3_UPPER_BOUND, AxiomTest.T3_SHARP) or (
        test in _RESPONSIVENESS_TESTS and p.setting in ("expanding", "both")
    )
    shrinking = test in (AxiomTest.T4_LOWER_BOUND, AxiomTest.T4_SHARP) or (
        test in _RESPONSIVENESS_TESTS and p.setting in ("shrinking", "both")
    )
    if shrinking and p.n_items < 2:
        raise InfeasibleParams("a shrinking universe needs at least two base items")

    churn = max(1, round(p.churn_fraction * p.n_items))
    final_items: dict[str, Observation] = {}
    survivors = sorted(base_items)
    if shrinking:
        survivors = survivors[: len(survivors) - min(churn, p.n_items - 1)]
    for k, name in enumerate(survivors):
        base = base_items[name]
        value = base.price
        if test == AxiomTest.T3_UPPER_BOUND:
            high = 0.95 if k == 0 else 1.0
            value *= p.decline_low + (high - p.decline_low) * rng.random()
        elif test == AxiomTest.T4_LOWER_BOUND:
            low = 1.05 if k == 0 else 1.0
            value *= low + (p.rise_high - low) * rng.random()
        elif test in (AxiomTest.T2_FIXED_BASKET, AxiomTest.T5_RESPONSIVENESS):
            value = price()
        drawn = quantity()  # drawn for every test, kept where the basket may change
        final_items[name] = Observation(
            value, base.quantity if test == AxiomTest.T2_FIXED_BASKET else drawn)
    if expanding:
        for j in range(churn):
            final_items[f"b{j}"] = Observation(price(), quantity())

    # Intermediate periods: churn plus elastic price and quantity shocks.
    current, shock_lo, shock_hi = p.n_periods - 1, -p.middle_volatility, p.middle_volatility
    periods = [PeriodData._owning(0, base_items)]
    for r in range(1, current):
        previous, evolved = periods[-1].items, {}
        names = sorted(previous)
        n_replace = min(round(p.churn_fraction * len(names)), len(names) - 1)
        dead = set(rng.sample(names, n_replace)) if n_replace else set()
        for name in names:
            if name in dead:
                continue
            obs = previous[name]
            shock = shock_lo + (shock_hi - shock_lo) * rng.random()
            noise = -0.3 + (0.3 - -0.3) * rng.random()
            evolved[name] = Observation(
                obs.price * math.exp(shock),
                obs.quantity * math.exp(-p.quantity_elasticity * shock + noise)
                if not p.unit_quantities
                else 1.0,
            )
        for j in range(n_replace):
            evolved[f"m{r}_{j}"] = Observation(price(), quantity())
        periods.append(PeriodData._owning(r, evolved))
    periods.append(PeriodData._owning(current, final_items))

    dataset = Dataset(tuple(periods))
    spec = ComparisonSpec(0, current, p.policy)
    scenario = Scenario(
        dataset=dataset,
        spec=spec,
        test=test,
        seed=seed,
        metadata={
            "churn_fraction": p.churn_fraction,
            "middle_volatility": p.middle_volatility,
            "quantity_elasticity": p.quantity_elasticity,
            "decline_low": p.decline_low,
            "rise_high": p.rise_high,
            "setting": p.setting,
            "births": len(final_items.keys() - base_items.keys()),
            "deaths": len(base_items.keys() - final_items.keys()),
        },
        params=p,
    )
    if not precondition_holds(test, dataset, spec):
        raise InfeasibleParams(
            f"generated dataset violates the {test.value} precondition (generator bug)"
        )
    return scenario


def precondition_holds(test: AxiomTest, dataset: Dataset, spec: ComparisonSpec) -> bool:
    """Re-derive the test's precondition from raw data, sharing no generator code."""
    base = dataset.period_data(spec.base).items
    current = dataset.period_data(spec.current).items
    u0, ut = base.keys(), current.keys()
    prices_equal = all(base[i].price == current[i].price for i in u0 & ut)
    if test == AxiomTest.T1_IDENTITY:
        return u0 == ut and prices_equal
    if test == AxiomTest.T2_FIXED_BASKET:
        return u0 == ut and all(base[i].quantity == current[i].quantity for i in u0)
    if test == AxiomTest.T3_UPPER_BOUND:
        return u0 <= ut and all(current[i].price <= base[i].price for i in u0)
    if test == AxiomTest.T4_LOWER_BOUND:
        return ut <= u0 and all(current[i].price >= base[i].price for i in ut)
    if test == AxiomTest.T3_SHARP:
        return u0 < ut and prices_equal
    if test == AxiomTest.T4_SHARP:
        return ut < u0 and prices_equal
    if test == AxiomTest.T5_RESPONSIVENESS:
        return u0 != ut
    if test == AxiomTest.T5_SHARP:
        return u0 != ut and prices_equal
    raise ValueError(f"unknown test {test!r}")  # pragma: no cover


def perturb_dynamic_data(scenario: Scenario, index: int) -> Dataset:
    """Redraw the data of birth and death items, leaving everything else fixed.

    Birth items get fresh current-period prices and quantities, death
    items fresh base-period ones; universes and the persistent data are
    untouched, so the scenario's precondition keeps holding for the
    sharp responsiveness test. Only the periods whose items are redrawn
    are rebuilt; every other period is the scenario's own object. Deaths
    are redrawn before births, each in the order of their str, so the
    draws follow period order. It is a batch of one of _perturbations.
    """
    return next(_perturbations(scenario, (index,)))


def _perturbations(scenario: Scenario, indices: Iterable[int]) -> Iterator[Dataset]:
    """perturb_dynamic_data(scenario, k) for each k of indices, in turn.

    Once per batch, the deaths and births are found and sorted; one
    generator is reseeded to derive_seed(scenario.seed, "perturb", k) for
    each. A draw is uniform(-1.0, 1.0)'s own expression, -1.0 + 2.0 * random().
    """
    dataset, unit_quantities = scenario.dataset, scenario.params.unit_quantities
    base, current = scenario.spec.base, scenario.spec.current
    ms, mt = dataset.period_data(base).items, dataset.period_data(current).items
    position = {pd.period: k for k, pd in enumerate(dataset.periods)}
    redrawn = [(position[period], period, own,
                [(item, own[item]) for item in sorted(own.keys() - other.keys(), key=str)])
               for period, own, other in ((base, ms, mt), (current, mt, ms))]
    redrawn = [entry for entry in redrawn if entry[3]]
    rng = random.Random()
    draw = rng.random
    for index in indices:
        rng.seed(derive_seed(scenario.seed, "perturb", index))
        periods = list(dataset.periods)
        for k, period, own, members in redrawn:
            items = own.copy()
            for item, obs in members:
                items[item] = Observation(
                    obs.price * math.exp(-1.0 + 2.0 * draw()),
                    obs.quantity * math.exp(-1.0 + 2.0 * draw())
                    if not unit_quantities
                    else obs.quantity,
                )
            periods[k] = PeriodData._owning(period, items)
        yield Dataset(tuple(periods))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one engine/test/scenario evaluation, with its witness."""

    test: str
    engine: str
    outcome: Outcome
    witness: Mapping[str, object]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.outcome is Outcome.PASS


def check(
    test: AxiomTest,
    engine: EngineSpec,
    scenario: Scenario,
    tolerance: float = 1e-9,
    responsiveness_batch: int = 20,
) -> Verdict:
    """Evaluate the engine on the scenario and judge the test's conclusion."""
    _require_check_args(tolerance, responsiveness_batch)

    def run(dataset: Dataset) -> IndexResult:
        result = evaluate(dataset, scenario.spec, engine)
        if result.diagnostics is not None and not result.diagnostics.converged:
            raise PriceIndexError(
                f"fixed point did not converge (residual {result.diagnostics.final_residual})"
            )
        return result

    label = engine.label()
    try:
        value = run(scenario.dataset).value
        log_value = math.log(value)
        batch = (_perturbations(scenario, range(responsiveness_batch))
                 if test in _RESPONSIVENESS_TESTS else ())
        movements = [abs(math.log(run(perturbed).value) - log_value) for perturbed in batch]
    except PriceIndexError as exc:
        return Verdict(test.value, label, Outcome.ENGINE_ERROR,
                       {"error": str(exc), "seed": scenario.seed}, tolerance)

    witness: dict[str, object] = {"value": value, "seed": scenario.seed}
    if test == AxiomTest.T1_IDENTITY:
        ok = abs(log_value) <= tolerance
    elif test == AxiomTest.T2_FIXED_BASKET:
        ratio = scenario.dataset.value_ratio(scenario.spec.base, scenario.spec.current)
        witness["value_ratio"] = ratio
        ok = abs(log_value - math.log(ratio)) <= tolerance
    elif test in (AxiomTest.T3_UPPER_BOUND, AxiomTest.T3_SHARP):
        ok = log_value <= tolerance
    elif test in (AxiomTest.T4_LOWER_BOUND, AxiomTest.T4_SHARP):
        ok = log_value >= -tolerance
    elif test in _RESPONSIVENESS_TESTS:
        witness["max_movement"] = max(movements)
        witness["batch"] = responsiveness_batch
        ok = max(movements) > tolerance
        if ok:
            witness["note"] = "no reduction detected"
        else:
            witness["note"] = "index pinned under perturbation of birth/death data"
    else:  # pragma: no cover
        raise ValueError(f"unknown test {test!r}")
    return Verdict(test.value, label, Outcome.PASS if ok else Outcome.FAIL, witness, tolerance)


def _require_check_args(tolerance: float, responsiveness_batch: int = 1) -> None:
    """Refuse a tolerance or responsiveness batch that check cannot judge with."""
    require_tolerance(tolerance)
    if responsiveness_batch < 1:
        raise ValueError(f"responsiveness_batch must be at least 1, got {responsiveness_batch}")


# ---------------------------------------------------------------------------
# Verdict matrix


_COLUMNS = ("Identity", "Fixed-basket", "Upper-bound", "Lower-bound", "Responsiveness")


@dataclass(frozen=True)
class MatrixCell:
    label: str
    passes: int
    failures: int
    errors: int
    witness: Mapping[str, object] | None


@dataclass(frozen=True)
class VerdictMatrix:
    trials: int
    seed: int
    tolerance: float
    rows: Mapping[str, Mapping[str, Mapping[str, MatrixCell]]]

    def cell(self, row: str, column: str, sub: str = "") -> MatrixCell:
        return self.rows[row][column][sub]

    def to_text(self) -> str:
        """The matrix as a table, with the columns that ran in their usual order."""
        ran = [c for c in _COLUMNS if any(c in columns for columns in self.rows.values())]
        lines = []
        width = max(len(r) for r in self.rows) + 2
        header = "".ljust(width) + " | ".join(c.ljust(18) for c in ran)
        lines.append(header)
        lines.append("-" * len(header))
        for row, columns in self.rows.items():
            rendered = []
            for column in ran:
                cells = columns[column]
                parts = [
                    f"{cell.label} {sub}".strip() if sub else cell.label
                    for sub, cell in cells.items()
                ]
                rendered.append(" / ".join(parts).ljust(18))
            lines.append(row.ljust(width) + " | ".join(rendered))
        return "\n".join(lines)

    def mismatches(self, expected: Mapping | None = None) -> list[str]:
        """Compare the labels of the cells that ran against the expected summary.

        Only rows and columns that ran are judged; an expected sub-cell
        missing from a column that ran counts as missing. Empty means match.
        """
        want = expected if expected is not None else EXPECTED_SUMMARY
        problems = []
        for row, columns in want.items():
            for column, subs in columns.items():
                ran = self.rows.get(row, {}).get(column)
                if ran is None:
                    continue
                for sub, label in subs.items():
                    cell = ran.get(sub)
                    if cell is None:
                        problems.append(f"{row} / {column} / {sub or '-'}: missing")
                    elif cell.label != label:
                        problems.append(
                            f"{row} / {column} / {sub or '-'}: expected {label}, got {cell.label}"
                        )
        return problems


EXPECTED_SUMMARY: Mapping[str, Mapping[str, Mapping[str, str]]] = {
    "GUV (MGK)": {
        "Identity": {"if R_B": "Yes", "if R_M": "No"},
        "Fixed-basket": {"": "Yes"},
        "Upper-bound": {"": "Yes"},
        "Lower-bound": {"": "Yes"},
        "Responsiveness": {"in setting of t3": "No", "in setting of t4": "No"},
    },
    "WGM": {
        "Identity": {"if R_B": "Yes", "if R_M": "No"},
        "Fixed-basket": {"": "No"},
        "Upper-bound": {"": "Yes"},
        "Lower-bound": {"": "Yes"},
        "Responsiveness": {"in setting of t3": "No", "in setting of t4": "No"},
    },
    "GEKS": {
        "Identity": {"": "No"},
        "Fixed-basket": {"": "No"},
        "Upper-bound": {"": "No"},
        "Lower-bound": {"": "No"},
        "Responsiveness": {"if (U_0, U_1)": "No"},
    },
}


def _row_label(family: str) -> str:
    """A row's name; it feeds every trial seed, so the Table-1 names must not change."""
    return "GUV (MGK)" if family == "mgk" else family.upper()


def _row_plan(family: str) -> dict[str, list[tuple[str, AxiomTest, ScenarioParams]]]:
    """Columns and sub-cells of one engine family's row.

    Bilateral rows run the non-identity columns with the two-period
    reference set, where the bound provisos of the unit-value and
    geometric families hold by construction; the identity column is
    split into its bilateral and full-history qualifications. The GEKS
    row is inherently multilateral and uses three-period scenarios, with
    the responsiveness probe on the two-period window where the chain
    degenerates to its bilateral component.
    """
    multilateral3 = ScenarioParams(n_periods=3, policy=FullHistory())
    if family == "geks":
        return {
            "Identity": [("", AxiomTest.T1_IDENTITY, multilateral3)],
            "Fixed-basket": [("", AxiomTest.T2_FIXED_BASKET, multilateral3)],
            "Upper-bound": [("", AxiomTest.T3_UPPER_BOUND, multilateral3)],
            "Lower-bound": [("", AxiomTest.T4_LOWER_BOUND, multilateral3)],
            "Responsiveness": [
                ("if (U_0, U_1)", AxiomTest.T5_SHARP,
                 ScenarioParams(n_periods=2, policy=FullHistory(), setting="expanding")),
            ],
        }
    bilateral2 = ScenarioParams(n_periods=2, policy=Bilateral())
    return {
        "Identity": [
            ("if R_B", AxiomTest.T1_IDENTITY, ScenarioParams(n_periods=3, policy=Bilateral())),
            ("if R_M", AxiomTest.T1_IDENTITY, multilateral3),
        ],
        "Fixed-basket": [("", AxiomTest.T2_FIXED_BASKET, bilateral2)],
        "Upper-bound": [("", AxiomTest.T3_UPPER_BOUND, bilateral2)],
        "Lower-bound": [("", AxiomTest.T4_LOWER_BOUND, bilateral2)],
        "Responsiveness": [
            ("in setting of t3", AxiomTest.T5_SHARP, replace(bilateral2, setting="expanding")),
            ("in setting of t4", AxiomTest.T5_SHARP, replace(bilateral2, setting="shrinking")),
        ],
    }


def run_matrix(
    engines: Sequence[str] | None = None,
    tests: Sequence[str] | None = None,
    trials: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
    responsiveness_batch: int = 20,
) -> VerdictMatrix:
    """Aggregate verdicts over randomized trials into the summary matrix.

    engines names the engine families that get a row, by default the
    paper's Table-1 rows. A cell is labeled Yes only when every trial
    passes, which means no counterexample was found, not that the test
    holds; a single witnessed failure makes it No, and the first
    failure's witness is kept for reproduction. Deterministic in the seed.

    The trials run on every CPU in the process's affinity mask: worker w
    of W runs trials w, w + W, ... of every cell, and the merge gives the
    cells and witnesses of one worker. W is 1 for a single trial and where
    ``_workers.count`` finds the process must not fork.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_check_args(tolerance, responsiveness_batch)
    families = TABLE1_ROWS if engines is None else tuple(dict.fromkeys(engines))
    if not families:
        raise ValueError("engines must name at least one engine family")
    unknown = set(families) - set(ENGINE_FAMILIES)
    if unknown:
        raise ValueError(f"engines must name registered engine families, not {sorted(unknown)}")
    if tests is not None:
        if not tests:
            raise ValueError("tests must name at least one matrix column")
        unknown = set(tests) - set(_COLUMNS)
        if unknown:
            raise ValueError(f"tests names unknown matrix columns {sorted(unknown)}")
    plan = [
        (_row_label(family), column, sub_label, test, EngineSpec(family), params)
        for family in families
        for column, subplans in _row_plan(family).items()
        if tests is None or column in tests
        for sub_label, test, params in subplans
    ]
    workers = _workers.count(trials)
    shares = list(_workers.interleave(
        workers, _matrix_share, (plan, trials, seed, tolerance, responsiveness_batch)))
    rows: dict[str, dict[str, dict[str, MatrixCell]]] = {}
    for k, (row_label, column, sub_label, *_) in enumerate(plan):
        passes, failures, errors, firsts, witnesses = zip(*(share[k] for share in shares))
        passes, failures, errors = sum(passes), sum(failures), sum(errors)
        # the shares' first non-passing trials are distinct numbers, so min never compares witnesses
        failed = [(first, witness) for first, witness in zip(firsts, witnesses) if first is not None]
        witness = min(failed)[1] if failed else None
        if failures:
            label = "No"
        elif errors:
            label = "EngineError"
        else:
            label = "Yes"
        rows.setdefault(row_label, {}).setdefault(column, {})[sub_label] = MatrixCell(
            label, passes, failures, errors, witness)
    return VerdictMatrix(trials, seed, tolerance, rows)


def _matrix_share(worker: int, workers: int, plan: list, trials: int, seed: int,
                  tolerance: float, responsiveness_batch: int) -> Iterator[list[tuple]]:
    """One worker's trials of every cell in plan, worker, worker + workers, ...

    Yields one item, a list with per cell: passes, failures, errors, the
    first trial that did not pass and that trial's witness.
    """
    rng = random.Random()  # the share's one generator, reseeded per trial
    cells = []
    for row_label, column, sub_label, test, engine, params in plan:
        passes = failures = errors = 0
        first = witness = None
        numbers = range(worker, trials, workers)
        seeds = (derive_seed(seed, row_label, column, sub_label, trial) for trial in numbers)
        verdicts = _verdicts(rng, test, engine, params, seeds, tolerance, responsiveness_batch)
        for trial, verdict in zip(numbers, verdicts):
            if verdict.outcome is Outcome.PASS:
                passes += 1
                continue
            if verdict.outcome is Outcome.FAIL:
                failures += 1
            else:
                errors += 1
            if first is None:
                first, witness = trial, dict(verdict.witness)
        cells.append((passes, failures, errors, first, witness))
    yield cells


# ---------------------------------------------------------------------------
# Counterexample search


def find_counterexample(
    engine: EngineSpec,
    test: AxiomTest,
    budget: int,
    seed: int = 0,
    params: ScenarioParams | None = None,
    tolerance: float = 1e-9,
) -> Verdict | None:
    """First failing verdict within the scenario budget, or None."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _require_check_args(tolerance)
    seeds = (derive_seed(seed, "counterexample", k) for k in range(budget))
    verdicts = _verdicts(random.Random(), test, engine, params, seeds, tolerance)
    return next((v for v in verdicts if v.outcome is Outcome.FAIL), None)


def _verdicts(rng: random.Random, test: AxiomTest, engine: EngineSpec,
              params: ScenarioParams | None, seeds: Iterable[int], *check_args: object
              ) -> Iterator[Verdict]:
    """The trial loop: check's verdict on each seed's scenario, all drawn from rng."""
    for seed in seeds:
        yield check(test, engine, _draw_scenario(rng, test, seed, params), *check_args)


def find_intransitivity_witness(
    inner: EngineSpec | None = None,
    budget: int = 100,
    seed: int = 0,
    n_items: int = 6,
    churn_rate: float = 0.2,
    threshold: float = 1e-6,
) -> dict[str, object] | None:
    """Search churn markets for a three-period chaining discrepancy.

    Compares the disseminated value over the full window against the
    product of the two shorter-window values; a gap above the threshold
    is returned with the dataset seed for reproduction.
    """
    for k in range(budget):
        market_seed = derive_seed(seed, "intransitivity", k)
        dataset = synth(
            SynthConfig(
                periods=3,
                initial_items=n_items,
                churn_rate=churn_rate,
                drift_sd=0.4,
                quantity_sd=0.8,
                demand_elasticity=1.5,
                seed=market_seed,
            )
        ).dataset
        full = geks_index(dataset, ComparisonSpec(0, 2, FullHistory()), inner).value
        first = geks_index(dataset, ComparisonSpec(0, 1, FullHistory()), inner).value
        second = geks_index(dataset, ComparisonSpec(1, 2, FullHistory()), inner).value
        gap = abs(math.log(full) - math.log(first * second))
        if gap > threshold:
            return {
                "seed": market_seed,
                "gap": gap,
                "full_window": full,
                "chained": first * second,
            }
    return None


# ---------------------------------------------------------------------------
# Closed-form suite


def closed_form_suite(seed: int = 0, tolerance: float = 1e-9) -> list[Verdict]:
    """Evaluate engines on hand-solvable constructions and compare to the
    known closed forms.

    All datasets here use unit quantities (presence-indicator data, as
    for rental objects), where the fixed-point engines admit closed
    forms. Every check is an independent recomputation: expected values
    come from direct sums over the raw data, never from engine code.
    """
    require_tolerance(tolerance)
    verdicts = []
    tight = FixedPointConfig(tolerance=1e-13, max_iterations=5000)

    rental = generate_scenario(
        AxiomTest.T5_RESPONSIVENESS,
        derive_seed(seed, "closed-form", "rental"),
        ScenarioParams(n_periods=2, setting="both", unit_quantities=True),
    ).dataset
    spec = ComparisonSpec(0, 1, Bilateral())
    u0, u1 = rental.universe(0), rental.universe(1)

    def price_total(t: int, items: frozenset) -> float:
        return math.fsum(rental.observation(t, i).price for i in items)

    # persistent base/current, born and dead price totals; with unit
    # quantities these are also the expenditure totals
    a, b = price_total(0, u0 & u1), price_total(1, u0 & u1)
    c, d = price_total(1, u1 - u0), price_total(0, u0 - u1)
    value_ratio = (b + c) / (a + d)

    def log_gap(actual: float, expected: float) -> float:
        return abs(math.log(actual) - math.log(expected))

    def record(name: str, actual: float, expected: float, **extra: float) -> None:
        gap = log_gap(actual, expected)
        outcome = Outcome.PASS if gap <= tolerance else Outcome.FAIL
        verdicts.append(
            Verdict(
                name,
                "closed-form",
                outcome,
                {"actual": actual, "expected": expected, "log_gap": gap, "seed": seed,
                 **extra},
                tolerance,
            )
        )

    record("gk-rental-persistent-value-ratio", gk_index(rental, spec, tight).value, b / a)
    # Lehr reference prices are (p0 + p1)/2 for persistent items and the one
    # observed price otherwise, so the quantity index is
    # (A + B + 2C)/(A + B + 2D) and MGK = V (A + B + 2D)/(A + B + 2C).  The
    # check is named for the sqrt(V) claim this refutes; its witness records
    # that claim's gap to the engine's value.
    mgk = mgk_index(rental, spec).value
    record(
        "mgk-rental-sqrt-value-ratio",
        mgk,
        value_ratio * (a + b + 2 * d) / (a + b + 2 * c),
        sqrt_value_ratio=math.sqrt(value_ratio),
        sqrt_value_ratio_log_gap=log_gap(mgk, math.sqrt(value_ratio)),
    )

    fixed = generate_scenario(
        AxiomTest.T2_FIXED_BASKET,
        derive_seed(seed, "closed-form", "fixed"),
        ScenarioParams(n_periods=2),
    ).dataset
    laspeyres, _, _ = classical_indices(fixed, 0, 1)
    record("adjusted-laspeyres-sqrt", adjusted_laspeyres(fixed, 0, 1), math.sqrt(laspeyres))

    market = synth(
        SynthConfig(periods=3, initial_items=8, churn_rate=0.25, drift_sd=0.3,
                    quantity_sd=0.6, seed=derive_seed(seed, "closed-form", "geks"))
    ).dataset
    inner01 = mgk_index(market, ComparisonSpec(0, 1, Bilateral())).value
    inner12 = mgk_index(market, ComparisonSpec(1, 2, Bilateral())).value
    inner02 = mgk_index(market, ComparisonSpec(0, 2, Bilateral())).value
    geks_series = geks_index(market, ComparisonSpec(0, 2, FullHistory())).series
    record("geks-two-period-window-is-bilateral", geks_series[1], inner01)
    record(
        "geks-three-period-window-formula",
        geks_series[2],
        (inner02**2 * inner01 * inner12) ** (1.0 / 3.0),
    )
    return verdicts
