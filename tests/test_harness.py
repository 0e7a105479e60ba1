import gc
import hashlib
import math
import os
import random
import threading

import pytest

from dynindex import (
    AxiomTest,
    Bilateral,
    ComparisonSpec,
    Dataset,
    EngineSpec,
    FixedPointConfig,
    FullHistory,
    IndexResult,
    Observation,
    Outcome,
    PeriodData,
    PriceIndexError,
    ScenarioParams,
    TPDGeometric,
    check,
    closed_form_suite,
    find_counterexample,
    find_intransitivity_witness,
    generate_scenario,
    perturb_dynamic_data,
    precondition_holds,
    run_matrix,
)
from dynindex import _workers, harness
from dynindex.engines import ENGINE_FAMILIES
from dynindex.harness import derive_seed
from helpers import presence_mgk
from matrix_digest import cell_lines

MGK = EngineSpec("mgk")
WGM = EngineSpec("wgm")
GEKS = EngineSpec("geks")

BILATERAL_2 = ScenarioParams(n_periods=2, policy=Bilateral())
MULTI_3 = ScenarioParams(n_periods=3, policy=FullHistory())


class TestGeneration:
    @pytest.mark.parametrize("changes, message", [
        ({"n_items": 0}, "need at least one item and two periods"),
        ({"n_periods": 1}, "need at least one item and two periods"),
        ({"setting": "growing"}, "unknown setting 'growing'"),
    ])
    def test_params_refuse_a_setting_that_cannot_be_generated(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioParams(**changes)

    @pytest.mark.parametrize("test", list(AxiomTest))
    def test_preconditions_hold(self, test):
        for seed in range(10):
            scenario = generate_scenario(test, seed, MULTI_3)
            assert precondition_holds(test, scenario.dataset, scenario.spec)

    def test_deterministic_in_seed(self):
        a = generate_scenario(AxiomTest.T3_UPPER_BOUND, 5, MULTI_3)
        b = generate_scenario(AxiomTest.T3_UPPER_BOUND, 5, MULTI_3)
        assert a.dataset == b.dataset

    def test_different_seeds_differ(self):
        a = generate_scenario(AxiomTest.T3_UPPER_BOUND, 5, MULTI_3)
        b = generate_scenario(AxiomTest.T3_UPPER_BOUND, 6, MULTI_3)
        assert a.dataset != b.dataset

    def test_sharp_upper_is_also_weak_upper(self):
        # the sharp expanding scenarios form a subset of the weak ones
        for seed in range(20):
            scenario = generate_scenario(AxiomTest.T3_SHARP, seed, BILATERAL_2)
            assert precondition_holds(
                AxiomTest.T3_UPPER_BOUND, scenario.dataset, scenario.spec
            )

    def test_sharp_lower_is_also_weak_lower(self):
        for seed in range(20):
            scenario = generate_scenario(AxiomTest.T4_SHARP, seed, BILATERAL_2)
            assert precondition_holds(
                AxiomTest.T4_LOWER_BOUND, scenario.dataset, scenario.spec
            )

    def test_responsiveness_scenario_has_churn(self):
        scenario = generate_scenario(AxiomTest.T5_RESPONSIVENESS, 3, BILATERAL_2)
        assert scenario.metadata["births"] >= 1
        assert scenario.metadata["deaths"] >= 1

    def test_t1_scenario_varies_intermediate_periods(self):
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 3, MULTI_3)
        middle = scenario.dataset.universe(1)
        assert middle  # non-empty, free to differ from the endpoints

    def test_shrinking_needs_two_base_items(self):
        from dynindex.harness import InfeasibleParams

        with pytest.raises(InfeasibleParams):
            generate_scenario(
                AxiomTest.T4_SHARP, 0, ScenarioParams(n_items=1, n_periods=2)
            )

    def test_a_scenario_that_breaks_its_precondition_is_a_generator_bug(self, monkeypatch):
        monkeypatch.setattr(harness, "precondition_holds", lambda test, dataset, spec: False)
        message = r"^generated dataset violates the T3 precondition \(generator bug\)$"
        with pytest.raises(harness.InfeasibleParams, match=message):
            generate_scenario(AxiomTest.T3_UPPER_BOUND, 0, BILATERAL_2)

    def test_precondition_of_an_unknown_test_is_a_value_error(self):
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 0, BILATERAL_2)
        with pytest.raises(ValueError, match="^unknown test 'T9'$"):
            precondition_holds("T9", scenario.dataset, scenario.spec)


def _reference_scenario(test, seed, params):
    """generate_scenario as first written: rng.uniform draws through _draw_*
    helpers into tuple maps, built by Dataset.build; (dataset, spec, metadata)."""
    p = params
    rng = random.Random(derive_seed(seed, test.value, "scenario"))

    def draw_price():
        return math.exp(rng.uniform(*p.price_log_range))

    def draw_quantity():
        return 1.0 if p.unit_quantities else math.exp(rng.uniform(*p.quantity_log_range))

    def evolve(previous, period):
        result = {}
        names = sorted(previous)
        n_replace = min(round(p.churn_fraction * len(names)), len(names) - 1)
        dead = set(rng.sample(names, n_replace)) if n_replace else set()
        for name in names:
            if name in dead:
                continue
            price, quantity = previous[name]
            shock = rng.uniform(-p.middle_volatility, p.middle_volatility)
            noise = rng.uniform(-0.3, 0.3)
            result[name] = (
                price * math.exp(shock),
                quantity * math.exp(-p.quantity_elasticity * shock + noise)
                if not p.unit_quantities else 1.0,
            )
        for j in range(n_replace):
            result[f"m{period}_{j}"] = (draw_price(), draw_quantity())
        return result

    churn = max(1, round(p.churn_fraction * p.n_items))
    base_items = {f"i{k}": (draw_price(), draw_quantity()) for k in range(p.n_items)}
    responsive = test in (AxiomTest.T5_RESPONSIVENESS, AxiomTest.T5_SHARP)
    expanding = test in (AxiomTest.T3_UPPER_BOUND, AxiomTest.T3_SHARP) or (
        responsive and p.setting in ("expanding", "both"))
    shrinking = test in (AxiomTest.T4_LOWER_BOUND, AxiomTest.T4_SHARP) or (
        responsive and p.setting in ("shrinking", "both"))
    final_items = {}
    survivors = sorted(base_items)
    if shrinking:
        survivors = survivors[: len(survivors) - min(churn, p.n_items - 1)]
    for k, name in enumerate(survivors):
        price, _ = base_items[name]
        if test == AxiomTest.T3_UPPER_BOUND:
            price *= rng.uniform(p.decline_low, 0.95 if k == 0 else 1.0)
        elif test == AxiomTest.T4_LOWER_BOUND:
            price *= rng.uniform(1.05 if k == 0 else 1.0, p.rise_high)
        elif test in (AxiomTest.T2_FIXED_BASKET, AxiomTest.T5_RESPONSIVENESS):
            price = draw_price()
        final_items[name] = (price, draw_quantity())
    if test == AxiomTest.T2_FIXED_BASKET:
        final_items = {name: (final_items[name][0], base_items[name][1]) for name in final_items}
    if expanding:
        for j in range(churn):
            final_items[f"b{j}"] = (draw_price(), draw_quantity())
    periods = {0: dict(base_items)}
    current = p.n_periods - 1
    previous = dict(base_items)
    for r in range(1, current):
        previous = evolve(previous, r)
        periods[r] = previous
    periods[current] = final_items
    metadata = {
        "churn_fraction": p.churn_fraction, "middle_volatility": p.middle_volatility,
        "quantity_elasticity": p.quantity_elasticity, "decline_low": p.decline_low,
        "rise_high": p.rise_high, "setting": p.setting,
        "births": sum(1 for i in final_items if i not in base_items),
        "deaths": sum(1 for i in base_items if i not in final_items),
    }
    return Dataset.build(periods), ComparisonSpec(0, current, p.policy), metadata


class TestScenarioMatchesReference:
    @pytest.mark.parametrize("n_periods", [2, 3])
    @pytest.mark.parametrize("unit_quantities", [False, True], ids=["quantities", "unit"])
    @pytest.mark.parametrize("setting", ["expanding", "shrinking", "both"])
    @pytest.mark.parametrize("test", list(AxiomTest))
    def test_every_observation(self, test, setting, unit_quantities, n_periods):
        params = ScenarioParams(n_periods=n_periods, setting=setting,
                                unit_quantities=unit_quantities)
        for seed in range(3):
            scenario = generate_scenario(test, seed, params)
            dataset, spec, metadata = _reference_scenario(test, seed, params)
            assert _as_hex(scenario.dataset) == _as_hex(dataset)
            assert (scenario.spec, dict(scenario.metadata)) == (spec, metadata)

    def test_the_trial_loop_keeps_no_state_between_trials(self):
        """Scenarios drawn one after another from the trial loop's one
        generator are each a fresh generate_scenario's."""
        rng = random.Random()
        for params in (MULTI_3, ScenarioParams(n_periods=2, unit_quantities=True)):
            for test in AxiomTest:
                for seed in range(3):
                    drawn = harness._draw_scenario(rng, test, seed, params)
                    fresh = generate_scenario(test, seed, params)
                    assert drawn == fresh and _as_hex(drawn.dataset) == _as_hex(fresh.dataset)

    def test_the_trial_loop_checks_each_seeds_scenario(self):
        seeds = [derive_seed(0, "loop", k) for k in range(4)]
        for test, params in ((AxiomTest.T5_SHARP, BILATERAL_2), (AxiomTest.T1_IDENTITY, MULTI_3)):
            verdicts = harness._verdicts(random.Random(), test, MGK, params, seeds, 1e-9, 3)
            assert list(verdicts) == [
                check(test, MGK, generate_scenario(test, seed, params), 1e-9, 3)
                for seed in seeds]


class TestPerturbation:
    def test_preserves_precondition_and_persistent_data(self):
        scenario = generate_scenario(
            AxiomTest.T5_SHARP, 11, ScenarioParams(n_periods=2, setting="both")
        )
        perturbed = perturb_dynamic_data(scenario, 0)
        assert precondition_holds(AxiomTest.T5_SHARP, perturbed, scenario.spec)
        persistent, births, deaths = scenario.dataset.universe_algebra(0, 1)
        for item in persistent:
            for t in (0, 1):
                assert perturbed.observation(t, item) == scenario.dataset.observation(t, item)
        assert any(
            perturbed.observation(1, item) != scenario.dataset.observation(1, item)
            for item in births
        )

    def test_deterministic(self):
        scenario = generate_scenario(AxiomTest.T5_SHARP, 11, BILATERAL_2)
        assert perturb_dynamic_data(scenario, 3) == perturb_dynamic_data(scenario, 3)


def _reference_perturbation(scenario, index):
    """perturb_dynamic_data as first written: births and deaths from
    universe_algebra, redrawn in period order."""
    rng = random.Random(derive_seed(scenario.seed, "perturb", index))
    base, current = scenario.spec.base, scenario.spec.current
    _, births, deaths = scenario.dataset.universe_algebra(base, current)

    def perturbed(period, members):
        items = dict(scenario.dataset.period_data(period).items)
        for item in sorted(members, key=str):
            obs = items[item]
            items[item] = Observation(
                obs.price * math.exp(rng.uniform(-1.0, 1.0)),
                obs.quantity * math.exp(rng.uniform(-1.0, 1.0))
                if not scenario.params.unit_quantities
                else obs.quantity,
            )
        return PeriodData(period, items)

    new_periods = []
    for pd in scenario.dataset.periods:
        if pd.period == current and births:
            new_periods.append(perturbed(current, births))
        elif pd.period == base and deaths:
            new_periods.append(perturbed(base, deaths))
        else:
            new_periods.append(pd)
    return Dataset(tuple(new_periods))


def _as_hex(dataset):
    """Every period's observations, in period and item order, as float.hex."""
    return [(pd.period, [(item, o.price.hex(), o.quantity.hex()) for item, o in pd.items.items()])
            for pd in dataset.periods]


class TestPerturbationMatchesReference:
    @pytest.mark.parametrize("n_periods", [2, 3])
    @pytest.mark.parametrize("unit_quantities", [False, True], ids=["quantities", "unit"])
    @pytest.mark.parametrize("setting", ["expanding", "shrinking", "both"])
    @pytest.mark.parametrize("test", [AxiomTest.T5_RESPONSIVENESS, AxiomTest.T5_SHARP])
    def test_every_observation(self, test, setting, unit_quantities, n_periods):
        params = ScenarioParams(n_periods=n_periods, setting=setting,
                                unit_quantities=unit_quantities)
        for seed in range(3):
            scenario = generate_scenario(test, seed, params)
            for index in range(4):
                perturbed = perturb_dynamic_data(scenario, index)
                assert _as_hex(perturbed) == _as_hex(_reference_perturbation(scenario, index))

    def test_unredrawn_periods_are_the_scenarios_own(self):
        scenario = generate_scenario(AxiomTest.T5_SHARP, 4, ScenarioParams(n_periods=3))
        perturbed = perturb_dynamic_data(scenario, 0)
        assert perturbed.period_data(1) is scenario.dataset.period_data(1)
        for t in (0, 2):
            assert perturbed.period_data(t) is not scenario.dataset.period_data(t)

    def test_a_period_without_births_is_not_rebuilt(self):
        params = ScenarioParams(n_periods=2, setting="shrinking")
        scenario = generate_scenario(AxiomTest.T5_SHARP, 4, params)
        perturbed = perturb_dynamic_data(scenario, 0)
        assert perturbed.period_data(1) is scenario.dataset.period_data(1)


class TestPerturbationBatch:
    @pytest.mark.parametrize("n_periods", [2, 3])
    @pytest.mark.parametrize("unit_quantities", [False, True], ids=["quantities", "unit"])
    @pytest.mark.parametrize("setting", ["expanding", "shrinking", "both"])
    def test_a_batch_matches_at_every_index(self, setting, unit_quantities, n_periods):
        params = ScenarioParams(n_periods=n_periods, setting=setting,
                                unit_quantities=unit_quantities)
        scenario = generate_scenario(AxiomTest.T5_SHARP, 7, params)
        batch = harness._perturbations(scenario, range(20))
        assert [_as_hex(d) for d in batch] == [
            _as_hex(_reference_perturbation(scenario, k)) for k in range(20)]


# run_matrix(trials=20, seed=0) as computed before the bilateral WGM kernel and
# the partial perturbation rebuild: (row, column, sub-cell) -> (label, passes,
# failures, errors, witness), the witness's floats as float.hex.
MATRIX_20_SEED_0 = {
    ("GUV (MGK)", "Identity", "if R_B"): ("Yes", 20, 0, 0, None),
    ("GUV (MGK)", "Identity", "if R_M"): (
        "No", 0, 20, 0, {"value": "0x1.0b9355ad8d05ep+0", "seed": 1522112141523283731}),
    ("GUV (MGK)", "Fixed-basket", ""): ("Yes", 20, 0, 0, None),
    ("GUV (MGK)", "Upper-bound", ""): ("Yes", 20, 0, 0, None),
    ("GUV (MGK)", "Lower-bound", ""): ("Yes", 20, 0, 0, None),
    ("GUV (MGK)", "Responsiveness", "in setting of t3"): (
        "No", 0, 20, 0, {"value": "0x1.fffffffffffffp-1", "seed": 8857473520400758893,
                         "max_movement": "0x1.0000000000002p-53", "batch": 20,
                         "note": "index pinned under perturbation of birth/death data"}),
    ("GUV (MGK)", "Responsiveness", "in setting of t4"): (
        "No", 0, 20, 0, {"value": "0x1.0000000000000p+0", "seed": 15854938535072831177,
                         "max_movement": "0x1.0000000000001p-52", "batch": 20,
                         "note": "index pinned under perturbation of birth/death data"}),
    ("WGM", "Identity", "if R_B"): ("Yes", 20, 0, 0, None),
    ("WGM", "Identity", "if R_M"): (
        "No", 0, 20, 0, {"value": "0x1.16cce4bf7225bp+0", "seed": 8673073640604109871}),
    ("WGM", "Fixed-basket", ""): (
        "No", 0, 20, 0, {"value": "0x1.de7a73f011daep+0", "seed": 8078418378846726398,
                         "value_ratio": "0x1.1a5d90cea2aa2p+1"}),
    ("WGM", "Upper-bound", ""): ("Yes", 20, 0, 0, None),
    ("WGM", "Lower-bound", ""): ("Yes", 20, 0, 0, None),
    ("WGM", "Responsiveness", "in setting of t3"): (
        "No", 0, 20, 0, {"value": "0x1.0000000000000p+0", "seed": 8817660806916399443,
                         "max_movement": "0x0.0p+0", "batch": 20,
                         "note": "index pinned under perturbation of birth/death data"}),
    ("WGM", "Responsiveness", "in setting of t4"): (
        "No", 0, 20, 0, {"value": "0x1.0000000000000p+0", "seed": 14421726079864850099,
                         "max_movement": "0x0.0p+0", "batch": 20,
                         "note": "index pinned under perturbation of birth/death data"}),
    ("GEKS", "Identity", ""): (
        "No", 0, 20, 0, {"value": "0x1.1782e2798f869p+0", "seed": 11011919506331943141}),
    ("GEKS", "Fixed-basket", ""): (
        "No", 0, 20, 0, {"value": "0x1.b4309e602bf46p-1", "seed": 3679767199960769206,
                         "value_ratio": "0x1.ca36d7a2e35dcp-1"}),
    ("GEKS", "Upper-bound", ""): ("Yes", 20, 0, 0, None),
    ("GEKS", "Lower-bound", ""): (
        "No", 18, 2, 0, {"value": "0x1.fe0207ba6fc75p-1", "seed": 8869658757404345985}),
    ("GEKS", "Responsiveness", "if (U_0, U_1)"): (
        "No", 0, 20, 0, {"value": "0x1.ffffffffffffep-1", "seed": 17468878903271867072,
                         "max_movement": "0x1.0000000000001p-52", "batch": 20,
                         "note": "index pinned under perturbation of birth/death data"}),
}


def test_matrix_cells_and_witnesses_are_pinned():
    matrix = run_matrix(trials=20, seed=0)
    cells = {}
    for row, columns in matrix.rows.items():
        for column, subs in columns.items():
            for sub, cell in subs.items():
                witness = None if cell.witness is None else {
                    k: v.hex() if isinstance(v, float) else v for k, v in cell.witness.items()}
                cells[(row, column, sub)] = (
                    cell.label, cell.passes, cell.failures, cell.errors, witness)
    assert cells == MATRIX_20_SEED_0



# sha256 of matrix_digest.cell_lines(run_matrix(trials=200, seed=s)), by seed
MATRIX_200_DIGESTS = {
    0: "81a2b845ba842d448379221b7c31799bc0b16bf8850bdbb348ba11c6648c673b",
    1: "35116ae19a7df9926cdf8206c9ed39899a7fde3f97fb420138f96343147d916c",
}


@pytest.mark.parametrize("seed", sorted(MATRIX_200_DIGESTS))
def test_200_trial_matrix_digest_is_pinned(seed):
    lines = cell_lines(run_matrix(trials=200, seed=seed))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MATRIX_200_DIGESTS[seed]


def test_matrix_leaves_no_cycles_for_the_collector():
    run_matrix(trials=2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_matrix(trials=2)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _fork_refused():
    raise BlockingIOError("fork refused")


def _first_non_pass_trial(matrix, row, column, sub):
    """The trial whose derived seed is the cell's witness seed."""
    seed = matrix.cell(row, column, sub).witness["seed"]
    return next(trial for trial in range(matrix.trials)
                if derive_seed(matrix.seed, row, column, sub, trial) == seed)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux only: CPU affinity")
class TestForkedMatrix:
    """Every worker count gives the cells, witnesses and text of one worker."""

    def test_every_worker_count_gives_the_same_matrix(self, monkeypatch):
        late_witnesses = 0
        for engines in (None, ["rq", "rqp", "tornqvist"]):
            for seed in range(3):
                for trials in (1, 2, 7, 20):
                    matrices = []
                    for workers in (1, 2, 3):
                        monkeypatch.setattr(_workers, "count", lambda jobs, w=workers: w)
                        matrices.append(run_matrix(engines=engines, trials=trials, seed=seed))
                    serial = matrices[0]
                    for matrix in matrices[1:]:
                        assert cell_lines(matrix) == cell_lines(serial)
                        assert matrix == serial
                        assert matrix.to_text() == serial.to_text()
                    late_witnesses += sum(
                        _first_non_pass_trial(serial, row, column, sub) % 6 != 0
                        for row, columns in serial.rows.items()
                        for column, subs in columns.items()
                        for sub, cell in subs.items() if cell.witness is not None)
        assert serial.cell("TORNQVIST", "Upper-bound").label == "EngineError"
        # some witness comes from a share other than the parent's, so the merge picks it
        assert late_witnesses > 0

    def test_a_childs_exception_is_raised_with_its_type_and_no_child_remains(self, monkeypatch):
        share = harness._matrix_share

        def failing_share(worker, *args):
            if worker == 1:
                raise harness.InfeasibleParams("worker 1 failed")
            return share(worker, *args)

        monkeypatch.setattr(harness, "_matrix_share", failing_share)
        monkeypatch.setattr(_workers, "count", lambda jobs: 3)
        fds = os.listdir("/proc/self/fd")
        with pytest.raises(harness.InfeasibleParams, match="^worker 1 failed$"):
            run_matrix(trials=6)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir("/proc/self/fd") == fds

    def test_a_child_ending_without_its_result_names_its_exit_status(self, monkeypatch):
        share = harness._matrix_share

        def exiting_share(worker, *args):
            if worker == 2:
                os._exit(7)
            return share(worker, *args)

        monkeypatch.setattr(harness, "_matrix_share", exiting_share)
        monkeypatch.setattr(_workers, "count", lambda jobs: 3)
        with pytest.raises(RuntimeError, match=r"worker 2 .*\(exit status 7\)$"):
            run_matrix(trials=6)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_nothing_forks_while_another_thread_is_alive(self, monkeypatch):
        forks = []

        def fork():
            forks.append(1)
            _fork_refused()

        monkeypatch.setattr(os, "fork", fork)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            matrix = run_matrix(trials=4, seed=1)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        monkeypatch.setattr(_workers, "count", lambda jobs: 1)
        assert matrix == run_matrix(trials=4, seed=1)

    def test_a_refused_fork_leaves_the_matrix_unchanged(self, monkeypatch):
        monkeypatch.setattr(_workers, "count", lambda jobs: 1)
        serial = run_matrix(trials=7, seed=2)
        monkeypatch.setattr(_workers, "count", lambda jobs: 3)
        monkeypatch.setattr(os, "fork", _fork_refused)
        assert cell_lines(run_matrix(trials=7, seed=2)) == cell_lines(serial)

    def test_one_worker_per_allowed_cpu_and_at_most_one_per_trial(self):
        cpus = len(os.sched_getaffinity(0))
        assert _workers.count(1) == 1
        assert _workers.count(1000) == cpus


class TestCheck:
    def test_identity_bilateral_passes(self):
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 0, ScenarioParams(n_periods=3))
        assert check(AxiomTest.T1_IDENTITY, MGK, scenario).outcome is Outcome.PASS

    def test_identity_full_history_fails_with_witness(self):
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 0, MULTI_3)
        verdict = check(AxiomTest.T1_IDENTITY, MGK, scenario)
        assert verdict.outcome is Outcome.FAIL
        assert verdict.witness["value"] != pytest.approx(1.0, abs=1e-9)
        assert verdict.witness["seed"] == 0

    def test_sharp_responsiveness_pins_unit_value_engine(self):
        scenario = generate_scenario(
            AxiomTest.T5_SHARP, 4, ScenarioParams(n_periods=2, setting="expanding")
        )
        verdict = check(AxiomTest.T5_SHARP, MGK, scenario)
        assert verdict.outcome is Outcome.FAIL
        assert verdict.witness["max_movement"] <= 1e-9

    def test_reference_quantity_engine_is_responsive(self):
        scenario = generate_scenario(
            AxiomTest.T5_SHARP, 4, ScenarioParams(n_periods=2, setting="expanding")
        )
        verdict = check(AxiomTest.T5_SHARP, EngineSpec("rq"), scenario)
        assert verdict.outcome is Outcome.PASS
        assert verdict.witness["note"] == "no reduction detected"

    @pytest.mark.parametrize(
        "test, failing_call, calls",
        [
            (AxiomTest.T3_UPPER_BOUND, None, 1),
            (AxiomTest.T5_SHARP, None, 1 + 7),
            (AxiomTest.T3_UPPER_BOUND, 1, 1),
            (AxiomTest.T5_SHARP, 1, 1),
            (AxiomTest.T5_SHARP, 4, 4),
        ],
        ids=["bound", "responsiveness", "bound-base-error", "responsiveness-base-error",
             "responsiveness-perturbation-error"],
    )
    def test_evaluations_and_engine_errors(self, monkeypatch, test, failing_call, calls):
        """The base run plus one run per perturbation for responsiveness; an engine
        error in any of them is the verdict, with the scenario seed as witness."""
        made = []

        def evaluate(dataset, spec, engine):
            made.append(dataset)
            if len(made) == failing_call:
                raise PriceIndexError("boom")
            return IndexResult(1.0 / len(made))

        monkeypatch.setattr("dynindex.harness.evaluate", evaluate)
        scenario = generate_scenario(test, 5, ScenarioParams(n_periods=2))
        verdict = check(test, MGK, scenario, responsiveness_batch=7)
        assert len(made) == calls
        if failing_call is None:
            assert verdict.outcome is Outcome.PASS
        else:
            assert verdict.outcome is Outcome.ENGINE_ERROR
            assert verdict.witness == {"error": "boom", "seed": 5}

    def test_unconverged_fixed_point_is_an_engine_error(self):
        # the engine runs for real; one sweep is too few for TPD prices
        engine = EngineSpec("guv", reference_price=TPDGeometric(),
                            fixed_point=FixedPointConfig(max_iterations=1))
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 3, MULTI_3)
        verdict = check(AxiomTest.T1_IDENTITY, engine, scenario)
        assert verdict.outcome is Outcome.ENGINE_ERROR
        assert verdict.witness["error"].startswith("fixed point did not converge (residual ")
        assert verdict.witness["seed"] == 3

    def test_an_unknown_test_is_a_value_error(self):
        # the engine runs; only the judging has no branch for the test
        scenario = generate_scenario(AxiomTest.T1_IDENTITY, 3, BILATERAL_2)
        with pytest.raises(ValueError, match="^unknown test 'T9'$"):
            check("T9", MGK, scenario)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_responsiveness_batch_must_be_positive(self, batch):
        with pytest.raises(ValueError, match=f"^responsiveness_batch must be at least 1, got {batch}$"):
            _check_t5(responsiveness_batch=batch)

    def test_fixed_basket_fails_for_geometric_family(self):
        scenario = generate_scenario(AxiomTest.T2_FIXED_BASKET, 1, BILATERAL_2)
        assert check(AxiomTest.T2_FIXED_BASKET, WGM, scenario).outcome is Outcome.FAIL

    def test_fixed_basket_passes_for_value_family(self):
        scenario = generate_scenario(AxiomTest.T2_FIXED_BASKET, 1, BILATERAL_2)
        verdict = check(AxiomTest.T2_FIXED_BASKET, MGK, scenario)
        assert verdict.outcome is Outcome.PASS
        assert verdict.witness["value"] == pytest.approx(verdict.witness["value_ratio"])

    def test_deterministic_verdicts(self):
        scenario = generate_scenario(AxiomTest.T3_UPPER_BOUND, 9, MULTI_3)
        first = check(AxiomTest.T3_UPPER_BOUND, GEKS, scenario)
        second = check(AxiomTest.T3_UPPER_BOUND, GEKS, scenario)
        assert first == second

    def test_overlapping_identity_and_fixed_basket_agree(self):
        # identical periods satisfy both preconditions; verdicts must agree
        from dynindex import Scenario

        ds = Dataset.build({0: {"A": (2, 3), "B": (5, 1)}, 1: {"A": (2, 3), "B": (5, 1)}})
        spec = ComparisonSpec(0, 1, Bilateral())
        assert precondition_holds(AxiomTest.T1_IDENTITY, ds, spec)
        assert precondition_holds(AxiomTest.T2_FIXED_BASKET, ds, spec)
        for engine in (MGK, WGM):
            for test in (AxiomTest.T1_IDENTITY, AxiomTest.T2_FIXED_BASKET):
                scenario = Scenario(ds, spec, test, 0, {}, BILATERAL_2)
                verdict = check(test, engine, scenario)
                assert verdict.outcome is Outcome.PASS
                assert verdict.witness["value"] == pytest.approx(1.0, abs=1e-12)


class TestMatrix:
    def test_matches_expected_summary(self):
        matrix = run_matrix(trials=50, seed=0)
        assert matrix.mismatches() == []

    def test_no_cell_requires_witness(self):
        matrix = run_matrix(trials=50, seed=0)
        cell = matrix.cell("WGM", "Fixed-basket")
        assert cell.label == "No"
        assert cell.failures >= 1
        assert cell.witness is not None and "seed" in cell.witness

    def test_yes_cell_has_no_failures(self):
        matrix = run_matrix(trials=50, seed=0)
        cell = matrix.cell("GUV (MGK)", "Upper-bound")
        assert cell.label == "Yes"
        assert cell.failures == 0 and cell.errors == 0

    def test_deterministic(self):
        a = run_matrix(trials=5, seed=3)
        b = run_matrix(trials=5, seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "engines, tests, trials",
        [(["geks"], None, 50), (None, ["Identity"], 3)],
        ids=["geks-row", "identity-column"],
    )
    def test_mismatches_judge_only_what_ran(self, engines, tests, trials):
        matrix = run_matrix(engines=engines, tests=tests, trials=trials, seed=0)
        assert matrix.mismatches() == []

    def test_expected_sub_cell_missing_from_a_column_that_ran(self):
        matrix = run_matrix(engines=["geks"], tests=["Identity"], trials=1, seed=0)
        expected = {"GEKS": {"Identity": {"": "No", "if R_B": "Yes"}, "Fixed-basket": {"": "No"}},
                    "WGM": {"Identity": {"": "No"}}}
        assert matrix.mismatches(expected) == ["GEKS / Identity / if R_B: missing"]

    def test_row_filter(self):
        matrix = run_matrix(engines=["geks"], trials=5, seed=0)
        assert list(matrix.rows) == ["GEKS"]

    def test_single_cell(self):
        matrix = run_matrix(engines=["mgk"], tests=["Fixed-basket"], trials=1, seed=0)
        assert matrix.cell("GUV (MGK)", "Fixed-basket").passes == 1

    @pytest.mark.parametrize("batch", [0, -3])
    def test_responsiveness_batch_must_be_positive(self, batch):
        with pytest.raises(ValueError, match="responsiveness_batch"):
            run_matrix(trials=1, responsiveness_batch=batch)

    def test_engines_must_not_be_empty(self):
        with pytest.raises(ValueError, match="engines"):
            run_matrix(engines=[], trials=1)

    def test_engines_must_be_registered_families(self):
        with pytest.raises(ValueError, match="engines must name registered engine families"):
            run_matrix(engines=["mgk", "GUV (MGK)"], trials=1)

    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_every_registered_family_gets_a_row(self, family):
        matrix = run_matrix(engines=[family], trials=1, seed=0)
        assert len(matrix.rows) == 1

    def test_reference_quantity_rows(self):
        """The paper's remedy family at seed 0: no counterexample in 200 trials
        anywhere but RQP's identity under the multilateral reference set."""
        rq = {
            "Identity": {"if R_B": "Yes", "if R_M": "Yes"},
            "Fixed-basket": {"": "Yes"},
            "Upper-bound": {"": "Yes"},
            "Lower-bound": {"": "Yes"},
            "Responsiveness": {"in setting of t3": "Yes", "in setting of t4": "Yes"},
        }
        rqp = {**rq, "Identity": {"if R_B": "Yes", "if R_M": "No"}}
        matrix = run_matrix(engines=["rq", "rqp"], trials=200, seed=0)
        assert list(matrix.rows) == ["RQ", "RQP"]
        assert matrix.mismatches({"RQ": rq, "RQP": rqp}) == []

    @pytest.mark.parametrize("tests", [[], ["Identity", "Transitivity"]], ids=["empty", "unknown"])
    def test_tests_must_name_known_columns(self, tests):
        with pytest.raises(ValueError, match="tests"):
            run_matrix(tests=tests, trials=1)

    def test_text_renders_only_the_columns_that_ran(self):
        matrix = run_matrix(engines=["mgk", "geks"], tests=["Lower-bound", "Identity"],
                            trials=1, seed=0)
        header, _rule, *rows = matrix.to_text().splitlines()
        assert header.split() == ["Identity", "|", "Lower-bound"]
        assert [row.split("  ")[0] for row in rows] == ["GUV (MGK)", "GEKS"]
        assert "if R_B" in rows[0] and "Fixed-basket" not in header

    def test_text_rendering_contains_qualifications(self):
        text = run_matrix(trials=5, seed=0).to_text()
        assert "if R_B" in text and "if R_M" in text
        assert "GUV (MGK)" in text


class TestCounterexamples:
    def test_geks_fixed_basket_witness_found(self):
        verdict = find_counterexample(GEKS, AxiomTest.T2_FIXED_BASKET, 500, seed=1,
                                      params=MULTI_3)
        assert verdict is not None
        assert verdict.outcome is Outcome.FAIL

    def test_bilateral_unit_value_fixed_basket_no_witness(self):
        verdict = find_counterexample(MGK, AxiomTest.T2_FIXED_BASKET, 500, seed=1,
                                      params=BILATERAL_2)
        assert verdict is None

    def test_intransitivity_witness(self):
        witness = find_intransitivity_witness(budget=100, seed=0)
        assert witness is not None
        assert witness["gap"] > 1e-6

    def test_no_intransitivity_witness_in_one_item_markets(self):
        assert find_intransitivity_witness(budget=3, seed=0, n_items=1, churn_rate=0.0) is None


def _check_t5(**kwargs):
    scenario = generate_scenario(AxiomTest.T5_SHARP, 0, BILATERAL_2)
    return check(AxiomTest.T5_SHARP, MGK, scenario, **kwargs)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda tolerance: run_matrix(trials=1, tolerance=tolerance),
        lambda tolerance: closed_form_suite(tolerance=tolerance),
        lambda tolerance: find_counterexample(MGK, AxiomTest.T1_IDENTITY, 1, tolerance=tolerance),
        lambda tolerance: _check_t5(tolerance=tolerance),
    ],
    ids=["run_matrix", "closed_form_suite", "find_counterexample", "check"],
)
def test_tolerance_must_be_positive_and_finite(run, tolerance):
    with pytest.raises(ValueError, match="positive and finite"):
        run(tolerance)


class TestClosedForms:
    def test_suite_results(self):
        verdicts = {v.test: v for v in closed_form_suite(seed=0)}
        assert verdicts["gk-rental-persistent-value-ratio"].passed
        assert verdicts["mgk-rental-sqrt-value-ratio"].passed
        assert verdicts["adjusted-laspeyres-sqrt"].passed
        assert verdicts["geks-two-period-window-is-bilateral"].passed
        assert verdicts["geks-three-period-window-formula"].passed

    def test_mgk_sqrt_claim_is_refuted_by_direct_evaluation(self):
        # the engine's value on presence-quantity data is
        # V*(A+B+2D)/(A+B+2C), not sqrt(V); the check passes against the
        # former and its witness keeps the O(1) gap to the latter
        rental = generate_scenario(
            AxiomTest.T5_RESPONSIVENESS,
            derive_seed(0, "closed-form", "rental"),
            ScenarioParams(n_periods=2, setting="both", unit_quantities=True),
        ).dataset
        verdicts = {v.test: v for v in closed_form_suite(seed=0)}
        verdict = verdicts["mgk-rental-sqrt-value-ratio"]
        assert verdict.outcome is Outcome.PASS
        assert verdict.witness["expected"] == pytest.approx(presence_mgk(rental), rel=1e-12)
        assert verdict.witness["sqrt_value_ratio_log_gap"] > 1e-3

    def test_deterministic(self):
        assert closed_form_suite(seed=7) == closed_form_suite(seed=7)
