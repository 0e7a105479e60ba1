"""What ``import dynindex`` loads: the harness, the simulator and the fork helpers on first use.

Each check runs in a fresh interpreter, because this suite's own imports
load both modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dynindex

SRC = Path(dynindex.__file__).resolve().parents[1]
LAZY = {"dynindex._workers", "dynindex.harness", "dynindex.simulate"}
# Loaded only to ingest a large path, so no test below loads it.
UNLOADED = LAZY | {"dynindex._ingest"}

# Every public name of the package, the two lazily loaded modules included.
PUBLIC = [
    "ArithmeticMeanQuantity", "AxiomTest", "BaseQuantity", "Bilateral", "ComparisonSpec",
    "CsvError", "CurrentQuantity", "CustomPrices", "CustomQuantities", "CustomWeights",
    "Dataset", "DeflatedUnitValue", "EngineSpec", "ExpenditureOverReferencePrice",
    "ExpenditureShare", "FixedBase", "FixedPointConfig", "FixedPointReport", "FullHistory",
    "ImputationPolicy", "IndexResult", "IngestWarning", "InvalidComparisonError",
    "InvalidDataError", "ItemId",
    "LehrUnitValue", "NumericalError", "Observation", "Outcome", "PeriodData",
    "PriceIndexError", "ReferenceData", "RollingWindow", "Scenario", "ScenarioParams",
    "SchemeError", "SynthConfig", "SynthResult", "TPDGeometric", "TornqvistWeights",
    "UnknownPeriodError", "Verdict", "VerdictMatrix", "Violation", "adjusted_laspeyres",
    "check", "classical_indices", "closed_form_suite", "core", "dataio", "emit_csv",
    "engines", "evaluate", "find_counterexample", "find_intransitivity_witness", "format_csv",
    "geks_index", "generate_scenario", "gk_index", "guv_index", "harness", "ingest_csv",
    "mgk_index", "perturb_dynamic_data", "precondition_holds", "reference_data",
    "reference_prices", "reference_quantities", "references", "rq_index", "rqp_index",
    "run_matrix", "simulate", "solve_fixed_point", "synth", "tornqvist_index", "tpd_index",
    "wgm_index", "write_report",
]


def run_fresh(code: str, cwd: Path, stdin: Path | None = None) -> dict:
    """Run ``code`` in a fresh interpreter, reading ``stdin``; it prints one JSON document."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(stdin if stdin is not None else os.devnull, "rb") as source:
        done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, stdin=source,
                              capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# An expression for the dynindex modules loaded, in the child.
LOADED = "sorted(m for m in sys.modules if m.startswith('dynindex'))"


def test_import_leaves_harness_and_simulate_unloaded(tmp_path):
    loaded = run_fresh(f"import json, sys, dynindex; print(json.dumps({LOADED}))", tmp_path)
    assert "dynindex.engines" in loaded
    assert UNLOADED.isdisjoint(loaded)


def test_compute_leaves_harness_and_simulate_unloaded(tmp_path):
    (tmp_path / "tiny.csv").write_text("period,item,price,quantity\n0,a,1,1\n1,a,2,1\n")
    code = ("import json, sys\nfrom dynindex import cli\n"
            "code = cli.main(['compute', '-i', 'tiny.csv', '-e', 'mgk', '--base', '0', "
            "'--current', '1'])\n"
            f"print(json.dumps([code, {LOADED}]))")
    code, loaded = run_fresh(code, tmp_path)
    assert code == 0
    assert "dynindex.cli" in loaded
    assert UNLOADED.isdisjoint(loaded)


def test_ingest_of_stdin_a_file_object_or_a_small_file_leaves_the_fork_helper_unloaded(tmp_path):
    (tmp_path / "tiny.csv").write_text("period,item,price,quantity\n0,a,1,1\n1,a,2,1\n")
    code = ("import json, os, sys\nfrom dynindex import dataio, ingest_csv\n"
            "def refuse():\n    raise AssertionError('forked')\n"
            "os.fork = refuse\n"
            "small = ingest_csv('tiny.csv')\n"
            "dataio._FORK_BYTES = 1  # file objects stay serial whatever their size\n"
            "with open('tiny.csv', encoding='utf-8') as handle:\n"
            "    same = [ingest_csv(handle) == small, ingest_csv(sys.stdin) == small]\n"
            f"print(json.dumps([same, {LOADED}]))")
    same, loaded = run_fresh(code, tmp_path, stdin=tmp_path / "tiny.csv")
    assert same == [True, True]
    assert "dynindex.dataio" in loaded
    assert UNLOADED.isdisjoint(loaded)


def test_public_names_are_pinned_and_resolve(tmp_path):
    code = ("import json, dynindex\n"
            "missing = [n for n in dynindex.__all__ if getattr(dynindex, n, None) is None]\n"
            "listed = set(dynindex.__all__) <= set(dir(dynindex))\n"
            "print(json.dumps([dynindex.__all__, missing, listed]))")
    names, missing, listed = run_fresh(code, tmp_path)
    assert names == PUBLIC
    assert missing == []
    assert listed


def test_lazy_names_import_from_the_package(tmp_path):
    code = ("import json, sys, dynindex\n"
            "from dynindex import run_matrix, synth, harness\n"
            "from dynindex.simulate import synth as simulate_synth\n"
            "print(json.dumps([run_matrix is harness.run_matrix, synth is simulate_synth,\n"
            "                  harness.AxiomTest is dynindex.AxiomTest,\n"
            "                  harness.TABLE1_ROWS is dynindex.engines.TABLE1_ROWS,\n"
            f"                  {LOADED}]))")
    *same, loaded = run_fresh(code, tmp_path)
    assert same == [True, True, True, True]
    assert LAZY <= set(loaded)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(dynindex, "no_such_name")


def test_lazy_module_and_dir_resolve_in_process():
    # called directly, so the module branch runs even where the submodule is loaded
    assert dynindex.__getattr__("harness") is sys.modules["dynindex.harness"]
    assert dynindex.__getattr__("simulate").synth is dynindex.synth
    assert dir(dynindex) == sorted({*vars(dynindex), *dynindex.__all__})
