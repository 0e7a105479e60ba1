"""Self-tests of the benchmark. Run from the repository root:

    python3 -m unittest discover -s bench

The traced-run tests run every workload twice at full size and take a few
minutes.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import generate
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
dynindex = run.load_program()


def small_market(seed: int = 5) -> dict:
    return generate.churn_market(seed, periods=4, items=30, churn=0.2)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        self.assertEqual(generate.digest(iter(small_market(5).items())),
                         generate.digest(iter(small_market(5).items())))
        self.assertNotEqual(generate.digest(iter(small_market(5).items())),
                            generate.digest(iter(small_market(6).items())))

    def test_default_seed_digests_are_stored(self):
        reference = json.loads(run.REFERENCE.read_text())
        market = generate.churn_market(workloads.DEFAULT_SEED, **workloads.MARKET)
        self.assertEqual(generate.digest(iter(market.items())),
                         reference["market-history"]["digest"])
        csv = generate.market_periods(workloads.DEFAULT_SEED, **workloads.CSV)
        self.assertEqual(generate.digest(csv), reference["csv-roundtrip"]["digest"])

    def test_market_shape(self):
        market = generate.churn_market(1, **workloads.MARKET)
        self.assertEqual(len(market), 25)
        self.assertTrue(all(len(items) == 400 for items in market.values()))
        self.assertEqual(len(set().union(*market.values())), 400 + 24 * 40)

    def test_csv_writer_matches_format_csv(self):
        market = small_market()
        text = "".join(generate.csv_lines(iter(market.items())))
        self.assertEqual(text, dynindex.format_csv(dynindex.Dataset.build(market)))


class ReferenceLoopTest(unittest.TestCase):
    def test_starts_no_garbage_collection(self):
        # Collections it started would charge it for the program's garbage.
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            for _ in range(3):
                workloads.reference_loop()
        finally:
            gc.callbacks.remove(record)
        self.assertEqual(started, [])


class CorrectnessCheckTest(unittest.TestCase):
    """A wrong value must trip the checks that every run makes."""

    def setUp(self):
        patcher = mock.patch.dict(workloads.MARKET, {"periods": 4, "items": 30, "churn": 0.2})
        patcher.start()
        self.addCleanup(patcher.stop)

    def market_run(self, reference):
        workload = workloads.MarketHistory(workloads.DEFAULT_SEED, run.OUT, reference)
        rec = workloads.Recorder()
        workload.prepare(rec)
        workload.job(dynindex, dynindex.Dataset.build(workload.data), rec, run.check_directly)
        return workload, rec

    def test_market_values_against_reference(self):
        workload, rec = self.market_run(None)
        self.assertEqual(rec.problems, [])
        self.assertEqual(rec.failed, 0)
        good = {"digest": generate.digest(iter(workload.data.items())), "values": workload.values}
        _, rec = self.market_run(good)
        self.assertEqual(rec.problems, [])

        wrong = {"digest": good["digest"], "values": dict(workload.values)}
        wrong["values"]["rq"] *= 1 + 1e-8
        _, rec = self.market_run(wrong)
        self.assertTrue(rec.problems)
        self.assertTrue(all(p.startswith("rq:") for p in rec.problems), rec.problems)

    def test_unconverged_fixed_point_fails(self):
        workload = workloads.MarketHistory(1, run.OUT, None)
        workload.values = {}
        rec = workloads.Recorder()
        report = dynindex.FixedPointReport(False, 1000, 1e-6)
        workload.check("gk", dynindex.IndexResult(1.1, diagnostics=report), rec)
        self.assertEqual(rec.failed, 1)
        self.assertTrue(rec.problems)

    def test_printed_value_must_match(self):
        rec = workloads.Recorder()
        workloads.check_printed(rec, "1.00483135987\n", 1.00483135987)
        self.assertEqual(rec.problems, [])
        workloads.check_printed(rec, "1.00483135988\n", 1.00483135987)
        self.assertEqual(len(rec.problems), 1)

    def test_roundtrip_must_be_byte_identical(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        workload = workloads.CsvRoundtrip(1, run.OUT, None)
        workload.source = run.OUT / "test-source.csv"
        workload.emitted = run.OUT / "test-emitted.csv"
        self.addCleanup(workload.source.unlink, missing_ok=True)
        self.addCleanup(workload.emitted.unlink, missing_ok=True)
        workload.source.write_text("period,item,price,quantity\n0,a,1.0,2.0\n")
        workload.emitted.write_text("period,item,price,quantity\n0,a,1.0,2.00\n")
        rec = workloads.Recorder()
        workload.check_roundtrip(rec)
        self.assertEqual(len(rec.problems), 1)

    def test_matrix_cells_against_reference(self):
        with mock.patch.object(workloads, "MATRIX_TRIALS", 3):
            matrix = dynindex.run_matrix(trials=3, seed=0)
            cells = workloads.matrix_cells(matrix)
            wrong = dict(cells)
            key = next(iter(wrong))
            wrong[key] = (wrong[key][0] - 1, wrong[key][1] + 1, wrong[key][2])
            # Three trials are too few for the expected summary, so only the
            # comparison with the stored counts is asserted.
            for stored, problems in ((cells, 0), (wrong, 1)):
                workload = workloads.AxiomMatrix(workloads.DEFAULT_SEED, run.OUT, {"cells": stored})
                rec = workloads.Recorder()
                workload.job(dynindex, None, rec, run.check_directly)
                found = [p for p in rec.problems if "cell counts" in p]
                self.assertEqual(len(found), problems)


class TracerTest(unittest.TestCase):
    def test_patches_every_lookup_site_and_restores(self):
        originals = (dynindex.engines.evaluate, dynindex.dataio.ingest_csv,
                     dynindex.references.solve_fixed_point, dynindex.core.Dataset.__dict__["build"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            evaluate = dynindex.engines.evaluate
            self.assertIsNot(evaluate, originals[0])
            self.assertIs(dynindex.cli.evaluate, evaluate)
            self.assertIs(dynindex.harness.evaluate, evaluate)
            self.assertIs(dynindex.evaluate, evaluate)
            self.assertIs(dynindex.cli.ingest_csv, dynindex.dataio.ingest_csv)
            self.assertIsNot(dynindex.cli.ingest_csv, originals[1])
            self.assertIs(dynindex.engines.solve_fixed_point, dynindex.references.solve_fixed_point)
            self.assertIsNot(dynindex.engines.solve_fixed_point, originals[2])
            dataset = dynindex.Dataset.build(small_market())
            dynindex.evaluate(dataset, dynindex.ComparisonSpec(0, 3, dynindex.FullHistory()),
                              dynindex.EngineSpec("gk"))
        finally:
            tracer.uninstall()
        self.assertIs(dynindex.cli.evaluate, originals[0])
        self.assertIs(dynindex.engines.solve_fixed_point, originals[2])
        self.assertIs(dynindex.core.Dataset.__dict__["build"], originals[3])
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["engines.evaluate_calls"], 1)
        self.assertGreater(metrics["references.sweeps.gk"], 0)
        self.assertGreater(metrics["core.has_calls"], 0)
        self.assertGreaterEqual(metrics["engines.self_s.gk"], 0.0)

    def test_skips_names_the_program_lacks(self):
        extra = (("core", "Dataset.no_such_method", "core.validate"),
                 ("no_such_module", "no_such_function", "cli.main"))
        with mock.patch.object(tracing, "SPANNED", tracing.SPANNED + extra):
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        self.assertEqual(tracer.missing,
                         {"core.Dataset.no_such_method", "no_such_module.no_such_function"})

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.names = ["a", "b"]
        for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0), (1, 0, 6.0, 7.0)):
            tracer.span_name.append(name)
            tracer.span_parent.append(parent)
            tracer.span_family.append(-1)
            tracer.span_start.append(start)
            tracer.span_end.append(end)
        self.assertEqual(tracer.self_times(), [6.0, 3.0, 1.0])


def traced_run(workload: str) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0 and result["correct"], done.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


class TracedRunTest(unittest.TestCase):
    """Two traced runs with the same seed give identical counts."""

    def counts(self, workload: str) -> dict:
        first, second = traced_run(workload), traced_run(workload)
        units = dict(tracing.LAYER_METRICS)
        counted = {k: v for k, v in first.items() if units[k] == "count" and k != "trace.spans"}
        self.assertEqual(counted, {k: second[k] for k in counted})
        return first

    def test_market_history(self):
        metrics = self.counts("market-history")
        self.assertEqual(metrics["engines.geks_legs"], 300)
        self.assertGreater(metrics["references.sweeps.gk"], 0)
        self.assertGreater(metrics["references.sweeps.tpd"], 0)

    def test_csv_roundtrip(self):
        metrics = self.counts("csv-roundtrip")
        # The compute command and the round trip each ingest the 500,000 rows.
        self.assertEqual(metrics["dataio.rows_ingested"], 2 * 500_000)

    def test_axiom_matrix(self):
        metrics = self.counts("axiom-matrix")
        self.assertEqual(metrics["harness.verdicts"], 3800)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["run_seconds"], run.RUN_SECONDS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.LAYER_METRICS))

    def test_fails_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        argv = [sys.executable, "bench/run.py", "--workload", "axiom-matrix",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
