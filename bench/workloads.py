"""The benchmark's workloads: inputs, set-up, one job and its checks.

Each workload runs as a closed loop with one caller in one interpreter:
a job starts when the previous one has returned. A job is a fixed list
of operations; each call of an operation gives one sample of its wall
time and of its cost (see ``Recorder``).

- market-history: one churn market held in memory, compared from its
  first to its last period under the full-history policy by every engine.
  The reference-price maps and the fixed-point solver do most of the work.
- csv-roundtrip: a large CSV file, run through ``dynindex compute`` in
  process, then ingested and emitted again. Parsing, dataset construction
  and formatting do most of the work; the engine does little.
- axiom-matrix: the randomized verdict matrix over thousands of tiny
  datasets, where per-call overhead in the engines and the harness's
  scenario generation dominate.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import math
from pathlib import Path
from time import perf_counter
from typing import Callable

import generate

DEFAULT_SEED = 0
# Engines whose single call takes under about half a second are called in
# every cheap block, so the run times them over many calls.
CHEAP = ("mgk", "wgm", "rq", "rqp")
HEAVY = ("gk", "tpd", "geks")
CHEAP_REPEATS = 2
RESIDUAL_LIMIT = 1e-10
LOG_TOLERANCE = 1e-9
# 400 items per period, a fifth of a statistical office's 2000, keeps the
# slowest engine call near two seconds, so a run times every engine several
# times and the reference loop beside a call sees the machine in the state
# the call saw. The work per item and per period, and so each layer's share
# of it, does not depend on the item count.
MARKET = {"periods": 25, "items": 400, "churn": 0.1}
CSV = {"periods": 25, "items": 20000, "churn": 0.1}
MATRIX_TRIALS = 200


FAILED = object()


# The unit of the ``ref-loops`` metrics: fixed pure-Python work of the three
# kinds the program does, in about equal parts: string-keyed lookups in a
# table of thousands of entries, float arithmetic, and formatting and
# parsing text rows. About 5 ms on a 2.1 GHz Xeon under
# Python 3.11. Contention slows the three kinds by different amounts;
# together they follow the program's operations more closely than any one
# of them does.
REFERENCE_NAMES = tuple(f"i{k:06d}" for k in range(6_000))
REFERENCE_TABLE = {name: (k + 1.0, 2.0) for k, name in enumerate(REFERENCE_NAMES)}


def reference_loop() -> float:
    terms = []
    for name in REFERENCE_NAMES:
        price, quantity = REFERENCE_TABLE[name]
        terms.append(price * quantity / (price + quantity))
    logs = {name: math.log(REFERENCE_TABLE[name][0]) for name in REFERENCE_NAMES[::2]}
    total, x = 0.0, 1.0
    for k in range(15_000):
        x = x * 1.0000001 + 0.5
        total += x / (k + 1.0)
    # Only strings and numbers are made here, which the garbage collector
    # does not track, so the loop never pays for collecting the program's
    # garbage.
    for k in range(750):
        row = f"{k % 25},i{k:06d},{k * 0.37!r},{k * 1.3!r}"
        first = row.find(",")
        last = row.rfind(",")
        price = row[row.find(",", first + 1) + 1:last]
        total += int(row[:first]) + float(price) + float(row[last + 1:])
    return math.fsum(terms) + len(logs) + total


def reference_time() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class Recorder:
    """Operation times and costs, attempted and failed operations, check failures.

    Other tenants of a shared machine slow every process on it, by up to
    half, in phases from a fraction of a second to minutes. So besides its
    wall time each call gets a cost: its time divided by the mean time of
    the reference loop run just before and just after it. Contention slows
    both alike and cancels; a change to the program moves only the call.
    """

    def __init__(self) -> None:
        # (operation, start, seconds, reference seconds before, after)
        self.calls: list[tuple[str, float, float, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, op: str, fn: Callable, *args, **kwargs):
        """Time one operation; an exception counts as a failed operation.

        Returns the operation's result, or ``FAILED`` if it raised.
        """
        before = reference_time()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation must not end the run
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{op}: {type(exc).__name__}: {exc}")
            return FAILED
        took = perf_counter() - start
        self.calls.append((op, start, took, before, reference_time()))
        return result

    def times(self, op: str) -> list[float]:
        return [took for name, _start, took, _before, _after in self.calls if name == op]

    def costs(self, op: str) -> list[float]:
        return [2 * took / (before + after)
                for name, _start, took, before, after in self.calls if name == op]

    def outcome(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def check_value(rec: Recorder, label: str, value: float) -> bool:
    ok = isinstance(value, float) and math.isfinite(value) and value > 0
    rec.require(ok, f"{label}: value {value!r} is not positive and finite")
    return ok


def check_reference(rec: Recorder, label: str, value: float, reference: float) -> None:
    gap = abs(math.log(value) - math.log(reference))
    rec.require(gap <= LOG_TOLERANCE,
                f"{label}: {value!r} is {gap:.3g} in log from the stored {reference!r}")


class Workload:
    name = ""
    ops: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path, reference: dict | None) -> None:
        self.seed = seed
        self.out_dir = out_dir
        # Stored values apply to the default seed only.
        self.reference = reference if seed == DEFAULT_SEED else None

    def prepare(self, rec: Recorder) -> None:
        """Generate the inputs; not timed."""

    def build(self, dx) -> object:
        """What the timed phase receives; timed as part of set-up."""
        return None

    def release_inputs(self) -> None:
        """Drop generated data the timed phase no longer needs."""

    def job(self, dx, inputs, rec: Recorder, checker: Callable) -> None:
        """Run the timed operations once, each followed by its checks.

        Checks run as ``checker(check, *args)``, so that a traced run can
        keep them out of the trace.
        """
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove large files the run wrote."""


class MarketHistory(Workload):
    name = "market-history"
    ops = tuple(f"compute_s.{f}" for f in HEAVY + CHEAP)

    def prepare(self, rec: Recorder) -> None:
        self.data = generate.churn_market(self.seed, **MARKET)
        if self.reference is not None:
            digest = generate.digest(iter(self.data.items()))
            rec.require(digest == self.reference["digest"],
                        f"market digest {digest} differs from the stored one")
        self.values: dict[str, float] = {}

    def build(self, dx):
        return dx.Dataset.build(self.data)

    def release_inputs(self) -> None:
        del self.data

    def job(self, dx, dataset, rec: Recorder, checker: Callable) -> None:
        spec = dx.ComparisonSpec(0, MARKET["periods"] - 1, dx.FullHistory())
        engines = {f: dx.EngineSpec(f) for f in HEAVY + CHEAP}
        engines["geks"] = dx.EngineSpec("geks", inner=dx.EngineSpec("mgk"))
        # Cheap blocks sit between the heavy calls, so cheap engines are
        # sampled across the whole job rather than in one burst.
        schedule: list[str] = []
        for heavy in HEAVY:
            schedule += list(CHEAP) * CHEAP_REPEATS + [heavy]
        schedule += list(CHEAP) * CHEAP_REPEATS
        for family in schedule:
            result = rec.call(f"compute_s.{family}", dx.evaluate, dataset, spec, engines[family])
            if result is not FAILED:
                checker(self.check, family, result, rec)

    def check(self, family: str, result, rec: Recorder) -> None:
        report = result.diagnostics
        converged = report is None or report.converged
        rec.outcome(1, 0 if converged else 1)
        if not check_value(rec, family, result.value):
            return
        if family in ("gk", "tpd"):
            rec.require(report is not None and report.converged
                        and report.final_residual <= RESIDUAL_LIMIT,
                        f"{family}: fixed point {report} misses residual {RESIDUAL_LIMIT}")
        if family == "geks":
            rec.require(result.series is not None and result.series.get(0) == 1.0,
                        "geks: series is not 1 at the base period")
        first = self.values.setdefault(family, result.value)
        rec.require(result.value == first,
                    f"{family}: {result.value!r} differs from the run's first value {first!r}")
        if self.reference is not None:
            check_reference(rec, family, result.value, self.reference["values"][family])


class CsvRoundtrip(Workload):
    name = "csv-roundtrip"
    ops = ("compute_s.mgk", "ingest_s", "emit_s")

    def prepare(self, rec: Recorder) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.source = self.out_dir / f"csv-roundtrip-{self.seed}.csv"
        self.emitted = self.out_dir / f"csv-roundtrip-{self.seed}.emitted.csv"
        self.report = self.out_dir / f"csv-roundtrip-{self.seed}.report.json"
        generate.write_csv(self.source, generate.market_periods(self.seed, **CSV))
        if self.reference is not None:
            digest = generate.file_digest(self.source)
            rec.require(digest == self.reference["digest"],
                        f"csv digest {digest} differs from the stored one")

    def job(self, dx, _inputs, rec: Recorder, checker: Callable) -> None:
        last = str(CSV["periods"] - 1)
        argv = ["compute", "-e", "mgk", "--base", "0", "--current", last,
                "--json", str(self.report), "-i", str(self.source)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = rec.call("compute_s.mgk", dx.cli.main, argv)
        if code is not FAILED:
            rec.outcome(1, 0 if code == 0 else 1)
            rec.require(code == 0, f"compute exited with {code}")
        dataset = rec.call("ingest_s", dx.ingest_csv, self.source)
        if dataset is FAILED:
            return
        rec.outcome(1)
        checker(self.check_cli_value, dx, dataset, printed.getvalue(), rec)
        if rec.call("emit_s", dx.emit_csv, dataset, self.emitted) is not FAILED:
            rec.outcome(1)
            checker(self.check_roundtrip, rec)

    def check_cli_value(self, dx, dataset, printed: str, rec: Recorder) -> None:
        spec = dx.ComparisonSpec(0, CSV["periods"] - 1, dx.Bilateral())
        value = dx.evaluate(dataset, spec, dx.EngineSpec("mgk")).value
        if not check_value(rec, "mgk", value):
            return
        check_printed(rec, printed, value)
        if self.reference is not None:
            check_reference(rec, "mgk", value, self.reference["values"]["mgk"])

    def check_roundtrip(self, rec: Recorder) -> None:
        rec.require(filecmp.cmp(self.source, self.emitted, shallow=False),
                    "emit_csv(ingest_csv(f)) differs from f")

    def cleanup(self) -> None:
        for path in (self.source, self.emitted, self.report):
            path.unlink(missing_ok=True)


def check_printed(rec: Recorder, printed: str, value: float) -> None:
    """The CLI prints the value to 12 significant digits on its first line."""
    first = printed.splitlines()[0] if printed else ""
    rec.require(first == f"{value:.12g}",
                f"compute printed {first!r}, in-process value is {value:.12g}")


class AxiomMatrix(Workload):
    name = "axiom-matrix"
    ops = ("matrix_s",)

    def job(self, dx, _inputs, rec: Recorder, checker: Callable) -> None:
        matrix = rec.call("matrix_s", dx.run_matrix, trials=MATRIX_TRIALS, seed=self.seed)
        if matrix is not FAILED:
            checker(self.check, matrix, rec)

    def check(self, matrix, rec: Recorder) -> None:
        cells = matrix_cells(matrix)
        verdicts = sum(sum(counts) for counts in cells.values())
        errors = sum(counts[2] for counts in cells.values())
        rec.outcome(verdicts, errors)
        mismatches = matrix.mismatches()
        rec.require(mismatches == [], f"matrix mismatches: {mismatches}")
        if self.reference is not None:
            rec.require(cells == {k: tuple(v) for k, v in self.reference["cells"].items()},
                        "matrix cell counts differ from the stored ones")


def matrix_cells(matrix) -> dict[str, tuple[int, int, int]]:
    """``row / column / sub`` -> (passes, failures, errors)."""
    return {
        f"{row} / {column} / {sub}": (cell.passes, cell.failures, cell.errors)
        for row, columns in matrix.rows.items()
        for column, subs in columns.items()
        for sub, cell in subs.items()
    }


WORKLOADS = {w.name: w for w in (MarketHistory, CsvRoundtrip, AxiomMatrix)}
