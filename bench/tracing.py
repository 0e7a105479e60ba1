"""Per-layer tracing from outside the program.

The tracer wraps functions of ``dynindex`` modules at run time; nothing
inside ``src/`` records spans. Each wrapped call becomes a span (name,
start, end, parent, engine family), kept in flat arrays while the job
runs and written out at the end. A few per-item helpers are only counted,
because a span per call would cost more than the work it measures.

A wrapper replaces the original everywhere it is looked up: in the module
that defines it and in every ``dynindex`` module that imported it by
name, such as ``cli`` importing ``evaluate`` and ``ingest_csv``.

A listed function that the program no longer has, or whose result no
longer has the shape an observer reads, is skipped and named in
``Tracer.missing``; its metrics then read zero. So a change to the
program can rename a function without breaking the traced run.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (module, qualified name, metric group) of every function that gets a span.
# ``Class.method`` names are patched on the class. Per-item helpers
# (lehr_price, deflated_price, tpd_price) and derive_seed are left out: they
# run inside the spans of their callers and are part of those self times.
SPANNED = (
    ("core", "Dataset.build", "core.dataset_build"),
    ("core", "Dataset.__post_init__", "core.dataset_build"),
    ("core", "PeriodData.__post_init__", "core.dataset_build"),
    ("core", "Dataset.validate", "core.validate"),
    ("dataio", "ingest_csv", "dataio.ingest"),
    ("dataio", "format_csv", "dataio.format"),
    ("dataio", "emit_csv", "dataio.format"),
    ("dataio", "render_report", "dataio.write_report"),
    ("dataio", "write_report", "dataio.write_report"),
    ("references", "reference_prices", "references.reference_prices"),
    ("references", "solve_fixed_point", "references.solver"),
    ("engines", "evaluate", "engines"),
    ("engines", "gk_index", "engines"),
    ("engines", "mgk_index", "engines"),
    ("engines", "guv_index", "engines"),
    ("engines", "wgm_index", "engines"),
    ("engines", "tornqvist_index", "engines"),
    ("engines", "tpd_index", "engines"),
    ("engines", "geks_index", "engines"),
    ("engines", "rq_index", "engines"),
    ("engines", "rqp_index", "engines"),
    ("engines", "classical_indices", "engines"),
    ("engines", "adjusted_laspeyres", "engines"),
    ("harness", "run_matrix", "harness.run_matrix"),
    ("harness", "generate_scenario", "harness.generate_scenario"),
    ("harness", "precondition_holds", "harness.generate_scenario"),
    ("harness", "perturb_dynamic_data", "harness.perturb"),
    ("harness", "check", "harness.check"),
    ("cli", "main", "cli.main"),
)

# Methods that are only counted: they run millions of times per job.
COUNTED = (
    ("core", "Dataset.has", "core.has_calls"),
    ("core", "Dataset.observation", "core.observation_calls"),
)

FAMILIES = ("gk", "tpd", "geks", "mgk", "wgm", "rq", "rqp")
SOLVED = ("gk", "tpd")

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("core.dataset_build_s", "s"),
    ("core.validate_s", "s"),
    ("core.has_calls", "count"),
    ("core.observation_calls", "count"),
    ("dataio.ingest_s", "s"),
    ("dataio.rows_ingested", "count"),
    ("dataio.format_s", "s"),
    ("dataio.write_report_s", "s"),
    ("references.reference_prices_s", "s"),
    ("references.reference_prices_calls", "count"),
    ("references.items_priced", "count"),
    ("references.solver_s", "s"),
    *((f"references.sweeps.{f}", "count") for f in SOLVED),
    *((f"references.sweep_s.{f}", "s") for f in SOLVED),
    ("engines.evaluate_calls", "count"),
    *((f"engines.self_s.{f}", "s") for f in FAMILIES),
    ("engines.geks_legs", "count"),
    ("harness.generate_scenario_s", "s"),
    ("harness.scenarios", "count"),
    ("harness.perturb_s", "s"),
    ("harness.perturbations", "count"),
    ("harness.check_self_s", "s"),
    ("harness.verdicts", "count"),
    ("harness.engine_errors", "count"),
    ("cli.main_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

_NO_FAMILY = -1


class Tracer:
    """Spans and counters of one or more traced jobs, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_family = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._family = _NO_FAMILY
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.counts: dict[str, int] = defaultdict(int)
        self._ticks = {key: itertools.count() for _m, _q, key in COUNTED}
        self._reads: dict[str, int] = defaultdict(int)
        self._paused_ticks: dict[str, int] = defaultdict(int)
        # Switched off around the benchmark's own checks, which call the
        # program too but are not part of the measured job.
        self.recording = True

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_family.append(self._family)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, qualname: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(qualname)
        observe = self._observers().get(qualname)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.missing.add(f"{qualname} (result)")
            return result

        if qualname == "engines.evaluate":
            return self._family_scope(wrapper)
        return wrapper

    def _family_scope(self, wrapper: Callable) -> Callable:
        """Attribute everything below a top-level ``evaluate`` to its family."""
        families = {f: i for i, f in enumerate(FAMILIES)}

        def scoped(*args, **kwargs):
            outer = self._family
            if not self.recording:
                return wrapper(*args, **kwargs)
            if outer == _NO_FAMILY:
                engine = kwargs.get("engine", args[2] if len(args) > 2 else None)
                self._family = families.get(getattr(engine, "family", None), _NO_FAMILY)
            elif outer == families["geks"]:
                self.counts["engines.geks_legs"] += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                self._family = outer

        return scoped

    def _observers(self) -> dict[str, Callable]:
        counts = self.counts

        def ingested(args, kwargs, dataset):
            counts["dataio.rows_ingested"] += sum(
                len(dataset.universe(t)) for t in dataset.period_indices())

        def priced(args, kwargs, prices):
            counts["references.items_priced"] += len(prices)

        def solved(args, kwargs, result):
            family = FAMILIES[self._family] if self._family != _NO_FAMILY else None
            if family in SOLVED:
                counts[f"references.sweeps.{family}"] += result[2].iterations

        def checked(args, kwargs, verdict):
            if verdict.outcome.value == "engine-error":
                counts["harness.engine_errors"] += 1

        return {
            "dataio.ingest_csv": ingested,
            "references.reference_prices": priced,
            "references.solve_fixed_point": solved,
            "harness.check": checked,
        }

    def _counted(self, key: str, fn: Callable) -> Callable:
        # Counted methods take (dataset, period, item); a fixed signature and
        # a C-level tick keep the wrapper's cost near one extra call.
        tick = self._ticks[key].__next__

        def wrapper(dataset, t, item):
            tick()
            return fn(dataset, t, item)

        return wrapper

    def ticks(self, key: str) -> int:
        """Calls of a counted method so far, outside paused sections."""
        # Reading the counter advances it too; earlier reads are subtracted.
        value = next(self._ticks[key]) - self._reads[key]
        self._reads[key] += 1
        return value - self._paused_ticks[key]

    @contextlib.contextmanager
    def paused(self):
        """Record nothing while the benchmark's own checks call the program."""
        before = {key: self.ticks(key) for key in self._ticks}
        self.recording = False
        try:
            yield
        finally:
            self.recording = True
            for key, count in before.items():
                self._paused_ticks[key] += self.ticks(key) - count

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever ``dynindex`` looks it up."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "dynindex" or name.startswith("dynindex.")
        }
        for module_name, qualname, _group in SPANNED:
            self._replace(modules, module_name, qualname,
                          lambda fn, q=f"{module_name}.{qualname}": self._spanned(q, fn))
        for module_name, qualname, key in COUNTED:
            self._replace(modules, module_name, qualname,
                          lambda fn, k=key: self._counted(k, fn))

    def _replace(self, modules, module_name: str, qualname: str, make: Callable) -> None:
        home = modules.get(f"dynindex.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if attr not in getattr(owner, "__dict__", {}):
            self.missing.add(f"{module_name}.{qualname}")
            return
        if owner_name:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        original = getattr(home, qualname)
        wrapped = make(original)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.span_start, self.span_end)]
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= self.span_end[index] - self.span_start[index]
        return own

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics per traced job (``trace.overhead_s`` excluded)."""
        group_of = {f"{m}.{q}": g for m, q, g in SPANNED}
        own = self.self_times()
        by_group: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        engine_self: dict[str, float] = defaultdict(float)
        solver_total: dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.span_name):
            qualname = self.names[name_id]
            group = group_of[qualname]
            by_group[group] += own[index]
            calls[qualname] += 1
            family_id = self.span_family[index]
            family = FAMILIES[family_id] if family_id != _NO_FAMILY else None
            if group == "engines" and family is not None:
                engine_self[family] += own[index]
            if qualname == "references.solve_fixed_point" and family in SOLVED:
                solver_total[family] += self.span_end[index] - self.span_start[index]

        metrics = {
            "core.dataset_build_s": by_group["core.dataset_build"],
            "core.validate_s": by_group["core.validate"],
            "core.has_calls": self.ticks("core.has_calls"),
            "core.observation_calls": self.ticks("core.observation_calls"),
            "dataio.ingest_s": by_group["dataio.ingest"],
            "dataio.rows_ingested": self.counts["dataio.rows_ingested"],
            "dataio.format_s": by_group["dataio.format"],
            "dataio.write_report_s": by_group["dataio.write_report"],
            "references.reference_prices_s": by_group["references.reference_prices"],
            "references.reference_prices_calls": calls["references.reference_prices"],
            "references.items_priced": self.counts["references.items_priced"],
            "references.solver_s": by_group["references.solver"],
            "engines.evaluate_calls": calls["engines.evaluate"],
            "engines.geks_legs": self.counts["engines.geks_legs"],
            "harness.generate_scenario_s": by_group["harness.generate_scenario"],
            "harness.scenarios": calls["harness.generate_scenario"],
            "harness.perturb_s": by_group["harness.perturb"],
            "harness.perturbations": calls["harness.perturb_dynamic_data"],
            "harness.check_self_s": by_group["harness.check"],
            "harness.verdicts": calls["harness.check"],
            "harness.engine_errors": self.counts["harness.engine_errors"],
            "cli.main_self_s": by_group["cli.main"],
            "trace.spans": len(self.span_start),
        }
        for family in SOLVED:
            sweeps = self.counts[f"references.sweeps.{family}"]
            metrics[f"references.sweeps.{family}"] = sweeps
            metrics[f"references.sweep_s.{family}"] = solver_total[family] / sweeps if sweeps else 0.0
        for family in FAMILIES:
            metrics[f"engines.self_s.{family}"] = engine_self[family]
        units = dict(LAYER_METRICS)
        per_job = {}
        for name, value in metrics.items():
            if name.startswith("references.sweep_s."):
                per_job[name] = value
            elif units[name] == "count" and value % jobs == 0:
                per_job[name] = value // jobs
            else:
                per_job[name] = value / jobs
        return per_job

    def write_spans(self, path: Path) -> None:
        """Write every span as ``name,start,end,parent,family`` (seconds, perf_counter)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,family\n")
            for index, name_id in enumerate(self.span_name):
                family_id = self.span_family[index]
                family = FAMILIES[family_id] if family_id != _NO_FAMILY else ""
                handle.write(
                    f"{self.names[name_id]},{self.span_start[index]!r},"
                    f"{self.span_end[index]!r},{self.span_parent[index]},{family}\n"
                )
