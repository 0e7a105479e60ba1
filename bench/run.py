"""Run the dynindex benchmark.

One workload, in this interpreter (what a benchmark driver calls):

    python3 bench/run.py --workload market-history --seed 1 --seconds 36 --trace 0

Every workload, each in a fresh interpreter, untraced and then traced:

    python3 bench/run.py [--seed 0] [--seconds 36]

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer ones. The end-to-end metrics are the set-up
time, the peak resident memory, and the job's cost in ``ref-loops``: the
sum and the geometric mean over its operations of each operation's median
cost, a call's time divided by that of a fixed reference loop run beside
it (see ``workloads.Recorder``). The set-up time is measured the same way
and given in seconds at a fixed speed of the reference loop (see
``set_up``). Wall times of set-up and of every operation
are printed as well. Each run prints one line per metric,
then one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` as its last line, and writes its full record, with run
metadata, under ``bench/_out/``. It exits 1 if a correctness check failed
and 2 if the program cannot be found.

``reference.json`` holds the input digests and the program's outputs at
the default seed, as computed when the benchmark was defined; a run with
that seed checks every value against them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
REFERENCE = BENCH / "reference.json"
RUN_SECONDS = 36
# Set-up is repeated and its median reported; a single import is too short
# to read steadily on a shared machine.
SETUP_ROUNDS = 15
# The reference loop's median time on a 2.1 GHz Xeon under Python 3.11
# when the benchmark was defined. Set-up costs, in ref-loops like the
# operations, are reported in seconds at this speed.
REFERENCE_SECONDS = 0.005
# A traced run keeps every span in memory and writes them all out, so it
# stops after this many traced jobs even if time is left.
TRACED_JOBS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_cost", "ref-loops"),
    ("op_cost_geomean", "ref-loops"),
)


class ProgramMissing(Exception):
    """``src/dynindex`` is absent or another copy of the package was imported."""


def load_program():
    """Import ``dynindex`` and its CLI afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "dynindex" or n.startswith("dynindex.")]:
        del sys.modules[name]
    dx = importlib.import_module("dynindex")
    importlib.import_module("dynindex.cli")
    return dx


def set_up(workload: workloads.Workload):
    """Import the program and build the workload's inputs, several times.

    Each round is timed between two reference loops, as an operation is
    (see ``workloads.Recorder``), because a set-up read in plain seconds
    moves by a third between runs with the load other tenants put on the
    machine. Returns the median round cost converted to seconds at
    ``REFERENCE_SECONDS`` per reference loop, the median wall time of a
    round, the package and the last inputs.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    costs, times = [], []
    dx = inputs = None
    for _ in range(SETUP_ROUNDS):
        dx = inputs = None
        before = workloads.reference_time()
        start = perf_counter()
        dx = load_program()
        inputs = workload.build(dx)
        times.append(perf_counter() - start)
        costs.append(2 * times[-1] / (before + workloads.reference_time()))
    if Path(dx.__file__).resolve().parent != (SRC / "dynindex").resolve():
        raise ProgramMissing(f"imported dynindex from {dx.__file__}, not from {SRC}")
    return statistics.median(costs) * REFERENCE_SECONDS, statistics.median(times), dx, inputs


def closed_loop(job, seconds: float, limit: int | None = None) -> None:
    """Call ``job`` until the next call would end after ``seconds``; at least once."""
    start = perf_counter()
    calls = 0
    while True:
        began = perf_counter()
        job()
        calls += 1
        took = perf_counter() - began
        if perf_counter() - start + took > seconds or calls == limit:
            return


def check_directly(check, *args) -> None:
    check(*args)


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, and its value.

    None below twenty samples, where that percentile would be under the median.
    """
    n = len(times)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(times)[math.ceil(p * n / 100) - 1]


def end_to_end(workload, rec: workloads.Recorder, setup_s: float) -> dict[str, float]:
    costs = [statistics.median(rec.costs(op)) for op in workload.ops]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_cost": math.fsum(costs),
        "op_cost_geomean": math.exp(math.fsum(math.log(c) for c in costs) / len(costs)),
    }


def traced_build(workload: workloads.Workload, dx) -> dict[str, float]:
    """Per-layer metrics of building the workload's inputs once more, traced."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.build(dx)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.layer_metrics(1).items() if not k.startswith("trace.")}


def traced(workload, dx, inputs, rec, seconds: float,
           setup: dict[str, float]) -> tuple[dict[str, float], tracing.Tracer]:
    """Alternate untraced and traced jobs.

    The per-layer metrics are those of one set-up plus those of one traced
    job, averaged over the traced jobs.
    """
    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}

    def check_untraced(check, *args) -> None:
        with tracer.paused():
            check(*args)

    def pair() -> None:
        start = perf_counter()
        workload.job(dx, inputs, rec, check_directly)
        walls[False].append(perf_counter() - start)
        tracer.install()
        try:
            start = perf_counter()
            workload.job(dx, inputs, rec, check_untraced)
            walls[True].append(perf_counter() - start)
        finally:
            tracer.uninstall()

    closed_loop(pair, seconds, TRACED_JOBS)
    metrics = tracer.layer_metrics(len(walls[True]))
    for name, value in setup.items():
        metrics[name] += value
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, tracer


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "dynindex" / "__init__.py").is_file():
        print(f"cannot load the program: no dynindex package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name](seed, OUT, reference.get(name))
    rec = workloads.Recorder()
    metadata = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "commit": commit(),
    }
    print(" ".join(f"{k}={v}" for k, v in metadata.items()), flush=True)
    try:
        workload.prepare(rec)
        try:
            setup_s, setup_wall_s, dx, inputs = set_up(workload)
        except (ProgramMissing, ImportError) as exc:
            print(f"cannot load the program: {exc}", file=sys.stderr)
            return 2
        setup = traced_build(workload, dx) if trace else {}
        workload.release_inputs()
        if trace:
            metrics, tracer = traced(workload, dx, inputs, rec, seconds, setup)
        else:
            closed_loop(lambda: workload.job(dx, inputs, rec, check_directly), seconds)
            tracer = None
    finally:
        workload.cleanup()

    if not all(rec.times(op) for op in workload.ops):
        for problem in rec.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1
    if trace:
        units = dict(tracing.LAYER_METRICS)
    else:
        units = dict(END_TO_END)
        metrics = end_to_end(workload, rec, setup_s)
    ops = {
        op: {"calls": len(rec.times(op)), "median_s": statistics.median(rec.times(op)),
             "fastest_s": min(rec.times(op)), "tail": tail_percentile(rec.times(op)),
             "cost": statistics.median(rec.costs(op))}
        for op in workload.ops
    }
    if not trace:
        print(f"setup {setup_wall_s:.6f} s (median wall time of {SETUP_ROUNDS})")
        for op, o in ops.items():
            tail = f"p{o['tail'][0]} {o['tail'][1]:.6f} s; " if o["tail"] else ""
            print(f"{op} {o['median_s']:.6f} s (median of {o['calls']}; {tail}fastest "
                  f"{o['fastest_s']:.6f} s; cost {o['cost']:.6g} ref-loops)")
    for metric, unit in units.items():
        print(f"{metric} {metrics[metric]:.6g} {unit}")
    failed_share = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"failed_share {failed_share:.6g} ({rec.failed}/{rec.attempted})")
    for problem in rec.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "metadata": metadata, "correct": not rec.problems, "problems": rec.problems,
        "attempted": rec.attempted, "failed": rec.failed, "failed_share": failed_share,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "operations": ops, "calls": rec.calls,
        "metrics": metrics,
    }
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.csv"))
        record["untraced"] = sorted(tracer.missing)
        for missing in record["untraced"]:
            print(f"not traced, absent from the program or changed: {missing}", file=sys.stderr)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if not rec.problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own interpreter, untraced then traced, one after another."""
    status = 0
    summary = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            summary.append((name, trace, result))
    print("\nworkload        trace  correct  failed/attempted  metrics")
    for name, trace, result in summary:
        shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                          if trace == 0 or k == "trace.overhead_s")
        print(f"{name:15} {trace:5}  {str(result['correct']):7}  "
              f"{result['failed']}/{result['attempted']:<14}  {shown}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
