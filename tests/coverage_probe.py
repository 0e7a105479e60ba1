"""Print each line of the package's source that the Tier-1 suite never runs.

    python tests/coverage_probe.py [pytest arguments]
    python tests/coverage_probe.py --workloads

Runs pytest in this process (on this directory unless arguments are given)
under a ``sys.settrace`` hook that records every line executed in a file
of the ``src/dynindex/`` next to this file, then prints each executable
line that never ran as ``file:line: source`` and a count. A line is
executable when the compiled module's code objects map an instruction to
it (``co_lines``). Only the standard library is used; tracing slows the
suite about threefold. pytest does not collect this file: its name does
not start with ``test_``.

With ``--workloads`` it traces one job of each workload of
``bench/workloads.py`` at seed 1 in place of pytest, and so prints the
lines that the benchmark's traffic never runs. Inputs are generated
before tracing starts, in a temporary directory.

A forked child (the fork helper's workers of the verdict matrix and of
CSV ingestion and emission) inherits the hook. An ``os.register_at_fork``
handler empties the child's record of lines and wraps ``os._exit``,
through which every such child leaves, so that the child writes the lines
it ran to a file named by its pid before it exits; the calling process
merges those files once the traced run returns.

Lines expected to stay unreached, and why:

- the ``...`` bodies of ``Protocol`` methods, which are never called;
- ``cli``'s ``if __name__ == "__main__":`` body, as the suite calls
  ``main`` directly.
"""

from __future__ import annotations

import marshal
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, TypeVar

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dynindex"
BENCH = TESTS.parent / "bench"
sys.path.insert(0, str(PACKAGE.parent))
T = TypeVar("T")


def executable_lines(path: Path) -> set[int]:
    """The lines that the module's code objects map an instruction to."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced(run: Callable[[], T]) -> tuple[T, dict[str, set[int]]]:
    """What ``run()`` returns and, per source file of the package, the lines that ran."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    children = tempfile.mkdtemp(prefix="coverage-probe-")
    real_exit = os._exit

    def exit_writing_hits(status):
        # renamed once whole: a child killed while writing leaves only a .part file
        path = os.path.join(children, str(os.getpid()))
        try:
            with open(f"{path}.part", "wb") as out:
                marshal.dump({name: sorted(lines) for name, lines in hits.items()}, out)
            os.replace(f"{path}.part", f"{path}.marshal")
        finally:  # a child must never return into the suite
            real_exit(status)

    def in_child():
        if sys.gettrace() is tracer:  # a fork while run() runs traced
            for lines in hits.values():  # local adds to the sets it finds
                lines.clear()
            os._exit = exit_writing_hits

    os.register_at_fork(after_in_child=in_child)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        result = run()
    finally:
        threading.settrace(None)
        sys.settrace(None)
        for record in Path(children).glob("*.marshal"):
            for filename, lines in marshal.loads(record.read_bytes()).items():
                hits.setdefault(filename, set()).update(lines)
        shutil.rmtree(children)
    return result, hits


def run_workloads() -> tuple[int, dict[str, set[int]]]:
    """One job of each benchmark workload at seed 1, traced: failed operations, lines run.

    The workloads of ``bench/workloads.py`` prepare their inputs, in a
    temporary directory, before tracing starts; then the package is
    imported and each workload builds its inputs and runs one job, with
    as many workers as it would have. The jobs' checks do not run: they
    recompute values through the package and are not its traffic.
    """
    sys.path.insert(0, str(BENCH))
    import workloads

    with tempfile.TemporaryDirectory(prefix="coverage-probe-workloads-") as out:
        rec = workloads.Recorder()
        prepared = []
        for kind in workloads.WORKLOADS.values():
            workload = kind(1, Path(out), None)
            workload.prepare(rec)
            prepared.append(workload)

        def jobs() -> int:
            import dynindex
            import dynindex.cli  # the csv-roundtrip job runs dynindex.cli.main

            for workload in prepared:
                inputs = workload.build(dynindex)
                workload.release_inputs()
                workload.job(dynindex, inputs, rec, lambda check, *args: None)
            return rec.failed

        try:
            failed, hits = run_traced(jobs)
        finally:
            for workload in prepared:
                workload.cleanup()
    for problem in rec.problems:
        print(f"problem: {problem}")
    return failed, hits


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--workloads"]:
        failed, hits = run_workloads()
        code = 1 if failed else 0
    else:
        import pytest

        code, hits = run_traced(
            lambda: int(pytest.main(args or ["-q", "-p", "no:cacheprovider", str(TESTS)])))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        never = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(PACKAGE.parent)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran; {missed} never ran "
          f"(exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
