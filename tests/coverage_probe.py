"""Print each line of the package's source that the Tier-1 suite never runs.

    python tests/coverage_probe.py [pytest arguments]

Runs pytest in this process (on this directory unless arguments are given)
under a ``sys.settrace`` hook that records every line executed in a file
of the ``src/dynindex/`` next to this file, then prints each executable
line that never ran as ``file:line: source`` and a count. A line is
executable when the compiled module's code objects map an instruction to
it (``co_lines``). Only the standard library is used; tracing slows the
suite about threefold. pytest does not collect this file: its name does
not start with ``test_``.

Lines expected to stay unreached, and why:

- the forked worker of the verdict matrix and of CSV ingestion and
  emission: ``_workers.interleave``'s call of ``_workers._child``, and the
  bodies of ``_child`` and ``_send``, run, but in a child process, whose
  hits stay there (``_ingest._share``'s records for a child run here too,
  for a worker whose fork was refused);
- the ``...`` bodies of ``Protocol`` methods, which are never called;
- ``cli``'s ``if __name__ == "__main__":`` body, as the suite calls
  ``main`` directly;
- the module branch of ``dynindex.__getattr__`` (``dynindex.harness`` as
  an attribute before the submodule is imported) and ``__dir__``;
- guards of states the code cannot reach: ``harness``' two "unknown test"
  raises (every ``AxiomTest`` has its branch) and ``generate_scenario``'s
  generator-bug ``InfeasibleParams``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dynindex"
sys.path.insert(0, str(PACKAGE.parent))


def executable_lines(path: Path) -> set[int]:
    """The lines that the module's code objects map an instruction to."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per source file of the package, the lines that ran."""
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

    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, hits = run_traced(args or ["-q", "-p", "no:cacheprovider", str(TESTS)])
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
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
