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

A forked child (the fork helper's workers of the verdict matrix and of
CSV ingestion and emission) inherits the hook. An ``os.register_at_fork``
handler empties the child's record of lines and wraps ``os._exit``,
through which every such child leaves, so that the child writes the lines
it ran to a file named by its pid before it exits; the calling process
merges those files once pytest returns.

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
        if sys.gettrace() is tracer:  # a fork while pytest runs traced
            for lines in hits.values():  # local adds to the sets it finds
                lines.clear()
            os._exit = exit_writing_hits

    os.register_at_fork(after_in_child=in_child)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        threading.settrace(None)
        sys.settrace(None)
        for record in Path(children).glob("*.marshal"):
            for filename, lines in marshal.loads(record.read_bytes()).items():
                hits.setdefault(filename, set()).update(lines)
        shutil.rmtree(children)
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
