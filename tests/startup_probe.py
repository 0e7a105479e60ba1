"""Print what importing dynindex loads and how long a warm re-import takes.

    python tests/startup_probe.py [--rounds N]

Lists the ``dynindex`` modules that ``import dynindex`` and
``import dynindex.cli`` load, then drops every ``dynindex`` module from
``sys.modules`` and imports both again, N times, and prints the median
time of one round. Where no bytecode cache was written
(PYTHONDONTWRITEBYTECODE), every round compiles the package's sources
again; the standard library stays loaded, so the rounds time the package
alone. The package is
imported from the ``src/`` next to this file. pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def loaded() -> list[str]:
    return sorted(name for name in sys.modules if name.split(".")[0] == "dynindex")


def reimport() -> float:
    """Seconds to import dynindex and dynindex.cli with no dynindex module loaded."""
    for name in loaded():
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("dynindex")
    importlib.import_module("dynindex.cli")
    return perf_counter() - start


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    first = reimport()
    print("loaded:", " ".join(loaded()))
    times = [reimport() for _ in range(args.rounds)]
    writes = "off" if sys.dont_write_bytecode else "on"
    print(f"first import {first * 1e3:.1f} ms; warm re-import median "
          f"{statistics.median(times) * 1e3:.1f} ms over {args.rounds} rounds "
          f"(bytecode writing {writes})")


if __name__ == "__main__":
    main()
