"""Print a digest of run_matrix's cells, to compare two checkouts.

    python tests/matrix_digest.py --seed S [--trials 200]

The digest is the sha256 of every cell's row, column, sub-cell, label,
pass/failure/error counts and witness, its floats as float.hex, in the
matrix's order. Two checkouts that print the same digest at a seed
computed the same verdicts and witnesses bit for bit. The package is
imported from the ``src/`` next to this file. pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dynindex import run_matrix  # noqa: E402


def cell_lines(matrix) -> list[str]:
    """One JSON line per cell, in the matrix's row, column and sub-cell order."""
    lines = []
    for row, columns in matrix.rows.items():
        for column, subs in columns.items():
            for sub, cell in subs.items():
                witness = None if cell.witness is None else {
                    k: v.hex() if isinstance(v, float) else v for k, v in cell.witness.items()}
                lines.append(json.dumps([row, column, sub, cell.label, cell.passes,
                                         cell.failures, cell.errors, witness]))
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args(argv)
    lines = cell_lines(run_matrix(trials=args.trials, seed=args.seed))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"seed {args.seed} trials {args.trials} cells {len(lines)} sha256 {digest}")


if __name__ == "__main__":
    main()
