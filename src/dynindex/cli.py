"""Command-line interface.

Subcommands: compute (index values from a CSV), matrix (the randomized
verdict summary), closed-forms (hand-solvable oracle checks), synth
(synthetic churn market to CSV), counterexample (randomized search for a
witnessed failure). The default seed comes from DYNINDEX_SEED. Only the
commands that run the test harness or the synthetic market import them.

Exit codes: 0 success; 2 witnessed mismatch in ``matrix --expect-table1``
or a failing closed-form check; 3 counterexample not found within
budget; 64 usage; 65 malformed data; 70 engine failure; 74 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from ._version import __version__
from .core import (
    AxiomTest,
    Bilateral,
    ComparisonSpec,
    FullHistory,
    InvalidComparisonError,
    PriceIndexError,
    RollingWindow,
    UnknownPeriodError,
)
from .dataio import CsvError, emit_csv, ingest_csv, write_report
from .engines import (
    CHAINABLE_FAMILIES,
    ENGINE_FAMILIES,
    TABLE1_ROWS,
    EngineSpec,
    ImputationPolicy,
    evaluate,
)
from .references import (
    ArithmeticMeanQuantity,
    BaseQuantity,
    CurrentQuantity,
    DeflatedUnitValue,
    ExpenditureOverReferencePrice,
    FixedBase,
    LehrUnitValue,
    TPDGeometric,
    require_tolerance,
)

EX_OK = 0
EX_MISMATCH = 2
EX_NOT_FOUND = 3
EX_USAGE = 64
EX_DATA = 65
EX_ENGINE = 70
EX_IO = 74

_PRICE_SCHEMES = {
    "lehr": LehrUnitValue,
    "fixed-base": FixedBase,
    "deflated": DeflatedUnitValue,
    "tpd": TPDGeometric,
}
_QUANTITY_SCHEMES = {
    "mean": ArithmeticMeanQuantity,
    "base": BaseQuantity,
    "current": CurrentQuantity,
    "expenditure": ExpenditureOverReferencePrice,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get("DYNINDEX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DYNINDEX_SEED must be an integer, got {raw!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="dynindex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynindex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser("compute", help="compute an index value from a CSV dataset")
    compute.add_argument("--input", "-i", required=True, help="CSV path, or - for stdin")
    compute.add_argument("--engine", "-e", required=True, choices=ENGINE_FAMILIES)
    compute.add_argument("--base", type=int, required=True)
    compute.add_argument("--current", type=int, required=True)
    compute.add_argument("--policy", choices=("bilateral", "full-history", "rolling"),
                         default="bilateral")
    compute.add_argument("--window", type=int, default=13, help="rolling window length")
    compute.add_argument("--reference-price", choices=sorted(_PRICE_SCHEMES),
                         default="lehr")
    compute.add_argument("--quantity-scheme", choices=sorted(_QUANTITY_SCHEMES),
                         default="mean")
    compute.add_argument("--alpha", type=float, default=0.5)
    compute.add_argument("--birth-markup", type=float, default=1.05)
    compute.add_argument("--death-markup", type=float, default=1.05)
    compute.add_argument("--inner", choices=CHAINABLE_FAMILIES, default="mgk",
                         help="bilateral engine chained by geks")
    compute.add_argument("--series", action="store_true",
                         help="print the whole per-period series")
    compute.add_argument("--json", help="also write a machine-readable report here")

    matrix = sub.add_parser("matrix", help="run the randomized verdict summary")
    matrix.add_argument("--trials", type=int, default=200)
    matrix.add_argument("--seed", type=int, default=None)
    matrix.add_argument("--tolerance", type=float, default=1e-9)
    matrix.add_argument("--batch", type=int, default=20,
                        help="perturbations per responsiveness scenario")
    matrix.add_argument("--rows", default=",".join(TABLE1_ROWS),
                        help=f"comma list from: {', '.join(ENGINE_FAMILIES)}")
    matrix.add_argument("--expect-table1", action="store_true",
                        help="exit 2 unless every cell that ran matches the expected "
                             "summary; every row must be a Table-1 row")
    matrix.add_argument("--json", help="write a machine-readable report here")

    closed = sub.add_parser("closed-forms", help="check engines against closed forms")
    closed.add_argument("--seed", type=int, default=None)
    closed.add_argument("--tolerance", type=float, default=1e-9)
    closed.add_argument("--json", help="write a machine-readable report here")

    synth_cmd = sub.add_parser("synth", help="emit a synthetic churn market as CSV")
    synth_cmd.add_argument("--periods", type=int, default=5)
    synth_cmd.add_argument("--items", type=int, default=20)
    synth_cmd.add_argument("--churn", type=float, default=0.2)
    synth_cmd.add_argument("--drift", type=float, default=0.0)
    synth_cmd.add_argument("--drift-sd", type=float, default=0.1)
    synth_cmd.add_argument("--decline", type=float, default=0.0)
    synth_cmd.add_argument("--quantity-sd", type=float, default=0.5)
    synth_cmd.add_argument("--elasticity", type=float, default=0.0)
    synth_cmd.add_argument("--seed", type=int, default=None)
    synth_cmd.add_argument("--out", help="output CSV path (default stdout)")

    counter = sub.add_parser("counterexample", help="search for a witnessed failure")
    counter.add_argument("--test", required=True,
                         choices=[t.value for t in AxiomTest] + ["transitivity"])
    counter.add_argument("--engine", choices=ENGINE_FAMILIES, default="mgk")
    counter.add_argument("--inner", choices=CHAINABLE_FAMILIES, default="mgk")
    counter.add_argument("--budget", type=int, default=100)
    counter.add_argument("--seed", type=int, default=None)
    counter.add_argument("--items", type=int, default=6)
    counter.add_argument("--periods", type=int, default=3)
    counter.add_argument("--churn", type=float, default=0.2)
    counter.add_argument("--policy", choices=("bilateral", "full-history"),
                         default="full-history")
    counter.add_argument("--setting", choices=("expanding", "shrinking", "both"),
                         default="both")
    counter.add_argument("--tolerance", type=float, default=1e-9)
    return parser


def _policy_from_args(args: argparse.Namespace):
    if args.policy == "bilateral":
        return Bilateral()
    if args.policy == "full-history":
        return FullHistory()
    return RollingWindow(args.window)


def _engine_from_args(args: argparse.Namespace) -> EngineSpec:
    """Every compute engine option; a family ignores the ones it does not read."""
    return EngineSpec(
        args.engine,
        reference_price=_PRICE_SCHEMES[args.reference_price](),
        reference_quantity=_QUANTITY_SCHEMES[args.quantity_scheme](),
        alpha=args.alpha,
        imputation=ImputationPolicy(args.birth_markup, args.death_markup),
        inner=EngineSpec(args.inner),
    )


def _cmd_compute(args: argparse.Namespace) -> int:
    dataset = ingest_csv(sys.stdin if args.input == "-" else args.input)
    spec = ComparisonSpec(args.base, args.current, _policy_from_args(args))
    engine = _engine_from_args(args)
    result = evaluate(dataset, spec, engine)
    print(f"{result.value:.12g}")
    if args.series and result.series is not None:
        for period in sorted(result.series):
            print(f"{period} {result.series[period]:.12g}")
    if args.json:
        payload = {
            "command": "compute",
            "config": {
                "engine": engine.label(),
                "base": args.base,
                "current": args.current,
                "policy": args.policy,
            },
            "value": result.value,
        }
        if result.series is not None:
            payload["series"] = {str(k): v for k, v in sorted(result.series.items())}
        if result.decomposition is not None:
            payload["value_ratio"], payload["quantity_divisor"] = result.decomposition
        if result.components is not None:
            payload["components"] = dict(result.components)
        if result.diagnostics is not None:
            payload["fixed_point"] = {
                "converged": result.diagnostics.converged,
                "iterations": result.diagnostics.iterations,
                "final_residual": result.diagnostics.final_residual,
                "method": result.diagnostics.method,
            }
        write_report(args.json, payload)
    if result.diagnostics is not None and not result.diagnostics.converged:
        print(
            f"warning: fixed point not converged "
            f"(residual {result.diagnostics.final_residual:.3e})",
            file=sys.stderr,
        )
        return EX_ENGINE
    return EX_OK


def _matrix_payload(matrix) -> dict:
    cells = {
        row: {
            column: {sub or "-": dataclasses.asdict(cell) for sub, cell in subs.items()}
            for column, subs in columns.items()
        }
        for row, columns in matrix.rows.items()
    }
    return {
        "command": "matrix",
        "config": {
            "trials": matrix.trials,
            "seed": matrix.seed,
            "tolerance": matrix.tolerance,
        },
        "cells": cells,
    }


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .harness import run_matrix

    seed = args.seed if args.seed is not None else _default_seed()
    rows = [r for r in args.rows.split(",") if r]
    if args.expect_table1:
        unexpected = [r for r in rows if r not in TABLE1_ROWS]
        if unexpected:
            raise ValueError(f"--expect-table1 has no Table-1 expectation for rows {unexpected}")
    matrix = run_matrix(
        engines=rows,
        trials=args.trials,
        seed=seed,
        tolerance=args.tolerance,
        responsiveness_batch=args.batch,
    )
    print(matrix.to_text())
    if args.json:
        write_report(args.json, _matrix_payload(matrix))
    if args.expect_table1:
        mismatches = matrix.mismatches()
        if mismatches:
            for line in mismatches:
                print(f"mismatch: {line}", file=sys.stderr)
            return EX_MISMATCH
        print("all cells match the expected summary")
    return EX_OK


def _cmd_closed_forms(args: argparse.Namespace) -> int:
    from .harness import closed_form_suite

    seed = args.seed if args.seed is not None else _default_seed()
    verdicts = closed_form_suite(seed=seed, tolerance=args.tolerance)
    failures = 0
    for verdict in verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        failures += 0 if verdict.passed else 1
        actual = verdict.witness["actual"]
        expected = verdict.witness["expected"]
        print(f"{status} {verdict.test}: actual={actual:.12g} expected={expected:.12g}")
    if args.json:
        write_report(
            args.json,
            {
                "command": "closed-forms",
                "config": {"seed": seed, "tolerance": args.tolerance},
                "checks": [
                    {
                        "name": v.test,
                        "outcome": v.outcome.value,
                        "witness": dict(v.witness),
                    }
                    for v in verdicts
                ],
            },
        )
    return EX_MISMATCH if failures else EX_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    from .simulate import SynthConfig, synth

    seed = args.seed if args.seed is not None else _default_seed()
    result = synth(
        SynthConfig(
            periods=args.periods,
            initial_items=args.items,
            churn_rate=args.churn,
            drift_mean=args.drift,
            drift_sd=args.drift_sd,
            lifecycle_decline=args.decline,
            quantity_sd=args.quantity_sd,
            demand_elasticity=args.elasticity,
            seed=seed,
        )
    )
    emit_csv(result.dataset, args.out or sys.stdout)
    churn = ", ".join(f"{c:.3f}" for c in result.realized_churn)
    print(
        f"periods={args.periods} items={args.items} realized_churn=[{churn}] "
        f"mean_log_price_change={result.mean_log_price_change:.6f}",
        file=sys.stderr,
    )
    return EX_OK


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from .harness import ScenarioParams, find_counterexample, find_intransitivity_witness

    seed = args.seed if args.seed is not None else _default_seed()
    # The transitivity search does not read the tolerance, but rejects a bad one too.
    require_tolerance(args.tolerance)
    if args.test == "transitivity":
        witness = find_intransitivity_witness(
            inner=EngineSpec(args.inner),
            budget=args.budget,
            seed=seed,
            n_items=args.items,
            churn_rate=args.churn,
        )
        if witness is None:
            print(f"no witness found within {args.budget} datasets")
            return EX_NOT_FOUND
        print(json.dumps(witness, sort_keys=True))
        return EX_OK
    engine = EngineSpec(args.engine, inner=EngineSpec(args.inner))
    params = ScenarioParams(
        n_items=args.items,
        n_periods=args.periods,
        churn_fraction=args.churn,
        policy=_policy_from_args(args),
        setting=args.setting,
    )
    verdict = find_counterexample(
        engine, AxiomTest(args.test), args.budget, seed, params, args.tolerance
    )
    if verdict is None:
        print(f"no counterexample found within {args.budget} scenarios")
        return EX_NOT_FOUND
    print(json.dumps({"test": verdict.test, "engine": verdict.engine,
                      "witness": dict(verdict.witness)}, sort_keys=True))
    return EX_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "matrix": _cmd_matrix,
    "closed-forms": _cmd_closed_forms,
    "synth": _cmd_synth,
    "counterexample": _cmd_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CsvError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EX_DATA
    except (InvalidComparisonError, UnknownPeriodError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except PriceIndexError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EX_ENGINE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EX_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
