"""Command-line front end.

Subcommands:
  compute <file>   per-bipartition report for a density-matrix JSON file
  sweep            parameter sweep over a named family, written as CSV
  random           seeded random-state demonstration (per-bipartition values
                   generally differ)

Exit codes: 0 success, 2 bad input/config, 3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .analytic import closed_form_for
from .core import LquReport, NumericalContractViolation, lqu_all
from .linalg import NoConvergence
from .states import (
    FAMILY_NAMES,
    build_state,
    check_param,
    load_density_matrix,
    output_file,
    qubit_dimension,
    save_density_matrix,
    validate,
)


def _fmt(x: float) -> str:
    """12 significant digits, shortest form."""
    return format(float(x), ".12g")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _check_sweep(args) -> None:
    """Reject a sweep's arguments before --out is opened or anything computed."""
    if args.family == "random":
        if args.qubits is None or args.seed is None:
            raise ValueError("--family random requires --qubits and --seed")
        qubit_dimension(args.qubits)
        _check_seed(args.seed)
    elif args.qubits is not None or args.seed is not None:
        raise ValueError(f"--qubits and --seed apply to --family random only, "
                         f"not to {args.family!r}")
    if args.steps < 2:
        raise ValueError(f"steps must be >= 2, got {args.steps}")
    if args.param_from > args.param_to:
        raise ValueError(
            f"--from ({args.param_from}) must not exceed --to ({args.param_to})"
        )
    for name, p in (("--from", args.param_from), ("--to", args.param_to)):
        try:
            check_param(p, kay=args.family == "kay")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _report_lines(report: LquReport) -> list[str]:
    lines = [f"q{i} {_fmt(v)}" for i, v in enumerate(report.per_bipartition)]
    lines.append(f"mean {_fmt(report.mean)}")
    return lines


def cmd_compute(args) -> int:
    rho = load_density_matrix(args.file)
    violations = validate(rho)
    if violations:
        detail = ", ".join(str(v) for v in violations)
        raise ValueError(f"{args.file} is not a valid density matrix: {detail}")
    for line in _report_lines(lqu_all(rho)):
        print(line)
    return 0


def sweep_rows(args, params: np.ndarray) -> tuple[list[str], list[list[str]]]:
    """Evaluate the sweep the parsed arguments describe at the grid params;
    returns (header, rows) ready for CSV writing."""
    formula = closed_form_for(args.family)
    rows: list[list[str]] = []
    for p in params:
        p = float(p)
        rho = build_state(args.family, p, args.qubits, args.seed)
        report = lqu_all(rho)
        analytic = _fmt(formula(p)) if formula is not None else ""
        rows.append(
            [_fmt(p)]
            + [_fmt(v) for v in report.per_bipartition]
            + [_fmt(report.mean), analytic]
        )
    header = ["param"] + [f"q{i}" for i in range(rho.n_qubits)] + ["mean", "analytic"]
    return header, rows


def cmd_sweep(args) -> int:
    _check_sweep(args)
    # np.linspace pins both endpoints exactly; interior points are uniform.
    # Built first: a grid numpy refuses must not cost the user's --out file.
    params = np.linspace(args.param_from, args.param_to, args.steps)
    # Open before computing, so a bad path fails before any work is done.
    with output_file(args.out) as fh:
        header, rows = sweep_rows(args, params)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def cmd_random(args) -> int:
    if not 0.0 <= args.pure_fraction <= 1.0:
        raise ValueError(f"--pure-fraction {args.pure_fraction} outside [0, 1]")
    _check_seed(args.seed)
    rho = build_state("random", 1.0 - args.pure_fraction, args.qubits, args.seed)
    if args.dump:
        save_density_matrix(rho, args.dump)
    for line in _report_lines(lqu_all(rho)):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqu",
        description="Local quantum uncertainty for N-qubit states: "
        "per-bipartition values and their mean.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="report for a density-matrix JSON file")
    p_compute.add_argument("file", help="path to density-matrix JSON")
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="parameter sweep written as CSV")
    p_sweep.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_sweep.add_argument("--from", dest="param_from", type=float, required=True,
                         metavar="A", help="first parameter value")
    p_sweep.add_argument("--to", dest="param_to", type=float, required=True,
                         metavar="B", help="last parameter value")
    p_sweep.add_argument("--steps", type=int, required=True,
                         help="number of grid points (>= 2)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--qubits", type=int, help="qubit count (random family)")
    p_sweep.add_argument("--seed", type=int, help="RNG seed (random family)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_random = sub.add_parser("random", help="seeded random-state demonstration")
    p_random.add_argument("--qubits", type=int, required=True)
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--pure-fraction", type=float, required=True,
                          help="random-state weight; white noise gets the rest")
    p_random.add_argument("--dump", help="also write the density matrix as JSON")
    p_random.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalContractViolation, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the failed allocation; a bare one is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
