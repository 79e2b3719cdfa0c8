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
from collections.abc import Iterator
from functools import cache
from itertools import chain

import numpy as np

from .analytic import check_noise
from .core import LquReport, NumericalContractViolation, lqu_all
from .linalg import NoConvergence
from .states import (
    FAMILY_NAMES,
    InvalidDensityMatrix,
    build_states,
    check_seed,
    check_seeded,
    closed_form_for,
    family_row,
    load_density_matrix,
    mix_white_noise,
    output_file,
    qubit_dimension,
    random_pure,
    save_density_matrix,
)


def _fmt(x: float) -> str:
    """12 significant digits, shortest form."""
    return format(float(x), ".12g")


def _check_sweep(args) -> None:
    """Reject a sweep's arguments before --out is opened or anything computed."""
    rule = family_row(args.family)[0]
    if check_seeded(args.family, args.qubits, args.seed, ("--qubits", "--seed")):
        qubit_dimension(args.qubits)
        check_seed(args.seed, "--seed")
    if args.steps < 2:
        raise ValueError(f"steps must be >= 2, got {args.steps}")
    if args.param_from > args.param_to:
        raise ValueError(
            f"--from ({args.param_from}) must not exceed --to ({args.param_to})"
        )
    for name, p in (("--from", args.param_from), ("--to", args.param_to)):
        try:
            rule(p)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _report_lines(report: LquReport) -> list[str]:
    lines = [f"q{i} {_fmt(v)}" for i, v in enumerate(report.per_bipartition)]
    lines.append(f"mean {_fmt(report.mean)}")
    return lines


def cmd_compute(args) -> int:
    rho = load_density_matrix(args.file)
    try:
        report = lqu_all(rho)
    except InvalidDensityMatrix as exc:
        raise ValueError(f"{args.file} is {exc}") from None
    for line in _report_lines(report):
        print(line)
    return 0


def sweep_rows(args, params: np.ndarray) -> Iterator[list[str]]:
    """The sweep the parsed arguments describe at the grid params, as CSV
    rows: the header, named from the first state, then one row per point,
    each as build_states yields its state."""
    formula = closed_form_for(args.family)
    states = build_states(args.family, params, args.qubits, args.seed)
    first = next(states)
    yield ["param"] + [f"q{k}" for k in range(first.n_qubits)] + ["mean", "analytic"]
    # each p a Python float, the type the closed forms are written for
    for p, rho in zip(map(float, params), chain([first], states)):
        report = lqu_all(rho)
        analytic = _fmt(formula(p)) if formula is not None else ""
        yield ([_fmt(p)] + [_fmt(v) for v in report.per_bipartition]
               + [_fmt(report.mean), analytic])


def cmd_sweep(args) -> int:
    _check_sweep(args)
    # np.linspace pins both endpoints exactly; interior points are uniform.
    # Built first: a grid numpy refuses must not cost the user's --out file.
    # numpy refuses a grid too large to index or to hold, and near 2^63
    # points builds an empty one and then fails to index it.
    try:
        params = np.linspace(args.param_from, args.param_to, args.steps)
    except (ValueError, MemoryError, IndexError) as exc:
        raise ValueError(f"--steps {args.steps}: {exc}") from None
    # Open before computing, so a bad path fails before any work is done.
    with output_file(args.out) as fh:
        csv.writer(fh, lineterminator="\n").writerows(sweep_rows(args, params))
    return 0


def cmd_random(args) -> int:
    check_noise(args.pure_fraction, "--pure-fraction")  # not 1 - it, which can round into range
    check_seed(args.seed, "--seed")
    # a matrix, decomposed as compute decomposes the --dump file
    rho = mix_white_noise(random_pure(args.qubits, args.seed), 1.0 - args.pure_fraction)
    if args.dump:
        save_density_matrix(rho, args.dump)
    for line in _report_lines(lqu_all(rho)):
        print(line)
    return 0


@cache  # built once per process: parse_args leaves the parser unchanged
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
