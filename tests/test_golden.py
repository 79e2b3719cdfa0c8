"""Byte-identity gate: CLI outputs must match the checked-in golden files.

Each file under tests/golden/ that a command writes is named once, in
GOLDENS, beside that command. Tier-1 runs every row in-process through
cli.main; CI imports this module and runs every row through the installed
`lqu` and `python -m lqu`. A change that alters any output byte (a digit of
a value, a line ending, the JSON dump's float repr) fails here; regenerate
the files only for an intended change of output.
"""

import contextlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

import pytest

from lqu import cli

from helpers import assigned_list

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"

# (command, golden of what it prints, golden of the file it writes at {out}).
# {golden} is tests/golden; a row with no printed golden must print nothing.
GOLDENS = [
    ("random --qubits 5 --seed 7 --pure-fraction 0.6 --dump {out}",
     "random_q5_s7.txt", "random_q5_s7.json"),
    ("compute {golden}/random_q5_s7.json", "compute_q5_s7.txt", None),
    # Full rank, so the dense route, at N = 7: the block-Gram oracle in
    # test_core reaches N = 8, but no golden above goes past N = 5.
    ("random --qubits 7 --seed 7 --pure-fraction 0.6", "random_q7_s7.txt", None),
    # Full rank at N = 9, the size of the benchmark's file workloads, where
    # each qubit's block Gram sums over d^2/4 = 65536 products; the goldens
    # above stop at N = 7.
    ("random --qubits 9 --seed 7 --pure-fraction 0.6", "random_q9_s7.txt", None),
    # Low-rank states, which take the support route in core. rank2_q5.json is
    # 0.7 |random_pure(5, 1)><.| + 0.3 |random_pure(5, 2)><.|, written by
    # save_density_matrix.
    ("random --qubits 5 --seed 7 --pure-fraction 1 --dump {out}",
     "random_pure_q5_s7.txt", "random_pure_q5_s7.json"),
    ("compute {golden}/rank2_q5.json", "compute_rank2_q5.txt", None),
    ("sweep --family ghz3 --from 0 --to 1 --steps 11 --out {out}", None, "sweep_ghz3.csv"),
    ("sweep --family w4 --from 0 --to 1 --steps 11 --out {out}", None, "sweep_w4.csv"),
    ("sweep --family kay --from 2 --to 10 --steps 9 --out {out}", None, "sweep_kay.csv"),
    # p = 0 (rank 1, the support route) and full rank, each point's spectrum
    # taken in closed form
    ("sweep --family random --qubits 4 --seed 7 --from 0 --to 1 --steps 21 --out {out}",
     None, "sweep_random_q4_s7.csv"),
    # the paper's curves, on scripts/make_curve_data.py's own grid; the
    # script itself is run below
    *((f"sweep --family {family} --from {lo} --to {hi} --steps {steps} --out {{out}}",
       None, f"curve_{family}.csv")
      for family, lo, hi, steps in assigned_list(TESTS.parent / "scripts" / "make_curve_data.py",
                                                 "SWEEPS")),
]


def mismatches(row, run, out):
    """The goldens that row's command, run as run(argv) -> stdout bytes with
    its written file at out, does not reproduce byte for byte."""
    command, printed, written = row
    got = [(printed, run([arg.format(golden=GOLDEN, out=out) for arg in command.split()]))]
    if written:
        got.append((written, pathlib.Path(out).read_bytes()))
    return [name or f"stdout of {command}" for name, data in got
            if data != ((GOLDEN / name).read_bytes() if name else b"")]


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


def entry_point(*prefix, env=None):
    """A runner through an installed entry point, such as entry_point("lqu")."""
    return lambda argv: subprocess.run([*prefix, *argv], env=env, capture_output=True,
                                       check=True).stdout


# Sweeps and reports run alike; two tests only name them apart.
@pytest.mark.parametrize("row", [row for row in GOLDENS if not row[1]], ids=lambda row: row[2])
def test_sweep_matches_golden(tmp_path, row):
    assert mismatches(row, in_process, tmp_path / "out") == []


@pytest.mark.parametrize("row", [row for row in GOLDENS if row[1]], ids=lambda row: row[1])
def test_report_matches_golden(tmp_path, row):
    assert mismatches(row, in_process, tmp_path / "out") == []


def test_module_entry_point_matches_golden(tmp_path):
    # one row, the random report and its dump, through lqu/__main__.py
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    run = entry_point(sys.executable, "-m", "lqu", env=env)
    assert mismatches(GOLDENS[0], run, tmp_path / "out") == []


def test_curve_script_writes_the_golden_curves(tmp_path):
    # scripts/make_curve_data.py itself, run in-process: one CSV per curve
    # golden, each byte-identical to it
    script = TESTS.parent / "scripts" / "make_curve_data.py"
    spec = importlib.util.spec_from_file_location("make_curve_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--outdir", str(tmp_path)])
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name[len("curve_"):] for path in GOLDEN.glob("curve_*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / f"curve_{name}").read_bytes(), name


def test_every_golden_is_in_the_table():
    # rank2_q5.json is an input, written by save_density_matrix, not a command
    named = {name for _, *names in GOLDENS for name in names if name}
    assert named | {"rank2_q5.json"} == {path.name for path in GOLDEN.iterdir()}
