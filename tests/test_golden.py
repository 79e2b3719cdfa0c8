"""Byte-identity gate: CLI outputs must match the checked-in golden files.

The files under tests/golden/ were written by the command lines below. A
change that alters any output byte (a digit of a value, a line ending, the
JSON dump's float repr) fails here; regenerate the files only for an
intended change of output.
"""

import contextlib
import io
import pathlib

import pytest

from lqu import cli

from helpers import assigned_list

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"

# curve_<family>.csv are the paper's curves on scripts/make_curve_data.py's
# own grid, read from its SWEEPS list.
SWEEPS = {
    "sweep_ghz3.csv": ("ghz3", "0", "1", "11"),
    "sweep_w4.csv": ("w4", "0", "1", "11"),
    "sweep_kay.csv": ("kay", "2", "10", "9"),
    **{f"curve_{row[0]}.csv": row
       for row in assigned_list(TESTS.parent / "scripts" / "make_curve_data.py", "SWEEPS")},
}


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(tmp_path, name):
    family, lo, hi, steps = SWEEPS[name]
    out = tmp_path / name
    stdout_of(["sweep", "--family", family, "--from", lo, "--to", hi,
               "--steps", steps, "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_random_report_and_dump_match_golden(tmp_path):
    dump = tmp_path / "dump.json"
    report = stdout_of(["random", "--qubits", "5", "--seed", "7",
                        "--pure-fraction", "0.6", "--dump", str(dump)])
    assert report == (GOLDEN / "random_q5_s7.txt").read_bytes()
    assert dump.read_bytes() == (GOLDEN / "random_q5_s7.json").read_bytes()


def test_compute_of_golden_dump_matches_golden():
    report = stdout_of(["compute", str(GOLDEN / "random_q5_s7.json")])
    assert report == (GOLDEN / "compute_q5_s7.txt").read_bytes()


def test_seven_qubit_random_report_matches_golden():
    # Full rank, so the dense route: pins its index kernel, S sigma_p formed
    # as (sigma_p S)^dagger, above N = 6, where the block-Gram oracle in
    # test_core reaches N = 8 but no other golden goes.
    report = stdout_of(["random", "--qubits", "7", "--seed", "7",
                        "--pure-fraction", "0.6"])
    assert report == (GOLDEN / "random_q7_s7.txt").read_bytes()


def test_nine_qubit_random_report_matches_golden():
    # Full rank at N = 9, where core's dense route takes one qubit per chunk,
    # as on the N = 8 and 9 states of the benchmark's file workloads; the
    # goldens above stop at N = 7, where a chunk holds four qubits.
    report = stdout_of(["random", "--qubits", "9", "--seed", "7",
                        "--pure-fraction", "0.6"])
    assert report == (GOLDEN / "random_q9_s7.txt").read_bytes()


# Low-rank states, which take the support route in core. rank2_q5.json is
# 0.7 |random_pure(5, 1)><.| + 0.3 |random_pure(5, 2)><.|, written by
# save_density_matrix.

def test_pure_random_report_and_dump_match_golden(tmp_path):
    dump = tmp_path / "dump.json"
    report = stdout_of(["random", "--qubits", "5", "--seed", "7",
                        "--pure-fraction", "1", "--dump", str(dump)])
    assert report == (GOLDEN / "random_pure_q5_s7.txt").read_bytes()
    assert dump.read_bytes() == (GOLDEN / "random_pure_q5_s7.json").read_bytes()


def test_compute_of_rank_two_file_matches_golden():
    report = stdout_of(["compute", str(GOLDEN / "rank2_q5.json")])
    assert report == (GOLDEN / "compute_rank2_q5.txt").read_bytes()
