"""The curve sweeps are listed twice: in scripts/make_curve_data.py, which
writes the paper's curves, and in the benchmark's curves workload. Both files
are read as source, so neither is run or imported here."""

import pathlib

from helpers import assigned_list

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_curve_script_and_benchmark_list_the_same_sweeps():
    script = assigned_list(ROOT / "scripts" / "make_curve_data.py", "SWEEPS")
    bench = assigned_list(ROOT / "perfbench" / "workloads.py", "CURVE_SWEEPS")
    # the benchmark's rows also carry the qubit count, and steps as an int
    assert script == [(family, lo, hi, str(steps)) for family, lo, hi, steps, _ in bench]
