"""The curve sweeps are listed twice: in scripts/make_curve_data.py, which
writes the paper's curves, and in the benchmark's curves workload. Both files
are read as source, so neither is run or imported here."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def assigned_list(path, name):
    """The literal value a module assigns to name at top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def test_curve_script_and_benchmark_list_the_same_sweeps():
    script = assigned_list(ROOT / "scripts" / "make_curve_data.py", "SWEEPS")
    bench = assigned_list(ROOT / "perfbench" / "workloads.py", "CURVE_SWEEPS")
    # the benchmark's rows also carry the qubit count, and steps as an int
    assert script == [(family, lo, hi, str(steps)) for family, lo, hi, steps, _ in bench]
