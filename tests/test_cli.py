import csv
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lqu
from lqu import cli
from lqu.core import NumericalContractViolation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    lqu.save_density_matrix(rho, path)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_compute_maximally_mixed(tmp_path, capsys):
    rho = lqu.DensityMatrix(3, np.eye(8) / 8)
    code, out, _ = run(capsys, "compute", write_state(tmp_path, rho))
    assert code == 0
    assert out.splitlines() == ["q0 0", "q1 0", "q2 0", "mean 0"]


def test_compute_ghz3_half_noise(tmp_path, capsys):
    rho = lqu.mix_white_noise(lqu.pure_state("ghz3"), 0.5)
    code, out, _ = run(capsys, "compute", write_state(tmp_path, rho))
    assert code == 0
    assert out.splitlines() == ["q0 0.25", "q1 0.25", "q2 0.25", "mean 0.25"]


def test_compute_malformed_json_names_byte_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 3, "matrix": [[')
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "byte offset" in err
    assert out == ""


def test_compute_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "compute", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_compute_rejects_invalid_density_matrix(tmp_path, capsys):
    doc = {"n_qubits": 1, "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "TraceViolation" in err


def test_compute_contract_violation_exits_3(tmp_path, capsys, monkeypatch):
    rho = lqu.DensityMatrix(3, np.eye(8) / 8)
    path = write_state(tmp_path, rho)

    def boom(_):
        raise NumericalContractViolation("forced")

    monkeypatch.setattr(cli, "lqu_all", boom)
    code, _, err = run(capsys, "compute", path)
    assert code == 3
    assert "forced" in err


def test_sweep_ghz3_grid(tmp_path, capsys):
    out_path = tmp_path / "ghz3.csv"
    code, _, _ = run(capsys, "sweep", "--family", "ghz3", "--from", "0", "--to", "1",
                     "--steps", "101", "--out", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    assert rows[0] == ["param", "q0", "q1", "q2", "mean", "analytic"]
    assert len(rows) == 102
    assert rows[1][0] == "0" and rows[1][4] == "1"  # param=0 has mean 1
    assert rows[-1][0] == "1" and rows[-1][4] == "0"  # exact endpoints
    for row in rows[1:]:
        assert abs(float(row[4]) - float(row[5])) <= 1e-8


def test_sweep_w4_three_steps(tmp_path, capsys):
    out_path = tmp_path / "w4.csv"
    code, _, _ = run(capsys, "sweep", "--family", "w4", "--from", "0", "--to", "1",
                     "--steps", "3", "--out", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    assert [row[0] for row in rows[1:]] == ["0", "0.5", "1"]
    means = [float(row[5]) for row in rows[1:]]
    expected = [lqu.lqu_w4(0.0), lqu.lqu_w4(0.5), lqu.lqu_w4(1.0)]
    np.testing.assert_allclose(means, expected, atol=1e-12)
    assert means[0] == 0.75


def test_sweep_kay_stays_positive(tmp_path, capsys):
    out_path = tmp_path / "kay.csv"
    code, _, _ = run(capsys, "sweep", "--family", "kay", "--from", "2", "--to", "10",
                     "--steps", "81", "--out", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    assert len(rows) == 82
    assert all(float(row[4]) > 0 for row in rows[1:])


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--family", "w3", "--from", "0", "--to", "1",
                         "--steps", "17", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF line endings


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "ghz3", "--from", "0.8", "--to", "0.2", "--steps", "5"),
        ("--family", "ghz3", "--from", "0", "--to", "1", "--steps", "1"),
        ("--family", "ghz3", "--from", "-0.5", "--to", "1", "--steps", "5"),
        ("--family", "kay", "--from", "1", "--to", "10", "--steps", "5"),
        ("--family", "random", "--from", "0", "--to", "1", "--steps", "5"),
    ],
)
def test_sweep_rejects_bad_config(tmp_path, capsys, argv):
    out_path = tmp_path / "bad.csv"
    code, _, err = run(capsys, "sweep", *argv, "--out", str(out_path))
    assert code == 2
    assert err
    assert not out_path.exists()


def test_sweep_removes_partial_file_on_failure(tmp_path, capsys, monkeypatch):
    # Rows reach the file as they are computed, so either failure comes
    # after earlier rows were written: a write that fails on the third row,
    # and a numerical fault at the third grid point.
    argv = ["sweep", "--family", "ghz3", "--from", "0", "--to", "1", "--steps", "5"]
    out_path = tmp_path / "partial.csv"
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh, **kwargs):
            self.inner = real_writer(fh, **kwargs)

        def writerows(self, rows):
            for i, row in enumerate(rows):
                if i == 2:
                    raise RuntimeError("disk full")
                self.inner.writerow(row)

    with monkeypatch.context() as patch:
        patch.setattr(cli.csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError):
            cli.main([*argv, "--out", str(out_path)])
    assert not out_path.exists()

    real_lqu_all, points = cli.lqu_all, []

    def fails_at_the_third_point(rho):
        points.append(rho)
        if len(points) == 3:
            assert out_path.exists()
            raise NumericalContractViolation("forced")
        return real_lqu_all(rho)

    monkeypatch.setattr(cli, "lqu_all", fails_at_the_third_point)
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (3, "", "error: forced\n")
    assert len(points) == 3
    assert not out_path.exists()


# Traced peaks of one ghz3 sweep after another, in a fresh interpreter.
_SWEEP_PEAKS = """
import sys, tracemalloc
from lqu import cli

def peak(steps):
    tracemalloc.start()
    try:
        assert cli.main(["sweep", "--family", "ghz3", "--from", "0", "--to", "1",
                         "--steps", str(steps), "--out", sys.argv[1]]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

peak(2000)  # warm-up: what the first long run grows once is not the sweep's
print(peak(200), peak(2000))
"""


def test_sweep_memory_does_not_grow_with_the_steps(tmp_path):
    # Rows are written one point at a time, each before the next state is
    # built, so the traced peak of a 2000-point sweep stays within 64 KiB of
    # a 200-point one; the grid itself, 8 B a point, is the only part that
    # grows. Holding every row until the end costs about 0.5 KB a point. The
    # sweeps run in a fresh interpreter, as the command does: in one that has
    # imported the other test modules (mpmath among them) the peak also holds
    # up to about 64 B a point of interpreter memory that gc.collect() gives
    # back while finding nothing unreachable, which is not the sweep's.
    bound = 64 * 1024
    src = str(Path(lqu.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _SWEEP_PEAKS, str(tmp_path / "ghz3.csv")],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    short, long = map(int, result.stdout.split())
    assert abs(long - short) < bound, (short, long)


def test_sweep_failing_on_a_pipe_keeps_the_pipe(tmp_path, capsys):
    # The reader leaves after 10 bytes of a 2001-row CSV, so the write fails
    # with a broken pipe; only a regular file is removed after a failure.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def read_a_little():
        with open(fifo, "rb") as fh:
            fh.read(10)

    reader = threading.Thread(target=read_a_little, daemon=True)
    reader.start()
    code, _, err = run(capsys, "sweep", "--family", "ghz3", "--from", "0", "--to", "1",
                       "--steps", "2001", "--out", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("argv, prefix", [
    (["--family", "random", "--qubits", str(lqu.states.MAX_QUBITS + 1), "--seed", "1",
      "--steps", "2"], f"error: n_qubits {lqu.states.MAX_QUBITS + 1} exceeds the limit"),
    # numpy refuses these grids outright: the first is too large to index, and
    # the second's 7.28 TiB allocation fails before any element is written
    (["--family", "ghz3", "--steps", str(10**20)], f"error: --steps {10**20}: "),
    (["--family", "ghz3", "--steps", str(10**12)], f"error: --steps {10**12}: "),
    # near 2^63 points numpy builds an empty grid and then fails to index it
    *((["--family", "w4", "--steps", str(n)], f"error: --steps {n}: ")
      for n in (2**63 - 512, 2**63, 2**63 + 1024)),
], ids=["qubits-over-limit", "grid-too-large", "grid-out-of-memory",
        "grid-2^63-512", "grid-2^63", "grid-2^63+1024"])
def test_sweep_rejected_config_keeps_existing_out(tmp_path, capsys, argv, prefix):
    out = tmp_path / "keep.csv"
    out.write_bytes(b"param,mean\n0.5,0.25\n")
    code, stdout, err = run(capsys, "sweep", *argv, "--from", "0", "--to", "1",
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert out.read_bytes() == b"param,mean\n0.5,0.25\n"


@pytest.mark.parametrize("flag", [("--qubits", "7"), ("--seed", "1")])
@pytest.mark.parametrize("family, lo, hi", [("ghz3", "0", "1"), ("kay", "2", "10")])
def test_sweep_rejects_random_only_flags_for_other_families(tmp_path, capsys, flag,
                                                            family, lo, hi):
    out_path = tmp_path / "out.csv"
    code, _, err = run(capsys, "sweep", "--family", family, "--from", lo, "--to", hi,
                       "--steps", "3", "--out", str(out_path), *flag)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and flag[0] in lines[0], lines
    assert not out_path.exists()


@pytest.mark.parametrize("command", [
    ["random", "--qubits", "3", "--pure-fraction", "0.5"],
    ["sweep", "--family", "random", "--qubits", "3", "--from", "0", "--to", "1",
     "--steps", "3"],
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    out_path = tmp_path / "out.csv"
    extra = ["--out", str(out_path)] if command[0] == "sweep" else []
    code, _, err = run(capsys, *command, *extra, "--seed", "-1")
    assert code == 2
    assert err.splitlines() == ["error: --seed must be >= 0, got -1"]
    assert not out_path.exists()


def test_unknown_family_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--family", "bell", "--from", "0", "--to", "1",
                  "--steps", "5", "--out", "x.csv"])
    assert exc.value.code == 2


def test_sweep_random_family(tmp_path, capsys):
    out_path = tmp_path / "rnd.csv"
    code, _, _ = run(capsys, "sweep", "--family", "random", "--from", "0", "--to", "1",
                     "--steps", "5", "--out", str(out_path), "--qubits", "3", "--seed", "7")
    assert code == 0
    rows = read_rows(out_path)
    assert all(row[5] == "" for row in rows[1:])  # no closed form
    assert rows[-1][4] == "0"  # full noise


def test_sweep_random_draws_its_state_once(tmp_path, capsys, monkeypatch):
    draws, real = [], lqu.states.gaussian_reals

    def counted(rng, n):
        draws.append(n)
        return real(rng, n)

    monkeypatch.setattr(lqu.states, "gaussian_reals", counted)
    out_path = tmp_path / "rnd.csv"
    code, _, _ = run(capsys, "sweep", "--family", "random", "--qubits", "4", "--seed", "7",
                     "--from", "0", "--to", "1", "--steps", "21", "--out", str(out_path))
    assert code == 0
    assert draws == [32]  # one random_pure(4, 7) for the sweep, not one per point
    golden = Path(__file__).parent / "golden" / "sweep_random_q4_s7.csv"
    assert out_path.read_bytes() == golden.read_bytes()


def test_parser_is_built_once():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    # parse_args leaves the parser as it was, so each command parses alone
    sweep = parser.parse_args(["sweep", "--family", "w3", "--from", "0", "--to", "1",
                               "--steps", "2", "--out", "x.csv"])
    compute = parser.parse_args(["compute", "x.json"])
    assert (sweep.func, compute.func) == (cli.cmd_sweep, cli.cmd_compute)
    assert not hasattr(compute, "family")


def test_random_command_reports_distinct_bipartitions(capsys):
    code, out, _ = run(capsys, "random", "--qubits", "3", "--seed", "0",
                       "--pure-fraction", "0.8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    values = [float(line.split()[1]) for line in lines[:3]]
    assert len({round(v, 3) for v in values}) == 3


def test_random_command_full_noise_gives_zeros(capsys):
    code, out, _ = run(capsys, "random", "--qubits", "3", "--seed", "5",
                       "--pure-fraction", "0")
    assert code == 0
    assert out.splitlines() == ["q0 0", "q1 0", "q2 0", "mean 0"]


def test_random_command_four_qubits(capsys):
    code, out, _ = run(capsys, "random", "--qubits", "4", "--seed", "3",
                       "--pure-fraction", "0.8")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_random_command_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    code, out, _ = run(capsys, "random", "--qubits", "3", "--seed", "11",
                       "--pure-fraction", "0.8", "--dump", str(dump))
    assert code == 0
    rho = lqu.load_density_matrix(dump)
    assert lqu.validate(rho) == []
    report = lqu.lqu_all(rho)
    printed = [float(line.split()[1]) for line in out.splitlines()[:3]]
    np.testing.assert_allclose(printed, report.per_bipartition, atol=1e-11)


@pytest.mark.parametrize("n_qubits", range(3, 9))
def test_random_prints_what_compute_of_its_dump_prints(tmp_path, capsys, n_qubits):
    # `random` decomposes its own matrix, as `compute` does the file it
    # wrote, so the two print the same bytes, on either route.
    dump = tmp_path / "dump.json"
    for fraction in ("1", "0.75", "0.5", "0.25", "0"):
        for seed in (n_qubits, 100 + n_qubits):
            printed = run(capsys, "random", "--qubits", str(n_qubits), "--seed", str(seed),
                          "--pure-fraction", fraction, "--dump", str(dump))
            assert printed[0] == 0
            assert run(capsys, "compute", str(dump)) == printed, (fraction, seed)


def test_random_dump_removes_partial_file_on_failure(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "dump.json"
    real_dumps = json.dumps
    rows_written = []

    def dumps_failing_after_first_row(obj, *args, **kwargs):
        if isinstance(obj, list):  # one matrix row
            if rows_written:
                raise OSError(28, "No space left on device")
            rows_written.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(lqu.states.json, "dumps", dumps_failing_after_first_row)
    code, _, err = run(capsys, "random", "--qubits", "3", "--seed", "11",
                       "--pure-fraction", "0.8", "--dump", str(dump))
    assert rows_written
    assert code in (2, 3)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not dump.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_random_dump_failing_on_a_pipe_keeps_the_pipe(tmp_path, capsys):
    # The reader leaves after 10 bytes of a 3 MB dump, so the write fails
    # with a broken pipe; only a regular file is removed after a failure.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def read_a_little():
        with open(fifo, "rb") as fh:
            fh.read(10)

    reader = threading.Thread(target=read_a_little, daemon=True)
    reader.start()
    code, _, err = run(capsys, "random", "--qubits", "8", "--seed", "1",
                       "--pure-fraction", "0.5", "--dump", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("value", ["1.5", "nan", "-1e-17"])
def test_random_command_rejects_bad_fraction(capsys, value):
    # The rule is applied to the user's own value: 1 - (-1e-17) rounds to
    # exactly 1.0, which would pass it. "=" keeps argparse from reading
    # -1e-17 as a flag.
    code, _, err = run(capsys, "random", "--qubits", "3", "--seed", "1",
                       f"--pure-fraction={value}")
    assert code == 2
    assert err.splitlines() == [f"error: --pure-fraction {value} outside [0, 1]"]


@pytest.mark.parametrize("bounds", [("2", "inf"), ("inf", "inf"), ("2", "nan")])
def test_sweep_rejects_non_finite_bounds(tmp_path, capsys, bounds):
    out_path = tmp_path / "kay.csv"
    code, _, err = run(capsys, "sweep", "--family", "kay", "--from", bounds[0],
                       "--to", bounds[1], "--steps", "3", "--out", str(out_path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("family, lo, hi, flag", [
    ("kay", "2", "1e308", "--to"),  # used to open --out, compute, fail and delete it
    ("kay", "1.9999999", "10", "--from"),
    ("ghz3", "0", "1.5", "--to"),
    ("random", "0", "nan", "--to"),
])
def test_out_of_range_bound_leaves_an_existing_out_unchanged(tmp_path, capsys,
                                                              family, lo, hi, flag):
    out_path = tmp_path / "existing.csv"
    out_path.write_bytes(b"kept\n")
    extra = ["--qubits", "3", "--seed", "1"] if family == "random" else []
    code, _, err = run(capsys, "sweep", "--family", family, "--from", lo, "--to", hi,
                       "--steps", "3", "--out", str(out_path), *extra)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag}: ")
    assert out_path.read_bytes() == b"kept\n"


def test_no_convergence_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, lqu.DensityMatrix(3, np.eye(8) / 8))

    def fail(_):
        raise lqu.NoConvergence("eigendecomposition did not converge")

    monkeypatch.setattr(cli, "lqu_all", fail)
    code, out, err = run(capsys, "compute", path)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: eigendecomposition did not converge"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_sweep_bad_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, where):
    out_path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    calls = []
    monkeypatch.setattr(cli, "lqu_all", calls.append)
    code, _, err = run(capsys, "sweep", "--family", "ghz4", "--from", "0", "--to", "1",
                       "--steps", "2001", "--out", str(out_path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert calls == []
    assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


def test_compute_integer_beyond_float_range_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n_qubits": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1%s, 0]]]}'
                    % ("0" * 400))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "matrix[1][1]" in err


@pytest.mark.parametrize("command", ["random", "sweep"])
def test_qubit_limit_is_checked_before_drawing_amplitudes(tmp_path, capsys, monkeypatch,
                                                          command):
    def fail(*_):
        raise AssertionError("amplitudes drawn beyond the qubit limit")

    monkeypatch.setattr(lqu.states, "gaussian_reals", fail)
    argv = {
        "random": ["random", "--pure-fraction", "0.5"],
        "sweep": ["sweep", "--family", "random", "--from", "0", "--to", "1", "--steps", "2",
                  "--out", str(tmp_path / "r.csv")],
    }[command]
    code, out, err = run(capsys, *argv, "--qubits", str(lqu.states.MAX_QUBITS + 1),
                         "--seed", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "n_qubits" in err


@pytest.mark.parametrize("qubits, message", [
    ("13", "n_qubits 13 exceeds the limit of 12"),
    ("0", "n_qubits must be a positive integer, got 0"),
])
@pytest.mark.parametrize("command", ["compute", "random", "sweep"])
def test_every_command_gives_the_one_qubit_count_line(tmp_path, capsys, command, qubits,
                                                      message):
    path = tmp_path / "state.json"
    path.write_text('{"n_qubits": %s, "matrix": []}' % qubits)
    argv = {
        "compute": ["compute", str(path)],
        "random": ["random", "--qubits", qubits, "--seed", "1", "--pure-fraction", "0.5"],
        "sweep": ["sweep", "--family", "random", "--qubits", qubits, "--seed", "1",
                  "--from", "0", "--to", "1", "--steps", "2",
                  "--out", str(tmp_path / "r.csv")],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "random"])
def test_failed_open_removes_nothing(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "keep.out"
    out.write_bytes(b"old contents\n")
    real_open = open

    def refuse(path, *args, **kwargs):
        if os.fspath(path) == str(out):
            raise OSError(f"cannot open {path}")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", refuse)
    argv = {
        "sweep": ["sweep", "--family", "ghz3", "--from", "0", "--to", "1", "--steps", "3",
                  "--out", str(out)],
        "random": ["random", "--qubits", "2", "--seed", "1", "--pure-fraction", "0.5",
                   "--dump", str(out)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err == f"error: cannot open {out}\n"
    assert out.read_bytes() == b"old contents\n"


def test_memory_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, lqu.DensityMatrix(3, np.eye(8) / 8))

    def fail(_):
        raise MemoryError

    monkeypatch.setattr(cli, "lqu_all", fail)
    code, out, err = run(capsys, "compute", path)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: out of memory"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "matrix, violation",
    [
        ([[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]], "TraceViolation"),
        ([[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]], "HermiticityViolation"),
    ],
    ids=["diagonal", "off-diagonal"],
)
def test_compute_entries_near_float_maximum_give_one_line(tmp_path, capsys, matrix,
                                                           violation):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_qubits": 1, "matrix": matrix}))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert violation in err


def test_sweep_kay_beyond_normalisation_range_exits_2(tmp_path, capsys):
    out_path = tmp_path / "kay.csv"
    code, _, err = run(capsys, "sweep", "--family", "kay", "--from", "2", "--to", "1e308",
                       "--steps", "3", "--out", str(out_path))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "gamma" in err
    assert not out_path.exists()


@pytest.mark.parametrize("eps, code, out, err", [
    (5e-9, 0, "q0 0\nmean 0\n", ""),
    (2e-8, 2, "", "error: {path} is not a valid density matrix: PsdViolation(2.000e-08)\n"),
])
def test_compute_a_pure_qubit_with_negative_dirt(tmp_path, capsys, eps, code, out, err):
    # within PSD_TOL the root drops the negative eigenvalue and keeps the
    # trace, so the qubit computes as pure; beyond it validate rejects
    doc = {"n_qubits": 1, "matrix": [[[1 + eps, 0], [0, 0]], [[0, 0], [-eps, 0]]]}
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(doc))
    got_code, got_out, got_err = run(capsys, "compute", str(path))
    assert (got_code, got_out, got_err) == (code, out, err.format(path=path))
