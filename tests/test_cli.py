import csv
import json
import os
import stat
import threading

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
    out_path = tmp_path / "partial.csv"
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh, **kwargs):
            self.inner = real_writer(fh, **kwargs)

        def writerow(self, row):
            self.inner.writerow(row)

        def writerows(self, rows):
            raise RuntimeError("disk full")

    monkeypatch.setattr(cli.csv, "writer", FailingWriter)
    with pytest.raises(RuntimeError):
        cli.main(["sweep", "--family", "ghz3", "--from", "0", "--to", "1",
                  "--steps", "5", "--out", str(out_path)])
    assert not out_path.exists()


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


@pytest.mark.parametrize("argv", [
    ["--family", "random", "--qubits", str(lqu.states.MAX_QUBITS + 1), "--seed", "1",
     "--steps", "2"],
    # numpy refuses this grid size outright, without trying to allocate it
    ["--family", "ghz3", "--steps", str(10**20)],
], ids=["qubits-over-limit", "grid-too-large"])
def test_sweep_rejected_config_keeps_existing_out(tmp_path, capsys, argv):
    out = tmp_path / "keep.csv"
    out.write_bytes(b"param,mean\n0.5,0.25\n")
    code, stdout, err = run(capsys, "sweep", *argv, "--from", "0", "--to", "1",
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
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


def test_random_command_rejects_bad_fraction(capsys):
    code, _, err = run(capsys, "random", "--qubits", "3", "--seed", "1",
                       "--pure-fraction", "1.5")
    assert code == 2
    assert "pure-fraction" in err


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
