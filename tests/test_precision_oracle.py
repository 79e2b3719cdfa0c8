"""The dense path against a 50-digit oracle for N <= 3.

The oracle computes the exact LQU of the float matrix the dense path is
given: the Hermitian part, mpmath's eighe, the root of the eigenvalues above
the dense path's floor d * eps * max|lambda|, then the 3x3 correlation matrix
and its eigsy, all at 50 digits. So any difference is the dense algorithm's
own error, not the input's.

The floor matters only for exactly rank-deficient float inputs (p = 0).
Rounding gives such an input eigenvalues near +-1e-17 where the exact state
has zeros, and the exact roots of the positive ones would move the input's
exact LQU by about 2.6e-9 (random N=3, seed 5). The dense path treats them
as zeros, as it should, so the oracle does too; every eigenvalue of the
noisy cases lies far above the floor. The p = 0 states of rank 1, and of
rank 2 at N = 3, take core's support route (a d x r factor of the root);
the others, N = 2 rank 2 among them (4r > d), take its dense route. A w4 sweep just above p = 0 is held to its closed form instead.
"""

import csv
import pathlib

import mpmath
import numpy as np
import pytest

import lqu
from lqu import cli

from helpers import assigned_list, pauli_on, random_density


def exact_lqu(matrix, n_qubits):
    """Per-qubit LQU of matrix, its float entries taken as exact."""
    d = 2**n_qubits
    with mpmath.workdps(50):
        a = mpmath.matrix(matrix.tolist())
        a = (a + a.H) / 2
        w, v = mpmath.eighe(a)
        floor = d * np.finfo(float).eps * max(abs(x) for x in w)
        root = v * mpmath.diag([mpmath.sqrt(x) if x > floor else 0 for x in w]) * v.H
        values = []
        for q in range(n_qubits):
            prods = [root * mpmath.matrix(pauli_on(n_qubits, q, ax).tolist()) for ax in "xyz"]
            m = mpmath.matrix(3, 3)
            for i in range(3):
                for j in range(3):
                    m[i, j] = mpmath.re(mpmath.fsum(
                        prods[i][r, c] * prods[j][c, r] for r in range(d) for c in range(d)
                    ))
            values.append(1 - max(mpmath.eigsy(m, eigvals_only=True)))
        return values


def state_of_rank(rank, n_qubits, seed):
    """A seeded density matrix of the given rank: one or two random pure
    states (weights 0.7 and 0.3), or a full-rank random density matrix."""
    d = 2**n_qubits
    if rank == d:
        return random_density(seed, d)
    vecs = [lqu.random_pure(n_qubits, seed + k) for k in range(rank)]
    weights = [1.0] if rank == 1 else [0.7, 0.3]
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


@pytest.mark.parametrize("noise, tol", [
    (0.0, 1e-12), (0.2, 1e-12), (1e-4, 1e-12), (1e-8, 1e-9), (1e-13, 1e-9),
])
@pytest.mark.parametrize("n_qubits, rank", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 8)])
def test_dense_path_matches_50_digit_oracle(n_qubits, rank, noise, tol):
    d = 2**n_qubits
    m = (1 - noise) * state_of_rank(rank, n_qubits, 5) + (noise / d) * np.eye(d)
    got = lqu.lqu_all(lqu.DensityMatrix(n_qubits, m)).per_bipartition
    exact = exact_lqu(m, n_qubits)
    err = max(abs(mpmath.mpf(g) - e) for g, e in zip(got, exact))
    assert err <= tol, f"dense error {mpmath.nstr(err, 3)}"


def test_w4_sweep_just_above_pure_keeps_eight_digits(tmp_path):
    # The W state's small eigenvalues, p / 16, lie only 6 to 24 times above
    # the floor, and the root amplifies eigh's absolute error in them: the
    # q-values of this symmetric state can differ from qubit to qubit in
    # digits the machine's LAPACK rounding sets, but not by 1e-8.
    out = tmp_path / "w4.csv"
    assert cli.main(["sweep", "--family", "w4", "--from", "0", "--to", "1e-12",
                     "--steps", "5", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        for k in range(4):
            assert abs(float(row[f"q{k}"]) - float(row["analytic"])) <= 1e-8, row


def _exact_closed_form(family, x):
    """The family's closed form at the float x, taken as exact, at 50 digits;
    typed here from the paper, apart from lqu.analytic."""
    x = mpmath.mpf(x)
    if family == "kay":
        return (2 + x - mpmath.sqrt((x - 2) * (x + 6))) / (4 * (1 + x))
    if family == "ghz3":
        return 1 - (3 * x + mpmath.sqrt(x * (8 - 7 * x))) / 4
    if family == "w3":
        s = mpmath.sqrt(x * (8 - 7 * x))
        return 1 - max((3 * x + s) / 4, (1 + 6 * x + 2 * s) / 9)
    if family == "w4":
        return 1 - (8 + 21 * x + 3 * mpmath.sqrt(x * (16 - 15 * x))) / 32
    return 1 - (7 * x + mpmath.sqrt(x * (16 - 15 * x))) / 8  # GHZ4, Dicke, singlet, cluster, chi


SWEEPS = assigned_list(pathlib.Path(__file__).parents[1] / "scripts" / "make_curve_data.py",
                       "SWEEPS")

# The first and last values each curve golden prints for every q<k> and the
# mean: 0 at p = 1 on the noise families, the pure state's value at p = 0,
# and 1/3 at kay's gamma = 2.
_CURVE_ENDPOINTS = {"ghz3": ("1", "0"), "w3": ("0.888888888889", "0"),
                    "ghz4": ("1", "0"), "w4": ("0.75", "0"), "dicke24": ("1", "0"),
                    "singlet4": ("1", "0"), "cluster4": ("1", "0"), "chi4": ("1", "0"),
                    "kay": ("0.333333333333", None)}


def _sweep_values(tmp_path, sweeps):
    # Runs each sweep with every digit (repr in place of the 12-digit
    # format), checks every q<k> and the mean of each point within 1e-15 of
    # the 50-digit closed form at the point's float parameter, and returns
    # each sweep's values, row by row.
    out_values = []
    with mpmath.workdps(50):
        for family, lo, hi, steps in sweeps:
            out = tmp_path / f"{family}.csv"
            assert cli.main(["sweep", "--family", family, "--from", lo, "--to", hi,
                             "--steps", steps, "--out", str(out)]) == 0
            with out.open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == int(steps)
            values = [[float(v) for k, v in row.items() if k not in ("param", "analytic")]
                      for row in rows]
            for row, got in zip(rows, values):
                exact = _exact_closed_form(family, float(row["param"]))
                err = max(abs(mpmath.mpf(v) - exact) for v in got)
                assert err <= 1e-15, (family, row["param"], mpmath.nstr(err, 3))
            out_values.append(values)
    return out_values


def test_curve_sweeps_meet_their_50_digit_closed_forms(tmp_path, monkeypatch):
    # Every q<k> and the mean of the nine paper curves lies within 1e-15 of
    # the closed form: the gate on accuracy beside the byte gate on the
    # goldens, which holds only the printed 12 digits. The printed endpoints
    # are pinned as well.
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", repr)
    for (family, *_), values in zip(SWEEPS, _sweep_values(tmp_path, SWEEPS)):
        first, last = _CURVE_ENDPOINTS[family]
        assert {fmt(v) for v in values[0]} == {first}, family
        if last is not None:
            assert {fmt(v) for v in values[-1]} == {last}, family


def test_noise_sweeps_meet_their_50_digit_closed_forms_to_1e_15(tmp_path, monkeypatch):
    # Every sweep point takes its spectrum in closed form: a noise family's
    # with the identity part carried exactly, a kay point's from the exact
    # eigenpairs of its base. So all nine curves meet 1e-15 (3.9e-16
    # measured on the noise curves, 7.0e-16 on kay), and so does w4 just
    # above pure, where the root floor of a decomposed matrix costs up to
    # 8.4e-10 (7.6e-17 measured).
    monkeypatch.setattr(cli, "_fmt", repr)
    sweeps = SWEEPS + [("w4", "0", "1e-12", "5")]
    assert len(sweeps) == 10
    _sweep_values(tmp_path, sweeps)


def _built_points(family):
    """The parameters a built state is checked at, and the n_qubits and seed
    of the family's registry row: kay's golden grid, and p = 1e-16, 1e-14
    and 1e-12 for a noise family, just above its pure state."""
    if family == "kay":
        return np.linspace(2, 10, 81).tolist(), {}
    return [1e-16, 1e-14, 1e-12], ({"n_qubits": 5, "seed": 3} if family == "random" else {})


@pytest.mark.parametrize("family", lqu.FAMILY_NAMES)
def test_built_state_is_its_closed_form_sweep_point(family):
    # build_state is the one point of build_states: the same eigenvalue and
    # root bytes, and so, for every family with a closed form, every q<k>
    # and the mean within 1e-15 of the 50-digit value (2.4e-16 measured on
    # the noise families, 7.0e-16 on kay). The same states decomposed from
    # their matrices miss by up to 7.1e-8 on these points, where the root
    # floor and eigh's rounding of the small eigenvalues set the digits.
    params, extra = _built_points(family)
    with mpmath.workdps(50):
        for p in params:
            alone = lqu.build_state(family, p, **extra)
            point = next(lqu.states.build_states(family, [p], **extra))
            assert [alone.spectrum.eigenvalues.tobytes(), alone.spectrum.root.tobytes()] == [
                point.spectrum.eigenvalues.tobytes(), point.spectrum.root.tobytes()], p
            if family != "random":
                report = lqu.lqu_all(alone)
                exact = _exact_closed_form(family, p)
                err = max(abs(mpmath.mpf(v) - exact)
                          for v in [*report.per_bipartition, report.mean])
                assert err <= 1e-15, (p, mpmath.nstr(err, 3))
