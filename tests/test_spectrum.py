"""One eigendecomposition per state, shared by every consumer; a family's
sweep points take theirs in closed form, with none, and form their matrix
only when it is read."""

import math
import tracemalloc

import numpy as np
import pytest

import lqu
from lqu import cli
from lqu.analytic import GAMMA_MAX
from lqu.linalg import HERMITICITY_TOL, spectrum
from lqu.states import _KAY_BASE, FAMILIES, FAMILY_NAMES

from helpers import (agreed_violations, complex_gaussian, haar_unitary, random_density,
                     random_hermitian, rng_for, root_matrix, spectrum_alone)
from test_golden import GOLDENS


@pytest.fixture
def dense_eigs(monkeypatch):
    """The dimension of every matrix numpy's eigh/eigvalsh decomposes, once
    for each matrix of a stack; the 3x3 correlation eigenvalues are told
    apart by the caller."""
    dims = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, **kwargs):
            shape = np.shape(a)
            dims.extend([shape[-1]] * math.prod(shape[:-2]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return dims


def test_compute_decomposes_the_state_once(tmp_path, capsys, dense_eigs):
    rho = lqu.DensityMatrix(5, random_density(3, 32))
    path = tmp_path / "state.json"
    lqu.save_density_matrix(rho, path)
    assert cli.main(["compute", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert dense_eigs.count(32) == 1


def test_kay_point_decomposes_the_state_once(dense_eigs):
    lqu.lqu_all(lqu.kay_state(3.0))
    assert dense_eigs.count(8) == 1


def test_every_consumer_reads_the_shared_spectrum(dense_eigs):
    rho = lqu.mix_white_noise(lqu.random_pure(3, 4), 0.3)
    assert lqu.validate(rho) == []
    lqu.lqu_all(rho)
    for q in range(3):
        lqu.lqu_bipartition(rho, q)
        lqu.correlation_matrix(rho, q)
    assert dense_eigs.count(8) == 1


def test_shared_sqrt_matches_matrix_sqrt_psd():
    # The state's shared root is the root of its matrix's own spectrum.
    m = random_density(8, 16)
    rho = lqu.DensityMatrix(4, m)
    np.testing.assert_array_equal(root_matrix(rho.spectrum), root_matrix(spectrum(m)))


def test_stored_matrix_is_a_read_only_copy():
    m = np.eye(4, dtype=complex) / 4
    rho = lqu.DensityMatrix(2, m)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    m[0, 0] = 1.0  # the caller's array stays theirs and writable
    assert rho.matrix[0, 0] == 0.25
    assert lqu.validate(rho) == []


def test_spectrum_sqrt_enforces_the_contracts():
    for matrix, kind in [
        (np.array([[0.5, 1e-3], [0.0, 0.5]]), "HermiticityViolation"),
        (np.diag([1.1, -0.1]), "PsdViolation"),
        (np.eye(2) / 4, "TraceViolation"),
        (np.eye(2), "TraceViolation"),
    ]:
        rho = lqu.DensityMatrix(1, matrix)
        assert [v.kind for v in agreed_violations(rho)] == [kind]


def test_rank_one_compute_decomposes_the_state_once(tmp_path, capsys, dense_eigs):
    rho = lqu.mix_white_noise(lqu.random_pure(5, 3), 0.0)
    assert rho.spectrum.root.shape == (32, 1)
    path = tmp_path / "state.json"
    lqu.save_density_matrix(rho, path)
    before = dense_eigs.count(32)
    assert cli.main(["compute", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert dense_eigs.count(32) - before == 1


def recorded_points(monkeypatch):
    """The (state, report) of each point cli.lqu_all is given, in order."""
    points, real = [], cli.lqu_all

    def recorded(rho):
        points.append((rho, real(rho)))
        return points[-1][1]

    monkeypatch.setattr(cli, "lqu_all", recorded)
    return points


def test_sweep_decomposes_each_point_once_on_either_route(tmp_path, monkeypatch, dense_eigs):
    # p = 0 is the pure W state (support route), p = 1 is I/16 (dense root);
    # the sweep takes both spectra in closed form, the state built alone
    # decomposes its own matrix, and the two agree within 1e-14.
    points = recorded_points(monkeypatch)
    out = tmp_path / "w4.csv"
    assert cli.main(["sweep", "--family", "w4", "--from", "0", "--to", "1",
                     "--steps", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert [rho.spectrum.root.shape for rho, _ in points] == [(16, 1), (16, 16)]
    assert dense_eigs.count(16) == 0
    for p, (rho, report) in zip([0.0, 1.0], points):
        alone = lqu.build_state("w4", p)
        assert alone.matrix.tobytes() == rho.matrix.tobytes()
        assert alone.spectrum.root.shape == rho.spectrum.root.shape
        np.testing.assert_allclose(values(report), values(lqu.lqu_all(alone)),
                                   rtol=0, atol=1e-14)
    assert dense_eigs.count(16) == 2


def family_grid(family):
    """An 11-point grid over the family's parameter range, and the n_qubits
    and seed its registry row takes."""
    if family == "kay":
        return np.linspace(2, 10, 11).tolist(), {}
    return np.linspace(0, 1, 11).tolist(), ({"n_qubits": 5, "seed": 3} if family == "random"
                                            else {})


def sweep_argv(family, out):
    """The command line of family_grid's sweep, written to out."""
    params, extra = family_grid(family)
    return ["sweep", "--family", family, "--from", repr(params[0]), "--to", repr(params[-1]),
            "--steps", str(len(params)), "--out", str(out),
            *(["--qubits", str(extra["n_qubits"]), "--seed", str(extra["seed"])] if extra else [])]


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_no_sweep_takes_a_dense_eigh(tmp_path, dense_eigs, family):
    # No sweep of any family, kay included, runs a d x d eigh.
    assert cli.main(sweep_argv(family, tmp_path / "out.csv")) == 0
    assert [dim for dim in dense_eigs if dim != 3] == []  # the 3x3 correlation eigenvalues aside


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_sweep_point_forms_its_matrix_only_when_read(tmp_path, monkeypatch, family):
    # Every d x d matrix a state holds passes through DensityMatrix's
    # constructor; a sweep point calls it only when its .matrix is read, and
    # then once, with build_state's bytes.
    built, real = [], lqu.DensityMatrix.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(lqu.DensityMatrix, "__init__", spy)
    assert cli.main(sweep_argv(family, tmp_path / "out.csv")) == 0
    params, extra = family_grid(family)
    points = list(lqu.states.build_states(family, params, **extra))
    assert [lqu.validate(rho) for rho in points] == [[]] * len(params)
    assert built == []
    matrix = points[3].matrix
    assert len(built) == 1 and points[3].matrix is matrix
    assert matrix.tobytes() == lqu.build_state(family, params[3], **extra).matrix.tobytes()
    assert len(built) == 2


def test_kay_eigenpairs_are_exact():
    kay = FAMILIES["kay"][1]
    v, mu = kay.eigenvectors, kay.eigenvalues
    assert mu.tolist() == [-2, -2, -2, 2, 2, 2, 2, 6]
    np.testing.assert_allclose(_KAY_BASE @ v, v * mu, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(8), rtol=0, atol=1e-15)


def test_kay_point_eigenvalues_meet_the_decomposed_matrix():
    # The golden grid, its ends and log-spaced gammas up to GAMMA_MAX; at
    # gamma = 2 the three zeros are exact, where eigh reports rounding dirt.
    gammas = [*np.linspace(2, 10, 81).tolist(), *np.geomspace(2.0, GAMMA_MAX, 25).tolist()]
    points = list(lqu.states.build_states("kay", gammas))
    assert points[0].spectrum.eigenvalues[:3].tolist() == [0.0] * 3
    for gamma, rho in zip(gammas, points):
        np.testing.assert_allclose(rho.spectrum.eigenvalues,
                                   spectrum(lqu.kay_state(gamma).matrix).eigenvalues,
                                   rtol=0, atol=1e-15, err_msg=repr(gamma))


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_closed_form_trace_and_verdict_meet_the_matrix(family):
    # A sweep point's trace, (1 - p)|psi|^2 + p or the sum of kay's
    # eigenvalues, against np.trace of its matrix; validate finds both valid.
    params, extra = family_grid(family)
    for rho in lqu.states.build_states(family, params, **extra):
        alone = lqu.DensityMatrix(rho.n_qubits, rho.matrix)
        assert abs(rho.trace - np.trace(alone.matrix)) <= 1e-14
        assert lqu.validate(rho) == lqu.validate(alone) == []


def assert_same_spectrum(spec, m):
    defect, w, root = spectrum_alone(m)
    assert spec.hermiticity_defect.hex() == defect.hex()
    assert (spec.eigenvalues.tobytes(), spec.root.shape, spec.root.tobytes()) == (
        w.tobytes(), root.shape, root.tobytes())


def values(report):
    return [*report.per_bipartition, report.mean]


def test_spectrum_matches_the_reference_arithmetic():
    # Every route: rank 1 and rank 2 (support), kay at gamma = 2 (dense, its
    # three zero eigenvalues floored), full rank (dense), full rank with an
    # anti-Hermitian part that validate admits, and a matrix whose least
    # eigenvalue lies above its own floor but below the others'. At d = 16
    # the floored zeros summed in with the kept eigenvalues would regroup
    # numpy's pairwise sum; for the rank-12 matrix that moves bits.
    eight = [lqu.mix_white_noise(lqu.random_pure(3, 5), 0.0).matrix,
             lqu.kay_state(2.0).matrix, state_of_rank(2, 8, 3), random_density(4, 8),
             random_density(6, 8) + 1j * HERMITICITY_TOL / 8 * random_hermitian(7, 8),
             np.diag([1e-17] + [1e-3] * 7)]
    sixteen = [state_of_rank(12, 16, 1), lqu.mix_white_noise(lqu.pure_state("w4"), 0.0).matrix,
               random_density(5, 16)]
    assert np.abs(spectrum(eight[1]).eigenvalues[:3]).max() < 1e-15
    for matrices, ranks in ((eight, [1, 8, 2, 8, 8, 8]), (sixteen, [16, 1, 16])):
        got = [spectrum(m) for m in matrices]
        assert [spec.root.shape[1] for spec in got] == ranks
        for spec, m in zip(got, matrices):
            assert_same_spectrum(spec, m)


# Every golden grid, w4 just above its pure state, and seeded random sweeps at
# N = 1...8: curve_kay's first point, gamma = 2, floors three zero
# eigenvalues, and each noise sweep's p = 0 takes the support route.
_SWEEPS = [command for command, _, _ in GOLDENS if command.startswith("sweep")] + [
    "sweep --family w4 --from 0 --to 1e-12 --steps 5 --out {out}"] + [
    f"sweep --family random --qubits {n} --seed {n} --from 0 --to 1 "
    f"--steps {41 if n <= 5 else 4} --out {{out}}" for n in range(1, 9)]


@pytest.mark.parametrize("command", _SWEEPS, ids=lambda c: "-".join(c.split()[2:-2:2]))
def test_sweep_point_matches_the_state_decomposed_alone(tmp_path, monkeypatch, command):
    # The same matrix decomposed alone, and the point built alone: a sweep
    # point's closed form lies within 1e-14 of both. Just above pure
    # (0 < p < 1e-4) the decomposed matrix's root floor costs it up to
    # 8.4e-10 (README, "Accuracy near rank deficiency"), where the closed
    # form meets the exact value to 1e-15 (tests/test_precision_oracle.py);
    # there the two agree to 1e-8.
    points = recorded_points(monkeypatch)
    argv = command.format(out=tmp_path / "out.csv").split()
    assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    params = np.linspace(args.param_from, args.param_to, args.steps).tolist()
    assert len(points) == len(params)
    for p, (rho, report) in zip(params, points):
        decomposed = lqu.DensityMatrix(rho.n_qubits, rho.matrix)
        assert_same_spectrum(decomposed.spectrum, rho.matrix)
        alone = lqu.build_state(args.family, p, args.qubits, args.seed)
        assert alone.matrix.tobytes() == rho.matrix.tobytes()
        for state in (decomposed, alone):
            np.testing.assert_allclose(values(report), values(lqu.lqu_all(state)),
                                       rtol=0, atol=1e-8 if 0 < p < 1e-4 else 1e-14)


def state_of_rank(rank, dim, seed):
    """U diag(p) U^dagger with exactly `rank` nonzero weights."""
    u = haar_unitary(seed, dim)
    p = np.zeros(dim)
    p[:rank] = rng_for(seed).uniform(0.1, 1.0, rank)
    return (u * (p / p.sum())) @ u.conj().T


@pytest.mark.parametrize("rank", [1, 2, 8, 9, 16])
def test_root_storage_follows_the_rank(rank):
    h = state_of_rank(rank, 16, rank)
    # An anti-Hermitian part that validate still admits: the root, built from
    # the Hermitian part, must be exactly Hermitian all the same, because
    # core applies S sigma_p as (sigma_p S)^dagger on the dense route.
    a = complex_gaussian(rng_for(rank), (16, 16))
    skew = HERMITICITY_TOL / 16 * (a - a.conj().T)
    for m in (h, h + skew):
        rho = lqu.DensityMatrix(4, m)
        assert lqu.validate(rho) == []
        spec = rho.spectrum
        s = root_matrix(spec)
        if 4 * rank <= 16:  # the support route keeps a 16 x r factor, no 16 x 16 root
            assert spec.root.shape == (16, rank)
            np.testing.assert_allclose(spec.root @ spec.root.conj().T, s, rtol=0, atol=1e-14)
        else:
            assert spec.root.shape == (16, 16)
            np.testing.assert_array_equal(s, spec.root)
        np.testing.assert_array_equal(s, s.conj().T)
        np.testing.assert_allclose(s @ s, h, rtol=0, atol=1e-13)


@pytest.mark.parametrize("rank, bound", [(2**9, 4.1), (8, 3.1)], ids=["full-rank", "rank-8"])
def test_spectrum_peak_memory_holds_no_copy_of_the_eigenvectors(rank, bound):
    # N = 9, peak beyond the input in d x d matrices: the eigh stage holds
    # about three, which is rank 8's peak (3.03 measured), and the dense
    # root about four, V among them (4.03 measured). A copy of V would add
    # a fifth to the dense root.
    d = 2**9
    m = state_of_rank(rank, d, rank)
    tracemalloc.start()
    try:
        spec = spectrum(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.root.shape == (d, rank)
    assert peak <= bound * 16 * d * d


@pytest.mark.parametrize("n_qubits", range(2, 9))
def test_support_route_ends_at_a_quarter_of_the_dimension(n_qubits):
    # The route rule, 4r <= d: rank d/4 keeps its d x r factor, rank d/4 + 1
    # the d x d root S.
    d = 2**n_qubits
    for rank, width in ((d // 4, d // 4), (d // 4 + 1, d)):
        spec = spectrum(state_of_rank(rank, d, 10 * n_qubits + rank))
        assert int(np.count_nonzero(spec.eigenvalues > 1e-3 / d)) == rank
        assert spec.root.shape == (d, width)


# A rank-deficient Hermitian part: the checks on the support route raise what
# the dense route raises, with the same messages.
_PURE = np.outer([0.6, 0.8j, 0, 0], [0.6, -0.8j, 0, 0])
_SKEW = 1e-3 * np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
_CONSUMERS = [lqu.lqu_all,
              lambda rho: lqu.lqu_bipartition(rho, 1),
              lambda rho: lqu.correlation_matrix(rho, 1)]


@pytest.mark.parametrize("consumer", _CONSUMERS,
                         ids=["lqu_all", "lqu_bipartition", "correlation_matrix"])
@pytest.mark.parametrize("matrix, message", [
    (_PURE + _SKEW, "not a valid density matrix: HermiticityViolation(2.000e-03)"),
    (np.diag([1.1, -0.1, 0, 0]), "not a valid density matrix: PsdViolation(1.000e-01)"),
], ids=["non-hermitian", "non-psd"])
def test_support_route_keeps_the_contracts(consumer, matrix, message):
    rho = lqu.DensityMatrix(2, matrix)
    assert rho.spectrum.root.shape == (4, 1)
    with pytest.raises(lqu.InvalidDensityMatrix) as info:
        consumer(rho)
    assert str(info.value) == message
    assert info.value.violations == lqu.validate(rho)
