import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqu import DensityMatrix, Violation
from lqu.linalg import HERMITICITY_TOL, PSD_TOL, NoConvergence, spectrum

from helpers import agreed_violations, haar_unitary, random_hermitian, random_psd, root_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4, 8, 16])


def test_eig_identity():
    w = spectrum(np.eye(4)).eigenvalues
    np.testing.assert_allclose(w, [1, 1, 1, 1], atol=1e-14)


def test_eig_diagonal_sorted_ascending():
    w = spectrum(np.diag([3.0, 1.0])).eigenvalues
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_eig_pauli_x():
    w = spectrum(SX).eigenvalues
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_rejects_non_hermitian():
    m = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    assert spectrum(m).hermiticity_defect == 1.0  # reported as data ...
    # ... and rejected by validate and every consumer
    assert agreed_violations(DensityMatrix(1, m)) == [Violation("HermiticityViolation", 1.0)]


def test_eig_tolerance_is_respected():
    def with_defect(defect):
        return DensityMatrix(1, np.array([[0.5, defect], [0.0, 0.5]]))

    assert agreed_violations(with_defect(0.5 * HERMITICITY_TOL)) == []  # inside tolerance
    assert agreed_violations(with_defect(2 * HERMITICITY_TOL)) == [
        Violation("HermiticityViolation", 2 * HERMITICITY_TOL)]


def test_eig_maps_solver_failure_to_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        spectrum(np.eye(2))


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_eig_reconstruction_and_orthonormality(seed, dim):
    # No public API returns eigenvectors, so the eigenvalues are checked as a
    # set: an orthonormal eigenbasis that reconstructs m gives sum w^p = Tr m^p.
    m = random_hermitian(seed, dim)
    w = spectrum(m).eigenvalues
    scale = np.linalg.norm(m) or 1.0
    for p in (2, 3):
        power_trace = np.trace(np.linalg.matrix_power(m, p)).real
        assert abs((w**p).sum() - power_trace) / scale**p < 1e-10
    assert np.all(np.diff(w) >= 0)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_eig_eigenvalue_sum_equals_trace(seed, dim):
    m = random_hermitian(seed, dim)
    total = float(spectrum(m).eigenvalues.sum())
    assert total == pytest.approx(np.trace(m).real, abs=1e-10 * max(1, dim))


def test_sqrt_identity():
    np.testing.assert_allclose(root_matrix(spectrum(np.eye(8))), np.eye(8), atol=1e-14)


def test_sqrt_diagonal():
    got = root_matrix(spectrum(np.diag([4.0, 0.0, 0.0, 0.0])))
    np.testing.assert_allclose(got, np.diag([2.0, 0.0, 0.0, 0.0]), atol=1e-14)


def test_sqrt_projector_is_idempotent():
    v = np.array([1, 1j, -1, 2]) / np.sqrt(7)
    p = np.outer(v, v.conj())
    np.testing.assert_allclose(root_matrix(spectrum(p)), p, atol=1e-12)


def test_sqrt_clamps_rounding_dirt_but_rejects_real_negativity():
    def with_eigenvalue(w):
        return DensityMatrix(1, np.diag([1.0 - w, w]))

    near = with_eigenvalue(-0.5 * PSD_TOL)
    assert agreed_violations(near) == []
    np.testing.assert_allclose(root_matrix(near.spectrum), np.diag([1.0, 0.0]), atol=1e-12)
    assert agreed_violations(with_eigenvalue(-2 * PSD_TOL)) == [
        Violation("PsdViolation", 2 * PSD_TOL)]


@pytest.mark.parametrize("dim", [2, 8])  # rank 1 (support route) and 7 (dense)
def test_sqrt_keeps_the_trace_of_what_it_drops(dim):
    u = haar_unitary(dim, dim)
    w = np.linspace(-1e-3, 1.0, dim)
    s = root_matrix(spectrum((u * w) @ u.conj().T))
    assert np.trace(s @ s).real == pytest.approx(w.sum(), rel=1e-14)


@pytest.mark.parametrize("w, kept", [([-2.0, 1.0], [0.0, 1.0]),  # negative trace
                                     ([-1.0, -1.0], [0.0, 0.0]),  # nothing kept
                                     ([0.0, 0.0], [0.0, 0.0])])
def test_sqrt_rescales_only_when_both_sums_are_positive(w, kept):
    np.testing.assert_array_equal(root_matrix(spectrum(np.diag(w))), np.diag(kept))


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_sqrt_squares_back(seed, dim):
    m = random_psd(seed, dim)
    s = root_matrix(spectrum(m))
    assert np.abs(s - s.conj().T).max() < 1e-12
    assert np.linalg.norm(s @ s - m) / np.linalg.norm(m) < 1e-9
