import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqu.linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveSemidefinite,
    hermitian_eig,
    kron,
    matrix_sqrt_psd,
    trace_product,
)

from helpers import random_hermitian, random_psd

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4, 8, 16])


def test_eig_identity():
    eig = hermitian_eig(np.eye(4))
    np.testing.assert_allclose(eig.eigenvalues, [1, 1, 1, 1], atol=1e-14)


def test_eig_diagonal_sorted_ascending():
    eig = hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-14)
    # standard basis vectors, swapped to ascending order
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), [0, 1], atol=1e-14)
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), [1, 0], atol=1e-14)


def test_eig_pauli_x():
    eig = hermitian_eig(SX)
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(minus.conj() @ eig.eigenvectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(plus.conj() @ eig.eigenvectors[:, 1]) == pytest.approx(1.0, abs=1e-12)


def test_eig_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        hermitian_eig(m)


def test_eig_tolerance_is_respected():
    def with_defect(defect):
        return np.array([[1.0, defect], [0.0, 1.0]], dtype=complex)

    hermitian_eig(with_defect(0.5 * HERMITICITY_TOL))  # inside tolerance
    with pytest.raises(NotHermitian):
        hermitian_eig(with_defect(2 * HERMITICITY_TOL))


def test_eig_maps_solver_failure_to_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        hermitian_eig(np.eye(2))


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_eig_reconstruction_and_orthonormality(seed, dim):
    m = random_hermitian(seed, dim)
    eig = hermitian_eig(m)
    v, w = eig.eigenvectors, eig.eigenvalues
    rebuilt = (v * w) @ v.conj().T
    scale = np.linalg.norm(m) or 1.0
    assert np.linalg.norm(rebuilt - m) / scale < 1e-10
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-10
    assert np.all(np.diff(w) >= 0)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_eig_eigenvalue_sum_equals_trace(seed, dim):
    m = random_hermitian(seed, dim)
    total = float(hermitian_eig(m).eigenvalues.sum())
    assert total == pytest.approx(np.trace(m).real, abs=1e-10 * max(1, dim))


def test_sqrt_identity():
    np.testing.assert_allclose(matrix_sqrt_psd(np.eye(8)), np.eye(8), atol=1e-14)


def test_sqrt_diagonal():
    got = matrix_sqrt_psd(np.diag([4.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([2.0, 0.0, 0.0, 0.0]), atol=1e-14)


def test_sqrt_projector_is_idempotent():
    v = np.array([1, 1j, -1, 2]) / np.sqrt(7)
    p = np.outer(v, v.conj())
    np.testing.assert_allclose(matrix_sqrt_psd(p), p, atol=1e-12)


def test_sqrt_clamps_rounding_dirt_but_rejects_real_negativity():
    near = np.diag([1.0, -0.5 * PSD_TOL])
    got = matrix_sqrt_psd(near)
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(NotPositiveSemidefinite):
        matrix_sqrt_psd(np.diag([1.0, -2 * PSD_TOL]))


@settings(max_examples=50, deadline=None)
@given(seed=seeds, dim=dims)
def test_sqrt_squares_back(seed, dim):
    m = random_psd(seed, dim)
    s = matrix_sqrt_psd(m)
    assert np.abs(s - s.conj().T).max() < 1e-12
    assert np.linalg.norm(s @ s - m) / np.linalg.norm(m) < 1e-9


def test_kron_definition():
    np.testing.assert_array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))
    np.testing.assert_array_equal(kron(I2, SZ), np.diag([1, -1, 1, -1]).astype(complex))


def test_kron_double_bit_flip():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_array_equal(kron(SX, SX) @ ket00, [0, 0, 0, 1])


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_kron_associative(seed):
    # integer entries keep scalar products exact, so equality is exact too
    rng = np.random.Generator(np.random.PCG64(seed))
    a, b, c = (
        rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2)) for _ in range(3)
    )
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_trace_product_identities():
    assert trace_product(I2, I2, I2, I2) == pytest.approx(2.0)
    assert trace_product(I2, SX, I2, SX) == pytest.approx(2.0)
    assert trace_product(I2, SX, I2, SZ) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_trace_product_cyclic_and_matches_naive(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a, b, c, d = (
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(4)
    )
    t = trace_product(a, b, c, d)
    assert t == pytest.approx(trace_product(b, c, d, a), abs=1e-12 * abs(t) + 1e-12)
    naive = complex(np.trace(a @ b @ c @ d))
    assert t == pytest.approx(naive, abs=1e-12 * abs(naive) + 1e-12)


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_product(I2, I2, np.eye(4), I2)
