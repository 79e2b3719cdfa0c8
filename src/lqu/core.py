"""The measure itself: skew information, per-qubit 3x3 correlation matrices,
per-bipartition local quantum uncertainty and the N-qubit arithmetic mean.

For one measured qubit k the 3x3 matrix holds
Tr[sqrt(rho) sigma_i^(k) sqrt(rho) sigma_j^(k)], i,j over x,y,z, with the
Pauli acting on qubit k and identity elsewhere. The bipartition value is one
minus the largest eigenvalue of that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import (
    IMAG_TOL,
    RANGE_TOL,
    SKEW_NEG_TOL,
    DimensionMismatch,
    as_square_complex,
    hermiticity_defect,
    require_hermitian,
)
from .states import DensityMatrix, gaussian_reals

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {1: PAULI_X, 2: PAULI_Y, 3: PAULI_Z}
IDENTITY_2 = np.eye(2, dtype=complex)


class IndexOutOfRange(IndexError):
    """Qubit or Pauli index outside its valid range."""


class NumericalContractViolation(ArithmeticError):
    """A computed quantity left its mathematically guaranteed range by more
    than rounding can explain."""


@dataclass(frozen=True)
class LquReport:
    """Per-bipartition local quantum uncertainties plus their mean.

    per_bipartition is indexed by measured qubit. The mean is the headline
    aggregate.
    """

    per_bipartition: tuple[float, ...]
    mean: float


def _check_qubit(n_qubits: int, qubit_index: int) -> None:
    if not 0 <= qubit_index < n_qubits:
        raise IndexOutOfRange(f"qubit_index {qubit_index} outside [0, {n_qubits})")


def local_observable(n_qubits: int, qubit_index: int, pauli_index: int) -> np.ndarray:
    """Pauli sigma_{pauli_index} on one qubit, identity on the rest.

    pauli_index is 1, 2, 3 for sigma_x, sigma_y, sigma_z. Qubit 0 is the
    most significant bit (leftmost tensor factor).
    """
    _check_qubit(n_qubits, qubit_index)
    if pauli_index not in PAULIS:
        raise IndexOutOfRange(f"pauli_index must be 1, 2 or 3, got {pauli_index}")
    factors = [IDENTITY_2] * n_qubits
    factors[qubit_index] = PAULIS[pauli_index]
    return reduce(np.kron, factors)


def _check_observable(rho: DensityMatrix, k) -> np.ndarray:
    k = as_square_complex(k, "observable")
    if k.shape[0] != rho.dim:
        raise DimensionMismatch(
            f"observable has dimension {k.shape[0]}, state has {rho.dim}"
        )
    require_hermitian(hermiticity_defect(k), "observable")
    return k


def _skew_terms(rho_m: np.ndarray, sqrt_m: np.ndarray, k_batch: np.ndarray) -> np.ndarray:
    """Tr(rho k^2) - Tr(sqrt(rho) k sqrt(rho) k) for a batch of observables."""
    t1 = np.einsum("ij,sjk,ski->s", rho_m, k_batch, k_batch, optimize=True)
    t2 = np.einsum("ij,sjk,kl,sli->s", sqrt_m, k_batch, sqrt_m, k_batch, optimize=True)
    return (t1 - t2).real


def skew_information(rho: DensityMatrix, k) -> float:
    """Skew information of the state with respect to observable k.

    Equals Tr(rho k^2) - Tr(sqrt(rho) k sqrt(rho) k); zero iff the state
    and the observable commute, and never meaningfully negative.
    """
    k = _check_observable(rho, k)
    sqrt_m = rho.spectrum.sqrt()
    value = float(_skew_terms(rho.matrix, sqrt_m, k[np.newaxis])[0])
    if value < -SKEW_NEG_TOL:
        raise NumericalContractViolation(
            f"skew information {value:.3e} below -{SKEW_NEG_TOL:.0e}"
        )
    return value


def _correlation_given_sqrt(
    sqrt_m: np.ndarray, n_qubits: int, qubit_index: int
) -> tuple[np.ndarray, float]:
    """The correlation matrix and its largest eigenvalue, after checking that
    its eigenvalues lie in [0, 1] up to RANGE_TOL."""
    # Tr[S s_i S s_j] = sum_ab (S s_i)_ab (S s_j)_ba, so three products serve
    # all six entries.
    prods = [sqrt_m @ local_observable(n_qubits, qubit_index, p) for p in (1, 2, 3)]
    m = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):  # lower triangle follows by symmetry of the trace
            t = complex((prods[i] * prods[j].T).sum())
            if abs(t.imag) > IMAG_TOL:
                raise NumericalContractViolation(
                    f"correlation entry ({i},{j}) has imaginary residue "
                    f"{t.imag:.3e} > {IMAG_TOL:.0e}"
                )
            m[i, j] = m[j, i] = t.real
    w = np.linalg.eigvalsh(m)
    if w[0] < -RANGE_TOL or w[-1] > 1 + RANGE_TOL:
        raise NumericalContractViolation(
            f"correlation matrix eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] "
            f"escape [0, 1] beyond {RANGE_TOL:.0e}"
        )
    return m, float(w[-1])


def correlation_matrix(rho: DensityMatrix, qubit_index: int) -> np.ndarray:
    """The real symmetric 3x3 Pauli correlation matrix for measurements on
    one qubit.

    The state's shared sqrt(rho) is reused across all entries (six
    computed, three mirrored).
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _correlation_given_sqrt(rho.spectrum.sqrt(), rho.n_qubits, qubit_index)[0]


def _clamp_unit(value: float) -> float:
    """Snap rounding excursions back onto [0, 1]. The correlation range
    check has already bounded them by RANGE_TOL."""
    return min(max(value, 0.0), 1.0)


def _lqu_given_sqrt(sqrt_m: np.ndarray, n_qubits: int, qubit_index: int) -> float:
    _, lam_max = _correlation_given_sqrt(sqrt_m, n_qubits, qubit_index)
    return _clamp_unit(1.0 - lam_max)


def lqu_bipartition(rho: DensityMatrix, qubit_index: int) -> float:
    """Local quantum uncertainty for the bipartition (qubit_index | rest).

    One minus the largest eigenvalue of the correlation matrix; 1 for the
    noiseless GHZ families, 0 for the maximally mixed and for any product
    of a pure qubit with the rest.
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _lqu_given_sqrt(rho.spectrum.sqrt(), rho.n_qubits, qubit_index)


def lqu_all(rho: DensityMatrix) -> LquReport:
    """Per-bipartition values for every qubit plus their arithmetic mean.

    The state's shared square root serves every qubit; the mean sums in
    ascending qubit order so results are order-independent.
    """
    sqrt_m = rho.spectrum.sqrt()
    values = tuple(_lqu_given_sqrt(sqrt_m, rho.n_qubits, q) for q in range(rho.n_qubits))
    return LquReport(per_bipartition=values, mean=sum(values) / rho.n_qubits)


def lqu_variational(rho: DensityMatrix, qubit_index: int, n_samples: int, seed: int) -> float:
    """Sampling upper bound on the bipartition value.

    Minimizes skew information over n_samples observables n . sigma on the
    measured qubit, with directions n uniform on the sphere (normalized
    Gaussian triples). Always >= lqu_bipartition up to rounding, converging
    to it as n_samples grows. Deliberately avoids the eigenvalue route so it
    can serve as an independent check of it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _check_qubit(rho.n_qubits, qubit_index)
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = gaussian_reals(rng, 3 * n_samples).reshape(n_samples, 3)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    obs = np.stack([local_observable(rho.n_qubits, qubit_index, p) for p in (1, 2, 3)])
    k_batch = np.einsum("si,ijk->sjk", directions, obs)
    return float(_skew_terms(rho.matrix, rho.spectrum.sqrt(), k_batch).min())
