"""The measure itself: per-qubit 3x3 correlation matrices, per-bipartition
local quantum uncertainty and the N-qubit arithmetic mean.

For one measured qubit k the 3x3 matrix holds
Tr[sqrt(rho) sigma_i^(k) sqrt(rho) sigma_j^(k)], i,j over x,y,z, with the
Pauli acting on qubit k and identity elsewhere. The bipartition value is one
minus the largest eigenvalue of that matrix.

Every consumer reads the state's root through states.valid_root, so a state
that validate rejects raises InvalidDensityMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import IMAG_TOL, RANGE_TOL
from .states import DensityMatrix, qubit_dimension, valid_root

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {1: PAULI_X, 2: PAULI_Y, 3: PAULI_Z}
IDENTITY_2 = np.eye(2, dtype=complex)
_Y_PHASES = np.array([-1j, 1j]).reshape(1, 2, 1)  # PAULI_Y's nonzero entries, by row
_Z_SIGNS = np.array([1.0, -1.0]).reshape(1, 2, 1)


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
    qubit_dimension(n_qubits)  # the 2^N x 2^N product is bounded before it is built
    _check_qubit(n_qubits, qubit_index)
    if pauli_index not in PAULIS:
        raise IndexOutOfRange(f"pauli_index must be 1, 2 or 3, got {pauli_index}")
    factors = [IDENTITY_2] * n_qubits
    factors[qubit_index] = PAULIS[pauli_index]
    return reduce(np.kron, factors)


def _support_products(factor: np.ndarray, qubit_index: int) -> list[np.ndarray]:
    """(s_p F)^H F for p = x, y, z. Each s_p F is written into one d x r
    buffer and conjugated there, so one is held at a time."""
    halves = factor.reshape(2**qubit_index, 2, -1)
    flipped = halves[:, ::-1]
    s_f = np.conjugate(flipped)
    prods = [s_f.reshape(factor.shape).T @ factor]
    for rows, signs in ((flipped, _Y_PHASES), (halves, _Z_SIGNS)):
        np.conjugate(np.multiply(rows, signs, out=s_f), out=s_f)
        prods.append(s_f.reshape(factor.shape).T @ factor)
    return prods


def _correlation_given_root(
    root: np.ndarray, n_qubits: int, qubit_index: int
) -> tuple[np.ndarray, float]:
    """The correlation matrix and its largest eigenvalue, after checking that
    its eigenvalues lie in [0, 1] up to RANGE_TOL.

    root is a Spectrum's root: S = sqrt(rho), or on the support route its
    d x r factor F with S = F F^dagger. For a state validate accepts, S is
    Hermitian with Tr S^2 = Tr rho, so the IMAG_TOL and RANGE_TOL checks
    fail only on an arithmetic fault.
    """
    # Tr[S s_i S s_j] = sum_ab (S s_i)_ab (S s_j)_ba, so three products serve
    # all six entries; with S = F F^dagger it equals
    # Tr[(F^H s_i F)(F^H s_j F)], the same sum over r x r products. There
    # F^H s_i F = (s_i F)^H F, and s_i F is formed by indexing F's rows, with
    # qubit k's bit as axis 1: s_x swaps the two halves, s_y swaps them and
    # multiplies by (-i, i), s_z multiplies by (1, -1). No 2^N x 2^N operator
    # is built.
    if root.shape[1] < root.shape[0]:
        prods = _support_products(root, qubit_index)
    else:
        prods = [root @ local_observable(n_qubits, qubit_index, p) for p in (1, 2, 3)]
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

    The state's shared root is reused across all entries (six computed,
    three mirrored).
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _correlation_given_root(valid_root(rho), rho.n_qubits, qubit_index)[0]


def _clamp_unit(value: float) -> float:
    """Snap rounding excursions back onto [0, 1]. The correlation range
    check has already bounded them by RANGE_TOL."""
    return min(max(value, 0.0), 1.0)


def _lqu_given_root(root: np.ndarray, n_qubits: int, qubit_index: int) -> float:
    _, lam_max = _correlation_given_root(root, n_qubits, qubit_index)
    return _clamp_unit(1.0 - lam_max)


def lqu_bipartition(rho: DensityMatrix, qubit_index: int) -> float:
    """Local quantum uncertainty for the bipartition (qubit_index | rest).

    One minus the largest eigenvalue of the correlation matrix; 1 for the
    noiseless GHZ families, 0 for the maximally mixed and for any product
    of a pure qubit with the rest.
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _lqu_given_root(valid_root(rho), rho.n_qubits, qubit_index)


def lqu_all(rho: DensityMatrix) -> LquReport:
    """Per-bipartition values for every qubit plus their arithmetic mean.

    The state's shared root serves every qubit; the mean sums in ascending
    qubit order so results are order-independent.
    """
    root = valid_root(rho)
    values = tuple(_lqu_given_root(root, rho.n_qubits, q) for q in range(rho.n_qubits))
    return LquReport(per_bipartition=values, mean=sum(values) / rho.n_qubits)
