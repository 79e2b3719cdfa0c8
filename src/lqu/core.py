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

import numpy as np

from .linalg import IMAG_TOL, RANGE_TOL
from .states import DensityMatrix, is_integer, valid_root

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # computed entries, in check order
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SIGMA_I, _SIGMA_J = _SIGMA[np.array(_PAIRS).T]  # sigma_i and sigma_j of each computed entry


class IndexOutOfRange(IndexError):
    """Qubit index outside its valid range."""


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
    if not is_integer(qubit_index):
        raise IndexOutOfRange(f"qubit_index must be an integer, got {qubit_index!r}")
    if not 0 <= qubit_index < n_qubits:
        raise IndexOutOfRange(f"qubit_index {qubit_index} outside [0, {n_qubits})")


def _block_gram(t: np.ndarray) -> np.ndarray:
    """G[p,q,r,s] = Tr[M_pq M_rs] over the 2 x 2 blocks M_pq of a matrix M
    viewed as t = M.reshape(a, 2, b, a, 2, b), the bit p of each row and q of
    each column made an explicit index: one (4, (ab)^2) by ((ab)^2, 4)
    product of two transposed copies of M."""
    return (t.transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
            @ t.transpose(3, 5, 0, 2, 1, 4).reshape(-1, 4)).reshape(2, 2, 2, 2)


def _correlations_given_root(root: np.ndarray, qubits: range) -> tuple[np.ndarray, np.ndarray]:
    """The correlation matrices of the qubits, stacked (len(qubits), 3, 3),
    and their eigenvalues, ascending, after checking that every entry is
    real up to IMAG_TOL and every eigenvalue lies in [0, 1] up to RANGE_TOL.
    The lowest failing qubit is reported, its entries before its eigenvalues.

    root is a Spectrum's root: S = sqrt(rho), or on the support route its
    d x r factor F with S = F F^dagger. For a state validate accepts, S is
    Hermitian with Tr S^2 = Tr rho, so the checks fail only on an arithmetic
    fault.
    """
    # One qubit k at a time. With k's bit an explicit index, S splits into
    # d/2 x d/2 blocks S_pq over the other qubits, and Tr[S s_i S s_j] =
    # sum s_i[q,r] s_j[s,p] G[p,q,r,s] over the block Gram G[p,q,r,s] =
    # Tr[S_pq S_rs]. With S = F F^dagger, S_pq = F_p F_q^dagger for the rows
    # F_0, F_1 of F whose bit k is 0, 1, so G[p,q,r,s] = Tr[Y_sp Y_qr] over
    # the blocks Y_sp = F_s^dagger F_p of Y = X^dagger X, X = [F_0 F_1]: the
    # block Gram of the 2r x 2r matrix Y, its first axis moved last.
    # The sums are stored conjugated: the real parts are unchanged, and for a
    # non-Hermitian S the imaginary residue checked reads as that of
    # conj Tr[S s_i S s_j], the sign tests/test_core.py pins in its message.
    d, r = root.shape
    traces = np.empty((len(qubits), len(_PAIRS)), complex)
    for row, k in zip(traces, qubits):
        if r == d:
            gram = _block_gram(root.reshape(2**k, 2, -1, 2**k, 2, d >> (k + 1)))
        else:
            x = root.reshape(2**k, 2, -1, r).transpose(0, 2, 1, 3).reshape(-1, 2 * r)
            gram = np.moveaxis(_block_gram((x.conj().T @ x).reshape(1, 2, r, 1, 2, r)), 0, -1)
        np.einsum("eqr,esp,pqrs->e", _SIGMA_I, _SIGMA_J, gram, out=row)
    np.conjugate(traces, out=traces)
    m = traces.real[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
    w = np.linalg.eigvalsh(m)
    bad_imag = np.abs(traces.imag) > IMAG_TOL
    bad_range = (w[:, 0] < -RANGE_TOL) | (w[:, -1] > 1 + RANGE_TOL)
    if bad_imag.any() or bad_range.any():
        q = int((bad_imag.any(axis=1) | bad_range).argmax())
        if bad_imag[q].any():
            e = int(bad_imag[q].argmax())
            i, j = _PAIRS[e]
            raise NumericalContractViolation(
                f"correlation entry ({i},{j}) has imaginary residue "
                f"{traces[q, e].imag:.3e} > {IMAG_TOL:.0e}"
            )
        raise NumericalContractViolation(
            f"correlation matrix eigenvalues [{w[q, 0]:.3e}, {w[q, -1]:.3e}] "
            f"escape [0, 1] beyond {RANGE_TOL:.0e}"
        )
    return m, w


def correlation_matrix(rho: DensityMatrix, qubit_index: int) -> np.ndarray:
    """The real symmetric 3x3 Pauli correlation matrix for measurements on
    one qubit.

    The state's shared root is reused across all entries (six computed,
    three mirrored).
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _correlations_given_root(valid_root(rho), range(qubit_index, qubit_index + 1))[0][0]


def _clamp_unit(value: float) -> float:
    """Snap rounding excursions back onto [0, 1]. The correlation range
    check has already bounded them by RANGE_TOL."""
    return min(max(value, 0.0), 1.0)


def _lqus_given_root(root: np.ndarray, qubits: range) -> tuple[float, ...]:
    w = _correlations_given_root(root, qubits)[1]
    return tuple(_clamp_unit(1.0 - lam_max) for lam_max in w[:, -1].tolist())


def lqu_bipartition(rho: DensityMatrix, qubit_index: int) -> float:
    """Local quantum uncertainty for the bipartition (qubit_index | rest).

    One minus the largest eigenvalue of the correlation matrix; 1 for the
    noiseless GHZ families, 0 for the maximally mixed and for any product
    of a pure qubit with the rest.
    """
    _check_qubit(rho.n_qubits, qubit_index)
    return _lqus_given_root(valid_root(rho), range(qubit_index, qubit_index + 1))[0]


def lqu_all(rho: DensityMatrix) -> LquReport:
    """Per-bipartition values for every qubit plus their arithmetic mean.

    The state's shared root serves every qubit, one qubit at a time; the
    mean sums in ascending qubit order so results are order-independent.
    """
    values = _lqus_given_root(valid_root(rho), range(rho.n_qubits))
    return LquReport(per_bipartition=values, mean=sum(values) / rho.n_qubits)
