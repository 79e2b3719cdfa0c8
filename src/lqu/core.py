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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import IMAG_TOL, RANGE_TOL
from .states import DensityMatrix, is_integer, valid_root

_Y_PHASES = np.array([-1j, 1j])  # sigma_y's nonzero entries, by the row's bit
_Z_SIGNS = np.array([1.0, -1.0])
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


def _conj_pauli(m: np.ndarray, qubit: int, out: np.ndarray) -> Iterator[np.ndarray]:
    """conj(s_p m) for p = x, y, z on the qubit, each written over the last
    in out, shaped like m.

    s_p m is one gather of m's rows (qubit 0 is the most significant bit of
    a row index): s_x takes row i from row i with the qubit's bit flipped,
    s_y does the same and multiplies row i by -i or i as that bit of i is 0
    or 1, s_z multiplies row i by 1 or -1. No 2^N x 2^N operator is built.
    """
    m = np.asarray(m, dtype=complex)  # a real m is promoted
    rows = np.arange(m.shape[0])
    shift = m.shape[0].bit_length() - 2 - qubit  # N - 1 - k
    bits = (rows >> shift) & 1
    flipped = rows ^ (1 << shift)
    m.take(flipped, axis=0, out=out, mode="clip")
    yield np.conjugate(out, out=out)
    m.take(flipped, axis=0, out=out, mode="clip")  # the consumer may have reused out
    np.multiply(out, _Y_PHASES[bits][:, None], out=out)
    yield np.conjugate(out, out=out)
    np.multiply(m, _Z_SIGNS[bits][:, None], out=out)
    yield np.conjugate(out, out=out)


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
    # Tr[S_pq S_rs]: one (4, d^2/4) by (d^2/4, 4) product of two copies of S.
    # The sums are stored conjugated: the real parts are unchanged, and for a
    # non-Hermitian S the imaginary residue checked reads as that of
    # conj Tr[S s_i S s_j], the sign tests/test_core.py pins in its message.
    # With S = F F^dagger the trace equals Tr[(F^H s_i F)(F^H s_j F)], summed
    # over r x r products T_i = F^H s_i F = conj(s_i F)^T F.
    d, r = root.shape
    traces = np.empty((len(qubits), len(_PAIRS)), complex)
    if r == d:
        for row, k in zip(traces, qubits):
            t = root.reshape(2**k, 2, -1, 2**k, 2, d >> (k + 1))
            gram = (t.transpose(1, 4, 0, 2, 3, 5).reshape(4, -1)
                    @ t.transpose(3, 5, 0, 2, 1, 4).reshape(-1, 4))
            np.einsum("eqr,esp,pqrs->e", _SIGMA_I, _SIGMA_J, gram.reshape(2, 2, 2, 2), out=row)
        np.conjugate(traces, out=traces)
    else:
        gathered = np.empty((d, r), complex)
        scratch = gathered.reshape(-1)[: r * r].reshape(r, r)  # free once each product is formed
        prods = np.empty((3, r, r), complex)
        for row, k in zip(traces, qubits):
            for p, b in enumerate(_conj_pauli(root, k, gathered)):
                np.matmul(b.T, root, out=prods[p])
                for i in range(p + 1):
                    row[_PAIRS.index((i, p))] = np.multiply(prods[i], prods[p].T, out=scratch).sum()
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
