"""Complex linear algebra helpers for small dense Hermitian problems.

Everything here operates on square numpy arrays of complex128. The heavy
lifting (eigendecomposition) is delegated to LAPACK via numpy; this module
measures what states.validate checks, and holds the package's one table of
numerical tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# --- tolerances ------------------------------------------------------------
#
# Every threshold the package applies, in one place, but for spectrum's root
# floor, which is eigh's own rounding. All are absolute: they bound entries,
# eigenvalues and traces of unit-trace density matrices and the Pauli
# correlations built from them, which are O(1) whatever the qubit count, so
# a fixed band far above double rounding separates rounding dirt from a
# real defect. README.md ("Tolerances") gives the reason for each.
HERMITICITY_TOL = 1e-10  # max |m - m^H| of a state
TRACE_TOL = 1e-10        # |Tr rho - 1|, and |<psi|psi> - 1| of an amplitude vector
PSD_TOL = 1e-8           # how far below 0 an eigenvalue of rho may sit
IMAG_TOL = 1e-10         # imaginary residue of a correlation entry
RANGE_TOL = 1e-9         # how far correlation eigenvalues may leave [0, 1]


class NoConvergence(ArithmeticError):
    """Eigensolver failed to converge."""


@dataclass(frozen=True)
class Spectrum:
    """What the package reads from one eigendecomposition of a matrix.

    hermiticity_defect is max |m - m^dagger| of the matrix itself;
    eigenvalues (ascending) and root belong to its Hermitian part. The
    principal square root S zeroes every eigenvalue at or below the rounding
    floor and keeps the trace, Tr S^2 = Tr m. root holds S itself, or, when
    the r eigenvalues above the floor have 2r <= d, the d x r factor
    F = V_r diag(w_r^(1/4)) with S = F F^dagger (the support route). A
    plain record: states.validate judges the invariants, and
    states.valid_root hands out root once they hold.
    """

    hermiticity_defect: float
    eigenvalues: np.ndarray
    root: np.ndarray


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m^dagger|; inf when it overflows."""
    with np.errstate(over="ignore"):  # finite entries near the float maximum
        return float(np.abs(m - m.conj().T).max())


def spectrum(m) -> Spectrum:
    """Hermiticity defect, eigenvalues and square root from one eigh.

    Never raises on a non-Hermitian or non-PSD input, so validation can
    report such defects as data.
    Eigenvalues below dim * eps * max|lambda| are zeroed in the root: for
    rank-deficient input the eigensolver reports the null space as O(eps)
    noise, and sqrt would amplify +1e-16 to 1e-8. The kept eigenvalues are
    rescaled to sum to the trace, so Tr S^2 = Tr m although the negative
    mass states.validate admits is dropped; the rescale is skipped unless
    both sums are positive and finite. The r eigenvalues above the floor
    pick the route: for 2r <= d the root is stored as its d x r factor,
    whose r x r products with an operator cost less than S's.
    """
    a = np.asarray(m, dtype=complex)
    try:  # on the exactly-Hermitian part, so LAPACK sees clean input; halving
        # first is exact for normal floats and cannot overflow
        w, v = np.linalg.eigh(a / 2 + a.conj().T / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    d = w.shape[0]
    floor = d * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    kept = w > floor
    rank = int(np.count_nonzero(kept))
    with np.errstate(over="ignore", invalid="ignore"):  # eigenvalues near the float maximum
        trace, mass = w.sum(), w[d - rank:].sum()  # ascending: the kept are last
    scale = trace / mass if 0 < trace < np.inf and 0 < mass < np.inf else 1.0
    root_w = np.where(kept, w * scale, 0.0)
    if 2 * rank <= d:  # ascending, so the support is the last r columns
        return Spectrum(hermiticity_defect(a), w, v[:, d - rank:] * root_w[d - rank:] ** 0.25)
    root = (v * np.sqrt(root_w)) @ v.conj().T
    return Spectrum(hermiticity_defect(a), w, (root + root.conj().T) / 2)
