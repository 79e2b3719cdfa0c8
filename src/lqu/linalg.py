"""Complex linear algebra helpers for small dense Hermitian problems.

Everything here operates on square numpy arrays of complex128. The heavy
lifting (eigendecomposition) is delegated to LAPACK via numpy; this module
adds the Hermiticity/positivity contracts the rest of the package relies on,
and holds the package's one table of numerical tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# --- tolerances ------------------------------------------------------------
#
# Every threshold the package applies, in one place. All are absolute: they
# bound entries, eigenvalues and traces of unit-trace density matrices and
# the Pauli correlations built from them, which are O(1) whatever the qubit
# count, so a fixed band far above double rounding separates rounding dirt
# from a real defect. README.md ("Tolerances") gives the reason for each.
HERMITICITY_TOL = 1e-10  # max |m - m^H| of a state or an observable
TRACE_TOL = 1e-10        # |Tr rho - 1|
PSD_TOL = 1e-8           # how far below 0 an eigenvalue of rho may sit
IMAG_TOL = 1e-10         # imaginary residue of a correlation entry
RANGE_TOL = 1e-9         # how far correlation eigenvalues may leave [0, 1]
SKEW_NEG_TOL = 1e-10     # how far below 0 skew information may sit


class NotHermitian(ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NoConvergence(ArithmeticError):
    """Eigensolver failed to converge."""


class NotPositiveSemidefinite(ValueError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class DimensionMismatch(ValueError):
    """Operands do not share the required dimension."""


@dataclass(frozen=True)
class Spectrum:
    """What the package reads from one eigendecomposition of a matrix.

    hermiticity_defect is max |m - m^dagger| of the matrix itself;
    eigenvalues (ascending) and root belong to its Hermitian part. root is
    the principal square root with every eigenvalue at or below the rounding
    floor zeroed; sqrt() hands it out once the contracts hold.
    """

    hermiticity_defect: float
    eigenvalues: np.ndarray
    root: np.ndarray

    def sqrt(self) -> np.ndarray:
        """Principal square root of a Hermitian PSD matrix.

        Raises NotHermitian beyond HERMITICITY_TOL and
        NotPositiveSemidefinite for an eigenvalue below -PSD_TOL; smaller
        negative eigenvalues are rounding dirt and count as zero.
        """
        require_hermitian(self.hermiticity_defect)
        if self.eigenvalues[0] < -PSD_TOL:
            raise NotPositiveSemidefinite(
                f"smallest eigenvalue {self.eigenvalues[0]:.3e} is below -{PSD_TOL:.3e}"
            )
        return self.root


def as_square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m^dagger|; inf when it overflows."""
    with np.errstate(over="ignore"):  # finite entries near the float maximum
        return float(np.abs(m - m.conj().T).max())


def require_hermitian(defect: float, name: str = "matrix") -> None:
    """Raise NotHermitian when a Hermiticity defect exceeds HERMITICITY_TOL."""
    if defect > HERMITICITY_TOL:
        raise NotHermitian(
            f"{name} is not Hermitian: max |m - m^H| = {defect:.3e} > {HERMITICITY_TOL:.3e}"
        )


def spectrum(m) -> Spectrum:
    """Hermiticity defect, eigenvalues and square root from one eigh.

    Never raises on a non-Hermitian or non-PSD input, so validation can
    report such defects as data; Spectrum.sqrt() enforces them. Eigenvalues
    below dim * eps * max|lambda| are zeroed in the root: for rank-deficient
    input the eigensolver reports the null space as O(eps) noise, and sqrt
    would amplify +1e-16 to 1e-8.
    """
    a = as_square_complex(m)
    try:  # on the exactly-Hermitian part, so LAPACK sees clean input; halving
        # first is exact for normal floats and cannot overflow
        w, v = np.linalg.eigh(a / 2 + a.conj().T / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    floor = w.shape[0] * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    root = (v * np.sqrt(np.where(w > floor, w, 0.0))) @ v.conj().T
    return Spectrum(hermiticity_defect(a), w, (root + root.conj().T) / 2)
