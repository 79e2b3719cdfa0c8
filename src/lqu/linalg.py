"""Complex linear algebra helpers for small dense Hermitian problems.

Everything here operates on square complex128 matrices. The heavy
lifting (eigendecomposition) is delegated to LAPACK via numpy; this module
measures what states.validate checks, and holds the package's one table of
numerical tolerances.
"""

from __future__ import annotations

import math
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
    """What the package reads from the spectrum of a matrix: spectrum's
    eigendecomposition, or a family's closed form (mixture_spectrum's, or
    a kay point's from its exact eigenpairs).

    hermiticity_defect is max |m - m^dagger| of the matrix itself; a closed
    form's is the defect of the exact state, which is 0. eigenvalues
    (ascending) and root belong to its Hermitian part. The principal square
    root S keeps the trace, Tr S^2 = Tr m. root holds S
    itself, or, for a rank r on the support route, the d x r factor
    F = V_r diag(w_r^(1/4)) of the r nonzero eigenvalues, with
    S = F F^dagger. A plain record: states.validate judges the invariants,
    and states.valid_root hands out root once they hold.
    """

    hermiticity_defect: float
    eigenvalues: np.ndarray
    root: np.ndarray


def spectrum(m) -> Spectrum:
    """Hermiticity defect, eigenvalues and square root of one matrix, from
    one eigh.

    Never raises on a non-Hermitian or non-PSD input, so validation can
    report such defects as data.
    """
    a = np.asarray(m, dtype=complex)
    try:  # on the exactly-Hermitian part, so LAPACK sees clean input; halving
        # first is exact for normal floats and cannot overflow
        w, v = np.linalg.eigh(a / 2 + a.conj().T / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    # Finite entries near the float maximum overflow the defect. Only a
    # matrix validate rejects can overflow in _root: an accepted state's
    # eigenvalues sum to within TRACE_TOL of 1, with none below -PSD_TOL.
    with np.errstate(over="ignore", invalid="ignore"):
        return Spectrum(float(np.abs(a - a.conj().T).max()), w, _root(w, v))


def _support_route(r: int, d: int) -> bool:
    """The route rule: a root of rank r keeps its d x r factor for 4r <= d,
    whose 2r x 2r Gram per qubit in core costs less time and memory than
    the block Gram of S up to about that rank, and more above it."""
    return 4 * r <= d


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root of one matrix from its eigenvalues w (ascending) and
    eigenvectors v.

    Eigenvalues at or below d * eps * max|w| are zeroed: for rank-deficient
    input the eigensolver reports the null space as O(eps) noise, and sqrt
    would amplify +1e-16 to 1e-8. The r kept eigenvalues are rescaled to sum
    to the trace, so Tr S^2 = Tr m although the negative mass
    states.validate admits is dropped; the rescale is skipped unless both
    sums are positive and finite. On the support route the root is the
    d x r factor.
    """
    d = len(w)
    r = d - np.searchsorted(w, d * np.finfo(float).eps * np.maximum(-w[0], w[-1]), "right")
    # the kept mass over the last r alone: summing the floored zeros in
    # would regroup numpy's pairwise sum
    trace, mass = w.sum(), w[d - r:].sum()
    scaled = w * (trace / mass if 0 < trace < np.inf and 0 < mass < np.inf else 1.0)
    if _support_route(r, d):  # ascending, so the support is the last r columns
        return v[:, d - r:] * scaled[d - r:] ** 0.25
    scaled[:d - r] = 0.0
    s = (v * np.sqrt(scaled)) @ v.conj().T
    return (s + s.conj().T) / 2


def mixture_spectrum(psi: np.ndarray, norm2: float, noise: float) -> Spectrum:
    """The Spectrum of (1 - noise) psi psi^dagger + noise * I / d in closed
    form, with no eigh, given norm2 = |psi|^2.

    With b = noise / d and t = (1 - noise) |psi|^2 + b, the eigenvalues are
    b (d - 1 times) and t, and the root is S = c I + g psi psi^dagger / |psi|^2
    with c = sqrt(b) and g = sqrt(t) - c, written (t - b) / (sqrt(t) + c)
    so that it does not cancel; the identity part is carried exactly, so no
    eigenvalue needs a floor. At b = 0 the rank is 1, and the support route
    keeps the d x 1 factor t^(1/4) psi / |psi|. The state is exactly
    Hermitian, so its Hermiticity defect is 0.
    """
    d = len(psi)
    a, b = (1.0 - noise) * norm2, noise / d
    w = np.full(d, b)
    w[-1] = a + b
    if _support_route(1 if b == 0 else d, d):
        root = (psi * (w[-1]**0.25 / math.sqrt(norm2)))[:, None]
    else:
        c = math.sqrt(b)
        root = np.outer(psi, psi.conj() * (a / (math.sqrt(w[-1]) + c) / norm2))
        root.flat[::d + 1] += c
    return Spectrum(0.0, w, root)
