"""State families, white-noise mixing, seeded random pure states, validation.

Basis convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index. So for three qubits the
amplitude at index 4 belongs to |100>.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import HERMITICITY_TOL, PSD_TOL, TRACE_TOL, Spectrum, spectrum

# Largest qubit count the parser, random_pure and mix_white_noise accept,
# checked before anything of size 2^N is allocated. One complex d x d matrix
# takes 16 * 4^N bytes (256 MiB at N = 12) and the dense path holds about ten.
MAX_QUBITS = 12


class UnknownFamily(ValueError):
    """Requested state family is not defined."""


class NoiseOutOfRange(ValueError):
    """White-noise fraction outside [0, 1]."""


class GammaOutOfRange(ValueError):
    """Kay-family parameter produces a non-PSD matrix (requires gamma >= 2)."""


class DensityMatrixFormatError(ValueError):
    """Density-matrix file is malformed; message carries the position."""


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N complex matrix meant to be Hermitian, unit-trace and PSD.

    Construction only checks the shape; numeric invariants are checked by
    validate(), which reports violations as data instead of raising. The
    matrix is stored as a read-only copy, so the spectrum computed from it
    on first use can never go stale.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix has shape {m.shape}, expected ({dim}, {dim}) "
                f"for {self.n_qubits} qubits"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def spectrum(self) -> Spectrum:
        """The one eigendecomposition of this state: validate, the Kay
        family's check and every sqrt(rho) in core read it."""
        return spectrum(self.matrix)


@dataclass(frozen=True)
class Violation:
    """One failed density-matrix invariant with its measured magnitude."""

    kind: str  # HermiticityViolation | TraceViolation | PsdViolation
    magnitude: float

    def __str__(self):
        return f"{self.kind}({self.magnitude:.3e})"


# family name -> (qubit count, [(basis index, amplitude), ...])
_SQ6 = math.sqrt(6.0)
PURE_FAMILIES: dict[str, tuple[int, list[tuple[int, float]]]] = {
    "ghz3": (3, [(0, 1 / math.sqrt(2)), (7, 1 / math.sqrt(2))]),
    "w3": (3, [(i, 1 / math.sqrt(3)) for i in (1, 2, 4)]),
    "ghz4": (4, [(0, 1 / math.sqrt(2)), (15, 1 / math.sqrt(2))]),
    "w4": (4, [(i, 0.5) for i in (1, 2, 4, 8)]),
    "dicke24": (4, [(i, 1 / _SQ6) for i in (3, 5, 6, 9, 10, 12)]),
    "singlet4": (
        4,
        [(3, 1 / math.sqrt(3)), (12, 1 / math.sqrt(3))]
        + [(i, -0.5 / math.sqrt(3)) for i in (5, 6, 9, 10)],
    ),
    "cluster4": (4, [(0, 0.5), (3, 0.5), (12, 0.5), (15, -0.5)]),
    "chi4": (4, [(15, math.sqrt(2) / _SQ6)] + [(i, 1 / _SQ6) for i in (1, 2, 4, 8)]),
}

FAMILY_NAMES = tuple(PURE_FAMILIES) + ("kay", "random")


def pure_state(family: str) -> np.ndarray:
    """Amplitude vector of one of the named pure families."""
    try:
        n, pattern = PURE_FAMILIES[family]
    except KeyError:
        raise UnknownFamily(
            f"unknown pure family {family!r}; choose from {sorted(PURE_FAMILIES)}"
        ) from None
    amps = np.zeros(2**n, dtype=complex)
    for idx, amp in pattern:
        amps[idx] = amp
    return amps


def mix_white_noise(amplitudes, noise: float) -> DensityMatrix:
    """(1 - noise) |psi><psi| + noise * I / 2^N for the amplitude vector psi.

    N is read from the vector's length, which must be 2^N with
    1 <= N <= MAX_QUBITS.
    """
    if not 0.0 <= noise <= 1.0:
        raise NoiseOutOfRange(f"noise fraction {noise} outside [0, 1]")
    psi = np.asarray(amplitudes, dtype=complex)
    dim = psi.size
    n = dim.bit_length() - 1
    if not (1 <= n <= MAX_QUBITS and dim == 2**n):
        raise ValueError(
            f"amplitude vector has length {dim}, "
            f"expected 2^N with 1 <= N <= {MAX_QUBITS}"
        )
    m = (1.0 - noise) * np.outer(psi, psi.conj()) + (noise / dim) * np.eye(dim)
    return DensityMatrix(n_qubits=n, matrix=m)


def kay_state(gamma: float) -> DensityMatrix:
    """The one-parameter 8x8 PPT family, valid for gamma >= 2.

    Validity is established by eigenvalue inspection of the constructed
    matrix rather than by trusting the parameter: the smallest eigenvalue
    is (gamma - 2) / (8 + 8 gamma), negative below gamma = 2.
    """
    g = float(gamma)
    m = np.zeros((8, 8), dtype=complex)
    diag = [4 + g] + [g] * 6 + [4 + g]
    anti = [2, 2, -2, 2, 2, -2, 2, 2]
    for i in range(8):
        m[i, i] = diag[i]
        m[i, 7 - i] = anti[i]
    with np.errstate(invalid="ignore"):  # gamma = inf gives inf / inf: caught below
        m /= 8 + 8 * g
    trace = np.trace(m).real
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise GammaOutOfRange(
            f"gamma = {gamma} gives trace {trace:.3e}, not 1: the normalisation "
            f"8 + 8 gamma is finite only up to gamma = 2.2e307"
        )
    rho = DensityMatrix(n_qubits=3, matrix=m)
    if rho.spectrum.eigenvalues[0] < -PSD_TOL:
        raise GammaOutOfRange(
            f"gamma = {gamma} gives a non-PSD matrix "
            f"(min eigenvalue {(g - 2) / (8 + 8 * g):.3e}); gamma >= 2 required"
        )
    return rho


def gaussian_reals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal draws from PCG64 uniforms via Box-Muller.

    Pinned transform so seeded draws are bit-stable across platforms
    independent of numpy's internal normal sampler.
    """
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], log never hits -inf
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(2 * np.pi * u2)
    out[1::2] = r * np.sin(2 * np.pi * u2)
    return out[:n]


def random_pure(n_qubits: int, seed: int) -> np.ndarray:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes.

    Deterministic for a given seed (PCG64 bit stream + Box-Muller).
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = 2**n_qubits
    reals = gaussian_reals(rng, 2 * dim)
    amps = reals[:dim] + 1j * reals[dim:]
    amps /= np.linalg.norm(amps)
    return amps


def validate(rho: DensityMatrix) -> list[Violation]:
    """Check the Hermitian / unit-trace / PSD invariants.

    Returns an empty list when all hold at their tolerances; otherwise one
    Violation per failed invariant, magnitudes included. Never raises on a
    violation; only an eigensolver failure (NoConvergence) escapes.
    """
    spec = rho.spectrum
    out: list[Violation] = []
    if spec.hermiticity_defect > HERMITICITY_TOL:
        out.append(Violation("HermiticityViolation", spec.hermiticity_defect))
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float maximum
        trace_err = abs(complex(np.trace(rho.matrix)) - 1.0)
    if not trace_err <= TRACE_TOL:  # an overflowed sum may be nan
        out.append(Violation("TraceViolation", trace_err))
    w0 = spec.eigenvalues[0]
    if w0 < -PSD_TOL:
        out.append(Violation("PsdViolation", float(-w0)))
    return out


def build_state(
    family: str, param: float, n_qubits: int | None = None, seed: int | None = None
) -> DensityMatrix:
    """The density matrix of a named family at one parameter value.

    param is the white-noise fraction for the noise-mixed families and the
    gamma parameter for the Kay family. n_qubits and seed apply to the
    'random' family only.
    """
    if family == "kay":
        return kay_state(param)
    if family == "random":
        if n_qubits is None or seed is None:
            raise ValueError("random family needs n_qubits and seed")
        return mix_white_noise(random_pure(n_qubits, seed), param)
    if family in PURE_FAMILIES:
        return mix_white_noise(pure_state(family), param)
    raise UnknownFamily(f"unknown family {family!r}; choose from {sorted(FAMILY_NAMES)}")


# --- density-matrix JSON format -------------------------------------------
#
# {"n_qubits": N, "matrix": [[[re, im], ...], ...]}
# 2^N rows of 2^N [re, im] pairs, row-major.


def _entry(value, row: int, col: int) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] must be a [re, im] pair of numbers, got {value!r}"
        )
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError:  # an integer beyond the float range
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] has a component outside the float range"
        ) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] has a non-finite component: [{re}, {im}]"
        )
    return complex(re, im)


def _parse_int(digits: str):
    try:
        return int(digits)
    except ValueError:  # beyond Python's digit limit for int(); the caller names it
        return float(digits)


def density_matrix_from_json(text: str) -> DensityMatrix:
    """Parse the JSON density-matrix format, with position-bearing errors."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise DensityMatrixFormatError(
            f"invalid JSON at byte offset {exc.pos} "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError:
        raise DensityMatrixFormatError("JSON arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise DensityMatrixFormatError("top-level JSON value must be an object")
    if "n_qubits" not in doc or "matrix" not in doc:
        missing = {"n_qubits", "matrix"} - set(doc)
        raise DensityMatrixFormatError(f"missing required key(s): {sorted(missing)}")
    n = doc["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DensityMatrixFormatError(f"n_qubits must be a positive integer, got {n!r}")
    if n > MAX_QUBITS:
        raise DensityMatrixFormatError(f"n_qubits {n} exceeds the limit of {MAX_QUBITS}")
    dim = 2**n
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != dim:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DensityMatrixFormatError(f"matrix must have {dim} rows, got {got}")
    m = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise DensityMatrixFormatError(
                f"matrix row {i} must have {dim} entries, got {got}"
            )
        for j, value in enumerate(row):
            m[i, j] = _entry(value, i, j)
    return DensityMatrix(n_qubits=n, matrix=m)


def load_density_matrix(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return density_matrix_from_json(fh.read())


def density_matrix_to_json(rho: DensityMatrix) -> str:
    """Serialize with full round-trip float precision."""
    rows = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
    ]
    return json.dumps({"n_qubits": rho.n_qubits, "matrix": rows})


def save_density_matrix(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(density_matrix_to_json(rho))
        fh.write("\n")
