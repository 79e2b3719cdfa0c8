"""State families, white-noise mixing, seeded random pure states, validation.

Basis convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index. So for three qubits the
amplitude at index 4 belongs to |100>.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.scanner import make_scanner
from typing import TextIO

import numpy as np

from .linalg import HERMITICITY_TOL, PSD_TOL, TRACE_TOL, Spectrum, spectrum

# Largest qubit count the package accepts, checked by qubit_dimension before
# anything of size 2^N is allocated. One complex d x d matrix takes
# 16 * 4^N bytes (256 MiB at N = 12) and the dense path holds about ten.
MAX_QUBITS = 12


def qubit_dimension(n_qubits, error: type[ValueError] = ValueError) -> int:
    """2^n_qubits, after the one qubit-count rule: a positive integer no
    larger than MAX_QUBITS. A count it rejects raises error naming it."""
    integer = isinstance(n_qubits, (int, np.integer)) and not isinstance(n_qubits, bool)
    if not integer or n_qubits < 1:
        raise error(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise error(f"n_qubits {n_qubits} exceeds the limit of {MAX_QUBITS}")
    return 2**n_qubits


@contextmanager
def output_file(path) -> Iterator[TextIO]:
    """path opened for writing text. If the block raises, the partial file
    is removed, but only a regular file: never a device such as /dev/stdout
    or a FIFO, and nothing at all if the open itself fails."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


class UnknownFamily(ValueError):
    """Requested state family is not defined."""


class NoiseOutOfRange(ValueError):
    """White-noise fraction outside [0, 1]."""


class GammaOutOfRange(ValueError):
    """Kay-family parameter outside [2, GAMMA_MAX]."""


# Largest Kay gamma: 8 * GAMMA_MAX is the float maximum, so the normalisation
# 8 + 8 gamma is finite up to here and overflows beyond it.
GAMMA_MAX = float(np.finfo(float).max) / 8


def check_param(param: float, kay: bool = False) -> None:
    """The one rule for a family's parameter, checked before anything is
    built or opened: the Kay gamma lies in [2, GAMMA_MAX], every other
    family's white-noise fraction in [0, 1]. NaN and +-inf fail both."""
    if kay:
        if not 2.0 <= param <= GAMMA_MAX:
            raise GammaOutOfRange(
                f"gamma = {param} outside [2, {GAMMA_MAX!r}]: below 2 the state is "
                f"not PSD, and above it the trace normalisation 8 + 8 gamma overflows"
            )
    elif not 0.0 <= param <= 1.0:
        raise NoiseOutOfRange(f"noise fraction {param} outside [0, 1]")


class DensityMatrixFormatError(ValueError):
    """Density-matrix file is malformed; message carries the position."""


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N complex matrix meant to be Hermitian, unit-trace and PSD.

    Construction checks the shape and that every entry is finite; the other
    invariants are checked by validate(), which reports violations as data
    instead of raising. The matrix is stored as a read-only copy, so the
    spectrum computed from it on first use can never go stale.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = qubit_dimension(self.n_qubits)
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix has shape {m.shape}, expected ({dim}, {dim}) "
                f"for {self.n_qubits} qubits"
            )
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(f"matrix[{i}][{j}] is not finite: {m[i, j]}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def spectrum(self) -> Spectrum:
        """The one eigendecomposition of this state: validate and every
        sqrt(rho) in core read it."""
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
    1 <= N <= MAX_QUBITS, and every amplitude must be finite.
    """
    check_param(noise)
    psi = np.asarray(amplitudes, dtype=complex)
    dim = psi.size
    n = dim.bit_length() - 1
    if not (1 <= n <= MAX_QUBITS and dim == 2**n):
        raise ValueError(
            f"amplitude vector has length {dim}, "
            f"expected 2^N with 1 <= N <= {MAX_QUBITS}"
        )
    if not np.isfinite(psi).all():
        raise ValueError("amplitude vector has a non-finite entry")
    m = (1.0 - noise) * np.outer(psi, psi.conj()) + (noise / dim) * np.eye(dim)
    return DensityMatrix(n_qubits=n, matrix=m)


def kay_state(gamma: float) -> DensityMatrix:
    """The one-parameter 8x8 PPT family, valid for 2 <= gamma <= GAMMA_MAX.

    Its smallest eigenvalue is (gamma - 2) / (8 + 8 gamma), so check_param's
    range is exactly where the matrix is a state that floats can hold.
    """
    g = float(gamma)
    check_param(g, kay=True)
    m = np.zeros((8, 8), dtype=complex)
    diag = [4 + g] + [g] * 6 + [4 + g]
    anti = [2, 2, -2, 2, 2, -2, 2, 2]
    for i in range(8):
        m[i, i] = diag[i]
        m[i, 7 - i] = anti[i]
    m /= 8 + 8 * g
    return DensityMatrix(n_qubits=3, matrix=m)


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
    dim = qubit_dimension(n_qubits)
    rng = np.random.Generator(np.random.PCG64(seed))
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
    """The one definition of a valid entry and of each entry diagnostic:
    the entry's value, or an error naming matrix[row][col]."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] must be a [re, im] pair of numbers, got {value!r}"
        )
    try:
        real, imag = float(value[0]), float(value[1])
    except OverflowError:  # an integer beyond the float range
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] has a component outside the float range"
        ) from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise DensityMatrixFormatError(
            f"matrix[{row}][{col}] has a non-finite component: [{real}, {imag}]"
        )
    return complex(real, imag)


def _row(row, i: int, dim: int) -> np.ndarray:
    """Row i of the matrix as dim complex numbers, checked by _entry's rules;
    raises naming the row or its first malformed entry. The decoder yields
    only exact int, float, bool, str, None, list and dict, so the bulk test
    type(x) in {int, float} is _entry's "number but not bool"."""
    if not isinstance(row, list) or len(row) != dim:
        got = len(row) if isinstance(row, list) else type(row).__name__
        raise DensityMatrixFormatError(f"matrix row {i} must have {dim} entries, got {got}")
    if (
        set(map(type, row)) == {list}
        and set(map(len, row)) == {2}
        and set(map(type, chain.from_iterable(row))) <= {int, float}
    ):
        try:
            a = np.fromiter(chain.from_iterable(row), float, count=2 * dim)
        except OverflowError:  # an integer beyond the float range; _entry names it
            a = None
        if a is not None and np.isfinite(a).all():
            return a.view(complex)
    return np.array([_entry(value, i, j) for j, value in enumerate(row)])


def _parse_int(digits: str):
    try:
        return int(digits)
    except ValueError:  # beyond Python's digit limit for int(); the caller names it
        return float(digits)


def _decode(text: str) -> tuple[int, list[np.ndarray]]:
    """json.loads the whole document and check it in order, with the message
    of the first defect: the one source of every format diagnostic."""
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
    dim = qubit_dimension(doc["n_qubits"], DensityMatrixFormatError)
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != dim:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DensityMatrixFormatError(f"matrix must have {dim} rows, got {got}")
    return doc["n_qubits"], [_row(row, i, dim) for i, row in enumerate(rows)]


_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace; str.isspace admits more


def _walk(text: str) -> tuple[int, list[np.ndarray]]:
    """Decode the top-level object one value at a time with json's own
    scanner, and the "matrix" array one row at a time, so no more than one
    row's lists are alive at once. Raises on anything it does not expect,
    valid or not; _decode then gives the verdict."""
    scan = make_scanner(json.JSONDecoder(parse_int=_parse_int))
    skip = _WHITESPACE.match
    doc = {}
    i = skip(text).end()
    if text[i] != "{":
        raise ValueError("not an object")
    while True:
        key, i = scan(text, skip(text, i + 1).end())
        i = skip(text, i).end()
        if not isinstance(key, str) or text[i] != ":":
            raise ValueError("not a key")
        i = skip(text, i + 1).end()
        if key == "matrix":
            dim = qubit_dimension(doc["n_qubits"]) if "n_qubits" in doc else None
            doc[key], i = _walk_rows(text, i, scan, dim)
        else:
            doc[key], i = scan(text, i)
        i = skip(text, i).end()
        if text[i] == "}":
            break
        if text[i] != ",":
            raise ValueError("no comma")
    if skip(text, i + 1).end() != len(text):
        raise ValueError("extra data")
    rows = doc.get("matrix", ())
    if len(rows) != qubit_dimension(doc.get("n_qubits")) or rows[0].size != len(rows):
        raise ValueError("wrong row count")
    return doc["n_qubits"], rows


def _walk_rows(text: str, i: int, scan, dim: int | None) -> tuple[list[np.ndarray], int]:
    """The rows of the array at text[i], each checked and converted by _row as
    soon as it is decoded, and the index just past the array. Before n_qubits
    is read (dim None), the first row's length stands in for dim; _walk
    checks it at the end."""
    if text[i] != "[":
        raise ValueError("not an array")
    skip = _WHITESPACE.match
    rows = []
    while True:
        row, i = scan(text, skip(text, i + 1).end())
        if dim is None:
            dim = len(row) if isinstance(row, list) else 0
        rows.append(_row(row, len(rows), dim))
        i = skip(text, i).end()
        if text[i] == "]":
            return rows, i + 1
        if text[i] != ",":
            raise ValueError("no comma")


def density_matrix_from_json(text: str) -> DensityMatrix:
    """Parse the JSON density-matrix format, with position-bearing errors.

    A document is decoded row by row, so its peak memory is about the size
    of the text; anything the walk does not expect, valid or not, is
    decoded whole by json.loads instead, which names the first defect."""
    # On a document it does not expect, the walk raises the scanner's
    # StopIteration (no value at the index) or JSONDecodeError, an IndexError
    # past the end, a format error from _row or qubit_dimension, a
    # RecursionError, or an OverflowError should any conversion overflow.
    try:
        n, rows = _walk(text)
    except (StopIteration, IndexError, ValueError, RecursionError, OverflowError):
        rows = None
    if rows is None:
        # Outside the handler, so the walk's rows are freed first and its
        # exception does not become the context of _decode's.
        n, rows = _decode(text)
    return DensityMatrix(n_qubits=n, matrix=rows)  # stacks the rows into its one copy


def load_density_matrix(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return density_matrix_from_json(fh.read())


def _json_pieces(rho: DensityMatrix) -> Iterator[str]:
    """The document in pieces of one row each; joined, they are the bytes of
    json.dumps({"n_qubits": N, "matrix": nested [re, im] lists})."""
    yield f'{{"n_qubits": {json.dumps(rho.n_qubits)}, "matrix": ['
    # A C-contiguous complex array viewed as floats is its [re, im] pairs.
    pairs = np.ascontiguousarray(rho.matrix).view(float).reshape(rho.dim, rho.dim, 2)
    for i, row in enumerate(pairs):
        if i:
            yield ", "
        yield json.dumps(row.tolist())
    yield "]}"


def density_matrix_to_json(rho: DensityMatrix) -> str:
    """Serialize with full round-trip float precision."""
    return "".join(_json_pieces(rho))


def save_density_matrix(rho: DensityMatrix, path) -> None:
    """Write the JSON document one row at a time, so memory does not grow
    with the document. A write that fails removes the partial file."""
    with output_file(path) as fh:
        fh.writelines(_json_pieces(rho))
        fh.write("\n")
