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
from typing import Callable, TextIO

import numpy as np

from .analytic import (check_gamma, check_noise, lqu_ghz3, lqu_ghz4_class, lqu_kay,
                       lqu_w3, lqu_w4)
from .linalg import (HERMITICITY_TOL, PSD_TOL, TRACE_TOL, Spectrum, _root,
                     mixture_spectrum, spectrum)

# Largest qubit count the package accepts, checked by qubit_dimension before
# anything of size 2^N is allocated. One complex d x d matrix takes
# 16 * 4^N bytes (256 MiB at N = 12). The dense path keeps a state's matrix
# (none for a sweep point) and root, and lqu_all works in at most two more
# (tests/test_core.py). Its peak is spectrum's eigh stage, the Hermitian
# part plus LAPACK's workspace, which tracemalloc does not see: measured by
# VmHWM, `lqu random` peaked 6.5 d x d above its post-import RSS at N = 10
# and 6.1 at N = 11, so about 1.5 GiB at N = 12.
MAX_QUBITS = 12


def is_integer(value) -> bool:
    """The package's rule for a count or an index: an int or a numpy
    integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def qubit_dimension(n_qubits, error: type[ValueError] = ValueError) -> int:
    """2^n_qubits, after the one qubit-count rule: a positive integer no
    larger than MAX_QUBITS. A count it rejects raises error naming it."""
    if not is_integer(n_qubits) or n_qubits < 1:
        raise error(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise error(f"n_qubits {n_qubits} exceeds the limit of {MAX_QUBITS}")
    return 2**n_qubits


def check_seed(seed, name: str = "seed") -> None:
    """The rule for an RNG seed: an integer by is_integer's rule, and >= 0.
    name is how the message names the value."""
    if not is_integer(seed):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


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


class DensityMatrixFormatError(ValueError):
    """Density-matrix file is malformed; message carries the position."""


class DensityMatrix:
    """2^N x 2^N complex state meant to be Hermitian, unit-trace and PSD,
    from one of two sources.

    DensityMatrix(n_qubits, matrix) checks the shape and that every entry
    is finite, and stores the matrix as a read-only copy, so the spectrum
    computed from it on first use can never go stale. A named family's
    state, as build_states and build_state give it, is the other source:
    its family's closed-form Spectrum, with its matrix formed only when
    read. Either way validate() checks the other invariants from the
    Spectrum, and reports violations as data instead of raising.
    """

    def __init__(self, n_qubits: int, matrix):
        dim = qubit_dimension(n_qubits)
        m = np.array(matrix, dtype=complex)
        m.flags.writeable = False
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix has shape {m.shape}, expected ({dim}, {dim}) "
                f"for {n_qubits} qubits"
            )
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(f"matrix[{i}][{j}] is not finite: {m[i, j]}")
        self.n_qubits, self.matrix = n_qubits, m

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def spectrum(self) -> Spectrum:
        """The one eigendecomposition of the matrix: validate and every
        sqrt(rho) in core read it."""
        return spectrum(self.matrix)


class _ClosedForm(DensityMatrix):
    """A family's state at one parameter, from its fixed part's closed form:
    the Spectrum with no eigh, and the matrix only when read, with the bytes
    of the fixed part's state(param)."""

    def __init__(self, part, param):
        self.n_qubits, self._part, self._param = part.n_qubits, part, param
        self.spectrum = part.closed_form(param)  # in place of the cached property

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._part.state(self._param).matrix


@dataclass(frozen=True)
class Violation:
    """One failed density-matrix invariant with its measured magnitude."""

    kind: str  # HermiticityViolation | TraceViolation | PsdViolation
    magnitude: float

    def __str__(self):
        return f"{self.kind}({self.magnitude:.3e})"


class InvalidDensityMatrix(ValueError):
    """A state fails validate; .violations is what validate returned."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(
            "not a valid density matrix: " + ", ".join(str(v) for v in violations)
        )


def mix_white_noise(amplitudes, noise: float) -> DensityMatrix:
    """(1 - noise) |psi><psi| + noise * I / 2^N for the amplitude vector psi,
    by _Mixture's rules.

    N is read from the vector's length, which must be 2^N with
    1 <= N <= MAX_QUBITS; every amplitude must be finite and <psi|psi>
    within TRACE_TOL of 1, so the state has unit trace.
    """
    check_noise(noise)
    return _Mixture(amplitudes).state(noise)


# The Kay family's fixed part: diag(4, 0, ..., 0, 4) plus the anti-diagonal
# (2, 2, -2, 2, 2, -2, 2, 2). Complex, because numpy divides a complex array
# by a float otherwise than a real one, and
# tests/test_states.py::test_kay_base_gives_the_entries_bytes holds those bits.
_KAY_BASE = (np.diag([4.0, 0, 0, 0, 0, 0, 0, 4])
             + np.fliplr(np.diag([2.0, 2, -2, 2, 2, -2, 2, 2]))).astype(complex)


def kay_state(gamma: float) -> DensityMatrix:
    """The one-parameter 8x8 PPT family, (base + gamma I) / (8 + 8 gamma),
    valid for 2 <= gamma <= analytic.GAMMA_MAX.

    Its smallest eigenvalue is (gamma - 2) / (8 + 8 gamma), so check_gamma's
    range is exactly where the matrix is a state that floats can hold.
    """
    g = float(gamma)
    check_gamma(g)
    return DensityMatrix(n_qubits=3, matrix=(_KAY_BASE + g * np.eye(8)) / (8 + 8 * g))


class _Mixture:
    """A pure state mixed with white noise, (1 - p) psi psi^dagger + p I / d
    at noise p: the fixed part of every family but kay, built and checked
    once. It keeps the amplitude vector psi and its squared norm, and checks
    that psi is 1-D, of length 2^N with 1 <= N <= MAX_QUBITS, finite, and
    of squared norm within TRACE_TOL of 1."""

    def __init__(self, amplitudes):
        psi = np.asarray(amplitudes, dtype=complex)
        if psi.ndim != 1:
            raise ValueError(f"amplitude vector must be 1-D, got an array of shape {psi.shape}")
        dim = psi.size
        n = dim.bit_length() - 1
        if not (1 <= n <= MAX_QUBITS and dim == 2**n):
            raise ValueError(
                f"amplitude vector has length {dim}, "
                f"expected 2^N with 1 <= N <= {MAX_QUBITS}"
            )
        if not np.isfinite(psi).all():
            raise ValueError("amplitude vector has a non-finite entry")
        with np.errstate(over="ignore", invalid="ignore"):  # amplitudes near the float maximum
            norm2 = float(np.vdot(psi, psi).real)
        if not abs(norm2 - 1.0) <= TRACE_TOL:  # an overflowed sum may be nan
            raise ValueError(
                f"amplitude vector has squared norm {norm2}, not within {TRACE_TOL} of 1"
            )
        self.psi, self.norm2, self.n_qubits = psi, norm2, n

    def state(self, noise: float) -> DensityMatrix:
        """The state at noise from its matrix: the package's one builder of
        a noise-mixed matrix."""
        check_noise(noise)
        dim = self.psi.size
        m = (1.0 - noise) * np.outer(self.psi, self.psi.conj()) + (noise / dim) * np.eye(dim)
        return DensityMatrix(n_qubits=self.n_qubits, matrix=m)

    def closed_form(self, noise: float) -> Spectrum:
        """The Spectrum of the state at noise, with no matrix."""
        check_noise(noise)
        return mixture_spectrum(self.psi, self.norm2, noise)


class _Kay:
    """The Kay family's fixed part: _KAY_BASE's exact eigenpairs, ascending.
    The base pairs e_i with e_{7-i}, and each pair's 2 x 2 block has the
    eigenvectors (e_i +- e_{7-i}) / sqrt 2, so a state's eigenvalues are
    (mu + gamma) / (8 + 8 gamma): at gamma = 2 its three zeros are exact."""

    n_qubits = 3
    eigenvalues = np.array([-2.0, -2, -2, 2, 2, 2, 2, 6])
    pairs = np.array([1, 2, 3, 0, 1, 2, 3, 0])  # column c is (e_i + s_c e_{7-i}) / sqrt 2
    eigenvectors = (np.eye(8, dtype=complex)[:, pairs] + np.eye(8)[:, 7 - pairs]
                    * np.array([-1, 1, -1, -1, 1, -1, 1, 1])) / math.sqrt(2)

    state = staticmethod(kay_state)

    def closed_form(self, gamma: float) -> Spectrum:
        """The Spectrum of kay_state(gamma), with no matrix: the root by the
        one per-matrix rule, linalg._root, and the eigenvalues' sum as the
        trace."""
        g = float(gamma)
        check_gamma(g)
        w = (self.eigenvalues + g) / (8 + 8 * g)
        return Spectrum(0.0, w, _root(w, self.eigenvectors), float(w.sum()))


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
    check_seed(seed)
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
    trace_err = abs(spec.trace - 1.0)
    if not trace_err <= TRACE_TOL:  # an overflowed sum may be nan
        out.append(Violation("TraceViolation", trace_err))
    w0 = spec.eigenvalues[0]
    if w0 < -PSD_TOL:
        out.append(Violation("PsdViolation", float(-w0)))
    return out


def valid_root(rho: DensityMatrix) -> np.ndarray:
    """The root of rho's spectrum, once validate finds no violation; the
    only way core reads it. Raises InvalidDensityMatrix otherwise."""
    violations = validate(rho)
    if violations:
        raise InvalidDensityMatrix(violations)
    return rho.spectrum.root


def _pure(n_qubits: int, table) -> _Mixture:
    """The _Mixture of the n-qubit amplitude vector that holds each
    (basis index, amplitude) of table and is zero elsewhere. The vector is
    read-only, since every state of the family shares it."""
    psi = np.zeros(2**n_qubits, dtype=complex)
    for idx, amp in table:
        psi[idx] = amp
    psi.flags.writeable = False
    return _Mixture(psi)


# The one family registry, in the order the command line lists the families:
# name -> (parameter rule, fixed part, closed form in the parameter or None,
# seeded). A pure family's fixed part is its _Mixture, built at import, and a
# seeded family's is a function of (n_qubits, seed) that draws one, which no
# other family takes. Kay's is its exact eigenpairs.
_SQ2, _SQ3, _SQ6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)
FAMILIES: dict[str, tuple] = {
    "ghz3": (check_noise, _pure(3, [(0, 1 / _SQ2), (7, 1 / _SQ2)]), lqu_ghz3, False),
    "w3": (check_noise, _pure(3, [(i, 1 / _SQ3) for i in (1, 2, 4)]), lqu_w3, False),
    "ghz4": (check_noise, _pure(4, [(0, 1 / _SQ2), (15, 1 / _SQ2)]), lqu_ghz4_class, False),
    "w4": (check_noise, _pure(4, [(i, 0.5) for i in (1, 2, 4, 8)]), lqu_w4, False),
    "dicke24": (check_noise, _pure(4, [(i, 1 / _SQ6) for i in (3, 5, 6, 9, 10, 12)]),
                lqu_ghz4_class, False),
    "singlet4": (check_noise, _pure(4, [(3, 1 / _SQ3), (12, 1 / _SQ3)]
                                    + [(i, -0.5 / _SQ3) for i in (5, 6, 9, 10)]),
                 lqu_ghz4_class, False),
    "cluster4": (check_noise, _pure(4, [(0, 0.5), (3, 0.5), (12, 0.5), (15, -0.5)]),
                 lqu_ghz4_class, False),
    "chi4": (check_noise, _pure(4, [(15, _SQ2 / _SQ6)] + [(i, 1 / _SQ6) for i in (1, 2, 4, 8)]),
             lqu_ghz4_class, False),
    "kay": (check_gamma, _Kay(), lqu_kay, False),
    "random": (check_noise, lambda n_qubits, seed: _Mixture(random_pure(n_qubits, seed)),
               None, True),
}

FAMILY_NAMES = tuple(FAMILIES)


def family_row(family: str) -> tuple:
    """The registry row of a family: the one place an unknown name is rejected."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise UnknownFamily(
            f"unknown family {family!r}; choose from {sorted(FAMILY_NAMES)}"
        ) from None


def check_seeded(family: str, n_qubits, seed, names=("n_qubits", "seed")) -> bool:
    """The seeded rule: a seeded family's row ('random') needs n_qubits and
    seed, and every other family rejects them. Returns whether the family is
    seeded; a call that breaks the rule raises a ValueError naming the
    family. names is how the message names the two values."""
    seeded = family_row(family)[3]
    if (n_qubits is not None, seed is not None) != (seeded, seeded):
        raise ValueError(f"{family} family {'needs' if seeded else 'rejects'} "
                         f"{names[0]} and {names[1]}")
    return seeded


def pure_state(family: str) -> np.ndarray:
    """Amplitude vector of one of the pure families, a copy of its row's."""
    part = family_row(family)[1]
    if not isinstance(part, _Mixture):
        raise ValueError(f"family {family!r} has no fixed amplitude vector")
    return part.psi.copy()


def closed_form_for(family: str) -> Callable[[float], float] | None:
    """Closed form for a state family, or None when none exists (random)."""
    return family_row(family)[2]


def build_states(
    family: str, params, n_qubits: int | None = None, seed: int | None = None
) -> Iterator[DensityMatrix]:
    """The state of a named family at each parameter value, in order, one at
    a time, so memory does not grow with the number of params.

    A param is the white-noise fraction for the noise-mixed families and the
    gamma parameter for the Kay family; n_qubits and seed follow
    check_seeded's rule. The family's fixed part is taken once: its row's
    _Mixture or kay's eigenpairs, or a seeded family's one draw. Each point
    is its family's closed form, with no eigh: a noise family's Spectrum
    from linalg.mixture_spectrum, a kay point's from its exact eigenpairs.
    Its d x d matrix is formed only if .matrix is read, by the fixed part's
    state(param): _Mixture.state or kay_state.
    """
    part = family_row(family)[1]
    if check_seeded(family, n_qubits, seed):
        part = part(n_qubits, seed)
    for param in params:
        yield _ClosedForm(part, param)


def build_state(
    family: str, param: float, n_qubits: int | None = None, seed: int | None = None
) -> DensityMatrix:
    """The state of a named family at one parameter value: the one point of
    build_states at [param], by its rules, in closed form."""
    return next(build_states(family, [param], n_qubits, seed))


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


def _expect(text: str, i: int, *tokens: str) -> int:
    """The index past tokens at text[i], each after optional JSON whitespace,
    and past the whitespace after the last; raises if one is not there."""
    for token in tokens:
        i = _WHITESPACE.match(text, i).end()
        if not text.startswith(token, i):
            raise ValueError(f"expected {token}")
        i += len(token)
    return _WHITESPACE.match(text, i).end()


def _walk(text: str) -> tuple[int, list[np.ndarray]]:
    """Decode the layout the writers emit, {"n_qubits": N, "matrix": [row,
    ...]} with those two plain keys in that order, one value at a time with
    json's own scanner, so no more than one row's lists are alive at once.
    Raises on any other document, valid or not; _decode then gives the
    verdict."""
    scan = make_scanner(json.JSONDecoder(parse_int=_parse_int))
    n, i = scan(text, _expect(text, 0, "{", '"n_qubits"', ":"))
    dim = qubit_dimension(n)
    i = _expect(text, i, ",", '"matrix"', ":", "[")
    rows = []
    for k in range(dim):
        row, i = scan(text, _expect(text, i, ",") if k else i)
        rows.append(_row(row, k, dim))
    if _expect(text, i, "]", "}") != len(text):
        raise ValueError("extra data")
    return n, rows


def density_matrix_from_json(text: str) -> DensityMatrix:
    """Parse the JSON density-matrix format, with position-bearing errors.

    A document in the writers' layout is decoded row by row, so its peak
    memory is about the size of the text; any other document, valid or not,
    is decoded whole by json.loads instead, which names the first defect."""
    # On any other document the walk raises the scanner's StopIteration (no
    # value at the index) or JSONDecodeError, a ValueError from _expect, a
    # format error from _row or qubit_dimension, a RecursionError, or an
    # OverflowError should any conversion overflow.
    try:
        n, rows = _walk(text)
    except (StopIteration, ValueError, RecursionError, OverflowError):
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
