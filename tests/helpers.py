"""Shared test utilities: seeded random matrices, a partial-trace oracle,
skew-information oracles, the local quantum Fisher information, the
one-matrix spectrum arithmetic that lqu.linalg stacks and a per-entry
reference parser for the density-matrix JSON format.

Everything here is deliberately independent of the library internals so it
can serve as an oracle for them. The two exceptions are root_matrix, which
forms S = sqrt(rho) from a Spectrum's root for the tests of S, and
agreed_violations, which holds the core consumers to validate's rule.
"""

import ast
import json
import math

import numpy as np
import pytest

import lqu

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(seed, dim):
    g = complex_gaussian(rng_for(seed), (dim, dim))
    return (g + g.conj().T) / 2


def random_psd(seed, dim):
    g = complex_gaussian(rng_for(seed), (dim, dim))
    return g.conj().T @ g


def random_density(seed, dim):
    """Full-rank random density matrix: normalized G G^dagger."""
    g = complex_gaussian(rng_for(seed), (dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(seed, dim=2):
    """Haar-random unitary via QR with the phase fix."""
    q, r = np.linalg.qr(complex_gaussian(rng_for(seed), (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases.conj())


def reduced_single_qubit(matrix, n_qubits, keep):
    """Partial trace down to one qubit (qubit 0 = most significant bit)."""
    letters = "abcdefghijkl"
    row = list(letters[:n_qubits])
    col = list(letters[:n_qubits])
    row[keep] = "y"
    col[keep] = "z"
    sub = "".join(row) + "".join(col) + "->yz"
    return np.einsum(sub, matrix.reshape((2,) * (2 * n_qubits)))


def bloch_vector(matrix, n_qubits, qubit):
    red = reduced_single_qubit(matrix, n_qubits, qubit)
    return np.array([np.trace(red @ PAULI[a]).real for a in "xyz"])


def pauli_on(n_qubits, qubit, axis):
    """Pauli axis ("x", "y" or "z") on one qubit, identity on the rest."""
    return np.kron(np.kron(np.eye(2**qubit), PAULI[axis]), np.eye(2 ** (n_qubits - qubit - 1)))


def root_matrix(spec):
    """S = sqrt(rho) from a Spectrum: the stored root itself, or F F^dagger
    (made exactly Hermitian) for the d x r factor F of the support route."""
    root = spec.root
    if root.shape[1] == root.shape[0]:
        return root
    s = root @ root.conj().T
    return (s + s.conj().T) / 2


def spectrum_alone(m):
    """(Hermiticity defect, eigenvalues, root) of one matrix, by the
    arithmetic of lqu.linalg.spectrum, written out apart from it: the
    reference its results must equal byte for byte."""
    a = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(a / 2 + a.conj().T / 2)
    d = w.shape[0]
    kept = w > d * np.finfo(float).eps * np.abs(w).max()
    rank = int(np.count_nonzero(kept))
    with np.errstate(over="ignore", invalid="ignore"):
        trace, mass = w.sum(), w[d - rank:].sum()
    scale = trace / mass if 0 < trace < np.inf and 0 < mass < np.inf else 1.0
    root_w = np.where(kept, w * scale, 0.0)
    if 4 * rank <= d:
        root = v[:, d - rank:] * root_w[d - rank:] ** 0.25
    else:
        root = (v * np.sqrt(root_w)) @ v.conj().T
        root = (root + root.conj().T) / 2
    with np.errstate(over="ignore"):
        return float(np.abs(a - a.conj().T).max()), w, root


def agreed_violations(rho):
    """validate(rho), after checking that the three core consumers follow
    it: each returns when the list is empty, and otherwise raises
    InvalidDensityMatrix carrying exactly that list."""
    expected = lqu.validate(rho)
    for consume in (lqu.lqu_all,
                    lambda r: lqu.lqu_bipartition(r, 0),
                    lambda r: lqu.correlation_matrix(r, 0)):
        if not expected:
            consume(rho)
            continue
        with pytest.raises(lqu.InvalidDensityMatrix) as info:
            consume(rho)
        assert info.value.violations == expected
    return expected


def assigned_list(path, name):
    """The literal value a module assigns to name at top level, read as
    source, so the module is neither run nor imported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def _skew_terms(rho, k_batch):
    """Tr(rho k^2) - Tr(sqrt(rho) k sqrt(rho) k) for a batch of observables,
    with the root formed here from an eigh clipped at 0."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    t1 = np.einsum("ij,sjk,ski->s", rho, k_batch, k_batch, optimize=True)
    t2 = np.einsum("ij,sjk,kl,sli->s", root, k_batch, root, k_batch, optimize=True)
    return (t1 - t2).real


def skew_information(rho, k):
    """Skew information of the density matrix rho with respect to the
    observable k; zero iff they commute."""
    return float(_skew_terms(np.asarray(rho, dtype=complex), np.asarray(k)[np.newaxis])[0])


def lqu_variational(rho, qubit, n_samples, seed):
    """Sampling upper bound on the LQU of (qubit | rest): the least skew
    information over n_samples observables n . sigma on that qubit, with n
    uniform on the sphere. It never forms the correlation matrix, so it
    checks the eigenvalue route from outside."""
    rho = np.asarray(rho, dtype=complex)
    n_qubits = rho.shape[0].bit_length() - 1
    directions = rng_for(seed).standard_normal((n_samples, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sigma = np.stack([pauli_on(n_qubits, qubit, a) for a in "xyz"])
    return float(_skew_terms(rho, np.einsum("si,ijk->sjk", directions, sigma)).min())


def lqfi(matrix, n_qubits, k):
    """The local quantum Fisher information of qubit k against the rest: the
    SLD Fisher information F/4 of r . sigma on qubit k, least over unit r,
    which is the least eigenvalue of the 3x3 matrix
    M_ij = 1/2 sum_ab (la - lb)^2 / (la + lb) Re(K_i,ab conj K_j,ab), with
    K_p = V^dagger sigma_p^(k) V in the eigenbasis (l, V) of matrix.

    Its own eigh, the eigenvalues clipped at 0 and the pairs of zero sum
    left out; no root and no floor. Luo's I <= F/4 <= 2 I bounds the LQU:
    LQFI_k / 2 <= Q_k <= LQFI_k, with equality on the right for a pure
    state.
    """
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    w = np.clip(w, 0.0, None)
    total = w[:, None] + w[None, :]
    weight = np.divide((w[:, None] - w[None, :]) ** 2, total,
                       out=np.zeros_like(total), where=total > 0)
    ks = [v.conj().T @ pauli_on(n_qubits, k, a) @ v for a in "xyz"]
    m = np.array([[np.sum(weight * (ki * kj.conj()).real) / 2 for kj in ks] for ki in ks])
    return float(np.linalg.eigvalsh(m)[0])


def _reference_entry(value, row, col):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(
            f"matrix[{row}][{col}] must be a [re, im] pair of numbers, got {value!r}"
        )
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError:
        raise ValueError(
            f"matrix[{row}][{col}] has a component outside the float range"
        ) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(
            f"matrix[{row}][{col}] has a non-finite component: [{re}, {im}]"
        )
    return complex(re, im)


def _reference_int(digits):
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def reference_density_matrix(text, max_qubits=12):
    """The density-matrix JSON parser written as a loop over entries: the
    matrix of a valid document, or a ValueError carrying the message the
    library's parser must give."""
    try:
        doc = json.loads(text, parse_int=_reference_int)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON at byte offset {exc.pos} "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError:
        raise ValueError("JSON arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    if "n_qubits" not in doc or "matrix" not in doc:
        missing = {"n_qubits", "matrix"} - set(doc)
        raise ValueError(f"missing required key(s): {sorted(missing)}")
    n = doc["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n!r}")
    if n > max_qubits:
        raise ValueError(f"n_qubits {n} exceeds the limit of {max_qubits}")
    dim = 2**n
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != dim:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise ValueError(f"matrix must have {dim} rows, got {got}")
    m = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise ValueError(f"matrix row {i} must have {dim} entries, got {got}")
        for j, value in enumerate(row):
            m[i, j] = _reference_entry(value, i, j)
    return m
