import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqu.core import (
    IndexOutOfRange,
    NumericalContractViolation,
    _clamp_unit,
    _conj_pauli,
    _correlations_given_root,
    _lqus_given_root,
    correlation_matrix,
    lqu_all,
    lqu_bipartition,
)
from lqu.states import DensityMatrix, mix_white_noise, pure_state, random_pure

from helpers import (
    PAULI,
    bloch_vector,
    complex_gaussian,
    haar_unitary,
    lqu_variational,
    pauli_on,
    random_density,
    rng_for,
    skew_information,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def dm(matrix, n_qubits):
    return DensityMatrix(n_qubits=n_qubits, matrix=matrix)


def random_noisy_state(seed, n_qubits=3):
    """Seeded full-rank mixed state (Haar pure blended with white noise)."""
    rng = rng_for(seed)
    noise = rng.uniform(0.05, 0.95)
    return mix_white_noise(random_pure(n_qubits, seed), noise)


def conj_pauli(m, qubit, pauli):
    """The index kernel's conj(s_p m) for Pauli 1, 2, 3 (x, y, z) on one
    qubit."""
    out = np.empty(m.shape, dtype=complex)
    return next(islice(_conj_pauli(m, qubit, out), pauli - 1, None))


def local_observable(n_qubits, qubit, pauli):
    """The 2^N x 2^N operator that the index kernel applies for Pauli
    1, 2, 3 (x, y, z) on one qubit, read off by running it on the identity:
    the kernel yields conj(s_p I)."""
    return np.conjugate(conj_pauli(np.eye(2**n_qubits), qubit, pauli))


# --- Pauli index kernel -----------------------------------------------------

def test_local_observable_z_on_most_significant_bit():
    got = local_observable(3, 0, 3)
    np.testing.assert_array_equal(got, np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex))


def test_local_observable_z_on_least_significant_bit():
    got = local_observable(3, 2, 3)
    np.testing.assert_array_equal(got, np.diag([1, -1, 1, -1, 1, -1, 1, -1]).astype(complex))


def test_local_observable_x_flips_qubit_a():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket10 = np.array([0, 0, 1, 0], dtype=complex)
    np.testing.assert_array_equal(local_observable(2, 0, 1) @ ket00, ket10)


@pytest.mark.parametrize("qubit", [0, 1, 2])
@pytest.mark.parametrize("pauli", [1, 2, 3])
def test_local_observable_is_hermitian_involution(qubit, pauli):
    k = local_observable(3, qubit, pauli)
    np.testing.assert_allclose(k, k.conj().T)
    np.testing.assert_allclose(k @ k, np.eye(8), atol=1e-15)


@pytest.mark.parametrize(
    "n_qubits, qubit", [(n, k) for n in range(1, 8) for k in range(n)]
)
@pytest.mark.parametrize("pauli", [1, 2, 3])
def test_local_observable_matches_the_kronecker_product(n_qubits, qubit, pauli):
    expected = pauli_on(n_qubits, qubit, "xyz"[pauli - 1])
    np.testing.assert_array_equal(local_observable(n_qubits, qubit, pauli), expected)
    # The kernel indexes rows only, so a d x r factor and a real root take
    # the same action.
    d = 2**n_qubits
    for m in (complex_gaussian(rng_for(d + qubit), (d, 3)), rng_for(qubit).standard_normal((d, d))):
        got = conj_pauli(m, qubit, pauli)
        np.testing.assert_allclose(got, np.conjugate(expected @ m), rtol=0, atol=1e-15)


# --- skew-information oracle (tests/helpers.py) -----------------------------

def test_skew_vanishes_for_maximally_mixed():
    for a in "xyz":
        assert abs(skew_information(np.eye(8) / 8, pauli_on(3, 0, a))) < 1e-14


def test_skew_on_single_qubit_eigenstate():
    rho = np.diag([1.0, 0.0])
    assert abs(skew_information(rho, PAULI["z"])) < 1e-14
    assert skew_information(rho, PAULI["x"]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_skew_nonnegative_on_random_states(seed):
    rho = random_noisy_state(seed)
    rng = rng_for(seed + 1)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    k = sum(n[i] * pauli_on(3, 0, a) for i, a in enumerate("xyz"))
    assert skew_information(rho.matrix, k) >= -1e-10


# --- correlation matrix -----------------------------------------------------

def test_correlation_matrix_vanishes_for_pure_ghz():
    rho = mix_white_noise(pure_state("ghz3"), 0.0)
    m = correlation_matrix(rho, 0)
    np.testing.assert_allclose(m, np.zeros((3, 3)), atol=1e-10)


def test_correlation_matrix_identity_for_maximally_mixed():
    m = correlation_matrix(dm(np.eye(8) / 8, 3), 0)
    np.testing.assert_allclose(m, np.eye(3), atol=1e-12)


def test_correlation_matrix_product_state_bloch_z():
    # |0><0| on qubit A times I/4 on the rest occupies indices 0..3
    m = np.diag([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0]).astype(complex)
    got = correlation_matrix(dm(m, 3), 0)
    np.testing.assert_allclose(got, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_correlation_matrix_is_symmetric_with_unit_range(seed):
    rho = random_noisy_state(seed)
    for q in range(3):
        m = correlation_matrix(rho, q)
        np.testing.assert_allclose(m, m.T, atol=1e-10)
        w = np.linalg.eigvalsh(m)
        assert w[0] > -1e-9 and w[-1] < 1 + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_pure_state_correlation_is_bloch_outer_product(seed):
    psi = random_pure(3, seed)
    rho = mix_white_noise(psi, 0.0)
    for q in range(3):
        b = bloch_vector(rho.matrix, 3, q)
        np.testing.assert_allclose(
            correlation_matrix(rho, q), np.outer(b, b), atol=1e-9
        )


@pytest.mark.parametrize("rank", ["1", "2", "d/2", "d/2+1", "d"])
@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6, 7, 8])
def test_correlation_matches_block_gram_partial_trace(n_qubits, rank):
    # rho = U diag(p) U^dagger with a known spectrum, so S = sqrt(rho) needs no
    # eigensolver. With qubit k an explicit index, S splits into blocks S_pq
    # over the other qubits; G[p,q,r,s] = Tr[S_pq S_rs] and
    # m_ij = sum sigma_i[q,r] sigma_j[s,p] G[p,q,r,s]. Ranks d/2 and d/2 + 1
    # sit on either side of the rule that sends a state to the support route.
    d = 2**n_qubits
    r = {"1": 1, "2": 2, "d/2": d // 2, "d/2+1": d // 2 + 1, "d": d}[rank]
    seed = 10 * n_qubits + r
    u = haar_unitary(seed, d)
    p = np.zeros(d)
    p[:r] = rng_for(seed).uniform(0.1, 1.0, r)
    p /= p.sum()
    rho = dm((u * p) @ u.conj().T, n_qubits)
    s = (u * np.sqrt(p)) @ u.conj().T
    sigma = np.stack([PAULI[a] for a in "xyz"])
    for k in range(n_qubits):
        blocks = s.reshape(2**k, 2, 2 ** (n_qubits - k - 1), 2**k, 2, -1)
        gram = np.einsum("apbcqe,creasb->pqrs", blocks, blocks)
        expected = np.einsum("iqr,jsp,pqrs->ij", sigma, sigma, gram)
        assert np.abs(expected.imag).max() < 1e-12
        np.testing.assert_allclose(
            correlation_matrix(rho, k), expected.real, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("rank", ["1", "2", "d/2"])
@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
def test_support_route_meets_the_block_gram_oracle(n_qubits, rank):
    # Every consumer on a state whose root is stored as its d x r factor
    # meets the block-Gram oracle above.
    d = 2**n_qubits
    r = {"1": 1, "2": 2, "d/2": d // 2}[rank]
    seed = 10 * n_qubits + r + 5
    u = haar_unitary(seed, d)
    p = np.zeros(d)
    p[:r] = rng_for(seed).uniform(0.1, 1.0, r)
    p /= p.sum()
    rho = dm((u * p) @ u.conj().T, n_qubits)
    assert rho.spectrum.root.shape == (d, r)
    s = (u * np.sqrt(p)) @ u.conj().T
    sigma = np.stack([PAULI[a] for a in "xyz"])
    report = lqu_all(rho)
    for k in range(n_qubits):
        blocks = s.reshape(2**k, 2, 2 ** (n_qubits - k - 1), 2**k, 2, -1)
        gram = np.einsum("apbcqe,creasb->pqrs", blocks, blocks)
        expected = np.einsum("iqr,jsp,pqrs->ij", sigma, sigma, gram).real
        q = 1.0 - np.linalg.eigvalsh(expected)[-1]
        np.testing.assert_allclose(correlation_matrix(rho, k), expected, rtol=0, atol=1e-12)
        assert lqu_bipartition(rho, k) == pytest.approx(q, rel=0, abs=1e-12)
        assert report.per_bipartition[k] == pytest.approx(q, rel=0, abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 8])
def test_support_route_peak_memory_stays_below_a_quarter_of_a_state(rank):
    # N = 9: one complex d x d matrix is 4 MiB, the d x r factor 8 to 64 KiB.
    # One qubit at a time holds one d x r gather buffer, its row indices and
    # three r x r products: 0.009 to 0.038 of a d x d matrix here. The
    # spectrum is formed before tracing.
    d = 2**9
    g = complex_gaussian(rng_for(rank), (d, rank))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, 9)
    assert rho.spectrum.root.shape == (d, rank)
    tracemalloc.start()
    try:
        lqu_all(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 16 * d * d


def test_support_route_at_half_rank_holds_one_pauli_product_at_a_time():
    # N = 10, rank d/2: the factor F is half a d x d matrix and each r x r
    # product a quarter. Forming one s_p F at a time, in one buffer, holds
    # that buffer and the three products: 1.25 d x d matrices (2.25 when all
    # three s_p F and their conjugates were built before the products).
    d = 2**10
    g = complex_gaussian(rng_for(d), (d, d // 2))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, 10)
    del g
    assert rho.spectrum.root.shape == (d, d // 2)
    tracemalloc.start()
    try:
        lqu_all(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 16 * d * d


def test_dense_route_peak_memory_stays_at_two_matrices():
    # N = 10, full rank: each qubit's block Gram is one product of two
    # transposed copies of S, two d x d matrices; the Gram itself is 4 x 4.
    # The spectrum is formed before tracing.
    d = 2**10
    g = complex_gaussian(rng_for(d + 1), (d, d))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, 10)
    del g
    assert rho.spectrum.root.shape == (d, d)
    tracemalloc.start()
    try:
        lqu_all(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * d * d


@pytest.mark.parametrize("rank", ["1", "d/2", "d"])
@pytest.mark.parametrize("n_qubits", range(1, 10))
def test_per_qubit_entry_points_match_the_stacked_kernel(n_qubits, rank):
    # One qubit alone gives the bits it gets in a call for the whole
    # register, on both routes.
    d = 2**n_qubits
    r = {"1": 1, "d/2": d // 2, "d": d}[rank]
    g = complex_gaussian(rng_for(d + r), (d, r))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, n_qubits)
    assert rho.spectrum.root.shape == (d, r)
    matrices = _correlations_given_root(rho.spectrum.root, range(n_qubits))[0]
    report = lqu_all(rho)
    for k in range(n_qubits):
        assert lqu_bipartition(rho, k) == report.per_bipartition[k]
        np.testing.assert_array_equal(correlation_matrix(rho, k), matrices[k])


# --- the bridge between the two routes --------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_skew_equals_one_minus_quadratic_form(seed):
    # for unit n, (n . sigma)^2 = I, so I(rho, n.sigma) = 1 - n M n
    rho = random_noisy_state(seed)
    rng = rng_for(seed ^ 0xD1CE)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    for q in range(3):
        k = sum(n[i] * pauli_on(3, q, a) for i, a in enumerate("xyz"))
        m = correlation_matrix(rho, q)
        assert skew_information(rho.matrix, k) == pytest.approx(1.0 - n @ m @ n, abs=1e-10)


# --- per-bipartition values and the report ----------------------------------

def test_qubit_index_outside_the_register_raises():
    rho = mix_white_noise(pure_state("ghz3"), 0.5)
    for consumer in (correlation_matrix, lqu_bipartition):
        for q in (-1, 3):
            with pytest.raises(IndexOutOfRange, match=rf"^qubit_index {q} outside \[0, 3\)$"):
                consumer(rho, q)


@pytest.mark.parametrize("q", [True, False, 1.0, np.float64(0.0), "1", None])
def test_qubit_index_that_is_not_an_integer_raises(q):
    # True used to read as qubit 1, and 1.0 raised a bare TypeError
    rho = mix_white_noise(pure_state("ghz3"), 0.5)
    for consumer in (correlation_matrix, lqu_bipartition):
        with pytest.raises(IndexOutOfRange, match=rf"^qubit_index must be an integer, got {re.escape(repr(q))}$"):
            consumer(rho, q)


def test_numpy_integer_qubit_index_is_accepted():
    rho = mix_white_noise(random_pure(3, 0), 0.2)
    assert lqu_bipartition(rho, np.int64(2)) == lqu_bipartition(rho, 2)
    np.testing.assert_array_equal(correlation_matrix(rho, np.uint8(1)), correlation_matrix(rho, 1))


def test_lqu_pure_ghz3_is_one_and_full_noise_is_zero():
    assert lqu_bipartition(mix_white_noise(pure_state("ghz3"), 0.0), 0) == pytest.approx(1.0, abs=1e-12)
    assert lqu_bipartition(mix_white_noise(pure_state("ghz3"), 1.0), 0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_lqu_vanishes_on_product_of_pure_qubit_with_anything(seed):
    rho_b = random_density(seed, 4)
    m = np.kron(np.diag([1.0, 0.0]), rho_b)
    assert lqu_bipartition(dm(m, 3), 0) == pytest.approx(0.0, abs=1e-9)


def test_lqu_all_ghz3_half_noise():
    report = lqu_all(mix_white_noise(pure_state("ghz3"), 0.5))
    assert report.per_bipartition == pytest.approx((0.25, 0.25, 0.25), abs=1e-10)
    assert report.mean == pytest.approx(0.25, abs=1e-10)
    assert min(report.per_bipartition) <= report.mean <= max(report.per_bipartition)


def test_lqu_all_maximally_mixed_four_qubits():
    report = lqu_all(dm(np.eye(16) / 16, 4))
    assert report.per_bipartition == pytest.approx((0.0,) * 4, abs=1e-12)
    assert report.mean == pytest.approx(0.0, abs=1e-12)


def test_lqu_all_random_state_has_distinct_bipartitions():
    report = lqu_all(mix_white_noise(random_pure(3, 0), 0.2))
    v = report.per_bipartition
    assert min(abs(v[0] - v[1]), abs(v[0] - v[2]), abs(v[1] - v[2])) > 0.01
    assert report.mean == pytest.approx(sum(v) / 3)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_lqu_range_on_random_states(seed):
    report = lqu_all(random_noisy_state(seed))
    for v in report.per_bipartition:
        assert 0.0 <= v <= 1.0


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_local_unitary_invariance(seed):
    rho = random_noisy_state(seed)
    u = np.kron(np.kron(haar_unitary(seed + 1), haar_unitary(seed + 2)), haar_unitary(seed + 3))
    rotated = dm(u @ rho.matrix @ u.conj().T, 3)
    a = lqu_all(rho).per_bipartition
    b = lqu_all(rotated).per_bipartition
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_classical_diagonal_states_have_zero_lqu(seed):
    p = rng_for(seed).uniform(0.0, 1.0, size=8)
    p /= p.sum()
    report = lqu_all(dm(np.diag(p).astype(complex), 3))
    assert report.per_bipartition == pytest.approx((0.0,) * 3, abs=1e-9)


@pytest.mark.parametrize(
    "family, noise",
    [("ghz3", 0.3), ("w3", 0.3), ("ghz4", 0.4), ("w4", 0.4), ("dicke24", 0.2),
     ("singlet4", 0.6), ("cluster4", 0.5), ("chi4", 0.7)],
)
def test_symmetric_families_have_equal_bipartitions(family, noise):
    v = lqu_all(mix_white_noise(pure_state(family), noise)).per_bipartition
    assert max(v) - min(v) < 1e-9


# --- variational oracle (tests/helpers.py) ----------------------------------

def test_variational_vanishes_for_maximally_mixed():
    assert abs(lqu_variational(np.eye(8) / 8, 0, 100, seed=3)) < 1e-12


def test_variational_matches_isotropic_closed_form():
    # the half-noise GHZ3 correlation matrix is isotropic, so every sampled
    # direction gives the same skew information
    rho = mix_white_noise(pure_state("ghz3"), 0.5)
    got = lqu_variational(rho.matrix, 0, 10_000, seed=9)
    assert got == pytest.approx(0.25, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_variational_upper_bounds_the_closed_route(seed):
    rho = random_noisy_state(seed)
    for q in range(3):
        v = lqu_variational(rho.matrix, q, 10, seed=seed ^ 0xBEEF)
        assert v >= lqu_bipartition(rho, q) - 1e-9


# --- clamping policy --------------------------------------------------------

def test_clamp_snaps_rounding_but_raises_on_real_excursions():
    assert _clamp_unit(-5e-10) == 0.0
    assert _clamp_unit(1.0 + 5e-10) == 1.0
    assert _clamp_unit(0.5) == 0.5
    # Real excursions are caught by the correlation range check before any
    # clamping. sqrt(rho) = 2 I gives m = 4 I (largest eigenvalue above 1);
    # the non-PSD 0.1 X on qubit 0 gives m = diag(0.08, -0.08, -0.08).
    x0 = np.kron(PAULI["x"], np.eye(4))
    for bad_sqrt in (2 * np.eye(8), 0.1 * x0):
        with pytest.raises(NumericalContractViolation):
            _lqus_given_root(bad_sqrt, range(1))


# A root with an anti-Hermitian part, 0.01i X, on one qubit: with S = b,
# Tr[S s_x S s_z] picks up an imaginary part while (0,0) and (0,1) stay real.
_ANTI_HERMITIAN = 0.5 * np.eye(2) + 0.1 * PAULI["z"] + 0.01j * PAULI["x"]


def test_imaginary_residue_raises_naming_its_entry():
    root = np.kron(_ANTI_HERMITIAN, np.eye(2)) / np.sqrt(2)
    message = "correlation entry (0,2) has imaginary residue -4.000e-03 > 1e-10"
    with pytest.raises(NumericalContractViolation, match=f"^{re.escape(message)}$"):
        _lqus_given_root(root, range(2))


@pytest.mark.parametrize(
    "root, message",
    [
        # qubit 0 (2 I) fails only the range check; qubit 1 fails the
        # imaginary check, which comes first within a qubit
        (np.kron(2 * np.eye(2), _ANTI_HERMITIAN),
         "correlation matrix eigenvalues [4.158e+00, 4.158e+00] escape [0, 1] beyond 1e-09"),
        (np.kron(_ANTI_HERMITIAN, 2 * np.eye(2)),
         "correlation entry (0,2) has imaginary residue -3.200e-02 > 1e-10"),
    ],
    ids=["range-then-imaginary", "imaginary-then-range"],
)
def test_lowest_failing_qubit_of_a_chunk_reports_its_own_check(root, message):
    # Both qubits share one chunk; the report is the lower qubit's, the
    # check a qubit-by-qubit loop would have raised first.
    with pytest.raises(NumericalContractViolation, match=f"^{re.escape(message)}$"):
        _lqus_given_root(root, range(2))
