import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqu.core import (
    IndexOutOfRange,
    NumericalContractViolation,
    _clamp_unit,
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
    lqfi,
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


def state_with_root(seed, n_qubits, rank):
    """rho = U diag(p) U^dagger with `rank` nonzero weights p, and its root
    S = U diag(sqrt p) U^dagger, formed without an eigensolver."""
    d = 2**n_qubits
    u = haar_unitary(seed, d)
    p = np.zeros(d)
    p[:rank] = rng_for(seed).uniform(0.1, 1.0, rank)
    p /= p.sum()
    return dm((u * p) @ u.conj().T, n_qubits), (u * np.sqrt(p)) @ u.conj().T


def block_gram_oracle(s, n_qubits, k):
    """Qubit k's correlation matrix of the root s, unsymmetrized: with k an
    explicit index, s splits into blocks S_pq over the other qubits;
    G[p,q,r,s] = Tr[S_pq S_rs] and m_ij = sum sigma_i[q,r] sigma_j[s,p]
    G[p,q,r,s]."""
    blocks = s.reshape(2**k, 2, 2 ** (n_qubits - k - 1), 2**k, 2, -1)
    gram = np.einsum("apbcqe,creasb->pqrs", blocks, blocks)
    sigma = np.stack([PAULI[a] for a in "xyz"])
    return np.einsum("iqr,jsp,pqrs->ij", sigma, sigma, gram)


@pytest.mark.parametrize(
    "n_qubits, qubit", [(n, k) for n in range(1, 8) for k in range(n)]
)
@pytest.mark.parametrize("pauli", [1, 2, 3])
def test_local_observable_matches_the_kronecker_product(n_qubits, qubit, pauli):
    # The local observable, the Pauli that the block-Gram kernel places on
    # the qubit, is the Kronecker product: row `pauli` of the correlation matrix is
    # Tr[S s_p S s_j] with s_p and s_j built by np.kron, independent of the
    # kernel's reshape convention. A full-rank state takes the dense route;
    # for N >= 2 a rank-1 state takes the support route (N = 1 has none).
    d = 2**n_qubits
    s_p = pauli_on(n_qubits, qubit, "xyz"[pauli - 1])
    for r in (d, 1) if 4 <= d else (d,):
        rho, s = state_with_root(d + 3 * qubit + pauli + r, n_qubits, r)
        assert rho.spectrum.root.shape == (d, r)
        expected = [np.trace(s @ s_p @ s @ pauli_on(n_qubits, qubit, a)) for a in "xyz"]
        np.testing.assert_allclose(
            correlation_matrix(rho, qubit)[pauli - 1], np.real(expected), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("rank", ["1", "2", "d/4", "d/4+1", "d/2", "d/2+1", "d"])
@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6, 7, 8])
def test_correlation_matches_block_gram_partial_trace(n_qubits, rank):
    # Ranks d/4 and d/4 + 1 sit on either side of the rule that sends a
    # state to the support route; d/2 and d/2 + 1 both take the dense route.
    d = 2**n_qubits
    r = {"1": 1, "2": 2, "d/4": d // 4, "d/4+1": d // 4 + 1,
         "d/2": d // 2, "d/2+1": d // 2 + 1, "d": d}[rank]
    rho, s = state_with_root(10 * n_qubits + r, n_qubits, r)
    for k in range(n_qubits):
        expected = block_gram_oracle(s, n_qubits, k)
        assert np.abs(expected.imag).max() < 1e-12
        np.testing.assert_allclose(
            correlation_matrix(rho, k), expected.real, rtol=0, atol=1e-12
        )


# Ranks 1, 2 and d/4 for N = 2...6, but for N = 2 rank 2, which takes the
# dense route (4r > d); at N = 2 and 3, d/4 repeats rank 1 or 2.
@pytest.mark.parametrize("n_qubits, rank", [
    (n, rank) for n in [2, 3, 4, 5, 6] for rank in ["1", "2", "d/4"] if (n, rank) != (2, "2")])
def test_support_route_meets_the_block_gram_oracle(n_qubits, rank):
    # Every consumer on a state whose root is stored as its d x r factor
    # meets the block-Gram oracle above.
    d = 2**n_qubits
    r = {"1": 1, "2": 2, "d/4": d // 4}[rank]
    rho, s = state_with_root(10 * n_qubits + r + 5, n_qubits, r)
    assert rho.spectrum.root.shape == (d, r)
    report = lqu_all(rho)
    for k in range(n_qubits):
        expected = block_gram_oracle(s, n_qubits, k).real
        q = 1.0 - np.linalg.eigvalsh(expected)[-1]
        np.testing.assert_allclose(correlation_matrix(rho, k), expected, rtol=0, atol=1e-12)
        assert lqu_bipartition(rho, k) == pytest.approx(q, rel=0, abs=1e-12)
        assert report.per_bipartition[k] == pytest.approx(q, rel=0, abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 8])
def test_support_route_peak_memory_stays_below_a_quarter_of_a_state(rank):
    # N = 9: one complex d x d matrix is 4 MiB, the d x r factor 8 to 64 KiB.
    # One qubit at a time holds X = [F_0 F_1], its conjugate, the 2r x 2r
    # Gram Y = X^dagger X and Y's two transposed copies: 0.005 to 0.033 of a
    # d x d matrix here. The spectrum is formed before tracing.
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


def test_support_route_at_its_largest_rank_holds_one_qubit_gram_at_a_time():
    # N = 10, rank d/4, the largest the support route takes: the factor F,
    # X = [F_0 F_1] (d/2 x d/2), its conjugate, Y = X^dagger X and Y's two
    # transposed copies are each a quarter of a d x d matrix, and at most
    # four of them live at once: 1.00 d x d matrices measured.
    d = 2**10
    g = complex_gaussian(rng_for(d), (d, d // 4))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, 10)
    del g
    assert rho.spectrum.root.shape == (d, d // 4)
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


# N = 1 has no support route (4r <= 2 holds for no rank r >= 1): its rank 1
# runs dense, and it has no rank d/4.
@pytest.mark.parametrize("n_qubits, rank", [
    (n, rank) for n in range(1, 10) for rank in ["1", "d/4", "d"] if (n, rank) != (1, "d/4")])
def test_per_qubit_entry_points_match_the_whole_register(n_qubits, rank):
    # One qubit alone gives the bits it gets in a call for the whole
    # register, on both routes.
    d = 2**n_qubits
    r = {"1": 1, "d/4": d // 4, "d": d}[rank]
    g = complex_gaussian(rng_for(d + r), (d, r))
    rho = dm(g @ g.conj().T / np.linalg.norm(g) ** 2, n_qubits)
    assert rho.spectrum.root.shape == (d, r if 4 * r <= d else d)
    matrices = _correlations_given_root(rho.spectrum.root, range(n_qubits))[0]
    report = lqu_all(rho)
    for k in range(n_qubits):
        assert lqu_bipartition(rho, k) == report.per_bipartition[k]
        np.testing.assert_array_equal(correlation_matrix(rho, k), matrices[k])


# --- the bridge between the two routes --------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_skew_equals_one_minus_quadratic_form(seed):
    # for unit n, (n . sigma)^2 = I, so I(rho, n.sigma) = 1 - n M n, with
    # n . sigma placed on qubit q by Kronecker products: on a full-rank
    # N = 3 state (the dense route) and on N = 4 states of rank 1 and 4
    # (the support route). skew_information's own root would turn the null
    # space's O(eps) eigenvalues into O(1e-8) terms, so the low-rank states
    # take I(rho, k) = Tr[rho k^2] - Tr[S k S k] from their exact root S.
    rng = rng_for(seed ^ 0xD1CE)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    states = [(random_noisy_state(seed), None)]
    for r in (1, 4):
        states.append(state_with_root(seed, 4, r))
        assert states[-1][0].spectrum.root.shape == (16, r)
    for rho, s in states:
        for q in range(rho.n_qubits):
            k = sum(n[i] * pauli_on(rho.n_qubits, q, a) for i, a in enumerate("xyz"))
            m = correlation_matrix(rho, q)
            skew = (skew_information(rho.matrix, k) if s is None
                    else np.trace(rho.matrix @ k @ k - s @ k @ s @ k).real)
            assert skew == pytest.approx(1.0 - n @ m @ n, abs=1e-10)


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


def ranked_state(seed, n_qubits, rank):
    """G G^dagger / Tr for a seeded complex Gaussian G of d x rank."""
    g = complex_gaussian(rng_for(seed), (2**n_qubits, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def metamorphic_states(n_qubits):
    """Seeded states of ranks 1, d/4 and d, so both routes."""
    d = 2**n_qubits
    return [ranked_state(100 * n_qubits + r, n_qubits, r) for r in sorted({1, d // 4, d})]


@pytest.mark.parametrize("n_qubits", range(2, 10))
def test_qubit_permutation_permutes_the_bipartitions(n_qubits):
    # Qubit j of the permuted state is qubit perm[j] of the original, for a
    # seeded permutation other than the identity: one transpose of the 2N
    # tensor indices, no Kronecker product.
    rng, perm = rng_for(n_qubits), list(range(n_qubits))
    while perm == sorted(perm):
        perm = rng.permutation(n_qubits).tolist()
    axes = perm + [n_qubits + p for p in perm]
    d = 2**n_qubits
    for m in metamorphic_states(n_qubits):
        permuted = m.reshape((2,) * 2 * n_qubits).transpose(axes).reshape(d, d)
        q = lqu_all(dm(m, n_qubits)).per_bipartition
        got = lqu_all(dm(permuted, n_qubits)).per_bipartition
        np.testing.assert_allclose(got, [q[p] for p in perm], rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_qubits", range(2, 10))
def test_local_unitaries_leave_the_bipartitions_unchanged(n_qubits):
    # A Haar unitary on each qubit k, applied as U m U^dagger to k's bit of
    # the rows and the columns by one einsum, no Kronecker product.
    d = 2**n_qubits
    for m in metamorphic_states(n_qubits):
        rotated = m
        for k in range(n_qubits):
            u = haar_unitary(10 * n_qubits + k)
            t = rotated.reshape(2**k, 2, -1, 2**k, 2, d >> (k + 1))
            rotated = np.einsum("pq,aqbcrd,sr->apbcsd", u, t, u.conj()).reshape(d, d)
        np.testing.assert_allclose(lqu_all(dm(rotated, n_qubits)).per_bipartition,
                                   lqu_all(dm(m, n_qubits)).per_bipartition,
                                   rtol=0, atol=1e-13)


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


# --- local quantum Fisher information (tests/helpers.py) --------------------

@pytest.mark.parametrize("n_qubits", range(2, 6))
@pytest.mark.parametrize("rank", [1, 2, "d"])
@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_lqfi_bounds_the_lqu_from_both_sides(n_qubits, rank, noise):
    # LQFI_k / 2 <= Q_k <= LQFI_k on every qubit, with no root on the
    # LQFI side; the pure states meet LQFI_k = Q_k.
    d = 2**n_qubits
    r = d if rank == "d" else rank
    m = (1 - noise) * ranked_state(10 * n_qubits + r, n_qubits, r) + noise / d * np.eye(d)
    q = lqu_all(dm(m, n_qubits)).per_bipartition
    for k in range(n_qubits):
        f = lqfi(m, n_qubits, k)
        assert f / 2 - 1e-12 <= q[k] <= f + 1e-12, (k, f, q[k])
        if r == 1 and noise == 0.0:
            assert abs(q[k] - f) <= 1e-13, (k, f, q[k])


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
def test_lowest_failing_qubit_of_a_register_reports_its_own_check(root, message):
    # Both qubits fail, and both are checked together from the register's
    # (2, 3, 3) stack after the per-qubit loop; the report is the lower
    # qubit's, the check it would have raised first had it been checked
    # alone.
    with pytest.raises(NumericalContractViolation, match=f"^{re.escape(message)}$"):
        _lqus_given_root(root, range(2))
