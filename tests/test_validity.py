"""One validity rule: validate and the three core consumers judge every state
alike, on either route, on both sides of each invariant's tolerance."""

import numpy as np
import pytest

import lqu
from lqu.linalg import HERMITICITY_TOL, PSD_TOL, TRACE_TOL

from helpers import agreed_violations, haar_unitary, rng_for

N_QUBITS = 3
D = 2**N_QUBITS

TOLERANCES = {
    "HermiticityViolation": HERMITICITY_TOL,
    "TraceViolation": TRACE_TOL,
    "PsdViolation": PSD_TOL,
}

# eigenvalues of the valid state each route starts from: one (the support
# route keeps a d x 1 factor) or all d positive (the dense route keeps S)
WEIGHTS = {
    "support": np.eye(D)[0],
    "dense": rng_for(3).uniform(0.1, 1.0, D),
}


def with_defect(route, kind, size):
    """The route's state with one invariant broken by size: a skew pair of
    entries (Hermiticity), a scaled trace, or an eigenvalue of -size."""
    p = WEIGHTS[route] / WEIGHTS[route].sum()
    if kind == "PsdViolation":
        p = np.append(p[:-1] * (1 + size) / p[:-1].sum(), -size)
    u = haar_unitary(11, D)
    m = (u * p) @ u.conj().T
    m = (m + m.conj().T) / 2  # exactly Hermitian
    if kind == "HermiticityViolation":
        m[0, 1] += size / 2
        m[1, 0] -= size / 2
    elif kind == "TraceViolation":
        m *= 1 + size
    return lqu.DensityMatrix(N_QUBITS, m)


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("kind", sorted(TOLERANCES))
@pytest.mark.parametrize("route", sorted(WEIGHTS))
def test_validate_and_every_consumer_agree_at_the_tolerance(route, kind, factor):
    size = factor * TOLERANCES[kind]
    rho = with_defect(route, kind, size)
    assert rho.spectrum.root.shape[1] == (1 if route == "support" else D)
    violations = agreed_violations(rho)
    if factor < 1:
        assert violations == []
    else:
        assert [v.kind for v in violations] == [kind]
        assert violations[0].magnitude == pytest.approx(size, rel=1e-4)


def classical_on_qubit_0(route, eps):
    """rho = |0><0| (x) A + |1><1| (x) B, block diagonal in qubit 0's basis,
    so Q_0 = 0 and the largest correlation of qubit 0 is Tr sqrt(rho)^2.

    B has the eigenvalue -eps. On the support route it has no other, so
    qubit 0 is diag(1 + eps, -eps), pure but for the dirt, and the rank is
    d/2; on the dense route B's three other eigenvalues are small and
    positive, qubit 0 is nearly pure and the rank is d - 1.
    """
    b = np.array([0.0, 0.0, 0.0] if route == "support" else [1e-3, 2e-3, 3e-3])
    a = rng_for(7).uniform(0.1, 1.0, D // 2)
    a *= (1 + eps - b.sum()) / a.sum()
    p = np.concatenate([a, b, [-eps]])
    u = np.zeros((D, D), dtype=complex)
    u[:D // 2, :D // 2] = haar_unitary(12, D // 2)
    u[D // 2:, D // 2:] = haar_unitary(13, D // 2)
    m = (u * p) @ u.conj().T
    return lqu.DensityMatrix(N_QUBITS, (m + m.conj().T) / 2)


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("route", sorted(WEIGHTS))
def test_negative_mass_within_psd_tol_computes_on_a_pure_qubit(route, factor):
    # The root drops the negative eigenvalue but keeps the trace, so the
    # correlation range check does not see the dirt validate admits.
    size = factor * PSD_TOL
    rho = classical_on_qubit_0(route, size)
    assert rho.spectrum.root.shape[1] == (D // 2 if route == "support" else D)
    violations = agreed_violations(rho)
    if factor < 1:
        assert violations == []
        assert lqu.lqu_bipartition(rho, 0) == pytest.approx(0.0, abs=1e-15)
    else:
        assert [v.kind for v in violations] == ["PsdViolation"]
        assert violations[0].magnitude == pytest.approx(size, rel=1e-4)
