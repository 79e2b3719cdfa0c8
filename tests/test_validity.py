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
