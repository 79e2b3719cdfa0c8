"""One eigendecomposition per state, shared by every consumer."""

import numpy as np
import pytest

import lqu
from lqu import cli
from lqu.linalg import spectrum

from helpers import random_density


@pytest.fixture
def dense_eigs(monkeypatch):
    """Record the dimension of every numpy eigh/eigvalsh call; the 3x3
    correlation eigenvalues are told apart by the caller."""
    dims = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, **kwargs):
            dims.append(np.shape(a)[0])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return dims


def test_compute_decomposes_the_state_once(tmp_path, capsys, dense_eigs):
    rho = lqu.DensityMatrix(5, random_density(3, 32))
    path = tmp_path / "state.json"
    lqu.save_density_matrix(rho, path)
    assert cli.main(["compute", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert dense_eigs.count(32) == 1


def test_kay_point_decomposes_the_state_once(dense_eigs):
    lqu.lqu_all(lqu.kay_state(3.0))
    assert dense_eigs.count(8) == 1


def test_every_consumer_reads_the_shared_spectrum(dense_eigs):
    rho = lqu.mix_white_noise(lqu.random_pure(3, 4), 0.3)
    assert lqu.validate(rho) == []
    lqu.lqu_all(rho)
    for q in range(3):
        lqu.lqu_bipartition(rho, q)
        lqu.correlation_matrix(rho, q)
    assert dense_eigs.count(8) == 1


def test_shared_sqrt_matches_matrix_sqrt_psd():
    m = random_density(8, 16)
    rho = lqu.DensityMatrix(4, m)
    np.testing.assert_array_equal(rho.spectrum.sqrt(), spectrum(m).sqrt())


def test_stored_matrix_is_a_read_only_copy():
    m = np.eye(4, dtype=complex) / 4
    rho = lqu.DensityMatrix(2, m)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    m[0, 0] = 1.0  # the caller's array stays theirs and writable
    assert rho.matrix[0, 0] == 0.25
    assert lqu.validate(rho) == []


def test_spectrum_sqrt_enforces_the_contracts():
    skew = lqu.DensityMatrix(1, np.array([[0.5, 1e-3], [0.0, 0.5]]))
    assert [v.kind for v in lqu.validate(skew)] == ["HermiticityViolation"]
    with pytest.raises(lqu.NotHermitian):
        lqu.lqu_all(skew)
    negative = lqu.DensityMatrix(1, np.diag([1.1, -0.1]))
    assert [v.kind for v in lqu.validate(negative)] == ["PsdViolation"]
    with pytest.raises(lqu.NotPositiveSemidefinite):
        lqu.lqu_all(negative)
