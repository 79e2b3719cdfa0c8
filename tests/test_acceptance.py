"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import functools
import math
import time

import numpy as np
import pytest

import lqu
from lqu import cli
from lqu.analytic import w3_correlation_eigenvalues
from lqu.linalg import spectrum

from helpers import (
    haar_unitary,
    lqu_variational,
    random_density,
    random_psd,
    rng_for,
    root_matrix,
)

GAMMA_SET = (2.0, 2.5, 2 * math.sqrt(2), 3.0, 5.0, 10.0, 100.0)
FOUR_QUBIT_CLASS = ("ghz4", "dicke24", "singlet4", "cluster4", "chi4")


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            print(f"criterion {number} PASS: {description}")
        return wrapper
    return decorate


def noisy(family, p):
    return lqu.mix_white_noise(lqu.pure_state(family), p)


@criterion(1, "GHZ3 pipeline matches its closed form on a 101-point grid in < 1 s")
def test_criterion_1_ghz3_oracle_match():
    start = time.perf_counter()
    for alpha in np.linspace(0.0, 1.0, 101):
        alpha = float(alpha)
        got = lqu.lqu_bipartition(noisy("ghz3", alpha), 0)
        assert abs(got - lqu.lqu_ghz3(alpha)) <= 1e-8
    assert abs(lqu.lqu_bipartition(noisy("ghz3", 0.0), 0) - 1.0) <= 1e-9
    assert abs(lqu.lqu_bipartition(noisy("ghz3", 1.0), 0) - 0.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "W3 pipeline matches its closed form and eigenvalue pattern")
def test_criterion_2_w3_oracle_match():
    for beta in np.linspace(0.0, 1.0, 101):
        beta = float(beta)
        got = lqu.lqu_bipartition(noisy("w3", beta), 0)
        assert abs(got - lqu.lqu_w3(beta)) <= 1e-8
        eigs = np.linalg.eigvalsh(lqu.correlation_matrix(noisy("w3", beta), 0))
        w1, _, w3 = w3_correlation_eigenvalues(beta)
        assert abs(eigs[0] - eigs[1]) <= 1e-8  # degenerate pair
        assert abs(eigs[0] - w1) <= 1e-8
        assert abs(eigs[2] - w3) <= 1e-8
        assert eigs[2] >= eigs[0] - 1e-12
    assert abs(lqu.lqu_bipartition(noisy("w3", 0.0), 0) - 8 / 9) <= 1e-9


@criterion(3, "Kay pipeline matches its closed form; gamma < 2 is rejected")
def test_criterion_3_kay_oracle_match():
    for gamma in GAMMA_SET:
        got = lqu.lqu_bipartition(lqu.kay_state(gamma), 0)
        assert abs(got - lqu.lqu_kay(gamma)) <= 1e-8
    assert abs(lqu.lqu_bipartition(lqu.kay_state(2.0), 0) - 1 / 3) <= 1e-9
    for gamma in (1.9, 1.0, 0.0):
        with pytest.raises(lqu.GammaOutOfRange):
            lqu.kay_state(gamma)


@criterion(4, "four-qubit families match their closed forms and each other in < 30 s")
def test_criterion_4_four_qubit_class():
    start = time.perf_counter()
    grid = [float(e) for e in np.linspace(0.0, 1.0, 11)]
    for eta in grid:
        class_means = []
        for family in FOUR_QUBIT_CLASS:
            mean = lqu.lqu_all(noisy(family, eta)).mean
            assert abs(mean - lqu.lqu_ghz4_class(eta)) <= 1e-8
            class_means.append(mean)
        spread = max(class_means) - min(class_means)
        assert spread <= 1e-9, f"families disagree by {spread:.2e} at eta={eta}"
        w4_mean = lqu.lqu_all(noisy("w4", eta)).mean
        assert abs(w4_mean - lqu.lqu_w4(eta)) <= 1e-8
    assert abs(lqu.lqu_all(noisy("w4", 0.0)).mean - 0.75) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(5, "per-bipartition values agree pairwise for every symmetric family")
def test_criterion_5_bipartition_symmetry():
    reports = []
    for p in np.linspace(0.0, 1.0, 101):
        reports.append(lqu.lqu_all(noisy("ghz3", float(p))))
        reports.append(lqu.lqu_all(noisy("w3", float(p))))
    for gamma in GAMMA_SET:
        reports.append(lqu.lqu_all(lqu.kay_state(gamma)))
    for eta in np.linspace(0.0, 1.0, 11):
        for family in FOUR_QUBIT_CLASS + ("w4",):
            reports.append(lqu.lqu_all(noisy(family, float(eta))))
    for report in reports:
        v = report.per_bipartition
        assert max(v) - min(v) <= 1e-9


@criterion(6, "sampling oracle brackets the closed route on 20 random states")
def test_criterion_6_variational_oracle():
    asymmetric_seed_found = False
    for seed in range(20):
        rho = lqu.mix_white_noise(lqu.random_pure(3, seed), 0.2)
        report = lqu.lqu_all(rho)
        assert 0.0 <= report.mean <= 1.0
        for q in range(3):
            closed = report.per_bipartition[q]
            sampled = lqu_variational(rho.matrix, q, 10_000, seed=1_000 + 31 * seed + q)
            assert sampled >= closed - 1e-9
            assert sampled <= closed + 2e-3
        v = report.per_bipartition
        gaps = (abs(v[0] - v[1]), abs(v[0] - v[2]), abs(v[1] - v[2]))
        if min(gaps) > 0.01:
            asymmetric_seed_found = True
    assert asymmetric_seed_found


@criterion(7, "invariance suite: local unitaries, classical states, range, sqrt round-trip")
def test_criterion_7_invariance_suite():
    # local unitary invariance
    for seed in range(5):
        rho = lqu.mix_white_noise(lqu.random_pure(3, 100 + seed), 0.3)
        u = np.kron(
            np.kron(haar_unitary(3 * seed), haar_unitary(3 * seed + 1)),
            haar_unitary(3 * seed + 2),
        )
        rotated = lqu.DensityMatrix(3, u @ rho.matrix @ u.conj().T)
        a = lqu.lqu_all(rho).per_bipartition
        b = lqu.lqu_all(rotated).per_bipartition
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9
    # classical (computational-basis diagonal) states carry nothing
    for seed in range(5):
        p = rng_for(200 + seed).uniform(0.0, 1.0, size=8)
        p /= p.sum()
        report = lqu.lqu_all(lqu.DensityMatrix(3, np.diag(p).astype(complex)))
        assert max(report.per_bipartition) <= 1e-9
    # range bounds on 100 seeded random mixed states
    for seed in range(100):
        report = lqu.lqu_all(lqu.DensityMatrix(3, random_density(seed, 8)))
        for v in report.per_bipartition:
            assert 0.0 <= v <= 1.0
    # square-root round trip
    for seed in range(10):
        m = random_psd(300 + seed, 8)
        s = root_matrix(spectrum(m))
        assert np.linalg.norm(s @ s - m) / np.linalg.norm(m) <= 1e-9


@criterion(8, "sweep CSVs reproduce the single-parameter curves")
def test_criterion_8_figure_sweeps(tmp_path):
    specs = [
        ("ghz3", "0", "1", "101"),
        ("w3", "0", "1", "101"),
        ("kay", "2", "10", "81"),
    ]
    means = {}
    for family, lo, hi, steps in specs:
        out = tmp_path / f"{family}.csv"
        code = cli.main(["sweep", "--family", family, "--from", lo, "--to", hi,
                         "--steps", steps, "--out", str(out)])
        assert code == 0
        assert out.exists()
        with open(out, newline="") as fh:
            rows = list(fh)[1:]
        means[family] = [float(line.split(",")[4]) for line in rows]
        assert len(means[family]) == int(steps)
    for family in ("ghz3", "w3"):
        values = means[family]
        assert all(b < a for a, b in zip(values, values[1:])), f"{family} not decreasing"
    assert all(v > 0 for v in means["kay"])
