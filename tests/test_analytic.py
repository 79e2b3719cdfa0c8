import decimal
import math

import numpy as np
import pytest

from lqu.analytic import (
    ParamOutOfRange,
    closed_form_for,
    lqu_ghz3,
    lqu_ghz4_class,
    lqu_kay,
    lqu_w3,
    lqu_w4,
    w3_correlation_eigenvalues,
)
from lqu.core import lqu_bipartition
from lqu.states import kay_state, mix_white_noise, pure_state


def test_ghz3_values():
    assert lqu_ghz3(0.0) == pytest.approx(1.0)
    assert lqu_ghz3(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lqu_ghz3(0.5) == pytest.approx(0.25)  # (1.5 + sqrt(2.25)) / 4 = 0.75


def test_w3_values():
    assert lqu_w3(0.0) == pytest.approx(8 / 9)
    assert lqu_w3(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lqu_w3(0.5) == pytest.approx(2 / 9)  # (8 - 3 - 2*1.5) / 9


def test_w3_eigenvalue_triple_ordering():
    grid = np.linspace(0.0, 1.0, 201)
    for beta in grid:
        w1, w2, w3 = w3_correlation_eigenvalues(float(beta))
        assert w1 == w2
        assert w3 >= w1 - 1e-15
        if beta < 1.0:
            assert w3 > w1  # strict except at the fully mixed endpoint
    w1, _, w3 = w3_correlation_eigenvalues(1.0)
    assert w3 == pytest.approx(w1, abs=1e-15)


def test_kay_values():
    assert lqu_kay(2.0) == pytest.approx(1 / 3)
    root2 = 2 * math.sqrt(2)
    expected_boundary = (2 + root2 - math.sqrt((root2 - 2) * (6 + root2))) / (4 * (1 + root2))
    assert lqu_kay(root2) == pytest.approx(expected_boundary)
    assert expected_boundary > 0
    assert lqu_kay(10.0) == pytest.approx((12 - math.sqrt(128)) / 44)


def test_kay_stays_positive_for_huge_gamma():
    for gamma in np.geomspace(2.0, 1e6, 60):
        assert lqu_kay(float(gamma)) > 0.0


@pytest.mark.parametrize("gamma", [2.0, 3.0, 10.0, 1e4, 1e9, 1e100])
def test_kay_matches_high_precision_reference(gamma):
    # The paper's unrationalised expression, with enough digits to survive
    # its cancellation (about 2 log10(gamma) of them) and 50 more.
    with decimal.localcontext() as ctx:
        ctx.prec = 250
        g = decimal.Decimal(gamma)
        exact = (2 + g - ((g - 2) * (6 + g)).sqrt()) / (4 * (1 + g))
        rel = abs((decimal.Decimal(lqu_kay(gamma)) - exact) / exact)
    assert rel < 1e-12


def test_ghz4_class_values():
    assert lqu_ghz4_class(0.0) == pytest.approx(1.0)
    assert lqu_ghz4_class(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lqu_ghz4_class(0.5) == pytest.approx(1 - (3.5 + math.sqrt(4.25)) / 8)


def test_w4_values():
    assert lqu_w4(0.0) == pytest.approx(0.75)
    assert lqu_w4(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lqu_w4(0.5) == pytest.approx(1 - (8 + 10.5 + 3 * math.sqrt(4.25)) / 32)


@pytest.mark.parametrize(
    "fn, bad",
    [
        (lqu_ghz3, -0.01), (lqu_ghz3, 1.01),
        (lqu_w3, -0.5), (lqu_w3, 2.0),
        (lqu_kay, 1.99),
        (lqu_ghz4_class, -1.0), (lqu_ghz4_class, 1.5),
        (lqu_w4, -0.2), (lqu_w4, 1.2),
    ],
)
def test_domain_errors(fn, bad):
    with pytest.raises(ParamOutOfRange):
        fn(bad)


@pytest.mark.parametrize("fn", [lqu_ghz3, lqu_w3, lqu_ghz4_class, lqu_w4])
def test_noise_formulas_strictly_decreasing(fn):
    grid = np.linspace(0.0, 1.0, 101)
    values = [fn(float(p)) for p in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_closed_form_registry():
    assert closed_form_for("ghz3") is lqu_ghz3
    for family in ("ghz4", "dicke24", "singlet4", "cluster4", "chi4"):
        assert closed_form_for(family) is lqu_ghz4_class
    assert closed_form_for("w4") is lqu_w4
    assert closed_form_for("random") is None


@pytest.mark.parametrize("family", ["ghz3", "w3", "ghz4", "w4"])
def test_closed_forms_agree_with_numeric_pipeline(family):
    formula = closed_form_for(family)
    for p in np.linspace(0, 1, 101):
        rho = mix_white_noise(pure_state(family), float(p))
        assert lqu_bipartition(rho, 0) == pytest.approx(formula(float(p)), abs=1e-8)


def test_kay_closed_form_agrees_with_numeric_pipeline():
    for gamma in np.linspace(2.0, 10.0, 101):
        got = lqu_bipartition(kay_state(float(gamma)), 0)
        assert got == pytest.approx(lqu_kay(float(gamma)), abs=1e-8)
