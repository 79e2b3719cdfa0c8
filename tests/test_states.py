import argparse
import json
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqu
from lqu.analytic import GAMMA_MAX, GammaOutOfRange, NoiseOutOfRange
from lqu.cli import build_parser
from lqu.states import (
    FAMILIES,
    FAMILY_NAMES,
    DensityMatrix,
    DensityMatrixFormatError,
    UnknownFamily,
    build_state,
    density_matrix_from_json,
    density_matrix_to_json,
    kay_state,
    mix_white_noise,
    pure_state,
    random_pure,
    validate,
    _Mixture,
)

from helpers import reduced_single_qubit

GOLDEN = pathlib.Path(__file__).parent / "golden"

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# the families whose registry row holds a built _Mixture
PURE_FAMILIES = sorted(name for name, (_, part, _, _) in FAMILIES.items()
                       if isinstance(part, _Mixture))

S2, S3, S6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)

# family -> {basis index: amplitude}
EXPECTED_AMPLITUDES = {
    "ghz3": {0: 1 / S2, 7: 1 / S2},
    "w3": {1: 1 / S3, 2: 1 / S3, 4: 1 / S3},
    "ghz4": {0: 1 / S2, 15: 1 / S2},
    "w4": {1: 0.5, 2: 0.5, 4: 0.5, 8: 0.5},
    "dicke24": {i: 1 / S6 for i in (3, 5, 6, 9, 10, 12)},
    "singlet4": {3: 1 / S3, 12: 1 / S3, 5: -0.5 / S3, 6: -0.5 / S3,
                 9: -0.5 / S3, 10: -0.5 / S3},
    "cluster4": {0: 0.5, 3: 0.5, 12: 0.5, 15: -0.5},
    "chi4": {15: S2 / S6, 1: 1 / S6, 2: 1 / S6, 4: 1 / S6, 8: 1 / S6},
}


@pytest.mark.parametrize("family", PURE_FAMILIES)
def test_pure_family_amplitudes(family):
    psi = pure_state(family)
    expected = np.zeros(len(psi), dtype=complex)
    for idx, amp in EXPECTED_AMPLITUDES[family].items():
        expected[idx] = amp
    np.testing.assert_allclose(psi, expected, atol=1e-15)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_pure_state_qubit_count_must_match():
    with pytest.raises(UnknownFamily):
        pure_state("bell2")


def test_mix_zero_noise_is_projector():
    psi = pure_state("ghz3")
    rho = mix_white_noise(psi, 0.0)
    np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()))


def test_mix_full_noise_is_maximally_mixed():
    rho = mix_white_noise(pure_state("w4"), 1.0)
    np.testing.assert_allclose(rho.matrix, np.eye(16) / 16)


def test_mix_half_noise_ghz3_entries():
    # evaluated by hand: diagonal (0.3125, 0.0625 x6, 0.3125), corners 0.25
    rho = mix_white_noise(pure_state("ghz3"), 0.5).matrix
    np.testing.assert_allclose(
        np.diag(rho).real,
        [0.3125, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.3125],
    )
    assert rho[0, 7] == pytest.approx(0.25)
    assert rho[7, 0] == pytest.approx(0.25)


@pytest.mark.parametrize("length", [0, 1, 3, 6, 2**13])
def test_mix_rejects_amplitude_length_not_power_of_two(length):
    amplitudes = np.zeros(length, dtype=complex)
    amplitudes[:1] = 1.0
    with pytest.raises(ValueError, match=f"length {length}"):
        mix_white_noise(amplitudes, 0.5)


@pytest.mark.parametrize("amplitudes", [
    np.eye(2) / np.sqrt(2),  # used to be read as the Bell state of its four entries
    np.array([[1.0, 0.0]]),
    np.array(1.0),
])
def test_mix_rejects_an_amplitude_array_that_is_not_1d(amplitudes):
    with pytest.raises(ValueError) as info:
        mix_white_noise(amplitudes, 0.0)
    assert str(info.value) == f"amplitude vector must be 1-D, got an array of shape {amplitudes.shape}"


def test_mix_rejects_a_non_finite_amplitude_before_the_outer_product():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            mix_white_noise(np.array([np.inf, 0]), 0.1)


@pytest.mark.parametrize("amplitudes, norm2", [
    ([3.0, 0], "9.0"),  # used to build a matrix of trace 8.2
    ([1e200, 0], "inf"),  # used to warn of an overflow in the outer product
])
def test_mix_rejects_an_amplitude_vector_that_is_not_unit_norm(amplitudes, norm2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            mix_white_noise(amplitudes, 0.1)
    assert str(info.value) == f"amplitude vector has squared norm {norm2}, not within 1e-10 of 1"


@pytest.mark.parametrize("n_qubits", range(1, 11))
def test_mix_accepts_every_random_pure_vector(n_qubits):
    for seed in range(3):
        rho = mix_white_noise(random_pure(n_qubits, seed), 0.5)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("matrix, where", [
    ([[0.5, math.nan], [math.nan, 0.5]], "[0][1]"),  # validate() used to return []
    ([[math.nan, 0], [0, 1]], "[0][0]"),  # lqu_all used to return Q = 1.0
    ([[0.5, 0], [0, complex(0.5, math.inf)]], "[1][1]"),
])
def test_density_matrix_rejects_non_finite_entries(matrix, where):
    with pytest.raises(ValueError, match=re.escape(f"matrix{where} is not finite")):
        DensityMatrix(1, matrix)


@pytest.mark.parametrize("matrix", [np.eye(3), np.ones((4, 2))])
def test_density_matrix_rejects_a_matrix_of_the_wrong_shape(matrix):
    with pytest.raises(ValueError, match=re.escape(
            f"matrix has shape {matrix.shape}, expected (4, 4) for 2 qubits")):
        DensityMatrix(2, matrix)


def test_mix_rejects_out_of_range_noise():
    psi = pure_state("ghz3")
    for bad in (-0.1, 1.1):
        with pytest.raises(NoiseOutOfRange):
            mix_white_noise(psi, bad)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(PURE_FAMILIES),
    noise=st.floats(min_value=0.0, max_value=1.0),
)
def test_mix_is_affine_in_the_spectrum(family, noise):
    psi = pure_state(family)
    rho = mix_white_noise(psi, noise)
    assert validate(rho) == []
    w = np.linalg.eigvalsh(rho.matrix)
    expected = np.full(len(psi), noise / len(psi))
    expected[-1] += 1.0 - noise
    np.testing.assert_allclose(np.sort(w), np.sort(expected), atol=1e-12)


def test_kay_entries_at_gamma_two():
    rho = kay_state(2.0).matrix
    np.testing.assert_allclose(np.diag(rho).real, np.array([6, 2, 2, 2, 2, 2, 2, 6]) / 24)
    anti = np.array([rho[i, 7 - i] for i in range(8)]).real
    np.testing.assert_allclose(anti, np.array([2, 2, -2, 2, 2, -2, 2, 2]) / 24)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert validate(kay_state(2.0)) == []


def kay_by_entries(gamma):
    """The Kay matrix typed entry by entry, each divided by 8 + 8 gamma."""
    m = np.zeros((8, 8), dtype=complex)
    diag = [4 + gamma] + [gamma] * 6 + [4 + gamma]
    anti = [2, 2, -2, 2, 2, -2, 2, 2]
    for i in range(8):
        m[i, i] = diag[i]
        m[i, 7 - i] = anti[i]
    m /= 8 + 8 * gamma
    return m


def test_kay_base_gives_the_entries_bytes():
    # The golden grids, the ends of the range and seeded gammas across it.
    rng = np.random.default_rng(26)
    gammas = [*np.linspace(2, 10, 81).tolist(), *np.linspace(2, 10, 9).tolist(),
              2.0, math.nextafter(2.0, 3.0), 1e154, 9.480751908109177e+153, 1e300,
              math.nextafter(GAMMA_MAX, 0.0), GAMMA_MAX,
              *rng.uniform(2, 10, 200).tolist(),
              *(2 * np.exp(rng.uniform(0, math.log(GAMMA_MAX / 2), 200))).tolist()]
    for gamma in gammas:
        assert kay_state(gamma).matrix.tobytes() == kay_by_entries(gamma).tobytes(), gamma


def test_kay_rejects_gamma_below_two():
    with pytest.raises(GammaOutOfRange):
        kay_state(1.9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [3e307, 1e308, math.inf, math.nan])
def test_kay_rejects_gamma_whose_normalisation_overflows(gamma):
    with pytest.raises(GammaOutOfRange, match="trace"):
        kay_state(gamma)


@pytest.mark.parametrize("gamma", [1.9999999, -1.0, -2.0, math.nextafter(GAMMA_MAX, math.inf)])
def test_kay_rejects_gamma_outside_its_range_by_the_parameter_rule(gamma):
    # Checked on gamma before anything is built: no numpy warning (-1.0 used
    # to divide by zero), and the message names the range, printing the bound
    # in full so a rejected gamma never prints equal to it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GammaOutOfRange) as info:
            kay_state(gamma)
    message = str(info.value)
    assert message.startswith(f"gamma = {gamma!r} outside [2, {GAMMA_MAX!r}]")
    assert repr(gamma) != repr(GAMMA_MAX)


def test_gamma_max_is_the_largest_gamma_whose_normalisation_is_finite():
    assert math.isfinite(8 + 8 * GAMMA_MAX)
    assert math.isinf(8 + 8 * math.nextafter(GAMMA_MAX, math.inf))


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(min_value=2.0, max_value=GAMMA_MAX))
@example(gamma=2.0)
@example(gamma=GAMMA_MAX)
def test_kay_valid_on_its_domain(gamma):
    assert validate(kay_state(gamma)) == []


@pytest.mark.parametrize("gamma", np.geomspace(2.0, GAMMA_MAX, 25)[1:-1].tolist())
def test_kay_valid_at_log_spaced_gammas(gamma):
    assert validate(kay_state(gamma)) == []


def test_random_pure_is_deterministic():
    # regression pin for seed 42 (PCG64 + Box-Muller stream)
    expected = np.array([
        0.2439670813753934 - 0.05614789039032544j,
        0.25370453787532843 - 0.07132931902669531j,
        -0.20883065874297338 + 0.24554137279833418j,
        0.06729377457111141 - 0.4991339226331339j,
        -0.27781981662744687 - 0.32378503868211966j,
        0.2928911100364197 + 0.12022734568496082j,
        0.28273544571708165 + 0.05108580505139126j,
        -0.14013345249107462 + 0.3547714527535997j,
    ])
    got = random_pure(3, 42)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_array_equal(got, random_pure(3, 42))


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_random_pure_is_normalized(seed):
    psi = random_pure(3, seed)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class _Unconvertible:
    def __array__(self, *args, **kwargs):
        raise AssertionError("matrix converted before the qubit count was checked")


_ENTRIES = {
    "random_pure": lambda n: random_pure(n, 1),
    "DensityMatrix": lambda n: DensityMatrix(n, _Unconvertible()),
    "parser": lambda n: density_matrix_from_json(json.dumps({"n_qubits": n, "matrix": []})),
}


@pytest.mark.parametrize("n, message", [
    (0, "n_qubits must be a positive integer, got 0"),
    (True, "n_qubits must be a positive integer, got True"),
    (3.0, "n_qubits must be a positive integer, got 3.0"),
    (13, "n_qubits 13 exceeds the limit of 12"),
])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_one_qubit_count_rule_before_any_allocation(monkeypatch, entry, n, message):
    def fail(*_):
        raise AssertionError("amplitudes drawn before the qubit count was checked")

    monkeypatch.setattr(lqu.states, "gaussian_reals", fail)
    with pytest.raises(ValueError) as got:
        _ENTRIES[entry](n)
    assert str(got.value) == message
    if entry == "parser":
        assert type(got.value) is DensityMatrixFormatError


def test_density_matrix_takes_a_numpy_integer_qubit_count():
    assert DensityMatrix(np.int64(1), np.eye(2) / 2).dim == 2


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("1", "seed must be an integer, got '1'"),
    (-1, "seed must be >= 0, got -1"),
], ids=["bool", "float", "string", "negative"])
@pytest.mark.parametrize("entry", [lambda seed: random_pure(3, seed),
                                   lambda seed: build_state("random", 0.5, 3, seed)],
                         ids=["random_pure", "build_state"])
def test_one_seed_rule_before_any_draw(monkeypatch, entry, seed, message):
    def fail(*_):
        raise AssertionError("amplitudes drawn before the seed was checked")

    monkeypatch.setattr(lqu.states, "gaussian_reals", fail)
    with pytest.raises(ValueError) as got:
        entry(seed)
    assert type(got.value) is ValueError and str(got.value) == message


def test_random_pure_takes_a_numpy_integer_seed():
    np.testing.assert_array_equal(random_pure(3, np.int64(42)), random_pure(3, 42))


def test_random_pure_haar_marginal():
    # |amplitude_0|^2 of a Haar state is Beta(1, 7): mean 1/8, var 7/576.
    n = 10_000
    mean = np.mean([abs(random_pure(3, s)[0]) ** 2 for s in range(n)])
    three_se = 3 * math.sqrt(7 / 576 / n)
    assert abs(mean - 0.125) < three_se


def test_validate_clean_state():
    rho = lqu.DensityMatrix(3, np.eye(8) / 8)
    assert validate(rho) == []


def test_validate_reports_trace_violation():
    rho = lqu.DensityMatrix(3, np.diag([1.0, 0.1, 0, 0, 0, 0, 0, 0]))
    kinds = [v.kind for v in validate(rho)]
    assert kinds == ["TraceViolation"]
    assert validate(rho)[0].magnitude == pytest.approx(0.1)


def test_validate_reports_psd_violation():
    # Kay construction at gamma=1 without the constructor's guard:
    # min eigenvalue (gamma-2)/(8+8*gamma) = -1/16
    g = 1.0
    m = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        m[i, i] = (4 + g) if i in (0, 7) else g
        m[i, 7 - i] = -2 if i in (2, 5) else 2
    m /= 8 + 8 * g
    kinds = [v.kind for v in validate(lqu.DensityMatrix(3, m))]
    assert kinds == ["PsdViolation"]


def test_validate_reports_hermiticity_violation():
    m = np.eye(8, dtype=complex) / 8
    m[0, 1] = 1e-3
    kinds = [v.kind for v in validate(lqu.DensityMatrix(3, m))]
    assert "HermiticityViolation" in kinds


@pytest.mark.parametrize("family", PURE_FAMILIES)
def test_reduced_single_qubit_states_are_diagonal(family):
    psi = pure_state(family)
    n_qubits = len(psi).bit_length() - 1
    proj = np.outer(psi, psi.conj())
    for q in range(n_qubits):
        red = reduced_single_qubit(proj, n_qubits, q)
        assert abs(red[0, 1]) < 1e-14
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_family_names_are_pinned_and_are_the_sweep_choices():
    # The order is part of the bytes argparse prints for a bad --family.
    assert FAMILY_NAMES == ("ghz3", "w3", "ghz4", "w4", "dicke24", "singlet4",
                            "cluster4", "chi4", "kay", "random")
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in sub.choices["sweep"]._actions if a.dest == "family")
    assert tuple(family.choices) == FAMILY_NAMES


def test_pure_state_rejects_a_family_without_an_amplitude_table():
    for family in ("kay", "random"):
        with pytest.raises(ValueError, match="no fixed amplitude vector"):
            pure_state(family)


@pytest.mark.parametrize("family", PURE_FAMILIES)
def test_mutating_a_pure_state_leaves_the_family_unchanged(family):
    # Every state of a pure family is built from its row's one _Mixture;
    # pure_state hands out a copy of its psi, never the row's own vector.
    before = build_state(family, 0.3).matrix.tobytes()
    pure_state(family)[:] = 1.0
    assert build_state(family, 0.3).matrix.tobytes() == before


def test_a_mixture_part_forms_no_d_by_d_array():
    # The fixed part keeps psi and its squared norm; every d x d array is a
    # point's, formed for its matrix or its closed-form root. Measured at
    # N = 10 it peaked at 1.4e-4 of a complex d x d matrix.
    psi = random_pure(10, 1)
    tracemalloc.start()
    try:
        part = _Mixture(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * 16 * psi.size**2, peak
    assert (part.n_qubits, part.norm2) == (10, float(np.vdot(psi, psi).real))


def test_build_state_covers_every_family():
    assert build_state("ghz3", 0.3).n_qubits == 3
    assert build_state("kay", 2.5).n_qubits == 3
    rho = build_state("random", 0.2, n_qubits=4, seed=11)
    assert rho.n_qubits == 4
    assert validate(rho) == []
    with pytest.raises(UnknownFamily):
        build_state("nope", 0.1)
    with pytest.raises(ValueError):
        build_state("random", 0.1)  # missing n_qubits/seed


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_only_random_takes_n_qubits_and_seed(family):
    # random needs both n_qubits and seed; every other family rejects either
    if family == "random":
        rejected = [{}, {"n_qubits": 5}, {"seed": 7}]
    else:
        rejected = [{"n_qubits": 5}, {"seed": 7}, {"n_qubits": 5, "seed": 7}]
    param = 2.5 if family == "kay" else 0.4
    for extra in rejected:
        with pytest.raises(ValueError, match=f"^{family} family "):
            build_state(family, param, **extra)
    if family == "random":
        # the state that `lqu random --qubits 5 --seed 7 --pure-fraction 0.6` dumps
        rho = build_state(family, 1.0 - 0.6, n_qubits=5, seed=7)
        assert density_matrix_to_json(rho) + "\n" == (GOLDEN / "random_q5_s7.json").read_text()


def test_json_round_trip_is_exact():
    rho = build_state("random", 0.37, n_qubits=3, seed=5)
    m = rho.matrix.copy()
    # -0.0 keeps its sign; the least subnormal, the least normal and the
    # largest double survive, on either component.
    m[0, :4] = [-0.0, complex(5e-324, -0.0), complex(0.0, 2.2250738585072014e-308),
                -1.7976931348623157e308]
    m[1, 0] = complex(1.7976931348623157e308, -5e-324)
    for state in (rho, DensityMatrix(n_qubits=3, matrix=m)):
        text = density_matrix_to_json(state)
        nested = [[[z.real, z.imag] for z in row] for row in state.matrix.tolist()]
        assert text == json.dumps({"n_qubits": 3, "matrix": nested})
        again = density_matrix_from_json(text)
        assert again.n_qubits == 3
        assert again.matrix.tobytes() == state.matrix.tobytes()
    big = 2**53 + 1  # a JSON integer rounds as float() rounds it
    doc = json.dumps({"n_qubits": 1, "matrix": [[[big, -big], [0, 0]], [[0, 0], [0, 0]]]})
    z = density_matrix_from_json(doc).matrix[0, 0]
    assert np.array([z.real, -z.imag]).tobytes() == np.array([float(big)] * 2).tobytes()


def test_json_rejects_malformed_document_with_byte_offset():
    with pytest.raises(DensityMatrixFormatError, match="byte offset"):
        density_matrix_from_json('{"n_qubits": 3, "matrix": oops}')


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("[1, 2]", "object"),
        ('{"matrix": []}', "n_qubits"),
        ('{"n_qubits": 0, "matrix": []}', "positive integer"),
        ('{"n_qubits": 1, "matrix": [[[1,0],[0,0]]]}', "2 rows"),
        ('{"n_qubits": 1, "matrix": [[[1,0]],[[0,0],[0,0]]]}', "row 0"),
        ('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],[0]]]}', r"matrix\[1\]\[1\]"),
        ('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],[0,"x"]]]}', r"matrix\[1\]\[1\]"),
        ('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],[0,NaN]]]}', "non-finite"),
        *[pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[0,%s]],[[0,0],[0,0]]]}' % junk,
                       r"^matrix\[0\]\[1\] must be a \[re, im\] pair", id=f"component-{junk}")
          for junk in ("true", "null", '"0.5"', "{}")],
        pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0,0],[0,0]]]}',
                     r"^matrix\[1\]\[0\] must be a \[re, im\] pair", id="3-element-pair"),
        pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],0.5]]}',
                     r"^matrix\[1\]\[1\] must be a \[re, im\] pair", id="bare-number"),
        pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[1e999,0]],[[0,0],[0,0]]]}',
                     r"^matrix\[0\]\[1\] has a non-finite component: \[inf, 0",
                     id="1e999"),
        pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,-Infinity],[0,0]]]}',
                     r"^matrix\[1\]\[0\] has a non-finite component: \[0.0, -inf\]",
                     id="-Infinity"),
        pytest.param('{"n_qubits": 1, "matrix": [[[1,0],[0,"x"]],[[0,0]]]}',
                     r"^matrix\[0\]\[1\]", id="entry-defect-before-short-row"),
        pytest.param(
            '{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],[1%s,0]]]}' % ("0" * 400),
            r"matrix\[1\]\[1\]", id="integer-beyond-float-range",
        ),
        pytest.param('{"n_qubits": 13, "matrix": []}', "n_qubits 13 exceeds", id="13-qubits"),
        pytest.param('{"n_qubits": 100000, "matrix": []}', "n_qubits 100000 exceeds",
                     id="100000-qubits"),
        pytest.param(
            '{"n_qubits": 1, "matrix": [[[1,0],[0,0]],[[0,0],[1%s,0]]]}' % ("0" * 5000),
            r"matrix\[1\]\[1\]", id="5001-digit-entry",
        ),
        pytest.param('{"n_qubits": 1%s, "matrix": []}' % ("0" * 5000), "n_qubits",
                     id="5001-digit-n_qubits"),
        pytest.param('{"n_qubits": 1, "matrix": %s}' % ("[" * 100000 + "]" * 100000),
                     "nested too deeply", id="deep-nesting"),
    ],
)
def test_json_rejects_bad_shapes_with_position(doc, fragment):
    with pytest.raises(DensityMatrixFormatError, match=fragment):
        density_matrix_from_json(doc)


def test_save_and_load(tmp_path):
    rho = mix_white_noise(pure_state("chi4"), 0.25)
    path = tmp_path / "chi4.json"
    lqu.save_density_matrix(rho, path)
    again = lqu.load_density_matrix(path)
    np.testing.assert_array_equal(again.matrix, rho.matrix)


def _json_dumps_layout(rho, indent=None):
    """json.dumps of the dict the benchmark's dense-file workload writes."""
    pairs = np.stack([rho.matrix.real, rho.matrix.imag], -1).tolist()
    return json.dumps({"n_qubits": rho.n_qubits, "matrix": pairs}, indent=indent)


@pytest.mark.parametrize("dump", [
    pytest.param(density_matrix_to_json, id="writer"),
    pytest.param(_json_dumps_layout, id="json-dumps"),
    pytest.param(lambda rho: _json_dumps_layout(rho, indent=1), id="json-dumps-indent-1"),
])
def test_parse_decodes_rows_in_bounded_memory(dump):
    # Every writer layout is walked one row at a time, so the traced peak,
    # the converted rows and the matrix built from them, stays below 1.5x
    # the text.
    state = mix_white_noise(random_pure(8, 3), 0.25)
    text = dump(state)
    tracemalloc.start()
    try:
        rho = density_matrix_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text), (peak, len(text))
    assert rho.matrix.tobytes() == state.matrix.tobytes()


def test_save_streams_rows_in_bounded_memory(tmp_path):
    rho = mix_white_noise(random_pure(8, 3), 0.25)
    path = tmp_path / "q8.json"
    tracemalloc.start()
    try:
        lqu.save_density_matrix(rho, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 2, (peak, size)
    assert path.read_text() == density_matrix_to_json(rho) + "\n"
