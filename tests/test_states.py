import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqu
from lqu.states import (
    GAMMA_MAX,
    PURE_FAMILIES,
    DensityMatrix,
    DensityMatrixFormatError,
    GammaOutOfRange,
    NoiseOutOfRange,
    UnknownFamily,
    build_state,
    density_matrix_from_json,
    density_matrix_to_json,
    kay_state,
    mix_white_noise,
    pure_state,
    random_pure,
    validate,
)

from helpers import reduced_single_qubit

seeds = st.integers(min_value=0, max_value=2**32 - 1)

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


@pytest.mark.parametrize("family", sorted(PURE_FAMILIES))
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


def test_mix_rejects_a_non_finite_amplitude_before_the_outer_product():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            mix_white_noise(np.array([np.inf, 0]), 0.1)


@pytest.mark.parametrize("matrix, where", [
    ([[0.5, math.nan], [math.nan, 0.5]], "[0][1]"),  # validate() used to return []
    ([[math.nan, 0], [0, 1]], "[0][0]"),  # lqu_all used to return Q = 1.0
    ([[0.5, 0], [0, complex(0.5, math.inf)]], "[1][1]"),
])
def test_density_matrix_rejects_non_finite_entries(matrix, where):
    with pytest.raises(ValueError, match=re.escape(f"matrix{where} is not finite")):
        DensityMatrix(1, matrix)


def test_mix_rejects_out_of_range_noise():
    psi = pure_state("ghz3")
    for bad in (-0.1, 1.1):
        with pytest.raises(NoiseOutOfRange):
            mix_white_noise(psi, bad)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(PURE_FAMILIES)),
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


@pytest.mark.parametrize("family", sorted(PURE_FAMILIES))
def test_reduced_single_qubit_states_are_diagonal(family):
    psi = pure_state(family)
    n_qubits = PURE_FAMILIES[family][0]
    proj = np.outer(psi, psi.conj())
    for q in range(n_qubits):
        red = reduced_single_qubit(proj, n_qubits, q)
        assert abs(red[0, 1]) < 1e-14
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


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


def test_parse_decodes_rows_in_bounded_memory():
    # Only one row's lists are alive at a time, so the traced peak is the
    # converted rows and the matrix built from them, about 0.7x the text; a
    # whole-document list tree takes about 3.6x.
    text = density_matrix_to_json(mix_white_noise(random_pure(8, 3), 0.25))
    tracemalloc.start()
    try:
        rho = density_matrix_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text), (peak, len(text))
    assert density_matrix_to_json(rho) == text


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
