"""The row-at-a-time density-matrix decoder against the whole-document
reference: json.loads plus the per-entry parser in helpers.py.

Documents both accept must give the same matrix bytes. A document the
reference rejects with a ValueError must raise DensityMatrixFormatError
(exactly that type, so no bare JSONDecodeError) with the same message.
"""

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqu.states import DensityMatrixFormatError, density_matrix_from_json

from helpers import reference_density_matrix


def assert_matches_reference(text):
    try:
        expected = reference_density_matrix(text)
    except ValueError as exc:
        with pytest.raises(DensityMatrixFormatError) as got:
            density_matrix_from_json(text)
        assert type(got.value) is DensityMatrixFormatError
        assert str(got.value) == str(exc)
        return None
    got = density_matrix_from_json(text)
    assert got.matrix.tobytes() == expected.tobytes()
    return got


# Key spellings: plain and with JSON escapes that decode to the same name.
N_QUBITS_KEYS = ['"n_qubits"', '"n\\u005fqubits"', '"\\u006e_qubits"']
MATRIX_KEYS = ['"matrix"', '"m\\u0061trix"', '"\\u006datrix"']
EXTRA_KEYS = ['"x"', '"note"', '"\\u00e9t\\u00e9"', '"a\\"b"', '"Matrix"', '"n_qubit"', '""',
              "5", "null"]  # the last two are not strings
EXTRA_VALUES = [0, -1.5, 1e308, True, None, "text", "tab\there \\ \"quoted\"", [],
                [1, [2, [3]]], {"matrix": [[1, 0]], "n_qubits": 9}, {}]
# Components that make an entry invalid, and entries of the wrong shape.
BAD_COMPONENTS = [float("nan"), float("inf"), 10**400, True, None, "0.5"]
BAD_ENTRIES = [[0.5], [0, 0, 0], 0.5, "x", None, {}]
JSON_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)
OTHER_WHITESPACE = ["\x0b", "\x0c", "\u00a0", "\u2028"]  # str.isspace, but not JSON


def tokens(value):
    """The JSON tokens of a value; objects appear only as extra values."""
    if isinstance(value, list):
        out = ["["]
        for k, item in enumerate(value):
            out += [","] if k else []
            out += tokens(item)
        return out + ["]"]
    return [json.dumps(value)]


@st.composite
def matrices(draw, d):
    """A d x d matrix of valid [re, im] pairs, with at most one defect."""
    numbers = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)
               | st.sampled_from([-0.0, 5e-324, 2**53 + 1, 2**70]))
    rows = [[[draw(numbers), draw(numbers)] for _ in range(d)] for _ in range(d)]
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    change = draw(st.sampled_from(["none"] * 6 + ["component", "entry", "drop row",
                                                  "drop column", "add entry", "row"]))
    if change == "component":
        rows[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_COMPONENTS))
    elif change == "entry":
        rows[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    elif change == "drop row":
        del rows[i]
    elif change == "drop column":
        for row in rows:
            del row[j]
    elif change == "add entry":
        rows[i].append([0, 0])
    elif change == "row":
        rows[i] = draw(st.sampled_from([7, "row", None, []]))
    return rows


@st.composite
def documents(draw):
    n = draw(st.integers(1, 2))
    n_value = n if draw(st.integers(0, 9)) else draw(st.sampled_from(
        [0, 3 - n, 3, 13, 2**70, 1.0, True, "1"]))
    members = [(draw(st.sampled_from(N_QUBITS_KEYS)), tokens(n_value)),
               (draw(st.sampled_from(MATRIX_KEYS)), tokens(draw(matrices(2**n))))]
    for _ in range(draw(st.integers(0, 2))):
        members.append((draw(st.sampled_from(EXTRA_KEYS)),
                        [json.dumps(draw(st.sampled_from(EXTRA_VALUES)))]))
    if draw(st.integers(0, 4)) == 0:  # a duplicate key: the last one wins
        key = draw(st.sampled_from(N_QUBITS_KEYS + MATRIX_KEYS))
        value = draw(st.sampled_from([n, 1, 2, [[[1, 0]]], "x"]))
        members.insert(draw(st.integers(0, len(members))), (key, tokens(value)))
    members = draw(st.permutations(members))
    toks = ["{"]
    for k, (key, value) in enumerate(members):
        toks += ([","] if k else []) + [key, ":"] + value
    toks.append("}")
    gaps = [draw(JSON_WHITESPACE) for _ in range(len(toks) + 1)]
    if draw(st.integers(0, 9)) == 0:  # one gap holds a character JSON rejects
        gaps[draw(st.integers(0, len(toks)))] += draw(st.sampled_from(OTHER_WHITESPACE))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(toks, gaps[1:]))


@settings(max_examples=400, deadline=None)
@given(text=documents())
@example(text='{"n_qubits": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
@example(text='{"n_qubits": 1,"n_qubits": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
def test_decoder_matches_whole_document_reference(text):
    assert_matches_reference(text)


@st.composite
def writer_layouts(draw):
    """{"n_qubits": N, "matrix": [...]}, the two plain keys in the writers'
    order, so most draws are walked row by row; the matrix may carry one
    defect and any gap may hold whitespace JSON rejects."""
    n = draw(st.integers(1, 2))
    toks = (["{", '"n_qubits"', ":"] + tokens(n) + [",", '"matrix"', ":"]
            + tokens(draw(matrices(2**n))) + ["}"])
    gaps = [draw(JSON_WHITESPACE) for _ in range(len(toks) + 1)]
    if draw(st.integers(0, 9)) == 0:
        gaps[draw(st.integers(0, len(toks)))] += draw(st.sampled_from(OTHER_WHITESPACE))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(toks, gaps[1:]))


@settings(max_examples=400, deadline=None)
@given(text=writer_layouts())
def test_writer_layout_matches_whole_document_reference(text):
    assert_matches_reference(text)


MATRIX = "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"
VALID = '{"n_qubits": 1, "matrix": %s}' % MATRIX


@pytest.mark.parametrize("text, fragment", [
    pytest.param('{"n_qubits": 1, "matrix": %s, "note": "abc}' % MATRIX,
                 "Unterminated string", id="unterminated-string-in-extra-key"),
    pytest.param('{"n_qubits": 1, "matrix": %s, "no\\qte": 1}' % MATRIX,
                 "Invalid \\\\escape", id="invalid-escape-in-extra-key"),
    pytest.param('{"n_qubits": 1, "matrix": %s,}' % MATRIX,
                 "Expecting property name", id="trailing-comma"),
    pytest.param("{}", "missing required key", id="empty-object"),
    pytest.param("\ufeff" + VALID, "BOM", id="leading-bom"),
    pytest.param('{"n_qubits": 1, "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
                 r"matrix\[0\]\[0\] has a non-finite component", id="nan-entry"),
    pytest.param('{"x": %s, "n_qubits": 1, "matrix": %s}'
                 % ("[" * sys.getrecursionlimit() + "]" * sys.getrecursionlimit(), MATRIX),
                 "nested too deeply", id="extra-key-nested-past-the-recursion-limit"),
    pytest.param(VALID + " x", "Extra data", id="text-after-the-object"),
    pytest.param('{"n_qubits": 1, "matrix": %s, 5: 0}' % MATRIX,
                 "Expecting property name", id="non-string-key"),
    pytest.param('{"matrix": [[[1, 0]], [[0, 0]]], "n_qubits": 1}',
                 "matrix row 0 must have 2 entries, got 1",
                 id="matrix-before-n_qubits-with-short-rows"),
])
def test_decoder_rejects_like_the_reference(text, fragment):
    assert assert_matches_reference(text) is None
    with pytest.raises(DensityMatrixFormatError, match=fragment):
        density_matrix_from_json(text)


@pytest.mark.parametrize("text", [
    pytest.param('{"n_qubits": 1, "m\\u0061trix": %s}' % MATRIX, id="escaped-matrix-key"),
    pytest.param('{"matrix": %s, "n_qubits": 1}' % MATRIX, id="matrix-before-n_qubits"),
    pytest.param('{"matrix": 7, "n_qubits": 1, "matrix": %s}' % MATRIX,
                 id="duplicate-matrix-key-last-wins"),
    pytest.param(' \t\r\n{ "n_qubits" :1 ,"matrix":\n%s\n}\n' % MATRIX.replace(" ", "\t"),
                 id="whitespace-runs"),
    pytest.param('{"x": %s, "n_qubits": 1, "matrix": %s}' % ("[" * 100 + "]" * 100, MATRIX),
                 id="extra-key-nested-100-deep"),
])
def test_decoder_accepts_like_the_reference(text):
    got = assert_matches_reference(text)
    assert got.matrix.tobytes() == density_matrix_from_json(VALID).matrix.tobytes()
