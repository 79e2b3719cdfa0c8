"""The CLI's exit-code contract over generated command lines and documents.

Every argv that argparse accepts, and every density-matrix document, must
end in exit code 0, 2 or 3. Exit 0 writes nothing to stderr; 2 and 3 write
exactly one line starting "error: ". A numpy RuntimeWarning counts as a
breach, since it would print on stderr too.

The same documents also check the parser against the per-entry reference
parser in helpers.py.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqu import cli
from lqu.linalg import HERMITICITY_TOL, PSD_TOL, TRACE_TOL
from lqu.states import FAMILY_NAMES, DensityMatrixFormatError, density_matrix_from_json

from helpers import reference_density_matrix

# Stands in for an integer literal json.dumps refuses to write (more than
# 4300 digits); replaced in the serialised text.
BIG = "__5001_digit_integer__"
BIG_LITERAL = "1" + "0" * 5000

QUBITS = [-1, 0, 1, 2, 3, 13, 2**70]  # never 4 to 12: random states that size are slow
FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.25, 1.0, 2.0, 3.5,
          1e9, 1e308, -1e308, -0.5]
SEEDS = st.sampled_from([-1, 0, 7, 2**70]) | st.integers(-(2**40), 2**40)
floats = st.sampled_from(FLOATS) | st.floats()
JUNK = [True, False, "x", None, [], [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]],
        {"re": 1.0}, BIG, 10**400, 2**70, -1, 0, 3, 13, 1.5]
# copied, because mutate() edits the lists it draws in place
junk = st.sampled_from(JUNK).map(copy.deepcopy) | floats


def opt(name, strategy):
    """An optional --name=value argument, in '=' form so '-inf' stays a value."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"--{name}={v}"]))


@st.composite
def sweep_argv(draw):
    return (["sweep", f"--family={draw(st.sampled_from(FAMILY_NAMES))}",
             f"--from={draw(floats)}", f"--to={draw(floats)}",
             f"--steps={draw(st.integers(-1, 4))}", "--out={dir}/out.csv"]
            + draw(opt("qubits", st.sampled_from(QUBITS)))
            + draw(opt("seed", SEEDS)))


@st.composite
def random_argv(draw):
    return (["random", f"--qubits={draw(st.sampled_from(QUBITS))}",
             f"--seed={draw(SEEDS)}", f"--pure-fraction={draw(floats)}"]
            + draw(st.sampled_from([[], ["--dump={dir}/dump.json"]])))


def mutate(draw, doc):
    """Apply one random corruption to a document in place, or replace it."""
    kind = draw(st.sampled_from(["n_qubits", "entry", "component", "rows", "row",
                                 "matrix", "key", "top"]))
    rows = doc["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) and r
                                                         for r in rows):
        kind = "n_qubits"
    if kind == "n_qubits":
        doc["n_qubits"] = draw(junk)
    elif kind == "entry":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(junk)
    elif kind == "component":
        i = draw(st.integers(0, len(rows) - 1))
        entry = rows[i][draw(st.integers(0, len(rows[i]) - 1))]
        if isinstance(entry, list) and len(entry) == 2:
            entry[draw(st.integers(0, 1))] = draw(junk)
    elif kind == "rows":
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif kind == "row":
        rows[draw(st.integers(0, len(rows) - 1))].append([0.0, 0.0])
    elif kind == "matrix":
        doc["matrix"] = draw(junk)
    elif kind == "key":
        del doc[draw(st.sampled_from(["n_qubits", "matrix"]))]
    else:
        return [doc]
    return doc


@st.composite
def documents(draw):
    n = draw(st.integers(1, 2))
    d = 2**n
    doc = {"n_qubits": n,
           "matrix": [[[1.0 / d if i == j else 0.0, 0.0] for j in range(d)]
                      for i in range(d)]}
    for _ in range(draw(st.integers(0, 2))):
        if not isinstance(doc, dict) or "matrix" not in doc or "n_qubits" not in doc:
            break
        doc = mutate(draw, doc)
    return json.dumps(doc).replace(json.dumps(BIG), BIG_LITERAL)


cases = st.one_of(
    st.tuples(sweep_argv(), st.none()),
    st.tuples(random_argv(), st.none()),
    st.tuples(st.just(["compute", "{dir}/state.json"]), documents()),
)


def run_case(case):
    """Exit code and stderr lines of one (argv template, document) case."""
    template, document = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{dir}", tmp) for arg in template]
        if document is not None:
            with open(os.path.join(tmp, "state.json"), "w", encoding="utf-8") as fh:
                fh.write(document)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue().splitlines()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=cases)
@example(case=(["compute", "{dir}/state.json"],
               '{"n_qubits": 1, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}'))
@example(case=(["compute", "{dir}/state.json"],
               '{"n_qubits": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [%s, 0]]]}'
               % BIG_LITERAL))
@example(case=(["sweep", "--family=kay", "--from=2", "--to=1e308", "--steps=3",
                "--out={dir}/out.csv"], None))
def test_every_input_exits_0_2_or_3_with_at_most_one_line(case):
    code, lines = run_case(case)
    assert code in (0, 2, 3)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# eigenvalues of the diagonal N = 2 state each route starts from: rank 4
# (the dense route keeps S) and rank 1 (the support route keeps a factor)
DIAGONALS = {"dense": [0.4, 0.3, 0.2, 0.1], "support": [1.0, 0.0, 0.0, 0.0]}


def within_half_a_tolerance(route, kind):
    """The route's diagonal state with one invariant broken by half its
    tolerance: a skew entry, a scaled trace, or its last eigenvalue moved to
    -e. A diagonal state is classical on each qubit, so a qubit's largest
    correlation is Tr S^2; on the support route the PSD case leaves qubit 0
    as diag(1 + e, -e), pure but for the negative eigenvalue."""
    p = np.array(DIAGONALS[route])
    if kind == "PsdViolation":
        e = 0.5 * PSD_TOL
        p[0] += p[-1] + e
        p[-1] = -e
    m = np.diag(p).astype(complex)
    if kind == "HermiticityViolation":
        m[0, 1] = 0.5 * HERMITICITY_TOL
    elif kind == "TraceViolation":
        m *= 1 + 0.5 * TRACE_TOL
    return json.dumps({"n_qubits": 2,
                       "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]})


@pytest.mark.parametrize("kind", ["HermiticityViolation", "TraceViolation", "PsdViolation"])
@pytest.mark.parametrize("route", sorted(DIAGONALS))
def test_a_document_within_every_tolerance_computes(route, kind):
    document = within_half_a_tolerance(route, kind)
    root = density_matrix_from_json(document).spectrum.root
    assert (root.shape[1] < root.shape[0]) == (route == "support")
    assert run_case((["compute", "{dir}/state.json"], document)) == (0, [])


@settings(max_examples=300, deadline=None)
@given(document=documents())
@example(document='{"n_qubits": 1, "matrix": [[[1, 0], [0, "x"]], [[0, 0]]]}')
@example(document='{"n_qubits": 1, "matrix": [[[1, 0], [0, 0]], 7]}')
@example(document='{"n_qubits": 1, "matrix": [[[1, 0], [0, 1e999]], [[0, 0], [%s, 0]]]}'
         % BIG_LITERAL)
@example(document='{"n_qubits": 1, "matrix": [[[-0.0, 5e-324], [0, 0]], '
         '[[0, 0], [9007199254740993, 1.7976931348623157e308]]]}')
def test_parser_matches_per_entry_reference(document):
    try:
        expected = reference_density_matrix(document)
    except ValueError as exc:
        with pytest.raises(DensityMatrixFormatError) as got:
            density_matrix_from_json(document)
        assert str(got.value) == str(exc)
    else:
        assert density_matrix_from_json(document).matrix.tobytes() == expected.tobytes()
