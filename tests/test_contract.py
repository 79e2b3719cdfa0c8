"""The CLI's exit-code contract over generated command lines and documents.

Every argv that argparse accepts, and every density-matrix document, must
end in exit code 0, 2 or 3. Exit 0 writes nothing to stderr; 2 and 3 write
exactly one line starting "error: ". A numpy RuntimeWarning counts as a
breach, since it would print on stderr too.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqu import cli
from lqu.states import FAMILY_NAMES

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
    template, document = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{dir}", tmp) for arg in template]
        if document is not None:
            with open(os.path.join(tmp, "state.json"), "w", encoding="utf-8") as fh:
                fh.write(document)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
