"""Fuzz of the CLI's input contract: model files, the expression grammar, and
the point and circuit flags.

Every input, however malformed, must end with exit code 0, 1 or 2 and never
with an exception.  Sizes are bounded so that each example runs quickly.
"""

import contextlib
import io
import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coulombkit.cli import MAX_GENERATOR_DEGREE, MAX_ORDER, main  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
DATA = os.path.join(os.path.dirname(__file__), "data")
TP1 = os.path.join(DATA, "tp1.json")

# the grammar's tokens and their near misses
GRAMMAR = st.text(alphabet="s1 2a3hqQ()+-*^/0,.x", max_size=24)
# --point and --circuit values: indices, supports and their near misses
INDICES = st.text(alphabet="0123459,- x", max_size=8) | st.integers(-3, 5).map(str)
SMALL = st.integers(-3, 3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)
MODELS = st.fixed_dictionaries(
    {"chi": st.lists(st.lists(SMALL, min_size=1, max_size=2), min_size=1, max_size=4),
     "theta": st.lists(SMALL, min_size=1, max_size=2)},
    optional={"blocks": st.lists(st.integers(0, 3), max_size=2) | JSON_VALUES,
              "labels": st.lists(st.text(max_size=3), max_size=4) | JSON_VALUES,
              "a_specialization": st.dictionaries(st.sampled_from(["a1", "a2", "a9", "b1"]),
                                                  GRAMMAR, max_size=2) | JSON_VALUES})


def run_main(argv) -> int:
    """main(argv), with what it prints discarded; an exception fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@st.composite
def descendents(draw, k):
    """One or two terms in a1, h and s1..sk, each exponent in -3..3."""
    names = ["a1", "h"] + ["s%d" % (j + 1) for j in range(k)]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        exps = draw(st.lists(SMALL, min_size=len(names), max_size=len(names)))
        factors = ["%s^%d" % (v, e) for v, e in zip(names, exps) if e] or ["1"]
        terms.append("%d*%s" % (draw(st.integers(1, 3)), "*".join(factors)))
    return " - ".join(terms)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"

    def write(payload) -> str:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)
    return write


@SETTINGS
@given(text=GRAMMAR)
def test_descendent_grammar_keeps_exit_codes(text):
    assert run_main(["vertex", TP1, "--order", "0", "--descendent=" + text]) in (0, 1, 2)


@SETTINGS
@given(text=GRAMMAR, degree=SMALL)
def test_generator_word_keeps_exit_codes(text, degree):
    assert run_main(["mul", TP1, "r[%d] %s" % (degree, text)]) in (0, 1, 2)


@SETTINGS
@given(degrees=st.lists(st.integers(-MAX_GENERATOR_DEGREE - 2, MAX_GENERATOR_DEGREE + 2),
                        min_size=1, max_size=3))
def test_generator_degrees_up_to_the_cap(degrees):
    word = " ".join("r[%d]" % d for d in degrees)
    expected = 2 if any(abs(d) > MAX_GENERATOR_DEGREE for d in degrees) else 0
    assert run_main(["mul", TP1, word]) == expected


@SETTINGS
@given(raw=MODELS | JSON_VALUES)
def test_load_model_keeps_exit_codes(model_file, raw):
    assert run_main(["analyze", model_file(raw)]) in (0, 1, 2)


@SETTINGS
@given(text=st.text(alphabet='{}[]":,-01ab ', max_size=30))
def test_load_model_text_keeps_exit_codes(model_file, text):
    assert run_main(["circuits", model_file(text)]) in (0, 1, 2)


@SETTINGS
@given(model=st.sampled_from(["tp1", "a2"]), point=st.none() | INDICES,
       circuit=INDICES, order=st.integers(0, 1), command=st.sampled_from(["vertex", "qde-check"]))
def test_point_and_circuit_flags_keep_exit_codes(model, point, circuit, order, command):
    argv = [command, os.path.join(DATA, model + ".json"), "--order", str(order)]
    argv += ["--point=" + point] if point is not None else []
    argv += ["--circuit=" + circuit] if command == "qde-check" else []
    assert run_main(argv) in (0, 1, 2)


@settings(SETTINGS, max_examples=40)
@given(model=st.sampled_from([("tp1", 1), ("a2", 2)]), order=st.integers(-2, MAX_ORDER + 2),
       command=st.sampled_from(["vertex", "qde-check"]), data=st.data())
def test_order_and_descendent_exponents_keep_exit_codes(model, order, command, data):
    """Orders on both sides of 0..MAX_ORDER and descendents with negative
    powers end with an exit code and one ``error:`` line, never a traceback."""
    name, k = model
    text = data.draw(descendents(k))
    argv = [command, os.path.join(DATA, name + ".json"), "--order", str(order),
            "--descendent", text] + (["--circuit", "0"] if command == "qde-check" else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == (not 0 <= order <= MAX_ORDER)
    assert err.getvalue() == ("" if code < 2 else "error: --order must be %s, got %d\n"
                              % (">= 0" if order < 0 else "at most %d" % MAX_ORDER, order))
