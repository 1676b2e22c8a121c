"""Model ingestion, expression grammar, dispatch, determinism, exit codes."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from coulombkit import Poly, Scalar, VariableTable
from coulombkit.cli import (ExprError, build_parser, dispatch, load_model,
                            parse_descendent, parse_generator_word,
                            parse_scalar_expr)
from coulombkit.exactring import scalar_from_structured
from coulombkit.hypertoric import ModelError

from conftest import weyl_image

DATA = os.path.join(os.path.dirname(__file__), "data")


def model_path(name):
    return os.path.join(DATA, name + ".json")


def run_cli(argv):
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    code = dispatch(args, out=out)
    return code, out.getvalue()


# -- model loading ------------------------------------------------------------

def test_load_a2():
    data = load_model(model_path("a2"))
    assert data.n == 3 and data.k == 2
    from coulombkit import circuits, fixed_points
    assert len(circuits(data)) == 3
    assert len(fixed_points(data)) == 3


def test_load_tgr24():
    data = load_model(model_path("tgr24"))
    assert data.blocks == (2,)
    assert len(data.a_specialization) == 8


def test_each_distinct_flavor_image_is_parsed_once(monkeypatch):
    """tgr(2,4) sends a1..a8 to 4 distinct images; rows that share one share its tuple."""
    import coulombkit.cli
    calls = []
    original = coulombkit.cli._parse_monomial_image
    monkeypatch.setattr(coulombkit.cli, "_parse_monomial_image",
                        lambda name, text, table: calls.append(name) or original(name, text, table))
    data = load_model(model_path("tgr24"))
    assert calls == ["a1", "a2", "a3", "a4"]
    table = data.table
    assert data.a_specialization == {i: table.mono({table.a(i % 4): -1}) for i in range(8)}
    assert all(data.a_specialization[i + 4] is data.a_specialization[i] for i in range(4))


@pytest.mark.parametrize("images, message", [
    ({"a2": "s1", "a3": "h", "a1": "s1"},
     "a_specialization 'a2': the image 's1' names a gauge variable; an image is a monomial "
     "in the a_i and h"),
    ({"a3": "h", "a2": "a1+1", "a1": "a1+1"},
     "a_specialization 'a2': expected a monomial in the image 'a1+1'"),
])
def test_a_refused_image_is_named_by_its_first_key(tmp_path, capsys, images, message):
    """An image that several keys carry is refused under the first of them, in file order."""
    from coulombkit.cli import main
    path = tmp_path / "aspec.json"
    path.write_text(json.dumps({"chi": [[1], [1], [1]], "theta": [1],
                                "a_specialization": images}))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_load_rejections():
    with pytest.raises(ModelError, match="chi_2 is zero"):
        load_model(model_path("bad_zero_row"))
    with pytest.raises(ModelError, match="wall"):
        load_model(model_path("bad_wall"))
    with pytest.raises(ModelError, match="non-unimodular"):
        load_model(model_path("bad_nonunimodular"))


# -- descendent grammar --------------------------------------------------------

TABLE = VariableTable(3, 2)


def test_parse_descendent_basic():
    one = parse_descendent("1", TABLE)
    assert one.poly == Poly.one(TABLE.width)
    two_terms = parse_descendent("s1*s2 - h*a1^-1", TABLE)
    expected = Poly.from_terms(TABLE.width, [
        (TABLE.mono({TABLE.s(0): 1, TABLE.s(1): 1}), 1),
        (TABLE.mono({1: 2, TABLE.a(0): -1}), -1)])
    assert two_terms.poly == expected


def test_parse_descendent_half_power_and_rationals():
    p = parse_descendent("2/3*h^(1/2)*s1 + (-1)*a2", TABLE)
    from fractions import Fraction
    expected = Poly.from_terms(TABLE.width, [
        (TABLE.mono({1: 1, TABLE.s(0): 1}), Fraction(2, 3)),
        (TABLE.mono({TABLE.a(1): 1}), -1)])
    assert p.poly == expected


def test_parse_descendent_rejects_division():
    with pytest.raises(ExprError, match="division not allowed"):
        parse_descendent("s1/(1-s2)", TABLE)
    with pytest.raises(ExprError, match="division not allowed"):
        parse_descendent("(1+s1)^-1", TABLE)
    with pytest.raises(ExprError):
        parse_descendent("q*s1", TABLE)
    with pytest.raises(ExprError, match="unknown variable"):
        parse_descendent("b1", TABLE)
    with pytest.raises(ExprError, match="position"):
        parse_descendent("s1 + + s2", TABLE)


def test_parenthesized_power_of_a_power_multiplies_the_exponents():
    assert parse_descendent("(a1^2)^3", TABLE).poly == Poly.monomial(TABLE.mono({TABLE.a(0): 6}))
    assert parse_descendent("(h^(1/2))^3", TABLE).poly == Poly.monomial(TABLE.mono({1: 3}))


def test_parse_scalar_expr_allows_q():
    p = parse_scalar_expr("q^(1/2)*s1^-2", TABLE)
    assert p == Poly.monomial(TABLE.mono({0: 1, TABLE.s(0): -2}))


def test_generator_word(tp1_alg):
    e1 = parse_generator_word("r[1] r[-1]", tp1_alg)
    assert e1 == tp1_alg.mul(tp1_alg.r((1,)), tp1_alg.r((-1,)))
    e2 = parse_generator_word("2*s1 R[1]", tp1_alg)
    expected = tp1_alg.mul(
        tp1_alg.cartan(Scalar.monomial(tp1_alg.table.mono({tp1_alg.table.s(0): 1}), 2)),
        tp1_alg.mixed_generator((1,)))
    assert e2 == expected
    with pytest.raises(ExprError, match="length"):
        parse_generator_word("r[1,0]", tp1_alg)


# -- commands -------------------------------------------------------------------

def test_analyze_and_circuits():
    code, text = run_cli(["analyze", model_path("a2")])
    assert code == 0
    assert "rho[0] = (0,1)" in text
    assert "p{1,2}" in text
    code, text = run_cli(["circuits", model_path("a2"), "--json"])
    assert code == 0
    assert json.loads(text) == [
        {"vector": [0, 1], "wall_rows": [1]},
        {"vector": [1, -1], "wall_rows": [3]},
        {"vector": [1, 0], "wall_rows": [2]},
    ]


def test_fixed_points_command():
    code, text = run_cli(["fixed-points", model_path("tp1"), "--json"])
    assert code == 0
    pts = json.loads(text)
    assert [p["support"] for p in pts] == [[1], [2]]
    assert pts[0]["restriction"]["s1"] == "a1^-1"


def test_vertex_command_deterministic():
    code1, text1 = run_cli(["vertex", model_path("tp1"), "--order", "2"])
    code2, text2 = run_cli(["vertex", model_path("tp1"), "--order", "2"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1.startswith("order 2")
    code, payload = run_cli(["vertex", model_path("tp1"), "--order", "2", "--json"])
    data = json.loads(payload)
    assert [c["degree"] for c in data["coefficients"]] == [[0], [1], [2]]
    table = VariableTable(2, 1)
    back = scalar_from_structured(table.width, data["coefficients"][0]["value"])
    assert back == Scalar.one(table.width)


def test_vertex_with_descendent_and_point():
    code, text = run_cli(["vertex", model_path("a2"), "--order", "1",
                          "--point", "1,3", "--descendent", "s1*s2"])
    assert code == 0
    assert "Q^(0,0)" in text


def test_point_with_a_trailing_comma_is_a_one_element_support():
    """On tp1, ``--point 1`` is index 1, the point p{2}; ``--point 1,`` is
    the support {1}, the point p{1}."""
    tp1 = model_path("tp1")
    for index, support in (("0", "1,"), ("1", "2,")):
        for command in (["vertex", tp1, "--order", "2"], ["whittaker", tp1, "--order", "1"]):
            want = run_cli(command + ["--point", index])
            assert want[0] == 0 and run_cli(command + ["--point", support]) == want
    code, payload = run_cli(["qde-check", tp1, "--circuit", "0", "--order", "1", "--json",
                             "--point", "2,"])
    assert code == 0 and json.loads(payload) == [{"circuit": [1], "point": "p{2}", "passed": True}]
    assert run_cli(["vertex", tp1, "--point", "1"]) != run_cli(["vertex", tp1, "--point", "1,"])
    for bad in (",", "1,,", ",1"):
        with pytest.raises(ModelError, match="^bad --point %s$" % re.escape(repr(bad))):
            run_cli(["vertex", tp1, "--point", bad])
    with pytest.raises(ModelError, match=r"^no fixed point with support \{3\}$"):
        run_cli(["vertex", tp1, "--point", "3,"])


def test_whittaker_command():
    code, text = run_cli(["whittaker", model_path("tp1"), "--order", "2"])
    assert code == 0
    assert "[0]: 1" in text
    assert "Q1^(1/2)" in text


def test_qde_command_exit_codes():
    code, text = run_cli(["qde-check", model_path("tp1"), "--circuit", "0",
                          "--order", "3"])
    assert code == 0
    assert text.count("PASS") == 2
    # decorated series fails the bare annihilator: exit 1
    code, text = run_cli(["qde-check", model_path("tp1"), "--circuit", "0",
                          "--order", "2", "--descendent", "s1"])
    assert code == 1
    assert "FAIL" in text


def test_qde_command_json():
    """--json prints one object per point, with the text mode's exit codes."""
    code, payload = run_cli(["qde-check", model_path("tp1"), "--circuit", "0",
                             "--order", "2", "--json"])
    assert code == 0
    assert json.loads(payload) == [{"circuit": [1], "point": "p{1}", "passed": True},
                                   {"circuit": [1], "point": "p{2}", "passed": True}]
    code, payload = run_cli(["qde-check", model_path("tp1"), "--circuit", "0", "--point", "0",
                             "--order", "2", "--descendent", "s1", "--json"])
    assert code == 1
    assert json.loads(payload) == [{"circuit": [1], "point": "p{1}", "passed": False}]
    code, payload = run_cli(["qde-check", model_path("a2"), "--circuit", "1",
                             "--order", "1", "--json"])
    points = json.loads(payload)
    assert code == 0 and len(points) == 3 and all(p["passed"] for p in points)


def test_bethe_command_golden():
    code, text = run_cli(["bethe", model_path("tgr24"), "--q1"])
    assert code == 0
    with open(os.path.join(DATA, "bethe_tgr24_golden.txt")) as fh:
        assert text == fh.read()
    code, payload = run_cli(["bethe", model_path("tp1"), "--q1", "--json"])
    assert code == 0
    assert json.loads(payload)[0]["circuit"] == [1]


GOLDEN = [
    ("vertex_tp1_order3.txt", ["vertex", "tp1", "--order", "3"]),
    ("vertex_a2_order2_descendent.txt",
     ["vertex", "a2", "--order", "2", "--descendent", "a1*s1-h"]),
    ("vertex_a2_order2_descendent.json",
     ["vertex", "a2", "--order", "2", "--descendent", "a1*s1-h", "--json"]),
    ("vertex_tgr24_order1.txt", ["vertex", "tgr24", "--order", "1"]),
    # the Weyl-collapse sums of both lifts' abelian degrees
    ("vertex_tgr24_order2.txt", ["vertex", "tgr24", "--order", "2"]),
    # p = 2 roots from h, binomials with a negative lead, and d = 2 keys
    # regrouped into binomials for printing
    ("vertex_a2_order4.txt", ["vertex", "a2", "--order", "4"]),
    ("vertex_a2_order4.json", ["vertex", "a2", "--order", "4", "--json"]),
    ("whittaker_a2_order2.txt", ["whittaker", "a2", "--order", "2"]),
    # the virtual model's Whittaker vector, keyed by abelian degree
    ("whittaker_tgr24_order1.txt", ["whittaker", "tgr24", "--order", "1"]),
    ("mul_a2.txt", ["mul", "a2", "r[1,0]r[-1,1]r[0,-1]"]),
    ("mul_a2.json", ["mul", "a2", "r[1,0]r[-1,1]r[0,-1]", "--json"]),
    # scalar chunks between generators, each multiplied in where it stands
    ("mul_a2_scalar_chunks.txt", ["mul", "a2", "r[1,0](1+s1)r[-1,1]2/3*s2r[0,-1]"]),
    # structure constants and mixed coefficients with virtual rows
    ("mul_tgr24.json", ["mul", "tgr24", "r[1,0] R[0,1] r[-1,1]", "--json"]),
    ("qde_check_a2_circuit0_order2.txt", ["qde-check", "a2", "--circuit", "0", "--order", "2"]),
    # a negative power of a coefficient-1 monomial, and rational literals
    ("vertex_tp1_order1_negative_power.txt",
     ["vertex", "tp1", "--order", "1", "--descendent", "(a1*s1)^-2"]),
    ("vertex_tp1_order2_rational.json",
     ["vertex", "tp1", "--order", "2", "--descendent", "1/2*a1*s1-3/2*h", "--json"]),
    # the combinatorics read off the cofactors of the row subsets
    ("fixed_points_a2.txt", ["fixed-points", "a2"]),
    ("fixed_points_tgr24.txt", ["fixed-points", "tgr24"]),
    ("circuits_a2.txt", ["circuits", "a2"]),
    ("circuits_tgr24.txt", ["circuits", "tgr24"]),
    ("analyze_a2.json", ["analyze", "a2", "--json"]),
    ("analyze_tgr24.json", ["analyze", "tgr24", "--json"]),
    # the difference relations of a block model under its flavor specialization
    ("bethe_tgr24.txt", ["bethe", "tgr24"]),
    # T*Fl(3), blocks GL(1) x GL(2): 12 lifts, one series per Weyl orbit
    ("fixed_points_fl3.txt", ["fixed-points", "fl3"]),
    ("vertex_fl3_point157_order2.txt", ["vertex", "fl3", "--point", "1,5,7", "--order", "2"]),
    ("bethe_fl3.txt", ["bethe", "fl3"]),
    # the text and JSON forms no other golden file pins
    ("analyze_tgr24.txt", ["analyze", "tgr24"]),
    ("wallcross_a2.txt", ["wallcross", "a2", "--theta2", "1,2"]),
    ("wallcross_a2.json", ["wallcross", "a2", "--theta2", "1,2", "--json"]),
    ("qde_check_tgr24_circuit0_order1.json",
     ["qde-check", "tgr24", "--circuit", "0", "--order", "1", "--json"]),
    ("fixed_points_fl3.json", ["fixed-points", "fl3", "--json"]),
    ("bethe_tgr24.json", ["bethe", "tgr24", "--json"]),
    ("whittaker_a2_order2.json", ["whittaker", "a2", "--order", "2", "--json"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_stdout_matches_golden_file(name, argv):
    code, text = run_cli([argv[0], model_path(argv[1])] + argv[2:])
    assert code == 0
    with open(os.path.join(DATA, "golden", name), encoding="utf-8", newline="") as fh:
        assert text == fh.read()


@pytest.mark.parametrize("argv", [
    ["vertex", "a2", "--order", "1"],
    ["vertex", "a2", "--order", "1", "--point", "1,3"],
    ["vertex", "tgr24", "--order", "0", "--point", "1,6"],
    ["whittaker", "a2", "--order", "1"],
    ["whittaker", "a2", "--order", "1", "--point", "1"],
    ["qde-check", "a2", "--circuit", "0", "--order", "1"],
    ["qde-check", "a2", "--circuit", "0", "--order", "1", "--point", "0"],
])
def test_fixed_points_computed_once_per_command(argv, monkeypatch):
    import coulombkit.cli
    calls = []
    original = coulombkit.cli.fixed_points
    monkeypatch.setattr(coulombkit.cli, "fixed_points",
                        lambda data: calls.append(data) or original(data))
    code, _ = run_cli([argv[0], model_path(argv[1])] + argv[2:])
    assert code == 0
    assert len(calls) == 1


# -- one process, many commands -------------------------------------------------

def test_one_process_runs_the_golden_commands_forward_and_back(capsys):
    """Commands that share the process's parser print what they print alone:
    every golden command, forward and then in reverse, each followed by a
    usage error and an expression error whose stderr never changes."""
    from coulombkit.cli import main
    first_err = {}
    for name, argv in GOLDEN + GOLDEN[::-1]:
        assert main([argv[0], model_path(argv[1])] + argv[2:]) == 0
        with open(os.path.join(DATA, "golden", name), encoding="utf-8", newline="") as fh:
            assert capsys.readouterr() == (fh.read(), "")
        for bad in (["vertex", "--order"],
                    ["vertex", model_path("tp1"), "--descendent=s1/2"]):
            assert main(bad) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert first_err.setdefault(bad[-1], err) == err
    assert first_err["--order"].endswith(
        "coulombkit vertex: error: argument --order: expected one argument\n")
    assert first_err["--descendent=s1/2"] == "error: division not allowed in descendents\n"


COMMANDS = ["analyze", "circuits", "fixed-points", "vertex", "whittaker", "qde-check",
            "bethe", "mul", "wallcross"]


@pytest.mark.parametrize("columns", ["80", "43"])
def test_the_shared_parser_prints_the_help_of_a_fresh_one(monkeypatch, capsys, columns):
    from coulombkit.cli import main
    monkeypatch.setenv("COLUMNS", columns)
    assert build_parser() is build_parser()
    for argv in [["--help"]] + [[c, "--help"] for c in COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            build_parser.__wrapped__().parse_args(argv)
        assert exc.value.code == 0
        fresh = capsys.readouterr().out
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr() == (fresh, "")


def test_commands_after_the_first_build_no_parser(monkeypatch, capsys):
    """Counted, not timed: the parser is built once per process."""
    import argparse
    from coulombkit.cli import main
    argvs = [["circuits", model_path("tp1")], ["fixed-points", model_path("a2")],
             ["vertex", "--order"], ["vertex", model_path("tp1"), "--descendent=s1/2"]]
    main(argvs[0])
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    for i in range(19):
        main(argvs[i % len(argvs)])
    assert built == []


def test_mul_command():
    code, text = run_cli(["mul", model_path("tp1"), "r[1] r[-1]"])
    assert code == 0
    assert "r[0]" in text
    code, payload = run_cli(["mul", model_path("tp1"), "r[1] r[-1]", "--json"])
    entries = json.loads(payload)
    assert [e["degree"] for e in entries] == [[0]]


def test_wallcross_command():
    code, text = run_cli(["wallcross", model_path("a2"), "--theta2", "1,2"])
    assert code == 0
    assert "reversing circuit (1,-1): PASS" in text
    assert text.count("PASS") == 3


def test_main_error_exit_code(tmp_path):
    from coulombkit.cli import main
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["circuits", str(bad)]) == 2
    assert main(["circuits", str(tmp_path / "missing.json")]) == 2
    assert main(["circuits", str(tmp_path)]) == 2
    assert main(["circuits", model_path("bad_wall")]) == 2


@pytest.mark.parametrize("raw, message", [
    ('{"chi": [1, 2], "theta": [1]}', "'chi' must be a list of integer lists"),
    ('{"chi": "x", "theta": [1]}', "'chi' must be a list of integer lists"),
    ('{"chi": [[1], [1]], "theta": "1"}', "'theta' must be a list of integers"),
    ('{"chi": [[1], [1]], "theta": [1], "blocks": "x"}',
     "'blocks' must be a list of positive integers"),
    ('{"chi": [[1], [1]], "theta": [1], "blocks": [0, 1]}',
     "'blocks' must be a list of positive integers"),
    ('{"chi": [[1], [1]], "theta": [1], "labels": 5}', "'labels' must be a list of strings"),
    ('{"chi": [[1], [1]], "theta": [1], "a_specialization": [1]}',
     "'a_specialization' must be a JSON object of strings"),
    ('{"chi": [[1], [1]], "theta": [1], "a_specialization": {"a1": 5}}',
     "'a_specialization' must be a JSON object of strings"),
    ('{"chi": [], "theta": []}', "theta is empty: the gauge torus has rank 0"),
])
def test_main_rejects_malformed_model(tmp_path, capsys, raw, message):
    from coulombkit.cli import main
    bad = tmp_path / "bad.json"
    bad.write_text(raw)
    with pytest.raises(ModelError, match=message):
        load_model(str(bad))
    assert main(["circuits", str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("key", ["a" + "1" * 5000, "b" * 5000], ids=["digits", "letters"])
def test_long_a_specialization_key_exits_2(tmp_path, capsys, key):
    """A refused key is quoted by its first 40 characters, and its digits
    are counted before any is converted."""
    from coulombkit.cli import main
    path = tmp_path / "aspec.json"
    path.write_text(json.dumps({"chi": [[1], [1]], "theta": [1], "a_specialization": {key: "a2"}}))
    assert main(["circuits", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: a_specialization key '%s...' is not a flavor variable\n" % key[:40]


@pytest.mark.parametrize("keys, message", [
    (["a1", "a01"], "a_specialization keys 'a1' and 'a01' both name a1"),
    (["a002", "a2"], "a_specialization keys 'a002' and 'a2' both name a2"),
    (["a" + "0" * 50 + "1", "a1"],
     "a_specialization keys '%s...' and 'a1' both name a1" % ("a" + "0" * 39)),
])
def test_two_a_specialization_keys_of_one_row_exit_2(tmp_path, capsys, keys, message):
    """Two keys that name one flavor variable are refused, naming both,
    rather than the later one winning."""
    from coulombkit.cli import main
    path = tmp_path / "aspec.json"
    path.write_text(json.dumps({"chi": [[1], [1]], "theta": [1],
                                "a_specialization": dict(zip(keys, ["a2", "h"]))}))
    with pytest.raises(ModelError, match="both name"):
        load_model(str(path))
    for command in ("analyze", "circuits"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_main_writes_to_the_current_stdout(capsys):
    from coulombkit.cli import main
    assert main(["circuits", model_path("tp1")]) == 0
    assert capsys.readouterr().out == run_cli(["circuits", model_path("tp1")])[1]


def _aspec_model(tmp_path, expr):
    path = tmp_path / "aspec.json"
    path.write_text(json.dumps({"chi": [[1], [1]], "theta": [1],
                                "a_specialization": {"a1": expr}}))
    return str(path)


DEEP_PARENS = "(" * 3000 + "s1" + ")" * 3000
DEEP_MINUS = "-" * 3000 + "s1"
LONG_INT = "1" * 4400
MAX_INT = "9" * 4300


@pytest.mark.parametrize("argv, message", [
    (["vertex", "tp1", "--descendent=" + DEEP_PARENS], "nesting deeper than 100 at position 101"),
    (["vertex", "tp1", "--descendent=" + DEEP_MINUS], "nesting deeper than 100 at position 101"),
    (["mul", "tp1", "r[1] " + DEEP_PARENS], "nesting deeper than 100 at position 101"),
    (["mul", "tp1", "r[1] " + DEEP_MINUS], "nesting deeper than 100 at position 101"),
    # a flavor image too deep to parse is refused by its key
    # and quotes at most its first 40 characters
    (["circuits", DEEP_PARENS], "a_specialization 'a1': nesting deeper than 100 at position 101 "
                                "in the image '%s...'" % ("(" * 40)),
    (["circuits", DEEP_MINUS], "a_specialization 'a1': nesting deeper than 100 at position 101 "
                               "in the image '%s...'" % ("-" * 40)),
    (["vertex", "tp1", "--descendent=" + LONG_INT],
     "integer at position 0 has more than 4300 digits"),
    (["vertex", "tp1", "--descendent=s1^" + LONG_INT],
     "integer at position 3 has more than 4300 digits"),
    (["vertex", "tp1", "--descendent=2^100000"],
     "power 100000 of a coefficient exceeds the limit 32"),
    (["vertex", "tp1", "--descendent=(3*s1)^33"], "power 33 of a coefficient exceeds the limit 32"),
    (["vertex", "tp1", "--descendent=(s1^9)^" + MAX_INT],
     "a number in the expression has more than 2150 digits"),
    (["vertex", "tp1", "--descendent=s1^" + MAX_INT],
     "a number in the expression has more than 2150 digits"),
    (["vertex", "tp1", "--descendent=%s*%s" % (MAX_INT, MAX_INT)],
     "a number in the expression has more than 2150 digits"),
    (["circuits", "s1"], "a_specialization 'a1': the image 's1' names a gauge variable; "
                         "an image is a monomial in the a_i and h"),
    # a point index is refused before it is converted, and printed by its
    # first 40 characters; leading zeros do not count
    (["vertex", "tp1", "--point", LONG_INT],
     "point index %s... out of range (0..1)" % LONG_INT[:40]),
    (["whittaker", "tp1", "--point", LONG_INT],
     "point index %s... out of range (0..1)" % LONG_INT[:40]),
    (["qde-check", "tp1", "--circuit", "0", "--point", LONG_INT],
     "point index %s... out of range (0..1)" % LONG_INT[:40]),
    (["vertex", "tp1", "--point", "0" * 5000 + "2"], "point index 2 out of range (0..1)"),
    # a chained power is refused rather than read in either associativity
    (["vertex", "tp1", "--descendent=a1^2^3"], "chained power at position 4: write (x^a)^b"),
    (["vertex", "tp1", "--descendent=h^(1/2)^2"], "chained power at position 7: write (x^a)^b"),
    (["vertex", "tp1", "--descendent=h^(3/2)^(1/2)"],
     "chained power at position 7: write (x^a)^b"),
    (["mul", "tp1", "r[1] a1^2^3"], "chained power at position 4: write (x^a)^b"),
    # an empty --point names no point
    (["vertex", "tp1", "--point="], "bad --point ''"),
    (["whittaker", "tp1", "--point="], "bad --point ''"),
    (["qde-check", "tp1", "--circuit", "0", "--point="], "bad --point ''"),
    # an empty --descendent is no descendent, not the descendent 1
    (["vertex", "tp1", "--order", "1", "--descendent="], "unexpected end of expression"),
    (["qde-check", "tp1", "--circuit", "0", "--order", "1", "--descendent="],
     "unexpected end of expression"),
    # a flavor image that names q or divides is refused by its key
    (["circuits", "q"], "a_specialization 'a1': the variable q is not allowed in the image 'q'"),
    (["circuits", "a2^-1*q"],
     "a_specialization 'a1': the variable q is not allowed in the image 'a2^-1*q'"),
    (["circuits", "a2/3"], "a_specialization 'a1': division not allowed in the image 'a2/3'"),
    (["circuits", "(a2+1)^-1"],
     "a_specialization 'a1': division not allowed in the image '(a2+1)^-1'"),
    # a second stability vector on a wall is refused by the wall's normal
    (["wallcross", "a2", "--theta2=-1,-1"], "theta2 on wall with normal (1,-1)"),
    # every other refusal of a flavor image names its key too
    (["circuits", "a2+1"], "a_specialization 'a1': expected a monomial in the image 'a2+1'"),
    (["circuits", "2*a2"],
     "a_specialization 'a1': expected a monomial with coefficient 1 in the image '2*a2'"),
    (["circuits", "b1"], "a_specialization 'a1': unknown variable 'b1' in the image 'b1'"),
    (["circuits", "a2^(1/2)"], "a_specialization 'a1': half powers only allowed on q, h, Q "
                               "variables in the image 'a2^(1/2)'"),
    # an expression cut short names the position just past its end
    (["vertex", "tp1", "--descendent=(s1"], "expected ')' at position 3"),
    (["vertex", "tp1", "--descendent=s1^("], "expected integer at position 4"),
    (["vertex", "tp1", "--descendent=s1^ "], "expected integer at position 4"),
    (["mul", "tp1", "r[1] (a1"], "expected ')' at position 3"),
    (["circuits", "((a2"], "a_specialization 'a1': expected ')' at position 4 in the image '((a2'"),
    # and so is an image refused by any other rule of the grammar
    (["circuits", "(a2)^(1/2)"], "a_specialization 'a1': half powers only allowed on single "
                                 "variables in the image '(a2)^(1/2)'"),
    (["circuits", "a2^(1/3)"], "a_specialization 'a1': only integer or half exponents are "
                               "supported in the image 'a2^(1/3)'"),
    (["circuits", "a2^99999999"], "a_specialization 'a1': exponent 99999999 of a2 exceeds the "
                                  "limit 1048576 in the image 'a2^99999999'"),
    # an image of 40 characters is quoted whole, a longer one cut after 40
    (["circuits", "a2+" + "1" * 37],
     "a_specialization 'a1': expected a monomial in the image 'a2+%s'" % ("1" * 37)),
    (["circuits", "a2+" + "1" * 38],
     "a_specialization 'a1': expected a monomial in the image 'a2+%s...'" % ("1" * 37)),
    (["circuits", "s1" + "*a2" * 20], "a_specialization 'a1': the image 's1%s...' names a gauge "
                                      "variable; an image is a monomial in the a_i and h"
                                      % ("*a2" * 20)[:38]),
    # a refused --theta2 or --point support is quoted by its first 40 characters
    (["wallcross", "a2", "--theta2=" + "1" * 5000],
     "--theta2 must be comma-separated integers, got '%s...'" % ("1" * 40)),
    (["vertex", "tp1", "--point", "1" * 5000 + ","], "bad --point '%s...'" % ("1" * 40)),
    # so is a support that names no fixed point
    (["vertex", "tp1", "--point", "1" * 4000 + ","],
     "no fixed point with support {%s...}" % ("1" * 40)),
    # an index of 40 digits is printed whole, one of 41 cut after 40
    (["vertex", "tp1", "--point", "9" * 40], "point index %s out of range (0..1)" % ("9" * 40)),
    (["vertex", "tp1", "--point", "9" * 41],
     "point index %s... out of range (0..1)" % ("9" * 40)),
    # an unknown variable, a generator degree of the wrong length and a
    # descendent that is not Weyl-invariant are quoted by their first 40
    (["vertex", "tp1", "--descendent=" + "b" * 5000], "unknown variable '%s...'" % ("b" * 40)),
    (["circuits", "b" * 5000], "a_specialization 'a1': unknown variable '%s...' in the image "
                               "'%s...'" % ("b" * 40, "b" * 40)),
    (["mul", "tp1", "r[%s1]" % ("1," * 2000)],
     "generator degree '%s...' has length 2001, expected 1" % ("r[" + "1," * 19)),
    (["vertex", "tgr24", "--descendent=s1" + "+s1" * 2000],
     "descendent '%s...' is not Weyl-invariant: w=(2,1) changes it" % ("s1" + "+s1" * 13)[:40]),
    (["mul", "tp1", "r[%s1]" % ("1-" * 3000)],
     "generator %s...: degree entries must be integers" % ("r[" + "1-" * 19)),
    # an exponent over the limit is quoted by its first 40 digits
    (["vertex", "tp1", "--descendent=s1^" + "9" * 2000],
     "exponent %s... of s1 exceeds the limit 1048576" % ("9" * 40)),
    # division in a scalar chunk of a generator word is refused as such
    (["mul", "a2", "r[1,0] s1/"], "division not allowed in generator words"),
    (["mul", "a2", "r[1,0] s1/(1-s2)"], "division not allowed in generator words"),
    (["mul", "a2", "r[1,0] (1+s1)^-1"], "division not allowed in generator words"),
    # an --order or a --circuit out of range is quoted by its first 40 characters
    (["vertex", "a2", "--order", "9" * 4000],
     "--order must be at most 64, got %s..." % ("9" * 40)),
    (["vertex", "a2", "--order", "-" + "9" * 4000],
     "--order must be >= 0, got -%s..." % ("9" * 39)),
    (["qde-check", "a2", "--circuit", "9" * 4000, "--order", "1"],
     "circuit index %s... out of range" % ("9" * 40)),
])
def test_grammar_limits_exit_2(tmp_path, capsys, argv, message):
    from coulombkit.cli import main
    if argv[0] == "circuits":
        argv = ["circuits", _aspec_model(tmp_path, argv[1])]
    else:
        argv = [argv[0], model_path(argv[1])] + argv[2:]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_digit_bound_follows_the_limit_at_run_time(capsys):
    """The digit bound is built once per limit value: a limit lowered while
    the process runs lowers the bound with it."""
    from coulombkit.cli import main
    argv = ["vertex", model_path("tp1"), "--descendent=s1^" + "9" * 400]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: exponent %s... of s1 exceeds the limit %d\n" % (
        "9" * 40, 1 << 20)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(argv) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().err == \
        "error: a number in the expression has more than 320 digits\n"


def test_mul_generator_degrees_are_capped(capsys):
    from coulombkit.cli import MAX_GENERATOR_DEGREE, main
    cap = MAX_GENERATOR_DEGREE
    assert main(["mul", model_path("tp1"), "r[%d] r[%d]" % (cap, -cap)]) == 0
    capsys.readouterr()
    for word, message in [
            ("r[3000] r[-3000]", "generator r[3000]: degree entry above the limit %d" % cap),
            ("r[1] R[-%d]" % (cap + 1), "generator R[-%d]: degree entry above the limit %d"
             % (cap + 1, cap)),
            # a long entry is quoted by the first 40 characters of its generator
            ("r[%s]" % MAX_INT, "generator r[%s...: degree entry above the limit %d"
             % (MAX_INT[:38], cap)),
            ("r[1-2]", "generator r[1-2]: degree entries must be integers")]:
        assert main(["mul", model_path("tp1"), word]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_model_file_with_an_overlong_integer_exits_2(tmp_path, capsys):
    from coulombkit.cli import main
    path = tmp_path / "long.json"
    path.write_text('{"chi": [[%s]], "theta": [1]}' % LONG_INT)
    assert main(["circuits", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error in ") and err.count("\n") == 1


@pytest.mark.parametrize("text, key", [
    ('{"chi": [[1], [1]], "theta": [1], "chi": [[1], [1], [1]]}', "'chi'"),
    ('{"chi": [[1], [1]], "theta": [1], "a_specialization": {"a1": "a2", "a1": "h"}}', "'a1'"),
    ('{"chi": [[1], [1]], "theta": [1], "%s": 1, "%s": 2}' % ("b" * 5000, "b" * 5000),
     "'%s...'" % ("b" * 40)),
], ids=["top-level", "nested", "long"])
def test_repeated_json_key_exits_2(tmp_path, capsys, text, key):
    """A key written twice in one JSON object is refused by name, whichever
    of its values would be read."""
    from coulombkit.cli import main
    path = tmp_path / "repeated.json"
    path.write_text(text)
    for command in ("analyze", "circuits"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: parse error in %s: the key %s is repeated in one object\n" % (path, key)


def test_deeply_nested_model_file_exits_2(tmp_path, capsys):
    from coulombkit.cli import main
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["circuits", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error in ") and err.count("\n") == 1


def test_main_rejects_malformed_theta2(capsys):
    from coulombkit.cli import main
    assert main(["wallcross", model_path("a2"), "--theta2", "1,x"]) == 2
    assert capsys.readouterr().err == \
        "error: --theta2 must be comma-separated integers, got '1,x'\n"


def test_main_rejects_negative_order(capsys):
    from coulombkit.cli import main
    assert main(["vertex", model_path("tp1"), "--order", "-1"]) == 2
    assert capsys.readouterr().err == "error: --order must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["vertex", "whittaker", "qde-check"])
@pytest.mark.parametrize("order", ["65", str(2 ** 62)])
def test_order_above_the_limit_exits_2(capsys, command, order):
    from coulombkit.cli import main
    extra = ["--circuit", "0"] if command == "qde-check" else []
    assert main([command, model_path("tp1"), "--order", order] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --order must be at most 64, got %s\n" % order


def test_order_at_the_limit_is_accepted():
    from coulombkit.cli import MAX_ORDER
    code, text = run_cli(["vertex", model_path("tp1"), "--order", str(MAX_ORDER)])
    assert code == 0 and text.count("\n") == MAX_ORDER + 2


def test_qde_check_passes_on_every_tgr24_point():
    """The virtual series of tgr(2,4) is annihilated by the virtual operator
    of each circuit at each of its 12 lifts, the points `qde-check` checks on
    a block model (the library check at all 16 points is in test_vertex)."""
    for idx in range(2):
        code, text = run_cli(["qde-check", model_path("tgr24"), "--circuit", str(idx),
                              "--order", "2"])
        assert code == 0 and text.count("PASS") == 12 and "FAIL" not in text, idx


def test_qde_check_refuses_a_non_lift_of_a_block_model(capsys):
    from coulombkit.cli import main
    argv = ["--circuit", "0", "--point", "1,5", "--order", "2"]
    assert main(["qde-check", model_path("tgr24")] + argv) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert main(["vertex", model_path("tgr24"), "--point", "1,5"]) == 2
    assert refused.err == capsys.readouterr().err == (
        "error: fixed point p{1,5} is not a lift of an isolated fixed point; the first lift is"
        " p{1,6} (--point 1,6)\n")
    # a named lift is checked alone; an abelian model's points are all lifts
    assert run_cli(["qde-check", model_path("tgr24"), "--circuit", "0", "--point", "1,6",
                    "--order", "1"]) == (0, "PASS circuit (0,1) at p{1,6}\n")
    assert run_cli(["qde-check", model_path("a2"), "--circuit", "0", "--order", "1"])[1].count(
        "PASS") == 3


@pytest.mark.parametrize("point", ["1,6", "2,5"])
def test_vertex_refuses_a_descendent_that_is_not_weyl_invariant(capsys, point):
    """p{1,6} and p{2,5} lift one fixed point of tgr(2,4); s1 would print a1
    at one and a2 at the other."""
    from coulombkit.cli import main
    for text, w in [("s1", "(2,1)"), ("a1*s1 - h", "(2,1)"), ("s1^2*s2", "(2,1)")]:
        assert main(["vertex", model_path("tgr24"), "--order", "0", "--point", point,
                     "--descendent", text]) == 2
        assert capsys.readouterr().err == (
            "error: descendent %r is not Weyl-invariant: w=%s changes it\n" % (text, w))


def test_weyl_invariant_descendents_print_the_same_at_every_lift_of_a_point():
    """a5 specializes to a1^-1, as a1 does, so a1*s1 + a5*s2 is invariant only
    once the flavor specialization is applied."""
    for text in ("s1+s2", "s1*s2 - 3*h", "a1*s1 + a5*s2"):
        outs = [run_cli(["vertex", model_path("tgr24"), "--order", "1", "--point", point,
                         "--descendent", text]) for point in ("1,6", "2,5")]
        assert outs[0][0] == 0 and outs[0] == outs[1], text


def test_model_with_too_many_row_subsets_exits_2_at_once(tmp_path):
    """tgr(6,4): 24 rows of rank 6, so C(24, 6) = 134,596 row subsets."""
    from coulombkit.hypertoric import MAX_ROW_SUBSETS
    from math import comb
    assert comb(16, 8) <= MAX_ROW_SUBSETS < comb(24, 6)
    path = tmp_path / "tgr64.json"
    path.write_text(json.dumps(_tgr(6, 4)))
    proc = run_subprocess(["fixed-points", str(path)], timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: the model has C(24, 6) = 134596 candidate row subsets, more"
                           " than the limit %d\n" % MAX_ROW_SUBSETS)


@pytest.mark.parametrize("argv, message", [
    (["vertex", "tp1", "--descendent=s1^2000000"],
     "exponent 2000000 of s1 exceeds the limit 1048576"),
    (["vertex", "tp1", "--descendent=h^(-2097153/2)"],
     "exponent -2097153/2 of h exceeds the limit 1048576"),
    (["vertex", "tp1", "--descendent=(a1^-1000)^2000"],
     "exponent -2000000 of a1 exceeds the limit 1048576"),
    (["vertex", "tp1", "--descendent=s1^1000000*a2*s1^100000"],
     "exponent 1100000 of s1 exceeds the limit 1048576"),
    (["mul", "tp1", "Q1^2000000 r[1]"], "exponent 2000000 of Q1 exceeds the limit 1048576"),
    (["circuits", "a1^-1048577"], "a_specialization 'a1': exponent -1048577 of a1 exceeds the "
                                  "limit 1048576 in the image 'a1^-1048577'"),
])
def test_exponents_above_the_slot_limit_exit_2(tmp_path, capsys, argv, message):
    from coulombkit.cli import main
    if argv[0] == "circuits":
        argv = ["circuits", _aspec_model(tmp_path, argv[1])]
    else:
        argv = [argv[0], model_path(argv[1])] + argv[2:]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_exponents_at_the_slot_limit_are_accepted():
    from coulombkit.cli import MAX_EXPONENT
    table = VariableTable(2, 1)
    for text in ("s1^%d" % MAX_EXPONENT, "h^(-%d/2)" % (2 * MAX_EXPONENT), "(-s1)^100000",
                 "s1^%d * s1^-%d" % (MAX_EXPONENT, MAX_EXPONENT)):
        assert parse_descendent(text, table).poly.is_monomial(), text


def test_weight_entries_above_the_limit_exit_2(tmp_path, capsys):
    from coulombkit.cli import main
    from coulombkit.hypertoric import MAX_WEIGHT
    path = tmp_path / "heavy.json"
    for entry, code in [(MAX_WEIGHT, 0), (-MAX_WEIGHT - 1, 2), (2 ** 40, 2)]:
        path.write_text(json.dumps({"chi": [[1, 0], [entry, 1]], "theta": [1, 1]}))
        assert main(["circuits", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: row chi_2 has the entry %d, above the limit %d\n" % (
                entry, MAX_WEIGHT)


def test_an_exponent_the_engine_would_push_out_of_its_slot_exits_2(capsys):
    """Each r[64] moves the insertion s1^1048576 on its right by 64 more
    units of q, 2^27 on the slot of q^(1/2): 16 of them reach -2^31, the
    end of the slot's range, and 17 would leave it."""
    from coulombkit.cli import main
    word = " s1^1048576"
    assert main(["mul", model_path("tp1"), "r[64] " * 17 + word]) == 2
    assert capsys.readouterr() == (
        "", "error: q^-1140850688 leaves the exponent bound 2^31 of a packed slot\n")
    assert main(["mul", model_path("tp1"), "r[64] " * 16 + word]) == 0
    assert capsys.readouterr().out == "(q^-1073741824*s1^1048576) r[1024]\n"


def run_subprocess(argv, timeout=120, **env_extra):
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **env_extra)
    return subprocess.run([sys.executable, "-m", "coulombkit.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_non_lift_exits_2_and_its_pole_names_the_atom():
    proc = run_subprocess(["vertex", model_path("tgr24"), "--point", "1,5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: fixed point p{1,5} is not a lift of an isolated fixed point;"
                           " the first lift is p{1,6} (--point 1,6)\n")
    # computed anyway, the series has a pole there, and the vanishing
    # factor is written in the model's variables
    from coulombkit import (CoulombAlgebra, Descendent, PoleEvaluationError, fixed_points,
                            vertex_fp_nonab)
    from coulombkit.cli import _select_point
    data = load_model(model_path("tgr24"))
    alg = CoulombAlgebra(data)
    with pytest.raises(PoleEvaluationError) as exc:
        vertex_fp_nonab(alg, _select_point(fixed_points(data), "1,5"),
                        Descendent(Poly.one(alg.table.width)), 1)
    assert str(exc.value) == "pole at fixed point p{1,5}: atom (1 - s1*s2^-1) vanishes"


def _tgr(k, n):
    """Hom(C^n, C^k) with one GL block of size k, its flavors specialized
    onto the n acting ones (the shape of tests/data/tgr24.json)."""
    chi = [[int(t == j) for t in range(k)] for j in range(k) for _ in range(n)]
    aspec = {"a%d" % (j * n + i + 1): "a%d^-1" % (i + 1) for j in range(k) for i in range(n)}
    return {"chi": chi, "theta": [1] * k, "blocks": [k], "a_specialization": aspec}


@pytest.mark.parametrize("k, n, lift, non_lift", [
    (2, 4, "1,6", "1,5"), (2, 5, "1,7", "1,6"), (3, 4, "1,6,11", "1,5,9")])
def test_block_models_default_to_the_first_lift(tmp_path, k, n, lift, non_lift):
    path = tmp_path / "tgr.json"
    path.write_text(json.dumps(_tgr(k, n)))
    for command in ("vertex", "whittaker"):
        default = run_cli([command, str(path), "--order", "1"])
        assert default[0] == 0
        assert default == run_cli([command, str(path), "--order", "1", "--point", lift])
        message = ("fixed point p{%s} is not a lift of an isolated fixed point; the first "
                   "lift is p{%s} (--point %s)" % (non_lift, lift, lift))
        with pytest.raises(ModelError, match="^%s$" % re.escape(message)):
            run_cli([command, str(path), "--order", "1", "--point", non_lift])


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 4)])
def test_fixed_points_marks_exactly_the_points_vertex_accepts(tmp_path, k, n):
    path = tmp_path / "tgr.json"
    path.write_text(json.dumps(_tgr(k, n)))
    code, payload = run_cli(["fixed-points", str(path), "--json"])
    assert code == 0
    points = json.loads(payload)
    code, text = run_cli(["fixed-points", str(path)])
    assert code == 0
    heads = text.splitlines()[::2]
    assert len(heads) == len(points)
    for head, p in zip(heads, points):
        support = ",".join(str(i) for i in p["support"])
        assert head.startswith("p[%d] p{%s}" % (points.index(p), support))
        assert (" p{%s} lift " % support in head) == p["lift"]
        try:
            accepted = run_cli(["vertex", str(path), "--order", "0", "--point", support])[0] == 0
        except ModelError:
            accepted = False
        assert accepted == p["lift"], support
    assert any(p["lift"] for p in points) and not all(p["lift"] for p in points)


@pytest.mark.parametrize("model, lifts", [("fl3", 12), ((2, 4), 12), ((2, 5), 20), ((3, 4), 24)],
                         ids=["fl3", "tgr24", "tgr25", "tgr34"])
def test_lifts_number_the_weyl_order_times_the_fixed_points(tmp_path, model, lifts):
    """|W| x chi(X) lifts: T*Fl(3) has 2 x 6, and Gr(k, n) has k! x C(n, k).
    A point where a virtual row restricts to h or h^-1 is no lift: there the
    inverted root factor (1 - h s_u/s_v) of the kernel has a pole."""
    if model == "fl3":
        path = model_path(model)
    else:
        path = tmp_path / "tgr.json"
        path.write_text(json.dumps(_tgr(*model)))
    code, text = run_cli(["fixed-points", str(path)])
    assert code == 0 and text.count(" lift ") == lifts


def test_fl3_lifts_print_the_series_of_their_weyl_image():
    """Every lift of T*Fl(3) prints its series, and the image of a lift under
    the swap of s2 and s3 prints the same bytes, as p{1,5,7} and p{2,4,8}."""
    from coulombkit import CoulombAlgebra, fixed_points
    from coulombkit.vertex import is_lift
    data = load_model(model_path("fl3"))
    alg = CoulombAlgebra(data)
    swap = data.weyl_elements()[1]
    assert swap == (0, 2, 1)
    lifts = [p for p in fixed_points(data) if is_lift(alg, p)]
    outs = {}
    for p in lifts:
        code, outs[p] = run_cli(["vertex", model_path("fl3"), "--order", "2",
                                 "--point", ",".join(str(i + 1) for i in p.support)])
        assert code == 0, p.label()
    for p in lifts:
        image = weyl_image(alg, swap, p)
        assert image != p and outs[image] == outs[p], (p.label(), image.label())
    assert {p.label() for p in lifts if outs[p] == outs[lifts[0]]} == {"p{1,5,7}", "p{2,4,8}"}


# tp1 with its flavors inverted; once with blocks of size 1, once without blocks
INVERTED_TP1 = {"chi": [[1], [1]], "theta": [1],
                "a_specialization": {"a1": "a1^-1", "a2": "a2^-1"}}


@pytest.mark.parametrize("blocks", [[1], None])
def test_one_model_path_with_or_without_blocks(tmp_path, blocks):
    """A model of 1x1 blocks takes the block-model path whether or not its
    file gives ``blocks``: `vertex` and `bethe` apply the recorded flavor
    specialization, and only `fixed-points` asks whether blocks are given."""
    from coulombkit import CoulombAlgebra, Descendent, fixed_points, vertex_fp, vertex_fp_nonab
    from coulombkit.bethe import dmodule_relations
    raw = dict(INVERTED_TP1, **({"blocks": blocks} if blocks else {}))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    data = load_model(str(path))
    alg = CoulombAlgebra(data)
    tp1_alg = CoulombAlgebra(load_model(model_path("tp1")))
    t = alg.table
    inverted = {t.a(i): t.mono({t.a(i): -1}) for i in range(2)}
    one = Descendent(Poly.one(t.width))
    for idx, p in enumerate(fixed_points(data)):
        code, payload = run_cli(["vertex", str(path), "--order", "2", "--point", str(idx),
                                 "--json"])
        assert code == 0
        series = vertex_fp_nonab(alg, p, one, 2)
        # the point's restriction s1 -> a_i^-1 is inverted along with the flavors
        tp1_point = next(q for q in fixed_points(tp1_alg.data) if q.support == p.support)
        plain = vertex_fp(tp1_alg, tp1_point, one, 2)
        coefficients = json.loads(payload)["coefficients"]
        assert [tuple(c["degree"]) for c in coefficients] == sorted(series.coeffs) == [
            (0,), (1,), (2,)]
        for c in coefficients:
            d = tuple(c["degree"])
            value = scalar_from_structured(t.width, c["value"])
            assert value == series.coeffs[d] == plain.coeffs[d].subs(inverted, t.width)
            if any(d):
                assert value != plain.coeffs[d]
    code, payload = run_cli(["bethe", str(path), "--json"])
    assert code == 0
    (entry,), (rel,) = json.loads(payload), dmodule_relations(tp1_alg)
    assert scalar_from_structured(t.width, entry["lhs"]) == rel.lhs.subs(inverted, t.width)
    assert entry["weyl"] == ([0] if blocks else None)
    code, text = run_cli(["bethe", str(path)])
    assert text.startswith("dmodule [c=(1)%s]: " % (" w=(1)" if blocks else ""))
    code, text = run_cli(["fixed-points", str(path)])
    assert code == 0 and text.count(" lift ") == (2 if blocks else 0)


def test_fixed_points_of_abelian_models_carry_no_lift_mark():
    for name in ("tp1", "a2"):
        for extra in ([], ["--json"]):
            code, text = run_cli(["fixed-points", model_path(name)] + extra)
            assert code == 0 and "lift" not in text


def test_term_cap_refuses_large_products_at_once():
    from coulombkit.cli import MAX_TERMS
    proc = run_subprocess(["vertex", model_path("a2"), "--order", "0", "--descendent",
                           "(s1+s2+a1+a2+a3+h+1)^32"], timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: a product of 3003 and 3003 terms exceeds the limit of %d"
                           " term pairs\n" % MAX_TERMS)
    table = VariableTable(3, 2)
    with pytest.raises(ExprError, match="term pairs"):
        parse_descendent(" * ".join(["(s1+s2+a1+a2+a3+h+1)^4"] * 3), table)
    assert len(parse_descendent("(s1+s2+a1+a2+a3+h+1)^8", table).poly.terms) == 3003


def test_large_power_of_a_sum_is_rejected_before_expanding():
    # rejected before any multiplication, so this returns at once
    proc = run_subprocess(["vertex", model_path("tp1"), "--descendent", "(s1+1)^100000"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: power 100000 of a sum exceeds the limit 32\n"
    from coulombkit.cli import MAX_SUM_POWER
    table = VariableTable(2, 1)
    assert len(parse_descendent("(s1+1)^%d" % MAX_SUM_POWER, table).poly.terms) == MAX_SUM_POWER + 1
    with pytest.raises(ExprError, match="exceeds the limit"):
        parse_descendent("(s1+1)^%d" % (MAX_SUM_POWER + 1), table)
    # a power of a monomial with coefficient 1 or -1 is one exponent vector,
    # with no limit; any other coefficient grows in digits with the power
    assert parse_descendent("(-s1)^100000", table).poly.is_monomial()
    with pytest.raises(ExprError, match="power 100000 of a coefficient exceeds the limit 32"):
        parse_descendent("(2*s1)^100000", table)


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    """A reader that takes one line and closes the pipe: no traceback, exit 1."""
    path = tmp_path / "tp.json"
    path.write_text(json.dumps({"chi": [[1]] * 3000, "theta": [1]}))
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONUNBUFFERED=unbuffered)
    # about 190 kB of points, more than a pipe buffers, so the writer blocks
    proc = subprocess.Popen([sys.executable, "-m", "coulombkit.cli", "fixed-points", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"p[0] ")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_unrecognized_arguments_are_quoted_by_their_first_40_characters(capsys):
    """argparse's refusal of extra arguments, with their text cut by ``_cap``;
    a short one reads as argparse prints it."""
    from coulombkit.cli import main
    argv = ["vertex", model_path("tp1"), "--descendent=s1"]
    assert main(argv + ["b" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.endswith("coulombkit: error: unrecognized arguments: %s...\n" % ("b" * 40))
    assert len(err) < 400
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv + ["x", "--y"])
    fresh = capsys.readouterr().err
    assert fresh.endswith("unrecognized arguments: x --y\n")
    assert main(argv + ["x", "--y"]) == 2
    assert capsys.readouterr().err == fresh


@pytest.mark.parametrize("argv, last", [
    (["b" * 5000], "coulombkit: error: argument command: invalid choice: '%s...'" % ("b" * 40)),
    (["vertex", model_path("tp1"), "--order", "9" * 5000],
     "coulombkit vertex: error: argument --order: invalid int value: '%s...'" % ("9" * 40)),
    # a value with a quote is printed in double quotes
    (["vertex", model_path("tp1"), "--order", "'" + "9" * 5000],
     "coulombkit vertex: error: argument --order: invalid int value: \"'%s...\"" % ("9" * 39)),
    # an escape is one character, and the cut never splits one
    (["vertex", model_path("tp1"), "--order", "\\" * 5000 + "'\""],
     "coulombkit vertex: error: argument --order: invalid int value: '%s...'" % ("\\" * 80)),
    (["frob"], "coulombkit: error: argument command: invalid choice: 'frob' (choose from "),
    (["vertex", model_path("tp1"), "--order", "abc"],
     "coulombkit vertex: error: argument --order: invalid int value: 'abc'"),
], ids=["command", "order", "quote", "escapes", "short-command", "short-order"])
def test_argparse_quotes_a_refused_value_by_its_first_40_characters(capsys, argv, last):
    """Every parser refusal goes through the parser class's ``error``, which
    cuts each value argparse quotes after 40 characters; the choices that
    follow an invalid command are printed as argparse prints them."""
    from coulombkit.cli import main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(last) and len(err) < 600


def test_a_long_model_path_is_quoted_by_its_first_40_characters(capsys, monkeypatch, tmp_path):
    import errno
    from coulombkit.cli import main
    assert main(["vertex", "b" * 5000]) == 2
    assert capsys.readouterr().err == "error: [Errno %d] %s: '%s...'\n" % (
        errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), "b" * 40)
    # a short path, missing or a directory, reads as the OSError prints it
    monkeypatch.chdir(tmp_path)
    for path in ("missing.json", "."):
        with pytest.raises(OSError) as exc:
            open(path)
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == "error: %s\n" % exc.value


def test_rendering_formats_each_fragment_once_per_table(monkeypatch, capsys):
    """Counted, not timed: the text of each (variable, exponent) pair is
    formatted once per variable table, however many monomials share it."""
    from coulombkit.cli import main
    calls = []
    power_str = VariableTable.power_str
    monkeypatch.setattr(VariableTable, "power_str", lambda table, idx, e:
                        calls.append((table, idx, e)) or power_str(table, idx, e))
    assert main(["vertex", model_path("a2"), "--order", "4"]) == 0
    with open(os.path.join(DATA, "golden", "vertex_a2_order4.txt")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert calls and len(calls) == len(set(calls))


def test_factored_output_stays_small(tmp_path, capsys):
    """TP^6 at order 8 prints its atoms as they are stored, without expanding."""
    from coulombkit.cli import main
    path = tmp_path / "tp6.json"
    path.write_text(json.dumps({"chi": [[1]] * 7, "theta": [1]}))
    assert main(["vertex", str(path), "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 10 and len(out.encode()) < 100_000
    # the same values as compact JSON, one line
    assert main(["vertex", str(path), "--order", "8", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and len(out.encode()) < 20_000


@pytest.mark.parametrize("name, point", [("tp1", "0"), ("a2", "0"), ("tgr24", "1,6")])
def test_vertex_json_round_trips(name, point):
    from coulombkit import CoulombAlgebra, Descendent, fixed_points, vertex_fp_nonab
    from coulombkit.cli import _select_point
    code, payload = run_cli(["vertex", model_path(name), "--point", point, "--order", "2",
                             "--json"])
    assert code == 0
    data = load_model(model_path(name))
    alg = CoulombAlgebra(data)
    tau = Descendent(Poly.one(alg.table.width))
    p = _select_point(fixed_points(data), point)
    series = vertex_fp_nonab(alg, p, tau, 2)
    coefficients = json.loads(payload)["coefficients"]
    assert [tuple(c["degree"]) for c in coefficients] == sorted(series.coeffs)
    for c in coefficients:
        value = scalar_from_structured(alg.table.width, c["value"])
        assert value == series.coeffs[tuple(c["degree"])]


@pytest.mark.parametrize("argv", [
    ["vertex", "a2", "--order", "2", "--descendent", "a1*s1 - h"],
    ["vertex", "tgr24", "--order", "1", "--point", "1"],
    ["whittaker", "a2", "--order", "2"],
    ["mul", "a2", "r[2,1] r[-1,-2] r[0,1]", "--json"],
    ["bethe", "a2"],
    ["bethe", "tgr24", "--q1"],
])
def test_stdout_independent_of_hash_seed(argv):
    argv = [argv[0], model_path(argv[1])] + argv[2:]
    runs = [run_subprocess(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
