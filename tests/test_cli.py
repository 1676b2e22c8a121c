"""Model ingestion, expression grammar, dispatch, determinism, exit codes."""

import importlib.util
import io
import json
import os
import re
import subprocess
import sys

import pytest

from coulombkit import Poly, Scalar, VariableTable
from coulombkit.cli import (ExprError, build_parser, dispatch, load_model, main,
                            parse_descendent, parse_generator_word,
                            parse_scalar_expr)
from coulombkit.exactring import scalar_from_structured
from coulombkit.hypertoric import ModelError

from cli_cases import CASES, GOLDEN, case_argv, case_id, is_inline, problems
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


def test_bethe_q1_json():
    code, payload = run_cli(["bethe", model_path("tp1"), "--q1", "--json"])
    assert code == 0
    assert json.loads(payload)[0]["circuit"] == [1]


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


# -- the command-line cases of tests/cli_cases.py --------------------------------

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_case(monkeypatch, capsys, tmp_path, case):
    """Each case, run through ``main`` in an empty working directory."""
    monkeypatch.chdir(tmp_path)
    code = main(case_argv(case, str(tmp_path)))
    assert problems(case, code, *capsys.readouterr()) == []


def test_the_cases_name_every_golden_file():
    named = {case.golden for case in CASES if case.golden}
    assert sorted(os.listdir(GOLDEN)) == sorted(n for n in named if "/" not in n)
    assert all(os.path.isfile(os.path.join(GOLDEN, name)) for name in named)


@pytest.mark.parametrize("case", [c for c in CASES if c.last and c.model and is_inline(c.model)],
                         ids=case_id)
def test_load_model_refuses_each_inline_model_as_main_does(monkeypatch, tmp_path, case):
    """Every refusal of a model file, a refused flavor image included, is a ModelError."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ModelError) as exc:
        load_model(case_argv(case, str(tmp_path))[1])
    text = "error: %s" % exc.value
    assert text.startswith(case.last) if case.prefix else text == case.last


def _runner():
    spec = importlib.util.spec_from_file_location(
        "cli_cases_runner", os.path.join(os.path.dirname(DATA), os.pardir, "tools", "cli_cases.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_runner_names_a_case_that_fails(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.abspath(os.path.join(DATA, os.pardir, os.pardir,
                                                                  "src")))
    good = next(c for c in CASES if c.last == "error: theta2 on wall with normal (1,-1)")
    bad = good._replace(last="error: theta2 on wall with normal (1,1)")
    command = [sys.executable, "-m", "coulombkit.cli"]
    out = io.StringIO()
    assert _runner().run([good, bad], command, out=out) == 1
    assert out.getvalue().startswith("FAIL case 1 [%s]: last stderr line " % case_id(bad))
    assert out.getvalue().endswith("1 of 2 cases passed\n")
    assert _runner().run([good], command, out=io.StringIO()) == 0


def test_ci_runs_the_cases_through_the_runner():
    path = os.path.join(DATA, os.pardir, os.pardir, ".github", "workflows", "tests.yml")
    with open(path) as fh:
        step = fh.read().split("- name: Installed console script")[1].split("- name:")[0]
    assert "python tools/cli_cases.py" in step


# -- one process, many commands -------------------------------------------------

def test_one_process_runs_the_golden_commands_forward_and_back(capsys, tmp_path):
    """Commands that share the process's parser print what they print alone:
    every golden command, forward and then in reverse, each followed by a
    usage error and an expression error whose stderr never changes."""
    first_err = {}
    cases = [case for case in CASES if case.golden]
    for case in cases + cases[::-1]:
        assert problems(case, main(case_argv(case, str(tmp_path))), *capsys.readouterr()) == []
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


def test_main_writes_to_the_current_stdout(capsys):
    assert main(["circuits", model_path("tp1")]) == 0
    assert capsys.readouterr().out == run_cli(["circuits", model_path("tp1")])[1]


def test_digit_bound_follows_the_limit_at_run_time(capsys):
    """The digit bound is built once per limit value: a limit lowered while
    the process runs lowers the bound with it."""
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


def test_exponents_at_the_slot_limit_are_accepted():
    from coulombkit.cli import MAX_EXPONENT
    table = VariableTable(2, 1)
    for text in ("s1^%d" % MAX_EXPONENT, "h^(-%d/2)" % (2 * MAX_EXPONENT), "(-s1)^100000",
                 "s1^%d * s1^-%d" % (MAX_EXPONENT, MAX_EXPONENT)):
        assert parse_descendent(text, table).poly.is_monomial(), text


def test_an_exponent_the_engine_would_push_out_of_its_slot_exits_2(capsys):
    """Each r[64] moves the insertion s1^1048576 on its right by 64 more
    units of q, 2^27 on the slot of q^(1/2): 16 of them reach -2^31, the
    end of the slot's range, and 17 would leave it."""
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
    """argparse's refusal of extra arguments reads as argparse prints it when
    short (a long one is a case of tests/cli_cases.py)."""
    argv = ["vertex", model_path("tp1"), "--descendent=s1"]
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv + ["x", "--y"])
    fresh = capsys.readouterr().err
    assert fresh.endswith("unrecognized arguments: x --y\n")
    assert main(argv + ["x", "--y"]) == 2
    assert capsys.readouterr().err == fresh


def test_rendering_formats_each_monomial_once_per_table(monkeypatch, capsys):
    """Counted, not timed: the text of each packed monomial is formatted once
    per variable table, however many terms and atoms print it."""
    calls, misses = [], []
    packed_str = VariableTable.packed_str

    def counted(table, m):
        calls.append(m)
        if m not in table.strings:
            misses.append((table, m))
        return packed_str(table, m)

    monkeypatch.setattr(VariableTable, "packed_str", counted)
    assert main(["vertex", model_path("a2"), "--order", "4"]) == 0
    with open(os.path.join(DATA, "golden", "vertex_a2_order4.txt")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert misses and len(misses) == len(set(misses)) < len(calls)


def test_factored_output_stays_small(tmp_path, capsys):
    """TP^6 at order 8 prints its atoms as they are stored, without expanding."""
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
