"""Every command-line case of ``coulombkit``: its arguments, its model, its
exit code, and what it prints.

``tests/test_cli.py`` runs each case through ``main`` in process, and
``tools/cli_cases.py`` runs each as a subprocess of an installed
``coulombkit`` script, so the suite and CI check one list.  A new case is
one more entry in ``CASES``.

A case runs in an empty working directory.  When it has a model, the model
path goes second in its arguments: ``tests/data/<model>.json`` for a model
name, or ``model.json`` in the working directory for the text of a model
file (a model that starts with ``{`` or ``[``).  A case exits with its code
and either prints its golden file on stdout and nothing on stderr, or prints
nothing on stdout and ends stderr with its line.  A refusal of ours is that
one line; a refusal of the parser (a line that starts ``coulombkit``) comes
after the usage.  A case with neither must print something and nothing on
stderr.
"""

import errno
import json
import os
from typing import NamedTuple

from coulombkit.cli import COMMANDS, MAX_GENERATOR_DEGREE
from coulombkit.hypertoric import MAX_WEIGHT

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden")
# the most characters a refusal of the parser prints, usage included
MAX_PARSER_ERR = 400


class Case(NamedTuple):
    argv: tuple  # the arguments, less the model path
    model: str | None  # a model name, the text of a model file, or None
    code: int
    golden: str | None  # the file under tests/data/golden that stdout equals
    last: str | None  # the last line of stderr
    prefix: bool  # only the start of ``last`` is compared


def golden(name, command, model, *args):
    """A run that exits 0 and prints the golden file ``name``."""
    return Case((command,) + args, model, 0, name, None, False)


def refused(last, command, model, *args, prefix=False):
    """A run that exits 2, prints nothing and ends stderr with ``last``."""
    return Case((command,) + args, model, 2, None, last, prefix)


def ran(command, model, *args):
    """A run that exits 0, prints something and writes nothing on stderr."""
    return Case((command,) + args, model, 0, None, None, False)


def aspec(images, rows=2):
    """A model of ``rows`` rows of weight 1 whose flavors specialize as
    ``images``: a dict of them, or the image of a1 alone."""
    images = images if isinstance(images, dict) else {"a1": images}
    return json.dumps({"chi": [[1]] * rows, "theta": [1], "a_specialization": images})


def os_error(code, path):
    return "error: [Errno %d] %s: %r" % (code, os.strerror(code), path)


DEEP_PARENS = "(" * 3000 + "s1" + ")" * 3000
DEEP_MINUS = "-" * 3000 + "s1"
LONG_INT = "1" * 4400
MAX_INT = "9" * 4300
LONG_KEY = "a" + "1" * 5000
NOT_A_LIFT = ("error: fixed point p{1,5} is not a lift of an isolated fixed point; the first lift"
              " is p{1,6} (--point 1,6)")

CASES = [
    # -- stdout, byte for byte ------------------------------------------------
    golden("vertex_tp1_order3.txt", "vertex", "tp1", "--order", "3"),
    golden("vertex_a2_order2_descendent.txt",
           "vertex", "a2", "--order", "2", "--descendent", "a1*s1-h"),
    golden("vertex_a2_order2_descendent.json",
           "vertex", "a2", "--order", "2", "--descendent", "a1*s1-h", "--json"),
    golden("vertex_tgr24_order1.txt", "vertex", "tgr24", "--order", "1"),
    # the Weyl-collapse sums of both lifts' abelian degrees
    golden("vertex_tgr24_order2.txt", "vertex", "tgr24", "--order", "2"),
    # p = 2 roots from h, binomials with a negative lead, and d = 2 keys
    # regrouped into binomials for printing
    golden("vertex_a2_order4.txt", "vertex", "a2", "--order", "4"),
    golden("vertex_a2_order4.json", "vertex", "a2", "--order", "4", "--json"),
    golden("whittaker_a2_order2.txt", "whittaker", "a2", "--order", "2"),
    # the virtual model's Whittaker vector, keyed by abelian degree
    golden("whittaker_tgr24_order1.txt", "whittaker", "tgr24", "--order", "1"),
    golden("mul_a2.txt", "mul", "a2", "r[1,0]r[-1,1]r[0,-1]"),
    golden("mul_a2.json", "mul", "a2", "r[1,0]r[-1,1]r[0,-1]", "--json"),
    # scalar chunks between generators, each multiplied in where it stands
    golden("mul_a2_scalar_chunks.txt", "mul", "a2", "r[1,0](1+s1)r[-1,1]2/3*s2r[0,-1]"),
    # structure constants and mixed coefficients with virtual rows
    golden("mul_tgr24.json", "mul", "tgr24", "r[1,0] R[0,1] r[-1,1]", "--json"),
    golden("qde_check_a2_circuit0_order2.txt", "qde-check", "a2", "--circuit", "0", "--order", "2"),
    # a negative power of a coefficient-1 monomial, and rational literals
    golden("vertex_tp1_order1_negative_power.txt",
           "vertex", "tp1", "--order", "1", "--descendent", "(a1*s1)^-2"),
    golden("vertex_tp1_order2_rational.json",
           "vertex", "tp1", "--order", "2", "--descendent", "1/2*a1*s1-3/2*h", "--json"),
    # the combinatorics read off the cofactors of the row subsets
    golden("fixed_points_a2.txt", "fixed-points", "a2"),
    golden("fixed_points_tgr24.txt", "fixed-points", "tgr24"),
    golden("circuits_a2.txt", "circuits", "a2"),
    golden("circuits_tgr24.txt", "circuits", "tgr24"),
    golden("analyze_a2.json", "analyze", "a2", "--json"),
    golden("analyze_tgr24.json", "analyze", "tgr24", "--json"),
    # the difference relations of a block model under its flavor specialization
    golden("bethe_tgr24.txt", "bethe", "tgr24"),
    # and their q = 1 limit; the benchmark reads this file where it is
    golden("../bethe_tgr24_golden.txt", "bethe", "tgr24", "--q1"),
    # T*Fl(3), blocks GL(1) x GL(2): 12 lifts, one series per Weyl orbit
    golden("fixed_points_fl3.txt", "fixed-points", "fl3"),
    golden("vertex_fl3_point157_order2.txt", "vertex", "fl3", "--point", "1,5,7", "--order", "2"),
    golden("bethe_fl3.txt", "bethe", "fl3"),
    # the text and JSON forms no other golden file pins
    golden("analyze_tgr24.txt", "analyze", "tgr24"),
    golden("wallcross_a2.txt", "wallcross", "a2", "--theta2", "1,2"),
    golden("wallcross_a2.json", "wallcross", "a2", "--theta2", "1,2", "--json"),
    golden("qde_check_tgr24_circuit0_order1.json",
           "qde-check", "tgr24", "--circuit", "0", "--order", "1", "--json"),
    golden("fixed_points_fl3.json", "fixed-points", "fl3", "--json"),
    golden("bethe_tgr24.json", "bethe", "tgr24", "--json"),
    golden("whittaker_a2_order2.json", "whittaker", "a2", "--order", "2", "--json"),

    # -- runs that succeed -----------------------------------------------------
    # the help builds the parser, and every subparser, from the command table
    ran("--help", None),
    *(ran(command, None, "--help") for command in COMMANDS),
    ran("vertex", "tp1", "--order", "1"),
    ran("qde-check", "tgr24", "--circuit", "0", "--order", "1"),
    # the largest weight entry and generator degree are accepted
    ran("circuits", json.dumps({"chi": [[1, 0], [MAX_WEIGHT, 1]], "theta": [1, 1]})),
    ran("mul", "tp1", "r[%d] r[%d]" % (MAX_GENERATOR_DEGREE, -MAX_GENERATOR_DEGREE)),

    # -- the expression grammar --------------------------------------------------
    refused("error: nesting deeper than 100 at position 101",
            "vertex", "tp1", "--descendent=" + DEEP_PARENS),
    refused("error: nesting deeper than 100 at position 101",
            "vertex", "tp1", "--descendent=" + DEEP_MINUS),
    refused("error: nesting deeper than 100 at position 101", "mul", "tp1", "r[1] " + DEEP_PARENS),
    refused("error: nesting deeper than 100 at position 101", "mul", "tp1", "r[1] " + DEEP_MINUS),
    refused("error: integer at position 0 has more than 4300 digits",
            "vertex", "tp1", "--descendent=" + LONG_INT),
    refused("error: integer at position 3 has more than 4300 digits",
            "vertex", "tp1", "--descendent=s1^" + LONG_INT),
    refused("error: power 100000 of a coefficient exceeds the limit 32",
            "vertex", "tp1", "--descendent=2^100000"),
    refused("error: power 33 of a coefficient exceeds the limit 32",
            "vertex", "tp1", "--descendent=(3*s1)^33"),
    refused("error: a number in the expression has more than 2150 digits",
            "vertex", "tp1", "--descendent=(s1^9)^" + MAX_INT),
    refused("error: a number in the expression has more than 2150 digits",
            "vertex", "tp1", "--descendent=s1^" + MAX_INT),
    refused("error: a number in the expression has more than 2150 digits",
            "vertex", "tp1", "--descendent=%s*%s" % (MAX_INT, MAX_INT)),
    # a chained power is refused rather than read in either associativity
    refused("error: chained power at position 4: write (x^a)^b",
            "vertex", "tp1", "--descendent=a1^2^3"),
    refused("error: chained power at position 7: write (x^a)^b",
            "vertex", "tp1", "--descendent=h^(1/2)^2"),
    refused("error: chained power at position 7: write (x^a)^b",
            "vertex", "tp1", "--descendent=h^(3/2)^(1/2)"),
    refused("error: chained power at position 4: write (x^a)^b", "mul", "tp1", "r[1] a1^2^3"),
    # an empty --descendent is no descendent, not the descendent 1
    refused("error: unexpected end of expression", "vertex", "tp1", "--descendent="),
    refused("error: unexpected end of expression",
            "vertex", "tp1", "--order", "1", "--descendent="),
    refused("error: unexpected end of expression",
            "qde-check", "tp1", "--circuit", "0", "--order", "1", "--descendent="),
    # an expression cut short names the position just past its end
    refused("error: expected ')' at position 3", "vertex", "tp1", "--descendent=(s1"),
    refused("error: expected integer at position 4", "vertex", "tp1", "--descendent=s1^("),
    refused("error: expected integer at position 4", "vertex", "tp1", "--descendent=s1^ "),
    refused("error: expected ')' at position 3", "mul", "tp1", "r[1] (a1"),
    # a character or token the grammar has no place for is named by position
    refused("error: syntax error at position 2: '$'", "vertex", "tp1", "--descendent=s1$"),
    refused("error: unexpected token ')' at position 2", "vertex", "tp1", "--descendent=s1)"),
    refused("error: syntax error at position 0: unexpected '*'",
            "vertex", "tp1", "--descendent=*s1"),
    refused("error: zero denominator in rational literal", "vertex", "tp1", "--descendent=1/0"),
    # an unknown variable is quoted by its first 40 characters, and a long
    # index is never converted
    refused("error: unknown variable '%s...'" % ("b" * 40),
            "vertex", "tp1", "--descendent=" + "b" * 5000),
    refused("error: unknown variable '%s...'" % LONG_KEY[:40],
            "vertex", "tp1", "--descendent=" + LONG_KEY),
    refused("error: unknown variable '%s...'" % ("Q" + "1" * 39), "mul", "tp1",
            "r[1] Q" + "1" * 5000),
    # division in a descendent, and in a scalar chunk of a generator word
    refused("error: division not allowed in descendents", "vertex", "tp1", "--descendent=s1/2"),
    refused("error: division not allowed in generator words", "mul", "a2", "r[1,0] s1/"),
    refused("error: division not allowed in generator words", "mul", "a2", "r[1,0] s1/(1-s2)"),
    refused("error: division not allowed in generator words", "mul", "a2", "r[1,0] (1+s1)^-1"),
    # a descendent that is not Weyl-invariant is quoted by its first 40
    refused("error: descendent '%s...' is not Weyl-invariant: w=(2,1) changes it"
            % ("s1" + "+s1" * 13)[:40], "vertex", "tgr24", "--descendent=s1" + "+s1" * 2000),
    *(refused("error: descendent %r is not Weyl-invariant: w=(2,1) changes it" % text,
              "vertex", "tgr24", "--order", "0", "--point", point, "--descendent", text)
      for point in ("1,6", "2,5") for text in ("s1", "a1*s1 - h", "s1^2*s2")),

    # -- exponents ---------------------------------------------------------------
    # an exponent over the limit is quoted by its first 40 digits
    refused("error: exponent %s... of s1 exceeds the limit 1048576" % ("9" * 40),
            "vertex", "tp1", "--descendent=s1^" + "9" * 2000),
    refused("error: exponent 2000000 of s1 exceeds the limit 1048576",
            "vertex", "tp1", "--descendent=s1^2000000"),
    refused("error: exponent -2097153/2 of h exceeds the limit 1048576",
            "vertex", "tp1", "--descendent=h^(-2097153/2)"),
    refused("error: exponent -2000000 of a1 exceeds the limit 1048576",
            "vertex", "tp1", "--descendent=(a1^-1000)^2000"),
    refused("error: exponent 1100000 of s1 exceeds the limit 1048576",
            "vertex", "tp1", "--descendent=s1^1000000*a2*s1^100000"),
    refused("error: exponent 2000000 of Q1 exceeds the limit 1048576",
            "mul", "tp1", "Q1^2000000 r[1]"),

    # -- generator words -----------------------------------------------------------
    refused("error: generator degree '%s...' has length 2001, expected 1" % ("r[" + "1," * 19),
            "mul", "tp1", "r[%s1]" % ("1," * 2000)),
    refused("error: generator %s...: degree entries must be integers" % ("r[" + "1-" * 19),
            "mul", "tp1", "r[%s1]" % ("1-" * 3000)),
    refused("error: generator r[1-2]: degree entries must be integers", "mul", "tp1", "r[1-2]"),
    refused("error: generator r[3000]: degree entry above the limit %d" % MAX_GENERATOR_DEGREE,
            "mul", "tp1", "r[3000] r[-3000]"),
    refused("error: generator R[-%d]: degree entry above the limit %d"
            % (MAX_GENERATOR_DEGREE + 1, MAX_GENERATOR_DEGREE),
            "mul", "tp1", "r[1] R[-%d]" % (MAX_GENERATOR_DEGREE + 1)),
    # a long entry is quoted by the first 40 characters of its generator
    refused("error: generator r[%s...: degree entry above the limit %d"
            % (MAX_INT[:38], MAX_GENERATOR_DEGREE), "mul", "tp1", "r[%s]" % MAX_INT),

    # -- points, circuits, orders and theta2 -------------------------------------
    # a point index is refused before it is converted, and printed by its
    # first 40 characters; leading zeros do not count
    *(refused("error: point index %s... out of range (0..1)" % LONG_INT[:40], command, "tp1",
              *extra, "--point", LONG_INT)
      for command, extra in (("vertex", ()), ("whittaker", ()), ("qde-check", ("--circuit", "0")))),
    refused("error: point index %s... out of range (0..1)" % ("1" * 40),
            "vertex", "tp1", "--point", "1" * 5000),
    refused("error: point index 2 out of range (0..1)", "vertex", "tp1", "--point", "0" * 5000 + "2"),
    # an index of 40 digits is printed whole, one of 41 cut after 40
    refused("error: point index %s out of range (0..1)" % ("9" * 40),
            "vertex", "tp1", "--point", "9" * 40),
    refused("error: point index %s... out of range (0..1)" % ("9" * 40),
            "vertex", "tp1", "--point", "9" * 41),
    # an empty --point names no point
    refused("error: bad --point ''", "vertex", "tp1", "--point="),
    refused("error: bad --point ''", "whittaker", "tp1", "--point="),
    refused("error: bad --point ''", "qde-check", "tp1", "--circuit", "0", "--point="),
    # a refused --point support is quoted by its first 40 characters, and so
    # is a support that names no fixed point
    refused("error: bad --point '%s...'" % ("1" * 40), "vertex", "tp1", "--point", "1" * 5000 + ","),
    refused("error: no fixed point with support {%s...}" % ("1" * 40),
            "vertex", "tp1", "--point", "1" * 4000 + ","),
    # a named fixed point that is not a lift is refused, naming the first lift
    refused(NOT_A_LIFT, "qde-check", "tgr24", "--circuit", "0", "--point", "1,5", "--order", "2"),
    # an --order or a --circuit out of range is quoted by its first 40 characters
    refused("error: --order must be at most 64, got %s..." % ("9" * 40),
            "vertex", "a2", "--order", "9" * 4000),
    refused("error: --order must be >= 0, got -%s..." % ("9" * 39),
            "vertex", "a2", "--order", "-" + "9" * 4000),
    refused("error: --order must be >= 0, got -1", "vertex", "tp1", "--order", "-1"),
    *(refused("error: --order must be at most 64, got %s" % order, command, "tp1",
              "--order", order, *(("--circuit", "0") if command == "qde-check" else ()))
      for command in ("vertex", "whittaker", "qde-check") for order in ("65", str(2 ** 62))),
    refused("error: circuit index %s... out of range" % ("9" * 40),
            "qde-check", "a2", "--circuit", "9" * 4000, "--order", "1"),
    # a second stability vector on a wall is refused by the wall's normal
    refused("error: theta2 on wall with normal (1,-1)", "wallcross", "a2", "--theta2=-1,-1"),
    refused("error: --theta2 must have 2 entries", "wallcross", "a2", "--theta2=1"),
    refused("error: --theta2 must be comma-separated integers, got '1,x'",
            "wallcross", "a2", "--theta2", "1,x"),
    refused("error: --theta2 must be comma-separated integers, got '%s...'" % ("1" * 40),
            "wallcross", "a2", "--theta2=" + "1" * 5000),

    # -- the parser: a refused value is quoted by its first 40 characters --------
    # the choices listed after an invalid command differ between Python
    # versions, so only the start of that line is compared
    refused("coulombkit: error: argument command: invalid choice: '%s...'" % ("b" * 40),
            "b" * 5000, None, prefix=True),
    refused("coulombkit: error: argument command: invalid choice: 'frob' (choose from ",
            "frob", None, prefix=True),
    refused("coulombkit vertex: error: argument --order: invalid int value: '%s...'" % ("9" * 40),
            "vertex", "tp1", "--order", "9" * 5000),
    # a value with a quote is printed in double quotes
    refused("coulombkit vertex: error: argument --order: invalid int value: \"'%s...\""
            % ("9" * 39), "vertex", "tp1", "--order", "'" + "9" * 5000),
    # an escape is one character, and the cut never splits one
    refused("coulombkit vertex: error: argument --order: invalid int value: '%s...'" % ("\\" * 80),
            "vertex", "tp1", "--order", "\\" * 5000 + "'\""),
    refused("coulombkit vertex: error: argument --order: invalid int value: 'abc'",
            "vertex", "tp1", "--order", "abc"),
    refused("coulombkit: error: unrecognized arguments: %s..." % ("b" * 40),
            "vertex", "tp1", "--descendent=s1", "b" * 5000),

    # -- model paths -------------------------------------------------------------
    refused(os_error(errno.ENAMETOOLONG, "b" * 40 + "..."), "vertex", None, "b" * 5000),
    refused(os_error(errno.ENOENT, "missing.json"), "circuits", None, "missing.json"),
    refused(os_error(errno.EISDIR, "."), "circuits", None, "."),
    refused(os_error(errno.EISDIR, "."), "analyze", None, "."),

    # -- model files -------------------------------------------------------------
    refused("error: subset {1,2} non-unimodular (det 2); model rejected as non-smooth",
            "analyze", "bad_nonunimodular"),
    refused("error: theta lies on wall spanned by {chi_1}", "analyze", "bad_wall"),
    refused("error: theta lies on wall spanned by {chi_1}", "circuits", "bad_wall"),
    refused("error: parse error in model.json: Expecting property name enclosed in double quotes",
            "circuits", "{not json", prefix=True),
    # an integer too long to convert, and nesting too deep to parse
    refused("error: parse error in model.json: ", "circuits",
            '{"chi": [[%s]], "theta": [1]}' % LONG_INT, prefix=True),
    refused("error: parse error in model.json: ", "circuits", "[" * 100000 + "]" * 100000,
            prefix=True),
    *(refused("error: " + message, "circuits", raw) for raw, message in [
        ("[]", "model file must hold a JSON object"),
        ("{}", "model file is missing 'chi'"),
        ('{"chi": [[1]]}', "model file is missing 'theta'"),
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
        ('{"chi": [], "theta": []}', "theta is empty: the gauge torus has rank 0")]),
    refused("error: theta is empty: the gauge torus has rank 0", "analyze",
            '{"chi": [], "theta": []}'),
    *(refused("error: row chi_2 has the entry %d, above the limit %d" % (entry, MAX_WEIGHT),
              "circuits", json.dumps({"chi": [[1, 0], [entry, 1]], "theta": [1, 1]}))
      for entry in (-MAX_WEIGHT - 1, 2 ** 40)),
    # a key written twice in one JSON object is refused by name, whichever of
    # its values would be read
    *(refused("error: parse error in model.json: the key %s is repeated in one object" % key,
              command, text)
      for text, key in [
          ('{"chi": [[1], [1]], "theta": [1], "chi": [[1], [1], [1]]}', "'chi'"),
          ('{"chi": [[1], [1]], "theta": [1], "a_specialization": {"a1": "a2", "a1": "h"}}',
           "'a1'"),
          ('{"chi": [[1], [1]], "theta": [1], "%s": 1, "%s": 2}' % ("b" * 5000, "b" * 5000),
           "'%s...'" % ("b" * 40))]
      for command in ("analyze", "circuits")),

    # -- flavor specializations --------------------------------------------------
    # a refused key is quoted by its first 40 characters, and its digits are
    # counted before any is converted
    *(refused("error: a_specialization key '%s...' is not a flavor variable" % key[:40],
              "circuits", aspec({key: "a2"})) for key in (LONG_KEY, "b" * 5000)),
    # two keys that name one flavor variable are refused, naming both, rather
    # than the later one winning
    *(refused("error: " + message, command, aspec(dict(zip(keys, ["a2", "h"]))))
      for keys, message in [
          (["a1", "a01"], "a_specialization keys 'a1' and 'a01' both name a1"),
          (["a002", "a2"], "a_specialization keys 'a002' and 'a2' both name a2"),
          (["a" + "0" * 50 + "1", "a1"],
           "a_specialization keys '%s...' and 'a1' both name a1" % ("a" + "0" * 39))]
      for command in ("analyze", "circuits")),
    # an image that several keys carry is refused under the first of them, in
    # file order
    refused("error: a_specialization 'a2': the image 's1' names a gauge variable; an image is a "
            "monomial in the a_i and h", "analyze", aspec({"a2": "s1", "a3": "h", "a1": "s1"}, 3)),
    refused("error: a_specialization 'a2': expected a monomial in the image 'a1+1'",
            "analyze", aspec({"a3": "h", "a2": "a1+1", "a1": "a1+1"}, 3)),
    # an image that names a gauge variable, or q
    *(refused("error: a_specialization 'a1': the image 's1' names a gauge variable; an image is "
              "a monomial in the a_i and h", command, aspec("s1"))
      for command in ("analyze", "circuits")),
    *(refused("error: a_specialization 'a1': the variable q is not allowed in the image 'q'",
              command, aspec("q")) for command in ("analyze", "circuits")),
    # every other refusal of an image names its key too
    *(refused("error: a_specialization 'a1': %s in the image '%s'" % (message, image),
              command, aspec(image)) for command in ("analyze", "circuits")
      for image, message in [("a2+1", "expected a monomial"),
                             ("a2^(1/3)", "only integer or half exponents are supported")]),
    # an image too deep to parse quotes at most its first 40 characters
    refused("error: a_specialization 'a1': nesting deeper than 100 at position 101 in the image "
            "'%s...'" % ("(" * 40), "circuits", aspec(DEEP_PARENS)),
    refused("error: a_specialization 'a1': nesting deeper than 100 at position 101 in the image "
            "'%s...'" % ("-" * 40), "circuits", aspec(DEEP_MINUS)),
    *(refused("error: a_specialization 'a1': " + message, "circuits", aspec(image))
      for image, message in [
          ("a2^-1*q", "the variable q is not allowed in the image 'a2^-1*q'"),
          ("a2/3", "division not allowed in the image 'a2/3'"),
          ("(a2+1)^-1", "division not allowed in the image '(a2+1)^-1'"),
          ("2*a2", "expected a monomial with coefficient 1 in the image '2*a2'"),
          ("b1", "unknown variable 'b1' in the image 'b1'"),
          ("a2^(1/2)", "half powers only allowed on q, h, Q variables in the image 'a2^(1/2)'"),
          ("((a2", "expected ')' at position 4 in the image '((a2'"),
          ("(a2)^(1/2)",
           "half powers only allowed on single variables in the image '(a2)^(1/2)'"),
          ("a2^99999999", "exponent 99999999 of a2 exceeds the limit 1048576 in the image "
                          "'a2^99999999'"),
          ("a1^-1048577", "exponent -1048577 of a1 exceeds the limit 1048576 in the image "
                          "'a1^-1048577'"),
          # an image of 40 characters is quoted whole, a longer one cut after 40
          ("a2+" + "1" * 37, "expected a monomial in the image 'a2+%s'" % ("1" * 37)),
          ("a2+" + "1" * 38, "expected a monomial in the image 'a2+%s...'" % ("1" * 37)),
          ("s1" + "*a2" * 20, "the image 's1%s...' names a gauge variable; an image is a "
                              "monomial in the a_i and h" % ("*a2" * 20)[:38]),
          ("b" * 5000, "unknown variable '%s...' in the image '%s...'" % ("b" * 40, "b" * 40))]),
]


def is_inline(model: str) -> bool:
    return model.startswith(("{", "["))


def case_argv(case: Case, directory: str) -> list:
    """The arguments of ``case`` run in ``directory``, once its inline model,
    if any, is written there as ``model.json``."""
    if case.model is None:
        return list(case.argv)
    if is_inline(case.model):
        with open(os.path.join(directory, "model.json"), "w", encoding="utf-8") as fh:
            fh.write(case.model)
        path = "model.json"
    else:
        path = os.path.join(DATA, case.model + ".json")
    return [case.argv[0], path] + list(case.argv[1:])


def case_id(case: Case) -> str:
    """The golden file of ``case``, else its command and the start of its
    last stderr line or, for a run that succeeds, of its arguments."""
    what = case.last if case.last is not None else " ".join(case.argv[1:])
    return case.golden or ("%s %s" % (case.argv[0][:20], what[:60])).strip()


def _cut(text: str) -> str:
    return repr(text if len(text) <= 80 else text[:80] + "...")


def problems(case: Case, code: int, out: str, err: str) -> list:
    """How a run of ``case`` that exited with ``code`` and printed ``out``
    and ``err`` differs from the case; empty when it does not."""
    found = [] if code == case.code else ["exit code %d, expected %d" % (code, case.code)]
    if case.last is None:
        if err:
            found.append("stderr %s, expected none" % _cut(err))
        if case.golden is None:
            if not out:
                found.append("nothing on stdout")
        else:
            with open(os.path.join(GOLDEN, case.golden), encoding="utf-8", newline="") as fh:
                if out != fh.read():
                    found.append("stdout differs from %s" % case.golden)
        return found
    if out:
        found.append("stdout %s, expected none" % _cut(out))
    head, _, last = err[:-1].rpartition("\n")
    if not (last.startswith(case.last) if case.prefix else last == case.last) \
            or not err.endswith("\n"):
        found.append("last stderr line %s, expected %s%s" % (
            _cut(last), _cut(case.last), " at its start" if case.prefix else ""))
    if case.last.startswith("coulombkit"):
        if not head.startswith("usage: coulombkit") or len(err) > MAX_PARSER_ERR:
            found.append("stderr %s is not the usage and one line of at most %d characters"
                         % (_cut(err), MAX_PARSER_ERR))
    elif head:
        found.append("stderr has lines before the last: %s" % _cut(head))
    return found
