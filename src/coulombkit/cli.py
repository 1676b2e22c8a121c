"""Model-file ingestion, descendent parsing, command dispatch, reporting.

Exit codes: 0 success / checks passed, 1 a verification command failed,
2 malformed input (model file, expression, flags).

The module keeps two per-process caches, and neither holds a model value:
the one argument parser (:func:`build_parser`) and the powers of ten of the
digit limit (``_power_of_ten``).
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .bethe import bethe_relations_q1, dmodule_relations, render_bethe_system
from .coulomb import CoulombAlgebra
from .exactring import (ExponentOverflowError, PoleEvaluationError, Poly, Scalar,
                        VariableTable, pack, scalar_str, scalar_structured)
from .hypertoric import (Cone, GaugeData, ModelError, circuits, eff_cone,
                         fixed_points)
from .vertex import Descendent, is_lift, qde_check, vertex_fp_nonab
from .wallcross import check_reversal, dmodule_match, make_scenario


# largest exponent on any base but a monomial with coefficient 1 or -1: the
# expansion of a sum, and the digits of a coefficient, grow with the power
MAX_SUM_POWER = 32
# deepest nesting of parentheses and unary minus signs; the parser recurses
MAX_NESTING = 100
# largest |entry| of a generator degree in a `mul` word; a structure constant
# has one kernel factor per unit of degree
MAX_GENERATOR_DEGREE = 64
# largest --order of `vertex`, `whittaker` and `qde-check`; the degrees
# enumerated grow as a power of the order
MAX_ORDER = 64
# largest number of term pairs one product in an expression may multiply;
# it bounds both the work of the product and the terms of its result
MAX_TERMS = 100_000
# largest |exponent| of a variable in an expression (a half power counts as
# its fraction): 2^20, far inside the 2^31 bound of a packed exponent slot,
# with room for the degree shifts and products a command applies
MAX_EXPONENT = 1 << 20
# most characters of a flavor image that a refusal quotes
MAX_IMAGE_QUOTE = 40


class ExprError(ValueError):
    """Syntax error in a descendent or scalar expression."""


class UsageError(ValueError):
    """A command-line flag value outside its allowed range."""


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z][a-zA-Z0-9]*|\*|\+|-|\^|/|\(|\))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprError("syntax error at position %d: %r" % (pos, text[pos:pos + 8]))
            break
        out.append((m.group(1), pos))
        pos = m.end()
    return out


_power_of_ten = lru_cache(maxsize=None)((10).__pow__)


def _check_digits(*numbers):
    """Refuse a number with more than half the digits an integer literal may
    have.  The rest is headroom: evaluation adds coefficients, and every
    number must print."""
    digits = sys.get_int_max_str_digits() // 2
    if digits and max(map(abs, numbers)) >= _power_of_ten(digits):
        raise ExprError("a number in the expression has more than %d digits" % digits)


def _checked_monomial(table: VariableTable, m: tuple) -> tuple:
    """m, once every exponent has passed :func:`_check_digits` and is at
    most ``MAX_EXPONENT`` in size (a half-variable exponent counts halved)."""
    _check_digits(*m)
    for idx, e in enumerate(m):
        half = table.is_half_variable(idx)
        if abs(e) > (2 * MAX_EXPONENT if half else MAX_EXPONENT):
            raise ExprError("exponent %s of %s exceeds the limit %d" % (
                _cap(str(Fraction(e, 2) if half else e)), table.var_label(idx), MAX_EXPONENT))
    return m


def _bounded(p: Poly, table: VariableTable) -> Poly:
    """p, unless a coefficient fails :func:`_check_digits` or an exponent a
    product formed fails :func:`_checked_monomial`."""
    for m, c in p.tuple_terms().items():
        _check_digits(c.numerator, c.denominator)
        _checked_monomial(table, m)
    return p


class _ExprParser:
    """Recursive descent over +, -, *, ^ with rational literals and variables.

    ``where`` ends the message that refuses a division, or a q where
    ``allow_q`` is false: " in descendents", or "" for a caller that names
    the place itself."""

    def __init__(self, table: VariableTable, text: str, allow_q: bool,
                 where: str = " in descendents"):
        self.table = table
        self.tokens = _tokenize(text)
        self.end = len(text)
        self.i = 0
        self.allow_q = allow_q
        self.where = where
        self.depth = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, what):
        if self.peek() != what:
            raise ExprError("expected %r at position %d" % (what, self._pos()))
        return self.next()

    def _pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.end

    def nested(self, parse) -> Poly:
        if self.depth >= MAX_NESTING:
            raise ExprError("nesting deeper than %d at position %d" % (MAX_NESTING, self._pos()))
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p

    def parse(self) -> Poly:
        p = self.expr()
        if self.i != len(self.tokens):
            raise ExprError("unexpected token %r at position %d" % (self.peek(), self._pos()))
        return _bounded(p, self.table)

    def expr(self) -> Poly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            if self.peek() == "*":
                self.next()
                p = self._product(p, self.factor())
            elif self.peek() == "/":
                raise ExprError("division not allowed" + self.where)
            else:
                return p

    def factor(self) -> Poly:
        if self.peek() == "-":
            self.next()
            return -self.nested(self.factor)
        p, is_var = self.atom()
        if self.peek() == "^":
            self.next()
            num, den = self.exponent()
            if self.peek() == "^":
                raise ExprError("chained power at position %d: write (x^a)^b" % self._pos())
            p = self._power(p, is_var, num, den)
        return p

    def exponent(self):
        if self.peek() == "(":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            num = self.expect_number()
            self.expect("/")
            den = self.expect_number()
            self.expect(")")
            return sign * num, den
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        return sign * self.expect_number(), 1

    def expect_number(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ExprError("expected integer at position %d" % self._pos())
        pos = self._pos()
        self.next()
        try:
            return int(tok)
        except ValueError:
            raise ExprError("integer at position %d has more than %d digits"
                            % (pos, sys.get_int_max_str_digits()))

    def _power(self, p: Poly, is_var, num, den) -> Poly:
        if den not in (1, 2):
            raise ExprError("only integer or half exponents are supported")
        if is_var is not None:
            idx, half_units = is_var
            if den == 2:
                if not self.table.is_half_variable(idx):
                    raise ExprError("half powers only allowed on q, h, Q variables")
                e = num
            else:
                e = num * half_units
            return Poly.monomial(_checked_monomial(self.table, self.table.mono({idx: e})))
        if den == 2:
            raise ExprError("half powers only allowed on single variables")
        if num < 0 and not (p.is_monomial() and next(iter(p.terms.values())) == 1):
            raise ExprError("division not allowed" + self.where)
        if num > MAX_SUM_POWER and not (p.is_monomial() and abs(next(iter(p.terms.values()))) == 1):
            raise ExprError("power %d of %s exceeds the limit %d" % (
                num, "a sum" if len(p.terms) > 1 else "a coefficient", MAX_SUM_POWER))
        if p.is_monomial():
            (m, c), = p.tuple_terms().items()
            c = Fraction(c) ** num
            _check_digits(c.numerator, c.denominator)
            return Poly.monomial(_checked_monomial(self.table, tuple(e * num for e in m)), c)
        out = Poly.one(p.w)
        while num:
            if num & 1:
                out = self._product(out, p)
            num >>= 1
            if num:
                p = self._product(p, p)
        return _bounded(out, self.table)

    def _product(self, a: Poly, b: Poly) -> Poly:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise ExprError("a product of %d and %d terms exceeds the limit of %d term pairs"
                            % (len(a.terms), len(b.terms), MAX_TERMS))
        return a * b

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if tok == "(":
            self.next()
            p = self.nested(self.expr)
            self.expect(")")
            return p, None
        if tok.isdigit():
            num = self.expect_number()
            if self.peek() == "/":
                self.next()
                den = self.expect_number()
                if den == 0:
                    raise ExprError("zero denominator in rational literal")
                return Poly.monomial(self.table.unit(), Fraction(num, den)), None
            return Poly.monomial(self.table.unit(), num), None
        if not tok[0].isalpha():
            raise ExprError("syntax error at position %d: unexpected %r" % (self._pos(), tok))
        self.next()
        idx = self._variable(tok)
        half_units = 2 if self.table.is_half_variable(idx) else 1
        return Poly.monomial(self.table.mono({idx: half_units})), (idx, half_units)

    def _variable(self, name: str) -> int:
        table = self.table
        if name == "h":
            return 1
        if name == "q":
            if not self.allow_q:
                raise ExprError("the variable q is not allowed" + self.where)
            return 0
        m = re.fullmatch(r"a(\d+)", name)
        if m and 1 <= int(m.group(1)) <= table.n:
            return table.a(int(m.group(1)) - 1)
        m = re.fullmatch(r"s(\d+)", name)
        if m and 1 <= int(m.group(1)) <= table.k:
            return table.s(int(m.group(1)) - 1)
        m = re.fullmatch(r"Q(\d+)", name)
        if m and self.allow_q and 1 <= int(m.group(1)) <= table.k:
            return table.qvar(int(m.group(1)) - 1)
        raise ExprError("unknown variable %s" % _image_quote(name))


def parse_descendent(text: str, table: VariableTable) -> Descendent:
    poly = _ExprParser(table, text, allow_q=False).parse()
    return Descendent(poly)


def parse_scalar_expr(text: str, table: VariableTable) -> Poly:
    """A scalar chunk of a generator word, in which q may occur."""
    return _ExprParser(table, text, allow_q=True, where=" in generator words").parse()


def _cap(text: str) -> str:
    """``text`` cut after MAX_IMAGE_QUOTE characters with ``...``."""
    return text if len(text) <= MAX_IMAGE_QUOTE else text[:MAX_IMAGE_QUOTE] + "..."


def _image_quote(text: str) -> str:
    """``text`` quoted, cut as :func:`_cap` cuts it."""
    return repr(_cap(text))


# a value (a repr) of more than MAX_IMAGE_QUOTE characters in an argparse refusal
_LONG_QUOTE = re.compile(r"""(['"])((?:\\.|(?!\1)[^\\]){%d})(?:\\.|(?!\1)[^\\])+\1"""
                         % MAX_IMAGE_QUOTE)


def _parse_monomial_image(name: str, text: str, table: VariableTable) -> tuple:
    """The exponents of ``text``, the image of the flavor variable ``name``;
    every refusal names the key and the start of the image."""
    try:
        poly = _ExprParser(table, text, allow_q=False, where="").parse()
        if not poly.is_monomial():
            raise ExprError("expected a monomial")
        (m, c), = poly.tuple_terms().items()
        if c != 1:
            raise ExprError("expected a monomial with coefficient 1")
    except ExprError as exc:
        raise ExprError("a_specialization %s: %s in the image %s"
                        % (_image_quote(name), exc, _image_quote(text)))
    return m


# ---------------------------------------------------------------------------
# generator words for `mul`
# ---------------------------------------------------------------------------

_GEN = re.compile(r"\s*([rR])\[([-0-9,\s]*)\]")


def parse_generator_word(text: str, alg: CoulombAlgebra):
    """Juxtaposed product of r[d...], R[d...] and scalar chunks, multiplied in as read."""
    element = alg.one()
    pos = 0
    while pos < len(text):
        m = _GEN.match(text, pos)
        if m:
            typed = m.group(0).strip()
            entries = [e for e in re.split(r"[,\s]+", m.group(2)) if e]
            if not all(re.fullmatch(r"-?\d+", e) for e in entries):
                raise ExprError("generator %s: degree entries must be integers" % _cap(typed))
            # compare digit counts first: a long entry is never converted
            if any(len(e.lstrip("-0")) > len(str(MAX_GENERATOR_DEGREE))
                   or abs(int(e)) > MAX_GENERATOR_DEGREE for e in entries):
                raise ExprError("generator %s: degree entry above the limit %d"
                                % (_cap(typed), MAX_GENERATOR_DEGREE))
            d = tuple(int(e) for e in entries)
            if len(d) != alg.data.k:
                raise ExprError("generator degree %s has length %d, expected %d"
                                % (_image_quote(typed), len(d), alg.data.k))
            gen = alg.r(d) if m.group(1) == "r" else alg.mixed_generator(d)
            element = alg.mul(element, gen)
            pos = m.end()
            continue
        nxt = _GEN.search(text, pos)
        end = nxt.start() if nxt else len(text)
        if text[pos:end].strip():
            poly = parse_scalar_expr(text[pos:end].strip(), alg.table)
            element = alg.mul(element, alg.cartan(Scalar.from_poly(poly)))
        pos = end
    return element


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key it writes twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ModelError("the key %s is repeated in one object" % _image_quote(key))
        out[key] = value
    return out


def load_model(path: str) -> GaugeData:
    with open(path, "r") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # bad JSON, or an over-long integer
            raise ModelError("parse error in %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ModelError("model file must hold a JSON object")
    for key in ("chi", "theta"):
        if key not in raw:
            raise ModelError("model file is missing %r" % key)
    if not (isinstance(raw["chi"], list)
            and all(isinstance(row, list) and all(_is_int(x) for x in row)
                    for row in raw["chi"])):
        raise ModelError("'chi' must be a list of integer lists")
    if not (isinstance(raw["theta"], list) and all(_is_int(x) for x in raw["theta"])):
        raise ModelError("'theta' must be a list of integers")
    blocks, labels, aspec_raw = (raw.get(key) for key in ("blocks", "labels", "a_specialization"))
    if blocks is not None and not (isinstance(blocks, list)
                                   and all(_is_int(b) and b > 0 for b in blocks)):
        raise ModelError("'blocks' must be a list of positive integers")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise ModelError("'labels' must be a list of strings")
    if aspec_raw is not None and not (isinstance(aspec_raw, dict)
                                      and all(isinstance(x, str) for x in aspec_raw.values())):
        raise ModelError("'a_specialization' must be a JSON object of strings")
    aspec = table = None
    if aspec_raw:
        table = VariableTable(len(raw["chi"]), len(raw["theta"]))
        aspec, names, images = {}, {}, {}
        for name, expr in aspec_raw.items():
            m = re.fullmatch(r"a(\d+)", name)
            # compare digit counts first: a long index is never converted
            row = m.group(1).lstrip("0") if m else ""
            if not row or len(row) > len(str(table.n)) or int(row) > table.n:
                raise ModelError("a_specialization key %s is not a flavor variable"
                                 % _image_quote(name))
            if row in names:
                raise ModelError("a_specialization keys %s and %s both name a%s"
                                 % (_image_quote(names[row]), _image_quote(name), row))
            names[row] = name
            image = images.get(expr)
            if image is None:  # a new image, parsed and refused under its first key
                image = images[expr] = _parse_monomial_image(name, expr, table)
                if any(image[table.s(j)] for j in range(table.k)):
                    raise ModelError("a_specialization %s: the image %s names a gauge variable; "
                                     "an image is a monomial in the a_i and h"
                                     % (_image_quote(name), _image_quote(expr)))
            aspec[int(row) - 1] = image
    return GaugeData.create(raw["chi"], raw["theta"], blocks=blocks, a_specialization=aspec,
                            table=table)


def _select_point(pts: list, spec: str):
    """The point an index (``1``) or a 1-based support (``1,3``) names; a
    trailing comma makes a support of one element (``1,``)."""
    if re.fullmatch(r"\d+", spec):
        # compare digit counts first: a long index is never converted
        idx = spec.lstrip("0") or "0"
        if len(idx) > len(str(len(pts))) or int(idx) >= len(pts):
            raise ModelError("point index %s out of range (0..%d)" % (_cap(idx), len(pts) - 1))
        return pts[int(idx)]
    body = spec[:-1] if spec.endswith(",") else spec
    try:
        support = tuple(sorted(int(x) - 1 for x in body.split(",")))
    except ValueError:
        raise ModelError("bad --point %s" % _image_quote(spec))
    for p in pts:
        if p.support == support:
            return p
    raise ModelError("no fixed point with support {%s}" % _cap(body))


def _select_lift(alg: CoulombAlgebra, pts: list, spec: str | None):
    """The point of `vertex` and `whittaker` among the fixed points ``pts``:
    the chosen one, by default the first lift of an isolated fixed point (see
    :func:`vertex.is_lift`).  A chosen point that is not a lift is refused,
    naming the first lift."""
    first = next((p for p in pts if is_lift(alg, p)), None)
    if spec is None and first is not None:
        return first
    p = _select_point(pts, "0" if spec is None else spec)
    if not is_lift(alg, p):
        hint = "; the first lift is %s (--point %s)" % (
            first.label(), ",".join(str(i + 1) for i in first.support)) if first else ""
        raise ModelError("fixed point %s is not a lift of an isolated fixed point%s"
                         % (p.label(), hint))
    return p


def _check_weyl_invariant(alg: CoulombAlgebra, tau: Descendent, text: str):
    """Refuse a descendent of a block model that some permutation w of the
    s_j within a block changes, once the flavor specialization is applied:
    a nonabelian descendent is a Weyl-invariant class, and the series of one
    that is not would depend on the lift.  The swaps of neighbouring s_j in
    a block generate the Weyl group, so they are the ones tried."""
    table = alg.table
    x = tau.as_scalar().subs(alg.flavor_map)
    for w in alg.data.weyl_swaps():
        swap = {table.s(j): table.packed({table.s(dst): 1}) for j, dst in enumerate(w) if j != dst}
        if x.subs(swap, table.width) != x:
            raise ExprError("descendent %s is not Weyl-invariant: w=(%s) changes it"
                            % (_image_quote(text), ",".join(str(j + 1) for j in w)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _degree_report(table, terms: dict, as_json: bool, line: str, head: str):
    """The values of ``terms``, a dict from degree to scalar, in degree order:
    a list of ``{"degree", "value"}`` records, or the text ``head`` followed by
    ``line`` formatted with each degree ``d`` and value ``v``."""
    items = sorted(terms.items())
    if as_json:
        return [{"degree": list(d), "value": scalar_structured(f)} for d, f in items]
    return head + "".join(line.format(d=_vector(d), v=scalar_str(table, f))
                          for d, f in items)


def _verdict_report(out, records: list, as_json: bool, line) -> int:
    """Print one record per check, each with a ``"passed"`` entry: as a JSON
    list, or as ``line(record, "PASS" or "FAIL")`` each.  The exit code is 0
    when every check passed, else 1."""
    if as_json:
        _print(out, records)
    else:
        for r in records:
            _print(out, line(r, "PASS" if r["passed"] else "FAIL"))
    return 0 if all(r["passed"] for r in records) else 1


def _vector(v) -> str:
    return ",".join(map(str, v))


def _cone_json(c: Cone):
    return {"generators": [list(g) for g in c.generators],
            "facet_normals": [list(f) for f in c.facet_normals]}


def _print(out, payload):
    if isinstance(payload, str):
        out.write(payload)
    else:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def dispatch(args, out=None) -> int:
    """Run one parsed command, printing to ``out`` (``sys.stdout`` at call time)."""
    out = sys.stdout if out is None else out
    if getattr(args, "order", 0) < 0:
        raise UsageError("--order must be >= 0, got %s" % _cap(str(args.order)))
    if getattr(args, "order", 0) > MAX_ORDER:
        raise UsageError("--order must be at most %d, got %s" % (MAX_ORDER, _cap(str(args.order))))
    alg = CoulombAlgebra(load_model(args.model))
    try:
        return COMMANDS[args.command][0](args, out, alg)
    except ExponentOverflowError as exc:
        # the exponent is out of bounds, so it is not packed to be printed
        raise UsageError("%s leaves the exponent bound 2^31 of a packed slot"
                         % alg.table.power_str(exc.index, exc.exponent))


def _descendent(args, table: VariableTable) -> Descendent:
    """The ``--descendent`` of `vertex` and `qde-check`, by default 1."""
    if args.descendent is None:
        return Descendent(Poly.one(table.width))
    return parse_descendent(args.descendent, table)


def _circuits(args, out, alg: CoulombAlgebra) -> int:
    cs = circuits(alg.data)
    if args.json:
        _print(out, [{"vector": list(c.vector), "wall_rows": sorted(i + 1 for i in c.wall_rows)}
                     for c in cs])
    else:
        for idx, c in enumerate(cs):
            _print(out, "rho[%d] = (%s)  wall rows {%s}\n" % (
                idx, _vector(c.vector), ",".join(str(i + 1) for i in sorted(c.wall_rows))))
    return 0


def _fixed_points(args, out, alg: CoulombAlgebra) -> int:
    pts = fixed_points(alg.data)
    # a model file that gives blocks marks the points `vertex` and `whittaker` accept
    lifts = [is_lift(alg, p) for p in pts] if alg.data.blocks else [None] * len(pts)
    if args.json:
        _print(out, [_point_json(alg.table, p, lift) for p, lift in zip(pts, lifts)])
    else:
        for idx, (p, lift) in enumerate(zip(pts, lifts)):
            _print(out, _point_text(alg.table, idx, p, lift))
    return 0


def _analyze(args, out, alg: CoulombAlgebra) -> int:
    data = alg.data
    cs = circuits(data)
    cone = eff_cone(data)
    pts = fixed_points(data)
    if args.json:
        _print(out, {
            "n": data.n, "k": data.k,
            "circuits": [list(c.vector) for c in cs],
            "effective_cone": _cone_json(cone),
            "kahler_chamber_generators": [list(f) for f in cone.facet_normals],
            "fixed_points": [_point_json(alg.table, p) for p in pts],
        })
        return 0
    _print(out, "model: n=%d k=%d%s\n" % (
        data.n, data.k, " blocks=%r" % (list(data.blocks),) if data.blocks else ""))
    for idx, c in enumerate(cs):
        _print(out, "rho[%d] = (%s)\n" % (idx, _vector(c.vector)))
    _print(out, "effective cone generators: %s\n"
           % "; ".join("(%s)" % _vector(g) for g in cone.generators))
    _print(out, "chamber of theta generated by: %s\n"
           % "; ".join("(%s)" % _vector(f) for f in cone.facet_normals))
    for idx, p in enumerate(pts):
        _print(out, _point_text(alg.table, idx, p))
    return 0


def _vertex(args, out, alg: CoulombAlgebra) -> int:
    p = _select_lift(alg, fixed_points(alg.data), args.point)
    tau = _descendent(args, alg.table)
    if alg.data.blocks:
        _check_weyl_invariant(alg, tau, args.descendent)
    series = vertex_fp_nonab(alg, p, tau, args.order)
    report = _degree_report(alg.table, series.coeffs, args.json, "Q^({d}): {v}\n",
                            "order %d\n" % series.order)
    _print(out, {"order": series.order, "coefficients": report} if args.json else report)
    return 0


def _whittaker(args, out, alg: CoulombAlgebra) -> int:
    p = _select_lift(alg, fixed_points(alg.data), args.point)
    w = alg.verma_module(p).whittaker_vector(args.order)
    _print(out, _degree_report(alg.table, w.terms, args.json, "[{d}]: {v}\n",
                               "order %d\n" % args.order))
    return 0


def _qde_check(args, out, alg: CoulombAlgebra) -> int:
    cs = circuits(alg.data)
    if not 0 <= args.circuit < len(cs):
        raise ModelError("circuit index %s out of range" % _cap(str(args.circuit)))
    tau = _descendent(args, alg.table)
    pts = fixed_points(alg.data)
    sel = [_select_lift(alg, pts, args.point)] if args.point is not None else \
        [p for p in pts if is_lift(alg, p)]
    rho = cs[args.circuit].vector
    records = [{"circuit": list(rho), "point": p.label(),
                "passed": not qde_check(alg, p, tau, rho, args.order)} for p in sel]
    return _verdict_report(out, records, args.json, lambda r, verdict: (
        "%s circuit (%s) at %s\n" % (verdict, _vector(rho), r["point"])))


def _bethe(args, out, alg: CoulombAlgebra) -> int:
    rels = bethe_relations_q1(alg) if args.q1 else dmodule_relations(alg)
    _print(out, render_bethe_system(alg, rels, "json" if args.json else "text"))
    return 0


def _mul(args, out, alg: CoulombAlgebra) -> int:
    element = parse_generator_word(args.word, alg)
    _print(out, _degree_report(alg.table, element.terms, args.json, "({v}) r[{d}]\n",
                               "0\n" if element.is_zero() else ""))
    return 0


def _wallcross(args, out, alg: CoulombAlgebra) -> int:
    try:
        theta2 = tuple(int(x) for x in args.theta2.split(","))
    except ValueError:
        raise UsageError("--theta2 must be comma-separated integers, got %s"
                         % _image_quote(args.theta2))
    if len(theta2) != alg.data.k:
        raise ModelError("--theta2 must have %d entries" % alg.data.k)
    scn = make_scenario(alg, theta2)
    # a list, not a generator, in all(): both checks run for every circuit
    records = [{"circuit": list(rho), "reversing": rho in scn.reversing,
                "passed": all([check_reversal(scn, rho), dmodule_match(scn, rho)])}
               for rho in list(scn.reversing) + list(scn.kept)]
    return _verdict_report(out, records, args.json, lambda r, verdict: (
        "%s circuit (%s): %s\n" % ("reversing" if r["reversing"] else "kept",
                                   _vector(r["circuit"]), verdict)))


# an argument after the model and --json: (name, keyword arguments of add_argument)
_ORDER = ("--order", {"type": int, "default": 3})
_POINT = ("--point", {"default": None, "help": "fixed point: index or 1-based support like 1,2"})
_DESCENDENT = ("--descendent", {"default": None})

# every subcommand, in the order of --help: the function that runs it on
# (args, out, algebra) and returns the exit code, and its further arguments
COMMANDS = {
    "analyze": (_analyze, ()),
    "circuits": (_circuits, ()),
    "fixed-points": (_fixed_points, ()),
    "vertex": (_vertex, (_ORDER, _POINT, _DESCENDENT)),
    "whittaker": (_whittaker, (_ORDER, _POINT)),
    "qde-check": (_qde_check, (_ORDER, _POINT, ("--circuit", {"type": int, "required": True}),
                               _DESCENDENT)),
    "bethe": (_bethe, (("--q1", {"action": "store_true"}),)),
    "mul": (_mul, (("word", {"help": "generator word, e.g. \"r[1,0] r[-1,0]\""}),)),
    "wallcross": (_wallcross, (("--theta2", {
        "required": True,
        "help": "comma-separated integers; a negative first entry as --theta2=-1,-1"}),)),
}


def _point_json(table, p, lift=None):
    """The point's fields, with ``"lift"`` when ``lift`` is not None."""
    out = {"support": [i + 1 for i in p.support],
           "plus": sorted(i + 1 for i in p.plus),
           "minus": sorted(i + 1 for i in p.minus),
           "rays": [list(r) for r in p.rays],
           "restriction": {"s%d" % (j + 1): table.packed_str(pack(m))
                           for j, m in sorted(p.restriction.items())}}
    if lift is not None:
        out["lift"] = lift
    return out


def _point_text(table, idx, p, lift=None):
    """Two lines per point; ``lift`` follows the label of a lift."""
    rest = "  ".join("s%d -> %s" % (j + 1, table.packed_str(pack(m)))
                     for j, m in sorted(p.restriction.items()))
    return "p[%d] %s  plus={%s} minus={%s}  rays: %s\n  %s\n" % (
        idx, p.label() + (" lift" if lift else ""),
        ",".join(str(i + 1) for i in sorted(p.plus)),
        ",".join(str(i + 1) for i in sorted(p.minus)),
        "; ".join("(%s)" % _vector(r) for r in p.rays),
        rest)


@lru_cache(maxsize=None)
def build_parser():
    """The process's one argument parser, built (and ``argparse`` imported) on
    the first call.  Nothing in it depends on a request, and parsing does not
    change it, so every command shares it; callers must not add arguments to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # a refused value cut as _cap cuts; the subparsers share this class
            super().error(_LONG_QUOTE.sub(r"\1\2...\1", message))

    ap = Parser(prog="coulombkit", description="exact engine for convolution-algebra models")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, arguments) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("model", help="path to the JSON model file")
        sp.add_argument("--json", action="store_true")
        for flag, options in arguments:
            sp.add_argument(flag, **options)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args, extra = ap.parse_known_args(argv)
        if extra:
            ap.error("unrecognized arguments: %s" % _cap(" ".join(extra)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to os.devnull,
        # so the interpreter's final flush cannot raise, and report it as exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ModelError, ExprError, UsageError, OSError, PoleEvaluationError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # a model path that is missing, a directory, unreadable or too long
            exc = "[Errno %s] %s: %s" % (exc.errno, exc.strerror, _image_quote(exc.filename))
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
