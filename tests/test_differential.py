"""Differential tests: Scalar arithmetic against sympy's rational functions.

Random Laurent rational functions are built twice, as a factored Scalar and
as a sympy expression, pushed through the same operations, and compared
by cross-multiplying sympy's fractions; poles are decided on
``sympy.cancel``'s reduced denominator.  Atoms are drawn as powers g^e, e in {1, -1, 2, -2},
of a few primitive monomials, so products pair (1 - g) with (1 - g^-1) and
(1 - g^2), and substitutions can send an atom to 1 (a pole, or a factor
that cancels against the numerator).

The same values also check the coefficient invariant: every coefficient is
an ``int`` when integral, otherwise a ``Fraction``, and never a float.
"""

import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from coulombkit import PoleEvaluationError, Poly, Scalar, VariableTable  # noqa: E402
from coulombkit.cli import ExprError, parse_scalar_expr  # noqa: E402
from coulombkit.exactring import (SumInverseError, _psi_image, mono_str, pack,  # noqa: E402
                                  scalar_from_structured, scalar_str, scalar_structured,
                                  specialize_q1)
from coulombkit.pochhammer import (hq_product, hq_ratio, hq_ratio_inv, poch,  # noqa: E402
                                   poch_product, sign_kernel)

from conftest import binomial_atoms, mono_pow, mono_subs  # noqa: E402

T = VariableTable(1, 1)  # q^(1/2), h^(1/2), a1, s1, Q1^(1/2)
W = T.width
Z = sympy.symbols("z0:%d" % W)
UNIT = (0,) * W
BASES = [(0, 0, 0, 1, 0), (2, 0, 0, 1, 0), (0, 0, 1, -1, 0), (0, 2, 1, 0, 0), (1, 0, 0, 0, 0)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def scaled(x: Scalar, c) -> Scalar:
    """x times the rational constant c, by the engine's product."""
    return x * Scalar.monomial(UNIT, c)


def mono_expr(m):
    return sympy.Mul(*[z ** e for z, e in zip(Z, m) if e])


def poly_expr(terms):
    return sympy.Add(*[sympy.Rational(str(c)) * mono_expr(m) for m, c in terms])


def engine_expr(x: Scalar):
    """The value of x read from its lossless structured form."""
    data = scalar_structured(x)
    value = poly_expr([(m, c) for c, m in data["num"]]) * mono_expr(data["pre"])
    for g, mult in data["atoms"]:
        value /= (1 - mono_expr(g)) ** mult
    return value


def same(a, b) -> bool:
    """a == b as rational functions, by cross-multiplying sympy's fractions."""
    (na, da), (nb, db) = (map(lambda e: sympy.Poly(e, *Z), sympy.fraction(sympy.together(v)))
                          for v in (a, b))
    return (na * db - nb * da).is_zero


coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(5, 7)])
monos = st.tuples(*[st.integers(-2, 2)] * W)
atoms = st.dictionaries(
    st.builds(mono_pow, st.sampled_from(BASES), st.sampled_from([1, -1, 2, -2])),
    st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3)


@st.composite
def factored(draw):
    """c * monomial * prod (1 - g)^(-m): the shape of every Pochhammer ratio."""
    c, pre, ats = draw(coeffs), draw(monos), draw(atoms)
    x = Scalar(W, Poly.monomial(UNIT, c), pre=pre, atoms=ats)
    expr = sympy.Rational(str(c)) * mono_expr(pre)
    for g, mult in ats.items():
        expr *= (1 - mono_expr(g)) ** (-mult)
    return x, expr


@SETTINGS
@given(coeffs, monos, atoms)
def test_rendering_does_not_depend_on_factoring(c, pre, ats):
    """The structured form reads back to the value, and the text of a product
    shows each numerator binomial as a factor, in one of its orientations."""
    x = Scalar(W, Poly.monomial(UNIT, c), pre=pre, atoms=ats)
    assert scalar_from_structured(W, scalar_structured(x)) == x
    head = scalar_str(T, x).split(" / ( ")[0]
    factors = {re.sub(r"\^\d+$", "", f) for f in head.split(" * ")}
    for g, mult in binomial_atoms(x).items():
        if mult < 0:
            assert {"(1 - %s)" % mono_str(T, h) for h in (g, mono_pow(g, -1))} & factors, g


# a Pochhammer argument carries a1, so no binomial of its symbol is 1 - 1
arguments = st.builds(lambda a, m: m[:2] + (a,) + m[3:],
                      st.sampled_from([-2, -1, 1, 2]), monos)
symbols = st.lists(st.tuples(arguments, st.integers(-4, 4), st.sampled_from([1, -1])),
                   max_size=5)


def same_rendering(x: Scalar, y: Scalar) -> bool:
    return x == y and scalar_str(T, x) == scalar_str(T, y) \
        and scalar_structured(x) == scalar_structured(y)


@SETTINGS
@given(symbols)
def test_hq_product_is_the_product_of_its_factors(factors):
    """One atom dict per kernel product gives the value, and the text, of
    multiplying the factors one at a time from the left."""
    expected = Scalar.one(W)
    for x, d, power in factors:
        expected = expected * (hq_ratio(x, d) if power > 0 else hq_ratio_inv(x, d))
    assert same_rendering(hq_product(W, [(pack(x), d, p) for x, d, p in factors]), expected)


@SETTINGS
@given(symbols, st.integers(-4, 4))
def test_poch_product_is_the_product_of_its_symbols(symbols, e):
    expected = sign_kernel(e, W)
    for x, d, power in symbols:
        expected = expected * (poch(x, d) if power > 0 else poch(x, d).inv())
    assert same_rendering(poch_product(W, [(pack(x), d, p) for x, d, p in symbols], e),
                          expected)


@st.composite
def sums(draw):
    """A nonzero Laurent polynomial with up to three terms."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-1, 1)] * W), coeffs,
                                 min_size=1, max_size=3))
    return Scalar.from_poly(Poly.from_terms(W, terms.items())), poly_expr(terms.items())


@st.composite
def values(draw):
    """A factored value, a sum, their product, or a sum of factored values."""
    kind = draw(st.sampled_from(["factored", "sum", "product", "added"]))
    if kind == "factored":
        return draw(factored())
    if kind == "sum":
        return draw(sums())
    (x, ex), (y, ey) = draw(factored()), draw(st.one_of(sums(), factored()))
    return (x * y, ex * ey) if kind == "product" else (x + y, ex + ey)


OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@SETTINGS
@given(values(), values(), st.sampled_from(sorted(OPS)))
def test_arithmetic_matches_sympy(xa, ya, op):
    (x, ex), (y, ey) = xa, ya
    assume(op != "/" or not y.is_zero())
    if op == "/" and not y.num.is_monomial():
        with pytest.raises(SumInverseError):
            x / y
        return
    got = OPS[op](x, y)
    assert same(engine_expr(got), OPS[op](ex, ey))


@SETTINGS
@given(values())
def test_inverse_matches_sympy_and_negates_atoms(xa):
    x, ex = xa
    assume(not x.is_zero())
    if not x.num.is_monomial():
        with pytest.raises(SumInverseError):
            x.inv()
        return
    xi = x.inv()
    assert same(engine_expr(xi), 1 / ex)
    assert x * xi == Scalar.one(W)
    assert xi.atoms == {k: -mult for k, mult in x.atoms.items()}


@SETTINGS
@given(values(), values(), st.sampled_from(["commute", "div-mul", "add-sub", "random"]))
def test_equality_decides_like_sympy(xa, ya, how):
    (x, ex), (y, ey) = xa, ya
    assume(how != "div-mul" or y.num.is_monomial())
    if how == "commute":
        lhs, rhs, elhs, erhs = x * y, y * x, ex * ey, ey * ex
    elif how == "div-mul":
        lhs, rhs, elhs, erhs = (x / y) * y, x, ex, ex
    elif how == "add-sub":
        lhs, rhs, elhs, erhs = (x + y) - y, x, ex, ex
    else:
        lhs, rhs, elhs, erhs = x, y, ex, ey
    assert (lhs == rhs) == same(elhs, erhs)
    assert (rhs == lhs) == (lhs == rhs)


RING = sympy.ring(Z, sympy.QQ)[0]


def polynomial(terms):
    """The Laurent polynomial ``{monomial: coefficient}`` times the monomial
    that makes its least exponents 0, in sympy's sparse ring: a polynomial
    no variable divides."""
    low = [min(m[i] for m in terms) for i in range(W)]
    return RING.from_dict({tuple(e - lo for e, lo in zip(m, low)): sympy.QQ(c.numerator,
                                                                            c.denominator)
                           for m, c in terms.items()})


def assert_reduced(x: Scalar):
    """The normal form's invariant: no denominator atom divides the sum part.

    Cleared of monomials, psi_d(r) is prime to every variable, so it divides
    the sum part exactly when it divides the cleared polynomial; a single
    divisor is a Groebner basis of its ideal, so sympy's remainder decides.
    """
    if len(x.num.terms) < 2:
        return
    num = polynomial(x.num.tuple_terms())
    for (r, d), mult in x.tuple_atoms().items():
        if mult > 0:
            psi = sympy.Poly(sympy.cyclotomic_poly(d, sympy.Symbol("t")), sympy.Symbol("t"))
            atom = polynomial({mono_pow(r, k): Fraction(int(c)) for (k,), c in psi.terms()})
            assert num.rem(atom), ((r, d), x)


def test_psi_image_matches_sympy_cyclotomic_polynomials():
    """psi_d(x^p) = prod over e in _psi_image(d, p) of psi_e(x), with
    psi_1 = 1 - x and psi_d = Phi_d for d > 1, checked against sympy."""
    x = sympy.Symbol("x")

    def psi(d, arg):
        if d == 1:
            return sympy.Poly(1 - arg, x)
        return sympy.Poly(sympy.cyclotomic_poly(d, x).subs(x, arg), x)

    for d in range(1, 13):
        assert _psi_image(d, 1) == [d]
        for p in range(1, 13):
            product = sympy.Poly(1, x)
            for e in _psi_image(d, p):
                product *= psi(e, x)
            assert product == psi(d, x ** p), (d, p)


@SETTINGS
@given(values(), values(), st.data())
def test_no_denominator_atom_divides_the_sum_part(xa, ya, data):
    """Every operation returns the normal form, ``+`` included, which offers
    only the denominator atoms both summands share for cancellation, and the
    results that skip renormalization (``-x``, ``inv``, products by a
    constant and of atoms)."""
    (x, _), (y, _) = xa, ya
    results = [x, y, x + y, x - y, x + x, y + x * y, x * y, -x, scaled(x, Fraction(-2, 3))]
    if not y.is_zero() and y.num.is_monomial():
        results += [y.inv(), x / y, x + y.inv()]
    images = {i: data.draw(st.tuples(*[st.integers(-1, 1)] * W)) for i in range(W)}
    for z in (x, y, x + y):
        try:
            results.append(z.subs(images, W))
        except PoleEvaluationError:
            pass
    for z in results:
        assert_reduced(z)


def _vanishing_image(images, g):
    """Re-solve the image of one variable so that g, through its root r = g^(1/n)
    with n the gcd of g's exponents, maps to 1."""
    n = sympy.igcd(*g)
    r = tuple(e // n for e in g)
    i = next((i for i, e in enumerate(r) if abs(e) == 1), None)
    if i is None:
        return images
    rest = [sum(r[j] * images[j][t] for j in range(W) if j != i) for t in range(W)]
    images = list(images)
    images[i] = tuple(-r[i] * e for e in rest)
    return images


@settings(SETTINGS, max_examples=120)
@given(st.one_of(factored(), values()), st.data())
def test_substitution_matches_sympy(xa, data):
    x, ex = xa
    kind = data.draw(st.sampled_from(["random", "vanish", "vanish", "q_shift", "q1"]))
    images = [data.draw(st.tuples(*[st.integers(-1, 1)] * W)) for _ in range(W)]
    binomials = binomial_atoms(x)
    if kind == "vanish" and binomials:
        # mostly a denominator binomial: a pole, unless its factor cancels
        dens = sorted(g for g, mult in binomials.items() if mult > 0)
        pick = dens if dens and data.draw(st.booleans()) else sorted(binomials)
        images = _vanishing_image(images, data.draw(st.sampled_from(pick)))
    elif kind == "q_shift":
        var, m = data.draw(st.integers(1, W - 1)), data.draw(st.integers(-2, 2))
        images = [tuple(int(t == i) + (2 * m if i == var and t == 0 else 0) for t in range(W))
                  for i in range(W)]
    elif kind == "q1":
        images = [tuple(int(t == i and i != 0) for t in range(W)) for i in range(W)]
    phi = {z: mono_expr(img) for z, img in zip(Z, images)}
    ring_map = dict(enumerate(images))
    num, den = sympy.fraction(sympy.cancel(ex))
    pole = sympy.cancel(den.xreplace(phi)) == 0
    try:
        if kind == "q_shift":
            got = x.subs({var: images[var]}, W)
        elif kind == "q1":
            got = specialize_q1(x, T)
        else:
            got = x.subs(ring_map, W)
    except PoleEvaluationError as exc:
        # the engine names a denominator factor (1 - r) that really vanishes;
        # the normal form is reduced, so it raises exactly on a true pole
        assert x.tuple_atoms().get((exc.atom, 1), 0) > 0
        assert not any(mono_subs(exc.atom, ring_map, W))
        assert pole
        return
    assert not pole
    assert same(engine_expr(got), num.xreplace(phi) / den.xreplace(phi))


def assert_exact(*values):
    """Every coefficient of each Scalar or Poly is an ``int``, or a
    ``Fraction`` that is not integral; none is a float."""
    for x in values:
        for c in (x.num if isinstance(x, Scalar) else x).terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


# literals with integral and non-integral values, and coefficient-1 powers,
# negative ones included
LITERALS = st.sampled_from(["1", "2", "3/2", "4/2", "6/3", "1/3", "-5/10"])
FACTORS = st.sampled_from(["a1", "s1", "h", "h^(1/2)", "(a1*s1)^-2", "(h*s1)^-1", "(2*s1)^3",
                           "(1/2*a1)^2", "(a1 + 1/2)^2"])
TERMS = st.builds("{}*{}".format, LITERALS, FACTORS)
EXPRESSIONS = st.builds(lambda first, rest: first + "".join(op + t for op, t in rest), TERMS,
                        st.lists(st.tuples(st.sampled_from([" + ", " - "]), TERMS), max_size=2))


@SETTINGS
@given(values(), values(), EXPRESSIONS, st.data())
def test_coefficients_are_int_when_integral(xa, ya, text, data):
    """Products, quotients, sums, substitutions and the grammar keep every
    coefficient an ``int`` when integral and never make a float."""
    (x, _), (y, _) = xa, ya
    half = Fraction(1, 2)
    assert_exact(x, y, x + y, x - y, x * y, -x, scaled(x, Fraction(2, 3)),
                 scaled(x, Fraction(4, 2)), scaled(x, half) + scaled(x, half),
                 scaled(x, half) * scaled(y, 2))
    if not y.is_zero() and y.num.is_monomial():
        assert_exact(x / y, y.inv(), y.inv().inv())
    images = {i: data.draw(st.tuples(*[st.integers(-1, 1)] * W)) for i in range(W)}
    for z in (x, y, x + y):
        try:
            assert_exact(z.subs(images, W), z.subs({T.s(0): T.mono({0: 2, T.s(0): 1})}, W),
                         specialize_q1(z, T))
        except PoleEvaluationError:
            pass
    try:
        p = parse_scalar_expr(text, T)
    except ExprError:
        return
    assert_exact(p, p * p, p + p.scale(Fraction(-1, 2)), p.scale(half) + p.scale(half),
                 p.scale(half) * p.scale(2), Scalar.from_poly(p) * x)


def test_coefficient_invariant_cases():
    m = (1, 0, 0, 1, 0)
    third = Scalar.monomial(m, 3).inv()
    assert third.num.tuple_terms() == {UNIT: Fraction(1, 3)}
    assert type(third.num.tuple_terms()[UNIT]) is Fraction
    assert_exact(third, third.inv(), third * Scalar.monomial(m, 3), scaled(third, 3))
    assert type((third * Scalar.monomial(UNIT, 3)).num.tuple_terms()[UNIT]) is int
    for d in range(-3, 4):
        (c,) = sign_kernel(d, W).num.terms.values()
        assert type(c) is int and c == (-1) ** abs(d)
    assert sign_kernel(-3, W).num.tuple_terms() == {UNIT: -1}
    for inexact in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            Poly.monomial(UNIT, inexact)
    # (1 - r) / (1 - r^3) = 1 / Phi_3(r) at r = 1 is an exact 1/3
    r = (0, 1, 0, 0, 0)
    x = Scalar(W, Poly.one(W), atoms={mono_pow(r, 3): 1, r: -1})
    assert x.subs({1: UNIT}, W).num.tuple_terms() == {UNIT: Fraction(1, 3)}
