"""Appendix identity kernel: shift, inversion, base-inversion, cocycle."""

import itertools
from fractions import Fraction

import pytest
import sympy

from coulombkit import (GaugeData, PoleEvaluationError, Poly, Scalar, VariableTable, poch,
                        poch_qinv, sign_kernel)
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import mono_mul, pack, unpack
from coulombkit.hypertoric import pair
from coulombkit.pochhammer import hq_product, hq_ratio, hq_ratio_inv, poch_product, q_shifted

from conftest import binomial_atoms, mono_pow, one_minus, rand_mono, rng_for
from oracles import matter_kernel, module_factor

T = VariableTable(2, 2)
W = T.width


def _nonunit_mono(rng):
    m = rand_mono(rng, T, span=2, vars_=[1, T.a(0), T.a(1), T.s(0), T.s(1)])
    if not any(m):
        m = T.mono({T.s(0): 1})
    return m


def test_poch_basic_shapes():
    x = T.mono({T.a(0): 1, T.s(0): 1})
    two = poch(x, 2)
    assert two == Scalar(W, one_minus(x) * one_minus(q_shifted(x, 1)))
    assert poch(x, 0) == Scalar.one(W)
    assert poch(x, -1) == Scalar(W, Poly.one(W), atoms={q_shifted(x, -1): 1})


def test_sign_kernel():
    assert sign_kernel(0, W) == Scalar.one(W)
    assert sign_kernel(1, W) == Scalar.monomial(T.mono({0: 1, 1: -1}), -1)
    assert sign_kernel(-2, W) == Scalar.monomial(T.mono({0: -2, 1: 2}))
    rng = rng_for("sign")
    for _ in range(10):
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        assert sign_kernel(a, W) * sign_kernel(b, W) == sign_kernel(a + b, W)


def test_shift_identity_random():
    rng = rng_for("poch-shift")
    for trial in range(50):
        x = _nonunit_mono(rng)
        d = rng.randint(-8, 8)
        assert poch(q_shifted(x, -d), d) * poch(x, -d) == Scalar.one(W), (x, d)


def test_inversion_identity_random():
    rng = rng_for("poch-inv")
    h2 = T.mono({1: 2})
    for trial in range(50):
        x = _nonunit_mono(rng)
        d = rng.randint(-8, 8)
        lhs = sign_kernel(d, W) * poch(mono_mul(h2, x), d) / poch(q_shifted(x, 1), d)
        xi = mono_pow(x, -1)
        rhs = sign_kernel(-d, W) * poch(xi, -d) \
            / poch(mono_mul(q_shifted(xi, 1), mono_pow(h2, -1)), -d)
        assert lhs == rhs, (x, d)


def test_base_inversion_identity_random():
    # (x; q^{-1})_d must expand to the same rational function as the direct product
    rng = rng_for("poch-qinv")
    for trial in range(50):
        x = _nonunit_mono(rng)
        d = rng.randint(-8, 8)
        direct = Scalar.one(W)
        if d > 0:
            p = Poly.one(W)
            for m in range(d):
                p = p * one_minus(q_shifted(x, -m))
            direct = Scalar(W, p)
        elif d < 0:
            for m in range(1, -d + 1):
                direct = direct * Scalar(W, Poly.one(W), atoms={q_shifted(x, m): 1})
        assert poch_qinv(x, d) == direct, (x, d)
    assert poch_qinv(T.mono({T.s(0): 1}), 0) == Scalar.one(W)


def test_cocycle():
    rng = rng_for("poch-cocycle")
    for trial in range(40):
        x = _nonunit_mono(rng)
        c = rng.randint(-6, 6)
        d = rng.randint(-6, 6)
        assert poch(x, c + d) == poch(x, c) * poch(q_shifted(x, c), d), (x, c, d)


def test_hq_ratio_matches_definition():
    rng = rng_for("hq-ratio")
    h2 = T.mono({1: 2})
    for trial in range(30):
        x = _nonunit_mono(rng)
        d = rng.randint(-5, 5)
        expected = sign_kernel(d, W) * poch(mono_mul(h2, x), d) / poch(q_shifted(x, 1), d)
        assert hq_ratio(x, d) == expected, (x, d)
        assert hq_ratio_inv(x, d) == expected.inv(), (x, d)
        assert hq_ratio(x, d) * hq_ratio_inv(x, d) == Scalar.one(W)


def test_poch_product_matches_quotient():
    rng = rng_for("poch-ratio")
    for trial in range(30):
        x = _nonunit_mono(rng)
        # y carries Q1, which x lacks, so no factor cancels and every
        # denominator binomial must stay an atom
        y = mono_mul(_nonunit_mono(rng), T.mono({T.qvar(0): 2}))
        d = rng.randint(-5, 5)
        got = poch_product(W, [(pack(x), d, 1), (pack(y), d, -1)])
        assert got == poch(x, d) / poch(y, d), (x, y, d)
        top, bottom, shifts = (x, y, range(d)) if d >= 0 else (y, x, range(-1, d - 1, -1))
        num = Poly.one(W)
        atoms, binomials = {}, {}
        for m in shifts:
            num = num * one_minus(q_shifted(top, m))
            atoms[q_shifted(bottom, m)] = atoms.get(q_shifted(bottom, m), 0) + 1
            for g, e in ((q_shifted(top, m), -1), (q_shifted(bottom, m), 1)):
                # stored with the first nonzero exponent positive
                g = g if next(v for v in g if v) > 0 else mono_pow(g, -1)
                binomials[g] = binomials.get(g, 0) + e
        # every binomial stays a factor, the numerator ones with negative
        # multiplicities, and nothing is multiplied out
        assert binomial_atoms(got) == binomials, (x, y, d)
        assert got.num.is_monomial() and got == Scalar(W, num, atoms=atoms), (x, y, d)


def test_virtual_rows_invert_genuine_rows(tgr24):
    """On tgr(2,4) the kernel of a degree is the genuine-row kernel times the
    inverted root factors, and in every kernel, structure constant and module
    factor a virtual row cancels a genuine row of the same weight: the
    virtual model times the model with one genuine row per root is the
    abelian model twice over."""
    virtual = CoulombAlgebra(tgr24)
    plain = CoulombAlgebra(GaugeData.create(tgr24.chi, tgr24.theta))
    roots = ((1, -1), (-1, 1))
    # the abelian model with one more genuine row per root, whose flavors go to 1
    doubled = CoulombAlgebra(GaugeData.create(tgr24.chi + roots, tgr24.theta))
    t, t2 = virtual.table, doubled.table
    images = {t2.a(tgr24.n + i): t.unit() for i in range(len(roots))}
    images.update({var(j): t.mono({own(j): 1}) for var, own in ((t2.s, t.s), (t2.qvar, t.qvar))
                   for j in range(tgr24.k)})

    def cancels(build):
        got = build(virtual) * build(doubled).subs(images, t.width)
        return got == build(plain) * build(plain)

    degrees = list(itertools.product(range(-3, 4), repeat=2))
    for d in degrees:
        expected = matter_kernel(plain, d)
        for alpha in roots:
            s_alpha = t.mono({t.s(0): alpha[0], t.s(1): alpha[1]})
            expected = expected * hq_ratio(s_alpha, pair(alpha, d)).inv()
        assert matter_kernel(virtual, d) == expected, d
        assert cancels(lambda alg: matter_kernel(alg, d)), d
    near = list(itertools.product(range(-2, 3), repeat=2))
    for c in near:
        for d in near:
            assert cancels(lambda alg: alg.structure_constant(c, d)), (c, d)
            assert cancels(lambda alg: module_factor(alg, c, d)), (c, d)


# -- the one-pass builder against plain Fractions ---------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _rational_point(rng):
    """A positive rational per variable slot, each a ratio of two primes used
    nowhere else, so a monomial evaluates to 1 only when it is the unit."""
    primes = rng.sample(PRIMES, 2 * W)
    return [Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(W)]


def _at(m, pt):
    value = Fraction(1)
    for v, e in zip(pt, m):
        value *= v ** e
    return value


def _psi_at(d, t):
    """1 - t for d = 1, else the cyclotomic polynomial Phi_d at t, from sympy."""
    if d == 1:
        return 1 - t
    x = sympy.Symbol("x")
    value = Fraction(0)
    for c in sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs():
        value = value * t + int(c)
    return value


def _scalar_at(x, pt):
    """The value of x's fields at pt: prefactor, sum part and every key."""
    value = _at(unpack(x.pre, W), pt) * sum(c * _at(unpack(m, W), pt)
                                            for m, c in x.num.terms.items())
    for (r, d), mult in x.atoms.items():
        value *= _psi_at(d, _at(unpack(r, W), pt)) ** -mult
    return value


def _symbol_binomials(symbols):
    """``[(g, mult)]`` for the binomials (1 - q^m x)^(-mult) of the symbols
    (x, d, power), g an exponent tuple, in order and not collected."""
    pairs = []
    for x, d, power in symbols:
        shifts, mult = (range(d), -power) if d >= 0 else (range(-1, d - 1, -1), power)
        pairs += [(q_shifted(x, m), mult) for m in shifts]
    return pairs


def _oracle(binomials, e, pt):
    """sign_kernel(e) * prod (1 - g(pt))^(-mult) over the pairs ``binomials``;
    None for a pole: a denominator binomial (1 - 1), whatever cancels it."""
    if any(mult > 0 and not any(g) for g, mult in binomials):
        return None
    value = (-pt[0] / pt[1]) ** e
    for g, mult in binomials:
        if mult and not any(g):
            return Fraction(0)
        value *= (1 - _at(g, pt)) ** -mult
    return value


def _special_symbols(rng):
    """Symbols that reach each branch of the key conversion."""
    x = _nonunit_mono(rng)
    return rng.choice([
        # content 2 and 3: binomials that split into several keys
        [(mono_pow(x, 2), rng.randint(-3, 3), 1)],
        [(mono_pow(x, 3), rng.choice([-3, 1, 3]), rng.choice([1, -1]))],
        # the first nonzero exponent negative: sign and monomial move out
        [(mono_pow(T.mono({T.a(0): 1, T.s(1): 2}), -1), rng.randint(-3, 3), 1)],
        # the binomial 1 - q x of both symbols cancels
        [(x, 2, 1), (q_shifted(x, 1), 1, -1)],
        # the unit binomial (1 - 1): a numerator factor, a denominator one,
        # and both, which cancel in the product but still make a pole
        [(T.unit(), rng.randint(1, 3), 1), (x, 1, 1)],
        [(q_shifted(T.unit(), 1), -1, 1)],
        [(T.unit(), 1, 1), (q_shifted(T.unit(), 1), -1, 1)],
    ])


def test_poch_product_matches_fraction_oracle():
    rng = rng_for("poch-oracle")
    kinds = set()
    for trial in range(120):
        pt = _rational_point(rng)
        symbols = [(_nonunit_mono(rng), rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))
                   for _ in range(rng.randint(0, 2))]
        symbols += _special_symbols(rng)
        rng.shuffle(symbols)
        e = rng.randint(-3, 3)
        binomials = _symbol_binomials(symbols)
        expected = _oracle(binomials, e, pt)
        collected = {}
        for g, mult in binomials:
            collected[g] = collected.get(g, 0) + mult
        packed = [(pack(x), d, power) for x, d, power in symbols]
        if expected is None:
            kinds.add("pole")
            with pytest.raises(PoleEvaluationError) as info:
                poch_product(W, packed, e)
            assert str(info.value) == \
                "pole at evaluation point: atom (1 - %r) vanishes" % (T.unit(),)
            assert info.value.atom == T.unit()
            continue
        got = poch_product(W, packed, e)
        kinds.add("zero" if expected == 0 else "value")
        assert got.is_zero() == (expected == 0), symbols
        assert _scalar_at(got, pt) == expected, (symbols, e)
        # a key whose multiplicities cancel is dropped
        assert 0 not in got.atoms.values(), symbols
        # the same fields, keys in the same order, as the public constructor
        # builds from the binomials
        sign = Poly.monomial(T.unit(), -1 if e % 2 else 1)
        reference = Scalar(W, sign, pre=T.mono({0: e, 1: -e}), atoms=collected)
        assert (got.num.terms, got.pre, list(got.atoms.items())) == \
            (reference.num.terms, reference.pre, list(reference.atoms.items())), symbols
    assert kinds == {"pole", "zero", "value"}


def test_kernel_products_skip_the_generic_constructor(monkeypatch):
    """poch_product and hq_product build their normal form in one pass:
    neither Scalar.__init__ nor Scalar._of runs."""
    rng = rng_for("poch-one-pass")
    calls = []
    init, of = Scalar.__init__, Scalar._of
    monkeypatch.setattr(Scalar, "__init__",
                        lambda self, *a, **k: calls.append("__init__") or init(self, *a, **k))
    monkeypatch.setattr(Scalar, "_of",
                        classmethod(lambda cls, *a, **k: calls.append("_of") or of(*a, **k)))
    built = 0
    for _ in range(60):
        symbols = [(pack(x), d, power) for x, d, power in _special_symbols(rng)]
        symbols.append((pack(_nonunit_mono(rng)), rng.randint(-3, 3), rng.choice([-1, 1])))
        try:
            poch_product(W, symbols, rng.randint(-3, 3))
            hq_product(W, symbols)
        except PoleEvaluationError:
            continue
        built += 1
    assert built and calls == []
    # the counters see the generic path
    Scalar(W, Poly.one(W), atoms={T.mono({T.s(0): 1}): 1})
    assert calls == ["__init__", "_of"]
