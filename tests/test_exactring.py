"""Ring axioms, factored-scalar reduction, substitution homomorphisms."""

from fractions import Fraction

import pytest

from coulombkit import Poly, PoleEvaluationError, Scalar, VariableTable
from coulombkit.exactring import (mono_mul, mono_pow, mono_subs, one_minus, scalar_str,
                                  scalar_from_structured, scalar_structured,
                                  shift_s_by_degree, substitute_monomials)

from conftest import rand_mono, rand_poly, rng_for

T = VariableTable(2, 2)
W = T.width


def mono(**kw):
    entries = {}
    for name, e in kw.items():
        if name == "q":
            entries[0] = 2 * e
        elif name == "h":
            entries[1] = 2 * e
        elif name.startswith("a"):
            entries[T.a(int(name[1:]) - 1)] = e
        elif name.startswith("s"):
            entries[T.s(int(name[1:]) - 1)] = e
    return T.mono(entries)


def test_poly_ring_axioms_random():
    rng = rng_for("ring-axioms")
    for _ in range(60):
        p = rand_poly(rng, T, terms=6)
        q = rand_poly(rng, T, terms=6)
        r = rand_poly(rng, T, terms=6)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_scalar_add_identity_and_telescoping():
    x = mono(s1=1)
    zero = Scalar.zero(W)
    f = Scalar.atom_inverse(mono(q=1, s1=1))
    assert zero + f == f
    # 1/(1-qx) + (-qx)/(1-qx) = 1
    g = Scalar(W, Poly.monomial(mono(q=1, s1=1), -1), atoms={mono(q=1, s1=1): 1})
    assert f + g == Scalar.one(W)
    # 1/(1-x) + 1/(1-qx) = (2 - x - qx)/((1-x)(1-qx))
    lhs = Scalar.atom_inverse(x) + Scalar.atom_inverse(mono(q=1, s1=1))
    num = Poly.from_terms(W, [(T.unit(), 2), (x, -1), (mono(q=1, s1=1), -1)])
    rhs = Scalar(W, num, atoms={x: 1, mono(q=1, s1=1): 1})
    assert lhs == rhs
    assert set(lhs.atoms) <= {x, mono(q=1, s1=1)}


def test_scalar_mul_and_inv():
    m = mono(s1=1)
    x = Scalar(W, one_minus(mono(h=1, s1=1)), atoms={mono(q=1, s1=1): 1})
    assert x * x.inv() == Scalar.one(W)
    sq = Scalar.atom_inverse(m) * Scalar.atom_inverse(m)
    assert sq.atoms == {m: 2}
    # inv((-q^(1/2)h^(-1/2)) (1-x)/(1-hx)) = (-q^(-1/2)h^(1/2)) (1-hx)/(1-x)
    k = Scalar(W, one_minus(m), pre=T.mono({0: 1, 1: -1}), atoms={mono(h=1, s1=1): 1}).scale(-1)
    ki = k.inv()
    expected = Scalar(W, one_minus(mono(h=1, s1=1)), pre=T.mono({0: -1, 1: 1}),
                      atoms={m: 1}).scale(-1)
    assert ki == expected
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(W).inv()


def test_inv_general_denominator_flag():
    # 1 + s1 does not split into atoms; the inverse must carry a general denominator
    f = Scalar(W, Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)]))
    g = f.inv()
    assert g.gden is not None
    assert f * g == Scalar.one(W)


def test_substitute_monomials_pole_and_cancellation():
    x = Scalar(W, one_minus(mono(a1=1, s1=1)))
    # numerator (1 - a1 s1) with s1 -> a1^-1 must cancel exactly when dividing itself
    out = Scalar.atom_inverse(mono(a1=1, s1=1)) * x
    got = substitute_monomials(out, T, {0: mono(a1=-1)})
    assert got == Scalar.one(W)
    # but a true pole raises
    with pytest.raises(PoleEvaluationError) as exc:
        substitute_monomials(Scalar.atom_inverse(mono(a1=1, s1=1)), T, {0: mono(a1=-1)})
    assert exc.value.atom == mono(a1=1, s1=1)
    # plain evaluation: (1-q s1)/(1-h s1) at s1 -> 1
    f = Scalar(W, one_minus(mono(q=1, s1=1)), atoms={mono(h=1, s1=1): 1})
    got = substitute_monomials(f, T, {0: T.unit(), 1: T.unit()})
    expected = Scalar(W, one_minus(mono(q=1)), atoms={mono(h=1): 1})
    assert got == expected


def test_substitution_is_ring_homomorphism():
    rng = rng_for("subs-hom")
    smap = {0: mono(a1=1, h=-1), 1: mono(a2=-2)}
    for _ in range(30):
        f = Scalar.from_poly(rand_poly(rng, T, terms=4))
        g = Scalar.from_poly(rand_poly(rng, T, terms=4))
        sub = lambda z: substitute_monomials(z, T, smap)
        assert sub(f * g) == sub(f) * sub(g)
        assert sub(f + g) == sub(f) + sub(g)


def test_poly_pow_is_the_repeated_product(monkeypatch):
    p = rand_poly(rng_for("poly-pow"), T, terms=3)
    product = Poly.one(W)
    for e in range(10):
        assert p ** e == product
        product = product * p
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert p ** 1 == p
    assert calls == []


def test_mono_subs_fixes_absent_variables():
    m = mono(q=1, a1=2, s1=-1, s2=3)
    assert mono_subs(m, {}, W) == m
    # s1 -> a2 * h, s2 -> 1; the rest stay
    images = {T.s(0): mono(a2=1, h=1), T.s(1): T.unit()}
    assert mono_subs(m, images, W) == mono(q=1, a1=2, a2=-1, h=-1)
    # into a narrower table whose q, h and flavors have the same indices
    narrow = VariableTable(2, 1)
    images = {T.s(0): narrow.mono({narrow.s(0): 1}), T.s(1): narrow.unit()}
    expected = narrow.mono({0: 2, narrow.a(0): 2, narrow.s(0): -1})
    assert mono_subs(m, images, narrow.width) == expected
    f = Scalar(W, one_minus(mono(a1=1, s1=1)), atoms={mono(q=1, s2=1): 1})
    assert f.subs({}, W) == f


def test_q_shift():
    s = Scalar.monomial(mono(s1=1))
    assert s.q_shift(T.s(0), 1) == Scalar.monomial(mono(q=1, s1=1))
    core = Scalar(W, one_minus(mono(a1=1, s1=1)))
    shifted = core.q_shift(T.s(0), -1)
    assert shifted == Scalar(W, one_minus(mono(q=-1, a1=1, s1=1)))
    rng = rng_for("q-shift")
    for _ in range(20):
        f = Scalar.from_poly(rand_poly(rng, T, terms=5))
        assert f.q_shift(T.s(0), 1).q_shift(T.s(0), -1) == f
        g = Scalar.from_poly(rand_poly(rng, T, terms=5))
        assert (f * g).q_shift(T.s(1), 2) == f.q_shift(T.s(1), 2) * g.q_shift(T.s(1), 2)


def test_cross_multiplication_equality_routes():
    rng = rng_for("eq-routes")
    for _ in range(25):
        p = rand_poly(rng, T, terms=3)
        a = rand_mono(rng, T, span=1)
        if not any(a):
            a = mono(s1=1)
        # two routes to p/(1-a): direct, and (p*(1-a))/(1-a)^2
        r1 = Scalar(W, p, atoms={a: 1})
        r2 = Scalar(W, p * one_minus(a), atoms={a: 2})
        assert r1 == r2
        r3 = Scalar(W, p * one_minus(a) * one_minus(a), atoms={a: 3})
        assert r2 == r3 and r1 == r3
        # shared atoms with unequal multiplicities, and atoms on one side only
        # (1 - b^2) = (1 - b)(1 + b)
        b = mono(q=1, s2=1)
        b2 = mono_pow(b, 2)
        one_plus_b = Poly.from_terms(W, [(T.unit(), 1), (b, 1)])
        x = Scalar(W, p, atoms={a: 1, b: 1, b2: 1})
        y = Scalar(W, p * one_plus_b, atoms={a: 1, b2: 2})
        assert x == y and y == x
        assert not x == Scalar(W, p, atoms={a: 1, b2: 2})
        assert not x == Scalar(W, p, atoms={b: 1, b2: 1})
        x2 = Scalar(W, p, atoms={b: 2})
        y2 = Scalar(W, p * one_plus_b * one_plus_b, atoms={b2: 2})
        assert x2 == y2 and y2 == x2
        assert not x2 == Scalar(W, p * one_plus_b, atoms={b2: 2})
    # equal and unequal general denominators
    g1 = Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)])
    g2 = Poly.from_terms(W, [(T.unit(), 1), (mono(s2=1), 1)])
    u = Scalar(W, one_minus(mono(a1=1)), gden=g1)
    assert u.gden is not None
    assert u == Scalar(W, one_minus(mono(a1=1)) * one_minus(mono(h=1)),
                       atoms={mono(h=1): 1}, gden=g1)
    assert not u == Scalar(W, one_minus(mono(a1=1)), gden=g2)
    assert u == Scalar(W, one_minus(mono(a1=1)) * g2, gden=g1 * g2)
    assert Scalar(W, g2, gden=g1) == Scalar(W, g2 * g2, gden=g1 * g2)
    # zero against nonzero
    zero = Scalar.zero(W)
    assert zero == Scalar.zero(W)
    assert not zero == u and not u == zero
    assert not zero == Scalar.atom_inverse(mono(s1=1))


def _heap_div_by_atom(p, g):
    """p / (1 - g) through the general path: -(p / (g - 1))."""
    q = p.exact_div(-one_minus(g))
    return None if q is None else -q


def test_exact_div():
    rng = rng_for("exact-div")
    for _ in range(40):
        f = rand_poly(rng, T, terms=4)
        g = rand_poly(rng, T, terms=4)
        prod = f * g
        q = prod.exact_div(g)
        assert q is not None and q == f
    f = Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)])
    d = Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), -1)])
    assert f.exact_div(d) is None
    # division by an atom 1 - g takes the chain path; it must match the heap path
    rng = rng_for("exact-div-atom")
    thirds = [Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4), 3]
    for _ in range(60):
        g = rand_mono(rng, T, span=2)
        if not any(g):
            g = mono(q=2)  # q^2 is exponent 4 on q^(1/2): not primitive
        f = rand_poly(rng, T, terms=5, span=3)
        f = Poly(W, {m: c * rng.choice(thirds) for m, c in f.terms.items()})
        for p in (f * one_minus(g), f * one_minus(g) ** 2, f, f * one_minus(g) + f):
            got = p.exact_div(one_minus(g))
            assert got == _heap_div_by_atom(p, g)
            if got is not None:
                assert got * one_minus(g) == p
        # the integer screen must not rule a true divisor out
        assert Scalar(W, f * one_minus(g), atoms={g: 1}).atoms == {}
    # chains with gaps: (1 - g^3)/(1 - g) = 1 + g + g^2, Laurent and non-primitive g
    for g in (mono(q=2), mono(q=-1, s1=2), mono(a1=-3, s2=1)):
        p = Poly.from_terms(W, [(mono(s1=-2), Fraction(2, 5)),
                                (mono_mul(mono(s1=-2), mono_pow(g, 3)), Fraction(-2, 5))])
        got = p.exact_div(one_minus(g))
        assert got == _heap_div_by_atom(p, g)
        assert len(got.terms) == 3
        gap = p + Poly.monomial(mono_pow(g, 5), Fraction(1, 3))
        assert gap.exact_div(one_minus(g)) is None
        assert _heap_div_by_atom(gap, g) is None
        # terms of different denominators merge: 1/3 - 2/15*g - 1/5*g^2
        f = Poly.from_terms(W, [(T.unit(), Fraction(1, 3)), (g, Fraction(1, 5))])
        assert Scalar(W, f * one_minus(g), atoms={g: 1}).atoms == {}


def test_structured_roundtrip():
    rng = rng_for("structured")
    for _ in range(15):
        f = Scalar(W, rand_poly(rng, T), pre=rand_mono(rng, T, span=1),
                   atoms={mono(q=1, s1=1): 2, mono(h=1, a1=1, s2=-1): 1})
        data = scalar_structured(f)
        back = scalar_from_structured(W, data)
        assert back == f
        assert scalar_structured(back) == data


def test_canonical_rendering_deterministic():
    f = Scalar(W, Poly.from_terms(W, [(T.unit(), 2), (mono(s1=1), -1),
                                      (mono(q=1, s1=1), -1)]),
               atoms={mono(s1=1): 1, mono(q=1, s1=1): 1})
    assert scalar_str(T, f) == "(2 - s1 - q*s1) / ( (1 - s1) * (1 - q*s1) )"
    g = Scalar.monomial(T.mono({0: 1, 1: -1}), -1)
    assert scalar_str(T, g) == "-q^(1/2)*h^(-1/2)"


def test_shift_s_by_degree_matches_manual():
    f = Scalar(W, one_minus(mono(a1=1, s1=1, s2=-1)))
    g = shift_s_by_degree(f, T, (2, 1))
    assert g == Scalar(W, one_minus(mono(q=1, a1=1, s1=1, s2=-1)))
