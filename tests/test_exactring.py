"""Ring axioms, factored-scalar reduction, substitution homomorphisms."""

from fractions import Fraction
from math import gcd

import pytest

import coulombkit.exactring
from coulombkit import Poly, PoleEvaluationError, Scalar, VariableTable
from coulombkit.exactring import (ExponentOverflowError, RingMap, SumInverseError, _degree,
                                  _direction, _orient_factor, mono_mul, pack,
                                  scalar_str, scalar_from_structured, scalar_structured, unpack)
from coulombkit.pochhammer import poch, poch_product

from conftest import (binomial_atoms, mono_pow, mono_subs, one_minus, rand_mono, rand_poly,
                      rng_for)
from oracles import mono_str_reference

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
    f = Scalar(W, Poly.one(W), atoms={mono(q=1, s1=1): 1})
    assert zero + f == f
    # 1/(1-qx) + (-qx)/(1-qx) = 1
    g = Scalar(W, Poly.monomial(mono(q=1, s1=1), -1), atoms={mono(q=1, s1=1): 1})
    assert f + g == Scalar.one(W)
    # 1/(1-x) + 1/(1-qx) = (2 - x - qx)/((1-x)(1-qx))
    lhs = Scalar(W, Poly.one(W), atoms={x: 1}) + f
    num = Poly.from_terms(W, [(T.unit(), 2), (x, -1), (mono(q=1, s1=1), -1)])
    rhs = Scalar(W, num, atoms={x: 1, mono(q=1, s1=1): 1})
    assert lhs == rhs
    assert set(binomial_atoms(lhs)) <= {x, mono(q=1, s1=1)}


def test_scalar_mul_and_inv():
    m = mono(s1=1)
    x = Scalar(W, Poly.one(W), atoms={mono(h=1, s1=1): -1, mono(q=1, s1=1): 1})
    assert x * x.inv() == Scalar.one(W)
    sq = Scalar(W, Poly.one(W), atoms={m: 1}) * Scalar(W, Poly.one(W), atoms={m: 1})
    assert binomial_atoms(sq) == {m: 2}
    # inv((-q^(1/2)h^(-1/2)) (1-x)/(1-hx)) = (-q^(-1/2)h^(1/2)) (1-hx)/(1-x)
    k = -Scalar(W, Poly.one(W), pre=T.mono({0: 1, 1: -1}),
                atoms={m: -1, mono(h=1, s1=1): 1})
    ki = k.inv()
    expected = -Scalar(W, one_minus(mono(h=1, s1=1)), pre=T.mono({0: -1, 1: 1}),
                       atoms={m: 1})
    assert ki == expected
    # a numerator binomial given as a sum part equals the same binomial as an atom
    assert -Scalar(W, one_minus(m), pre=T.mono({0: 1, 1: -1}),
                   atoms={mono(h=1, s1=1): 1}) == k
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(W).inv()


def test_inv_of_a_sum_part_raises():
    # 1 + s1 is no product of atoms, so its inverse is not representable
    f = Scalar(W, Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)]))
    with pytest.raises(SumInverseError):
        f.inv()
    with pytest.raises(SumInverseError):
        Scalar.one(W) / f
    # as the numerator binomial (1 - s1^2)/(1 - s1) it is one
    g = Scalar(W, Poly.one(W), atoms={mono(s1=1): 1, mono(s1=2): -1})
    assert g == f and f == g
    assert g * g.inv() == Scalar.one(W)


def test_non_primitive_atoms_cancel_to_their_value():
    s1 = mono(s1=1)
    at_one = {T.s(0): T.unit(), T.s(1): T.unit()}
    # (1 - s1) / (1 - s1^2) = 1 / (1 + s1), which is 1/2 at s1 = 1
    x = Scalar(W, one_minus(s1), atoms={mono_pow(s1, 2): 1})
    half = x.subs(at_one, W)
    assert half == Scalar.monomial(T.unit(), Fraction(1, 2))
    # (1 - s1^-2) / (1 - s1)^2 at s1 -> 1 is a true pole, named by its root
    y = Scalar(W, Poly.one(W), atoms={mono_pow(s1, -2): -1, s1: 2})
    with pytest.raises(PoleEvaluationError) as exc:
        y.subs(at_one, W)
    assert exc.value.atom == s1
    # (1 - s1^6)(1 - s1) / ((1 - s1^2)(1 - s1^3)) at s1 -> 1 is 6 / (2 * 3)
    z = Scalar(W, Poly.one(W), atoms={mono_pow(s1, 6): -1, s1: -1, mono_pow(s1, 2): 1,
                                      mono_pow(s1, 3): 1})
    assert z.subs(at_one, W) == Scalar.one(W)
    # and under s1 -> s2^-2 the factors land on psi_d(s2)
    w = z.subs({T.s(0): mono(s2=-2)}, W)
    assert w == Scalar(W, Poly.one(W), atoms={mono(s2=-12): -1, mono(s2=-2): -1,
                                              mono(s2=-4): 1, mono(s2=-6): 1})


def test_pure_products_multiply_without_polynomials(monkeypatch):
    rng = rng_for("pure-products")
    values = []
    for _ in range(12):
        atoms = {rand_mono(rng, T, span=2): rng.choice([-2, -1, 1, 2]) for _ in range(3)}
        atoms = {g: m for g, m in atoms.items() if any(g)}
        values.append(Scalar(W, Poly.monomial(T.unit(), rng.choice([1, -2, Fraction(3, 5)])),
                             pre=rand_mono(rng, T, span=1), atoms=atoms))
    eleven = poch(mono(a1=1), 6) * poch(mono(a2=1), 5)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for x in values:
        for y in values:
            assert (x * y).num.is_monomial()
            assert x * y == y * x
            assert (x * y) * y.inv() == x
            assert (x == y) == (scalar_structured(x) == scalar_structured(y))
    # zero against a product decides on the zero test alone; the last product
    # has eleven numerator atoms
    zero = Scalar.zero(W)
    for x in values + [eleven]:
        assert not (zero == x) and not (x == zero) and not (-x + x == x)
        assert -x + x == zero
    assert zero == Scalar.zero(W)
    assert calls == []


def test_subs_pole_and_cancellation():
    x = Scalar(W, one_minus(mono(a1=1, s1=1)))
    pole = Scalar(W, Poly.one(W), atoms={mono(a1=1, s1=1): 1})
    # numerator (1 - a1 s1) with s1 -> a1^-1 must cancel exactly when dividing itself
    got = (pole * x).subs({T.s(0): mono(a1=-1)}, W)
    assert got == Scalar.one(W)
    # but a true pole raises
    with pytest.raises(PoleEvaluationError) as exc:
        pole.subs({T.s(0): mono(a1=-1)}, W)
    assert exc.value.atom == mono(a1=1, s1=1)
    # plain evaluation: (1-q s1)/(1-h s1) at s1 -> 1
    f = Scalar(W, one_minus(mono(q=1, s1=1)), atoms={mono(h=1, s1=1): 1})
    got = f.subs({T.s(0): T.unit(), T.s(1): T.unit()}, W)
    expected = Scalar(W, one_minus(mono(q=1)), atoms={mono(h=1): 1})
    assert got == expected


def test_uses_reads_every_part():
    s1, s2 = T.s(0), T.s(1)
    for x in (Scalar.monomial(mono(a1=1, s1=-1)),
              Scalar(W, one_minus(mono(s1=1, a2=1)) * one_minus(mono(a1=1))),
              Scalar(W, Poly.one(W), atoms={mono(q=1, s1=2): 1})):
        assert x.uses((s1,)) and x.uses((s2, s1)) and not x.uses((s2,)), x
    assert not Scalar.one(W).uses(range(W))


def test_substitution_is_ring_homomorphism():
    rng = rng_for("subs-hom")
    smap = {T.s(0): mono(a1=1, h=-1), T.s(1): mono(a2=-2)}
    for _ in range(30):
        f = Scalar.from_poly(rand_poly(rng, T, terms=4))
        g = Scalar.from_poly(rand_poly(rng, T, terms=4))
        sub = lambda z: z.subs(smap, W)
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


def test_ring_map_fixes_absent_variables():
    m = mono(q=1, a1=2, s1=-1, s2=3)
    assert unpack(RingMap({}, W).mono(pack(m)), W) == m
    # s1 -> a2 * h, s2 -> 1; the rest stay
    images = {T.s(0): mono(a2=1, h=1), T.s(1): T.unit()}
    assert unpack(RingMap(images, W).mono(pack(m)), W) == mono(q=1, a1=2, a2=-1, h=-1)
    # into a narrower table whose q, h and flavors have the same indices
    narrow = VariableTable(2, 1)
    images = {T.s(0): narrow.mono({narrow.s(0): 1}), T.s(1): narrow.unit()}
    expected = narrow.mono({0: 2, narrow.a(0): 2, narrow.s(0): -1})
    assert unpack(RingMap(images, narrow.width, W).mono(pack(m)), narrow.width) == expected
    f = Scalar(W, one_minus(mono(a1=1, s1=1)), atoms={mono(q=1, s2=1): 1})
    assert f.subs({}, W) == f


def test_ring_map_memoizes_and_matches_a_dict():
    images = {T.s(0): mono(a1=-1, q=1), T.s(1): mono(h=1)}
    ring = RingMap(images, W)
    rng = rng_for("ring-map")
    for _ in range(20):
        f = Scalar.from_poly(rand_poly(rng, T, terms=3)) * Scalar(
            W, Poly.one(W), atoms={rand_mono(rng, T): 1, mono(a1=1, s2=2): -1})
        assert f.subs(ring) == f.subs(images, W) == f.subs(ring)
    m = pack(mono(s1=2, s2=-1))
    assert ring.mono(m) is ring.mono(m) == pack(mono_subs(unpack(m, W), images, W))
    # s1^2 s2^-1 -> q^2 a1^-2 h^-1, the square of q h^(-1/2) a1^-1
    assert ring.root(m) == (pack(tuple(e // 2 for e in mono(q=2, h=-1, a1=-2))), 2)
    assert ring.root(pack(mono(a1=1, s1=1, q=-1))) is None


def test_cached_ring_map_raises_the_same_pole_every_time(monkeypatch):
    """A denominator atom sent to 1 is a pole on every application of a map,
    with the message and atom of a fresh map; the memo is not a way round it."""
    g = mono(a1=1, s1=1)
    images = {T.s(0): mono(a1=-1)}
    pole = Scalar(W, one_minus(mono(s2=1)), atoms={g: 1})
    ring = RingMap(images, W)
    seen = []
    for subs in (lambda: pole.subs(ring), lambda: pole.subs(ring), lambda: pole.subs(images, W)):
        with pytest.raises(PoleEvaluationError) as exc:
            subs()
        seen.append((str(exc.value), exc.value.atom))
    assert seen == [("pole at evaluation point: atom (1 - %r) vanishes" % (g,), g)] * 3
    # a numerator atom sent to 1 gives zero, cached or not
    zero = Scalar(W, Poly.one(W), atoms={g: -1})
    assert zero.subs(ring).is_zero() and zero.subs(ring).is_zero()


def test_q_shift():
    up, down = RingMap({T.s(0): mono(q=1, s1=1)}, W), RingMap({T.s(0): mono(q=-1, s1=1)}, W)
    up2 = RingMap({T.s(1): mono(q=2, s2=1)}, W)
    s = Scalar.monomial(mono(s1=1))
    assert s.subs(up) == Scalar.monomial(mono(q=1, s1=1))
    core = Scalar(W, one_minus(mono(a1=1, s1=1)))
    shifted = core.subs(down)
    assert shifted == Scalar(W, one_minus(mono(q=-1, a1=1, s1=1)))
    rng = rng_for("q-shift")
    for _ in range(20):
        f = Scalar.from_poly(rand_poly(rng, T, terms=5))
        assert f.subs(up).subs(down) == f
        g = Scalar.from_poly(rand_poly(rng, T, terms=5))
        assert (f * g).subs(up2) == f.subs(up2) * g.subs(up2)


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
    # a sum part against the atoms it equals, and against a different sum
    g1 = Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)])
    g2 = Poly.from_terms(W, [(T.unit(), 1), (mono(s2=1), 1)])
    u = Scalar(W, one_minus(mono(a1=1)) * g1, atoms={mono(s1=2): 1})
    assert u == Scalar(W, one_minus(mono(a1=1)), atoms={mono(s1=1): 1})
    assert not u == Scalar(W, one_minus(mono(a1=1)) * g2, atoms={mono(s1=2): 1})
    assert Scalar(W, g2 * g1) == Scalar(W, g2, atoms={mono(s1=1): 1, mono(s1=2): -1})
    # zero against nonzero
    zero = Scalar.zero(W)
    assert zero == Scalar.zero(W)
    assert not zero == u and not u == zero
    assert not zero == Scalar(W, Poly.one(W), atoms={mono(s1=1): 1})


def test_exact_div():
    """Division by psi_d(r) against sympy's division by one polynomial, which
    leaves remainder 0 exactly on its multiples."""
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z0:%d" % W)

    def expr(p):
        """p times the monomial that makes its exponents nonnegative with minimum 0."""
        low = unpack(p.content_mono(), W)
        return sympy.Add(*[sympy.Rational(str(c)) * sympy.Mul(*[v ** (e - lo) for v, e, lo
                                                                 in zip(z, m, low)])
                           for m, c in p.tuple_terms().items()])

    rng = rng_for("exact-div-atom")
    thirds = [Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4), 3]
    for trial in range(60):
        g = rand_mono(rng, T, span=2)
        if not any(g):
            g = mono(q=2)  # q^2 is exponent 4 on q^(1/2): not primitive
        r = tuple(e // abs(sympy.igcd(*g)) for e in g)
        r = r if next(e for e in r if e) > 0 else mono_pow(r, -1)
        d = 1 + trial % 6
        x = sympy.Symbol("x")
        cyclo = 1 - x if d == 1 else sympy.cyclotomic_poly(d, x)
        psi = Poly(W, {mono_pow(r, k): Fraction(int(c))
                       for k, c in enumerate(sympy.Poly(cyclo, x).all_coeffs()[::-1]) if c})
        f = rand_poly(rng, T, terms=5, span=3)
        f = Poly(W, {m: c * rng.choice(thirds) for m, c in f.terms.items()})
        for p in (f * psi, f * psi * psi, f, f * psi + f, f * one_minus(g)):
            got = p.exact_div(pack(r), d)
            _, rem = sympy.reduced(expr(p), [expr(psi)], *z)
            assert (got is not None) == (rem == 0), (p, r, d)
            if got is not None:
                assert got * psi == p
        # the chain screen must not rule a true divisor out
        divided = Scalar(W, f * one_minus(g), atoms={g: 1})
        assert divided.atoms == {} and divided.num == Scalar(W, f).num
    # chains with gaps: (1 - r^3)/(1 - r) = 1 + r + r^2 on Laurent terms, for
    # the roots q^(1/2), q^(1/2)*s1^-2 and a1^3*s2^-1
    for r in (T.mono({0: 1}), T.mono({0: 1, T.s(0): -2}), mono(a1=3, s2=-1)):
        p = Poly.from_terms(W, [(mono(s1=-2), Fraction(2, 5)),
                                (mono_mul(mono(s1=-2), mono_pow(r, 3)), Fraction(-2, 5))])
        got = p.exact_div(pack(r), 1)
        assert len(got.terms) == 3 and got * one_minus(r) == p
        assert p.exact_div(pack(r), 3) is not None and p.exact_div(pack(r), 2) is None
        gap = p + Poly.monomial(mono_pow(r, 5), Fraction(1, 3))
        assert gap.exact_div(pack(r), 1) is None
        # a chain of one term is rejected at once
        assert Poly.monomial(mono(s1=1)).exact_div(pack(r), 1) is None


def test_chain_root_screen_rules_out_only_failing_divisions(monkeypatch):
    """A chain split with a one-term chain along r rules out every
    division by a factor in r; the split shared by several factors gives the
    quotients of a fresh split."""
    rng = rng_for("chain-roots")
    for _ in range(60):
        g = rand_mono(rng, T, span=2)
        if not any(g):
            continue
        r = _direction(pack(g), W)[0]
        f = rand_poly(rng, T, terms=4, span=2)
        for p in (f, f * one_minus(g), f * one_minus(mono_pow(g, 2))):
            chains = p._chains(r)
            for d in range(1, 5):
                got = p.exact_div(r, d)
                if chains is None:
                    assert got is None, (p, r)
                else:
                    assert p.exact_div(r, d, chains) == got
    calls = []
    div = Poly.exact_div
    monkeypatch.setattr(Poly, "exact_div", lambda p, *key: calls.append(key) or div(p, *key))
    # no two terms of 1 + s1*s2 differ along s1 or a1*s2^-1: nothing is tried
    x = Scalar(W, Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1, s2=1), 1)]),
               atoms={mono(s1=1): 1, mono(a1=1, s2=-1): 2})
    assert calls == [] and len(x.atoms) == 2
    # along the root the division is still made: (1 - s1^2) / (1 - s1) = 1 + s1
    y = Scalar(W, one_minus(mono(s1=2)), atoms={mono(s1=1): 1})
    assert calls and y.atoms == {}
    assert y == Scalar.from_poly(Poly.from_terms(W, [(T.unit(), 1), (mono(s1=1), 1)]))


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


def test_unit_and_cancelled_binomials_keep_the_value():
    """A numerator binomial (1 - 1) makes the value 0, a denominator one is a
    pole named by the unit, and a binomial of multiplicity 0, or whose
    multiplicities cancel, leaves the value as it is."""
    unit, x, s1 = T.unit(), mono(a1=1, s1=1), mono(s1=1)
    assert Scalar(W, Poly.one(W), atoms={unit: -1}).is_zero()
    assert Scalar(W, Poly.one(W), pre=x, atoms={x: 1, unit: -2}) == Scalar.zero(W)
    with pytest.raises(PoleEvaluationError) as exc:
        Scalar(W, Poly.one(W), atoms={x: 1, unit: 1})
    assert exc.value.atom == unit
    base = Scalar(W, Poly.one(W), atoms={x: 1})
    got = Scalar(W, Poly.one(W), atoms={x: 1, unit: 0, s1: 0})
    assert got == base and got.atoms == base.atoms
    # (1 - s1) / (1 - s1^2): the keys psi_1(s1) cancel, psi_2(s1) is left
    assert Scalar(W, Poly.one(W), atoms={s1: -1, mono_pow(s1, 2): 1}).atoms == {
        (pack(s1), 2): 1}
    # (x; q)_2 / (q x; q)_1 = 1 - x, (x; q)_1 (q x; q)_-1 = 1 and (x; q)_2^0 = 1
    px, q = pack(x), pack(mono(q=1))
    assert poch_product(W, [(px, 2, 1), (px + q, 1, -1)]) == poch(x, 1)
    assert poch_product(W, [(px, 2, 1), (px + q, 1, -1)]).atoms == {(px, 1): -1}
    # (x; q)_1 / (x^2; q)_1: the keys psi_1(x) cancel on their way out
    assert poch_product(W, [(px, 1, 1), (2 * px, 1, -1)]).atoms == {(px, 2): 1}
    for symbols in ([(px, 1, 1), (px + q, -1, 1)], [(px, 2, 0)]):
        one = poch_product(W, symbols)
        assert one == Scalar.one(W) and one.atoms == {} and one.pre == 0


# -- the short path of primitive roots -------------------------------------

def _lead(m):
    return next(e for e in m if e)


def test_direction_returns_a_primitive_root_with_positive_lead():
    rng = rng_for("direction")
    checked = kept = 0
    while checked < 200:
        g = mono_pow(rand_mono(rng, T, span=3), rng.choice([1, -1, 2, -3]))
        if not any(g):
            continue
        checked += 1
        packed = pack(g)
        r, n = _direction(packed, W)
        assert gcd(*unpack(r, W)) == 1 and _lead(unpack(r, W)) > 0
        assert mono_pow(unpack(r, W), n) == g and n * r == packed
        if gcd(*g) == 1 and _lead(g) > 0:
            # a root that is already canonical is returned as it is
            assert n == 1 and r is packed
            kept += 1
    assert kept


def _primitive_symbols(rng, count):
    """Random Pochhammer symbols (x, d, power) whose x has an exponent 1 on a
    flavor variable, so every binomial 1 - q^m x is primitive."""
    out = []
    for _ in range(count):
        x = list(rand_mono(rng, T, span=2))
        x[T.a(rng.randrange(T.n))] = 1
        out.append((pack(tuple(x)), rng.randint(-3, 3), rng.choice([1, -1])))
    return out


def test_primitive_binomials_map_to_keys_without_psi_image(monkeypatch):
    rng = rng_for("primitive-keys")
    calls = []
    image = coulombkit.exactring._psi_image
    monkeypatch.setattr(coulombkit.exactring, "_psi_image",
                        lambda d, p: calls.append((d, p)) or image(d, p))
    for _ in range(40):
        x = poch_product(W, _primitive_symbols(rng, 4), rng.randint(-2, 2))
        assert all(d == 1 for _, d in x.atoms)
    assert calls == []
    # a binomial that is a proper power still splits through psi_image
    Scalar(W, Poly.one(W), atoms={mono(s1=2): 1})
    assert calls == [(1, 2)]


@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (5, 3)])
def test_variable_table_labels_pair_label_and_half_flag(n, k):
    table = VariableTable(n, k)
    assert table.labels == tuple((table.var_label(i), table.is_half_variable(i))
                                 for i in range(table.width))


@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (5, 3)])
def test_mono_str_matches_a_reference_from_the_variable_labels(n, k):
    table = VariableTable(n, k)
    rng = rng_for("mono-str-%d-%d" % (n, k))
    for _ in range(100):
        # odd exponents on half variables too, many zero exponents, and the
        # ends of the exponent bound
        m = tuple(rng.choice([0, 0, 1, -1, 2, -2, 3, -4, (1 << 31) - 1, -1 << 31])
                  for _ in range(table.width))
        assert table.packed_str(pack(m)) == mono_str_reference(table, m), m


@pytest.mark.parametrize("mult", range(-3, 4))
def test_orient_factor_keeps_the_value_of_the_binomial(mult):
    rng = rng_for("orient-%d" % mult)
    signs = set()
    for i in range(60):
        g = list(rand_mono(rng, T, span=2))
        if i % 3 == 0:
            g[T.s(0)] -= sum(g)
        g = tuple(g)
        if not any(g):
            continue
        total = sum(g)
        signs.add((total > 0) - (total < 0))
        degree, g2, unit, sign = _orient_factor(pack(g), mult)
        g2, unit = unpack(g2, W), unpack(unit, W)
        assert degree == sum(g2) and (degree > 0 or (degree == 0 and g2 <= mono_pow(g2, -1)))
        lhs, rhs = Poly.monomial(unit, sign), Poly.one(W)
        if mult >= 0:
            lhs, rhs = lhs * one_minus(g2) ** mult, rhs * one_minus(g) ** mult
        else:
            # sign * unit * (1 - g2)^mult == (1 - g)^mult, cleared of denominators
            lhs, rhs = lhs * one_minus(g) ** -mult, rhs * one_minus(g2) ** -mult
        assert lhs == rhs, (g, mult)
    # total degree < 0, 0 and > 0 were all drawn
    assert signs == {-1, 0, 1}


# -- the packed layout ---------------------------------------------------------

@pytest.mark.parametrize("width", [1, 5, 14])
def test_pack_round_trips_and_keeps_the_order_of_the_tuples(width):
    """Unpacking inverts packing; + - and * are the monomial product,
    inverse and power; the int order is the lexicographic order of the
    tuples, and the sign of a packed monomial is that of its first nonzero
    exponent."""
    rng = rng_for("pack-%d" % width)
    edges = [0, 0, 1, -1, 7, -(2 ** 31), 2 ** 31 - 1]
    monos = [tuple(rng.choice(edges + [rng.randint(-(2 ** 31), 2 ** 31 - 1)])
                   for _ in range(width)) for _ in range(300)]
    packed = [pack(m) for m in monos]
    for m, x in zip(monos, packed):
        assert unpack(x, width) == m and _degree(x) == sum(m)
        assert (x > 0) - (x < 0) == next(((e > 0) - (e < 0) for e in m if e), 0)
    assert sorted(packed) == [pack(m) for m in sorted(monos)]
    small = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(50)]
    for a, b in zip(small, small[1:]):
        assert unpack(pack(a) + pack(b), width) == mono_mul(a, b)
        assert unpack(-pack(a), width) == mono_pow(a, -1)
        assert unpack(-3 * pack(a), width) == mono_pow(a, -3)


def test_exponents_outside_the_slot_bound_raise():
    assert unpack(pack((-(2 ** 31), 2 ** 31 - 1)), 2) == (-(2 ** 31), 2 ** 31 - 1)
    for m, index in [((0, 2 ** 31, 0), 1), ((-(2 ** 31) - 1,), 0), ((5, 10 ** 30), 1)]:
        with pytest.raises(ExponentOverflowError) as exc:
            pack(m)
        assert (exc.value.index, exc.value.exponent) == (index, m[index])
    # the image of a monomial under a ring map is checked when it is formed
    ring = RingMap({T.s(0): mono(q=2 ** 19)}, W)
    assert unpack(ring.mono(pack(mono(s1=2 ** 10))), W) == mono(q=2 ** 29)
    with pytest.raises(ExponentOverflowError) as exc:
        ring.mono(pack(mono(s1=2 ** 11)))
    assert (exc.value.index, exc.value.exponent) == (0, 2 ** 31)
