"""Appendix identity kernel: shift, inversion, base-inversion, cocycle."""

import itertools

from coulombkit import GaugeData, Poly, Scalar, VariableTable, poch, poch_qinv, sign_kernel
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import binomial_atoms, mono_inv, mono_mul, one_minus, pack
from coulombkit.hypertoric import pair
from coulombkit.pochhammer import hq_ratio, hq_ratio_inv, poch_product, q_shifted

from conftest import rand_mono, rng_for

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
    assert poch(x, -1) == Scalar.atom_inverse(q_shifted(x, -1))


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
        xi = mono_inv(x)
        rhs = sign_kernel(-d, W) * poch(xi, -d) / poch(mono_mul(q_shifted(xi, 1), mono_inv(h2)), -d)
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
                direct = direct * Scalar.atom_inverse(q_shifted(x, m))
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
                g = g if next(v for v in g if v) > 0 else mono_inv(g)
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

    def cancels(name, *args):
        got = getattr(virtual, name)(*args) * getattr(doubled, name)(*args).subs(images, t.width)
        return got == getattr(plain, name)(*args) * getattr(plain, name)(*args)

    degrees = list(itertools.product(range(-3, 4), repeat=2))
    for d in degrees:
        expected = plain.matter_kernel(d)
        for alpha in roots:
            s_alpha = t.mono({t.s(0): alpha[0], t.s(1): alpha[1]})
            expected = expected * hq_ratio(s_alpha, pair(alpha, d)).inv()
        assert virtual.matter_kernel(d) == expected, d
        assert cancels("matter_kernel", d), d
    near = list(itertools.product(range(-2, 3), repeat=2))
    for c in near:
        for d in near:
            assert cancels("structure_constant", c, d), (c, d)
            assert cancels("module_factor", c, d), (c, d)
