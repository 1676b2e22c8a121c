"""Module axioms at fixed points: annihilation, associativity of the action,
contravariant adjointness, commutation units, eigenvector recursion."""

import itertools

import pytest

from coulombkit import Scalar, circuits, fixed_points
from coulombkit.cli import parse_descendent
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.hypertoric import enumerate_degrees, pair
from coulombkit.verma import VermaModule, VermaVector

from conftest import binomial_atoms, counting, highest_weight, rng_for, truncate
from oracles import contravariant_form


@pytest.fixture(scope="module")
def tp1_module(tp1_alg):
    return VermaModule(tp1_alg, fixed_points(tp1_alg.data)[0])


@pytest.fixture(scope="module")
def a2_modules(a2_alg):
    return [VermaModule(a2_alg, p) for p in fixed_points(a2_alg.data)]


def test_identity_action(tp1_module):
    v = highest_weight(tp1_module)
    assert tp1_module.act(tp1_module.algebra.one(), v) == v


def test_highest_weight_annihilation(tp1_module, a2_modules):
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        v = highest_weight(module)
        circs = [c.vector for c in circuits(alg.data)]
        # single circuits and sums of circuits up to level 4 annihilate from below
        sums = set(circs)
        for c1 in circs:
            for c2 in circs:
                sums.add(tuple(x + y for x, y in zip(c1, c2)))
        for d in sums:
            if pair(alg.data.theta, d) > 4:
                continue
            down = alg.mixed_generator(tuple(-x for x in d))
            assert not module.act(down, v).terms, (module.point.label(), d)


def test_cartan_acts_by_restriction(tp1_module, a2_modules):
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        t = alg.table
        v = highest_weight(module)
        for j in range(alg.data.k):
            sj = Scalar.monomial(t.mono({t.s(j): 1}))
            got = module.act(alg.cartan(sj), v)
            assert set(got.terms) == {alg.zero_degree()}
            assert got.terms[alg.zero_degree()] == Scalar.monomial(module.point.restriction[j])


CARTAN_TEXTS = ("1", "s1", "a1*s1 - h", "1 - a1*s1")


def test_cartan_part_reads_no_structure_constant(a2_alg, monkeypatch):
    """The Cartan part acts diagonally: it looks up no structure constant
    and no inverse mixed coefficient."""
    gammas = counting(monkeypatch, CoulombAlgebra, "structure_constant")
    inverses = counting(monkeypatch, CoulombAlgebra, "mixed_coefficient_inv")
    for p in fixed_points(a2_alg.data):
        module = VermaModule(a2_alg, p)
        w = module.whittaker_vector(3)
        del gammas[:], inverses[:]
        for text in CARTAN_TEXTS:
            f = parse_descendent(text, a2_alg.table).as_scalar()
            assert set(module.act(a2_alg.cartan(f), w).terms) <= set(w.terms)
        assert (len(gammas), len(inverses)) == (0, 0), p.label()


def test_cartan_part_acts_by_its_shifted_weight(tp1_module, a2_modules):
    """At every degree e the Cartan part f scales the basis vector by the
    normal-form scalar f * M(e) * gamma(0, e) * M(e)^-1 evaluated at the
    point shifted by e, M(e) being the mixed coefficient and gamma(0, e) = 1."""
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        w = module.whittaker_vector(3)
        for text in CARTAN_TEXTS:
            f = parse_descendent(text, alg.table).as_scalar()
            got = module.act(alg.cartan(f), w)
            for e, g in w.terms.items():
                m = alg.mixed_coefficient(e)
                want = g * module.evaluate(f * m * m.inv(), shift_degree=e)
                assert got.terms.get(e, Scalar.zero(alg.table.width)) == want, \
                    (module.point.label(), text, e)
            assert set(got.terms) <= set(w.terms)


def test_cartan_part_and_generators_act_additively(tp1_module, a2_modules):
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        rng = rng_for("cartan-additive-" + module.point.label())
        for text in CARTAN_TEXTS:
            cartan = alg.cartan(parse_descendent(text, alg.table).as_scalar())
            for c in module.point.rays:
                for r_c in (alg.mixed_generator(c), alg.mixed_generator(tuple(-x for x in c))):
                    u = _random_vector(module, rng, max_level=2)
                    assert module.act(cartan + r_c, u) \
                        == module.act(cartan, u) + module.act(r_c, u), (module.point.label(), c)


def _random_valuation_element(module, rng, level=2):
    """A random element of the point's subalgebra: a product of mixed
    generators along the point's cone rays and polynomial Cartan pieces.

    Only generators at degrees in the effective cone of the point (and its
    negative) have coefficients in the valuation-like ring there, which is
    the precondition of the module action.
    """
    alg = module.algebra
    t = alg.table
    out = alg.one()
    rays = list(module.point.rays)
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.6:
            c = rng.choice(rays)
            if rng.random() < 0.5:
                c = tuple(-x for x in c)
            out = alg.mul(out, alg.mixed_generator(c))
        else:
            m = t.mono({t.s(rng.randint(0, alg.data.k - 1)): rng.randint(0, 1),
                        t.a(rng.randint(0, alg.data.n - 1)): rng.randint(-1, 1),
                        1: 2 * rng.randint(0, 1)})
            out = alg.mul(out, alg.cartan(Scalar.monomial(m, rng.choice([1, -1, 2]))))
    return out


def _random_vector(module, rng, max_level=3):
    alg = module.algebra
    degs = enumerate_degrees(module.cone, alg.data.theta, max_level)
    t = alg.table
    terms = {}
    for d in degs:
        if rng.random() < 0.5:
            m = t.mono({t.a(rng.randint(0, alg.data.n - 1)): rng.randint(-1, 1)})
            terms[d] = Scalar.monomial(m, rng.randint(1, 3))
    if not terms:
        terms = {alg.zero_degree(): Scalar.one(t.width)}
    return VermaVector(module, terms)


def test_module_axiom(tp1_module, a2_modules):
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        rng = rng_for("module-axiom-" + module.point.label())
        for _ in range(6):
            a = _random_valuation_element(module, rng)
            b = _random_valuation_element(module, rng)
            u = _random_vector(module, rng, max_level=2)
            lhs = module.act(alg.mul(a, b), u)
            rhs = module.act(a, module.act(b, u))
            assert lhs == rhs
            assert (lhs + VermaVector(module, {d: -f for d, f in rhs.terms.items()})).terms == {}


def test_contravariant_form(tp1_module, a2_modules):
    for module in [tp1_module] + a2_modules:
        alg = module.algebra
        w = alg.table.width
        v = highest_weight(module)
        assert contravariant_form(module, v, v) == Scalar.one(w)
        rng = rng_for("contravariant-" + module.point.label())
        circs = [c.vector for c in circuits(alg.data) if module.cone.contains(c.vector)]
        for _ in range(4):
            d = rng.choice(circs)
            u = _random_vector(module, rng, max_level=3)
            z = _random_vector(module, rng, max_level=3)
            up = alg.mixed_generator(d)
            down = alg.mixed_generator(tuple(-x for x in d))
            lhs = contravariant_form(module, module.act(up, u), z)
            rhs = contravariant_form(module, u, module.act(down, z))
            assert lhs == rhs, (module.point.label(), d)


def test_diagonal_norms(tp1_module):
    module = tp1_module
    alg = module.algebra
    v = highest_weight(module)
    for d in [(1,), (2,), (3,)]:
        bd = module.act(alg.mixed_generator(d), v)
        assert set(bd.terms) == {d}
        assert bd.terms[d] == Scalar.one(alg.table.width)
        assert contravariant_form(module, bd, bd) == module.norm(d)
        # off-diagonal vanishing by grading
        for c in [(1,), (2,), (3,)]:
            if c != d:
                bc = module.act(alg.mixed_generator(c), v)
                assert contravariant_form(module, bd, bc).is_zero()


def test_commutation_unit(a2_modules):
    """Positive and negative boundary generators at distinct rays commute up
    to a unit whose denominators only involve rows outside the support."""
    for module in a2_modules:
        alg = module.algebra
        t = alg.table
        rays = list(module.point.rays)
        for ri, rj in itertools.permutations(rays, 2):
            up = alg.mixed_generator(rj)
            down = alg.mixed_generator(tuple(-x for x in ri))
            left = alg.mul(down, up)
            right = alg.mul(up, down)
            key = tuple(x - y for x, y in zip(rj, ri))
            f = left.terms[key]
            g = right.terms[key]
            u = f / g
            outside = set(range(alg.data.n)) - set(module.point.support)
            for mono in [g for g, mult in binomial_atoms(u).items() if mult > 0]:
                body = {idx: e for idx, e in enumerate(mono) if e and idx >= 2}
                matched = False
                for i in outside:
                    x = t.x_mono(i, alg.data.chi[i])
                    xbody = {idx: e for idx, e in enumerate(x) if e and idx >= 2}
                    xneg = {idx: -e for idx, e in xbody.items()}
                    if body == xbody or body == xneg:
                        matched = True
                        break
                assert matched, (module.point.label(), ri, rj, mono)


def test_whittaker_eigen_tp1(tp1_alg):
    for p in fixed_points(tp1_alg.data):
        module = VermaModule(tp1_alg, p)
        t = tp1_alg.table
        w = module.whittaker_vector(4)
        assert w.terms[(0,)] == Scalar.one(t.width)
        lhs = module.act(tp1_alg.mixed_generator((-1,)), w)
        q1 = Scalar.monomial(t.mono({t.qvar(0): 1}))
        assert truncate(lhs, 3) == {d: f * q1 for d, f in truncate(w, 3).items()}


def _eigen_direction(module, c):
    """A degree in Eff(p) equivalent to c for the eigen identity.

    When the circuit leaves the effective cone of the point, the lowering
    generator at -c lies outside the point's subalgebra; the identity is
    tested in the cleared form at c + d2 with d2 a small cone ray multiple,
    using that the lowering generators compose on the negative cone.
    """
    if module.cone.contains(c):
        return c, module.algebra.zero_degree()
    for mult in (1, 2, 3):
        for ray in module.point.rays:
            d2 = tuple(mult * x for x in ray)
            cd = tuple(x + y for x, y in zip(c, d2))
            if module.cone.contains(cd):
                return cd, d2
    raise AssertionError("no clearing direction for %r" % (c,))


def test_whittaker_eigen_a2(a2_alg):
    t = a2_alg.table
    circs = [c.vector for c in circuits(a2_alg.data)]
    for p in fixed_points(a2_alg.data):
        module = VermaModule(a2_alg, p)
        w = module.whittaker_vector(3)
        for c in circs:
            target, d2 = _eigen_direction(module, c)
            if any(d2):
                # the composition law ties the cleared identity back to c
                assert a2_alg.mul(a2_alg.mixed_generator(tuple(-x for x in c)),
                                  a2_alg.mixed_generator(tuple(-x for x in d2))) \
                    == a2_alg.mixed_generator(tuple(-x for x in target))
            lvl = pair(a2_alg.data.theta, target)
            lhs = module.act(a2_alg.mixed_generator(tuple(-x for x in target)), w)
            qc = Scalar.monomial(t.mono({t.qvar(j): cj for j, cj in enumerate(target)}))
            rhs = {d: f * qc for d, f in truncate(w, 3 - lvl).items()}
            assert truncate(lhs, 3 - lvl) == rhs, (p.label(), c)


def test_whittaker_tp1_first_coefficient(tp1_alg):
    p = fixed_points(tp1_alg.data)[0]
    module = VermaModule(tp1_alg, p)
    w = module.whittaker_vector(1)
    t = tp1_alg.table
    expected = Scalar.monomial(t.mono({t.qvar(0): 1})) * module.norm((1,)).inv()
    assert w.terms[(1,)] == expected
    # and the norm itself is the evaluated two-sided product
    prod = tp1_alg.mul(tp1_alg.mixed_generator((-1,)),
                       tp1_alg.mixed_generator((1,))).scalar_part()
    assert module.norm((1,)) == module.evaluate(prod)
