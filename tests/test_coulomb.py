"""Convolution algebra: relations, normal form, mixed generators, module."""

import itertools

import pytest

from coulombkit import GaugeData, Poly, Scalar, circuits, specialize_q1
from coulombkit.coulomb import AlgebraElement, CoulombAlgebra, collect, delta, epsilon
from coulombkit.exactring import mono_mul
from coulombkit.hypertoric import pair
from coulombkit.pochhammer import hq_ratio, hq_ratio_inv, poch, q_shifted, sign_kernel

from conftest import one_minus, rng_for, tgr_model, tpn
from oracles import (ModuleElement, abelian_point_algebra, abelian_point_lift, lift_degree,
                     module_act, module_vector, project_lift_scalar, tau)


def test_structure_constant_identity(a2_alg):
    rng = rng_for("sc-identity")
    for _ in range(10):
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert a2_alg.structure_constant((0, 0), d) == Scalar.one(a2_alg.table.width)
        assert a2_alg.structure_constant(d, (0, 0)) == Scalar.one(a2_alg.table.width)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tpn_relation(n, d):
    """r_{-d} r_d on the rank-1 model with n+1 equal weights."""
    alg = CoulombAlgebra(tpn(n))
    t = alg.table
    w = t.width
    got = alg.structure_constant((-d,), (d,))
    expected = Scalar.one(w)
    h2 = t.mono({1: 2})
    for i in range(n + 1):
        x = alg.x_mono(i)
        expected = expected * sign_kernel(-d, w) \
            * poch(q_shifted(x, 1), d) / poch(mono_mul(h2, x), d)
    assert got == expected


def test_abelian_point_relations():
    data = GaugeData.create([[1, 0], [0, 1]], [1, 1])
    alg = CoulombAlgebra(data)
    t = alg.table
    w = t.width
    h2 = t.mono({1: 2})
    b = [(1, 0), (0, 1)]
    nb = [(-1, 0), (0, -1)]
    # commuting pairs for distinct coordinates
    for ei in (b[0], nb[0]):
        for ej in (b[1], nb[1]):
            assert alg.mul(alg.r(ei), alg.r(ej)) == alg.mul(alg.r(ej), alg.r(ei))
    for i in range(2):
        x = alg.x_mono(i)
        lhs = alg.mul(alg.r(nb[i]), alg.r(b[i]))
        coeff = sign_kernel(-1, w) * Scalar(
            w, one_minus(q_shifted(x, 1)), atoms={mono_mul(h2, x): 1})
        assert lhs == alg.r((0, 0), coeff)
        lhs2 = alg.mul(alg.r(b[i]), alg.r(nb[i]))
        coeff2 = sign_kernel(-1, w) * Scalar(
            w, one_minus(x), atoms={q_shifted(mono_mul(h2, x), -1): 1})
        assert lhs2 == alg.r((0, 0), coeff2)


def test_shift_lemma_as_elements(a2_alg):
    t = a2_alg.table
    rng = rng_for("shift-lemma")
    for _ in range(8):
        d = (rng.randint(-2, 2), rng.randint(-2, 2))
        j = rng.randint(0, 1)
        sj = Scalar.monomial(t.mono({t.s(j): 1}))
        lhs = a2_alg.mul(a2_alg.r(d), a2_alg.cartan(sj))
        shifted = Scalar.monomial(t.mono({t.s(j): 1, 0: -2 * d[j]}))
        rhs = a2_alg.mul(a2_alg.cartan(shifted), a2_alg.r(d))
        assert lhs == rhs, (d, j)


def test_shift_matches_manual():
    alg = CoulombAlgebra(GaugeData.create([[1, 0], [0, 1]], [1, 1]))
    t = alg.table
    f = Scalar(t.width, one_minus(t.mono({t.a(0): 1, t.s(0): 1, t.s(1): -1})))
    g = alg.shift(f, (2, 1))
    assert g == Scalar(t.width, one_minus(t.mono({0: 2, t.a(0): 1, t.s(0): 1, t.s(1): -1})))


def _random_element(alg, rng, span=3, with_coeff=False):
    t = alg.table
    d = tuple(rng.randint(-span, span) for _ in range(alg.data.k))
    if not with_coeff:
        return alg.r(d)
    m = t.mono({t.s(rng.randint(0, alg.data.k - 1)): rng.randint(-1, 1),
                t.a(rng.randint(0, alg.data.n - 1)): rng.randint(0, 1)})
    return alg.r(d, Scalar.monomial(m, rng.choice([1, 2, -1])))


@pytest.mark.parametrize("pol", [None, frozenset(), frozenset({0, 2})])
def test_associativity_three_polarizations(a2_alg, pol):
    rng = rng_for("assoc-%r" % (sorted(pol) if pol else pol,))
    for _ in range(12):
        a = _random_element(a2_alg, rng, with_coeff=True)
        b = _random_element(a2_alg, rng)
        c = _random_element(a2_alg, rng)
        lhs = a2_alg.mul(a2_alg.mul(a, b, pol), c, pol)
        rhs = a2_alg.mul(a, a2_alg.mul(b, c, pol), pol)
        assert lhs == rhs


def test_associativity_tp1(tp1_alg):
    rng = rng_for("assoc-tp1")
    for _ in range(12):
        a = _random_element(tp1_alg, rng, with_coeff=True)
        b = _random_element(tp1_alg, rng)
        c = _random_element(tp1_alg, rng)
        assert tp1_alg.mul(tp1_alg.mul(a, b), c) == tp1_alg.mul(a, tp1_alg.mul(b, c))


def test_identity_element(a2_alg):
    rng = rng_for("identity")
    for _ in range(6):
        a = _random_element(a2_alg, rng, with_coeff=True)
        assert a2_alg.mul(a2_alg.one(), a) == a
        assert a2_alg.mul(a, a2_alg.one()) == a
        assert (a + (-a)).terms == {} and (a - a).is_zero()


def test_combination_sums_repeated_degrees_and_compares_degrees_first(tp1_alg, monkeypatch):
    w = tp1_alg.table.width
    x = poch(tp1_alg.x_mono(0), 6) * poch(tp1_alg.x_mono(1), 5)
    one = Scalar.one(w)
    assert collect([((1,), x), ((2,), one), ((1,), -x), ((2,), x), ((1,), one)]) == {
        (2,): one + x, (1,): one}
    assert collect([((1,), x), ((1,), -x)]) == {}
    pairs = [((1,), x), ((0,), one), ((1,), one)]
    assert AlgebraElement(tp1_alg, pairs) == AlgebraElement(tp1_alg, collect(pairs))
    assert AlgebraElement(tp1_alg, iter(pairs)).terms == {(1,): x + one, (0,): one}
    # an algebra element is never a module element, even with equal terms
    assert not (tp1_alg.r((1,), x) == module_vector(tp1_alg, (1,), x))
    assert tp1_alg.r((1,), x) != module_vector(tp1_alg, (1,), x)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert not (tp1_alg.r((1,), x) == tp1_alg.r((2,), x))
    assert not (module_vector(tp1_alg, (1,), x)
                == module_vector(tp1_alg, (1,), x) + module_vector(tp1_alg, (2,), x))
    assert calls == []


def test_tau(a2_alg):
    rng = rng_for("tau")
    for _ in range(10):
        a = _random_element(a2_alg, rng, with_coeff=True)
        b = _random_element(a2_alg, rng, span=2)
        assert tau(a2_alg, tau(a2_alg, a)) == a
        assert tau(a2_alg, a2_alg.mul(a, b)) == a2_alg.mul(tau(a2_alg, b), tau(a2_alg, a))
    for d in [(1, 0), (0, -2), (2, 1)]:
        assert tau(a2_alg, a2_alg.r(d)) == a2_alg.r(tuple(-x for x in d))


def test_mixed_generator_zero(a2_alg):
    assert a2_alg.mixed_generator((0, 0)) == a2_alg.one()


def _effective_degrees(alg, order):
    from coulombkit.hypertoric import enumerate_degrees
    return enumerate_degrees(alg.eff(), alg.data.theta, order)


def test_mixed_product_law(a2_alg):
    degs = _effective_degrees(a2_alg, 3)
    for c in degs:
        for d in degs:
            s = tuple(x + y for x, y in zip(c, d))
            if pair(a2_alg.data.theta, s) > 3:
                continue
            assert a2_alg.mul(a2_alg.mixed_generator(c), a2_alg.mixed_generator(d)) \
                == a2_alg.mixed_generator(s), (c, d)
            nc = tuple(-x for x in c)
            nd = tuple(-x for x in d)
            ns = tuple(-x for x in s)
            assert a2_alg.mul(a2_alg.mixed_generator(nc), a2_alg.mixed_generator(nd)) \
                == a2_alg.mixed_generator(ns), (c, d)


def test_mixed_inverse_products(a2_alg):
    w = a2_alg.table.width
    for d in _effective_degrees(a2_alg, 3):
        nd = tuple(-x for x in d)
        plus = a2_alg.mul(a2_alg.mixed_generator(d), a2_alg.mixed_generator(nd)).scalar_part()
        minus = a2_alg.mul(a2_alg.mixed_generator(nd), a2_alg.mixed_generator(d)).scalar_part()
        e1 = Scalar.one(w)
        e2 = Scalar.one(w)
        for i, chi in enumerate(a2_alg.data.chi):
            di = pair(chi, d)
            e1 = e1 * hq_ratio(a2_alg.x_mono(i), -di)
            e2 = e2 * hq_ratio_inv(a2_alg.x_mono(i), di)
        assert plus == e1, d
        assert minus == e2, d


def test_tau_of_mixed(a2_alg):
    for d in _effective_degrees(a2_alg, 3):
        nd = tuple(-x for x in d)
        assert tau(a2_alg, a2_alg.mixed_generator(d)) == a2_alg.mixed_generator(nd)
        assert tau(a2_alg, a2_alg.mixed_generator(nd)) == a2_alg.mixed_generator(d)


def test_cowall_invariance(a2_alg):
    # (1,0) and (2,0) sit on the cowall between the two effective cochambers
    for d in [(1, 0), (2, 0)]:
        both = [a2_alg.r(d, a2_alg.xi_phi_coefficient(d, frozenset({0, 1}))),
                a2_alg.r(d, a2_alg.xi_phi_coefficient(d, frozenset({0})))]
        assert both[0] == both[1]
        assert both[0] == a2_alg.mixed_generator(d)
        # the same two cochambers serve the negated degree
        nd = tuple(-x for x in d)
        both_n = [a2_alg.r(nd, a2_alg.xi_phi_coefficient(nd, frozenset({0, 1}))),
                  a2_alg.r(nd, a2_alg.xi_phi_coefficient(nd, frozenset({0})))]
        assert both_n[0] == both_n[1]
        assert both_n[0] == a2_alg.mixed_generator(nd)


def test_hamiltonian_reduction_oracle(a2_alg):
    """Lift products through independent coordinates reproduce the structure
    constants after the gauge-variable substitution."""
    ab = abelian_point_algebra(a2_alg)
    lifts = {}
    for c in itertools.product((-2, -1, 0, 1, 2), repeat=2):
        lifts[c] = abelian_point_lift(a2_alg, c, ab)
    for c in lifts:
        for d in lifts:
            prod = ab.mul(lifts[c], lifts[d])
            iota = lift_degree(a2_alg, tuple(x + y for x, y in zip(c, d)))
            assert set(prod.terms) == {iota}, (c, d)
            got = project_lift_scalar(a2_alg, prod.terms[iota], ab)
            assert got == a2_alg.structure_constant(c, d), (c, d)


def test_lift_of_tp1_circuit(tp1_alg):
    ab = abelian_point_algebra(tp1_alg)
    lift = abelian_point_lift(tp1_alg, (1,), ab)
    direct = ab.mul(ab.r((1, 0)), ab.r((0, 1)))
    assert lift == direct
    assert abelian_point_lift(tp1_alg, (0,), ab) == ab.one()


def test_q1_commutativity(a2_alg):
    t = a2_alg.table
    for c in itertools.product((-2, -1, 0, 1, 2), repeat=2):
        for d in itertools.product((-2, -1, 0, 1, 2), repeat=2):
            g1 = specialize_q1(a2_alg.structure_constant(c, d), t)
            g2 = specialize_q1(a2_alg.structure_constant(d, c), t)
            assert g1 == g2, (c, d)
    # and for a composite with Cartan coefficients
    f = Scalar.monomial(t.mono({t.s(0): 1}))
    g = Scalar.monomial(t.mono({t.s(1): -1}))
    a = a2_alg.r((1, 0), f)
    b = a2_alg.r((0, 1), g)
    ab_ = a2_alg.mul(a, b).terms[(1, 1)]
    ba_ = a2_alg.mul(b, a).terms[(1, 1)]
    assert specialize_q1(ab_, t) == specialize_q1(ba_, t)


def test_module_action(a2_alg):
    w = a2_alg.table.width
    tc = module_vector(a2_alg, (1, 1))
    assert module_act(a2_alg, tc, a2_alg.one()) == tc
    for d in _effective_degrees(a2_alg, 2):
        if not any(d):
            continue
        plus = module_act(a2_alg, tc, a2_alg.mixed_generator(d))
        assert plus == module_vector(a2_alg, tuple(x + y for x, y in zip((1, 1), d))), d
        assert (plus + ModuleElement(a2_alg, {c: -f for c, f in plus.terms.items()})).terms == {}
        nd = tuple(-x for x in d)
        got = module_act(a2_alg, tc, a2_alg.mixed_generator(nd))
        coeff = Scalar.one(w)
        for i, chi in enumerate(a2_alg.data.chi):
            coeff = coeff * hq_ratio(a2_alg.x_mono(i), -pair(chi, d))
        cd = tuple(x - y for x, y in zip((1, 1), d))
        assert got == module_vector(a2_alg, cd, a2_alg.shift_coefficient(coeff, cd)), d


def test_module_grading(a2_alg):
    rng = rng_for("module-grading")
    for _ in range(8):
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
        d = (rng.randint(-2, 2), rng.randint(-2, 2))
        out = module_act(a2_alg, module_vector(a2_alg, c), a2_alg.r(d))
        assert set(out.terms) <= {tuple(x + y for x, y in zip(c, d))}


def test_epsilon_delta():
    assert [epsilon(v) for v in (-3, 0, 5)] == [-1, 0, 1]
    assert delta(2, 3) == 0 and delta(-2, -3) == 0 and delta(0, 4) == 0
    assert delta(2, -3) == 2 and delta(-4, 1) == 1


def test_weyl_on_degree_moves_entry_j_to_position_w_j():
    """On tgr(3,4) the Weyl group is S_3, with 3-cycles: entry j of d lands at
    position w[j], and w composed with its inverse is the identity."""
    alg = CoulombAlgebra(tgr_model(3, 4))
    ws = alg.data.weyl_elements()
    assert len(ws) == 6 and (1, 2, 0) in ws
    assert alg.data.weyl_on_degree((1, 2, 0), (10, 20, 30)) == (30, 10, 20)
    assert alg.data.weyl_on_degree((2, 0, 1), (10, 20, 30)) == (20, 30, 10)
    d = (10, 20, 30)
    for w in ws:
        inverse = tuple(w.index(j) for j in range(3))
        assert inverse in ws
        assert alg.data.weyl_on_degree(inverse, alg.data.weyl_on_degree(w, d)) == d
        assert alg.data.weyl_on_degree(w, alg.data.weyl_on_degree(inverse, d)) == d
        # block sums do not see the permutation
        assert alg.data.block_sums(alg.data.weyl_on_degree(w, d)) == (60,)


@pytest.mark.parametrize("name, theta2", [("a2", (1, 2)), ("tgr24", (-1, -1))])
def test_relation_is_the_two_sided_product(name, theta2, request):
    """relation(c, f, other) is the scalar part of R_c f R_{-c}, R being the
    mixed generators of ``other`` multiplied in the algebra itself."""
    alg = request.getfixturevalue(name + "_alg")
    data = alg.data
    other = CoulombAlgebra(GaugeData.create(data.chi, theta2, blocks=data.blocks,
                                            a_specialization=data.a_specialization))
    t = alg.table
    f = Scalar.from_poly(Poly.from_terms(t.width, [(t.mono({t.s(0): 1}), 1),
                                                   (t.mono({t.a(0): 1}), -2)]))
    checked = 0
    for circ in circuits(data):
        for c in (circ.vector, tuple(-x for x in circ.vector)):
            nc = tuple(-x for x in c)
            for g, kw in ((alg, {}), (other, {"other": other})):
                left, right = alg.r(c, g.mixed_coefficient(c)), alg.r(nc, g.mixed_coefficient(nc))
                assert alg.relation(c, **kw) == alg.mul(left, right).scalar_part()
                assert alg.relation(c, f, **kw) == \
                    alg.mul(alg.mul(left, alg.cartan(f)), right).scalar_part()
                checked += 1
    assert checked == 4 * len(circuits(data))


def test_abelian_model_is_the_trivial_block_case(a2_alg):
    """Blocks of size 1: one Weyl element, the identity; every degree is
    dominant; the block sums of a degree are the degree."""
    assert a2_alg.data.weyl_elements() == [(0, 1)]
    assert len(a2_alg.rows) == a2_alg.data.n
    for d in itertools.product(range(-2, 3), repeat=2):
        assert a2_alg.data.is_dominant(d)
        assert a2_alg.data.block_sums(d) == d
