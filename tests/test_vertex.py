"""Vertex series: closed formula vs module pairing, difference operators,
block models through the abelianized sum of their virtual abelian model."""

import pytest

from coulombkit import (GaugeData, Poly, Scalar, circuits, fixed_points,
                        kaehler_relation_check, qde_check, vertex_fp,
                        vertex_fp_nonab, whittaker_function)
from coulombkit.cli import parse_descendent
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import mono_mul
from coulombkit.hypertoric import enumerate_degrees, pair
from coulombkit.pochhammer import sign_kernel
from coulombkit.vertex import Descendent, QSeries, is_lift, weyl_collapse

from conftest import one_minus, point_by_support, tgr_model, weyl_image


def _descendents(table):
    w = table.width
    return [
        Descendent(Poly.one(w)),
        Descendent(Poly.monomial(table.mono({table.s(0): 1}))),
        Descendent(Poly.from_terms(w, [(table.mono({table.a(0): 1, table.s(0): 1}), 1),
                                       (table.mono({1: 2}), -1)])),
    ]


def test_vertex_order_zero(tp1_alg):
    p = fixed_points(tp1_alg.data)[0]
    series = vertex_fp(tp1_alg, p, _descendents(tp1_alg.table)[0], 0)
    assert series.coeffs == {(0,): Scalar.one(tp1_alg.table.width)}


def test_vertex_degree_zero_is_restricted_insertion(a2_alg):
    t = a2_alg.table
    for p in fixed_points(a2_alg.data):
        for tau in _descendents(t):
            series = vertex_fp(a2_alg, p, tau, 2)
            images = a2_alg.evaluation_map(p)
            expected = tau.as_scalar().subs(images, t.width)
            got = series.coeffs.get((0, 0), Scalar.zero(t.width))
            assert got == expected


def test_vertex_tp1_degree_one(tp1_alg):
    t = tp1_alg.table
    w = t.width
    p = fixed_points(tp1_alg.data)[0]
    series = vertex_fp(tp1_alg, p, Descendent(Poly.one(w)), 2)
    u = t.mono({t.a(0): -1, t.a(1): 1})
    h2 = t.mono({1: 2})
    q2 = t.mono({0: 2})
    expected = sign_kernel(2, w) * Scalar(
        w, one_minus(h2) * one_minus(mono_mul(h2, u)),
        atoms={q2: 1, mono_mul(q2, u): 1})
    assert series.coeffs[(1,)] == expected


def test_vertex_equals_whittaker_tp1(tp1_alg):
    for p in fixed_points(tp1_alg.data):
        for tau in _descendents(tp1_alg.table):
            series = vertex_fp(tp1_alg, p, tau, 4)
            assert series == whittaker_function(tp1_alg, p, tau, 4)
            negated = QSeries(4, {d: -f for d, f in series.coeffs.items()})
            assert (series + negated).coeffs == {} and series != negated
            assert QSeries(4, list(series.coeffs.items()) * 2) == series + series


def test_vertex_equals_whittaker_a2(a2_alg):
    for p in fixed_points(a2_alg.data):
        for tau in _descendents(a2_alg.table):
            assert vertex_fp(a2_alg, p, tau, 3) == whittaker_function(a2_alg, p, tau, 3)


def test_whittaker_coefficient_formula(tp1_alg):
    # coefficient at d is tau(q^d S)|_p divided by the two-sided norm
    from coulombkit.verma import VermaModule
    t = tp1_alg.table
    p = fixed_points(tp1_alg.data)[0]
    module = VermaModule(tp1_alg, p)
    tau = _descendents(t)[1]
    series = whittaker_function(tp1_alg, p, tau, 3)
    for d in [(0,), (1,), (2,), (3,)]:
        expected = module.evaluate(tau.as_scalar(), shift_degree=d) * module.norm(d).inv()
        assert series.coeffs.get(d, Scalar.zero(t.width)) == expected


def test_descendent_shift_identity(a2_alg):
    """Inserting s_j multiplies the degree-d coefficient by q^{d_j} S_j|_p."""
    t = a2_alg.table
    w = t.width
    for p in fixed_points(a2_alg.data):
        base = vertex_fp(a2_alg, p, Descendent(Poly.one(w)), 2)
        for j in range(a2_alg.data.k):
            shifted = vertex_fp(a2_alg, p, Descendent(Poly.monomial(t.mono({t.s(j): 1}))), 2)
            for d, coeff in base.coeffs.items():
                eig = Scalar.monomial(p.restriction[j]) * Scalar.monomial(t.mono({0: 2 * d[j]}))
                got = shifted.coeffs.get(d, Scalar.zero(w))
                assert got == coeff * eig, (p.label(), j, d)


def test_qde_annihilation_tp1(tp1_alg):
    t = tp1_alg.table
    sfree = [Descendent(Poly.one(t.width)),
             Descendent(Poly.from_terms(t.width, [(t.mono({t.a(0): 1}), 1),
                                                  (t.mono({1: 2}), -1)]))]
    for p in fixed_points(tp1_alg.data):
        for tau in sfree:
            residuals = qde_check(tp1_alg, p, tau, (1,), 4)
            assert not residuals, (p.label(), residuals)


def test_qde_sees_decorated_series_fail(tp1_alg):
    # the annihilation operator belongs to the undecorated series; a gauge
    # variable in the insertion changes the relation and must be detected
    t = tp1_alg.table
    p = fixed_points(tp1_alg.data)[0]
    tau = Descendent(Poly.monomial(t.mono({t.s(0): 1})))
    assert qde_check(tp1_alg, p, tau, (1,), 3)


def test_qde_annihilation_a2(a2_alg):
    circs = [c.vector for c in circuits(a2_alg.data)]
    for p in fixed_points(a2_alg.data):
        for c in circs:
            residuals = qde_check(a2_alg, p, Descendent(Poly.one(a2_alg.table.width)), c, 3)
            assert not residuals, (p.label(), c)


def test_kaehler_relation(tp1_alg, a2_alg):
    taus = _descendents(tp1_alg.table)
    for p in fixed_points(tp1_alg.data):
        for tau in taus[:2]:
            assert kaehler_relation_check(tp1_alg, p, tau, (1,), 4)
    taus2 = _descendents(a2_alg.table)
    for p in fixed_points(a2_alg.data):
        for c in [c.vector for c in circuits(a2_alg.data)]:
            assert kaehler_relation_check(a2_alg, p, taus2[0], c, 3)


def test_trivial_blocks_agree(tgr12):
    """With singleton blocks and no root factors the two routes coincide."""
    plain = GaugeData.create(tgr12.chi, tgr12.theta, blocks=tgr12.blocks)
    alg = CoulombAlgebra(plain)
    for p in fixed_points(plain):
        for tau in _descendents(alg.table):
            assert vertex_fp(alg, p, tau, 3) == vertex_fp_nonab(alg, p, tau, 3)


def test_tgr12_specialized_series_matches_relabelled_tp1(tgr12, tp1_alg):
    """The rank-1 block model with inverted flavors is the same series as the
    basic two-row model after a_i -> a_i^{-1}."""
    alg = CoulombAlgebra(tgr12)
    t = alg.table
    p = point_by_support(tgr12, (0,))
    got = vertex_fp_nonab(alg, p, Descendent(Poly.one(t.width)), 3)
    t1 = tp1_alg.table
    base = vertex_fp(tp1_alg, fixed_points(tp1_alg.data)[0],
                     Descendent(Poly.one(t1.width)), 3)
    images = {t1.a(0): t1.mono({t1.a(0): -1}), t1.a(1): t1.mono({t1.a(1): -1})}
    relabelled = {d: f.subs(images, t1.width) for d, f in base.coeffs.items()}
    for d, f in got.coeffs.items():
        assert f == relabelled[d], d


def test_weyl_lift_independence_tgr12(tgr12):
    """The series at the lift equals that at each of its Weyl images."""
    alg = CoulombAlgebra(tgr12)
    p = point_by_support(tgr12, (0,))
    for tau in _descendents(alg.table):
        s1 = vertex_fp_nonab(alg, p, tau, 3)
        for w in alg.weyl_elements():
            assert s1 == vertex_fp_nonab(alg, weyl_image(alg, w, p), tau, 3), w


def test_weyl_lift_independence_tgr24(tgr24_alg):
    """The series of every lift equals that of its image under the block swap."""
    alg = tgr24_alg
    swap = alg.weyl_elements()[1]
    assert weyl_image(alg, swap, point_by_support(alg.data, (0, 5))) \
        == point_by_support(alg.data, (1, 4))
    lifts = [p for p in fixed_points(alg.data) if is_lift(alg, p)]
    assert len(lifts) == 12
    # insertions symmetric in the gauge variables of the block
    taus = [parse_descendent(text, alg.table) for text in ("1", "s1 + s2")]
    series = {p: [vertex_fp_nonab(alg, p, tau, 2) for tau in taus] for p in lifts}
    for p in lifts:
        for w in alg.weyl_elements():
            wp = weyl_image(alg, w, p)
            assert (wp == p) == (w == (0, 1)), (p.label(), w)
            assert series[p] == series[wp], (p.label(), wp.label())


def test_nonabelian_kaehler_recursion(tgr24_alg):
    """Per-degree form of the block-model Kahler relation at a lift.

    For every Weyl image of the dominant circuit, stepping the abelianized
    coefficient down by the image circuit multiplies it by the relation
    scalar (the two-sided product of the virtual model, whose virtual rows
    carry the root factor) shifted by the degree and restricted at the lift.
    Summed over the Weyl group this is exactly the difference relation of
    the block model.
    """
    alg = tgr24_alg
    t = alg.table
    w = t.width
    p = point_by_support(alg.data, (0, 5))
    images = alg.evaluation_map(p, specialize=True)
    c = (1, 0)

    def coeff(d):
        return alg.matter_kernel(d).subs(images, w)

    rels = {}
    for wp in alg.weyl_elements():
        wc = alg.weyl_on_degree(wp, c)
        nwc = tuple(-x for x in wc)
        rels[wc] = alg.mul(alg.mixed_generator(wc), alg.mixed_generator(nwc)).scalar_part()

    degrees = enumerate_degrees(alg.eff(), alg.data.theta, 2)
    checked = 0
    for d in degrees:
        ad = coeff(d)
        for wc, rel in rels.items():
            down = tuple(x - y for x, y in zip(d, wc))
            if pair(alg.data.theta, down) < 0:
                continue
            lhs = coeff(down) if alg.eff().contains(down) else Scalar.zero(w)
            eig = alg.shift(rel, d).subs(images, w)
            assert lhs == ad * eig, (d, wc)
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("k, n, top", [(2, 4, 2), (3, 4, 1)])
def test_weyl_collapsed_pairing_equals_vertex_fp_nonab(k, n, top):
    """The second route for block models: the virtual model's module pairing,
    flavor-specialized and Weyl-collapsed, is the closed series."""
    data = tgr_model(k, n)
    alg = CoulombAlgebra(data)
    t = alg.table
    spec = {t.a(row): mono for row, mono in data.a_specialization.items()}
    lifts = [p for p in fixed_points(data) if is_lift(alg, p)]
    for p in (lifts[0], lifts[-1]):
        for text in ("1", "s1", "a1*s1 - h"):
            tau = parse_descendent(text, t)
            for order in range(top + 1):
                pairing = whittaker_function(alg, p, tau, order)
                collapsed = weyl_collapse(alg, ((d, f.subs(spec, t.width))
                                                for d, f in pairing.coeffs.items()), order)
                assert collapsed == vertex_fp_nonab(alg, p, tau, order), (p.label(), text, order)


def test_qde_check_holds_at_every_tgr24_fixed_point(tgr24_alg):
    """The library check runs at any fixed point, lift or not: the virtual
    series is annihilated at all 16 points of tgr(2,4); the command checks
    the 12 lifts."""
    pts = fixed_points(tgr24_alg.data)
    assert len(pts) == 16 and sum(is_lift(tgr24_alg, p) for p in pts) == 12
    for circ in circuits(tgr24_alg.data):
        for p in pts:
            assert not qde_check(tgr24_alg, p, Descendent(Poly.one(tgr24_alg.table.width)),
                                 circ.vector, 2), (p.label(), circ.vector)


def test_weyl_collapse_sums_each_key_as_a_left_fold_would(tgr24_alg):
    """The balanced pairwise sum is the value of the left fold, with the same
    degree keys; a descendent that is not Weyl-invariant is accepted here."""
    alg = tgr24_alg
    p = next(p for p in fixed_points(alg.data) if is_lift(alg, p))
    for text in ("1", "s1", "a1*s1 - h"):
        tau = parse_descendent(text, alg.table)
        terms = [(d, alg.evaluate(p, alg.matter_kernel(d) * alg.shift(tau.as_scalar(), d), True))
                 for d in enumerate_degrees(alg.eff(), alg.data.theta, 3)]
        folded = {}
        for d, f in terms:
            key = alg.data.block_sums(d)
            folded[key] = folded[key] + f if key in folded else f
        assert weyl_collapse(alg, terms, 3) == QSeries(3, folded), text
