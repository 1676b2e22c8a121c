"""Vertex series: closed formula vs module pairing, difference operators,
block models through the abelianized sum of their virtual abelian model."""

import pytest

import coulombkit.coulomb
from coulombkit import (GaugeData, Poly, Scalar, circuits, fixed_points, qde_check,
                        vertex_fp, vertex_fp_nonab, whittaker_function)
from coulombkit.cli import parse_descendent
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import ExponentOverflowError, mono_mul, pack, scalar_str, unpack
from coulombkit.hypertoric import enumerate_degrees, pair
from coulombkit.pochhammer import sign_kernel
from coulombkit.vertex import Descendent, QSeries, _coefficients, is_lift, weyl_collapse

from conftest import counting, data_model, one_minus, point_by_support, tgr_model, weyl_image
from oracles import closed_coefficient, kaehler_relation_check, matter_kernel


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


def test_the_kahler_strip_finds_a_q_power_in_every_part(a2_alg):
    """Q^d leaves the prefactor; a Kahler variable left in the prefactor, a
    sum-part term or an atom root is refused."""
    from coulombkit.vertex import _strip_kahler_power
    table = a2_alg.table
    d = (2, 1)
    q_d = table.mono({table.qvar(0): 4, table.qvar(1): 2})
    s1, q2 = table.mono({table.s(0): 1}), table.mono({table.qvar(1): 1})
    free = Scalar(table.width, one_minus(s1), atoms={mono_mul(s1, s1): 1})
    assert _strip_kahler_power(table, free * Scalar.monomial(q_d, 3), d) == \
        free * Scalar.monomial(table.unit(), 3)
    for left in (Scalar.monomial(q2),
                 Scalar.from_poly(Poly.from_terms(table.width, [(table.unit(), 1), (s1, 1),
                                                                (mono_mul(s1, q2), 1)])),
                 Scalar(table.width, Poly.one(table.width), atoms={mono_mul(s1, q2): 1})):
        assert left.uses((table.qvar(1),))
        with pytest.raises(AssertionError, match=r"is not Q\^\(2, 1\)"):
            _strip_kahler_power(table, free * left * Scalar.monomial(q_d), d)


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
        for w in alg.data.weyl_elements():
            assert s1 == vertex_fp_nonab(alg, weyl_image(alg, w, p), tau, 3), w


def test_weyl_lift_independence_tgr24(tgr24_alg):
    """The series of every lift equals that of its image under the block swap."""
    alg = tgr24_alg
    swap = alg.data.weyl_elements()[1]
    assert weyl_image(alg, swap, point_by_support(alg.data, (0, 5))) \
        == point_by_support(alg.data, (1, 4))
    lifts = [p for p in fixed_points(alg.data) if is_lift(alg, p)]
    assert len(lifts) == 12
    # insertions symmetric in the gauge variables of the block
    taus = [parse_descendent(text, alg.table) for text in ("1", "s1 + s2")]
    series = {p: [vertex_fp_nonab(alg, p, tau, 2) for tau in taus] for p in lifts}
    for p in lifts:
        for w in alg.data.weyl_elements():
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
        return matter_kernel(alg, d).subs(images, w)

    rels = {}
    for wp in alg.data.weyl_elements():
        wc = alg.data.weyl_on_degree(wp, c)
        nwc = tuple(-x for x in wc)
        rels[wc] = alg.mul(alg.mixed_generator(wc), alg.mixed_generator(nwc)).scalar_part()

    degrees = enumerate_degrees(alg.data.cone, alg.data.theta, 2)
    checked = 0
    for d in degrees:
        ad = coeff(d)
        for wc, rel in rels.items():
            down = tuple(x - y for x, y in zip(d, wc))
            if pair(alg.data.theta, down) < 0:
                continue
            lhs = coeff(down) if alg.data.cone.contains(down) else Scalar.zero(w)
            eig = alg.shift(rel, d).subs(images, w)
            assert lhs == ad * eig, (d, wc)
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("model, top", [
    pytest.param(lambda: tgr_model(2, 4), 2, id="2-4-2"),
    pytest.param(lambda: tgr_model(3, 4), 1, id="3-4-1"),
    # two blocks, GL(1) x GL(2): a lift must keep s2/s3 off 1, h and h^-1
    pytest.param(lambda: data_model("fl3"), 1, id="fl3-1"),
])
def test_weyl_collapsed_pairing_equals_vertex_fp_nonab(model, top):
    """The second route for block models: the virtual model's module pairing,
    flavor-specialized and Weyl-collapsed, is the closed series."""
    data = model()
    alg = CoulombAlgebra(data)
    t = alg.table
    spec = {t.a(row): mono for row, mono in data.a_specialization.items()}
    lifts = [p for p in fixed_points(data) if is_lift(alg, p)]
    for p in (lifts[0], lifts[-1]):
        # "s2 - h*s1" shares the factor 1 - h*s1/s2 with mixed coefficients
        for text in ("1", "s1", "a1*s1 - h", "s2 - h*s1"):
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
        terms = [(d, alg.evaluate(p, matter_kernel(alg, d) * alg.shift(tau.as_scalar(), d), True))
                 for d in enumerate_degrees(alg.data.cone, alg.data.theta, 3)]
        folded = {}
        for d, f in terms:
            key = alg.data.block_sums(d)
            folded[key] = folded[key] + f if key in folded else f
        assert weyl_collapse(alg, terms, 3) == QSeries(3, folded), text


# the closed route evaluates the kernel at p and the insertion at p shifted by
# d; these descendents include ones a kernel factor divides
SPLIT_DESCENDENTS = ["1", "s1", "1 - a1*s1", "(s1 - h*s2)^2", "(s1 - s2)^2"]


@pytest.mark.parametrize("model, order, blocks", [
    ("tp1", 4, False), ("a2", 3, False), ("tgr24", 2, True), ("fl3", 2, True)])
def test_split_evaluation_equals_the_evaluated_product(model, order, blocks):
    """At every lift, each coefficient equals the kernel times the shifted
    insertion evaluated at p as one product, and renders the same."""
    alg = CoulombAlgebra(data_model(model))
    texts = [t for t in SPLIT_DESCENDENTS if alg.data.k > 1 or "s2" not in t]
    lifts = [p for p in fixed_points(alg.data) if is_lift(alg, p)]
    assert lifts
    for p in lifts:
        for text in texts:
            tau = parse_descendent(text, alg.table)
            want = [(d, closed_coefficient(alg, p, tau.as_scalar(), d, specialize=blocks))
                    for d in enumerate_degrees(alg.data.cone, alg.data.theta, order)]
            if blocks:
                got = vertex_fp_nonab(alg, p, tau, order)
                # the abelian summands are equal too; they are never printed,
                # and a few render a factor as a sum part where the product
                # kept a numerator atom, while their Weyl sums render alike
                for (d, f), (_, g) in zip(_coefficients(alg, p, tau, order, True), want):
                    assert f == g, (model, p.label(), text, d)
                want = weyl_collapse(alg, want, order)
            else:
                got = vertex_fp(alg, p, tau, order)
                want = QSeries(order, want)
            assert got.coeffs.keys() == want.coeffs.keys(), (model, p.label(), text)
            for d, f in want.coeffs.items():
                assert got.coeffs[d] == f, (model, p.label(), text, d)
                assert scalar_str(alg.table, got.coeffs[d]) == scalar_str(alg.table, f), \
                    (model, p.label(), text, d)


@pytest.mark.parametrize("model", ["a2", "tgr24"])
def test_insertion_with_a_denominator_is_refused(model, monkeypatch):
    """A Scalar insertion with a denominator atom raises ValueError from both
    closed routes before any kernel is built; a numerator atom is a
    polynomial and is accepted."""
    alg = CoulombAlgebra(data_model(model))
    w = alg.table.width
    s1 = alg.table.mono({alg.table.s(0): 1})
    p = next(p for p in fixed_points(alg.data) if is_lift(alg, p))
    kernels = counting(monkeypatch, coulombkit.coulomb, "hq_product")
    for bad in (Scalar(w, Poly.one(w), atoms={s1: 1}),
                Scalar(w, parse_descendent("1 + s1", alg.table).poly, atoms={s1: 2})):
        for fn in (vertex_fp, vertex_fp_nonab):
            with pytest.raises(ValueError, match="denominator"):
                fn(alg, p, bad, 2)
    assert kernels == []
    numerator = Scalar(w, Poly.one(w), atoms={s1: -1})
    for fn in (vertex_fp, vertex_fp_nonab):
        assert fn(alg, p, numerator, 2) == fn(alg, p, parse_descendent("1 - s1", alg.table), 2)


@pytest.mark.parametrize("model, order", [("tp1", 3), ("a2", 2), ("tgr24", 2), ("fl3", 1)])
def test_closed_route_equals_the_oracle_on_atoms_and_colliding_terms(model, order):
    """At every lift, every coefficient of the closed route equals the
    oracle's evaluated product, for Scalar insertions with numerator atoms
    and for descendents whose terms map to one monomial at the point: a
    support row x and its image y, summed and cancelling."""
    alg = CoulombAlgebra(data_model(model))
    t, w = alg.table, alg.table.width
    blocks = bool(alg.data.blocks)
    s1 = t.mono({t.s(0): 1})
    degrees = enumerate_degrees(alg.data.cone, alg.data.theta, order)
    for p in [p for p in fixed_points(alg.data) if is_lift(alg, p)]:
        x = alg.x_mono(p.support[0])
        y = unpack(alg.evaluation_map(p, blocks).mono(pack(x)), w)
        insertions = [
            Scalar(w, Poly.one(w), atoms={s1: -1}),
            Scalar(w, Poly(w, {s1: 2, t.unit(): -1}), pre=s1, atoms={x: -1, mono_mul(s1, s1): -2}),
            Scalar.from_poly(Poly(w, {x: 1, y: 3})),
            Scalar.from_poly(Poly(w, {x: 1, y: -1, s1: 2})),
        ]
        for f in insertions:
            got = dict(_coefficients(alg, p, f, order, blocks))
            assert list(got) == list(degrees)
            for d in degrees:
                assert got[d] == closed_coefficient(alg, p, f, d, blocks), (model, p.label(), f, d)


def test_shifted_insertion_exponents_are_checked(tp1_alg):
    """Each degree's shift is a q-power added to a packed image, checked
    against the slot bound: on tp1 at order 1, s1^(2^30 - 1) has a series and
    s1^(2^30) leaves the bound at degree 1."""
    t = tp1_alg.table
    p = fixed_points(tp1_alg.data)[0]
    fits = Descendent(Poly.monomial(t.mono({t.s(0): 2 ** 30 - 1})))
    assert set(vertex_fp(tp1_alg, p, fits, 1).coeffs) == {(0,), (1,)}
    with pytest.raises(ExponentOverflowError) as exc:
        vertex_fp(tp1_alg, p, Descendent(Poly.monomial(t.mono({t.s(0): 2 ** 30}))), 1)
    assert (exc.value.index, exc.value.exponent) == (0, 2 ** 31)
