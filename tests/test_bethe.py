"""Relation emission, q = 1 limits, vertex recursion compatibility, golden file."""

import json
import os

from coulombkit import (Poly, Scalar, circuits, fixed_points,
                        specialize_q1)
from coulombkit.bethe import bethe_relations_q1, dmodule_relations, render_bethe_system
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import mono_mul, scalar_from_structured, scalar_str
from coulombkit.hypertoric import enumerate_degrees, pair
from coulombkit.vertex import Descendent, vertex_fp

from conftest import binomial_atoms, mono_pow, one_minus, tgr_model
from oracles import matter_kernel

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "bethe_tgr24_golden.txt")


def test_relation_count_abelian(tp1_alg, a2_alg):
    assert len(dmodule_relations(tp1_alg)) == len(circuits(tp1_alg.data)) == 1
    assert len(dmodule_relations(a2_alg)) == len(circuits(a2_alg.data)) == 3


def test_tp1_dmodule_scalar(tp1_alg):
    from coulombkit.pochhammer import hq_ratio
    w = tp1_alg.table.width
    rel, = dmodule_relations(tp1_alg)
    expected = hq_ratio(tp1_alg.x_mono(0), -1) * hq_ratio(tp1_alg.x_mono(1), -1)
    assert rel.lhs == expected
    assert rel.rhs_degree == (1,)


def test_q1_specialization_commutes(tp1_alg, a2_alg):
    for alg in (tp1_alg, a2_alg):
        direct = bethe_relations_q1(alg)
        lowered = [specialize_q1(r.lhs, alg.table) for r in dmodule_relations(alg)]
        assert len(direct) == len(lowered)
        for rel, low in zip(direct, lowered):
            assert rel.lhs == low
            assert rel.kind == "bethe_q1"


def test_relations_share_one_flavor_map_and_one_q1_map(monkeypatch):
    """tgr(3,4) has 6 relations; the ring maps built for them are one flavor
    map and one q = 1 map, so none is built per relation or per shift, and
    asking again on the same algebra builds none."""
    from coulombkit import exactring
    made = []
    init = exactring.RingMap.__init__
    monkeypatch.setattr(exactring.RingMap, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    alg = CoulombAlgebra(tgr_model(3, 4))
    relations = bethe_relations_q1(alg)
    assert len(relations) == 6
    assert len(made) == 2
    assert sum(images == {0: 0} for images, _ in made) == 1
    del made[:]
    assert [r.lhs for r in bethe_relations_q1(alg)] == [r.lhs for r in relations]
    assert made == []


def test_tp1_bethe_closed_form(tp1_alg):
    t = tp1_alg.table
    w = t.width
    rel, = bethe_relations_q1(tp1_alg)
    h2 = t.mono({1: 2})
    expected = Scalar.monomial(h2)
    for i in range(2):
        x = tp1_alg.x_mono(i)
        expected = expected * Scalar(w, one_minus(x), atoms={mono_mul(h2, x): 1})
    assert rel.lhs == expected


def test_relations_match_vertex_recursion(tp1_alg, a2_alg):
    """Each difference relation, shifted by the degree and restricted, steps
    the vertex coefficients down by its circuit."""
    for alg, order in ((tp1_alg, 3), (a2_alg, 3)):
        t = alg.table
        w = t.width
        rels = dmodule_relations(alg)
        for p in fixed_points(alg.data):
            images = alg.evaluation_map(p)
            series = vertex_fp(alg, p, Descendent(Poly.one(w)), order)
            for rel in rels:
                c = rel.circuit
                for d in enumerate_degrees(alg.data.cone, alg.data.theta, order):
                    down = tuple(x - y for x, y in zip(d, c))
                    vdc = series.coeffs.get(down, Scalar.zero(w)) \
                        if alg.data.cone.contains(down) else Scalar.zero(w)
                    # assemble the stepped coefficient before restriction:
                    # the relation eigenvalue can carry the pole that kills
                    # a vanishing coefficient
                    stepped = matter_kernel(alg, d) * alg.shift(rel.lhs, d)
                    assert vdc == stepped.subs(images, w), (p.label(), c, d)


def test_q0_limit_cuts_kring_ideal(tp1_alg, a2_alg, sqed11):
    """At Q -> 0 the q = 1 relation numerator is the classical ring relation
    of its circuit: the product of (1 - x_i) over positive pairings and
    (1 - h x_i) over negative ones, up to a unit monomial."""
    for data in (tp1_alg.data, a2_alg.data, sqed11):
        alg = CoulombAlgebra(data)
        t = alg.table
        w = t.width
        h2 = t.mono({1: 2})
        for rel in bethe_relations_q1(alg):
            expected = {}
            for i, chi in enumerate(data.chi):
                ci = pair(chi, rel.circuit)
                g = alg.x_mono(i) if ci > 0 else mono_mul(h2, alg.x_mono(i))
                if ci:
                    expected[g] = expected.get(g, 0) + abs(ci)
            # the numerator (the lhs times its denominator binomials) over the
            # expected product must leave a monomial
            dens = {g: -m for g, m in binomial_atoms(rel.lhs).items() if m > 0}
            numerator = rel.lhs * Scalar(w, Poly.one(w), atoms=dens)
            q = numerator * Scalar(w, Poly.one(w), atoms=expected)
            assert q.num.is_monomial() and not q.atoms, rel.circuit


def test_weyl_equivariance_nonabelian(tgr24_alg):
    rels = dmodule_relations(tgr24_alg)
    assert len(rels) == len(tgr24_alg.data.weyl_elements())
    lhs_set = [r.lhs for r in rels]
    # acting by the transposition permutes the two relations
    w = tgr24_alg.data.weyl_elements()[1]
    # w moves the gauge and Kahler variables of index j to index w[j], as
    # weyl_on_degree moves degree entries
    t = tgr24_alg.table
    images = {v(j): t.mono({v(dst): 1}) for j, dst in enumerate(w) for v in (t.s, t.qvar)}
    images = [f.subs(images, t.width) for f in lhs_set]
    assert images[0] == lhs_set[1] and images[1] == lhs_set[0]


def test_golden_tgr24(tgr24_alg):
    rendered = render_bethe_system(tgr24_alg, bethe_relations_q1(tgr24_alg))
    with open(GOLDEN) as fh:
        assert rendered == fh.read()


def test_empty_system_renders_empty(tp1_alg):
    assert render_bethe_system(tp1_alg, []) == ""


def test_json_rendering_roundtrip(tp1_alg, tgr24_alg):
    for alg in (tp1_alg, tgr24_alg):
        rels = bethe_relations_q1(alg)
        payload = render_bethe_system(alg, rels, "json")
        again = json.loads(json.dumps(payload))
        assert len(again) == len(rels)
        for entry, rel in zip(again, sorted(rels, key=lambda r: (r.circuit, r.weyl_rep or ()))):
            assert tuple(entry["circuit"]) == rel.circuit
            back = scalar_from_structured(alg.table.width, entry["lhs"])
            assert back == rel.lhs


def test_factored_rendering_orients_numerator_atoms(tp1_alg):
    """(1 - g) and -g (1 - g^-1) are one value and render as one string."""
    t = tp1_alg.table
    w = t.width
    g = t.mono({t.a(0): -1, t.s(0): 1})
    den = {t.mono({1: 2, t.s(0): 1}): 1}
    kept = Scalar(w, Poly.one(w), atoms={g: -1, **den})
    flipped = Scalar.monomial(g, -1) * Scalar(w, Poly.one(w), atoms={mono_pow(g, -1): -1, **den})
    assert kept == flipped
    assert scalar_str(t, kept) == scalar_str(t, flipped) \
        == "1 * (1 - a1^-1*s1) / ( (1 - h*s1) )"
