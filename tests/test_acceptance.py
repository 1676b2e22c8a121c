"""Acceptance gate: every criterion is an exact symbolic identity.

Each test prints one line; all equalities are decided by
cross-multiplication, so there are no tolerances anywhere.
"""

import itertools
import os

from coulombkit import (GaugeData, Poly, Scalar, circuits, eff_cone_fp,
                        fixed_points, poch, poch_qinv, sign_kernel, qde_check,
                        vertex_fp, vertex_fp_nonab, whittaker_function)
from coulombkit.bethe import bethe_relations_q1, render_bethe_system
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import mono_mul
from coulombkit.hypertoric import enumerate_degrees, pair, separating_circuits
from coulombkit.pochhammer import q_shifted
from coulombkit.verma import VermaModule
from coulombkit.vertex import Descendent, is_lift
from coulombkit.wallcross import check_reversal, dmodule_match, make_scenario

from conftest import (highest_weight, mono_pow, one_minus, rand_mono, rng_for, tpn, truncate,
                      weyl_image)
from oracles import (abelian_point_algebra, abelian_point_lift, contravariant_form,
                     kaehler_relation_check, lift_degree, project_lift_scalar, tau)

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(num, name, ok):
    print("ACCEPTANCE %02d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %02d (%s) failed" % (num, name)


def _sample_monomial(rng, table):
    m = rand_mono(rng, table, span=2, vars_=[1, table.a(0), table.a(1), table.s(0)])
    return m if any(m) else table.mono({table.s(0): 1})


def test_criterion_01_appendix_identities(tp1_alg):
    t = tp1_alg.table
    w = t.width
    h2 = t.mono({1: 2})
    rng = rng_for("acceptance-1")
    samples = 0
    ok = True
    for d in range(-8, 9):
        for _ in range(4):
            x = _sample_monomial(rng, t)
            ok = ok and poch(q_shifted(x, -d), d) * poch(x, -d) == Scalar.one(w)
            lhs = sign_kernel(d, w) * poch(mono_mul(h2, x), d) / poch(q_shifted(x, 1), d)
            xi = mono_pow(x, -1)
            rhs = sign_kernel(-d, w) * poch(xi, -d) \
                / poch(mono_mul(q_shifted(xi, 1), mono_pow(h2, -1)), -d)
            ok = ok and lhs == rhs
            direct = Scalar.one(w)
            if d > 0:
                p = Poly.one(w)
                for m in range(d):
                    p = p * one_minus(q_shifted(x, -m))
                direct = Scalar(w, p)
            elif d < 0:
                for m in range(1, -d + 1):
                    direct = direct * Scalar(w, Poly.one(w), atoms={q_shifted(x, m): 1})
            ok = ok and poch_qinv(x, d) == direct
            samples += 1
    report(1, "appendix-identities (%d samples)" % samples, ok and samples >= 50)


def test_criterion_02_tpn_relation():
    ok = True
    for n in (1, 2, 3):
        alg = CoulombAlgebra(tpn(n))
        t = alg.table
        w = t.width
        h2 = t.mono({1: 2})
        for d in (1, 2, 3):
            got = alg.structure_constant((-d,), (d,))
            expected = Scalar.one(w)
            for i in range(n + 1):
                x = alg.x_mono(i)
                expected = expected * sign_kernel(-d, w) \
                    * poch(q_shifted(x, 1), d) / poch(mono_mul(h2, x), d)
            ok = ok and got == expected
    report(2, "two-sided product on the projective-space family", ok)


def test_criterion_03_associativity_and_oracle(tp1_alg, a2_alg):
    rng = rng_for("acceptance-3")
    ok = True
    triples = 0
    for alg in (tp1_alg, a2_alg):
        k = alg.data.k
        for _ in range(55):
            c, d, e = (tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(3))
            a, b, cc = alg.r(c), alg.r(d), alg.r(e)
            ok = ok and alg.mul(alg.mul(a, b), cc) == alg.mul(a, alg.mul(b, cc))
            triples += 1
    ab = abelian_point_algebra(a2_alg)
    lifts = {c: abelian_point_lift(a2_alg, c, ab)
             for c in itertools.product((-2, -1, 0, 1, 2), repeat=2)}
    for c in lifts:
        for d in lifts:
            prod = ab.mul(lifts[c], lifts[d])
            iota = lift_degree(a2_alg, tuple(x + y for x, y in zip(c, d)))
            ok = ok and set(prod.terms) == {iota}
            ok = ok and project_lift_scalar(a2_alg, prod.terms[iota], ab) \
                == a2_alg.structure_constant(c, d)
    report(3, "associativity (%d triples) + reduction oracle" % triples,
           ok and triples >= 100)


def test_criterion_04_mixed_generator_laws(a2_alg):
    from coulombkit.pochhammer import hq_ratio, hq_ratio_inv
    alg = a2_alg
    w = alg.table.width
    ok = True
    degs = enumerate_degrees(alg.data.cone, alg.data.theta, 3)
    for c in degs:
        for d in degs:
            s = tuple(x + y for x, y in zip(c, d))
            if pair(alg.data.theta, s) > 3:
                continue
            ok = ok and alg.mul(alg.mixed_generator(c), alg.mixed_generator(d)) \
                == alg.mixed_generator(s)
    for d in degs:
        nd = tuple(-x for x in d)
        plus = alg.mul(alg.mixed_generator(d), alg.mixed_generator(nd)).scalar_part()
        minus = alg.mul(alg.mixed_generator(nd), alg.mixed_generator(d)).scalar_part()
        e1 = Scalar.one(w)
        e2 = Scalar.one(w)
        for i, chi in enumerate(alg.data.chi):
            di = pair(chi, d)
            e1 = e1 * hq_ratio(alg.x_mono(i), -di)
            e2 = e2 * hq_ratio_inv(alg.x_mono(i), di)
        ok = ok and plus == e1 and minus == e2
        ok = ok and tau(alg, alg.mixed_generator(d)) == alg.mixed_generator(nd)
    for d in [(1, 0), (2, 0)]:
        pair_gen = [alg.r(d, alg.xi_phi_coefficient(d, frozenset({0, 1}))),
                    alg.r(d, alg.xi_phi_coefficient(d, frozenset({0})))]
        ok = ok and pair_gen[0] == pair_gen[1] == alg.mixed_generator(d)
    report(4, "mixed-generator laws + cowall invariance", ok)


def test_criterion_05_a2_geometry(a2):
    pts = {p.support: p for p in fixed_points(a2)}
    rays = {s: set(eff_cone_fp(a2, p).generators) for s, p in pts.items()}
    ok = set(pts) == {(0, 1), (0, 2), (1, 2)}
    ok = ok and rays[(0, 1)] == {(0, 1), (1, 0)}
    ok = ok and rays[(0, 2)] == {(0, 1), (1, -1)}
    ok = ok and rays[(1, 2)] == {(1, 0), (1, -1)}
    rev, kept = separating_circuits(a2, (1, 2))
    ok = ok and [c.vector for c in rev] == [(1, -1)]
    ok = ok and {c.vector for c in kept} == {(0, 1), (1, 0)}
    report(5, "arrangement geometry and reversing wall", ok)


def test_criterion_06_verma_axioms(tp1_alg, a2_alg):
    from test_verma import _random_valuation_element, _random_vector
    ok = True
    for alg in (tp1_alg, a2_alg):
        circs = [c.vector for c in circuits(alg.data)]
        for p in fixed_points(alg.data):
            module = VermaModule(alg, p)
            v = highest_weight(module)
            sums = set(circs)
            for c1 in circs:
                for c2 in circs:
                    sums.add(tuple(x + y for x, y in zip(c1, c2)))
            for d in sums:
                if pair(alg.data.theta, d) > 4:
                    continue
                down = alg.mixed_generator(tuple(-x for x in d))
                ok = ok and not module.act(down, v).terms
            rng = rng_for("acceptance-6-" + p.label())
            for _ in range(4):
                a = _random_valuation_element(module, rng)
                b = _random_valuation_element(module, rng)
                u = _random_vector(module, rng, max_level=2)
                ok = ok and module.act(alg.mul(a, b), u) == module.act(a, module.act(b, u))
            for c in circs:
                if not module.cone.contains(c):
                    continue
                u = _random_vector(module, rng, max_level=3)
                z = _random_vector(module, rng, max_level=3)
                up = alg.mixed_generator(c)
                down = alg.mixed_generator(tuple(-x for x in c))
                ok = ok and contravariant_form(module, module.act(up, u), z) \
                    == contravariant_form(module, u, module.act(down, z))
    report(6, "module axioms at every fixed point", ok)


def test_criterion_07_whittaker_eigen(tp1_alg, a2_alg):
    from test_verma import _eigen_direction
    ok = True
    for alg, order in ((tp1_alg, 4), (a2_alg, 3)):
        t = alg.table
        for p in fixed_points(alg.data):
            module = VermaModule(alg, p)
            w = module.whittaker_vector(order)
            for circ in circuits(alg.data):
                target, d2 = _eigen_direction(module, circ.vector)
                if any(d2):
                    ok = ok and alg.mul(
                        alg.mixed_generator(tuple(-x for x in circ.vector)),
                        alg.mixed_generator(tuple(-x for x in d2))) \
                        == alg.mixed_generator(tuple(-x for x in target))
                lvl = pair(alg.data.theta, target)
                lhs = module.act(alg.mixed_generator(tuple(-x for x in target)), w)
                qc = Scalar.monomial(t.mono({t.qvar(j): cj for j, cj in enumerate(target)}))
                ok = ok and truncate(lhs, order - lvl) \
                    == {d: f * qc for d, f in truncate(w, order - lvl).items()}
    report(7, "eigenvector property of the half-power series", ok)


def _acceptance_descendents(table):
    w = table.width
    return [Descendent(Poly.one(w)),
            Descendent(Poly.monomial(table.mono({table.s(0): 1}))),
            Descendent(Poly.from_terms(w, [(table.mono({table.a(0): 1, table.s(0): 1}), 1),
                                           (table.mono({1: 2}), -1)]))]


def test_criterion_08_vertex_equals_whittaker(tp1_alg, a2_alg):
    ok = True
    for alg, order in ((tp1_alg, 4), (a2_alg, 3)):
        for p in fixed_points(alg.data):
            for tau in _acceptance_descendents(alg.table):
                ok = ok and vertex_fp(alg, p, tau, order) \
                    == whittaker_function(alg, p, tau, order)
    report(8, "closed formula equals module pairing (flagship)", ok)


def test_criterion_09_qde_and_kaehler(tp1_alg, a2_alg):
    ok = True
    for alg, order in ((tp1_alg, 4), (a2_alg, 3)):
        bare = Descendent(Poly.one(alg.table.width))
        taus = _acceptance_descendents(alg.table)
        for p in fixed_points(alg.data):
            for circ in circuits(alg.data):
                ok = ok and not qde_check(alg, p, bare, circ.vector, order)
                for tau in taus[:2]:
                    ok = ok and kaehler_relation_check(alg, p, tau, circ.vector, order)
    report(9, "difference-operator annihilation + Kahler step", ok)


def test_criterion_10_bethe_golden(tgr24_alg):
    rendered = render_bethe_system(tgr24_alg, bethe_relations_q1(tgr24_alg))
    with open(os.path.join(DATA, "bethe_tgr24_golden.txt")) as fh:
        golden = fh.read()
    report(10, "Grassmannian Bethe system golden match", rendered == golden)


def test_criterion_11_wallcross(a2_alg, sqed11):
    ok = True
    scn = make_scenario(a2_alg, (1, 2))
    rho3 = (1, -1)
    prod = a2_alg.mul(a2_alg.mixed_generator(tuple(-x for x in rho3)),
                      a2_alg.r(rho3, scn.algebra2.mixed_coefficient(rho3)))
    ok = ok and prod == a2_alg.one()
    ok = ok and check_reversal(scn, rho3)
    ok = ok and dmodule_match(scn, rho3)
    alg1 = CoulombAlgebra(sqed11)
    scn1 = make_scenario(alg1, (-1,))
    ok = ok and check_reversal(scn1, (1,)) and dmodule_match(scn1, (1,))
    report(11, "generator inversion across the wall", ok)


def test_criterion_12_nonabelian_consistency(tgr24_alg):
    ok = True
    plain = GaugeData.create([[1], [1]], [1], blocks=[1])
    alg = CoulombAlgebra(plain)
    for p in fixed_points(plain):
        for tau in _acceptance_descendents(alg.table):
            ok = ok and vertex_fp(alg, p, tau, 3) == vertex_fp_nonab(alg, p, tau, 3)
    # every lift of tgr(2,4) against its images under the Weyl group
    tau = Descendent(Poly.one(tgr24_alg.table.width))
    lifts = [p for p in fixed_points(tgr24_alg.data) if is_lift(tgr24_alg, p)]
    series = {p: vertex_fp_nonab(tgr24_alg, p, tau, 2) for p in lifts}
    for p in lifts:
        for w in tgr24_alg.data.weyl_elements():
            wp = weyl_image(tgr24_alg, w, p)
            ok = ok and (wp == p) == (w == (0, 1)) and series[wp] == series[p]
    report(12, "block models: trivial blocks and lift independence", ok)
