"""The per-algebra caches: signed-row kernels per degree, Verma modules per
fixed point, Whittaker vectors per order, and the evaluation and shift ring
maps.  Cached results must equal, and render exactly as, the same calls on a
fresh algebra, and no two algebras may share a cached value."""

import itertools
import sys

import pytest

import coulombkit.coulomb
import coulombkit.exactring
import coulombkit.hypertoric
from coulombkit import (Descendent, PoleEvaluationError, Poly, fixed_points, qde_check,
                        vertex_fp, vertex_fp_nonab, whittaker_function)
from coulombkit.cli import _degree_report, parse_descendent
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.hypertoric import enumerate_degrees, pair
from coulombkit.pochhammer import hq_ratio
from coulombkit.verma import VermaModule
from coulombkit.vertex import QSeries

from conftest import counting, point_by_support, tpn, truncate

# the three acceptance descendents plus one more
DESCENDENTS = ["1", "s1", "a1*s1 - h", "2*a2*s1^2 + 3*h"]


def _render(alg, series):
    return tuple(_degree_report(alg.table, series.coeffs, as_json, "Q^({d}): {v}\n",
                                "order %d\n" % series.order) for as_json in (False, True))


@pytest.mark.parametrize("model", ["tp2", "a2"])
def test_shared_algebra_matches_a_fresh_algebra_per_call(a2, model):
    data, order = (tpn(2) if model == "tp2" else a2), 2
    shared = CoulombAlgebra(data)
    for p in fixed_points(data):
        for text in DESCENDENTS:
            for fn in (vertex_fp, whittaker_function):
                got = fn(shared, p, parse_descendent(text, shared.table), order)
                fresh = CoulombAlgebra(data)
                want = fn(fresh, p, parse_descendent(text, fresh.table), order)
                assert got == want, (fn.__name__, p.label(), text)
                assert _render(shared, got) == _render(fresh, want), (fn.__name__, p.label(), text)
            assert vertex_fp(shared, p, parse_descendent(text, shared.table), order) \
                == whittaker_function(shared, p, parse_descendent(text, shared.table), order)


def test_second_descendent_builds_no_kernel(a2, monkeypatch):
    calls = counting(monkeypatch, coulombkit.coulomb, "hq_product")
    alg = CoulombAlgebra(a2)
    p = fixed_points(a2)[0]
    vertex_fp(alg, p, parse_descendent("s1", alg.table), 2)
    # one kernel product per degree
    assert len(calls) == len(enumerate_degrees(alg.eff(), a2.theta, 2))
    del calls[:]
    vertex_fp(alg, p, parse_descendent("a1*s1 - h", alg.table), 2)
    # another point shares the unevaluated kernels too
    vertex_fp(alg, fixed_points(a2)[1], parse_descendent("1", alg.table), 2)
    assert calls == []


def test_second_whittaker_function_builds_no_module(a2, monkeypatch):
    built = counting(monkeypatch, VermaModule, "__init__")
    alg = CoulombAlgebra(a2)
    p = fixed_points(a2)[0]
    whittaker_function(alg, p, parse_descendent("s1", alg.table), 2)
    assert len(built) == 1
    whittaker_function(alg, p, parse_descendent("a1*s1 - h", alg.table), 1)
    assert len(built) == 1
    # a point equal to p, found again, is the same module
    assert alg.verma_module(fixed_points(a2)[0]) is alg.verma_module(p)
    assert len(built) == 1


def test_whittaker_vector_is_memoized_per_order(a2):
    module = CoulombAlgebra(a2).verma_module(fixed_points(a2)[0])
    w2 = module.whittaker_vector(2)
    assert module.whittaker_vector(2) is w2
    assert module.whittaker_vector(1).terms == truncate(w2, 1)
    with pytest.raises(ValueError):
        module.whittaker_vector(-1)


def test_algebras_share_no_cached_values(a2, monkeypatch):
    first, second = CoulombAlgebra(a2), CoulombAlgebra(a2)
    p = fixed_points(a2)[0]
    tau = parse_descendent("s1", first.table)
    vertex_fp(first, p, tau, 2)
    whittaker_function(first, p, tau, 2)
    # a fresh algebra starts cold: it builds every kernel and the module again
    kernels = counting(monkeypatch, coulombkit.coulomb, "hq_product")
    built = counting(monkeypatch, VermaModule, "__init__")
    vertex_fp(second, p, tau, 2)
    whittaker_function(second, p, tau, 2)
    assert kernels and len(built) == 1
    for d in enumerate_degrees(first.eff(), a2.theta, 2):
        assert first.matter_kernel(d) == second.matter_kernel(d)
        assert first.matter_kernel(d) is not second.matter_kernel(d)
    m1, m2 = first.verma_module(p), second.verma_module(p)
    assert m1 is not m2 and m1.algebra is first and m2.algebra is second
    assert m1.whittaker_vector(2) is not m2.whittaker_vector(2)
    assert m1.whittaker_vector(2).module is m1


def test_second_descendent_maps_no_atom_root_again(a2, monkeypatch):
    """Both routes evaluate through the algebra's ring maps, so once one
    descendent has been paired at a point, the next maps no atom root: a
    monomial insertion leaves no sum part whose roots need finding either."""
    alg = CoulombAlgebra(a2)
    p = fixed_points(a2)[0]
    first = parse_descendent("a1*s1 - h", alg.table)
    assert vertex_fp(alg, p, first, 2) == whittaker_function(alg, p, first, 2)
    roots = counting(monkeypatch, coulombkit.exactring, "_direction")
    for text in ("s1", "2*a2*s1^2"):
        tau = parse_descendent(text, alg.table)
        assert vertex_fp(alg, p, tau, 2) == whittaker_function(alg, p, tau, 2)
    assert roots == []


def test_algebras_share_no_ring_map(a2):
    first, second = CoulombAlgebra(a2), CoulombAlgebra(a2)
    p = fixed_points(a2)[0]
    for alg in (first, second):
        tau = parse_descendent("s1", alg.table)
        vertex_fp(alg, p, tau, 2)
        whittaker_function(alg, p, tau, 2)
    for specialize in (False, True):
        ring = first.evaluation_map(p, specialize)
        assert first.evaluation_map(p, specialize) is ring
        assert second.evaluation_map(p, specialize) is not ring
        assert second.evaluation_map(p, specialize).images == ring.images
    d = (1, 0)
    assert first.shift_map(d) is first.shift_map(d)
    assert first.shift_map(d) is not second.shift_map(d)
    # the shifted maps a module evaluates through live on its algebra
    shifted = first.evaluation_map(p, shift=d)
    assert first.evaluation_map(p, shift=list(d)) is shifted
    assert second.evaluation_map(p, shift=d) is not shifted
    assert second.evaluation_map(p, shift=d).images == shifted.images


def test_zero_shift_is_the_unshifted_map(a2):
    alg = CoulombAlgebra(a2)
    for p in fixed_points(a2):
        for specialize in (False, True):
            ring = alg.evaluation_map(p, specialize)
            assert alg.evaluation_map(p, specialize, shift=(0, 0)) is ring
            assert alg.evaluation_map(p, specialize, shift=[0, 0]) is ring
            assert alg.evaluation_map(p, specialize, shift=(0, 1)) is not ring


@pytest.mark.parametrize("model", ["a2", "tgr24"])
def test_shifted_evaluation_is_shift_then_evaluate(model, request):
    """The algebra's shifted map evaluates a kernel as shifting it first and
    evaluating it unshifted does, a pole included."""
    data = request.getfixturevalue(model)
    alg = CoulombAlgebra(data)
    near = list(itertools.product(range(-1, 2), repeat=data.k))
    kernels = [alg.matter_kernel(d) for d in near] + [alg.mixed_coefficient(d) for d in near]

    def outcome(p, f, specialize, shift=()):
        try:
            return alg.evaluate(p, f, specialize, shift)
        except PoleEvaluationError:
            return "pole"

    for p in fixed_points(data):
        for specialize in (False, True):
            for f in kernels:
                for d in near:
                    assert outcome(p, f, specialize, shift=d) \
                        == outcome(p, alg.shift(f, d), specialize), (p.label(), d)


def test_cached_evaluation_map_raises_the_pole_of_a_fresh_one(tgr24):
    """The non-lift p{1,5} of tgr(2,4) is a pole of every degree-1 term; the
    algebra's cached map raises it again, as a fresh algebra's map does."""
    alg = CoulombAlgebra(tgr24)
    p = point_by_support(tgr24, (0, 4))
    errors = []
    for a in (alg, alg, CoulombAlgebra(tgr24)):
        with pytest.raises(PoleEvaluationError) as exc:
            vertex_fp_nonab(a, p, Descendent(Poly.one(a.table.width)), 1)
        errors.append((str(exc.value), exc.value.atom))
    assert errors == [("pole at fixed point p{1,5}: atom (1 - s1*s2^-1) vanishes",
                       alg.table.mono({alg.table.s(0): 1, alg.table.s(1): -1}))] * 3


def _nonab_rebuilt(alg, p, tau, order):
    """vertex_fp_nonab with the kernel of every signed row built afresh per degree."""
    def coeff(d):
        weight = alg.shift(tau.as_scalar(), d)
        for i, (chi, _, sign) in enumerate(alg.rows):
            m = pair(chi, d)
            if m:
                x = alg.x_mono(i)
                weight = weight * (hq_ratio(x, m) if sign > 0 else hq_ratio(x, m).inv())
        return alg.evaluate(p, weight, specialize=True)

    degrees = enumerate_degrees(alg.eff(), alg.data.theta, order)
    return QSeries(order, ((tuple(sum(d[a:b]) for a, b in alg.data.block_slices()), coeff(d))
                           for d in degrees))


def test_root_factors_are_built_once_per_degree(tgr24, monkeypatch):
    """Both lifts of tgr(2,4) at order 1 share the signed-row kernel of each
    degree, its virtual (root) rows included: one kernel product per degree,
    with one factor per row with a nonzero pairing and degree, 12 in all,
    however many calls."""
    alg = CoulombAlgebra(tgr24)
    lifts = [point_by_support(tgr24, (0, 5)), point_by_support(tgr24, (1, 4))]
    taus = [parse_descendent(text, alg.table) for text in ("1", "a1*s1 - h")]
    builds = counting(monkeypatch, coulombkit.coulomb, "hq_product")

    def factors(power):
        return sum(1 for _, fs in builds for _, _, pw in fs if pw == power)

    degrees = enumerate_degrees(alg.eff(), tgr24.theta, 1)
    per_degree = [sum(1 for chi, _, _ in alg.rows if pair(chi, d)) for d in degrees]
    assert per_degree == [0, 6, 6]
    got = [vertex_fp_nonab(alg, p, taus[0], 1) for p in lifts]
    assert len(builds) == len(degrees)
    assert (factors(1), factors(-1)) == (8, 4)  # genuine rows, virtual rows
    got += [vertex_fp_nonab(alg, p, taus[1], 1) for p in lifts]
    assert len(builds) == len(degrees)
    assert (factors(1), factors(-1)) == (8, 4)
    want = [_nonab_rebuilt(CoulombAlgebra(tgr24), p, tau, 1) for tau in taus for p in lifts]
    assert got == want
    for d in degrees:
        assert alg.matter_kernel(d) is alg.matter_kernel(d)


def test_degrees_are_enumerated_once_per_order(a2, monkeypatch):
    """Every vertex series and q-difference check of an algebra reads one
    degree list per order."""
    orders = []
    walk = coulombkit.hypertoric.enumerate_degrees

    def counted(cone, theta, order):
        orders.append(order)
        return walk(cone, theta, order)

    for mod in [m for name, m in sys.modules.items() if name.startswith("coulombkit")]:
        for name, value in list(vars(mod).items()):
            if value is walk:
                monkeypatch.setattr(mod, name, counted)
    alg = CoulombAlgebra(a2)
    for p in fixed_points(a2):
        for text in ("1", "s1", "a1*s1 - h"):
            vertex_fp(alg, p, parse_descendent(text, alg.table), 2)
    qde_check(alg, fixed_points(a2)[0], parse_descendent("1", alg.table), (1, 0), 2)
    vertex_fp(alg, fixed_points(a2)[0], parse_descendent("s1", alg.table), 1)
    assert sorted(orders) == [1, 2]


@pytest.mark.parametrize("model", ["a2", "tgr24"])
def test_shifted_map_is_copied_from_the_unshifted_one(model, request, monkeypatch):
    """Once the unshifted map of a point exists, a shifted map is the one
    RingMap built from its images, each s_j image times q^{shift_j}."""
    data = request.getfixturevalue(model)
    alg = CoulombAlgebra(data)
    built = counting(monkeypatch, coulombkit.coulomb, "RingMap")
    for p in fixed_points(data):
        for specialize in (False, True):
            ring = alg.evaluation_map(p, specialize)
            del built[:]
            for shift in itertools.product(range(-1, 2), repeat=data.k):
                if any(shift):
                    shifted = alg.evaluation_map(p, specialize, shift)
                    assert len(built) == 1, (p.label(), specialize, shift)
                    del built[:]
                    want = dict(ring.images)
                    for j in p.restriction:
                        want[alg.table.s(j)] += shift[j] * alg.q
                    assert shifted.images == want
