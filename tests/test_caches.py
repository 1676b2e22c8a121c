"""The per-algebra caches: signed-row kernels per fixed point and degree,
Verma modules per fixed point, Whittaker vectors per order, the two-sided
relations and one evaluation ring map per point and specialization; neither
a shift nor evaluation at a shifted point builds a ring map, and the latter
must equal the shifted ring map it replaced.  Cached results must equal, and
render exactly as, the same calls on a fresh algebra, and no two algebras
may share a cached value."""

import io
import itertools
import os
import sys

import pytest

import coulombkit.coulomb
import coulombkit.exactring
import coulombkit.hypertoric
from coulombkit import (Descendent, PoleEvaluationError, Poly, Scalar, fixed_points, qde_check,
                        vertex_fp, vertex_fp_nonab, whittaker_function)
from coulombkit.cli import (_degree_report, build_parser, dispatch, parse_descendent,
                            parse_generator_word)
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import RingMap
from coulombkit.hypertoric import GaugeData, enumerate_degrees, pair
from coulombkit.pochhammer import hq_ratio, poch_product
from coulombkit.verma import VermaModule
from coulombkit.vertex import QSeries, is_lift

from conftest import counting, data_model, outcome, point_by_support, tpn, truncate
from oracles import evaluate_by_ring_map, matter_kernel

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
                # a freshly created model, so that its table renders from cold memos
                fresh = CoulombAlgebra(GaugeData.create(
                    data.chi, data.theta, blocks=data.blocks,
                    a_specialization=data.a_specialization))
                want = fn(fresh, p, parse_descendent(text, fresh.table), order)
                assert got == want, (fn.__name__, p.label(), text)
                assert _render(shared, got) == _render(fresh, want), (fn.__name__, p.label(), text)
            assert vertex_fp(shared, p, parse_descendent(text, shared.table), order) \
                == whittaker_function(shared, p, parse_descendent(text, shared.table), order)


def test_second_descendent_builds_no_kernel(a2, monkeypatch):
    """One kernel product per (point, degree): a second descendent or a
    lower order at the point builds none, and another point builds its own."""
    calls = counting(monkeypatch, coulombkit.coulomb, "hq_product")
    alg = CoulombAlgebra(a2)
    p, other = fixed_points(a2)[:2]
    per_point = len(enumerate_degrees(alg.data.cone, a2.theta, 2))
    vertex_fp(alg, p, parse_descendent("s1", alg.table), 2)
    assert len(calls) == per_point
    vertex_fp(alg, p, parse_descendent("a1*s1 - h", alg.table), 2)
    vertex_fp(alg, p, parse_descendent("1", alg.table), 1)
    assert len(calls) == per_point
    vertex_fp(alg, other, parse_descendent("1", alg.table), 2)
    assert len(calls) == 2 * per_point
    # the specialized kernels of a point are built apart from the plain ones
    vertex_fp_nonab(alg, p, parse_descendent("1", alg.table), 2)
    assert len(calls) == 3 * per_point


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


def test_relations_are_built_once_per_degree(a2, monkeypatch):
    """The modules of one algebra read their norms from one two-sided
    relation per degree: the Whittaker functions at every a2 fixed point
    multiply once per distinct degree, however many points share it."""
    alg = CoulombAlgebra(a2)
    products = counting(monkeypatch, CoulombAlgebra, "mul")
    for p in fixed_points(a2):
        whittaker_function(alg, p, parse_descendent("a1*s1 - h", alg.table), 2)
    degrees = {d for p in fixed_points(a2) for d in alg.verma_module(p).whittaker_vector(2).terms}
    assert len(products) == len(degrees)
    c = (1, -1)
    assert alg.relation(c) is alg.relation(c) == CoulombAlgebra(a2).relation(c)
    # a relation with an insertion is not memoized
    f = parse_descendent("s1", alg.table).as_scalar()
    del products[:]
    assert alg.relation(c, f) == alg.relation(c, f)
    assert len(products) == 4


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
    for d in enumerate_degrees(first.data.cone, a2.theta, 2):
        assert first.point_kernel(p, d) == second.point_kernel(p, d)
        assert first.point_kernel(p, d) is not second.point_kernel(p, d)
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


def test_algebras_share_no_ring_map(a2, monkeypatch):
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
    # a shift builds no map, and each algebra keeps its own s-exponent memo
    built = counting(monkeypatch, RingMap, "__init__")
    f = parse_descendent("a1*s1^2 - h*s2", first.table).as_scalar()
    assert first.shift(f, (3, -2)) == second.shift(f, (3, -2)) != f
    assert built == []
    assert first._s_exponents is not second._s_exponents


@pytest.mark.parametrize("model", ["a2", "tgr24", "fl3"])
def test_shifted_evaluation_is_shift_then_evaluate(model):
    """Evaluation at a shifted point (``CoulombAlgebra.evaluate``) equals the
    shifted RingMap of the point map applied by ``Scalar.subs``
    (:func:`oracles.evaluate_by_ring_map`), field by field, a pole's text and
    atom included: every point, both specializations, every kernel, mixed
    coefficient and relation near 0, every shift in [-1, 1]^k."""
    data = data_model(model)
    alg = CoulombAlgebra(data)
    near = list(itertools.product(range(-1, 2), repeat=data.k))
    values = [matter_kernel(alg, d) for d in near] + [alg.mixed_coefficient(d) for d in near]
    values += [alg.relation(d) for d in near if any(d)]
    for p in fixed_points(data):
        for specialize in (False, True):
            for f in values:
                for d in near:
                    args = (alg, p, f, specialize, d)
                    assert outcome(CoulombAlgebra.evaluate, *args) \
                        == outcome(evaluate_by_ring_map, *args), (p.label(), specialize, d)
    # a step of q whose exponent leaves the packed slot raises as the ring map does
    f = Scalar.monomial(alg.table.mono({alg.table.s(0): 2}))
    big = (1 << 61,) + (0,) * (data.k - 1)
    for p in fixed_points(data):
        for route in (CoulombAlgebra.evaluate, evaluate_by_ring_map):
            assert outcome(route, alg, p, f, False, big) == ("overflow", 0, 1 << 63)


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

    degrees = enumerate_degrees(alg.data.cone, alg.data.theta, order)
    return QSeries(order, ((tuple(sum(d[a:b]) for a, b in alg.data.block_slices()), coeff(d))
                           for d in degrees))


def test_root_factors_are_built_once_per_point_and_degree(tgr24, monkeypatch):
    """Each lift of tgr(2,4) at order 1 builds the signed-row kernel of each
    degree once, its virtual (root) rows included: one kernel product per
    lift and degree, with one factor per row with a nonzero pairing and
    degree, 12 per lift, however many descendents."""
    alg = CoulombAlgebra(tgr24)
    lifts = [point_by_support(tgr24, (0, 5)), point_by_support(tgr24, (1, 4))]
    taus = [parse_descendent(text, alg.table) for text in ("1", "a1*s1 - h")]
    builds = counting(monkeypatch, coulombkit.coulomb, "hq_product")

    def factors(power):
        return sum(1 for _, fs in builds for _, _, pw in fs if pw == power)

    degrees = enumerate_degrees(alg.data.cone, tgr24.theta, 1)
    per_degree = [sum(1 for chi, _, _ in alg.rows if pair(chi, d)) for d in degrees]
    assert per_degree == [0, 6, 6]
    got = [vertex_fp_nonab(alg, p, taus[0], 1) for p in lifts]
    assert len(builds) == len(lifts) * len(degrees)
    assert (factors(1), factors(-1)) == (16, 8)  # genuine rows, virtual rows
    got += [vertex_fp_nonab(alg, p, taus[1], 1) for p in lifts]
    assert len(builds) == len(lifts) * len(degrees)
    assert (factors(1), factors(-1)) == (16, 8)
    want = [_nonab_rebuilt(CoulombAlgebra(tgr24), p, tau, 1) for tau in taus for p in lifts]
    assert got == want
    for p in lifts:
        for d in degrees:
            assert alg.point_kernel(p, d, True) is alg.point_kernel(p, d, True)
    assert len(builds) == len(lifts) * len(degrees)


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


@pytest.mark.parametrize("model", ["tp1", "a2", "tgr24", "fl3"])
def test_closed_route_builds_no_ring_map_once_its_point_map_exists(model, monkeypatch):
    """The closed series at a point builds its kernels from the rows' images
    and adds each degree's shift to the insertion's images as a power of q,
    and the module route evaluates at each shifted point the same way: once
    the point's maps exist, no descendent and no degree builds a map."""
    data = data_model(model)
    alg = CoulombAlgebra(data)
    closed = vertex_fp_nonab if data.blocks else vertex_fp
    lifts = [p for p in fixed_points(data) if is_lift(alg, p)]
    for p in lifts:
        alg.evaluation_map(p, specialize=bool(data.blocks))
        alg.evaluation_map(p)
    built = counting(monkeypatch, RingMap, "__init__")
    for p in lifts:
        for text in ("1", "s1", "a1*s1 - h"):
            for route in (closed, whittaker_function):
                route(alg, p, parse_descendent(text, alg.table), 2)
    assert built == []


def test_point_maps_build_no_empty_ring_map(monkeypatch):
    """An unspecialized point map takes the packed restrictions as its
    images: the q-difference check of tgr(2,4) builds no map without images."""
    built = counting(monkeypatch, RingMap, "__init__")
    path = os.path.join(os.path.dirname(__file__), "data", "tgr24.json")
    args = build_parser().parse_args(["qde-check", path, "--circuit", "0", "--order", "3"])
    assert dispatch(args, out=io.StringIO()) == 0
    assert built and [args for args in built if not args[1]] == []


@pytest.mark.parametrize("argv", [
    ["vertex", "tgr24", "--order", "2"],
    ["qde-check", "tgr24", "--circuit", "0", "--order", "3"],
    ["wallcross", "a2", "--theta2", "1,2"],
    ["bethe", "tgr24", "--q1"],
    ["analyze", "a2"],
])
def test_one_variable_table_per_command(argv, monkeypatch):
    """The model keeps one table, the one its flavor images were parsed with
    if it has any: the fixed points, the algebra and the second stability
    condition of `wallcross` all read it, and none builds another."""
    built = counting(monkeypatch, coulombkit.exactring.VariableTable, "__init__")
    path = os.path.join(os.path.dirname(__file__), "data", argv[1] + ".json")
    assert dispatch(build_parser().parse_args([argv[0], path] + argv[2:]), out=io.StringIO()) == 0
    assert len(built) == 1


def _kernels(alg):
    """A fixed list of structure constants and the order-4 point kernels."""
    near = list(itertools.product(range(-1, 2), repeat=alg.data.k))
    for c, d in itertools.product(near, repeat=2):
        alg.structure_constant(c, d)
    for p in fixed_points(alg.data):
        for d in alg.degrees(4):
            alg.point_kernel(p, d)


def test_each_kernel_root_is_converted_once_per_algebra(a2, monkeypatch):
    """The algebra's kernels share their binomial roots: each distinct root
    goes through ``_direction`` once, however many kernels contain it."""
    roots = counting(monkeypatch, coulombkit.exactring, "_direction")
    _kernels(CoulombAlgebra(a2))
    assert roots and len(roots) == len(set(roots))


def test_algebras_share_no_root_memo(a2, monkeypatch):
    first, second = CoulombAlgebra(a2), CoulombAlgebra(a2)
    assert first.roots is not second.roots
    _kernels(first)
    roots = counting(monkeypatch, coulombkit.exactring, "_direction")
    _kernels(second)
    assert len(roots) == len(first.roots) == len(second.roots)


def test_memoized_unit_root_is_a_pole_on_every_use(a2):
    """A root memoized as the unit still makes a denominator (1 - 1) a pole,
    and a numerator (1 - 1) a zero, every time."""
    alg = CoulombAlgebra(a2)
    w = alg.table.width
    for _ in range(2):
        with pytest.raises(PoleEvaluationError):
            poch_product(w, [(0, 1, -1)], roots=alg.roots)
        assert poch_product(w, [(0, 1, 1)], roots=alg.roots).is_zero()
    assert alg.roots == {0: None}


def test_generators_multiply_through_no_shift_map(a2, monkeypatch):
    """Moving a coefficient across a generator builds no ring map, whether
    it is free of every s_j, as a plain generator's 1 is, or not."""
    alg = CoulombAlgebra(a2)
    built = counting(monkeypatch, RingMap, "__init__")
    c, d = (1, 0), (-2, 1)
    assert alg.mul(alg.r(c), alg.r(d)) == alg.r((-1, 1), alg.structure_constant(c, d))
    assert parse_generator_word("r[1,0] r[0,1]", alg) \
        == alg.r((1, 1), alg.structure_constant((1, 0), (0, 1)))
    assert built == []
    alg.mul(alg.r(c), alg.cartan(parse_descendent("s1", alg.table).as_scalar()))
    assert built == []


@pytest.mark.parametrize("model", ["a2", "tgr24"])
def test_structure_constants_pair_d_only_with_rows_that_move_under_c(a2, tgr24, model,
                                                                     monkeypatch):
    """A structure constant pairs each signed row with c, virtual rows
    included, and pairs with d only the rows with <chi, c> != 0: a row that
    c leaves alone has length 0 whatever d is."""
    data = a2 if model == "a2" else tgr24
    alg = CoulombAlgebra(data)
    pairs = counting(monkeypatch, coulombkit.coulomb, "pair")
    degrees = [(1, 0), (0, -1), (-2, 1), (2, 2), (0, 0)]
    for c, d in itertools.product(degrees, repeat=2):
        alg.structure_constant(c, d)
    moved = sum(1 for c in degrees for chi, _, _ in alg.rows if pair(chi, c))
    assert len(pairs) == len(degrees) * (len(alg.rows) * len(degrees) + moved)
