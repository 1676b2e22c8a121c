"""Arrangement combinatorics against brute-force oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from coulombkit import (GaugeData, ModelError, Scalar, ThetaOnWallError,
                        circuits, eff_cone, eff_cone_fp, enumerate_degrees,
                        fixed_points, mixed_polarization, separating_circuits)
from coulombkit.hypertoric import pair

from conftest import rng_for, tgr_model, tpn


# -- independent oracles ----------------------------------------------------

def brute_circuits(data):
    """All primitive wall normals signed by theta, by scanning small vectors."""
    k = data.k
    out = set()
    span = 3
    for rho in itertools.product(range(-span, span + 1), repeat=k):
        if not any(rho):
            continue
        from math import gcd
        g = 0
        for v in rho:
            g = gcd(g, abs(v))
        if g != 1:
            continue
        on_wall = [i for i in range(data.n) if pair(data.chi[i], rho) == 0]
        # the orthogonal rows must span a hyperplane
        if k == 1:
            spans = True
        else:
            from coulombkit.hypertoric import _eliminate
            spans = on_wall and len(_eliminate([data.chi[i] for i in on_wall])[0]) == k - 1
        if spans and pair(data.theta, rho) > 0:
            out.add(rho)
    return out


def fm_feasible(generators, d):
    """Is d a nonnegative rational combination of the generators?

    Fourier-Motzkin elimination on lambda >= 0, sum lambda_i g_i = d,
    independent of the facet-normal route used by the library.
    """
    n = len(generators)
    k = len(d)
    # rows: [coeffs over lambda | rhs], meaning sum c_i lambda_i <= rhs
    ineqs = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for t in range(k):
        row = [Fraction(generators[i][t]) for i in range(n)]
        ineqs.append((row, Fraction(d[t])))
        ineqs.append(([-x for x in row], Fraction(-d[t])))
    for var in range(n):
        pos = [r for r in ineqs if r[0][var] > 0]
        neg = [r for r in ineqs if r[0][var] < 0]
        rest = [r for r in ineqs if r[0][var] == 0]
        new = list(rest)
        for rp, bp in pos:
            for rn, bn in neg:
                f = rp[var] / -rn[var]
                row = [a + f * b for a, b in zip(rp, rn)]
                new.append((row, bp + f * bn))
        ineqs = new
    return all(b >= 0 for _, b in ineqs)


# -- tests -------------------------------------------------------------------

def test_circuits_a2(a2):
    got = {c.vector for c in circuits(a2)}
    assert got == {(0, 1), (1, 0), (1, -1)}
    assert got == brute_circuits(a2)


def test_circuits_tp1(tp1):
    assert [c.vector for c in circuits(tp1)] == [(1,)]


def test_circuits_flip_theta(a2):
    flipped = GaugeData.create(a2.chi, tuple(-t for t in a2.theta))
    assert {c.vector for c in circuits(flipped)} == \
        {tuple(-x for x in c.vector) for c in circuits(a2)}


def test_theta_on_wall_rejected():
    with pytest.raises(ThetaOnWallError):
        GaugeData.create([[1, 0], [0, 1], [-1, -1]], [1, 0])


def test_zero_row_rejected():
    with pytest.raises(ModelError, match="chi_2 is zero"):
        GaugeData.create([[1], [0]], [1])


def test_non_unimodular_rejected():
    with pytest.raises(ModelError, match="non-unimodular"):
        GaugeData.create([[1, 0], [1, 2], [0, 1]], [3, 1])


def test_rank_deficient_rejected():
    with pytest.raises(ModelError, match="rank"):
        GaugeData.create([[1, 0], [2, 0]], [1, 0])


def test_fixed_points_a2(a2):
    pts = {p.support: p for p in fixed_points(a2)}
    assert set(pts) == {(0, 1), (0, 2), (1, 2)}
    assert pts[(0, 1)].plus == frozenset({0, 1})
    assert pts[(0, 2)].plus == frozenset({0}) and pts[(0, 2)].minus == frozenset({2})
    assert pts[(1, 2)].minus == frozenset({1, 2})
    rays = {p.support: set(eff_cone_fp(a2, p).generators) for p in fixed_points(a2)}
    assert rays[(0, 1)] == {(0, 1), (1, 0)}
    assert rays[(0, 2)] == {(0, 1), (1, -1)}
    assert rays[(1, 2)] == {(1, 0), (1, -1)}


def test_fixed_points_tp1(tp1):
    pts = fixed_points(tp1)
    assert [p.support for p in pts] == [(0,), (1,)]
    t = tp1.table
    # restriction at p={1}: s -> a1^-1, hence x2|_p = a2/a1
    assert pts[0].restriction[0] == t.mono({t.a(0): -1})


def test_restriction_solves_defining_equations(a2):
    # x_j|_p = 1 for j in p+, h^-1 for j in p-, for every fixed point
    t = a2.table
    for p in fixed_points(a2):
        for j in p.support:
            x = Scalar.monomial(t.x_mono(j, a2.chi[j]))
            images = {t.s(l): m for l, m in p.restriction.items()}
            val = x.subs(images, t.width)
            if j in p.plus:
                assert val == Scalar.one(t.width)
            else:
                assert val == Scalar.monomial(t.mono({1: -2}))


def test_eff_cones_and_duality(a2):
    cone = eff_cone(a2)
    assert set(cone.generators) == {(0, 1), (1, 0), (1, -1)}
    for p in fixed_points(a2):
        cp = eff_cone_fp(a2, p)
        # Eff(p) is contained in Eff(X); dually K(X) lies in K(p):
        # every facet normal of Eff(X) is a nonnegative combination of the
        # point's facet normals, certified here by cone membership.
        for g in cp.generators:
            assert cone.contains(g)
        for f in cone.facet_normals:
            assert fm_feasible(cp.facet_normals, f)
        # theta pairs positively with every nonzero ray of Eff(p)
        for g in cp.generators:
            assert pair(a2.theta, g) > 0
        # boundary rays form a Z-basis
        from coulombkit.hypertoric import _eliminate
        assert abs(_eliminate(list(cp.generators))[2]) == 1


def test_cone_membership_against_fm(a2):
    cone = eff_cone(a2)
    for d in itertools.product(range(-4, 5), repeat=2):
        assert cone.contains(d) == fm_feasible(cone.generators, d), d


def test_cone_pointedness_on_circuits(a2):
    cone = eff_cone(a2)
    for p in fixed_points(a2):
        cp = eff_cone_fp(a2, p)
        for c in circuits(a2):
            inside = cp.contains(c.vector)
            ninside = cp.contains(tuple(-x for x in c.vector))
            assert not (inside and ninside), c


def test_enumerate_degrees(tp1, a2):
    assert enumerate_degrees(eff_cone(tp1), tp1.theta, 3) == [(0,), (1,), (2,), (3,)]
    assert enumerate_degrees(eff_cone(a2), a2.theta, 0) == [(0, 0)]
    cone = eff_cone(a2)
    for order in (1, 2, 3):
        got = enumerate_degrees(cone, a2.theta, order)
        brute = sorted(
            (pair(a2.theta, d), d)
            for d in itertools.product(range(-order - 1, order + 2), repeat=2)
            if cone.contains(d) and 0 <= pair(a2.theta, d) <= order)
        assert got == [d for _, d in brute]
        assert len(set(got)) == len(got)


def test_enumerate_degrees_rejects_unpointed(a2):
    from coulombkit.hypertoric import Cone
    cone = Cone(generators=((0, 1), (0, -1)), facet_normals=((0, 0),))
    with pytest.raises(ModelError, match="not pointed"):
        enumerate_degrees(cone, a2.theta, 2)


def test_mixed_polarization(a2):
    assert mixed_polarization(a2.chi, (0, 0)) == frozenset(range(3))
    # opposite signs partition the nonzero pairings
    rng = rng_for("mixed-pol")
    for _ in range(20):
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        pol_p = mixed_polarization(a2.chi, d)
        pol_m = mixed_polarization(a2.chi, tuple(-x for x in d))
        nonzero = {i for i in range(3) if pair(a2.chi[i], d) != 0}
        assert (pol_p & pol_m) & nonzero == set()
        assert (pol_p | pol_m) >= nonzero


def test_mixed_polarization_constant_on_cochambers(a2):
    # sample interior points of each cochamber of the A2 fan by sign pattern
    rng = rng_for("cochambers")
    seen = {}
    for _ in range(300):
        d = (rng.randint(-9, 9), rng.randint(-9, 9))
        sig = tuple((pair(a2.chi[i], d) > 0) - (pair(a2.chi[i], d) < 0) for i in range(3))
        if 0 in sig:
            continue
        pol = mixed_polarization(a2.chi, d)
        assert seen.setdefault(sig, pol) == pol


def test_separating_circuits(a2):
    rev, kept = separating_circuits(a2, (1, 2))
    assert [c.vector for c in rev] == [(1, -1)]
    assert {c.vector for c in kept} == {(0, 1), (1, 0)}
    rev2, _ = separating_circuits(a2, a2.theta)
    assert rev2 == []
    rev3, _ = separating_circuits(a2, (3, 1))  # same chamber as theta
    assert rev3 == []
    with pytest.raises(ThetaOnWallError):
        separating_circuits(a2, (1, 1))


def test_block_symmetry_validation():
    with pytest.raises(ModelError, match="blocks"):
        GaugeData.create([[1, 0], [0, 1]], [1, 1], blocks=[3])
    with pytest.raises(ModelError):
        GaugeData.create([[1, 0], [1, 1]], [1, 1], blocks=[2])
    GaugeData.create([[1, 0], [0, 1]], [1, 1], blocks=[2])  # symmetric: fine


def test_block_symmetry_refuses_the_rows_before_theta():
    """Each in-block swap is tried in turn, the rows before theta."""
    with pytest.raises(ModelError, match="^rows are not invariant under within-block "
                                         "permutations$"):
        GaugeData.create([[1, 0], [1, 1]], [1, 2], blocks=[2])
    with pytest.raises(ModelError, match="^theta is not constant on a GL block$"):
        GaugeData.create([[1, 0], [0, 1]], [1, 2], blocks=[2])
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(ModelError, match="^theta is not constant on a GL block$"):
        GaugeData.create(identity, [2, 1, 3], blocks=[1, 2])
    GaugeData.create(identity, [2, 1, 1], blocks=[1, 2])


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 2), (1, 1, 1), (2, 1, 3)],
                         ids=lambda blocks: "-".join(map(str, blocks)))
def test_weyl_group_of_the_blocks(blocks):
    """On identity rows, W is the product of the symmetric groups of the
    blocks: identity first, each block fixed setwise, acting on degrees, and
    generated by the swaps; a degree is dominant when it is non-increasing
    inside each block."""
    k = sum(blocks)
    data = GaugeData.create([[int(i == j) for j in range(k)] for i in range(k)], [1] * k,
                            blocks=blocks)
    slices, start = [], 0
    for b in blocks:
        slices.append((start, start + b))
        start += b
    assert data.block_slices() == slices
    ws = data.weyl_elements()
    assert len(ws) == len(set(ws)) == math.prod(math.factorial(b) for b in blocks)
    assert ws[0] == tuple(range(k))
    for w in ws:
        assert all(set(w[a:b]) == set(range(a, b)) for a, b in slices), w
    d = tuple(10 * (j + 1) for j in range(k))
    for w in ws:
        for v in ws:
            # entry j goes to v[j] under v, then to w[v[j]] under w
            wv = tuple(w[v[j]] for j in range(k))
            assert wv in ws
            assert data.weyl_on_degree(w, data.weyl_on_degree(v, d)) == data.weyl_on_degree(wv, d)
    swaps = data.weyl_swaps()
    assert len(swaps) == k - len(blocks) and set(swaps) <= set(ws)
    group, todo = {ws[0]}, [ws[0]]
    while todo:
        v = todo.pop()
        for s in swaps:
            sv = tuple(s[v[j]] for j in range(k))
            if sv not in group:
                group.add(sv)
                todo.append(sv)
    assert group == set(ws)
    for d in itertools.product(range(-1, 2), repeat=k):
        descending = all(list(d[a:b]) == sorted(d[a:b], reverse=True) for a, b in slices)
        assert data.is_dominant(d) == descending, d


# -- the integer elimination against sympy -------------------------------------

def test_elimination_against_sympy():
    Matrix = pytest.importorskip("sympy").Matrix
    from math import gcd
    from coulombkit.hypertoric import _cofactor, _eliminate, primitive
    rng = rng_for("bareiss-oracle")
    seen = {"deficient": 0, "swap": 0, "kernel": 0, "det": 0}
    for trial in range(400):
        m, k = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        if m > 1 and trial % 3 == 0:
            # the last row a combination of two others: rank deficient
            a, b = rng.randint(0, m - 2), rng.randint(0, m - 2)
            ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
        if m > 1 and trial % 4 == 1:
            # only the last row starts nonzero, so the first pivot needs a swap
            for r in rows[:-1]:
                r[0] = 0
            rows[-1][0] = rng.choice([-3, -1, 1, 2])
            seen["swap"] += 1
        mat = Matrix(rows)
        rank = mat.rank()
        seen["deficient"] += rank < min(m, k)
        assert len(_eliminate(rows)[0]) == rank, rows
        if m == k:
            assert _eliminate(rows)[2] == mat.det(), rows
            seen["det"] += 1
        if rank == k - 1 and k > 1:
            (null,) = mat.nullspace()
            got = primitive(_cofactor(rows, k))
            assert gcd(*got) == 1, rows
            assert Matrix.hstack(null, Matrix(got)).rank() == 1, rows
            free = min(set(range(k)) - set(mat.rref()[1]))
            assert got[free] > 0, rows
            seen["kernel"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name", ["a2", "tgr24", "tp3", "tgr32"])
def test_fixed_points_against_sympy_inverse(name, request):
    Matrix = pytest.importorskip("sympy").Matrix
    data = {"tp3": lambda: tpn(3), "tgr32": lambda: tgr_model(3, 2)}.get(
        name, lambda: request.getfixturevalue(name))()
    t = data.table
    k = data.k
    pts = fixed_points(data)
    assert pts
    for p in pts:
        rows = Matrix([data.chi[i] for i in p.support])
        inv = rows.inv()
        # theta = sum_t c_t chi_{support[t]}
        assert list(p.coeffs) == list(rows.T.inv() * Matrix(data.theta))
        assert all(type(c) is int for c in p.coeffs)
        signs = [1 if i in p.plus else -1 for i in p.support]
        assert p.rays == tuple(tuple(signs[u] * int(inv[l, u]) for l in range(k))
                               for u in range(k))
        for l in range(k):
            for u, i in enumerate(p.support):
                assert p.restriction[l][t.a(i)] == -inv[l, u]


# -- the one pass over row subsets ----------------------------------------------

def test_returned_lists_are_fresh(a2):
    """A caller may change the list it gets; the model keeps its own."""
    for fn in (fixed_points, circuits):
        expected = list(fn(a2))
        got = fn(a2)
        got.clear()
        assert fn(a2) == expected
        got = fn(a2)
        got.pop()
        assert fn(a2) == expected
    assert eff_cone(a2) is eff_cone(a2)


def _elimination_sizes(monkeypatch, model):
    """The row counts of the ``_eliminate`` calls of one ``create`` of model."""
    from coulombkit import hypertoric
    sizes = []
    eliminate = hypertoric._eliminate
    monkeypatch.setattr(hypertoric, "_eliminate", lambda rows: sizes.append(len(rows))
                        or eliminate(rows))
    return GaugeData.create(model.chi, model.theta, blocks=model.blocks), sizes


def test_each_row_subset_is_eliminated_once(tgr24, monkeypatch):
    """create eliminates chi once for its rank and each distinct tuple of
    k-1 row values once (tgr(2,4) has 8 singletons, 2 of them distinct); the
    k-minors, circuits and fixed points are read off those cofactors."""
    data, sizes = _elimination_sizes(monkeypatch, tgr24)
    assert sizes == [8, 1, 1]
    points = fixed_points(data)
    assert len(sizes) == 3
    assert points == fixed_points(tgr24)
    assert circuits(data) == circuits(tgr24)


@pytest.mark.parametrize("k, n, calls", [(2, 5, 3), (3, 4, 7)])
def test_subsets_with_equal_rows_share_one_cofactor(monkeypatch, k, n, calls):
    """tgr(3,4) has 66 pairs of rows and 6 distinct pairs of row values; every
    subset keeps its own entry in ``cofactors``, all sharing one tuple."""
    model = tgr_model(k, n)
    data, sizes = _elimination_sizes(monkeypatch, model)
    assert sizes == [k * n] + [k - 1] * (calls - 1)
    # the rows are unit vectors: k - 1 of them have rank k - 1 when they differ
    assert list(data.cofactors) == [s for s in itertools.combinations(range(k * n), k - 1)
                                    if len({data.chi[i] for i in s}) == k - 1]
    shared = {}
    for subset, c in data.cofactors.items():
        assert type(c) is tuple
        assert shared.setdefault(tuple(data.chi[i] for i in subset), c) is c
    assert fixed_points(data) == fixed_points(model)
    assert circuits(data) == circuits(model)
