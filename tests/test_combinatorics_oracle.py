"""The one pass over row subsets against sympy, on random integer models.

``GaugeData.create`` reads every k-minor, every circuit and every fixed
point off the cofactor vectors of the (k-1)-subsets of rows.  Here each is
recomputed independently: signed determinants, nullspaces and inverses of
the row submatrices by sympy's rational linear algebra.
"""

import itertools
from math import gcd, lcm

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from coulombkit import (GaugeData, ModelError, ThetaOnWallError, circuits,  # noqa: E402
                        fixed_points)
from coulombkit.hypertoric import pair, primitive  # noqa: E402

Matrix = sympy.Matrix
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw):
    """chi with n <= 6 nonzero rows of k <= 3 entries in -2..2 and rank k;
    half the draws keep to -1..1, where more models are unimodular, and half
    draw the rows from a pool of k + 1, so that row values repeat."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 6))
    bound = draw(st.sampled_from((1, 2)))
    row = st.lists(st.integers(-bound, bound), min_size=k, max_size=k).filter(any)
    if draw(st.booleans()):
        row = st.sampled_from(draw(st.lists(row, min_size=k + 1, max_size=k + 1)))
    chi = draw(st.lists(row, min_size=n, max_size=n))
    theta = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    return chi, theta


def primitive_normals(chi, k):
    """{(k-1)-subset: primitive integer vector spanning its nullspace}, for
    the subsets of rank k-1."""
    out = {}
    for subset in itertools.combinations(range(len(chi)), k - 1):
        rows = Matrix(len(subset), k, [x for i in subset for x in chi[i]])
        if rows.rank() != k - 1:
            continue
        (v,) = rows.nullspace()
        v = [x * lcm(*(x.q for x in v)) for x in v]
        g = gcd(*(int(x) for x in v))
        out[subset] = tuple(int(x) // g for x in v)
    return out


@SETTINGS
@given(models())
def test_one_pass_against_sympy(model):
    chi, theta = model
    n, k = len(chi), len(theta)
    assume(Matrix(chi).rank() == k)
    normals = primitive_normals(chi, k)
    minors = {s: Matrix([chi[i] for i in s]).det()
              for s in itertools.combinations(range(n), k)}
    bad = next((s for s, d in minors.items() if abs(d) > 1), None)
    if bad is not None:
        # refused at the first bad subset in lexicographic order, with its signed determinant
        with pytest.raises(ModelError) as exc:
            GaugeData.create(chi, theta)
        assert str(exc.value) == "subset {%s} non-unimodular (det %d); model rejected as " \
            "non-smooth" % (",".join(str(i + 1) for i in bad), minors[bad])
        return
    on_wall = next((s for s, v in normals.items() if not pair(theta, v)), None)
    if on_wall is not None:
        # refused at the first subset, in lexicographic order, whose wall holds theta
        with pytest.raises(ThetaOnWallError) as exc:
            GaugeData.create(chi, theta)
        assert str(exc.value) == "theta lies on wall spanned by {%s}" \
            % ",".join("chi_%d" % (i + 1) for i in on_wall)
        return
    data = GaugeData.create(chi, theta)
    # c_S pairs with each row to the k-minor of S and that row, up to sign
    assert list(data.cofactors) == list(normals)
    for s, c in data.cofactors.items():
        assert type(c) is tuple and primitive(c) in (normals[s], tuple(-x for x in normals[s]))
        assert [abs(pair(row, c)) for row in chi] == [
            abs(minors.get(tuple(sorted(s + (i,))), 0)) for i in range(n)]
    oriented = {v if pair(theta, v) > 0 else tuple(-x for x in v) for v in normals.values()}
    assert [c.vector for c in circuits(data)] == sorted(oriented)
    for c in circuits(data):
        assert c.wall_rows == {i for i in range(n) if pair(chi[i], c.vector) == 0}
    points = fixed_points(data)
    assert [p.support for p in points] == [s for s, d in minors.items() if d]
    table = data.table
    for p in points:
        inv = Matrix([chi[i] for i in p.support]).inv()
        assert list(p.coeffs) == list(inv.T * Matrix(theta))
        signs = [1 if i in p.plus else -1 for i in p.support]
        assert p.rays == tuple(tuple(signs[u] * int(inv[l, u]) for l in range(k))
                               for u in range(k))
        for l in range(k):
            assert [p.restriction[l][table.a(i)] for i in p.support] == \
                [-inv[l, u] for u in range(k)]


def test_the_refusal_prints_the_signed_determinant():
    # |det| alone would print (det 2)
    with pytest.raises(ModelError) as exc:
        GaugeData.create([[1, 0], [0, 1], [1, -2]], [1, 1])
    assert str(exc.value) == "subset {1,3} non-unimodular (det -2); model rejected as non-smooth"


def test_theta_on_a_wall_is_named_by_the_first_subset_that_spans_it():
    # {1,2}, {1,3} and {2,3} span the wall z = 0 with one cofactor vector, and
    # {1,4} spans y = 0; theta lies on both
    with pytest.raises(ThetaOnWallError) as exc:
        GaugeData.create([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 0, 0])
    assert str(exc.value) == "theta lies on wall spanned by {chi_1,chi_2}"
