import os
import random

import pytest

from coulombkit import GaugeData, Poly, Scalar, VariableTable, VermaVector, fixed_points
from coulombkit.cli import load_model
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import _binomials, unpack
from coulombkit.hypertoric import pair


@pytest.fixture(scope="session")
def tp1():
    return GaugeData.create([[1], [1]], [1])


@pytest.fixture(scope="session")
def tp1_alg(tp1):
    return CoulombAlgebra(tp1)


@pytest.fixture(scope="session")
def a2():
    return GaugeData.create([[1, 0], [0, 1], [-1, -1]], [2, 1])


@pytest.fixture(scope="session")
def a2_alg(a2):
    return CoulombAlgebra(a2)


@pytest.fixture(scope="session")
def sqed11():
    # one positive and one negative weight; the simplest reversing wall
    return GaugeData.create([[1], [-1]], [1])


def tpn(n):
    return GaugeData.create([[1]] * (n + 1), [1])


def tgr_model(k, n):
    """Hom(C^n, C^k) weights under the diagonal torus, one GL block."""
    chi = []
    for j in range(k):
        for i in range(n):
            chi.append([1 if t == j else 0 for t in range(k)])
    table = VariableTable(n * k, k)
    aspec = {}
    for j in range(k):
        for i in range(n):
            aspec[j * n + i] = table.mono({table.a(i): -1})
    return GaugeData.create(chi, [1] * k, blocks=[k], a_specialization=aspec)


@pytest.fixture(scope="session")
def tgr24():
    return tgr_model(2, 4)


def data_model(name):
    """The model of ``tests/data/<name>.json``, read as the command line reads it."""
    return load_model(os.path.join(os.path.dirname(__file__), "data", name + ".json"))


@pytest.fixture(scope="session")
def tgr24_alg(tgr24):
    return CoulombAlgebra(tgr24)


@pytest.fixture(scope="session")
def tgr12():
    return tgr_model(1, 2)


def point_by_support(data, support):
    for p in fixed_points(data):
        if p.support == tuple(sorted(support)):
            return p
    raise KeyError(support)


def weyl_image(alg, w, p):
    """The fixed point w.p of a block model: each support row moves to the
    row of the permuted weight with the same specialized flavor."""
    data = alg.data

    def image(i):
        chi = data.weyl_on_degree(w, data.chi[i])
        return next(j for j in range(data.n) if data.chi[j] == chi
                    and data.a_specialization[j] == data.a_specialization[i])

    return point_by_support(data, [image(i) for i in p.support])


def highest_weight(module):
    """The cyclic vector of a Verma module: its basis vector at degree 0."""
    alg = module.algebra
    return VermaVector(module, {alg.zero_degree(): Scalar.one(alg.table.width)})


def truncate(u, order: int) -> dict:
    """The terms of the Verma vector u at degrees of level at most ``order``."""
    theta = u.module.algebra.data.theta
    return {d: f for d, f in u.terms.items() if pair(theta, d) <= order}


def rand_mono(rng, table, span=2, vars_=None):
    m = [0] * table.width
    idxs = vars_ if vars_ is not None else range(table.width)
    for idx in idxs:
        step = 2 if table.is_half_variable(idx) else 1
        m[idx] = step * rng.randint(-span, span)
    return tuple(m)


def mono_pow(m, e):
    """The monomial m^e, as an exponent tuple."""
    return tuple(a * e for a in m)


def mono_subs(m, images, width):
    """Reference image of the exponent tuple m under the ring map
    ``{variable index: image tuple}`` into ``width`` variables, computed
    exponent by exponent; a variable absent from ``images`` is fixed."""
    out = [0] * width
    for idx, e in enumerate(m):
        img = images.get(idx)
        if img is None:
            out[idx] += e
        else:
            for t, x in enumerate(img):
                out[t] += x * e
    return tuple(out)


def one_minus(g):
    """The polynomial 1 - g of an exponent tuple g; zero when g is the unit."""
    return Poly.from_terms(len(g), [((0,) * len(g), 1), (g, -1)])


def binomial_atoms(x):
    """The atoms of x regrouped into binomials, as the renderer groups them:
    ``{exponent tuple g: mult}`` for the factor (1 - g)^(-mult)."""
    return {unpack(g, x.w): mult for g, mult in _binomials(x).items()}


def rand_poly(rng, table, terms=3, span=2, vars_=None):
    items = []
    for _ in range(rng.randint(1, terms)):
        items.append((rand_mono(rng, table, span, vars_), rng.randint(-4, 4)))
    p = Poly.from_terms(table.width, items)
    if p.is_zero():
        p = Poly.one(table.width)
    return p


def rng_for(name):
    return random.Random("coulombkit:" + name)


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; the returned list gets the
    positional arguments of every call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
