"""The algebra's q-shift against the ring-map route it replaced.

``CoulombAlgebra.shift`` moves every monomial of a value by q^{<e, d>}, e
its s-exponents, with no ring map; :func:`oracles.shift_by_ring_map` applies
the RingMap s_j -> q^{d_j} s_j through ``Scalar.subs``.  On random values of
every test model -- numerator and denominator atoms, keys with d > 1 such as
those of 1 - q^2, sums of several terms, monomials free of s -- the two must
agree field by field for every d in [-3, 3]^k, and an image outside
[-2^31, 2^31) must raise the same :class:`ExponentOverflowError` from both,
also when a monomial the shift leaves alone is already outside.
"""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coulombkit.coulomb import CoulombAlgebra  # noqa: E402
from coulombkit.exactring import Poly, Scalar, packed_power  # noqa: E402

from conftest import data_model, outcome  # noqa: E402
from oracles import shift_by_ring_map  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ALGEBRAS = {name: CoulombAlgebra(data_model(name)) for name in ("tp1", "a2", "tgr24", "fl3")}
# (variable kind, exponent) added to the prefactor: an s-exponent whose shift
# leaves the bound, or an a-exponent already outside it
BIG = [None] * 8 + [("s", 1 << 30), ("s", -(1 << 30)), ("a", 1 << 31), ("a", -(1 << 31) - 1)]


@st.composite
def values(draw, alg):
    """A scalar over the model's variables q^(1/2), h^(1/2), a_i and s_j."""
    table = alg.table
    gauge = [table.s(j) for j in range(alg.data.k)]
    # the s_j drawn as often as the others together, so most values move
    idxs = [0, 1] + [table.a(i) for i in range(alg.data.n)]
    idxs += gauge * (len(idxs) // len(gauge))
    monos = st.dictionaries(st.sampled_from(idxs), st.integers(-2, 2), max_size=3).map(
        lambda es: table.mono(es))
    coeffs = st.sampled_from([1, -1, 2, Fraction(-3, 2)])
    terms = draw(st.lists(st.tuples(monos, coeffs), min_size=1, max_size=3))
    num = Poly.from_terms(table.width, terms)
    if num.is_zero():
        num = Poly.one(table.width)
    atoms = draw(st.dictionaries(monos.filter(any), st.sampled_from([-2, -1, 1, 2]), max_size=3))
    if draw(st.booleans()):
        # 1 - q^2: the keys psi_1, psi_2 and psi_4 of q^(1/2)
        q2 = table.mono({0: 4})
        atoms[q2] = atoms.get(q2, 0) + draw(st.sampled_from([-1, 1]))
    x = Scalar(table.width, num, pre=draw(monos), atoms={g: m for g, m in atoms.items() if m})
    big = draw(st.sampled_from(BIG))
    if big is not None:
        kind, e = big
        x = x.mul_mono(packed_power(table.width, table.s(0) if kind == "s" else table.a(0), e))
    return x


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_shift_matches_the_ring_map_route(name):
    alg = ALGEBRAS[name]
    shifts = list(itertools.product(range(-3, 4), repeat=alg.data.k))

    @SETTINGS
    @given(values(alg))
    def check(f):
        for d in shifts:
            assert outcome(CoulombAlgebra.shift, alg, f, d) == outcome(shift_by_ring_map, alg, f, d), d

    check()


def test_shift_overflow_is_the_ring_map_routes(a2_alg):
    """Both routes raise with the same variable and exponent: a shifted
    image past the bound, and an untouched monomial already outside it."""
    alg, table = a2_alg, a2_alg.table
    w, s1, a1 = table.width, table.s(0), table.a(0)
    s_term = Scalar.from_poly(Poly.from_terms(w, [(table.unit(), 1), (table.mono({s1: 1}), -1)]))
    cases = [
        (Scalar.monomial(table.mono({s1: 1 << 30})), (1, 0), (0, 1 << 31)),
        (Scalar.monomial(table.mono({s1: 1 << 30})), (-2, 0), (0, -(1 << 32))),
        (s_term.mul_mono(packed_power(w, a1, 1 << 32)), (0, 1), (a1, 1 << 32)),
        (Scalar(w, Poly.one(w), atoms={table.mono({s1: 1, a1: 1}): 1}).mul_mono(
            packed_power(w, a1, -(1 << 31) - 1)), (3, 3), (a1, -(1 << 31) - 1)),
        # a step of q whose exponent leaves the packed slot itself
        (Scalar.monomial(table.mono({s1: 2})), (1 << 61, 0), (0, 1 << 63)),
    ]
    for f, d, (index, exponent) in cases:
        for shift in (CoulombAlgebra.shift, shift_by_ring_map):
            assert outcome(shift, alg, f, d) == ("overflow", index, exponent), (shift, d)
