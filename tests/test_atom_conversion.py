"""Atom conversion against the reference with one path for every atom.

``exactring._mapped_keys`` converts a binomial whose image is u^{+1} or
u^{-1}, u primitive, to its one key directly; :func:`oracles.mapped_keys_reference`
sends every atom through the tables of psi_d and psi_d(x^p).  On atoms
``((g, d), mult)`` with g = u^p, p in {+-1, +-2, +-4}, and d in
{1, 2, 3, 4, 6}, under the identity and under a map that sends one variable
to 1, the two must return the same coefficient, prefactor and keys in the
same order; a unit root must be the same pole (denominator, compared by
atom) or the same vanishing value (numerator) from both.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coulombkit.exactring import (PoleEvaluationError, RingMap, RootMemo, VariableTable,  # noqa: E402
                                  _mapped_keys, pack)

from oracles import mapped_keys_reference  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
T = VariableTable(2, 2)  # q^(1/2), h^(1/2), a1, a2, s1, s2, Q1^(1/2), Q2^(1/2)
W = T.width
# primitive monomials: s1, q^(1/2) s1, a1/a2, h a1, s1^2/s2^3
BASES = [pack(m) for m in ((0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0),
                           (0, 0, 1, -1, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0, 0, 0),
                           (0, 0, 0, 0, 2, -3, 0, 0))]
roots = st.one_of(st.builds(lambda u, p: p * u, st.sampled_from(BASES),
                            st.sampled_from([1, -1, 2, -2, 4, -4])),
                  st.just(0))
atoms = st.lists(st.tuples(st.tuples(roots, st.sampled_from([1, 2, 3, 4, 6])),
                           st.integers(-3, 3)), max_size=8)


def _root(kind):
    """A fresh direction lookup: the identity's root memo, or a map sending s1 to 1."""
    if kind == "identity":
        return RootMemo(W).__getitem__
    return RingMap({T.s(0): 0}, W).root


def _converted(route, pairs, kind):
    try:
        coeff, pre, keys = route(pairs, _root(kind), W)
    except PoleEvaluationError as exc:
        return "pole", exc.atom
    return coeff, type(coeff), pre, list(keys.items())


@SETTINGS
@given(atoms, st.sampled_from(["identity", "s1 -> 1"]))
def test_mapped_keys_match_the_reference(pairs, kind):
    assert _converted(_mapped_keys, pairs, kind) \
        == _converted(mapped_keys_reference, pairs, kind)


@pytest.mark.parametrize("pairs, want", [
    # a denominator unit root is a pole naming it, whatever cancels it
    ([((BASES[0], 1), -1), ((0, 1), 1)], ("pole", (0,) * W)),
    # a numerator unit root makes the value vanish
    ([((BASES[0], 1), 2), ((0, 1), -1)], (0, int, 0, [((BASES[0], 1), 2)])),
    # psi_1(u^-1) = -u^-1 psi_1(u): the sign and the prefactor of an odd multiplicity
    ([((-BASES[1], 1), 3)], (-1, int, 3 * BASES[1], [((BASES[1], 1), 3)])),
])
def test_mapped_keys_edge_cases(pairs, want):
    for route in (_mapped_keys, mapped_keys_reference):
        assert _converted(route, pairs, "identity") == want
