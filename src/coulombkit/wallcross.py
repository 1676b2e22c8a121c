"""Comparison of two stability conditions inside one ambient localized algebra.

Both mixed-generator families live in the same algebra; they differ only
through which effective cone the rescaling coefficients see.  Reversing
circuits invert across the wall and the difference-relation systems match
after inverting the relation, which is verified symbolically.
"""

from __future__ import annotations

from .coulomb import AlgebraElement, CoulombAlgebra
from .exactring import Scalar
from .hypertoric import GaugeData, _Record, separating_circuits


class WallCrossScenario(_Record):
    """The algebras of theta and theta2, and the circuits reversed or kept."""

    __slots__ = _compared = ("algebra", "algebra2", "reversing", "kept")
    __hash__ = None

    def __init__(self, algebra, algebra2, reversing, kept):
        self._set(algebra=algebra, algebra2=algebra2, reversing=reversing, kept=kept)


def make_scenario(alg: CoulombAlgebra, theta2) -> WallCrossScenario:
    theta2 = tuple(int(x) for x in theta2)
    reversing, kept = separating_circuits(alg.data, theta2)
    data2 = GaugeData.create(alg.data.chi, theta2, blocks=alg.data.blocks,
                             a_specialization=alg.data.a_specialization, table=alg.table)
    return WallCrossScenario(algebra=alg, algebra2=CoulombAlgebra(data2),
                             reversing=tuple(c.vector for c in reversing),
                             kept=tuple(c.vector for c in kept))


def primed_generator(scn: WallCrossScenario, d) -> AlgebraElement:
    """The second stability condition's mixed generator, as an element of the
    common algebra."""
    return scn.algebra.r(tuple(d), scn.algebra2.mixed_coefficient(d))


def check_reversal(scn: WallCrossScenario, rho) -> bool:
    """For a reversing circuit the primed generators invert; otherwise they agree."""
    alg = scn.algebra
    rho = tuple(rho)
    nrho = tuple(-x for x in rho)
    if rho in scn.reversing:
        ok = True
        for sign_d in (rho, nrho):
            opposite = tuple(-x for x in sign_d)
            prod = alg.mul(alg.mixed_generator(opposite), primed_generator(scn, sign_d))
            ok = ok and (prod == alg.one())
        return ok
    return (primed_generator(scn, rho) == alg.mixed_generator(rho)
            and primed_generator(scn, nrho) == alg.mixed_generator(nrho))


def dmodule_match(scn: WallCrossScenario, c) -> bool:
    """Invert the first relation and land exactly on the second side's relation.

    Applying the reversing relation of the first stability condition and then
    the relation of the second one at the opposite circuit must return each
    test insertion, 1 and s1, unchanged (the two Kahler shifts cancel).
    """
    alg = scn.algebra
    c = tuple(c)
    table = alg.table
    insertions = (Scalar.one(table.width), Scalar.monomial(table.mono({table.s(0): 1})))
    checks = []
    for w in alg.data.weyl_elements():
        wc = alg.data.weyl_on_degree(w, c)
        for insertion in insertions:
            first = alg.relation(wc, insertion)
            if c in scn.reversing:
                back = alg.relation(tuple(-x for x in wc), first, other=scn.algebra2)
                checks.append(back == insertion)
            else:
                checks.append(first == alg.relation(wc, insertion, other=scn.algebra2))
    return all(checks)
