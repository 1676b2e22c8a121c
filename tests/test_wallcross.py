"""Variation of the stability condition inside the common localized algebra."""

from coulombkit import Scalar, circuits
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.wallcross import (check_reversal, dmodule_match, make_scenario,
                                  primed_generator)


def test_a2_scenario(a2_alg):
    scn = make_scenario(a2_alg, (1, 2))
    assert scn.reversing == ((1, -1),)
    assert set(scn.kept) == {(0, 1), (1, 0)}


def test_check_reversal_a2(a2_alg):
    scn = make_scenario(a2_alg, (1, 2))
    for rho in scn.reversing:
        assert check_reversal(scn, rho)
    for rho in scn.kept:
        assert rho not in scn.reversing and check_reversal(scn, rho)


def test_check_reversal_same_chamber(a2_alg):
    scn = make_scenario(a2_alg, (3, 1))
    assert scn.reversing == ()
    for rho in scn.kept:
        assert check_reversal(scn, rho)


def test_check_reversal_k1(sqed11):
    alg = CoulombAlgebra(sqed11)
    scn = make_scenario(alg, (-1,))
    assert scn.reversing == ((1,),)
    assert check_reversal(scn, (1,))


def test_dmodule_match(a2_alg, sqed11):
    scn = make_scenario(a2_alg, (1, 2))
    for rho in scn.reversing + scn.kept:
        assert dmodule_match(scn, rho), rho
    alg1 = CoulombAlgebra(sqed11)
    scn1 = make_scenario(alg1, (-1,))
    assert dmodule_match(scn1, (1,))


def test_inversion_scalar_invariant(a2_alg, sqed11):
    """Same-order two-sided products across the wall multiply to one."""
    for alg, theta2 in ((a2_alg, (1, 2)), (CoulombAlgebra(sqed11), (-1,))):
        w = alg.table.width
        scn = make_scenario(alg, theta2)
        for rho in scn.reversing:
            nrho = tuple(-x for x in rho)
            for first, second in ((rho, nrho), (nrho, rho)):
                a = alg.mul(alg.mixed_generator(first),
                            alg.mixed_generator(second)).scalar_part()
                b = alg.mul(primed_generator(scn, first),
                            primed_generator(scn, second)).scalar_part()
                assert a * b == Scalar.one(w), (theta2, rho)


def test_circuit_sets_flip(a2_alg):
    scn = make_scenario(a2_alg, (1, 2))
    cs2 = {c.vector for c in circuits(scn.algebra2.data)}
    expected = {tuple(-x for x in r) for r in scn.reversing} | set(scn.kept)
    assert cs2 == expected
