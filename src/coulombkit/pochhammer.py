"""Finite q-Pochhammer symbols and the sign kernel used by every relation.

The convention is (x; q)_d = (x; q)_inf / (q^d x; q)_inf, made finite:

    d > 0:  (1 - x)(1 - q x) ... (1 - q^{d-1} x)
    d = 0:  1
    d < 0:  1 / ((1 - q^{-1} x)(1 - q^{-2} x) ... (1 - q^d x))

Every symbol and ratio of symbols is built by the one routine
``poch_ratio``: numerator and denominator binomials both become atoms and
nothing is multiplied out, so the factored form survives evaluation.
Infinite symbols and theta functions are deliberately not represented.
"""

from __future__ import annotations

from .exactring import HBAR_HALF, Poly, Q_HALF, Scalar, q_shifted


def h_shifted(x: tuple) -> tuple:
    """The monomial h * x."""
    m = list(x)
    m[HBAR_HALF] += 2
    return tuple(m)


def poch_ratio(x: tuple, y: tuple | None, d: int) -> Scalar:
    """(x; q)_d / (y; q)_d for monomials x and y (y = None reads as 1).

    The one builder of Pochhammer factors: every binomial becomes an atom,
    for d >= 0 the factors (1 - q^m x) / (1 - q^m y) with m = 0 .. d-1, for
    d < 0 the factors (1 - q^-m y) / (1 - q^-m x) with m = 1 .. -d.
    """
    if d >= 0:
        top, bottom, shifts = x, y, range(d)
    else:
        top, bottom, shifts = y, x, range(-1, d - 1, -1)
    atoms = {}
    for side, sign in ((top, -1), (bottom, 1)):
        if side is not None:
            for m in shifts:
                g = q_shifted(side, m)
                atoms[g] = atoms.get(g, 0) + sign
    return Scalar(len(x), Poly.one(len(x)), atoms=atoms)


def poch(x: tuple, d: int) -> Scalar:
    """(x; q)_d for a monomial argument x."""
    return poch_ratio(x, None, d)


def sign_kernel(d: int, width: int) -> Scalar:
    """(-q^(1/2) h^(-1/2))^d as a signed monomial."""
    m = [0] * width
    m[Q_HALF] = d
    m[HBAR_HALF] = -d
    return Scalar.monomial(tuple(m), -1 if d % 2 else 1)


def poch_qinv(x: tuple, d: int) -> Scalar:
    """(x; q^{-1})_d = (q^{1-d} x; q)_d."""
    return poch(q_shifted(x, 1 - d), d)


def hq_ratio(x: tuple, d: int) -> Scalar:
    """sign_kernel(d) * (h x)_d / (q x)_d, with the denominator kept factored.

    This is the kernel factor that the convolution relations, vertex
    coefficients and module actions are built from.
    """
    return sign_kernel(d, len(x)) * poch_ratio(h_shifted(x), q_shifted(x, 1), d)


def hq_ratio_inv(x: tuple, d: int) -> Scalar:
    """[sign_kernel(d) * (h x)_d / (q x)_d]^{-1}, built directly in factored form."""
    return sign_kernel(-d, len(x)) * poch_ratio(q_shifted(x, 1), h_shifted(x), d)
