"""Finite q-Pochhammer symbols and the sign kernel used by every relation.

The convention is (x; q)_d = (x; q)_inf / (q^d x; q)_inf, made finite:

    d > 0:  (1 - x)(1 - q x) ... (1 - q^{d-1} x)
    d = 0:  1
    d < 0:  1 / ((1 - q^{-1} x)(1 - q^{-2} x) ... (1 - q^d x))

Every product of symbols is built by the one routine ``poch_product``: each
binomial of each symbol is added to one atom dict and one scalar is built
from it, so nothing is multiplied out and the factored form survives
evaluation.  ``hq_product`` is the product of kernel factors that the
convolution relations, vertex coefficients and module actions use; the
other functions here are single-symbol cases of the two.  Infinite symbols
and theta functions are deliberately not represented.
"""

from __future__ import annotations

from .exactring import HBAR_HALF, Poly, Q_HALF, Scalar, q_shifted


def h_shifted(x: tuple) -> tuple:
    """The monomial h * x."""
    m = list(x)
    m[HBAR_HALF] += 2
    return tuple(m)


def poch_product(width: int, symbols, e: int = 0) -> Scalar:
    """sign_kernel(e) times the product of (x; q)_d^power over the
    (x, d, power) in ``symbols``.

    For d >= 0 the binomials (1 - q^m x), m = 0 .. d-1, enter raised to
    ``power``; for d < 0 the binomials (1 - q^-m x), m = 1 .. -d, enter
    raised to ``-power``.
    """
    atoms = {}
    for x, d, power in symbols:
        shifts, mult = (range(d), -power) if d >= 0 else (range(-1, d - 1, -1), power)
        for m in shifts:
            g = q_shifted(x, m)
            atoms[g] = atoms.get(g, 0) + mult
    pre = [0] * width
    pre[Q_HALF] = e
    pre[HBAR_HALF] = -e
    return Scalar(width, Poly.monomial((0,) * width, -1 if e % 2 else 1), pre=tuple(pre),
                  atoms=atoms)


def hq_product(width: int, factors) -> Scalar:
    """The product of hq_ratio(x, d)^power over the (x, d, power) in ``factors``."""
    symbols, e = [], 0
    for x, d, power in factors:
        symbols += [(h_shifted(x), d, power), (q_shifted(x, 1), d, -power)]
        e += d * power
    return poch_product(width, symbols, e)


def poch(x: tuple, d: int) -> Scalar:
    """(x; q)_d for a monomial argument x."""
    return poch_product(len(x), [(x, d, 1)])


def sign_kernel(d: int, width: int) -> Scalar:
    """(-q^(1/2) h^(-1/2))^d as a signed monomial."""
    return poch_product(width, (), d)


def poch_qinv(x: tuple, d: int) -> Scalar:
    """(x; q^{-1})_d = (q^{1-d} x; q)_d."""
    return poch_product(len(x), [(q_shifted(x, 1 - d), d, 1)])


def hq_ratio(x: tuple, d: int) -> Scalar:
    """sign_kernel(d) * (h x)_d / (q x)_d, with the denominator kept factored."""
    return hq_product(len(x), [(x, d, 1)])


def hq_ratio_inv(x: tuple, d: int) -> Scalar:
    """[sign_kernel(d) * (h x)_d / (q x)_d]^{-1}, built directly in factored form."""
    return hq_product(len(x), [(x, d, -1)])
