"""Finite q-Pochhammer symbols and the sign kernel used by every relation.

The convention is (x; q)_d = (x; q)_inf / (q^d x; q)_inf, made finite:

    d > 0:  (1 - x)(1 - q x) ... (1 - q^{d-1} x)
    d = 0:  1
    d < 0:  1 / ((1 - q^{-1} x)(1 - q^{-2} x) ... (1 - q^d x))

Every product of symbols is built by the one routine ``poch_product``, in
one pass: the binomials (1 - g) of every symbol go, as pairs
``((g, 1), mult)``, through one conversion into the sign, the prefactor and
the cyclotomic keys of the result.  Its sum part is the constant 1 or -1,
so the fields are the normal form as they stand; nothing is multiplied out
or divided, and the factored form survives evaluation.  The conversion
finds each binomial's root direction once per root memo: a
:class:`~coulombkit.coulomb.CoulombAlgebra` passes its own, as ``roots=``,
to every kernel it builds, so a root its kernels share is found once per
algebra; the single-symbol cases, which have no algebra, pass none, and
each of their calls converts through a memo of its own.
``hq_product`` is
the product of kernel factors that the convolution relations, vertex
coefficients and module actions use; the other functions here are
single-symbol cases of the two.  Both take packed monomials
(:mod:`coulombkit.exactring`), so a q-shift is one addition; the
single-symbol cases take exponent tuples.  Infinite symbols and theta
functions are deliberately not represented.
"""

from __future__ import annotations

from .exactring import (HBAR_HALF, Poly, Q_HALF, Scalar, _mapped_keys, pack, packed_power,
                        q_shifted)


def poch_product(width: int, symbols, e: int = 0, *, roots: dict | None = None) -> Scalar:
    """sign_kernel(e) times the product of (x; q)_d^power over the
    (x, d, power) in ``symbols``, x packed.

    For d >= 0 the binomials (1 - q^m x), m = 0 .. d-1, enter raised to
    ``power``; for d < 0 the binomials (1 - q^-m x), m = 1 .. -d, enter
    raised to ``-power``.  A denominator (1 - 1) is a pole, cancelled or not.
    ``roots`` is the caller's root memo for :func:`_mapped_keys`, if any.
    """
    q = packed_power(width, Q_HALF, 2)
    sign, unit, keys = _mapped_keys(
        (((x + m * q, 1), -power if d >= 0 else power)
         for x, d, power in symbols for m in (range(d) if d >= 0 else range(-1, d - 1, -1))),
        roots, width)
    if not sign:
        return Scalar.zero(width)
    pre = packed_power(width, Q_HALF, e) - packed_power(width, HBAR_HALF, e) + unit
    # a product of atoms: no key divides the constant sum part
    return Scalar._raw(width, Poly(width, {0: -sign if e % 2 else sign}), pre, keys)


def hq_product(width: int, factors, *, roots: dict | None = None) -> Scalar:
    """The product of hq_ratio(x, d)^power over the (x, d, power) in
    ``factors``, x packed; ``roots`` as for :func:`poch_product`."""
    h, q = packed_power(width, HBAR_HALF, 2), packed_power(width, Q_HALF, 2)
    symbols, e = [], 0
    for x, d, power in factors:
        symbols += [(x + h, d, power), (x + q, d, -power)]
        e += d * power
    return poch_product(width, symbols, e, roots=roots)


def poch(x: tuple, d: int) -> Scalar:
    """(x; q)_d for a monomial argument x."""
    return poch_product(len(x), [(pack(x), d, 1)])


def sign_kernel(d: int, width: int) -> Scalar:
    """(-q^(1/2) h^(-1/2))^d as a signed monomial."""
    return poch_product(width, (), d)


def poch_qinv(x: tuple, d: int) -> Scalar:
    """(x; q^{-1})_d = (q^{1-d} x; q)_d."""
    return poch_product(len(x), [(pack(q_shifted(x, 1 - d)), d, 1)])


def hq_ratio(x: tuple, d: int) -> Scalar:
    """sign_kernel(d) * (h x)_d / (q x)_d, with the denominator kept factored."""
    return hq_product(len(x), [(pack(x), d, 1)])


def hq_ratio_inv(x: tuple, d: int) -> Scalar:
    """[sign_kernel(d) * (h x)_d / (q x)_d]^{-1}, built directly in factored form."""
    return hq_product(len(x), [(pack(x), d, -1)])
