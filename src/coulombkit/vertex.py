"""Truncated descendent vertex series at fixed points, and their q-difference checks.

Coefficients are computed directly from the closed localization product --
never through the module pairing -- so that the pairing route implemented in
:mod:`coulombkit.verma` is an independent cross-check of the algebra; both
evaluate at a shifted point by :meth:`CoulombAlgebra.evaluate`.  The
degree-d coefficient at a fixed point p is the kernel's weight at p times
the insertion's value at p shifted by d, over the algebra's degree list for
the order.  A series is stored degreewise: the key carries the Kahler
power, the value is a scalar in the residue variables only;
:class:`QSeries` is a :class:`~coulombkit.coulomb.Combination`, so both
routes build, sum and compare their series by one rule.
"""

from __future__ import annotations

from .coulomb import Combination, CoulombAlgebra
from .exactring import HBAR_HALF, Poly, Scalar, packed_power
from .hypertoric import FixedPoint, pair
from .pochhammer import poch_product, sign_kernel


class Descendent:
    """Polynomial insertion in the gauge variables (no denominators allowed:
    the closed series refuses a scalar insertion with a denominator atom)."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        self.poly = poly

    def as_scalar(self) -> Scalar:
        return Scalar.from_poly(self.poly)


class QSeries(Combination):
    """Truncated series sum_d f_d Q^d through ``order``: ``coeffs`` maps each
    degree tuple to its nonzero residue-variable coefficient."""

    __slots__ = ()
    order = property(lambda self: self.owner)
    coeffs = property(lambda self: self.terms)

    def coefficient(self, d, width: int) -> Scalar:
        return self.coeffs.get(tuple(d), Scalar.zero(width))


def is_lift(alg: CoulombAlgebra, p: FixedPoint) -> bool:
    """Whether p lifts an isolated fixed point: no virtual row's kernel factor
    vanishes there under the flavor specialization.  A virtual row x = s_u/s_v
    enters inverted: (1 - q^m h x) and (1 - q^-m x), m >= 0, are denominators.
    A restriction is free of q, so only m = 0 can vanish, and x^-1 is a row
    too: no x may restrict to 1, h or h^-1.  Abelian points are all lifts."""
    ring = alg.evaluation_map(p, specialize=True)
    h = packed_power(alg.table.width, HBAR_HALF, 2)
    return not any(sign < 0 and ring.mono(x) in (0, h, -h) for _, x, sign in alg.rows)


def _coefficients(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
                  order: int, specialize: bool):
    """(degree, coefficient) pairs of the closed localization product at p,
    over the algebra's degree list for ``order``: the kernel at p
    (:meth:`CoulombAlgebra.point_kernel`) times the insertion at p shifted by
    d (:meth:`CoulombAlgebra.evaluate`).

    This is the product evaluated at p, as neither factor has a pole there on
    its own: the kernel has none at a lift, and an insertion with a
    denominator atom is refused, before any degree, with :class:`ValueError`."""
    f = tau.as_scalar() if isinstance(tau, Descendent) else tau
    if any(m > 0 for m in f.atoms.values()):
        raise ValueError("the insertion has a denominator; a descendent is a polynomial")
    return ((d, alg.point_kernel(p, d, specialize) * alg.evaluate(p, f, specialize, d))
            for d in alg.degrees(order))


def vertex_fp(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
              order: int) -> QSeries:
    """Degreewise vertex series at a fixed point, keyed by abelian degree; on
    a block model it is the virtual abelian model's series."""
    return QSeries(order, _coefficients(alg, p, tau, order, specialize=False))


def whittaker_function(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
                       order: int) -> QSeries:
    """The same series through the module pairing; the independent second path."""
    insertion = tau.as_scalar() if isinstance(tau, Descendent) else tau
    module = alg.verma_module(p)
    w = module.whittaker_vector(order)
    tw = module.act(alg.cartan(insertion), w)
    table = alg.table
    # u * norm(d), a product of atoms, collapses before it meets a sum part
    return QSeries(order, ((d, _strip_kahler_power(table, u * module.norm(d) * tw.terms[d], d))
                           for d, u in w.terms.items() if d in tw.terms))


def _strip_kahler_power(table, value: Scalar, d) -> Scalar:
    """Remove the expected Q^d factor; no other Kahler power may remain.

    A monomial factor leaves the normal form as it is, so only the prefactor
    changes."""
    stripped = value.mul_mono(-table.kahler(d, 2))
    if stripped.uses(map(table.qvar, range(table.k))):
        raise AssertionError("Kahler power of coefficient at %r is not Q^%r" % (d, d))
    return stripped


# ---------------------------------------------------------------------------
# q-difference checks
# ---------------------------------------------------------------------------

def qde_check(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
              circuit, order: int) -> dict:
    """Apply the annihilating operator of one circuit to the vertex series, and
    return the nonzero residuals by degree: empty when it annihilates the series.

    The shift operator attached to a matter row acts on the degree-d
    coefficient by the eigenvalue q^{<chi_i, d>} times the restriction of
    the row monomial, matching the convention in which the operator also
    shifts the row monomial.  Annihilation holds for insertions free of the
    gauge variables; a decorated series picks up a conjugated relation and
    leaves residuals, which is the honest answer.
    """
    c = tuple(circuit)
    series = vertex_fp(alg, p, tau, order)
    ring = alg.evaluation_map(p)
    w = alg.table.width
    q, h = alg.q, packed_power(w, HBAR_HALF, 2)
    rows = [(chi, pair(chi, c), ring.mono(x), row_sign)
            for chi, x, row_sign in alg.rows if pair(chi, c)]
    sign = sign_kernel(sum(ci * row_sign for _, ci, _, row_sign in rows), w)

    def eigen(d, side):
        """Operator eigenvalue on the degree-d coefficient: (y; q^-1)_|c_i| =
        (q^{1-|c_i|} y; q)_|c_i| on rows with side * c_i > 0, (h y; q)_|c_i|
        on the others, inverted on the virtual rows."""
        symbols = []
        for chi, ci, x, row_sign in rows:
            y = x + pair(chi, d) * q
            z = y + (1 - abs(ci)) * q if side * ci > 0 else y + h
            symbols.append((z, abs(ci), row_sign))
        return poch_product(w, symbols, roots=alg.roots)

    theta = alg.data.theta
    degrees = set(alg.degrees(order))
    degrees |= {tuple(x + y for x, y in zip(d, c))
                for d in degrees if pair(theta, d) + pair(theta, c) <= order}
    residuals = {}
    for d in sorted(degrees, key=lambda dd: (pair(theta, dd), dd)):
        dmc = tuple(x - y for x, y in zip(d, c))
        lhs = eigen(d, 1) * series.coefficient(d, w)
        rhs = sign * eigen(dmc, -1) * series.coefficient(dmc, w)
        if lhs != rhs:
            residuals[d] = lhs - rhs
    return residuals


# ---------------------------------------------------------------------------
# every model as a block model, via the abelianized series
# ---------------------------------------------------------------------------

def vertex_fp_nonab(alg: CoulombAlgebra, ptilde: FixedPoint, tau: Descendent | Scalar,
                    order: int) -> QSeries:
    """Vertex series of a model as a Weyl-collapsed abelianized sum.

    ``ptilde`` is a fixed point of the underlying abelian model lifting an
    isolated fixed point; the flavor specialization recorded in the model
    collapses the big flavor torus onto the acting one, and the degree keys
    record only the per-block totals.  With blocks of size 1 and no
    specialization this is :func:`vertex_fp`.
    """
    return weyl_collapse(alg, _coefficients(alg, ptilde, tau, order, specialize=True), order)


def weyl_collapse(alg: CoulombAlgebra, terms, order: int) -> QSeries:
    """Sum (abelian degree, coefficient) pairs with the same per-block totals
    into one coefficient keyed by those totals.

    The summands of one key are added as a balanced tree of pairwise sums,
    not a left fold: the cancellation across a Weyl orbit happens only once
    every summand is in, and a left fold drags the largest partial sums
    through every later addition."""
    groups = {}
    for d, f in terms:
        groups.setdefault(alg.data.block_sums(d), []).append(f)
    return QSeries(order, {key: _balanced_sum(fs) for key, fs in groups.items()})


def _balanced_sum(values: list):
    while len(values) > 1:
        pairs = [values[i] + values[i + 1] for i in range(0, len(values) - 1, 2)]
        values = pairs + values[len(pairs) * 2:]
    return values[0]
