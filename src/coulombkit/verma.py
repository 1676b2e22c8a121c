"""Lowest-level representation theory at a fixed point: the module with basis
indexed by the effective cone of the point, its contravariant norms, and the
eigenvector generating function in half-powers of the Kahler parameters.

The Cartan part of an algebra element acts on the basis vector at e by its
weight: its value with the gauge variables sent to q^{e_j} times their
restriction at the point.  Every other term is computed through the algebra
normal form plus evaluation, never through an abstract quotient: rewrite
r_c * (mixed generator at e) as a left scalar times r_{c+e}, convert back to
the mixed generator at c+e, then evaluate the total left scalar with the
gauge variables sent to q^{(c+e)_j} times their restriction at the point.
The scalars are kernel products, each built by one
:func:`~coulombkit.pochhammer.poch_product` call, and the evaluation is the
algebra's (:meth:`~coulombkit.coulomb.CoulombAlgebra.evaluate`): the point's
one ring map, with the shift added as a power of q.  Degrees outside the
effective cone of the point contribute zero.  A vector is a
:class:`~coulombkit.coulomb.Combination` over the cone's degrees: it sums
and compares by the same rule as an algebra element.
"""

from __future__ import annotations

from .coulomb import AlgebraElement, Combination, CoulombAlgebra
from .exactring import Scalar
from .hypertoric import FixedPoint, eff_cone_fp, enumerate_degrees


class VermaVector(Combination):
    """Combination sum_d f_d * (mixed generator at d applied to the cyclic vector)."""

    __slots__ = ()
    module = property(lambda self: self.owner)


class VermaModule:
    """The module attached to one fixed point of one model.

    Norms are memoized per degree and Whittaker vectors per order, both
    dropped with the module; every evaluation is the algebra's
    (:meth:`~coulombkit.coulomb.CoulombAlgebra.evaluate`).  Obtain the
    module through :meth:`CoulombAlgebra.verma_module` to share them across
    every caller of the same algebra and point.
    """

    def __init__(self, algebra: CoulombAlgebra, point: FixedPoint):
        self.algebra = algebra
        self.point = point
        self.cone = eff_cone_fp(algebra.data, point)
        self._norm_cache = {}
        self._whittaker = {}

    def evaluate(self, f: Scalar, shift_degree=None) -> Scalar:
        """Evaluate at the point, with s_j sent to q^{shift_j} times its restriction."""
        return self.algebra.evaluate(self.point, f, shift=shift_degree or ())

    def act(self, a: AlgebraElement, u: VermaVector) -> VermaVector:
        """The vector a * u, u having its degrees in the cone.

        The Cartan part f of ``a`` keeps the basis vector at e and scales it
        by the weight ``evaluate(f, shift_degree=e)``.  A term at a nonzero
        degree c goes through the normal form to the basis vector at c + e,
        and contributes zero when c + e leaves the cone.
        """
        alg = self.algebra
        zero = alg.zero_degree()

        def pairs():
            for c, f in a.terms.items():
                if c == zero:
                    for e, g in u.terms.items():
                        yield e, g * self.evaluate(f, shift_degree=e)
                    continue
                for e, g in u.terms.items():
                    target = tuple(x + y for x, y in zip(c, e))
                    if not self.cone.contains(target):
                        continue
                    h = f * alg.shift_coefficient(alg.mixed_coefficient(e), c)
                    h = h * alg.structure_constant(c, e)
                    h = h * alg.mixed_coefficient_inv(target)
                    yield target, g * self.evaluate(h, shift_degree=target)

        return VermaVector(self, pairs())

    def norm(self, d) -> Scalar:
        """The diagonal value of the contravariant form on the basis vector at d."""
        d = tuple(d)
        got = self._norm_cache.get(d)
        if got is None:
            got = self._norm_cache[d] = self.evaluate(self.algebra.relation(tuple(-x for x in d)))
        return got

    def whittaker_vector(self, order: int) -> VermaVector:
        """Truncated eigenvector: coefficient Q^{d/2} / norm(d) on the basis vector at d."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        got = self._whittaker.get(order)
        if got is not None:
            return got
        table = self.algebra.table
        terms = {}
        for d in enumerate_degrees(self.cone, self.algebra.data.theta, order):
            terms[d] = self.norm(d).inv().mul_mono(table.kahler(d))
        out = self._whittaker[order] = VermaVector(self, terms)
        return out
