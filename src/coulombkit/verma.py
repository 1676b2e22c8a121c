"""Lowest-level representation theory at a fixed point: the module with basis
indexed by the effective cone of the point, the contravariant form, and the
eigenvector generating function in half-powers of the Kahler parameters.

The action of an algebra element on a basis vector is computed through the
algebra normal form plus evaluation, never through an abstract quotient:
rewrite r_c * (mixed generator at e) as a left scalar times r_{c+e}, convert
back to the mixed generator at c+e, then evaluate the total left scalar with
the gauge variables sent to q^{(c+e)_j} times their restriction at the point.
The scalars are kernel products, each built by one
:func:`~coulombkit.pochhammer.poch_product` call, and the evaluation is the
algebra's: :meth:`~coulombkit.coulomb.CoulombAlgebra.evaluation_map` keeps
one ring map per (point, specialization, shift), the module none.
Degrees outside the effective cone of the point contribute zero.  A vector
is a :class:`~coulombkit.coulomb.Combination` over the cone's degrees: it
sums and compares by the same rule as an algebra element.
"""

from __future__ import annotations

from .coulomb import AlgebraElement, Combination, CoulombAlgebra
from .exactring import Scalar
from .hypertoric import FixedPoint, eff_cone_fp, enumerate_degrees


class VermaVector(Combination):
    """Combination sum_d f_d * (mixed generator at d applied to the cyclic vector)."""

    __slots__ = ()
    module = property(lambda self: self.owner)

    def scale(self, f: Scalar) -> "VermaVector":
        return VermaVector(self.module, {d: g * f for d, g in self.terms.items()})

    def truncate(self, order: int) -> "VermaVector":
        theta = self.module.algebra.data.theta
        return VermaVector(self.module, {
            d: f for d, f in self.terms.items()
            if sum(t * x for t, x in zip(theta, d)) <= order})


class VermaModule:
    """The module attached to one fixed point of one model.

    Norms are memoized per degree and Whittaker vectors per order, both
    dropped with the module; every evaluation goes through the algebra's
    maps (:meth:`~coulombkit.coulomb.CoulombAlgebra.evaluate`).  Obtain the
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

    # -- module structure ----------------------------------------------------

    def highest_weight(self) -> VermaVector:
        return VermaVector(self, {self.algebra.zero_degree(): Scalar.one(self.algebra.table.width)})

    def act(self, a: AlgebraElement, u: VermaVector) -> VermaVector:
        alg = self.algebra

        def pairs():
            for c, f in a.terms.items():
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
        if got is not None:
            return got
        alg = self.algebra
        nd = tuple(-x for x in d)
        prod = alg.mul(alg.mixed_generator(nd), alg.mixed_generator(d))
        out = self.evaluate(prod.scalar_part())
        self._norm_cache[d] = out
        return out

    def contravariant_form(self, u: VermaVector, w: VermaVector) -> Scalar:
        out = Scalar.zero(self.algebra.table.width)
        for d, f in u.terms.items():
            g = w.terms.get(d)
            if g is None:
                continue
            out = out + f * g * self.norm(d)
        return out

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
            terms[d] = self.norm(d).inv().mul_mono(
                table.packed({table.qvar(j): dj for j, dj in enumerate(d)}))
        out = self._whittaker[order] = VermaVector(self, terms)
        return out
