"""Truncated descendent vertex series at fixed points, and their q-difference checks.

Coefficients are computed directly from the closed localization product --
never through the module pairing -- so that the pairing route implemented in
:mod:`coulombkit.verma` is a genuinely independent cross-check.  A series is
stored degreewise: the key carries the Kahler power, the value is a scalar
in the residue variables only; :class:`QSeries` is a
:class:`~coulombkit.coulomb.Combination`, so both routes build, sum and
compare their series by one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coulomb import Combination, CoulombAlgebra
from .exactring import HBAR_HALF, Poly, Scalar, packed_power
from .hypertoric import FixedPoint, enumerate_degrees, pair
from .pochhammer import poch_product, sign_kernel


class Descendent:
    """Polynomial insertion in the gauge variables (no denominators allowed)."""

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

    def __init__(self, order: int, coeffs):
        super().__init__(order, coeffs)

    def coefficient(self, d, width: int) -> Scalar:
        return self.coeffs.get(tuple(d), Scalar.zero(width))


def is_lift(alg: CoulombAlgebra, p: FixedPoint) -> bool:
    """Whether p lifts an isolated fixed point: no virtual row's monomial
    s_u s_v^-1 restricts to 1 there, under the flavor specialization.  Every
    fixed point of an abelian model is one."""
    ring = alg.evaluation_map(p, specialize=True)
    return not any(sign < 0 and not ring.mono(x) for _, x, sign in alg.rows)


def _coefficients(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
                  order: int, specialize: bool):
    """(degree, coefficient) pairs of the closed localization product at p:
    the signed-row kernel times the shifted insertion, evaluated at p."""
    insertion = tau.as_scalar() if isinstance(tau, Descendent) else tau
    for d in enumerate_degrees(alg.eff(), alg.data.theta, order):
        weight = alg.matter_kernel(d) * alg.shift(insertion, d)
        yield d, alg.evaluate(p, weight, specialize)


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
    return QSeries(order, ((d, _strip_kahler_power(table, u * tw.terms[d] * module.norm(d), d))
                           for d, u in w.terms.items() if d in tw.terms))


def _strip_kahler_power(table, value: Scalar, d) -> Scalar:
    """Remove the expected Q^d factor; no other Kahler power may remain.

    A monomial factor leaves the normal form as it is, so only the prefactor
    changes."""
    stripped = value.mul_mono(table.packed({table.qvar(j): -2 * dj for j, dj in enumerate(d)}))
    if stripped.uses([table.qvar(j) for j in range(table.k)]):
        raise AssertionError("Kahler power of coefficient at %r is not Q^%r" % (d, d))
    return stripped


# ---------------------------------------------------------------------------
# q-difference checks
# ---------------------------------------------------------------------------

@dataclass
class QdeReport:
    circuit: tuple
    passed: bool
    residuals: dict  # degree -> nonzero residual, for the failing degrees only


def qde_check(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
              circuit, order: int) -> QdeReport:
    """Apply the annihilating operator of one circuit to the vertex series.

    The shift operator attached to a matter row acts on the degree-d
    coefficient by the eigenvalue q^{<chi_i, d>} times the restriction of
    the row monomial, matching the convention in which the operator also
    shifts the row monomial.  Annihilation holds for insertions free of the
    gauge variables; a decorated series picks up a conjugated relation and
    the report comes back failed, which is the honest answer.
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
        return poch_product(w, symbols)

    theta = alg.data.theta
    degrees = set(enumerate_degrees(alg.eff(), theta, order))
    degrees |= {tuple(x + y for x, y in zip(d, c))
                for d in degrees if pair(theta, d) + pair(theta, c) <= order}
    residuals = {}
    for d in sorted(degrees, key=lambda dd: (pair(theta, dd), dd)):
        dmc = tuple(x - y for x, y in zip(d, c))
        res = (eigen(d, 1) * series.coefficient(d, w)
               - sign * eigen(dmc, -1) * series.coefficient(dmc, w))
        if not res.is_zero():
            residuals[d] = res
    return QdeReport(circuit=c, passed=not residuals, residuals=residuals)


def kaehler_relation_check(alg: CoulombAlgebra, p: FixedPoint, tau: Descendent | Scalar,
                           circuit, order: int) -> bool:
    """Multiplying by one Kahler monomial equals conjugating the insertion."""
    c = tuple(circuit)
    insertion = tau.as_scalar() if isinstance(tau, Descendent) else tau
    nc = tuple(-x for x in c)
    conjugated = alg.mul(alg.mul(alg.mixed_generator(c), alg.cartan(insertion)),
                         alg.mixed_generator(nc)).scalar_part()
    lhs = vertex_fp(alg, p, conjugated, order)
    rhs = vertex_fp(alg, p, insertion, order)
    w = alg.table.width
    for d in enumerate_degrees(alg.eff(), alg.data.theta, order):
        dmc = tuple(x - y for x, y in zip(d, c))
        if not (lhs.coefficient(d, w) == rhs.coefficient(dmc, w)):
            return False
    return True


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
