"""Reference computations kept beside the tests, apart from the engine routes
they check.

The closed vertex series evaluates the kernel at the point and the insertion
at the shifted point, each on its own.  The oracle here multiplies first and
evaluates the unevaluated product once, as the series was defined before it
was split; it also accepts an insertion with denominators, such as a
two-sided product R_c f R_{-c}.

The right module has the basis t_c and the action t_c r_d = F(c, d) t_{c+d},
F being :func:`module_factor`, a kernel over the rows with <chi, d> < 0 in
the canonical polarization.  Its tests check that a mixed generator at d
moves t_c to t_{c+d} with coefficient 1, that the one at -d acts by the
matter kernel, and that a virtual row cancels a genuine one in F as it does
in the structure constants.

The reduction oracle maps the model to the rank-n model in which every row
acts by its own coordinate (:func:`abelian_point_algebra`).  The word of r_d
there (:func:`abelian_point_lift`) is a product of one coordinate generator
per unit of each <chi_i, d>.  A product of two lifts, sent back by s_i ->
s^{chi_i} (:func:`project_lift_scalar`), must be the structure constant of
the model itself.

:func:`tau` fixes the Cartan and sends r_d to r_{-d}, shifting the
coefficient across.  Its tests check that it is an involution, that it
reverses products and that it swaps the mixed generators at d and -d.

:func:`contravariant_form` pairs two Verma vectors by the engine's diagonal
norms.  Its tests check that a mixed generator and its opposite are adjoint
for it, and that it is diagonal on the basis with the norms on the diagonal.
"""

from coulombkit import (AlgebraElement, CoulombAlgebra, Descendent, GaugeData, Scalar,
                        enumerate_degrees)
from coulombkit.coulomb import Combination
from coulombkit.hypertoric import pair
from coulombkit.pochhammer import hq_product


def closed_coefficient(alg, p, insertion: Scalar, d, specialize: bool = False) -> Scalar:
    """The degree-d coefficient at p: the kernel times the insertion shifted
    by d, evaluated at p as one product."""
    return alg.evaluate(p, alg.matter_kernel(d) * alg.shift(insertion, d), specialize)


def kaehler_relation_check(alg, p, descendent, circuit, order: int) -> bool:
    """Multiplying by one Kahler monomial equals conjugating the insertion:
    the series of R_c f R_{-c} at d is the series of f at d - c, and 0 where
    d - c is no degree of the series."""
    c = tuple(circuit)
    insertion = descendent.as_scalar() if isinstance(descendent, Descendent) \
        else descendent
    relation = alg.relation(c, insertion)
    degrees = enumerate_degrees(alg.eff(), alg.data.theta, order)
    rhs = {d: closed_coefficient(alg, p, insertion, d) for d in degrees}
    zero = Scalar.zero(alg.table.width)
    return all(closed_coefficient(alg, p, relation, d)
               == rhs.get(tuple(x - y for x, y in zip(d, c)), zero)
               for d in degrees)


# -- the right module ---------------------------------------------------------

class ModuleElement(Combination):
    """Combination sum_c f_c * t_c of the right-module basis."""

    __slots__ = ()


def module_vector(alg, c, coeff: Scalar | None = None) -> ModuleElement:
    """The basis vector t_c, times ``coeff`` when given."""
    return ModuleElement(alg, {tuple(c): coeff if coeff is not None
                               else Scalar.one(alg.table.width)})


def module_factor(alg, c, d) -> Scalar:
    """The scalar with t_c r_d = factor * t_{c+d}, in the canonical polarization."""
    factors = []
    for chi, x, sign in alg.rows:
        di = pair(chi, d)
        if di < 0:
            factors.append((x - pair(chi, c) * alg.q, -di, -sign))
    return hq_product(alg.table.width, factors)


def module_act(alg, u: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """The right action u * a."""
    return ModuleElement(alg, (
        (tuple(x + y for x, y in zip(c, d)),
         g * alg.shift_coefficient(f, c) * module_factor(alg, c, d))
        for c, g in u.terms.items() for d, f in a.terms.items()))


# -- the reduction oracle -----------------------------------------------------

def abelian_point_algebra(alg) -> CoulombAlgebra:
    """The rank-n model where every row acts by its own coordinate."""
    n = alg.data.n
    chi = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return CoulombAlgebra(GaugeData.create(chi, (1,) * n))


def lift_degree(alg, d) -> tuple:
    """The degree of the lift of r_d: the pairings <chi_i, d>."""
    return tuple(pair(chi, d) for chi in alg.data.chi)


def abelian_point_lift(alg, d, ab: CoulombAlgebra) -> AlgebraElement:
    """The generator word in the rank-n model ``ab`` whose image is r_d: the
    raising coordinate generators first, then the lowering ones."""
    word = ab.one()
    n = alg.data.n
    for sign in (1, -1):
        for i, di in enumerate(lift_degree(alg, d)):
            if sign * di > 0:
                b = tuple(sign if j == i else 0 for j in range(n))
                for _ in range(abs(di)):
                    word = ab.mul(word, ab.r(b))
    return word


def project_lift_scalar(alg, f: Scalar, ab: CoulombAlgebra) -> Scalar:
    """Send the lift's gauge variables to s^{chi_i} (the reduction map) and
    its Kahler variables to 1; q, h and the flavors share their indices."""
    t = alg.table
    images = {ab.table.s(i): t.mono({t.s(j): cij for j, cij in enumerate(row)})
              for i, row in enumerate(alg.data.chi)}
    images.update({ab.table.qvar(i): t.unit() for i in range(alg.data.n)})
    return f.subs(images, t.width)


# -- the anti-automorphism and the contravariant form -------------------------

def tau(alg, a: AlgebraElement) -> AlgebraElement:
    """The anti-automorphism fixing the Cartan and sending r_d to r_{-d}."""
    return AlgebraElement(alg, ((tuple(-x for x in d), alg.shift(f, d))
                                for d, f in a.terms.items()))


def contravariant_form(module, u, w) -> Scalar:
    """sum_d u_d w_d norm(d) over the degrees both Verma vectors share."""
    out = Scalar.zero(module.algebra.table.width)
    for d, f in u.terms.items():
        g = w.terms.get(d)
        if g is not None:
            out = out + f * g * module.norm(d)
    return out
