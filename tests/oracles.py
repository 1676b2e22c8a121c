"""Reference computations kept beside the tests, apart from the engine routes
they check.

The closed vertex series builds the kernel from the rows' images at the point
and adds each degree's shift to the insertion's images as a power of q.  The
oracle here builds the unevaluated kernel (:func:`matter_kernel`), multiplies
it by the insertion shifted through a ring map (:func:`shift_by_ring_map`),
and evaluates the product once through a ring map of its own
(:func:`evaluate_by_ring_map`), as the series was defined before it was
split; it also accepts an insertion with denominators, such as a two-sided
product R_c f R_{-c}.

:func:`evaluate_by_ring_map` is evaluation at a shifted fixed point as a
substitution: the RingMap sending s_j to q^{shift_j} times its image under
the algebra's point map, applied by ``Scalar.subs``.  The engine's
``CoulombAlgebra.evaluate`` moves each image by q^{<e, shift>} without a
shifted map, and must agree with it field by field, poles and overflow
errors included.

:func:`shift_by_ring_map` is the q-shift as a substitution: the RingMap
s_j -> q^{d_j} s_j applied by ``Scalar.subs``, with the engine's shortcut
for a zero d or a value free of every s_j.  The engine's shift moves each
monomial by q^{<e, d>} without a map, and must agree with it field by field,
overflow errors included.

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

The reference renderer prints a scalar from exponent tuples, with no memo:
each monomial formatted from its variable labels, the atoms of every root
regrouped into binomials by a divisor walk, oriented, and then sorted in
graded-lex order.  The engine's rendering must equal it byte for byte.
"""

from fractions import Fraction
from functools import lru_cache

from coulombkit import (AlgebraElement, CoulombAlgebra, Descendent, GaugeData, Scalar,
                        enumerate_degrees)
from coulombkit.coulomb import Combination
from coulombkit.exactring import PoleEvaluationError, RingMap, atom_str, pack, packed_power, unpack
from coulombkit.hypertoric import pair
from coulombkit.pochhammer import hq_product


def matter_kernel(alg, d) -> Scalar:
    """The degree-d localization weight, unevaluated: the product of
    ``hq_ratio(x, <weight, d>)`` over the genuine rows and of its inverse over
    the virtual ones."""
    return hq_product(alg.table.width,
                      [(x, di, sign) for chi, x, sign in alg.rows if (di := pair(chi, d))])


def shift_by_ring_map(alg, f: Scalar, d) -> Scalar:
    """f with every s_j sent to q^{d_j} s_j by one RingMap; f itself when d
    is zero or f is free of every s_j."""
    gauge = [alg.table.s(j) for j in range(alg.data.k)]
    if not any(d) or not f.uses(gauge):
        return f
    w = alg.table.width
    return f.subs(RingMap({s: packed_power(w, s, 1) + dj * alg.q
                           for s, dj in zip(gauge, d) if dj}, w))


@lru_cache(maxsize=1024)
def shifted_evaluation_map(alg, p, specialize: bool, shift: tuple) -> RingMap:
    """The RingMap of evaluation at p shifted by ``shift``: the point map's
    images, each s_j image times q^{shift_j}."""
    images = dict(alg.evaluation_map(p, specialize).images)
    for j, dj in enumerate(shift):
        images[alg.table.s(j)] += dj * alg.q
    return RingMap(images, alg.table.width)


def evaluate_by_ring_map(alg, p, f: Scalar, specialize: bool = False, shift=()) -> Scalar:
    """f under :func:`shifted_evaluation_map`, applied by ``Scalar.subs``; a
    pole is reported as ``CoulombAlgebra.evaluate`` reports it."""
    try:
        return f.subs(shifted_evaluation_map(alg, p, specialize, tuple(shift)))
    except PoleEvaluationError as exc:
        raise PoleEvaluationError("pole at fixed point %s: atom %s vanishes"
                                  % (p.label(), atom_str(alg.table, pack(exc.atom))),
                                  atom=exc.atom)


def closed_coefficient(alg, p, insertion: Scalar, d, specialize: bool = False) -> Scalar:
    """The degree-d coefficient at p: the kernel times the insertion shifted
    by d, evaluated at p as one product."""
    return evaluate_by_ring_map(
        alg, p, matter_kernel(alg, d) * shift_by_ring_map(alg, insertion, d), specialize)


def kaehler_relation_check(alg, p, descendent, circuit, order: int) -> bool:
    """Multiplying by one Kahler monomial equals conjugating the insertion:
    the series of R_c f R_{-c} at d is the series of f at d - c, and 0 where
    d - c is no degree of the series."""
    c = tuple(circuit)
    insertion = descendent.as_scalar() if isinstance(descendent, Descendent) \
        else descendent
    relation = alg.relation(c, insertion)
    degrees = enumerate_degrees(alg.data.cone, alg.data.theta, order)
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


# -- the reference renderer ---------------------------------------------------

def mono_str_reference(table, m: tuple) -> str:
    """An exponent tuple as text, each power read off the variable labels."""
    parts = []
    for idx, e in enumerate(m):
        if not e:
            continue
        label = table.var_label(idx)
        power = Fraction(e, 2) if table.is_half_variable(idx) else e
        if power == 1:
            parts.append(label)
        elif power.denominator == 1:
            parts.append("%s^%d" % (label, power))
        else:
            parts.append("%s^(%s)" % (label, power))
    return "*".join(parts) or "1"


def _graded(item):
    """Graded-lex key of a pair whose first entry is an exponent tuple."""
    return sum(item[0]), item[0]


def _term_reference(table, m: tuple, c) -> str:
    text = mono_str_reference(table, m)
    if text == "1":
        return str(c)
    return text if c == 1 else "-" + text if c == -1 else "%s*%s" % (c, text)


def factored_reference(x: Scalar):
    """(head, sign, {g: mult}) with x = sign * head * x.num * prod (1 - g)^(-mult):
    per root r, the largest n left with a nonzero multiplicity first, which
    inverts 1 - r^n = prod_{d|n} psi_d(r); then each (1 - g) oriented to a
    positive total degree, or degree 0 and g lexicographically below g^-1.
    Monomials are exponent tuples."""
    by_root = {}
    for (r, d), mult in x.tuple_atoms().items():
        by_root.setdefault(r, {})[d] = mult
    head, sign, out = list(unpack(x.pre, x.w)), 1, {}
    for r, mults in by_root.items():
        while mults:
            n = max(mults)
            c = mults[n]
            g = tuple(n * e for e in r)
            inv = tuple(-e for e in g)
            if sum(g) < 0 or (sum(g) == 0 and inv < g):
                # (1 - g)^(-c) = (-g)^(-c) (1 - g^-1)^(-c)
                head = [h - c * e for h, e in zip(head, g)]
                sign *= -1 if c % 2 else 1
                g = inv
            out[g] = c
            for d in range(1, n + 1):
                if n % d == 0:
                    left = mults.get(d, 0) - c
                    if left:
                        mults[d] = left
                    else:
                        mults.pop(d, None)
    return tuple(head), sign, out


def scalar_str_reference(table, x: Scalar) -> str:
    """:func:`coulombkit.exactring.scalar_str`, from :func:`factored_reference`."""
    if x.is_zero():
        return "0"
    head, sign, binomials = factored_reference(x)
    terms = x.num.tuple_terms()
    if len(terms) == 1:
        parts = [_term_reference(table, head, sign * next(iter(terms.values())))]
    else:
        head_str = _term_reference(table, head, sign)
        parts = [head_str] if head_str != "1" else []
        body = ""
        for m, c in sorted(terms.items(), key=_graded):
            t = _term_reference(table, m, c)
            body += t if not body else " - " + t[1:] if t.startswith("-") else " + " + t
        parts.append("(%s)" % body)
    ordered = sorted(binomials.items(), key=_graded)

    def atom(g, mult):
        text = "(1 - %s)" % mono_str_reference(table, g)
        return text if mult == 1 else "%s^%d" % (text, mult)

    parts += [atom(g, -mult) for g, mult in ordered if mult < 0]
    denom = [atom(g, mult) for g, mult in ordered if mult > 0]
    if denom:
        return "%s / ( %s )" % (" * ".join(parts), " * ".join(denom))
    return " * ".join(parts)


def scalar_structured_reference(x: Scalar) -> dict:
    """:func:`coulombkit.exactring.scalar_structured`, from :func:`factored_reference`."""
    head, sign, binomials = factored_reference(x)
    return {
        "pre": list(head),
        "num": [[str(sign * c), list(m)] for m, c in sorted(x.num.tuple_terms().items(),
                                                            key=_graded)],
        "atoms": [[list(g), mult] for g, mult in sorted(binomials.items(), key=_graded)],
    }
