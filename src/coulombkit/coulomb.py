"""The convolution algebra on cocharacter generators, in left-coefficient normal form.

Every finite sum over degrees the engine builds is a :class:`Combination`:
algebra elements, module elements, Verma vectors and the vertex series.  It
maps degrees to nonzero scalar coefficients; :func:`collect` is the one
routine that sums them by degree, and the base class owns ``+`` and ``==``.
An :class:`AlgebraElement` is the combination sum_d f_d(a, s, q, h) * r_d
with every coefficient on the LEFT of its generator.  Moving a generator
past a gauge variable costs a q-shift:

    r_d s_j = q^{-d_j} s_j r_d,

and the product of two generators is a single generator scaled by a
structure constant built from Pochhammer kernel factors; the constant
depends on a polarization (a subset of the rows), the default being the
canonical one containing every row.

Every kernel loops over one list of signed rows (:func:`signed_rows`): a
genuine row per matter row and, in a block model, a virtual row per root
of a block, which contributes the inverse factor.  A block model is thus
its virtual abelian model, the adjoint counted negatively; fixed points,
circuits and cones still read the genuine rows of the :class:`GaugeData`.
A kernel is one :func:`~coulombkit.pochhammer.hq_product` call over
(row monomial, length, power) triples, the power being the row's sign,
negated where the kernel inverts the row's factor; ``hq_product`` hands
every binomial to :func:`~coulombkit.pochhammer.poch_product`, the one
Pochhammer builder.

Mixed generators rescale r_d by an explicit kernel coefficient depending on
which side of the effective cone d lies; products of mixed generators inside
the cone are degreewise trivial, which is what the Verma and vertex layers
are built on.  Structure constants are memoized per (c, d, polarization),
matter kernels per degree, Verma modules per fixed point, evaluation ring
maps per (fixed point, flavor specialization, shift degree) and shift ring
maps s_j -> q^{d_j} s_j per degree, all on the algebra instance and dropped
with it; :meth:`CoulombAlgebra.evaluate` is the one evaluation at a fixed
point, for the closed series and the Verma modules alike.  Cached values
are immutable and a :class:`~coulombkit.exactring.RingMap` only grows memos
that never change a result, so concurrent identical insertions are
harmless.
"""

from __future__ import annotations

import itertools

from .exactring import (PoleEvaluationError, Q_HALF, RingMap, Scalar, VariableTable, atom_str,
                        pack, packed_power, q_shift_map, unpack)
from .hypertoric import FixedPoint, GaugeData, eff_cone, mixed_polarization, pair
from .pochhammer import hq_product


def epsilon(c: int) -> int:
    return (c > 0) - (c < 0)


def delta(c: int, d: int) -> int:
    if c * d < 0:
        return min(abs(c), abs(d))
    return 0


def signed_rows(data: GaugeData, table: VariableTable) -> list:
    """The rows of the virtual abelian model, as (weight, packed x monomial, sign).

    One genuine row (chi_i, a_i s^chi_i, +1) per matter row, then one virtual
    row (alpha, s^alpha, -1) per root alpha = e_u - e_v inside a block: the
    adjoint counted negatively, so a virtual row contributes the inverse of
    the factor of a genuine row of the same weight.
    """
    rows = [(chi, pack(table.x_mono(i, chi)), 1) for i, chi in enumerate(data.chi)]
    for a, b in data.block_slices():
        for u, v in itertools.permutations(range(a, b), 2):
            alpha = tuple((j == u) - (j == v) for j in range(data.k))
            rows.append((alpha, table.packed({table.s(u): 1, table.s(v): -1}), -1))
    return rows


def collect(terms) -> dict:
    """Sum (degree, coefficient) pairs by degree, dropping the sums that vanish.

    A dict is taken as pairs whose degrees are summed already.
    """
    if not isinstance(terms, dict):
        pairs, terms = terms, {}
        for k, f in pairs:
            terms[k] = terms[k] + f if k in terms else f
    return {k: f for k, f in terms.items() if not f.is_zero()}


class Combination:
    """Finite combination sum_d f_d * b_d over the degree-indexed basis of ``owner``.

    ``terms`` holds no zero coefficient, so two combinations of one kind are
    equal exactly when their degree sets agree and then their coefficients
    (``Scalar.is_zero`` is exact in normal form).  The constructor takes a
    dict or any iterable of (degree, coefficient) pairs.
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner, terms):
        self.owner = owner
        self.terms = collect(terms)

    def __add__(self, other):
        return type(self)(self.owner, itertools.chain(self.terms.items(), other.terms.items()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms.keys() == other.terms.keys() and all(
            f == other.terms[d] for d, f in self.terms.items())

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, sorted(self.terms))


class AlgebraElement(Combination):
    """Left-normal-form combination sum_d f_d * r_d."""

    __slots__ = ()
    algebra = property(lambda self: self.owner)

    def __neg__(self):
        return AlgebraElement(self.algebra, {d: -f for d, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.mul(self, other)

    def scalar_part(self) -> Scalar:
        """Coefficient of r_0 (the element must be concentrated in degree 0)."""
        zero = (0,) * self.algebra.data.k
        extra = [d for d in self.terms if d != zero]
        if extra:
            raise ValueError("element is not a Cartan scalar; degrees %r present" % extra)
        return self.terms.get(zero, Scalar.zero(self.algebra.table.width))


class ModuleElement(Combination):
    """Combination sum_c f_c * t_c of the right-module basis."""

    __slots__ = ()
    algebra = property(lambda self: self.owner)


class CoulombAlgebra:
    """Model-bound algebra: structure constants, mixed generators, module action."""

    def __init__(self, data: GaugeData):
        self.data = data
        self.table: VariableTable = data.table()
        # genuine rows first, so row i < data.n is the matter row chi_i
        self.rows = signed_rows(data, self.table)
        # the model's flavor specialization, as a ring map {a_i: packed image}
        self.flavor_images = {self.table.a(row): pack(tuple(mono))
                              for row, mono in (data.a_specialization or {}).items()}
        # the packed monomial q
        self.q = packed_power(self.table.width, Q_HALF, 2)
        self.canonical_pol = frozenset(range(len(self.rows)))
        self._sc_cache = {}
        self._mixed_cache = {}
        self._mixed_inv_cache = {}
        self._kernel_cache = {}
        self._modules = {}
        self._eval_maps = {}
        self._shift_maps = {}
        self._eff = None

    # -- basic builders -------------------------------------------------

    def eff(self):
        if self._eff is None:
            self._eff = eff_cone(self.data)
        return self._eff

    def zero_degree(self):
        return (0,) * self.data.k

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, {self.zero_degree(): Scalar.one(self.table.width)})

    def r(self, d, coeff: Scalar | None = None) -> AlgebraElement:
        d = tuple(d)
        return AlgebraElement(self, {d: coeff if coeff is not None else Scalar.one(self.table.width)})

    def cartan(self, f: Scalar) -> AlgebraElement:
        return AlgebraElement(self, {self.zero_degree(): f})

    def t(self, c, coeff: Scalar | None = None) -> ModuleElement:
        c = tuple(c)
        return ModuleElement(self, {c: coeff if coeff is not None else Scalar.one(self.table.width)})

    def x_mono(self, i: int) -> tuple:
        """The monomial of row i, as an exponent tuple."""
        return unpack(self.rows[i][1], self.table.width)

    # -- structure constants ---------------------------------------------

    def structure_constant(self, c, d, pol: frozenset | None = None) -> Scalar:
        """The scalar gamma with r_c(Pol) r_d(Pol) = gamma r_{c+d}(Pol)."""
        pol = self.canonical_pol if pol is None else frozenset(pol)
        key = (tuple(c), tuple(d), pol)
        got = self._sc_cache.get(key)
        if got is not None:
            return got
        factors = []
        for i, (chi, x, sign) in enumerate(self.rows):
            ci = pair(chi, c)
            length = epsilon(ci) * delta(ci, pair(chi, d))
            if length:
                factors.append((x - ci * self.q, length,
                                -sign if (i in pol) == (ci > 0) else sign))
        out = self._sc_cache[key] = hq_product(self.table.width, factors)
        return out

    def matter_kernel(self, d) -> Scalar:
        """The degree-d localization weight, unevaluated: the product of
        ``hq_ratio(x, <weight, d>)`` over the genuine rows and of its inverse
        over the virtual ones.

        It depends on the degree alone, so it is built once per degree and
        shared by every fixed point and descendent of this algebra.
        """
        d = tuple(d)
        got = self._kernel_cache.get(d)
        if got is None:
            got = self._kernel_cache[d] = hq_product(
                self.table.width,
                [(x, di, sign) for chi, x, sign in self.rows if (di := pair(chi, d))])
        return got

    # -- ring maps ------------------------------------------------------------

    def evaluation_map(self, p: FixedPoint, specialize: bool = False, shift=()) -> RingMap:
        """The ring map of evaluation at the fixed point p, optionally composed
        with the model's flavor specialization, with s_j sent to q^{shift_j}
        times its restriction; one per (point, specialize, shift), a zero
        shift being the unshifted map."""
        shift = tuple(shift) if any(shift) else ()
        key = (p, specialize, shift)
        got = self._eval_maps.get(key)
        if got is None:
            width = self.table.width
            flavor = RingMap(self.flavor_images if specialize else {}, width)
            images = dict(flavor.images)
            for j, mono in p.restriction.items():
                images[self.table.s(j)] = (flavor.mono(pack(mono))
                                           + (shift[j] if shift else 0) * self.q)
            got = self._eval_maps[key] = RingMap(images, width)
        return got

    def evaluate(self, p: FixedPoint, f: Scalar, specialize: bool = False, shift=()) -> Scalar:
        """f under :meth:`evaluation_map`.

        A vanishing denominator is reported with the point's label and the
        factor written in the model's variables.
        """
        try:
            return f.subs(self.evaluation_map(p, specialize, shift))
        except PoleEvaluationError as exc:
            raise PoleEvaluationError("pole at fixed point %s: atom %s vanishes"
                                      % (p.label(), atom_str(self.table, exc.atom)),
                                      atom=exc.atom)

    def shift_map(self, d) -> RingMap:
        """The ring map s_j -> q^{d_j} s_j; one per degree."""
        d = tuple(d)
        got = self._shift_maps.get(d)
        if got is None:
            got = self._shift_maps[d] = q_shift_map(self.table, d)
        return got

    def shift(self, f: Scalar, d) -> Scalar:
        """f with every s_j sent to q^{d_j} s_j."""
        return f.subs(self.shift_map(d)) if any(d) else f

    def shift_coefficient(self, f: Scalar, c) -> Scalar:
        """Move a coefficient across r_c: every s_j picks up q^{-c_j}."""
        return self.shift(f, [-cj for cj in c])

    def mul(self, first: AlgebraElement, second: AlgebraElement,
            pol: frozenset | None = None) -> AlgebraElement:
        return AlgebraElement(self, (
            (tuple(x + y for x, y in zip(c, d)),
             f * self.shift_coefficient(g, c) * self.structure_constant(c, d, pol))
            for c, f in first.terms.items() for d, g in second.terms.items()))

    def tau(self, a: AlgebraElement) -> AlgebraElement:
        """Anti-automorphism fixing the Cartan and sending r_d to r_{-d}."""
        return AlgebraElement(self, ((tuple(-x for x in d), self.shift(f, d))
                                     for d, f in a.terms.items()))

    # -- mixed generators --------------------------------------------------

    def xi_phi_coefficient(self, d, pol: frozenset) -> Scalar:
        """Left coefficient of the polarization-change image of r_d(Pol)."""
        factors = []
        for i, (chi, x, sign) in enumerate(self.rows):
            di = pair(chi, d)
            if di and i not in pol:
                factors.append((x, -di, -sign if di > 0 else sign))
        return hq_product(self.table.width, factors)

    def xi_phi_generator(self, d, pol: frozenset) -> AlgebraElement:
        return self.r(d, self.xi_phi_coefficient(d, pol))

    def mixed_coefficient(self, d) -> Scalar:
        """Left coefficient of the mixed generator at degree d."""
        d = tuple(d)
        got = self._mixed_cache.get(d)
        if got is not None:
            return got
        eff = self.eff()
        side = d if eff.contains(d) else tuple(-x for x in d)
        pol = mixed_polarization([chi for chi, _, _ in self.rows], side) \
            if eff.contains(side) else self.canonical_pol
        out = self.xi_phi_coefficient(d, pol)
        self._mixed_cache[d] = out
        return out

    def mixed_coefficient_inv(self, d) -> Scalar:
        d = tuple(d)
        got = self._mixed_inv_cache.get(d)
        if got is None:
            got = self.mixed_coefficient(d).inv()
            self._mixed_inv_cache[d] = got
        return got

    def mixed_generator(self, d) -> AlgebraElement:
        d = tuple(d)
        return self.r(d, self.mixed_coefficient(d))

    # -- right module -------------------------------------------------------

    def module_factor(self, c, d, pol: frozenset | None = None) -> Scalar:
        """Scalar with t_c(Pol) r_d(Pol) = factor * t_{c+d}(Pol)."""
        pol = self.canonical_pol if pol is None else frozenset(pol)
        factors = []
        for i, (chi, x, sign) in enumerate(self.rows):
            di = pair(chi, d)
            if di and (di < 0) == (i in pol):
                factors.append((x - pair(chi, c) * self.q, -di, -sign))
        return hq_product(self.table.width, factors)

    def module_act(self, t: ModuleElement, a: AlgebraElement,
                   pol: frozenset | None = None) -> ModuleElement:
        return ModuleElement(self, (
            (tuple(x + y for x, y in zip(c, d)),
             g * self.shift_coefficient(f, c) * self.module_factor(c, d, pol))
            for c, g in t.terms.items() for d, f in a.terms.items()))

    def verma_module(self, p: FixedPoint):
        """The :class:`~coulombkit.verma.VermaModule` at the fixed point p.

        One module per point and algebra, so its norms and Whittaker vectors
        are computed once however many descendents are paired against them.
        """
        module = self._modules.get(p)
        if module is None:
            from .verma import VermaModule  # verma builds on this module
            module = self._modules[p] = VermaModule(self, p)
        return module

    # -- quantum Hamiltonian reduction oracle ---------------------------------

    def abelian_point_algebra(self) -> "CoulombAlgebra":
        """The rank-n model where every row acts by its own coordinate."""
        n = self.data.n
        chi = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return CoulombAlgebra(GaugeData.create(chi, (1,) * n))

    def abelian_point_lift(self, d, ab: "CoulombAlgebra | None" = None) -> AlgebraElement:
        """The generator word in the rank-n model whose image is r_d."""
        ab = ab or self.abelian_point_algebra()
        word = ab.one()
        for i in range(self.data.n):
            di = self.data.pairing(i, d)
            if di > 0:
                b = tuple(1 if j == i else 0 for j in range(self.data.n))
                for _ in range(di):
                    word = ab.mul(word, ab.r(b))
        for i in range(self.data.n):
            di = self.data.pairing(i, d)
            if di < 0:
                b = tuple(-1 if j == i else 0 for j in range(self.data.n))
                for _ in range(-di):
                    word = ab.mul(word, ab.r(b))
        return word

    def project_lift_scalar(self, f: Scalar, ab: "CoulombAlgebra") -> Scalar:
        """Send the lift's gauge variables to s^{chi_i} (the reduction map) and
        its Kahler variables to 1; q, h and the flavors share their indices."""
        t = self.table
        images = {ab.table.s(i): t.mono({t.s(j): cij for j, cij in enumerate(row)})
                  for i, row in enumerate(self.data.chi)}
        images.update({ab.table.qvar(i): t.unit() for i in range(self.data.n)})
        return f.subs(images, t.width)

    # -- Weyl machinery -------------------------------------------------------

    def weyl_elements(self):
        """All block permutations, as index tuples acting on degree vectors."""
        slices = self.data.block_slices()
        pools = [itertools.permutations(range(a, b)) for a, b in slices]
        out = []
        for combo in itertools.product(*pools):
            perm = []
            for part in combo:
                perm.extend(part)
            out.append(tuple(perm))
        return out

    def weyl_on_degree(self, w, d):
        """Permute a degree vector: entry w[j] of the image is entry j of d, so
        on three entries w = (1, 2, 0) sends (10, 20, 30) to (30, 10, 20)."""
        out = [0] * len(w)
        for j, dst in enumerate(w):
            out[dst] = d[j]
        return tuple(out)

    def is_dominant(self, d) -> bool:
        for a, b in self.data.block_slices():
            for j in range(a, b - 1):
                if d[j] < d[j + 1]:
                    return False
        return True
