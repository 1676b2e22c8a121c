"""The convolution algebra on cocharacter generators, in left-coefficient normal form.

Every finite sum over degrees the engine builds is a :class:`Combination`:
algebra elements, Verma vectors and the vertex series.  It maps degrees to
nonzero scalar coefficients; :func:`collect` is the one routine that sums
them by degree, and the base class owns ``+`` and ``==``.
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
are built on.  :meth:`CoulombAlgebra.relation` builds every two-sided
product R_c f R_{-c} of them.  The algebra memoizes, and drops with it,
structure constants, mixed coefficients, kernels at a point
(:meth:`CoulombAlgebra.point_kernel`), degree lists, Verma modules, the
relations R_c R_{-c}, the root memo ``roots`` (the direction of every
binomial root converted for the algebra: every ``hq_product`` call and
shift here and the ``poch_product`` conversions of :mod:`coulombkit.vertex`
pass it), each shifted monomial's s-exponents, and one evaluation map per
(point, specialization).  A shift is no map, nor is evaluation at a shifted
point (:meth:`CoulombAlgebra._q_shift`).  Cached values are immutable and
a RingMap only grows memos that never change a result, so concurrent
identical insertions are harmless.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .exactring import (PoleEvaluationError, Q_HALF, RingMap, RootMemo, Scalar, VariableTable,
                        _SLOT_TOP, _checked, _mapped_keys, atom_str, pack, packed_power,
                        q_shifted, unpack)
from .hypertoric import FixedPoint, GaugeData, enumerate_degrees, mixed_polarization, pair
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


class CoulombAlgebra:
    """Model-bound algebra: structure constants, mixed generators, Verma modules."""

    def __init__(self, data: GaugeData):
        self.data = data
        self.table: VariableTable = data.table
        # genuine rows first, so row i < data.n is the matter row chi_i
        self.rows = signed_rows(data, self.table)
        # the packed monomial q
        self.q = packed_power(self.table.width, Q_HALF, 2)
        self.canonical_pol = frozenset(range(len(self.rows)))
        self._sc_cache = {}
        self._mixed_cache = {}
        self._point_kernels = {}
        self._modules = {}
        self._eval_maps = {}
        self._relations = {}
        self._degrees = {}
        # packed monomial -> its s-exponents, for a shift
        self._s_exponents = {}
        # every kernel's binomial root -> its direction (exactring._mapped_keys)
        self.roots = RootMemo(self.table.width)
        # the gauge variables s_j, which a shift moves
        self._gauge = tuple(self.table.s(j) for j in range(data.k))

    # -- basic builders -------------------------------------------------

    def degrees(self, order: int) -> tuple:
        """The effective degrees d with <theta, d> <= order, sorted by (level,
        lex): :func:`~coulombkit.hypertoric.enumerate_degrees` once per order."""
        got = self._degrees.get(order)
        if got is None:
            got = self._degrees[order] = tuple(enumerate_degrees(self.data.cone,
                                                                 self.data.theta, order))
        return got

    def zero_degree(self):
        return (0,) * self.data.k

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, {self.zero_degree(): Scalar.one(self.table.width)})

    def r(self, d, coeff: Scalar | None = None) -> AlgebraElement:
        d = tuple(d)
        return AlgebraElement(self, {d: coeff if coeff is not None else Scalar.one(self.table.width)})

    def cartan(self, f: Scalar) -> AlgebraElement:
        return AlgebraElement(self, {self.zero_degree(): f})

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
        out = self._sc_cache[key] = hq_product(self.table.width, factors, roots=self.roots)
        return out

    def point_kernel(self, p: FixedPoint, d, specialize: bool = False) -> Scalar:
        """The degree-d localization weight at p, one :func:`hq_product` over
        the images of the signed rows (a map never moves q or h); one per
        (point, specialize, degree).  A factor vanishing at p is named, in the
        model's variables, by evaluating the unevaluated kernel."""
        key = (p, specialize, tuple(d))
        got = self._point_kernels.get(key)
        if got is None:
            ring, w = self.evaluation_map(p, specialize), self.table.width
            rows = [(x, di, sign) for chi, x, sign in self.rows if (di := pair(chi, d))]
            try:
                got = hq_product(w, [(ring.mono(x), di, sign) for x, di, sign in rows],
                                 roots=self.roots)
            except PoleEvaluationError:
                got = self.evaluate(p, hq_product(w, rows, roots=self.roots), specialize)
            self._point_kernels[key] = got
        return got

    # -- ring maps ------------------------------------------------------------

    @cached_property
    def flavor_map(self) -> RingMap:
        """The model's flavor specialization {a_i: image}, built on first use."""
        aspec = self.data.a_specialization or {}
        return RingMap({self.table.a(i): mono for i, mono in aspec.items()}, self.table.width)

    def evaluation_map(self, p: FixedPoint, specialize: bool = False) -> RingMap:
        """The ring map of evaluation at the fixed point p, optionally composed
        with the model's flavor specialization; one per (point, specialize)."""
        key = (p, specialize)
        got = self._eval_maps.get(key)
        if got is None:
            images = dict(self.flavor_map.images) if specialize else {}
            for j, mono in p.restriction.items():
                x = pack(mono)
                images[self.table.s(j)] = self.flavor_map.mono(x) if specialize else x
            got = self._eval_maps[key] = RingMap(images, self.table.width)
        return got

    def evaluate(self, p: FixedPoint, f: Scalar, specialize: bool = False, shift=()) -> Scalar:
        """f under :meth:`evaluation_map`, every s_j times q^{shift_j}
        (:meth:`_q_shift`).

        A vanishing denominator is reported with the point's label and the
        factor written in the model's variables.
        """
        try:
            return self._q_shift(f, shift, self.evaluation_map(p, specialize).mono)
        except PoleEvaluationError as exc:
            raise PoleEvaluationError("pole at fixed point %s: atom %s vanishes"
                                      % (p.label(), atom_str(self.table, pack(exc.atom))),
                                      atom=exc.atom)

    def _q_shift(self, f: Scalar, d, image=None) -> Scalar:
        """f with each monomial m (prefactor, sum-part terms, atom roots) sent
        to image(m), by default m, times q^{<e, d>}, e the s-exponents of m.
        Only an image formed here is checked, on the unpacked exponents when
        the q step could leave its slot; a pole names the root of f."""
        w, q, exps, s, k = self.table.width, self.q, self._s_exponents, self._gauge[0], self.data.k
        roots, bound = self.roots, _SLOT_TOP >> 2

        def mono(m):
            e = exps.get(m)
            if e is None:
                e = exps[m] = unpack(m, w)[s:s + k]
            step, y = pair(e, d), m if image is None else image(m)
            if -bound < step < bound:
                return _checked(y + step * q, w) if step or image is None else y
            # q^(1/2) would move by 2^62 or more, past a slot's 2^63
            return pack(q_shifted(unpack(y, w), step))

        return f._image(w, mono, _mapped_keys(f.atoms.items(), lambda g: roots[mono(g)], w))

    def shift(self, f: Scalar, d) -> Scalar:
        """f with every s_j sent to q^{d_j} s_j (:meth:`_q_shift`); f itself
        when d is zero or f is free of every s_j."""
        return self._q_shift(f, d) if any(d) and f.uses(self._gauge) else f

    def shift_coefficient(self, f: Scalar, c) -> Scalar:
        """Move a coefficient across r_c: every s_j picks up q^{-c_j}."""
        return self.shift(f, [-cj for cj in c])

    def mul(self, first: AlgebraElement, second: AlgebraElement,
            pol: frozenset | None = None) -> AlgebraElement:
        return AlgebraElement(self, (
            (tuple(x + y for x, y in zip(c, d)),
             f * self.shift_coefficient(g, c) * self.structure_constant(c, d, pol))
            for c, f in first.terms.items() for d, g in second.terms.items()))

    # -- mixed generators --------------------------------------------------

    def xi_phi_coefficient(self, d, pol: frozenset) -> Scalar:
        """Left coefficient of the polarization-change image of r_d(Pol)."""
        factors = []
        for i, (chi, x, sign) in enumerate(self.rows):
            di = pair(chi, d)
            if di and i not in pol:
                factors.append((x, -di, -sign if di > 0 else sign))
        return hq_product(self.table.width, factors, roots=self.roots)

    def mixed_coefficient(self, d) -> Scalar:
        """Left coefficient of the mixed generator at degree d."""
        d = tuple(d)
        got = self._mixed_cache.get(d)
        if got is not None:
            return got
        eff = self.data.cone
        side = d if eff.contains(d) else tuple(-x for x in d)
        pol = mixed_polarization([chi for chi, _, _ in self.rows], side) \
            if eff.contains(side) else self.canonical_pol
        out = self._mixed_cache[d] = self.xi_phi_coefficient(d, pol)
        return out

    def mixed_coefficient_inv(self, d) -> Scalar:
        return self.mixed_coefficient(d).inv()

    def mixed_generator(self, d) -> AlgebraElement:
        d = tuple(d)
        return self.r(d, self.mixed_coefficient(d))

    def relation(self, c, f: Scalar | None = None, other: "CoulombAlgebra | None" = None) -> Scalar:
        """The scalar part of R_c f R_{-c}, R being the mixed generators of
        ``other`` (by default this algebra) multiplied in this algebra; the
        one place the product is built, by :meth:`mul`; R_c R_{-c} is
        memoized per degree."""
        c = tuple(c)
        if f is None and other is None:
            got = self._relations.get(c)
            if got is None:
                got = self._relations[c] = self.relation(c, other=self)
            return got
        other = self if other is None else other
        nc = tuple(-x for x in c)
        prod = self.r(c, other.mixed_coefficient(c))
        if f is not None:
            prod = self.mul(prod, self.cartan(f))
        return self.mul(prod, self.r(nc, other.mixed_coefficient(nc))).scalar_part()

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
