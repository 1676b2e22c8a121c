"""Exact arithmetic layer: Laurent polynomials and factored rational scalars.

Values live in a Laurent ring whose variables are, in canonical order,

    q^(1/2) < h^(1/2) < a_1 < ... < a_n < s_1 < ... < s_k < Q_1^(1/2) < ... < Q_k^(1/2)

where h denotes the symplectic weight hbar.  Half-integer powers of q, h and
Q are encoded as integer exponents on the square-root base variables, so an
exponent vector is always an integer tuple; printed output rewrites even
exponents as integer powers of q, h, Q.

A :class:`Scalar` is a rational function kept in the factored shape

    prefactor * sum_part * prod psi_d(r)^(-atoms[(r, d)])

where the prefactor is a single monomial, the sum part is an expanded
Laurent polynomial that only additions create (usually a constant), and the
atom key ``(r, d)`` stands for ``psi_d(r)``: ``1 - r`` for d = 1, else the
cyclotomic polynomial ``Phi_d(r)``, with r primitive and its first nonzero
exponent positive.  A positive multiplicity is a denominator factor, a
negative one a numerator factor.  A binomial is ``1 - r^n = prod_{d|n}
psi_d(r)`` for n > 0; for n < 0 its sign and monomial move into the
prefactor.  The psi_d(r) are irreducible and pairwise not associate, so a
product of atoms factors one way only.

No multivariate gcd is ever computed.  Multiplying adds the atom dicts,
inverting negates them (the inverse of a sum part that is not a monomial
raises :class:`SumInverseError`), and two products of atoms are equal
exactly when their fields are.  Construction divides the sum part by every
denominator atom it can, through its chains of terms ``m + k*r``, and moves
its monomial content to the prefactor.  Equality with a sum part is
cross-multiplication after cancelling the shared atoms.  Rendering regroups
the atoms of each root r into binomials ``(1 - r^n)``, largest n first;
nothing is multiplied out to print.  All values are immutable.

Every substitution goes through a :class:`RingMap`: the images of the
variables plus memos of the image of each monomial and the direction of the
image of each atom root.  A map built once per point or shift and applied
to many values maps each monomial and root once; a plain dict handed to
``subs`` becomes a throwaway map.  The memos never change a result, and a
denominator atom sent to 1 raises on every application.

A coefficient is an ``int`` when it is integral, otherwise a ``Fraction``
whose denominator is greater than 1; never a float.  :func:`exact_coeff`
is the one normalization, and every operation keeps that invariant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Rational
from operator import add, sub


Q_HALF = 0
HBAR_HALF = 1


class PoleEvaluationError(ArithmeticError):
    """A substitution made a denominator factor vanish with no cancellation.

    ``atom`` is the primitive monomial r of the vanishing factor (1 - r).
    """

    def __init__(self, message: str, atom: tuple):
        super().__init__(message)
        self.atom = atom


class VariableTable:
    """Canonical, totally ordered variable layout for a rank-k model with n matter rows."""

    __slots__ = ("n", "k", "width")

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.width = 2 + n + 2 * k

    def a(self, i: int) -> int:
        """Index of the flavor variable a_{i+1} (0-based i)."""
        return 2 + i

    def s(self, j: int) -> int:
        """Index of the gauge variable s_{j+1} (0-based j)."""
        return 2 + self.n + j

    def qvar(self, j: int) -> int:
        """Index of the Kahler half-power variable Q_{j+1}^(1/2) (0-based j)."""
        return 2 + self.n + self.k + j

    def unit(self) -> tuple:
        return (0,) * self.width

    def mono(self, entries: dict) -> tuple:
        m = [0] * self.width
        for idx, e in entries.items():
            m[idx] = e
        return tuple(m)

    def x_mono(self, i: int, chi_row) -> tuple:
        """The monomial a_i * s^{chi_i} attached to the i-th matter row."""
        m = [0] * self.width
        m[self.a(i)] = 1
        for j, c in enumerate(chi_row):
            m[self.s(j)] = c
        return tuple(m)

    def var_label(self, idx: int) -> str:
        if idx == Q_HALF:
            return "q"
        if idx == HBAR_HALF:
            return "h"
        if idx < 2 + self.n:
            return "a%d" % (idx - 1)
        if idx < 2 + self.n + self.k:
            return "s%d" % (idx - 1 - self.n)
        return "Q%d" % (idx - 1 - self.n - self.k)

    def is_half_variable(self, idx: int) -> bool:
        return idx < 2 or idx >= 2 + self.n + self.k


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(add, m1, m2))


def mono_div(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(sub, m1, m2))


def mono_inv(m: tuple) -> tuple:
    return tuple(-a for a in m)


def mono_pow(m: tuple, e: int) -> tuple:
    return tuple(a * e for a in m)


def mono_is_unit(m: tuple) -> bool:
    return not any(m)


def mono_subs(m: tuple, images: dict, width: int) -> tuple:
    """Image of a monomial under a ring map ``{variable index: image monomial}``.

    A variable absent from ``images`` is fixed; ``width`` is the target's.
    """
    out = [0] * width
    for idx, e in enumerate(m):
        if not e:
            continue
        img = images.get(idx)
        if img is None:
            out[idx] += e
        else:
            for t, x in enumerate(img):
                out[t] += x * e
    return tuple(out)


class RingMap:
    """The monomial ring map ``{variable index: image monomial}`` into a ring
    of ``width`` variables, remembering what it has mapped.

    ``mono(m)`` memoizes the image of each monomial, and ``root(g)`` the
    direction ``(u, p)`` of the image of each atom root g (the image is
    ``u^p`` with u primitive), or None when that image is 1.  Build one map
    per point and shift and apply it again and again; the memos only grow
    with the monomials it has seen, and ``images`` must not change after
    construction.
    """

    __slots__ = ("images", "width", "_monos", "_roots")

    def __init__(self, images: dict, width: int):
        self.images = images
        self.width = width
        self._monos = {}
        self._roots = {}

    def mono(self, m: tuple) -> tuple:
        got = self._monos.get(m)
        if got is None:
            got = self._monos[m] = mono_subs(m, self.images, self.width)
        return got

    def root(self, g: tuple):
        try:
            return self._roots[g]
        except KeyError:
            u = self.mono(g)
            got = self._roots[g] = _direction(u) if any(u) else None
            return got


def ring_map(images, width: int | None) -> RingMap:
    """``images`` itself when it is a :class:`RingMap`, else a throwaway map
    of the dict into ``width`` variables."""
    return images if isinstance(images, RingMap) else RingMap(images, width)


def q_shifted(m: tuple, k: int) -> tuple:
    """The monomial q^k * m."""
    if k == 0:
        return m
    out = list(m)
    out[Q_HALF] += 2 * k
    return tuple(out)


def exact_coeff(c):
    """The rational number c as a stored coefficient: an ``int`` when
    integral, otherwise a ``Fraction``.  Anything else, a float included, is
    refused."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise TypeError("coefficient %r is not an int or a Fraction" % (c,))
        c = Fraction(c.numerator, c.denominator)
    return c.numerator if c.denominator == 1 else c


def _exact_terms(terms: dict) -> dict:
    """terms, each coefficient that arithmetic left as an integral
    ``Fraction`` replaced in place by its ``int``."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = exact_coeff(c)
    return terms


def _grkey(m: tuple):
    return (sum(m), m)


def _atom_key(gm):
    """Graded-lex key of an (atom, multiplicity) pair."""
    return _grkey(gm[0])


class Poly:
    """Sparse Laurent polynomial: exponent tuple -> nonzero coefficient, an
    ``int`` when integral, otherwise a ``Fraction``; never a float."""

    __slots__ = ("w", "terms")

    def __init__(self, width: int, terms: dict | None = None):
        self.w = width
        self.terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "Poly":
        return cls(width, {})

    @classmethod
    def one(cls, width: int) -> "Poly":
        return cls(width, {(0,) * width: 1})

    @classmethod
    def monomial(cls, m: tuple, coeff=1) -> "Poly":
        c = exact_coeff(coeff)
        if c == 0:
            return cls.zero(len(m))
        return cls(len(m), {m: c})

    @classmethod
    def from_terms(cls, width: int, items) -> "Poly":
        terms = {}
        for m, c in items:
            c = exact_coeff(c)
            if c == 0:
                continue
            acc = terms.get(m)
            nc = c if acc is None else acc + c
            if nc:
                terms[m] = nc
            elif acc is not None:
                del terms[m]
        return cls(width, _exact_terms(terms))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.w == other.w and self.terms == other.terms

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            nc = c if acc is None else acc + c
            if nc:
                terms[m] = nc
            elif acc is not None:
                del terms[m]
        return Poly(self.w, _exact_terms(terms))

    def __neg__(self) -> "Poly":
        return Poly(self.w, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.w)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc = terms.get(m)
                nc = c if acc is None else acc + c
                if nc:
                    terms[m] = nc
                elif acc is not None:
                    del terms[m]
        return Poly(self.w, _exact_terms(terms))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if e == 0:
            return Poly.one(self.w)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    def scale(self, c) -> "Poly":
        c = exact_coeff(c)
        if c == 1:
            return self
        if c == 0:
            return Poly.zero(self.w)
        return Poly(self.w, _exact_terms({m: cc * c for m, cc in self.terms.items()}))

    def mul_mono(self, m: tuple) -> "Poly":
        if mono_is_unit(m):
            return self
        return Poly(self.w, {mono_mul(t, m): c for t, c in self.terms.items()})

    # -- structure -----------------------------------------------------

    def content_mono(self) -> tuple:
        """Componentwise minimum exponent over all terms (unit for zero)."""
        if not self.terms:
            return (0,) * self.w
        it = iter(self.terms)
        lo = list(next(it))
        for m in it:
            for t, e in enumerate(m):
                if e < lo[t]:
                    lo[t] = e
        return tuple(lo)

    def subs(self, images, target_width: int | None = None) -> "Poly":
        """The image under a :class:`RingMap`, or under a dict
        ``{variable index: image monomial}`` into ``target_width`` variables."""
        ring = ring_map(images, target_width)
        terms = {}
        for m, c in self.terms.items():
            im = ring.mono(m)
            acc = terms.get(im)
            nc = c if acc is None else acc + c
            if nc:
                terms[im] = nc
            elif acc is not None:
                del terms[im]
        return Poly(ring.width, _exact_terms(terms))

    def exact_div(self, r: tuple, d: int = 1):
        """Exact quotient by the atom factor ``psi_d(r)``, or None.

        ``r`` is primitive with its first nonzero exponent positive.  The
        terms split into chains ``m + k*r``; each chain is a Laurent
        polynomial in r and is divided on its own, and a chain of one term
        is never a multiple of a binomial or cyclotomic factor.
        """
        piv = next(i for i, e in enumerate(r) if e)
        chains = {}
        for m, c in self.terms.items():
            k = m[piv] // r[piv]
            chains.setdefault(tuple([a - k * b for a, b in zip(m, r)]) if k else m, {})[k] = c
        if any(len(chain) < 2 for chain in chains.values()):
            return None
        psi = _psi(d)
        quot = {}
        for base, chain in chains.items():
            lo = min(chain)
            q = _udiv([chain.get(k, 0) for k in range(lo, max(chain) + 1)], psi)
            if q is None:
                return None
            for j, c in enumerate(q, lo):
                if c:
                    quot[tuple([a + j * b for a, b in zip(base, r)])] = c
        return Poly(self.w, _exact_terms(quot))

    def sorted_terms(self):
        """Terms in ascending graded-lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda mc: _grkey(mc[0]))

    def __repr__(self):
        return "Poly(%r)" % (self.terms,)


def one_minus(g: tuple) -> Poly:
    """The atom polynomial 1 - g."""
    w = len(g)
    if mono_is_unit(g):
        return Poly.zero(w)
    return Poly(w, {(0,) * w: 1, g: -1})


def _direction(g: tuple):
    """(r, n) with g = r^n, r primitive and its first nonzero exponent positive."""
    n = gcd(*g)
    if next(e for e in g if e) < 0:
        n = -n
    return tuple(e // n for e in g), n


def _chain_roots(p: Poly) -> set:
    """The primitive r along which some other term of p lies from its first
    term.  ``Poly.exact_div`` by a key ``(r, d)`` needs that term's chain to
    have a second term, so it can succeed only for r in this set."""
    it = iter(p.terms)
    m0 = next(it)
    return {_direction(mono_div(m, m0))[0] for m in it}


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _udiv(a, b):
    """Exact quotient of coefficient lists (lowest degree first) a / b, where
    b's leading coefficient is 1 or -1; None when a remainder is left."""
    n = len(b) - 1
    a = list(a)
    lead = b[-1]
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + n] * lead
        if c:
            for j in range(n):
                a[i + j] -= c * b[j]
    return None if any(a[:n]) else q


@lru_cache(maxsize=64)
def _psi(d: int) -> tuple:
    """Coefficients, lowest degree first, of psi_d: 1 - x for d = 1 and the
    cyclotomic polynomial Phi_d otherwise, so that 1 - x^n = prod_{d|n} psi_d."""
    if d == 1:
        return (1, -1)
    p = _udiv([1] + [0] * (d - 1) + [-1], _psi(1))
    for e in _divisors(d)[1:-1]:
        p = _udiv(p, _psi(e))
    return tuple(p)


def _atom_poly(r: tuple, d: int) -> Poly:
    """psi_d(r) as a Laurent polynomial."""
    return Poly(len(r), {mono_pow(r, k): c for k, c in enumerate(_psi(d)) if c})


def _psi_image(d: int, p: int):
    """The e with psi_d(x^p) = prod psi_e(x), for p > 0: x^p has order d
    exactly when x has an order e with e / gcd(e, p) = d."""
    return [e for e in _divisors(d * p) if e // gcd(e, p) == d]


def _mapped_keys(atoms: dict, ring: RingMap | None, width: int):
    """(coefficient, monomial, keys) with prod psi_d(g)^(-mult) over ``atoms``
    ``{(g, d): mult}``, each g sent through ``ring``, equal to coefficient *
    monomial * prod over the canonical keys.

    g maps to u^p with u primitive (:meth:`RingMap.root`); ``ring=None`` is
    the identity map.  When the image is 1, psi_d(1) is a number, zero only
    for d = 1: a denominator factor there is a :class:`PoleEvaluationError`,
    however often the map has seen g, and a numerator factor makes the
    coefficient 0.
    """
    coeff, pre, keys, vanished = 1, (0,) * width, {}, False
    for (g, d), mult in atoms.items():
        if ring is not None:
            root = ring.root(g)
        else:
            root = _direction(g) if any(g) else None
        if root is None:
            if d > 1:
                # psi_d(1) is the prime l for d a power of l, else 1
                coeff = exact_coeff(coeff * Fraction(sum(_psi(d))) ** -mult)
            elif mult > 0:
                raise PoleEvaluationError(
                    "pole at evaluation point: atom (1 - %r) vanishes" % (g,), atom=g)
            else:
                vanished = True
            continue
        u, p = root
        if p < 0:
            # psi_d(x^-1) = -x^-1 psi_1(x) for d = 1, x^-phi(d) psi_d(x) otherwise
            p = -p
            pre = mono_mul(pre, mono_pow(u, p * (len(_psi(d)) - 1) * mult))
            if d == 1 and mult % 2:
                coeff = -coeff
        for e in _psi_image(d, p):
            keys[(u, e)] = keys.get((u, e), 0) + mult
    return (0 if vanished else coeff), pre, keys


class SumInverseError(ArithmeticError):
    """The inverse of a value whose sum part is not a monomial.

    Such an inverse is not a product of atoms, and no workload needs one.
    """


class Scalar:
    """Factored rational function; see the module docstring for the shape.

    ``atoms`` maps a key ``(r, d)``, standing for ``psi_d(r)``, to its signed
    multiplicity.  Construction normalizes: a denominator atom divides the sum
    part when it can, sum part content moves to the prefactor, and a zero
    numerator collapses the value to canonical zero.
    """

    __slots__ = ("w", "num", "pre", "atoms")

    def __init__(self, width, num: Poly, pre: tuple | None = None, atoms: dict | None = None):
        """``atoms`` are binomials ``{g: mult}``, the factor (1 - g)^(-mult);
        they are converted once to cyclotomic keys."""
        atoms = {(g, 1): m for g, m in atoms.items() if m} if atoms else {}
        coeff, unit, keys = _mapped_keys(atoms, None, width) if atoms else (1, (0,) * width, {})
        pre = mono_mul(pre, unit) if pre is not None else unit
        x = Scalar._of(width, num.scale(coeff), pre, keys)
        self.w, self.num, self.pre, self.atoms = width, x.num, x.pre, x.atoms

    @classmethod
    def _of(cls, width, num: Poly, pre: tuple, keys: dict, cancel=None) -> "Scalar":
        """The normal form from cyclotomic keys.  ``cancel`` lists the
        denominator keys that may divide ``num``; by default every one may."""
        if num.is_zero():
            num, pre, keys, cancel = Poly.zero(width), (0,) * width, {}, ()
        elif cancel is None:
            cancel = [k for k, m in keys.items() if m > 0]
        roots = None
        for k in cancel:
            while keys[k] and len(num.terms) > 1:
                if roots is None:
                    roots = _chain_roots(num)
                q = num.exact_div(*k) if k[0] in roots else None
                if q is None:
                    break
                num, roots = q, None
                keys[k] -= 1
        cm = num.content_mono()
        if any(cm):
            num = num.mul_mono(mono_inv(cm))
            pre = mono_mul(pre, cm)
        return cls._raw(width, num, pre, {k: m for k, m in keys.items() if m})

    @classmethod
    def _raw(cls, width, num: Poly, pre: tuple, keys: dict) -> "Scalar":
        """Fields that are already in normal form."""
        x = cls.__new__(cls)
        x.w, x.num, x.pre, x.atoms = width, num, pre, keys
        return x

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "Scalar":
        return cls(width, Poly.zero(width))

    @classmethod
    def one(cls, width: int) -> "Scalar":
        return cls(width, Poly.one(width))

    @classmethod
    def from_poly(cls, p: Poly) -> "Scalar":
        return cls(p.w, p)

    @classmethod
    def monomial(cls, m: tuple, coeff=1) -> "Scalar":
        return cls(len(m), Poly.monomial((0,) * len(m), coeff), pre=m)

    @classmethod
    def atom_inverse(cls, g: tuple, mult: int = 1) -> "Scalar":
        """1 / (1 - g)^mult."""
        return cls(len(g), Poly.one(len(g)), atoms={g: mult})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.w != other.w:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.num.is_monomial() and other.num.is_monomial():
            # products of atoms factor uniquely
            return (self.pre == other.pre and self.num.terms == other.num.terms
                    and self.atoms == other.atoms)
        # cross-multiply by what remains of each side's atoms once the shared
        # atoms are cancelled
        lhs, rhs = self.num.mul_mono(mono_div(self.pre, other.pre)), other.num
        for k in {**self.atoms, **other.atoms}:
            e = self.atoms.get(k, 0) - other.atoms.get(k, 0)
            if e > 0:
                rhs = rhs * _atom_poly(*k) ** e
            elif e < 0:
                lhs = lhs * _atom_poly(*k) ** -e
        return lhs == rhs

    __hash__ = None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # each atom at the larger of its two multiplicities: shared numerator
        # atoms stay factored, the rest multiply into the sums
        keys = {k: max(self.atoms.get(k, 0), other.atoms.get(k, 0))
                for k in {**self.atoms, **other.atoms}}
        num = Poly.zero(self.w)
        for x in (self, other):
            part = x.num.mul_mono(x.pre)
            for k, mult in keys.items():
                if mult != x.atoms.get(k, 0):
                    part = part * _atom_poly(*k) ** (mult - x.atoms.get(k, 0))
            num = num + part
        # a denominator key only one summand reaches multiplies the other
        # summand's part, and no denominator key divides a sum part in normal
        # form: the key does not divide the sum, so only shared keys may cancel
        cancel = [k for k, m in keys.items()
                  if m > 0 and self.atoms.get(k, 0) == other.atoms.get(k, 0)]
        return Scalar._of(self.w, num, (0,) * self.w, keys, cancel)

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.w, -self.num, self.pre, self.atoms)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.is_zero() or other.is_zero():
            return Scalar.zero(self.w)
        keys = dict(self.atoms)
        for k, mult in other.atoms.items():
            e = keys.get(k, 0) + mult
            if e:
                keys[k] = e
            else:
                del keys[k]
        pre = mono_mul(self.pre, other.pre)
        a, b = (self.num, other.num) if len(other.num.terms) == 1 else (other.num, self.num)
        if len(b.terms) > 1:
            return Scalar._of(self.w, a * b, pre, keys)
        (u, c), = b.terms.items()
        if len(a.terms) > 1:
            return Scalar._of(self.w, a.scale(c), pre, keys)
        # both sum parts are the constant term: a product of atoms again
        return Scalar._raw(self.w, Poly(self.w, {u: exact_coeff(a.terms[u] * c)}), pre, keys)

    def scale(self, c) -> "Scalar":
        if c == 0:
            return Scalar.zero(self.w)
        return Scalar._raw(self.w, self.num.scale(c), self.pre, self.atoms)

    def inv(self) -> "Scalar":
        """The inverse of a nonzero value whose sum part is a monomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if not self.num.is_monomial():
            raise SumInverseError("inverse of a value with a %d-term sum part"
                                  % len(self.num.terms))
        (u, c), = self.num.terms.items()
        return Scalar._raw(self.w, Poly(self.w, {u: exact_coeff(Fraction(1, c))}),
                           mono_inv(self.pre), {k: -m for k, m in self.atoms.items()})

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    # -- substitution ------------------------------------------------------

    def subs(self, images, target_width: int | None = None) -> "Scalar":
        """Apply a :class:`RingMap`, or the dict ``{variable index: image
        monomial}`` into ``target_width`` variables; absent variables are
        fixed.

        Each atom maps to atoms (see :func:`_mapped_keys`).  A denominator
        atom (1 - r) whose image is 1 is a :class:`PoleEvaluationError`: the
        normal form has no atom that divides the numerator.
        """
        ring = ring_map(images, target_width)
        coeff, unit, keys = _mapped_keys(self.atoms, ring, ring.width)
        if coeff == 0:
            return Scalar.zero(ring.width)
        pre = mono_mul(ring.mono(self.pre), unit)
        num = self.num.subs(ring)
        return Scalar._of(ring.width, num.scale(coeff), pre, keys)

    def q_shift(self, var_idx: int, m: int) -> "Scalar":
        """Replace the variable by q^m * itself (exponent e adds 2*m*e to q^(1/2))."""
        if m == 0:
            return self
        var = tuple(int(t == var_idx) for t in range(self.w))
        return self.subs({var_idx: q_shifted(var, m)}, self.w)

    def uses(self, indices) -> bool:
        """Whether a variable of the sequence ``indices`` occurs in the
        prefactor, the sum part or an atom root; stops at the first hit."""
        monos = itertools.chain((self.pre,), self.num.terms, (r for r, _ in self.atoms))
        return any(m[idx] for m in monos for idx in indices)

    def __repr__(self):
        return "Scalar(num=%r, pre=%r, atoms=%r)" % (self.num.terms, self.pre, self.atoms)


def substitute_monomials(x: Scalar, table: VariableTable, s_images: dict) -> Scalar:
    """Homomorphic image replacing each gauge variable s_j by a monomial.

    ``s_images`` maps 0-based gauge indices to monomial tuples of the same
    table; every s_j occurring in x must be covered.
    """
    for j in range(table.k):
        if j not in s_images and x.uses((table.s(j),)):
            raise ValueError("substitution does not cover s%d" % (j + 1))
    return x.subs({table.s(j): m for j, m in s_images.items()}, table.width)


def q_shift_map(table: VariableTable, dvec) -> RingMap:
    """The ring map shifting every gauge variable: s_j -> q^{d_j} s_j."""
    return RingMap({table.s(j): q_shifted(table.mono({table.s(j): 1}), dj)
                    for j, dj in enumerate(dvec) if dj}, table.width)


def shift_s_by_degree(x: Scalar, table: VariableTable, dvec) -> Scalar:
    """x under :func:`q_shift_map`, through a throwaway map."""
    if not any(dvec):
        return x
    return x.subs(q_shift_map(table, dvec))


def specialize_q1(x: Scalar, table: VariableTable) -> Scalar:
    """Set q^(1/2) -> 1 (the commutative limit of the convolution product)."""
    return x.subs({Q_HALF: table.unit()}, table.width)


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------

def _exp_str(table: VariableTable, idx: int, e: int) -> str:
    label = table.var_label(idx)
    if table.is_half_variable(idx):
        if e % 2 == 0:
            e //= 2
            if e == 1:
                return label
            return "%s^%d" % (label, e)
        sign = "-" if e < 0 else ""
        return "%s^(%s%d/2)" % (label, sign, abs(e))
    if e == 1:
        return label
    return "%s^%d" % (label, e)


def mono_str(table: VariableTable, m: tuple) -> str:
    parts = [_exp_str(table, idx, e) for idx, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def _term_str(table: VariableTable, m: tuple, c) -> str:
    mstr = mono_str(table, m)
    if mstr == "1":
        return str(c)
    if c == 1:
        return mstr
    if c == -1:
        return "-" + mstr
    return "%s*%s" % (c, mstr)


def poly_str(table: VariableTable, p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        t = _term_str(table, m, c)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append("- " + t[1:])
        else:
            parts.append("+ " + t)
    return " ".join(parts)


def atom_str(table: VariableTable, g: tuple, mult: int = 1) -> str:
    body = "(1 - %s)" % mono_str(table, g)
    if mult != 1:
        body += "^%d" % mult
    return body


def _orient_factor(g: tuple, mult: int):
    """Canonical orientation of a binomial factor (1 - g)^mult.

    Prefers the representative with positive total degree, then the
    lexicographically smaller exponent vector; returns (g', unit monomial,
    sign) with (1 - g)^mult = sign * unit * (1 - g')^mult.
    """
    gi = mono_inv(g)
    if sum(g) > 0 or (sum(g) == 0 and g < gi):
        return g, (0,) * len(g), 1
    # (1 - g) = (-g) (1 - g^{-1})
    return gi, mono_pow(g, mult), -1 if mult % 2 else 1


def binomial_atoms(x: Scalar) -> dict:
    """The atoms regrouped into binomials ``{r^n: mult}``, the factor
    (1 - r^n)^(-mult): per root r, the largest n left with a nonzero
    multiplicity first, which inverts 1 - r^n = prod_{d|n} psi_d(r)."""
    by_root = {}
    for (r, d), mult in x.atoms.items():
        by_root.setdefault(r, {})[d] = mult
    out = {}
    for r, mults in by_root.items():
        while mults:
            n = max(mults)
            c = out[mono_pow(r, n)] = mults[n]
            for d in _divisors(n):
                left = mults.get(d, 0) - c
                if left:
                    mults[d] = left
                else:
                    mults.pop(d, None)
    return out


def _factored(x: Scalar):
    """(head, sign, binomials) with x = sign * head * x.num * prod (1 - g)^(-mult)
    over the binomials {g: mult}, each oriented by :func:`_orient_factor`."""
    head, sign, out = x.pre, 1, {}
    for g, mult in binomial_atoms(x).items():
        g, unit, s = _orient_factor(g, -mult)
        head, sign = mono_mul(head, unit), sign * s
        out[g] = mult
    return head, sign, out


def scalar_str(table: VariableTable, x: Scalar) -> str:
    """Canonical deterministic rendering of a scalar in its factored shape.

    The head monomial with its coefficient, the sum part in parentheses when
    it is not a monomial, the numerator binomials, then ``/ ( ... )`` around
    the denominator binomials (see :func:`_factored`).  Nothing is
    multiplied out.
    """
    if x.is_zero():
        return "0"
    head, sign, atoms = _factored(x)
    if x.num.is_monomial():
        parts = [_term_str(table, head, sign * next(iter(x.num.terms.values())))]
    else:
        head_str = _term_str(table, head, sign)
        parts = [head_str] if head_str != "1" else []
        parts.append("(%s)" % poly_str(table, x.num))
    ordered = sorted(atoms.items(), key=_atom_key)
    parts += [atom_str(table, g, -mult) for g, mult in ordered if mult < 0]
    denom = [atom_str(table, g, mult) for g, mult in ordered if mult > 0]
    if denom:
        return "%s / ( %s )" % (" * ".join(parts), " * ".join(denom))
    return " * ".join(parts)


# ---------------------------------------------------------------------------
# lossless structured rendering
# ---------------------------------------------------------------------------

def scalar_structured(x: Scalar):
    """The rendered fields: head monomial, sum part, and every binomial with
    its signed multiplicity (negative: a numerator binomial), in graded-lex
    order, as :func:`scalar_str` prints them."""
    head, sign, atoms = _factored(x)
    return {
        "pre": list(head),
        "num": [[str(c), list(m)] for m, c in (x.num if sign > 0 else -x.num).sorted_terms()],
        "atoms": [[list(g), mult] for g, mult in sorted(atoms.items(), key=_atom_key)],
    }


def scalar_from_structured(width: int, data) -> Scalar:
    if data.get("gden") is not None:
        raise ValueError("a general denominator is not a product of atoms")
    return Scalar(
        width,
        Poly.from_terms(width, ((tuple(m), Fraction(c)) for c, m in data["num"])),
        pre=tuple(data["pre"]),
        atoms={tuple(g): mult for g, mult in data["atoms"]},
    )
