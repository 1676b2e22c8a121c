"""Exact arithmetic layer: Laurent polynomials and factored rational scalars.

Values live in a Laurent ring whose variables are, in canonical order,

    q^(1/2) < h^(1/2) < a_1 < ... < a_n < s_1 < ... < s_k < Q_1^(1/2) < ... < Q_k^(1/2)

where h denotes the symplectic weight hbar.  Half-integer powers of q, h and
Q are encoded as integer exponents on the square-root base variables, so an
exponent vector is always an integer tuple; printed output rewrites even
exponents as integer powers of q, h, Q.

Inside this module a monomial is one packed ``int``, not a tuple.  Variable i
of a width-w ring owns the signed 64-bit slot at bit ``64 * (w - 1 - i)``
(index 0, q^(1/2), most significant), and the packed value is
``sum_i e_i * 2^(64 * (w - 1 - i))``.  This is Kronecker substitution with
signed digits: a product of monomials is ``+``, an inverse is unary ``-``, a
power is ``*``, the unit is 0, and integer order is the lexicographic order
of the exponent tuples.  :func:`pack` and :func:`unpack` convert (the latter
in one ``struct`` call), and the public face -- ``Poly(w, {tuple: c})``,
``Poly.monomial``, ``Scalar(w, num, pre=tuple, atoms={tuple: mult})``,
:func:`scalar_structured`, the ``tuple_*`` views -- takes and returns
tuples.

Why no value leaves its slot.  A slot holds exponents below 2^63 in size,
and the engine keeps every exponent that comes from outside below 2^31:
:func:`pack` checks each exponent tuple, a ring-map image is checked when
it is formed, and the command line bounds what it reads
(``cli.MAX_EXPONENT`` = 2^20 on every exponent written,
``hypertoric.MAX_WEIGHT`` = 2^10 on every weight, ``--order`` at most 64).
Every other exponent is a sum of such exponents, each multiplied by a small
count -- a Pochhammer length, a multiplicity, a position along a chain,
the last checked below 2^31 in the chain split -- so it is at most 2^31
times the number of factors multiplied into its value, and no command
multiplies 2^31 of them into one value.  Packed arithmetic is exact while
every exponent stays below 2^63 in size; a ring-map image or q-shift whose
moves could pass 2^62 is computed from the unpacked exponents instead.

A :class:`Scalar` is a rational function kept in the factored shape

    prefactor * sum_part * prod psi_d(r)^(-atoms[(r, d)])

where the prefactor is a single monomial, the sum part is an expanded
Laurent polynomial that only additions create (usually a constant), and the
atom key ``(r, d)`` stands for ``psi_d(r)``: ``1 - r`` for d = 1, else the
cyclotomic polynomial ``Phi_d(r)``, with r primitive and its first nonzero
exponent positive (a positive packed int).  A positive multiplicity is a
denominator factor, a negative one a numerator factor.  A binomial is
``1 - r^n = prod_{d|n} psi_d(r)`` for n > 0; for n < 0 its sign and monomial
move into the prefactor.  The psi_d(r) are irreducible and pairwise not
associate, so a product of atoms factors one way only.  One conversion
makes keys of binomials and of mapped atoms alike: (1 - g) is the atom
``(g, 1)`` under the identity map, and an atom whose root maps to ``u^1``
(a Pochhammer binomial ``1 - q^m x`` maps to itself) is the one key
``(u, d)``; only an image ``u^p`` with p > 1 splits into several keys.

No multivariate gcd is ever computed.  Multiplying adds the atom dicts,
inverting negates them (the inverse of a sum part that is not a monomial
raises :class:`SumInverseError`), and two products of atoms are equal
exactly when their fields are.  Construction divides the sum part by every
denominator atom it can, through its chains of terms ``m + k*r``, and moves
its monomial content to the prefactor.  Equality with a sum part is
cross-multiplication after cancelling the shared atoms.  Rendering prints a
root whose one key is psi_1(r) as ``(1 - r)`` and regroups the keys of other
roots into binomials ``(1 - r^n)``, largest n first; nothing is multiplied
out, and each fragment, monomial and binomial is formatted once per
:class:`VariableTable`.  All values are immutable.

A substitution is ``Scalar.subs`` of a :class:`RingMap`: the images of the
variables plus memos of the image of each monomial and the direction of the
image of each atom root, so a map built once per point maps each
monomial and root once.  The algebra's q-shift, evaluation at a shifted
point included, is no map but hands ``Scalar._image`` its own images.  The
memos never change a result, and a denominator atom sent to 1 raises,
naming its own root, on every application.

A coefficient is an ``int`` when it is integral, otherwise a ``Fraction``
whose denominator is greater than 1; never a float.  :func:`exact_coeff`
is the one normalization, and every operation keeps that invariant.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Rational
from operator import add


Q_HALF = 0
HBAR_HALF = 1

SLOT_BITS = 64
# every exponent formed from a tuple, a ring-map image or an atom root lies
# in [-EXPONENT_BOUND, EXPONENT_BOUND)
EXPONENT_BOUND = 1 << 31
_SLOT_MASK = (1 << SLOT_BITS) - 1
_SLOT_TOP = 1 << (SLOT_BITS - 1)
# the sum part of the unit, which Scalar.__mul__ compares against (never mutated)
_UNIT_TERMS = {0: 1}


class PoleEvaluationError(ArithmeticError):
    """A substitution made a denominator factor vanish with no cancellation.

    ``atom`` is the primitive monomial r of the vanishing factor (1 - r), as
    an exponent tuple.
    """

    def __init__(self, message: str, atom: tuple):
        super().__init__(message)
        self.atom = atom


class ExponentOverflowError(ArithmeticError):
    """A monomial's exponent left [-2^31, 2^31), the bound of a packed slot.

    ``index`` is the variable and ``exponent`` the value it would have had.
    """

    def __init__(self, index: int, exponent: int):
        super().__init__("exponent %d of variable %d is outside [-2^31, 2^31)"
                         % (exponent, index))
        self.index = index
        self.exponent = exponent


class _Layout:
    """The constants of the packed layout for one width."""

    __slots__ = ("bias", "low", "high", "top", "nbytes", "codec")

    def __init__(self, width: int):
        ones = sum(1 << (SLOT_BITS * j) for j in range(width))
        # 2^63 in every slot: a packed monomial plus ``bias`` has unsigned
        # slots, and xor with it turns them into two's complement ones
        self.bias = _SLOT_TOP * ones
        # 2^31 in every slot, and every bit of a slot from bit 32 up: a value
        # whose digits are below 2^63 has its exponents in bounds exactly when
        # it plus ``low`` is in [0, top) and has no ``high`` bit set
        self.low = EXPONENT_BOUND * ones
        self.high = (_SLOT_MASK ^ (2 * EXPONENT_BOUND - 1)) * ones
        self.top = 1 << (SLOT_BITS * width)
        self.nbytes = SLOT_BITS // 8 * width
        self.codec = struct.Struct(">%dq" % width)


@lru_cache(maxsize=64)
def _layout(width: int) -> _Layout:
    return _Layout(width)


def _out_of_bounds(m: tuple) -> ExponentOverflowError:
    idx, e = next((i, e) for i, e in enumerate(m)
                  if not -EXPONENT_BOUND <= e < EXPONENT_BOUND)
    return ExponentOverflowError(idx, e)


def pack(m: tuple) -> int:
    """The packed monomial of an exponent tuple; an exponent outside
    [-2^31, 2^31) raises :class:`ExponentOverflowError`."""
    if m and (max(m) >= EXPONENT_BOUND or min(m) < -EXPONENT_BOUND):
        raise _out_of_bounds(m)
    lay = _layout(len(m))
    return (int.from_bytes(lay.codec.pack(*m), "big") ^ lay.bias) - lay.bias


def unpack(m: int, width: int) -> tuple:
    """The exponent tuple of a packed monomial of ``width`` variables."""
    lay = _layout(width)
    return lay.codec.unpack(((m + lay.bias) ^ lay.bias).to_bytes(lay.nbytes, "big"))


def _checked(m: int, width: int) -> int:
    """m, once its exponents are known to lie in [-2^31, 2^31); each must be
    below 2^63 in size, so that m is the packing of its exponents."""
    lay = _layout(width)
    y = m + lay.low
    if y < 0 or y >= lay.top or y & lay.high:
        raise _out_of_bounds(unpack(m, width))
    return m


def packed_power(width: int, idx: int, e: int) -> int:
    """The packed monomial of variable ``idx`` to the raw exponent e."""
    return e << (SLOT_BITS * (width - 1 - idx))


@lru_cache(maxsize=64)
def _variable_mask(width: int, indices: tuple):
    """(bias, mask, unused) for :meth:`Scalar.uses`: a biased monomial m + bias
    is free of the variables ``indices`` exactly when its bits under
    ``mask``, which covers their slots, are ``unused``."""
    bias = _layout(width).bias
    mask = sum(packed_power(width, idx, _SLOT_MASK) for idx in indices)
    return bias, mask, bias & mask


def _degree(m: int) -> int:
    """The total degree: 2^64 is 1 modulo 2^64 - 1, so a packed monomial is
    its exponent sum there, and that sum is far below 2^63."""
    s = m % _SLOT_MASK
    return s - _SLOT_MASK if s >= _SLOT_TOP else s


class VariableTable:
    """Canonical, totally ordered variable layout for a rank-k model with n matter rows.

    ``labels`` holds, per variable index, the pair ``(var_label(idx),
    is_half_variable(idx))``, built once for the renderer; ``strings`` the
    text of each packed monomial (:meth:`packed_str`), and ``binomials`` of
    each ``(1 - g)``, the two memos of rendering (ROADMAP item 6 lists what
    each saves).  The table holds no ring map.
    """

    __slots__ = ("n", "k", "width", "labels", "strings", "binomials")

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.width = 2 + n + 2 * k
        self.labels = tuple((self.var_label(i), self.is_half_variable(i))
                            for i in range(self.width))
        self.strings, self.binomials = {0: "1"}, {}

    def packed_str(self, m: int) -> str:
        """The text of a packed monomial, remembered per table: the text of
        its first nonzero slot (:meth:`power_str`), then that of the rest."""
        got = self.strings.get(m)
        if got is None:
            # that slot is bit_length(|m|) // 64 from the end, and its exponent
            # is m over its weight, rounded: later slots add under half of that
            shift = SLOT_BITS * (abs(m).bit_length() // SLOT_BITS)
            e = (m + ((1 << shift) >> 1)) >> shift
            key = (self.width - 1 - shift // SLOT_BITS, e)
            text = self.power_str(*key)
            rest = m - (e << shift)
            got = self.strings[m] = text + "*" + self.packed_str(rest) if rest else text
        return got

    def power_str(self, idx: int, e: int) -> str:
        """The text of variable ``idx`` to the raw exponent e."""
        label, half = self.labels[idx]
        if half and e % 2:
            return "%s^(%d/2)" % (label, e)
        p = e // 2 if half else e
        return label if p == 1 else "%s^%d" % (label, p)

    def a(self, i: int) -> int:
        """Index of the flavor variable a_{i+1} (0-based i)."""
        return 2 + i

    def s(self, j: int) -> int:
        """Index of the gauge variable s_{j+1} (0-based j)."""
        return 2 + self.n + j

    def qvar(self, j: int) -> int:
        """Index of the Kahler half-power variable Q_{j+1}^(1/2) (0-based j)."""
        return 2 + self.n + self.k + j

    def kahler(self, d, step: int = 1) -> int:
        """The packed monomial with raw exponent step * d_j at each Q_j^(1/2)."""
        return sum(packed_power(self.width, self.qvar(j), step * dj) for j, dj in enumerate(d))

    def unit(self) -> tuple:
        return (0,) * self.width

    def mono(self, entries: dict) -> tuple:
        m = [0] * self.width
        for idx, e in entries.items():
            m[idx] = e
        return tuple(m)

    def packed(self, entries: dict) -> int:
        """:meth:`mono` as a packed monomial."""
        return pack(self.mono(entries))

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


# -- exponent tuples: the public face ----------------------------------------

def mono_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(add, m1, m2))


def q_shifted(m: tuple, k: int) -> tuple:
    """The monomial q^k * m."""
    if k == 0:
        return m
    out = list(m)
    out[Q_HALF] += 2 * k
    return tuple(out)


class RingMap:
    """The monomial ring map ``{variable index: image monomial}`` from a ring
    of ``source`` variables (by default ``width``) into one of ``width``,
    remembering what it has mapped.

    The images may be given as tuples or packed; ``images`` holds them
    packed.  ``mono(m)`` memoizes the image of each packed monomial, and
    ``root(g)`` is the direction ``(u, p)`` of the image of the atom root g
    (the image is ``u^p`` with u primitive), or None when that image is 1,
    found from ``mono(g)`` on each call: a memo of the directions saved no
    measurable time.  Build one map per point and apply it again and again;
    the memo only grows with the monomials it has seen, and ``images`` must
    not change after construction.
    """

    __slots__ = ("images", "width", "source", "_moves", "_monos")

    def __init__(self, images: dict, width: int, source: int | None = None):
        self.images = {idx: pack(m) if type(m) is tuple else m for idx, m in images.items()}
        self.width = width
        self.source = width if source is None else source
        # within one ring, per mapped variable, what its image adds to a
        # monomial per unit of exponent, and the largest exponent of that
        self._moves = None
        if self.source == width:
            self._moves = [(idx, move, max(map(abs, unpack(move, width))))
                           for idx, move in ((idx, img - packed_power(width, idx, 1))
                                             for idx, img in self.images.items())]
        self._monos = {}

    def mono(self, m: int) -> int:
        got = self._monos.get(m)
        if got is None:
            got = self._monos[m] = self._image(m)
        return got

    def _image(self, m: int) -> int:
        """The image: within one ring, m plus the moves of its mapped
        exponents, when they move no slot by 2^62 or more (the exponents of
        m are below 2^62 in size); otherwise from the unpacked exponents."""
        if not m:
            return 0
        e = unpack(m, self.source)
        if self._moves is not None:
            out, size = m, 0
            for idx, move, largest in self._moves:
                ei = e[idx]
                if ei:
                    out += ei * move
                    size += abs(ei) * largest
            if size < _SLOT_TOP >> 1:
                return _checked(out, self.width)
        out = list(e) + [0] * (self.width - self.source)
        for idx, img in self.images.items():
            ei = e[idx]
            if ei:
                out[idx] -= ei
                for t, x in enumerate(unpack(img, self.width)):
                    out[t] += ei * x
        if any(out[self.width:]):
            raise ValueError("a variable outside the target ring is not mapped")
        return pack(tuple(out[:self.width]))

    def root(self, g: int):
        return _direction(self.mono(g), self.width)


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


def _accumulate(terms: dict, items) -> dict:
    """terms, with each (packed monomial, coefficient) pair of ``items``
    added in place; a monomial whose sum is zero is left out."""
    for m, c in items:
        acc = terms.get(m)
        nc = c if acc is None else acc + c
        if nc:
            terms[m] = nc
        elif acc is not None:
            del terms[m]
    return _exact_terms(terms)


def _atom_key(gm):
    """Graded-lex key of a pair whose first entry is a packed monomial."""
    return (_degree(gm[0]), gm[0])


def _poly(width: int, terms: dict) -> "Poly":
    """A Poly of packed terms, without looking at their keys."""
    p = object.__new__(Poly)
    p.w = width
    p.terms = terms
    return p


class Poly:
    """Sparse Laurent polynomial: packed monomial -> nonzero coefficient, an
    ``int`` when integral, otherwise a ``Fraction``; never a float.

    The constructor also takes ``{exponent tuple: coefficient}``;
    :meth:`tuple_terms` is that view of ``terms``."""

    __slots__ = ("w", "terms")

    def __init__(self, width: int, terms: dict | None = None):
        self.w = width
        if terms and type(next(iter(terms))) is tuple:
            terms = {pack(m): c for m, c in terms.items()}
        self.terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "Poly":
        return _poly(width, {})

    @classmethod
    def one(cls, width: int) -> "Poly":
        return _poly(width, {0: 1})

    @classmethod
    def monomial(cls, m: tuple, coeff=1) -> "Poly":
        c = exact_coeff(coeff)
        if c == 0:
            return cls.zero(len(m))
        return _poly(len(m), {pack(m): c})

    @classmethod
    def from_terms(cls, width: int, items) -> "Poly":
        """The sum of the (exponent tuple, coefficient) pairs."""
        return _poly(width, _accumulate({}, ((pack(m), exact_coeff(c)) for m, c in items)))

    def tuple_terms(self) -> dict:
        """``{exponent tuple: coefficient}``."""
        return {unpack(m, self.w): c for m, c in self.terms.items()}

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
        return _poly(self.w, _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Poly":
        return _poly(self.w, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.w)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        rows = iter(small.items())
        m2, c2 = next(rows)
        # the products with one term of the smaller factor are distinct
        terms = {m1 + m2: c1 * c2 for m1, c1 in big.items()}
        get = terms.get
        for m2, c2 in rows:
            for m1, c1 in big.items():
                m = m1 + m2
                acc = get(m)
                if acc is None:
                    terms[m] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        terms[m] = acc
                    else:
                        del terms[m]
        return _poly(self.w, _exact_terms(terms))

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
        return _poly(self.w, _exact_terms({m: cc * c for m, cc in self.terms.items()}))

    def mul_mono(self, m: int) -> "Poly":
        """The product with the packed monomial m."""
        if not m:
            return self
        return _poly(self.w, {t + m: c for t, c in self.terms.items()})

    # -- structure -----------------------------------------------------

    def content_mono(self) -> int:
        """Componentwise minimum exponent over all terms (unit for zero)."""
        if len(self.terms) < 2:
            return next(iter(self.terms), 0)
        lay = _layout(self.w)
        codec, bias, nbytes = lay.codec, lay.bias, lay.nbytes
        lo = map(min, *[codec.unpack(((m + bias) ^ bias).to_bytes(nbytes, "big"))
                        for m in self.terms])
        return (int.from_bytes(codec.pack(*lo), "big") ^ bias) - bias

    def _chains(self, r: int):
        """The terms split into chains ``m + k*r``, as ``{base: {k: coefficient}}``
        with k read off the pivot slot (the first nonzero exponent of r, which
        is positive); None when some chain has one term, as then no
        binomial or cyclotomic factor in r divides.  The split stops once
        there are more chains than half the terms."""
        w = self.w
        rt = unpack(r, w)
        piv = next(i for i, e in enumerate(rt) if e)
        rp = rt[piv]
        shift = SLOT_BITS * (w - 1 - piv)
        # with the slots below the pivot made unsigned, the pivot slot holds
        # its own exponent, with no borrow from below
        below = _layout(w).bias & ((1 << shift) - 1)
        most = len(self.terms) // 2
        chains = {}
        for m, c in self.terms.items():
            k = (m + below) >> shift
            if piv:
                # the slots above the pivot are cut off
                k = (k & _SLOT_MASK ^ _SLOT_TOP) - _SLOT_TOP
            if rp != 1:
                k //= rp
            if k:
                if not -EXPONENT_BOUND <= k < EXPONENT_BOUND:
                    raise ExponentOverflowError(piv, k * rp)
                m -= k * r
            chain = chains.get(m)
            if chain is None:
                if len(chains) == most:
                    return None
                chains[m] = {k: c}
            else:
                chain[k] = c
        if any(len(chain) < 2 for chain in chains.values()):
            return None
        return chains

    def exact_div(self, r: int, d: int = 1, chains=None):
        """Exact quotient by the atom factor ``psi_d(r)``, or None.

        ``r`` is primitive with its first nonzero exponent positive, and
        ``chains`` is :meth:`_chains` of r when the caller has it already.
        Each chain is a Laurent polynomial in r and is divided on its own.
        """
        if chains is None:
            chains = self._chains(r)
            if chains is None:
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
                    quot[base + j * r] = c
        return _poly(self.w, _exact_terms(quot))

    def __repr__(self):
        return "Poly(%r)" % (self.tuple_terms(),)


def _direction(g: int, width: int):
    """(r, n) with g = r^n, r primitive and its first nonzero exponent
    positive; r is g itself when g already is such a root.  The sign of the
    first nonzero exponent is the sign of g.  None for the unit g = 1."""
    if not g:
        return None
    n = gcd(*unpack(g, width))
    if g < 0:
        return -g // n, -n
    if n == 1:
        return g, 1
    return g // n, n


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


def _atom_poly(r: int, d: int, width: int) -> Poly:
    """psi_d(r) as a Laurent polynomial."""
    return _poly(width, {k * r: c for k, c in enumerate(_psi(d)) if c})


@lru_cache(maxsize=256)
def _psi_image(d: int, p: int):
    """The e with psi_d(x^p) = prod psi_e(x), for p > 0: x^p has order d
    exactly when x has an order e with e / gcd(e, p) = d."""
    return [e for e in _divisors(d * p) if e // gcd(e, p) == d]


def _pole(g: int, width: int) -> PoleEvaluationError:
    """The error for a denominator atom with root g whose value is 1."""
    atom = unpack(g, width)
    return PoleEvaluationError("pole at evaluation point: atom (1 - %r) vanishes" % (atom,),
                               atom=atom)


class RootMemo(dict):
    """The identity's root memo: ``memo[g]`` is :func:`_direction` of g,
    found on the first lookup and kept (None for the unit)."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        self.width = width

    def __missing__(self, g):
        got = self[g] = _direction(g, self.width)
        return got


def _mapped_keys(atoms, root, width: int):
    """(coefficient, monomial, keys) with prod psi_d(g)^(-mult) over the pairs
    ``((g, d), mult)`` in ``atoms``, g of a ring of ``width`` variables sent
    by a map, equal to coefficient * monomial * prod over the canonical keys;
    a binomial (1 - g) is the atom (g, 1).  A key whose multiplicities cancel
    is left out.  ``root(g)`` is the direction (u, p) of the image u^p of g,
    u primitive, or None when the image is 1: :meth:`RingMap.root`, a
    :class:`RootMemo` lookup for the identity, or the q-shift's lookup of its
    image.  psi_d(1) is a number, zero only for d = 1: a denominator pair
    there is a :class:`PoleEvaluationError` naming g, whatever cancels it,
    and a numerator pair makes the coefficient 0.
    """
    coeff, pre, keys, vanished = 1, 0, {}, False
    get = keys.get
    for (g, d), mult in atoms:
        if not mult:
            continue
        direction = root(g)
        if direction is None:
            if d > 1:
                # psi_d(1) is the prime l for d a power of l, else 1
                coeff = exact_coeff(coeff * Fraction(sum(_psi(d))) ** -mult)
            elif mult > 0:
                raise _pole(g, width)
            else:
                vanished = True
            continue
        u, p = direction
        if d == 1 and (p == 1 or p == -1):
            # a binomial with a primitive image: one key, and
            # psi_1(u^-1) = -u^-1 psi_1(u)
            if p < 0:
                pre += u * mult
                if mult % 2:
                    coeff = -coeff
            k = (u, 1)
            keys[k] = get(k, 0) + mult
            continue
        if p < 0:
            # psi_d(x^-1) = -x^-1 psi_1(x) for d = 1, x^-phi(d) psi_d(x) otherwise
            p = -p
            pre += u * (p * (len(_psi(d)) - 1) * mult)
            if d == 1 and mult % 2:
                coeff = -coeff
        for e in (d,) if p == 1 else _psi_image(d, p):
            k = (u, e)
            keys[k] = get(k, 0) + mult
    return (0 if vanished else coeff), pre, {k: m for k, m in keys.items() if m}


class SumInverseError(ArithmeticError):
    """The inverse of a value whose sum part is not a monomial.

    Such an inverse is not a product of atoms, and no workload needs one.
    """


class Scalar:
    """Factored rational function; see the module docstring for the shape.

    ``pre`` is the packed prefactor and ``atoms`` maps a key ``(r, d)``,
    standing for ``psi_d(r)`` with r packed, to its signed multiplicity;
    :meth:`tuple_atoms` is the tuple view of ``atoms``.
    Construction normalizes: a denominator atom divides the sum part when it
    can, sum part content moves to the prefactor, and a zero numerator
    collapses the value to canonical zero.
    """

    __slots__ = ("w", "num", "pre", "atoms")

    def __init__(self, width, num: Poly, pre=None, atoms: dict | None = None):
        """``pre`` is a monomial and ``atoms`` are binomials ``{g: mult}``,
        the factor (1 - g)^(-mult), each monomial an exponent tuple or packed;
        :func:`_mapped_keys` converts the binomials to cyclotomic keys, and
        :meth:`_of` normalizes the result against ``num``."""
        if type(pre) is tuple:
            pre = pack(pre)
        coeff, unit, keys = (1, 0, {}) if not atoms else _mapped_keys(
            (((pack(g) if type(g) is tuple else g, 1), m) for g, m in atoms.items()),
            RootMemo(width).__getitem__, width)
        x = Scalar._of(width, num.scale(coeff), unit if pre is None else pre + unit, keys)
        self.w, self.num, self.pre, self.atoms = width, x.num, x.pre, x.atoms

    @classmethod
    def _of(cls, width, num: Poly, pre: int, keys: dict, cancel=None,
            content=True) -> "Scalar":
        """The normal form from cyclotomic keys.  ``cancel`` lists the
        denominator keys that may divide ``num``, by default every one; with
        ``content=False`` the monomial content of ``num`` is the unit until
        a division changes it.

        num is split into chains along a root (:meth:`Poly._chains`) once
        for all the keys of that root, and only when some term differs from
        the first by an integer multiple of the packed root, as a term on
        the first term's chain does."""
        if num.is_zero():
            num, pre, keys, cancel = Poly.zero(width), 0, {}, ()
        elif cancel is None:
            cancel = [k for k, m in keys.items() if m > 0]
        split = {}  # root -> the chains of num along it, or None
        for k in cancel:
            r, d = k
            while keys[k] and len(num.terms) > 1:
                if r not in split:
                    terms = iter(num.terms)
                    first = next(terms)
                    split[r] = num._chains(r) if any(not (m - first) % r for m in terms) \
                        else None
                q = None if split[r] is None else num.exact_div(r, d, split[r])
                if q is None:
                    break
                num, split, content = q, {}, True
                keys[k] -= 1
        cm = num.content_mono() if content else 0
        if cm:
            num = num.mul_mono(-cm)
            pre += cm
        return cls._raw(width, num, pre, {k: m for k, m in keys.items() if m})

    @classmethod
    def _raw(cls, width, num: Poly, pre: int, keys: dict) -> "Scalar":
        """Fields that are already in normal form."""
        x = object.__new__(cls)
        x.w, x.num, x.pre, x.atoms = width, num, pre, keys
        return x

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "Scalar":
        return cls._raw(width, Poly.zero(width), 0, {})

    @classmethod
    def one(cls, width: int) -> "Scalar":
        return cls._raw(width, Poly.one(width), 0, {})

    @classmethod
    def from_poly(cls, p: Poly) -> "Scalar":
        return cls(p.w, p)

    @classmethod
    def monomial(cls, m: tuple, coeff=1) -> "Scalar":
        return cls(len(m), Poly.monomial((0,) * len(m), coeff), pre=m)

    # -- tuple views -----------------------------------------------------

    def tuple_atoms(self) -> dict:
        """``{(root exponent tuple, d): multiplicity}``."""
        return {(unpack(r, self.w), d): m for (r, d), m in self.atoms.items()}

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
        lhs, rhs = self.num.mul_mono(self.pre - other.pre), other.num
        for k in {**self.atoms, **other.atoms}:
            e = self.atoms.get(k, 0) - other.atoms.get(k, 0)
            if e > 0:
                rhs = rhs * _atom_poly(*k, self.w) ** e
            elif e < 0:
                lhs = lhs * _atom_poly(*k, self.w) ** -e
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
                    part = part * _atom_poly(*k, self.w) ** (mult - x.atoms.get(k, 0))
            num = num + part
        # a denominator key only one summand reaches multiplies the other
        # summand's part, and no denominator key divides a sum part in normal
        # form: the key does not divide the sum, so only shared keys may cancel
        cancel = [k for k, m in keys.items()
                  if m > 0 and self.atoms.get(k, 0) == other.atoms.get(k, 0)]
        return Scalar._of(self.w, num, 0, keys, cancel)

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.w, -self.num, self.pre, self.atoms)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = self.num.terms, other.num.terms
        # values are immutable, so the unit times x is x itself
        if not other.pre and not other.atoms and b == _UNIT_TERMS:
            return self
        if not self.pre and not self.atoms and a == _UNIT_TERMS:
            return other
        if not a or not b:
            return Scalar.zero(self.w)
        sa, oa = self.atoms, other.atoms
        keys = dict(sa)
        for k, mult in oa.items():
            e = keys.get(k, 0) + mult
            if e:
                keys[k] = e
            else:
                del keys[k]
        pre = self.pre + other.pre
        if len(a) == 1 and len(b) == 1:
            # both sum parts are the constant term: a product of atoms again
            (c1,), (c2,) = a.values(), b.values()
            return Scalar._raw(self.w, _poly(self.w, {0: exact_coeff(c1 * c2)}), pre, keys)
        # a sum part in normal form has the unit as content, and none of its
        # own denominator keys divides it; psi_d(r) divides a product only
        # through a factor
        if len(a) > 1 and len(b) > 1:
            cancel = [k for k, m in keys.items()
                      if m > 0 and min(sa.get(k, 0), oa.get(k, 0)) <= 0]
            return Scalar._of(self.w, self.num * other.num, pre, keys, cancel, content=False)
        x, y = (self, other) if len(b) == 1 else (other, self)
        cancel = [k for k, m in y.atoms.items()
                  if m > 0 and x.atoms.get(k, 0) <= 0 and keys.get(k, 0) > 0]
        (c,) = y.num.terms.values()
        return Scalar._of(self.w, x.num.scale(c), pre, keys, cancel, content=False)

    def mul_mono(self, m: int) -> "Scalar":
        """The product with the packed monomial m; only the prefactor changes."""
        if not m or self.is_zero():
            return self
        return Scalar._raw(self.w, self.num, self.pre + m, self.atoms)

    def inv(self) -> "Scalar":
        """The inverse of a nonzero value whose sum part is a monomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if not self.num.is_monomial():
            raise SumInverseError("inverse of a value with a %d-term sum part"
                                  % len(self.num.terms))
        (u, c), = self.num.terms.items()
        return Scalar._raw(self.w, _poly(self.w, {u: exact_coeff(Fraction(1, c))}),
                           -self.pre, {k: -m for k, m in self.atoms.items()})

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
        ring = images if isinstance(images, RingMap) else RingMap(images, target_width, self.w)
        return self._image(ring.width, ring.mono,
                           _mapped_keys(self.atoms.items(), ring.root, ring.source))

    def _image(self, width: int, mono, mapped) -> "Scalar":
        """Each monomial of the prefactor and sum part sent to ``mono`` of it,
        and the atoms' images converted to ``mapped`` (:func:`_mapped_keys`)."""
        coeff, unit, keys = mapped
        if coeff == 0:
            return Scalar.zero(width)
        pre = mono(self.pre) + unit
        terms = self.num.terms
        if len(terms) == 1:
            # the constant term of a product of atoms, which no key divides
            (c,) = terms.values()
            return Scalar._raw(width, _poly(width, {0: exact_coeff(c * coeff)}), pre, keys)
        num = _poly(width, _accumulate({}, zip(map(mono, terms), terms.values())))
        return Scalar._of(width, num.scale(coeff), pre, keys)

    def uses(self, indices) -> bool:
        """Whether a variable of the sequence ``indices`` occurs in the
        prefactor, the sum part or an atom root; stops at the first hit."""
        bias, mask, unused = _variable_mask(self.w, tuple(indices))
        if (self.pre + bias) & mask != unused:
            return True
        for m in self.num.terms:
            if (m + bias) & mask != unused:
                return True
        for r, _ in self.atoms:
            if (r + bias) & mask != unused:
                return True
        return False

    def __repr__(self):
        return "Scalar(num=%r, pre=%r, atoms=%r)" % (
            self.num.tuple_terms(), unpack(self.pre, self.w), self.tuple_atoms())


def specialize_q1(x: Scalar, table: VariableTable) -> Scalar:
    """Set q^(1/2) -> 1 (the commutative limit of the convolution product)."""
    return x.subs(RingMap({Q_HALF: 0}, table.width))


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------

def _term_str(table: VariableTable, m: int, c) -> str:
    mstr = table.packed_str(m)
    if mstr == "1":
        return str(c)
    if c == 1:
        return mstr
    if c == -1:
        return "-" + mstr
    return "%s*%s" % (c, mstr)


def poly_str(table: VariableTable, p: Poly) -> str:
    """The terms in graded-lex order; no term's text has a space, so " + -"
    only joins a negative term."""
    text = " + ".join([_term_str(table, m, c)
                       for m, c in sorted(p.terms.items(), key=_atom_key)])
    return text.replace(" + -", " - ") or "0"


def atom_str(table: VariableTable, g: int, mult: int = 1) -> str:
    """The binomial (1 - g)^mult, g packed."""
    body = table.binomials.get(g)
    if body is None:
        body = table.binomials[g] = "(1 - %s)" % table.packed_str(g)
    return body if mult == 1 else "%s^%d" % (body, mult)


def _orient_factor(g: int, mult: int):
    """Canonical orientation of a binomial factor (1 - g)^mult, g packed.

    Prefers the representative with positive total degree, then the
    lexicographically smaller exponent vector (g < g^-1 exactly when g is a
    negative int); returns (degree of g', g', unit monomial, sign) with
    (1 - g)^mult = sign * unit * (1 - g')^mult.
    """
    total = _degree(g)
    if total > 0 or (total == 0 and g < 0):
        return total, g, 0, 1
    # (1 - g) = (-g) (1 - g^{-1})
    return -total, -g, g * mult, -1 if mult % 2 else 1


def _binomials(x: Scalar) -> dict:
    """The atoms regrouped into binomials ``{r^n: mult}``, packed, the factor
    (1 - r^n)^(-mult).  A root whose only key has d = 1 is its own binomial;
    the keys of a root with some d > 1 are taken largest n first, which
    inverts 1 - r^n = prod_{d|n} psi_d(r)."""
    split = {r for r, d in x.atoms if d > 1}
    out, by_root = {}, {}
    for (r, d), mult in x.atoms.items():
        if r in split:
            by_root.setdefault(r, {})[d] = mult
        else:
            out[r] = mult
    for r, mults in by_root.items():
        while mults:
            n = max(mults)
            c = out[n * r] = mults[n]
            for d in _divisors(n):
                left = mults.get(d, 0) - c
                if left:
                    mults[d] = left
                else:
                    mults.pop(d, None)
    return out


def _factored(x: Scalar):
    """(head, sign, binomials) with x = sign * head * x.num * prod (1 - g)^(-mult)
    over the binomials, a list of (degree of g, g, mult) in graded-lex order,
    each g oriented by :func:`_orient_factor`; monomials packed."""
    head, sign, out = x.pre, 1, []
    for g, mult in _binomials(x).items():
        deg, g, unit, s = _orient_factor(g, -mult)
        head, sign = head + unit, sign * s
        out.append((deg, g, mult))
    out.sort()
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
    parts += [atom_str(table, g, -mult) for _, g, mult in atoms if mult < 0]
    denom = [atom_str(table, g, mult) for _, g, mult in atoms if mult > 0]
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
    w = x.w
    head, sign, atoms = _factored(x)
    return {
        "pre": list(unpack(head, w)),
        "num": [[str(sign * c), list(unpack(m, w))]
                for m, c in sorted(x.num.terms.items(), key=_atom_key)],
        "atoms": [[list(unpack(g, w)), mult] for _, g, mult in atoms],
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
