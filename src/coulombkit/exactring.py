"""Exact arithmetic layer: Laurent polynomials and factored rational scalars.

Values live in a Laurent ring whose variables are, in canonical order,

    q^(1/2) < h^(1/2) < a_1 < ... < a_n < s_1 < ... < s_k < Q_1^(1/2) < ... < Q_k^(1/2)

where h denotes the symplectic weight hbar.  Half-integer powers of q, h and
Q are encoded as integer exponents on the square-root base variables, so an
exponent vector is always an integer tuple; printed output rewrites even
exponents as integer powers of q, h, Q.

A :class:`Scalar` is a rational function kept in the factored shape

    prefactor * sum_part * prod_g (1 - g)^(-atoms[g]) / general_denominator

where the prefactor is a single monomial, each atom ``(1 - g)`` is recorded
by its monomial ``g != 1`` with a signed multiplicity (positive: a
denominator factor, negative: a numerator factor), the sum part is an
expanded Laurent polynomial with ``Fraction`` coefficients that only
additions create (it is usually 1), and the optional general denominator
is the inverse of a sum part.

No multivariate gcd is ever computed.  Multiplying adds the atom dicts and
inverting negates them.  Construction keeps one normal form: no
denominator atom divides the numerator.  A denominator atom ``(1 - g)``
cancels a numerator atom ``(1 - g^k)``, k != 0, leaving the geometric sum
``(1 - g^k) / (1 - g)`` in the sum part, and otherwise divides only the sum
part, by summing along chains ``m + k*g``.  Monomial content moves to the
prefactor.  Equality is cross-multiplication after cancelling the atoms,
and a general denominator, that both sides share.  Rendering prints this
stored shape, text and structured alike; nothing is multiplied out to print.
All values are immutable after construction.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd


Q_HALF = 0
HBAR_HALF = 1


class PoleEvaluationError(ArithmeticError):
    """A substitution made a denominator factor vanish with no cancellation.

    ``atom`` is the exponent vector g of the vanishing factor (1 - g), or None
    when the general denominator vanished.
    """

    def __init__(self, message: str, atom: tuple | None = None):
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
    return tuple(a + b for a, b in zip(m1, m2))


def mono_div(m1: tuple, m2: tuple) -> tuple:
    return tuple(a - b for a, b in zip(m1, m2))


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


def q_shifted(m: tuple, k: int) -> tuple:
    """The monomial q^k * m."""
    if k == 0:
        return m
    out = list(m)
    out[Q_HALF] += 2 * k
    return tuple(out)


def _grkey(m: tuple):
    return (sum(m), m)


def _atom_key(gm):
    """Graded-lex key of an (atom, multiplicity) pair."""
    return _grkey(gm[0])


class Poly:
    """Sparse Laurent polynomial: exponent tuple -> nonzero Fraction."""

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
        return cls(width, {(0,) * width: Fraction(1)})

    @classmethod
    def monomial(cls, m: tuple, coeff=1) -> "Poly":
        c = Fraction(coeff)
        if c == 0:
            return cls.zero(len(m))
        return cls(len(m), {m: c})

    @classmethod
    def from_terms(cls, width: int, items) -> "Poly":
        terms = {}
        for m, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            acc = terms.get(m)
            nc = c if acc is None else acc + c
            if nc:
                terms[m] = nc
            elif acc is not None:
                del terms[m]
        return cls(width, terms)

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
        return Poly(self.w, terms)

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
        return Poly(self.w, terms)

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
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.w)
        return Poly(self.w, {m: cc * c for m, cc in self.terms.items()})

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

    def vars_used(self):
        used = set()
        for m in self.terms:
            for idx, e in enumerate(m):
                if e:
                    used.add(idx)
        return used

    def subs(self, images: dict, target_width: int) -> "Poly":
        terms = {}
        for m, c in self.terms.items():
            im = mono_subs(m, images, target_width)
            acc = terms.get(im)
            nc = c if acc is None else acc + c
            if nc:
                terms[im] = nc
            elif acc is not None:
                del terms[im]
        return Poly(target_width, terms)

    def exact_div(self, d: "Poly"):
        """Exact quotient self/d as a Laurent polynomial, or None.

        ``1 - g`` divides when every chain ``m + k*g`` of terms sums to zero,
        with the partial sums as quotient.  Otherwise both operands are shifted
        to honest polynomials by content extraction; the greedy leading-term
        loop then ends because graded-lex well-orders nonnegative exponents.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly.zero(self.w)
        if len(d.terms) == 2 and d.terms.get((0,) * d.w) == 1 and -1 in d.terms.values():
            g = next(m for m in d.terms if any(m))
            piv = next(i for i, e in enumerate(g) if e)
            chains = {}
            for m, c in self.terms.items():
                k = m[piv] // g[piv]
                chains.setdefault(tuple([a - k * b for a, b in zip(m, g)]) if k else m, {})[k] = c
            quot = {}
            for base, chain in chains.items():
                ks = sorted(chain)
                s = 0
                for k, k_next in zip(ks, ks[1:]):
                    s += chain[k]
                    if s:
                        for j in range(k, k_next):
                            quot[tuple([a + j * b for a, b in zip(base, g)])] = s
                if s + chain[ks[-1]]:
                    return None
            return Poly(self.w, quot)
        cf = self.content_mono()
        cd = d.content_mono()
        rem = {mono_div(m, cf): c for m, c in self.terms.items()}
        dterms = {mono_div(m, cd): c for m, c in d.terms.items()}
        lt_d = max(dterms, key=_grkey)
        c_d = dterms[lt_d]
        d_rest = [(m, c) for m, c in dterms.items() if m != lt_d]
        quot = {}
        heap = [(-sum(m), tuple(-e for e in m)) for m in rem]
        heapq.heapify(heap)
        while heap:
            ng, nm = heapq.heappop(heap)
            lt_r = tuple(-e for e in nm)
            coeff = rem.get(lt_r)
            if not coeff:
                continue
            qm = mono_div(lt_r, lt_d)
            if any(e < 0 for e in qm):
                return None
            qc = coeff / c_d
            quot[qm] = qc
            del rem[lt_r]
            for m, c in d_rest:
                mm = mono_mul(qm, m)
                acc = rem.get(mm)
                if acc is None:
                    rem[mm] = -qc * c
                    heapq.heappush(heap, (-sum(mm), tuple(-e for e in mm)))
                else:
                    nc = acc - qc * c
                    if nc:
                        rem[mm] = nc
                    else:
                        del rem[mm]
        if rem:
            return None
        shift = mono_div(cf, cd)
        return Poly(self.w, {mono_mul(m, shift): c for m, c in quot.items()})

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
    return Poly(w, {(0,) * w: Fraction(1), g: Fraction(-1)})


def _direction(g: tuple):
    """(r, n) with g = r^n, r primitive and its first nonzero exponent positive."""
    n = gcd(*g)
    if next(e for e in g if e) < 0:
        n = -n
    return tuple(e // n for e in g), n


def _geometric(g: tuple, k: int) -> Poly:
    """(1 - g^k) / (1 - g) for an integer k != 0."""
    if k > 0:
        return Poly(len(g), {mono_pow(g, j): Fraction(1) for j in range(k)})
    return Poly(len(g), {mono_pow(g, j): Fraction(-1) for j in range(k, 0)})


class Scalar:
    """Factored rational function; see the module docstring for the shape.

    Construction normalizes: a denominator atom cancels a numerator atom
    that is a power of it, or else divides the sum part when it can, sum
    part content moves to the prefactor, and a zero numerator collapses the
    value to canonical zero.
    """

    __slots__ = ("w", "num", "pre", "atoms", "gden")

    def __init__(self, width, num: Poly, pre: tuple | None = None,
                 atoms: dict | None = None, gden: Poly | None = None):
        self.w = width
        pre = pre if pre is not None else (0,) * width
        atoms = {g: m for g, m in atoms.items() if m} if atoms else {}
        if num.is_zero() or any(m < 0 and mono_is_unit(g) for g, m in atoms.items()):
            self.num = Poly.zero(width)
            self.pre = (0,) * width
            self.atoms = {}
            self.gden = None
            return
        by_dir = {}
        for h, m in atoms.items():
            if m < 0:
                by_dir.setdefault(_direction(h)[0], []).append(h)
        for g in [g for g, m in atoms.items() if m > 0]:
            if mono_is_unit(g):
                raise ZeroDivisionError("denominator atom (1 - 1) is zero")
            if by_dir:
                # (1 - h) / (1 - g) for h = g^k is a geometric sum: into the sum part
                r, n = _direction(g)
                for h in by_dir.get(r, ()):
                    k, rest = divmod(_direction(h)[1], n)
                    c = min(atoms[g], -atoms[h])
                    if not rest and c > 0:
                        atoms[g] -= c
                        atoms[h] += c
                        num = num * _geometric(g, k) ** c
            while atoms[g] and len(num.terms) >= 2:
                q = num.exact_div(one_minus(g))
                if q is None:
                    break
                num = q
                atoms[g] -= 1
        atoms = {g: m for g, m in atoms.items() if m}
        if gden is not None:
            if gden.is_zero():
                raise ZeroDivisionError("zero general denominator")
            q = num.exact_div(gden)
            if q is not None:
                num = q
                gden = None
            elif gden.is_monomial():
                (m, c), = gden.terms.items()
                num = num.scale(Fraction(1) / c)
                pre = mono_div(pre, m)
                gden = None
        cm = num.content_mono()
        if any(cm):
            num = num.mul_mono(mono_inv(cm))
            pre = mono_mul(pre, cm)
        if gden is not None:
            cg = gden.content_mono()
            if any(cg):
                gden = gden.mul_mono(mono_inv(cg))
                pre = mono_div(pre, cg)
        self.num = num
        self.pre = pre
        self.atoms = atoms
        self.gden = gden

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
        # cross-multiply by what remains of each side's atoms once the shared
        # atoms, and a general denominator both sides carry, are cancelled
        lhs, rhs = self.num.mul_mono(mono_div(self.pre, other.pre)), other.num
        for g in {**self.atoms, **other.atoms}:
            e = self.atoms.get(g, 0) - other.atoms.get(g, 0)
            if e > 0:
                rhs = rhs * one_minus(g) ** e
            elif e < 0:
                lhs = lhs * one_minus(g) ** -e
        if self.gden != other.gden:
            if self.gden is not None:
                rhs = rhs * self.gden
            if other.gden is not None:
                lhs = lhs * other.gden
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
        atoms = {g: max(self.atoms.get(g, 0), other.atoms.get(g, 0))
                 for g in {**self.atoms, **other.atoms}}
        gden = self.gden
        extra_self = Poly.one(self.w)
        extra_other = Poly.one(self.w)
        if self.gden != other.gden:
            if self.gden is not None:
                extra_other = self.gden
            if other.gden is not None:
                extra_self = other.gden
            gden = (self.gden or Poly.one(self.w)) * (other.gden or Poly.one(self.w))
        for g, mult in atoms.items():
            ds = mult - self.atoms.get(g, 0)
            do = mult - other.atoms.get(g, 0)
            if ds:
                extra_self = extra_self * (one_minus(g) ** ds)
            if do:
                extra_other = extra_other * (one_minus(g) ** do)
        num = self.num.mul_mono(self.pre) * extra_self + other.num.mul_mono(other.pre) * extra_other
        return Scalar(self.w, num, atoms=atoms, gden=gden)

    def __neg__(self) -> "Scalar":
        return Scalar(self.w, -self.num, pre=self.pre, atoms=self.atoms, gden=self.gden)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.is_zero() or other.is_zero():
            return Scalar.zero(self.w)
        atoms = dict(self.atoms)
        for g, mult in other.atoms.items():
            atoms[g] = atoms.get(g, 0) + mult
        gden = None
        if self.gden is not None or other.gden is not None:
            gden = (self.gden or Poly.one(self.w)) * (other.gden or Poly.one(self.w))
        return Scalar(self.w, self.num * other.num,
                      pre=mono_mul(self.pre, other.pre), atoms=atoms, gden=gden)

    def scale(self, c) -> "Scalar":
        return Scalar(self.w, self.num.scale(c), pre=self.pre, atoms=self.atoms, gden=self.gden)

    def inv(self) -> "Scalar":
        """The inverse; new denominator atoms (1 - g) are oriented with g above 1
        in graded-lex order, and a sum part becomes the general denominator."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        num = self.gden or Poly.one(self.w)
        pre = mono_inv(self.pre)
        atoms = {}
        unit = _grkey((0,) * self.w)
        for g, mult in self.atoms.items():
            if mult < 0 and _grkey(g) < unit:
                # 1 / (1 - g)^e = (-g^-1)^e / (1 - g^-1)^e
                pre = mono_mul(pre, mono_pow(g, mult))
                num = num.scale(-1 if mult % 2 else 1)
                g = mono_inv(g)
            atoms[g] = atoms.get(g, 0) - mult
        gden = None
        if self.num.is_monomial():
            num = num.scale(Fraction(1) / next(iter(self.num.terms.values())))
        else:
            gden = self.num
        return Scalar(self.w, num, pre=pre, atoms=atoms, gden=gden)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    # -- substitution ------------------------------------------------------

    def subs(self, images: dict, target_width: int) -> "Scalar":
        """Apply the ring map ``{variable index: image monomial}``; absent
        variables are fixed.

        Each atom maps to an atom.  A denominator atom whose image is 1 is a
        :class:`PoleEvaluationError` (the normal form already cancelled
        every atom that divides the numerator); a numerator atom whose image
        is 1 makes the value zero.
        """
        atoms = {}
        vanished = False
        for g, mult in self.atoms.items():
            gm = mono_subs(g, images, target_width)
            if not mono_is_unit(gm):
                atoms[gm] = atoms.get(gm, 0) + mult
            elif mult > 0:
                raise PoleEvaluationError(
                    "pole at evaluation point: atom (1 - %r) vanishes" % (g,), atom=g)
            else:
                vanished = True
        new_gden = None
        if self.gden is not None:
            new_gden = self.gden.subs(images, target_width)
            if new_gden.is_zero():
                raise PoleEvaluationError("pole at evaluation point: general denominator vanishes")
        if vanished:
            return Scalar.zero(target_width)
        new_num = self.num.subs(images, target_width)
        new_pre = mono_subs(self.pre, images, target_width)
        return Scalar(target_width, new_num, pre=new_pre, atoms=atoms, gden=new_gden)

    def q_shift(self, var_idx: int, m: int) -> "Scalar":
        """Replace the variable by q^m * itself (exponent e adds 2*m*e to q^(1/2))."""
        if m == 0:
            return self
        var = tuple(int(t == var_idx) for t in range(self.w))
        return self.subs({var_idx: q_shifted(var, m)}, self.w)

    def vars_used(self):
        used = self.num.vars_used()
        for idx, e in enumerate(self.pre):
            if e:
                used.add(idx)
        for g in self.atoms:
            for idx, e in enumerate(g):
                if e:
                    used.add(idx)
        if self.gden is not None:
            used |= self.gden.vars_used()
        return used

    def __repr__(self):
        return "Scalar(num=%r, pre=%r, atoms=%r, gden=%r)" % (
            self.num.terms, self.pre, self.atoms, self.gden)


def substitute_monomials(x: Scalar, table: VariableTable, s_images: dict) -> Scalar:
    """Homomorphic image replacing each gauge variable s_j by a monomial.

    ``s_images`` maps 0-based gauge indices to monomial tuples of the same
    table; every s_j occurring in x must be covered.
    """
    used = x.vars_used()
    for j in range(table.k):
        if table.s(j) in used and j not in s_images:
            raise ValueError("substitution does not cover s%d" % (j + 1))
    return x.subs({table.s(j): m for j, m in s_images.items()}, table.width)


def shift_s_by_degree(x: Scalar, table: VariableTable, dvec) -> Scalar:
    """Shift every gauge variable: s_j -> q^{d_j} s_j."""
    if not any(dvec):
        return x
    return x.subs({table.s(j): q_shifted(table.mono({table.s(j): 1}), dj)
                   for j, dj in enumerate(dvec) if dj}, table.width)


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


def _term_str(table: VariableTable, m: tuple, c: Fraction) -> str:
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


def scalar_str(table: VariableTable, x: Scalar) -> str:
    """Canonical deterministic rendering of a scalar in its stored, factored shape.

    The head monomial with its coefficient, the sum part in parentheses when
    it is not a monomial, the numerator atoms oriented by
    :func:`_orient_factor`, then ``/ ( ... )`` around the denominator atoms
    and ``[general denominator]``.  Nothing is multiplied out.
    """
    if x.is_zero():
        return "0"
    head, sign, numer = x.pre, 1, {}
    for g, mult in x.atoms.items():
        if mult < 0:
            g, unit, s = _orient_factor(g, -mult)
            head, sign = mono_mul(head, unit), sign * s
            numer[g] = numer.get(g, 0) - mult
    if x.num.is_monomial():
        parts = [_term_str(table, head, sign * next(iter(x.num.terms.values())))]
    else:
        head_str = _term_str(table, head, sign)
        parts = [head_str] if head_str != "1" else []
        parts.append("(%s)" % poly_str(table, x.num))
    parts += [atom_str(table, g, mult) for g, mult in sorted(numer.items(), key=_atom_key)]
    denom = [atom_str(table, g, mult) for g, mult in denominator_atoms(x)]
    if x.gden is not None:
        denom.append("[%s]" % poly_str(table, x.gden))
    if denom:
        return "%s / ( %s )" % (" * ".join(parts), " * ".join(denom))
    return " * ".join(parts)


def denominator_atoms(x: Scalar):
    """The denominator atoms (g, multiplicity > 0) in graded-lex order of g."""
    return sorted(((g, m) for g, m in x.atoms.items() if m > 0), key=_atom_key)


# ---------------------------------------------------------------------------
# lossless structured rendering
# ---------------------------------------------------------------------------

def poly_structured(p: Poly):
    return [[str(c), list(m)] for m, c in p.sorted_terms()]

def poly_from_structured(width: int, data) -> Poly:
    return Poly.from_terms(width, ((tuple(m), Fraction(c)) for c, m in data))


def scalar_structured(x: Scalar):
    """The stored fields: prefactor, sum part, and every atom with its signed
    multiplicity (negative: a numerator binomial), in graded-lex order."""
    return {
        "pre": list(x.pre),
        "num": poly_structured(x.num),
        "atoms": [[list(g), mult] for g, mult in sorted(x.atoms.items(), key=_atom_key)],
        "gden": poly_structured(x.gden) if x.gden is not None else None,
    }


def scalar_from_structured(width: int, data) -> Scalar:
    return Scalar(
        width,
        poly_from_structured(width, data["num"]),
        pre=tuple(data["pre"]),
        atoms={tuple(g): mult for g, mult in data["atoms"]},
        gden=poly_from_structured(width, data["gden"]) if data.get("gden") is not None else None,
    )
