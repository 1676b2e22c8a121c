"""Exact reference values in plain ``Fraction`` arithmetic.

Every check here evaluates at one rational point chosen from the seed.  The
point gives each base variable (q^(1/2), h^(1/2), a_i, s_j, Q_j^(1/2)) its
own ratio of two primes, all primes distinct, so the values are
multiplicatively independent: a monomial evaluates to 1 only when it is the
unit monomial.  A factor (1 - m) therefore vanishes at the point exactly when
it vanishes identically, and a nonzero rational function never evaluates to
0 or to a pole by accident.

Exponent vectors use the engine's documented variable order
``q^(1/2) < h^(1/2) < a_1..a_n < s_1..s_k < Q_1^(1/2)..Q_k^(1/2)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

Q_HALF = 0
H_HALF = 1

_PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


class Layout:
    """Variable indices of a model with n rows and rank k."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.width = 2 + n + 2 * k

    def a(self, i: int) -> int:
        return 2 + i

    def s(self, j: int) -> int:
        return 2 + self.n + j

    def qvar(self, j: int) -> int:
        return 2 + self.n + self.k + j

    def mono(self, entries: dict) -> tuple:
        m = [0] * self.width
        for idx, e in entries.items():
            m[idx] += e
        return tuple(m)

    def x_mono(self, i: int, row) -> tuple:
        """a_i * s^{chi_i}."""
        m = [0] * self.width
        m[self.a(i)] = 1
        for j, c in enumerate(row):
            m[self.s(j)] = c
        return tuple(m)


class PoleError(ArithmeticError):
    """The reference value has a pole at the chosen point."""


class Evaluator:
    """Evaluation of monomials and structured scalars at one rational point."""

    def __init__(self, rng, width: int):
        primes = rng.sample(_PRIMES, 2 * width)
        self.point = [Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(width)]
        self._powers = {}

    def with_q_half(self, value) -> "Evaluator":
        """The same point with q^(1/2) replaced by ``value``."""
        other = Evaluator.__new__(Evaluator)
        other.point = [Fraction(value)] + self.point[1:]
        other._powers = {}
        return other

    def mono(self, m) -> Fraction:
        out = Fraction(1)
        powers = self._powers
        for i, e in enumerate(m):
            if e:
                key = (i, e)
                v = powers.get(key)
                if v is None:
                    v = self.point[i] ** e
                    powers[key] = v
                out *= v
        return out

    def poly(self, terms) -> Fraction:
        """Sum of [coefficient string, exponent list] terms."""
        return sum((Fraction(c) * self.mono(m) for c, m in terms), Fraction(0))

    def structured(self, data) -> Fraction:
        """Value of the engine's ``scalar_structured`` form."""
        value = self.poly(data["num"]) * self.mono(data["pre"])
        for g, mult in data["atoms"]:
            value /= (1 - self.mono(g)) ** mult
        if data.get("gden") is not None:
            value /= self.poly(data["gden"])
        return value


# ---------------------------------------------------------------------------
# closed products
# ---------------------------------------------------------------------------

def q_shift(m, power: int) -> tuple:
    """q^power * m."""
    out = list(m)
    out[Q_HALF] += 2 * power
    return tuple(out)


def h_times(m) -> tuple:
    out = list(m)
    out[H_HALF] += 2
    return tuple(out)


def subs(m, images) -> tuple:
    """Monomial substitution: variable i goes to the monomial images[i]."""
    out = [0] * len(images[0])
    for i, e in enumerate(m):
        if e:
            for t, x in enumerate(images[i]):
                if x:
                    out[t] += e * x
    return tuple(out)


def identity_images(width: int):
    return [tuple(1 if t == i else 0 for t in range(width)) for i in range(width)]


def pair(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


class Product:
    """A product of monomials and (1 - m)^(+-1) factors at one point.

    Factors that vanish identically are counted rather than multiplied, so
    that a zero of the numerator shows as an exact 0 and an uncancelled zero
    of the denominator as a pole.
    """

    __slots__ = ("ev", "value", "zeros")

    def __init__(self, ev: Evaluator):
        self.ev = ev
        self.value = Fraction(1)
        self.zeros = 0

    def times_mono(self, m, coeff=1):
        self.value *= coeff * self.ev.mono(m)

    def times_one_minus(self, m, power: int):
        if not any(m):
            self.zeros += power
            return
        f = 1 - self.ev.mono(m)
        self.value = self.value * f if power > 0 else self.value / f

    def result(self) -> Fraction:
        if self.zeros > 0:
            return Fraction(0)
        if self.zeros < 0:
            raise PoleError("uncancelled vanishing denominator factor")
        return self.value


def times_hq_ratio(prod: Product, x, d: int, invert: bool = False):
    """Multiply by (-q^(1/2) h^(-1/2))^d (h x; q)_d / (q x; q)_d, or its inverse.

    Finite Pochhammer convention: (y; q)_d = prod_{m<d} (1 - q^m y) for d >= 0
    and 1 / prod_{m=1..-d} (1 - q^{-m} y) for d < 0.
    """
    sign = 1 if invert else -1
    kernel = [0] * len(x)
    kernel[Q_HALF] = d
    kernel[H_HALF] = -d
    if invert:
        kernel = [-e for e in kernel]
    prod.times_mono(tuple(kernel), Fraction(-1) ** d)
    if d >= 0:
        nums = [q_shift(h_times(x), m) for m in range(d)]
        dens = [q_shift(x, m) for m in range(1, d + 1)]
    else:
        nums = [q_shift(x, 1 - m) for m in range(1, -d + 1)]
        dens = [q_shift(h_times(x), -m) for m in range(1, -d + 1)]
    for m in nums:
        prod.times_one_minus(m, -sign)
    for m in dens:
        prod.times_one_minus(m, sign)


def _epsilon(c: int) -> int:
    return (c > 0) - (c < 0)


def _delta(c: int, d: int) -> int:
    return min(abs(c), abs(d)) if c * d < 0 else 0


def structure_constant(ev: Evaluator, layout: Layout, chi, c, d, s_shift=None) -> Fraction:
    """gamma with r_c r_d = gamma r_{c+d} in the canonical polarization.

    ``s_shift`` evaluates with every s_j replaced by q^{s_shift_j} s_j, which
    is how a coefficient moved across a generator is seen.
    """
    prod = Product(ev)
    for i, row in enumerate(chi):
        ci = pair(row, c)
        length = _epsilon(ci) * _delta(ci, pair(row, d))
        if length == 0:
            continue
        x = layout.x_mono(i, row)
        if s_shift is not None:
            x = q_shift(x, pair(row, s_shift))
        times_hq_ratio(prod, q_shift(x, -ci), length, invert=ci > 0)
    return prod.result()


def point_images(layout: Layout, restriction: dict, aspec: dict | None):
    """Images of evaluation at a fixed point, after the flavor specialization."""
    images = identity_images(layout.width)
    for row, mono in (aspec or {}).items():
        images[layout.a(row)] = tuple(mono)
    for j, mono in restriction.items():
        images[layout.s(j)] = subs(mono, images)
    return images


def insertion_value(ev: Evaluator, layout: Layout, insertion, d, images) -> Fraction:
    """The descendent with s_j -> q^{d_j} s_j, evaluated at the point."""
    total = Fraction(0)
    for coeff, m in insertion:
        shifted = list(m)
        for j, dj in enumerate(d):
            shifted[Q_HALF] += 2 * dj * m[layout.s(j)]
        total += coeff * ev.mono(subs(tuple(shifted), images))
    return total


def vertex_coefficient(ev: Evaluator, layout: Layout, chi, images, d, insertion,
                       roots=()) -> Fraction:
    """Closed localization product at degree d, evaluated at the point.

    ``roots`` lists the (u, v) pairs of a block model; each contributes the
    inverse kernel of s_u / s_v at length d_u - d_v.
    """
    prod = Product(ev)
    for i, row in enumerate(chi):
        di = pair(row, d)
        if di:
            times_hq_ratio(prod, subs(layout.x_mono(i, row), images), di)
    for u, v in roots:
        m = d[u] - d[v]
        if m:
            root = layout.mono({layout.s(u): 1, layout.s(v): -1})
            times_hq_ratio(prod, subs(root, images), m, invert=True)
    value = prod.result()
    if value == 0:
        return value
    return value * insertion_value(ev, layout, insertion, d, images)


# ---------------------------------------------------------------------------
# factored text, as the bethe renderer prints it
# ---------------------------------------------------------------------------

_VAR = re.compile(r"^([qhasQ])(\d*)(?:\^(?:\((-?\d+)/2\)|(-?\d+)))?$")


def parse_monomial(text: str, layout: Layout):
    """'-3/2*q^(-5/2)*h*a1^-1' -> (Fraction coefficient, exponent tuple)."""
    coeff = Fraction(1)
    if text.startswith("-"):
        coeff = -coeff
        text = text[1:]
    m = [0] * layout.width
    for tok in text.split("*"):
        if re.fullmatch(r"\d+(/\d+)?", tok):
            coeff *= Fraction(tok)
            continue
        got = _VAR.match(tok)
        if not got:
            raise ValueError("cannot parse monomial factor %r" % tok)
        name, index, half, whole = got.groups()
        if name in "qh":
            idx = Q_HALF if name == "q" else H_HALF
        else:
            j = int(index) - 1
            idx = {"a": layout.a, "s": layout.s, "Q": layout.qvar}[name](j)
        half_var = name in "qhQ"
        if half is not None:
            e = int(half)
        else:
            e = int(whole) if whole is not None else 1
            if half_var:
                e *= 2
        m[idx] += e
    return coeff, tuple(m)


def _factor(text: str, layout: Layout):
    got = re.fullmatch(r"\(1 - ([^()]+(?:\([^()]*\)[^()]*)*)\)(?:\^(\d+))?", text)
    if not got:
        raise ValueError("cannot parse factor %r" % text)
    coeff, m = parse_monomial(got.group(1), layout)
    if coeff != 1:
        raise ValueError("factor %r is not of the form (1 - monomial)" % text)
    return m, int(got.group(2) or 1)


def bethe_line_value(ev: Evaluator, layout: Layout, line: str) -> Fraction:
    """Value of the left-hand side of one rendered relation line."""
    body = line.split("]: ", 1)[1].rsplit(" = ", 1)[0]
    if " / ( " in body:
        head, den = body.split(" / ( ", 1)
        if not den.endswith(" )"):
            raise ValueError("unbalanced denominator in %r" % line)
        dens = den[:-2].split(" * ")
    else:
        head, dens = body, []
    parts = head.split(" * ")
    prod = Product(ev)
    coeff, m = parse_monomial(parts[0], layout)
    prod.times_mono(m, coeff)
    for text, power in [(p, 1) for p in parts[1:]] + [(p, -1) for p in dens]:
        g, mult = _factor(text, layout)
        for _ in range(mult):
            prod.times_one_minus(g, power)
    return prod.result()
