"""Lattice combinatorics of the character arrangement.

Everything here is exact: walls, circuits, fixed points, effective cones,
mixed polarizations, degree enumeration and restriction maps are computed
with one fraction-free (Bareiss) integer elimination, ``_eliminate``; no
floating point is used anywhere.  Dimensions are desk scale (n <= 16, k <= 8):
a model is refused when it has more than ``MAX_ROW_SUBSETS`` candidate row
subsets C(n, k), which every loop over supports and walls walks, or a
weight entry above ``MAX_WEIGHT`` in size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, gcd
from operator import mul

from .exactring import HBAR_HALF, VariableTable

# largest number of candidate row subsets C(n, k); C(16, 8) = 12,870 is desk
# scale, and every subset is a determinant to take
MAX_ROW_SUBSETS = 20_000
# largest |chi entry|: a weight is an exponent of a row monomial and scales
# every Pochhammer length, so it stays far inside a packed exponent slot
MAX_WEIGHT = 1 << 10


class ModelError(ValueError):
    """An integer datum violates a structural assumption."""


class ThetaOnWallError(ModelError):
    """The stability vector lies on a wall of the arrangement."""


def pair(chi_row, d) -> int:
    return sum(map(mul, chi_row, d))


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _eliminate(rows):
    """Bareiss (fraction-free) Gauss-Jordan elimination of an integer matrix.

    Returns ``(pivots, mat, det)``: the pivot columns; the reduced matrix, in
    which every pivot row carries the last pivot in its pivot column and
    zeros in the other pivot columns; and the determinant of the columns
    ``pivots`` when the rows are independent, else 0.  Each step divides by
    the previous pivot, which is exact, so every entry stays an integer.
    """
    mat = [list(r) for r in rows]
    pivots = []
    prev, sign = 1, 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        p = mat[r][col]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][col]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], mat[r])]
        prev = p
        pivots.append(col)
    return pivots, mat, sign * prev if len(pivots) == len(mat) else 0


def _rank(rows) -> int:
    return len(_eliminate(rows)[0])


def det_int(rows) -> int:
    return _eliminate(rows)[2]


def primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    return tuple(v // g for v in vec)


def kernel_normal(rows, k):
    """Primitive generator of the 1-dim kernel of <row, .> = 0 (rank k-1 rows),
    positive in its non-pivot coordinate."""
    if k == 1:
        return (1,)
    pivots, mat, _ = _eliminate(rows)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    p = mat[0][pivots[0]]  # every pivot row carries the same pivot entry
    sol = [0] * k
    sol[free] = abs(p)
    for r, col in enumerate(pivots):
        sol[col] = -mat[r][free] if p > 0 else mat[r][free]
    return primitive(sol)


# ---------------------------------------------------------------------------
# model data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeData:
    """Integer model datum: weight rows chi, stability theta, optional GL blocks."""

    n: int
    k: int
    chi: tuple
    theta: tuple
    blocks: tuple | None = None
    labels: tuple | None = None
    a_specialization: dict | None = field(default=None, compare=False)

    @classmethod
    def create(cls, chi, theta, blocks=None, labels=None, a_specialization=None):
        chi = tuple(tuple(int(x) for x in row) for row in chi)
        theta = tuple(int(x) for x in theta)
        n = len(chi)
        k = len(theta)
        for i, row in enumerate(chi):
            if len(row) != k:
                raise ModelError("row chi_%d has length %d, expected %d" % (i + 1, len(row), k))
            if not any(row):
                raise ModelError("row chi_%d is zero" % (i + 1))
            big = next((x for x in row if abs(x) > MAX_WEIGHT), None)
            if big is not None:
                raise ModelError("row chi_%d has the entry %d, above the limit %d"
                                 % (i + 1, big, MAX_WEIGHT))
        subsets = comb(n, k)
        if subsets > MAX_ROW_SUBSETS:
            raise ModelError("the model has C(%d, %d) = %d candidate row subsets, more than "
                             "the limit %d" % (n, k, subsets, MAX_ROW_SUBSETS))
        if _rank(chi) != k:
            raise ModelError("chi has rank %d < %d; the gauge torus does not act with finite kernel"
                             % (_rank(chi), k))
        for subset in itertools.combinations(range(n), k):
            d = det_int([chi[i] for i in subset])
            if d != 0 and abs(d) != 1:
                raise ModelError("subset {%s} non-unimodular (det %d); model rejected as non-smooth"
                                 % (",".join(str(i + 1) for i in subset), d))
        if blocks is not None:
            blocks = tuple(int(b) for b in blocks)
            if sum(blocks) != k or any(b <= 0 for b in blocks):
                raise ModelError("blocks %r do not partition 1..%d" % (blocks, k))
            _check_block_symmetry(chi, theta, blocks)
        data = cls(n=n, k=k, chi=chi, theta=theta, blocks=blocks,
                   labels=tuple(labels) if labels else None,
                   a_specialization=dict(a_specialization) if a_specialization else None)
        circuits(data)  # raises if theta is on a wall
        return data

    def table(self) -> VariableTable:
        return VariableTable(self.n, self.k)

    def block_slices(self):
        if self.blocks is None:
            return [(j, j + 1) for j in range(self.k)]
        out = []
        start = 0
        for b in self.blocks:
            out.append((start, start + b))
            start += b
        return out

    def block_sums(self, d) -> tuple:
        """The per-block totals of a degree vector: its image in the cocharacters
        of the block torus, and ``d`` itself when every block has size 1."""
        return tuple(sum(d[a:b]) for a, b in self.block_slices())

    def pairing(self, i: int, d) -> int:
        return pair(self.chi[i], d)


def _check_block_symmetry(chi, theta, blocks):
    start = 0
    rows = sorted(chi)
    for b in blocks:
        for u in range(start, start + b - 1):
            perm = list(range(len(theta)))
            perm[u], perm[u + 1] = perm[u + 1], perm[u]
            swapped = sorted(tuple(row[p] for p in perm) for row in chi)
            if swapped != rows:
                raise ModelError("rows are not invariant under within-block permutations")
            if theta[u] != theta[u + 1]:
                raise ModelError("theta is not constant on a GL block")
        start += b


@dataclass(frozen=True)
class Circuit:
    """Primitive cowall normal, oriented positively against theta."""

    vector: tuple
    wall_rows: frozenset


@dataclass(frozen=True)
class FixedPoint:
    """Unimodular size-k support with sign split and monomial restriction.

    ``restriction`` maps 0-based gauge indices j to the monomial value of
    s_{j+1} in the flavor variables (and even powers of h^(1/2)); ``rays``
    is the Z-basis of the effective cone of the point.
    """

    support: tuple
    plus: frozenset
    minus: frozenset
    coeffs: tuple
    restriction: dict = field(compare=False)
    rays: tuple = ()

    def label(self) -> str:
        return "p{%s}" % ",".join(str(i + 1) for i in self.support)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with both generator and facet descriptions."""

    generators: tuple
    facet_normals: tuple

    def __post_init__(self):
        for g in self.generators:
            if any(pair(f, g) < 0 for f in self.facet_normals):
                raise ModelError("cone descriptions disagree on generator %r" % (g,))

    def contains(self, d) -> bool:
        return all(pair(f, d) >= 0 for f in self.facet_normals)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def circuits(data: GaugeData):
    """One circuit per wall, signed by theta, deduplicated."""
    k = data.k
    found = {}
    for subset in itertools.combinations(range(data.n), k - 1):
        rows = [data.chi[i] for i in subset]
        rho = kernel_normal(rows, k)
        if rho is None:
            continue
        t = pair(data.theta, rho)
        if t == 0:
            raise ThetaOnWallError(
                "theta lies on wall spanned by {%s}" % ",".join("chi_%d" % (i + 1) for i in subset))
        if t < 0:
            rho = tuple(-x for x in rho)
        if rho not in found:
            wall = frozenset(i for i in range(data.n) if data.pairing(i, rho) == 0)
            found[rho] = Circuit(vector=rho, wall_rows=wall)
    return [found[v] for v in sorted(found)]


def fixed_points(data: GaugeData, table: VariableTable | None = None):
    """All torus-fixed points with sign splits, restriction maps and cone rays."""
    table = table or data.table()
    k = data.k
    out = []
    for subset in itertools.combinations(range(data.n), k):
        rows = [data.chi[i] for i in subset]
        d = det_int(rows)
        if d == 0:
            continue
        if abs(d) != 1:
            raise ModelError("non-unimodular subset {%s} encountered"
                             % ",".join(str(i + 1) for i in subset))
        # theta = sum_j c_j chi_j, then the integer inverse of the rows; each
        # row is divided by its pivot entry (+-1), which row swaps do not
        # flip the way they flip the sign of the determinant
        _, mat, _ = _eliminate([[rows[t][l] for t in range(k)] + [data.theta[l]]
                                for l in range(k)])
        c = [mat[t][k] // mat[t][t] for t in range(k)]
        if any(v == 0 for v in c):
            raise ThetaOnWallError("theta on wall of subset {%s}"
                                   % ",".join(str(i + 1) for i in subset))
        plus = frozenset(subset[t] for t in range(k) if c[t] > 0)
        minus = frozenset(subset[t] for t in range(k) if c[t] < 0)
        _, mat, _ = _eliminate([list(rows[l]) + [int(l == t) for t in range(k)]
                                for l in range(k)])
        binv = [[mat[l][k + t] // mat[l][l] for t in range(k)] for l in range(k)]
        restriction = {}
        for l in range(k):
            mono = [0] * table.width
            for t in range(k):
                mono[table.a(subset[t])] -= binv[l][t]
                if subset[t] in minus:
                    mono[HBAR_HALF] -= 2 * binv[l][t]
            restriction[l] = tuple(mono)
        rays = []
        for t in range(k):
            sign = 1 if subset[t] in plus else -1
            rays.append(tuple(sign * binv[l][t] for l in range(k)))
        out.append(FixedPoint(support=tuple(subset), plus=plus, minus=minus,
                              coeffs=tuple(c), restriction=restriction, rays=tuple(rays)))
    return out


def _facets_from_generators(gens, k):
    if k == 1:
        sign = 1 if gens[0][0] > 0 else -1
        return ((sign,),)
    facets = set()
    for subset in itertools.combinations(range(len(gens)), k - 1):
        rows = [gens[i] for i in subset]
        f = kernel_normal(rows, k)
        if f is None:
            continue
        pos = sum(1 for g in gens if pair(f, g) > 0)
        neg = sum(1 for g in gens if pair(f, g) < 0)
        if neg == 0 and pos > 0:
            facets.add(f)
        elif pos == 0 and neg > 0:
            facets.add(tuple(-x for x in f))
    return tuple(sorted(facets))


def eff_cone(data: GaugeData) -> Cone:
    """The effective cone, generated by the circuits."""
    gens = tuple(c.vector for c in circuits(data))
    return Cone(generators=gens, facet_normals=_facets_from_generators(gens, data.k))


def eff_cone_fp(data: GaugeData, p: FixedPoint) -> Cone:
    """Effective cone of a fixed point: facets from the sign split, rays from the dual basis."""
    facets = tuple(sorted(
        [data.chi[j] for j in sorted(p.plus)]
        + [tuple(-x for x in data.chi[j]) for j in sorted(p.minus)]))
    return Cone(generators=tuple(sorted(p.rays)), facet_normals=facets)


def mixed_polarization(weights, d) -> frozenset:
    """Indices of the weight rows whose pairing with d is nonnegative (ties included)."""
    return frozenset(i for i, row in enumerate(weights) if pair(row, d) >= 0)


def enumerate_degrees(cone: Cone, theta, order: int):
    """Lattice points of the cone with <theta, d> <= order, sorted by (level, lex)."""
    k = len(theta)
    if order < 0:
        return []
    bounds = [0] * k
    for g in cone.generators:
        lg = pair(theta, g)
        if lg <= 0:
            raise ModelError("cone not pointed for grading: generator %r has level %d" % (g, lg))
        for j in range(k):
            b = -(-order * abs(g[j]) // lg)  # ceil
            bounds[j] = max(bounds[j], b)
    out = []
    for d in itertools.product(*[range(-b, b + 1) for b in bounds]):
        lvl = pair(theta, d)
        if 0 <= lvl <= order and cone.contains(d):
            out.append((lvl, d))
    out.sort()
    return [d for _, d in out]


def separating_circuits(data: GaugeData, theta2):
    """Split circuits into those whose wall separates theta from theta2, and the rest."""
    theta2 = tuple(int(x) for x in theta2)
    reversing, kept = [], []
    for c in circuits(data):
        t2 = pair(theta2, c.vector)
        if t2 == 0:
            raise ThetaOnWallError("theta2 on wall with normal %r" % (c.vector,))
        (reversing if t2 < 0 else kept).append(c)
    return reversing, kept
