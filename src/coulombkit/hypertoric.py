"""Lattice combinatorics of the character arrangement.

Everything here is exact integer arithmetic; no floating point is used.
:meth:`GaugeData.create` walks the row subsets once, keeping the cofactor
vector c_S of every (k-1)-subset S of rank k-1, one fraction-free (Bareiss)
elimination, ``_eliminate``, per distinct tuple of row values of S, shared
by the subsets with those rows: <chi_i, c_S> is a k-minor, the circuits are
the primitive c_S signed by theta, and the inverse of a k-subset's rows,
hence each fixed point, is read off the c_S of its faces.
Dimensions are desk scale (n <= 16, k <= 8): a model is refused when it has
more than ``MAX_ROW_SUBSETS`` candidate row subsets C(n, k), which every
loop over supports and walls walks, or a weight entry above ``MAX_WEIGHT``.

The Weyl group of the GL blocks lives on :class:`GaugeData`, all of it read
off one ``_block_slices``; ``create`` checks the model against its swaps.

The records here, ``bethe.Relation`` and ``wallcross.WallCrossScenario`` are
plain immutable classes on one base, ``_Record``: importing the package loads
no standard data-class module, nor the ``inspect`` such a module imports.
"""

from __future__ import annotations

import itertools
from functools import cached_property
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


def primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    return tuple(v // g for v in vec)


def _cofactor(rows, k):
    """The kernel of <row, .> = 0 for k-1 rows of rank k-1 (else None) as the
    integer tuple +- the signed maximal minors of the rows (Bareiss), so that
    <chi, result> is +- the determinant of the rows with chi added."""
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
    return tuple(sol)


# ---------------------------------------------------------------------------
# model data
# ---------------------------------------------------------------------------

class _Record:
    """An immutable record whose ``__init__`` hands every field to ``_set``.
    Records of one class are equal when their fields named in ``_compared``
    are, and hash them once, in ``_set``, as fixed points key the evaluation
    caches; a record with an unhashable field sets ``__hash__ = None``."""

    __slots__ = ("_key", "_hash")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", tuple(map(fields.__getitem__, self._compared)))
        if type(self).__hash__ is not None:
            object.__setattr__(self, "_hash", hash(self._key))

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._compared))

    def __setattr__(self, name, value=None):
        raise AttributeError("%s.%s is read-only" % (type(self).__name__, name))

    __delattr__ = __setattr__


class GaugeData(_Record):
    """Integer model datum: weight rows chi, stability theta, optional GL blocks.
    ``create`` keeps ``cofactors``, c_S for each (k-1)-subset S of rank k-1, the
    circuits, ``walls``, and the model's one variable ``table``, built when the
    caller passes none; ``points`` and ``cone`` are built on first use."""

    _compared = ("n", "k", "chi", "theta", "blocks")

    def __init__(self, n, k, chi, theta, blocks=None, a_specialization=None, cofactors=None,
                 walls=None, table=None):
        self._set(n=n, k=k, chi=chi, theta=theta, blocks=blocks, a_specialization=a_specialization,
                  cofactors=cofactors, walls=walls, table=table)

    @classmethod
    def create(cls, chi, theta, blocks=None, a_specialization=None, table=None):
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
        if not k:
            raise ModelError("theta is empty: the gauge torus has rank 0")
        subsets = comb(n, k)
        if subsets > MAX_ROW_SUBSETS:
            raise ModelError("the model has C(%d, %d) = %d candidate row subsets, more than "
                             "the limit %d" % (n, k, subsets, MAX_ROW_SUBSETS))
        if (rank := len(_eliminate(chi)[0])) != k:
            raise ModelError("chi has rank %d < %d; the gauge torus does not act with finite kernel"
                             % (rank, k))
        # <chi_i, c_S> = +-det(S + {i}), and the pairs (S, i > max S) meet the
        # k-subsets in lexicographic order; both depend on the rows of S alone,
        # and the first S with given rows has the least max S: only it is walked
        cofactors, by_rows, first = {}, {}, {}
        for subset in itertools.combinations(range(n), k - 1):
            rows = tuple(chi[i] for i in subset)
            if rows not in by_rows:
                c = by_rows[rows] = _cofactor(rows, k)
                if c is None:
                    continue
                first.setdefault(c, subset)
                for i in range(max(subset, default=-1) + 1, n):
                    if abs(pair(chi[i], c)) > 1:
                        bad = subset + (i,)
                        raise ModelError("subset {%s} non-unimodular (det %d); model rejected as "
                                         "non-smooth" % (",".join(str(j + 1) for j in bad),
                                                         _eliminate([chi[j] for j in bad])[2]))
            if by_rows[rows] is not None:
                cofactors[subset] = by_rows[rows]
        if blocks is not None:
            blocks = tuple(int(b) for b in blocks)
            if sum(blocks) != k or any(b <= 0 for b in blocks):
                raise ModelError("blocks %r do not partition 1..%d" % (blocks, k))
            _check_block_symmetry(chi, theta, blocks)
        walls = {}
        for c, subset in first.items():
            rho = primitive(c)
            t = pair(theta, rho)
            if t == 0:
                raise ThetaOnWallError("theta lies on wall spanned by {%s}"
                                       % ",".join("chi_%d" % (i + 1) for i in subset))
            if t < 0:
                rho = tuple(-x for x in rho)
            if rho not in walls:
                wall = frozenset(i for i in range(n) if pair(chi[i], rho) == 0)
                walls[rho] = Circuit(vector=rho, wall_rows=wall)
        return cls(n=n, k=k, chi=chi, theta=theta, blocks=blocks,
                   a_specialization=dict(a_specialization) if a_specialization else None,
                   cofactors=cofactors, walls=tuple(walls[v] for v in sorted(walls)),
                   table=table or VariableTable(n, k))

    @cached_property
    def points(self) -> tuple:
        """The torus-fixed points: column t of the inverse of the rows of a
        k-subset T is c_{T-t} <chi_{T_t}, c_{T-t}>, the pairing being +-1."""
        k = self.k
        out = []
        for subset in itertools.combinations(range(self.n), k):
            faces = [self.cofactors.get(subset[:t] + subset[t + 1:]) for t in range(k)]
            if None in faces or not pair(self.chi[subset[0]], faces[0]):
                continue  # the rows are dependent
            cols = [[pair(self.chi[i], c) * x for x in c] for i, c in zip(subset, faces)]
            # theta = sum_t c_t chi_{subset[t]}
            c = [pair(self.theta, col) for col in cols]
            plus = frozenset(subset[t] for t in range(k) if c[t] > 0)
            minus = frozenset(subset[t] for t in range(k) if c[t] < 0)
            restriction = {}
            for l in range(k):
                mono = [0] * self.table.width
                for i, col in zip(subset, cols):
                    mono[self.table.a(i)] -= col[l]
                    mono[HBAR_HALF] -= 2 * col[l] if i in minus else 0
                restriction[l] = tuple(mono)
            rays = tuple(tuple(x if i in plus else -x for x in col) for i, col in zip(subset, cols))
            out.append(FixedPoint(support=subset, plus=plus, minus=minus, coeffs=tuple(c),
                                  restriction=restriction, rays=rays))
        return tuple(out)

    @cached_property
    def cone(self) -> Cone:
        gens = tuple(c.vector for c in self.walls)
        return Cone(generators=gens, facet_normals=_facets_from_generators(gens, self.k))

    def block_slices(self):
        return _block_slices(self.k, self.blocks)

    def weyl_swaps(self):
        return _weyl_swaps(self.k, self.blocks)

    def weyl_elements(self):
        """All block permutations, as index tuples acting on degree vectors:
        the identity first, then ``itertools.product`` order over the blocks."""
        pools = [itertools.permutations(range(a, b)) for a, b in self.block_slices()]
        return [sum(combo, ()) for combo in itertools.product(*pools)]

    @staticmethod
    def weyl_on_degree(w, d):
        """Permute a degree vector: entry w[j] of the image is entry j of d, so
        on three entries w = (1, 2, 0) sends (10, 20, 30) to (30, 10, 20)."""
        return tuple(d[w.index(j)] for j in range(len(w)))

    def is_dominant(self, d) -> bool:
        """Whether d is non-increasing inside each block."""
        return all(d[u] >= d[u + 1] for a, b in self.block_slices() for u in range(a, b - 1))

    def block_sums(self, d) -> tuple:
        """The per-block totals of a degree vector: its image in the cocharacters
        of the block torus, and ``d`` itself when every block has size 1."""
        return tuple(sum(d[a:b]) for a, b in self.block_slices())


def _block_slices(k, blocks):
    """The coordinate ranges [a, b) of the GL blocks, of size 1 without blocks."""
    sizes = (1,) * k if blocks is None else blocks
    return [(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]


def _weyl_swaps(k, blocks):
    """The swaps of neighbouring coordinates in a block; they generate W."""
    return [(*range(u), u + 1, u, *range(u + 2, k))
            for a, b in _block_slices(k, blocks) for u in range(a, b - 1)]


def _check_block_symmetry(chi, theta, blocks):
    rows = sorted(chi)
    for w in _weyl_swaps(len(theta), blocks):
        if sorted(GaugeData.weyl_on_degree(w, row) for row in chi) != rows:
            raise ModelError("rows are not invariant under within-block permutations")
        if GaugeData.weyl_on_degree(w, theta) != theta:
            raise ModelError("theta is not constant on a GL block")


class Circuit(_Record):
    """Primitive cowall normal, oriented positively against theta."""

    __slots__ = _compared = ("vector", "wall_rows")

    def __init__(self, vector, wall_rows):
        self._set(vector=vector, wall_rows=wall_rows)


class FixedPoint(_Record):
    """Unimodular size-k support with sign split and monomial restriction.

    ``restriction`` maps 0-based gauge indices j to the monomial value of
    s_{j+1} in the flavor variables (and even powers of h^(1/2)); ``rays``
    is the Z-basis of the effective cone of the point.
    """

    __slots__ = ("support", "plus", "minus", "coeffs", "restriction", "rays")
    _compared = ("support", "plus", "minus", "coeffs", "rays")

    def __init__(self, support, plus, minus, coeffs, restriction, rays=()):
        self._set(support=support, plus=plus, minus=minus, coeffs=coeffs,
                  restriction=restriction, rays=rays)

    def label(self) -> str:
        return "p{%s}" % ",".join(str(i + 1) for i in self.support)


class Cone(_Record):
    """Rational polyhedral cone with both generator and facet descriptions."""

    __slots__ = _compared = ("generators", "facet_normals")

    def __init__(self, generators, facet_normals):
        for g in generators:
            if any(pair(f, g) < 0 for f in facet_normals):
                raise ModelError("cone descriptions disagree on generator %r" % (g,))
        self._set(generators=generators, facet_normals=facet_normals)

    def contains(self, d) -> bool:
        return all(pair(f, d) >= 0 for f in self.facet_normals)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def circuits(data: GaugeData):
    """One circuit per wall, signed by theta, deduplicated."""
    return list(data.walls)


def fixed_points(data: GaugeData):
    """All torus-fixed points with sign splits, restriction maps and cone rays."""
    return list(data.points)


def _facets_from_generators(gens, k):
    if k == 1:
        sign = 1 if gens[0][0] > 0 else -1
        return ((sign,),)
    facets = set()
    for subset in itertools.combinations(range(len(gens)), k - 1):
        rows = [gens[i] for i in subset]
        f = _cofactor(rows, k)
        if f is None:
            continue
        f = primitive(f)
        pos = sum(1 for g in gens if pair(f, g) > 0)
        neg = sum(1 for g in gens if pair(f, g) < 0)
        if neg == 0 and pos > 0:
            facets.add(f)
        elif pos == 0 and neg > 0:
            facets.add(tuple(-x for x in f))
    return tuple(sorted(facets))


def eff_cone(data: GaugeData) -> Cone:
    """The effective cone, generated by the circuits."""
    return data.cone


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
            raise ThetaOnWallError("theta2 on wall with normal (%s)" % ",".join(map(str, c.vector)))
        (reversing if t2 < 0 else kept).append(c)
    return reversing, kept
