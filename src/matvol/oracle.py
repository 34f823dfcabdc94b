"""Brute-force geometry used to validate the formula engines.

Vertex sets come straight from the combinatorial definitions (indicator
vectors of bases, of independent sets, of basis flags); volumes come from
exact convex hulls and pyramid decompositions, with no reference to the
invariant formulas they are checked against.  A flag of independent sets of
sizes 1..r is an ordering of the basis it ends in, so the flag polytope's
points are read off the bases alone, with no rank query.

Volumes are measured in one of two lattices: base and flag polytopes live
in a coordinate-sum hyperplane x(E) = c and are normalized with respect to
its integer points, a translate of the lattice spanned by the consecutive
coordinate differences e_i - e_{i+1} (``ROOT``).  Dropping the last
coordinate maps those points one-to-one onto Z^(n-1), since x_n follows
from the sum, so the volume is measured there.  Independent set polytopes
are full-dimensional and use the standard integer lattice (``STANDARD``).

A point set that is not full-dimensional is hulled in an integer chart
y = B(x - o), where the rows of B are independent differences p - o of the
points from the first point o.  The chart is one-to-one on the affine hull,
and a chart facet a.y <= b pulls back to (B^T a).x <= b + (B^T a).o, whose
normal lies in the hull's direction space and is made primitive; so each
facet has one integer form, with no rational arithmetic on the way.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .bitset import set_bits
from .errors import DegenerateInput, DimensionMismatch
from .hull import (
    Facet,
    Vec,
    _greedy_affine_basis,
    _primitive,
    affine_rank,
    dd_facets,
    hull_vertex_flags,
    normalized_volume,
)
from .matroid import Matroid


class LatticeFrame(Enum):
    ROOT = "root"
    STANDARD = "standard"


class _VertexSetFields(NamedTuple):
    n: int
    points: tuple[Vec, ...]
    affine_dim: int


class VertexSet(_VertexSetFields):
    """A finite integer point set together with its ambient dimension.

    Built from ``n`` and ``points``; ``affine_dim`` is computed from the
    points, so it never makes two equal point sets compare unequal.
    """

    __slots__ = ()

    def __new__(cls, n: int, points: tuple[Vec, ...]):
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        for p in points:
            if len(p) != n:
                raise ValueError(f"point {p} does not have length {n}")
        return super().__new__(cls, n, points, affine_rank(points))


def _vertex_set(n: int, pts) -> VertexSet:
    return VertexSet(n, tuple(sorted(set(map(tuple, pts)))))


def _indicator(mask: int, n: int) -> Vec:
    return tuple((mask >> i) & 1 for i in range(n))


def vertices_base(m: Matroid) -> VertexSet:
    """Indicator vectors of the bases."""
    return _vertex_set(m.n, (_indicator(b, m.n) for b in m.bases))


def vertices_indep(m: Matroid) -> VertexSet:
    """Indicator vectors of all independent sets, the empty set included."""
    pts = [_indicator(s, m.n) for s in range(1 << m.n) if m.is_independent(s)]
    return _vertex_set(m.n, pts)


def vertices_flag(m: Matroid) -> VertexSet:
    """Sums of indicator vectors along every flag of truncation bases.

    A flag is a chain of independent sets of sizes 1..r, each contained in
    the next, so it is an ordering of the basis it ends in: every subset of
    a basis is independent.  The element at position j (0-based) lies in
    the last r - j sets of the chain and gets coordinate r - j.
    """
    weights = range(m.rank_value, 0, -1)

    def point(order: tuple[int, ...]) -> list[int]:
        vec = [0] * m.n
        for e, w in zip(order, weights):
            vec[e] = w
        return vec

    return _vertex_set(m.n, (point(order) for b in m.bases for order in permutations(set_bits(b))))


# ---------------------------------------------------------------------------
# affine coordinatization for hulls of non-full-dimensional point sets
# ---------------------------------------------------------------------------

class _AffineChart:
    """The integer chart y = B(x - o) on the affine hull of a point set.

    The rows of B are the differences from o = points[0] to the points of a
    greedy affine basis, so B B^T is invertible and the chart is one-to-one
    on the affine hull.
    """

    def __init__(self, points: tuple[Vec, ...]):
        self.origin = points[0]
        self.basis = [
            [x - y for x, y in zip(points[i], self.origin)] for i in _greedy_affine_basis(points)[1:]
        ]

    def integer_coords(self, points) -> list[Vec]:
        """All points in chart coordinates."""
        return [
            tuple(sum(u * (x - y) for u, x, y in zip(row, p, self.origin)) for row in self.basis)
            for p in points
        ]

    def pull_back(self, a: Vec, b: int) -> Facet:
        """Map a chart inequality a.y <= b back to a primitive one on x.

        a.B(x - o) <= b reads (B^T a).x <= b + (B^T a).o, and B^T a lies in
        the direction space of the hull, where a facet's primitive normal is
        unique.
        """
        normal = [sum(ai * row[c] for ai, row in zip(a, self.basis)) for c in range(len(self.origin))]
        v = _primitive(normal + [b + sum(u * o for u, o in zip(normal, self.origin))])
        return v[:-1], v[-1]


def _canonicalize_fixed_sum(facets: list[Facet], points: tuple[Vec, ...]) -> list[Facet]:
    """Reduce normals modulo the all-ones direction when the hull is fixed-sum."""
    sums = {sum(p) for p in points}
    if len(sums) != 1:
        return sorted(set(facets))
    s = sums.pop()
    out = set()
    for a, b in facets:
        lo = min(a)
        v = _primitive([x - lo for x in a] + [b - lo * s])
        out.add((v[:-1], v[-1]))
    return sorted(out)


def hull_facets(v: VertexSet) -> list[Facet]:
    """All facet inequalities a.x <= b of conv(points) within its affine hull.

    Normals are primitive integers.  When the affine hull is a coordinate-sum
    hyperplane the normals are normalized modulo the all-ones vector so that
    each facet has a single canonical form with minimum entry 0.
    """
    if v.affine_dim == 0:
        raise DegenerateInput("a hull of at most one point has no facets")
    if v.affine_dim == v.n:
        return dd_facets(v.points)
    chart = _AffineChart(v.points)
    pulled = [chart.pull_back(a, b) for a, b in dd_facets(chart.integer_coords(v.points))]
    return _canonicalize_fixed_sum(pulled, v.points)


def minkowski_sum_vertices(v1: VertexSet, v2: VertexSet) -> VertexSet:
    """Pairwise sums reduced to the hull's vertex set."""
    if v1.n != v2.n:
        raise DimensionMismatch(f"ambient dimensions differ: {v1.n} vs {v2.n}")
    sums = sorted({tuple(a + b for a, b in zip(p, q)) for p in v1.points for q in v2.points})
    if len(sums) <= 1:
        return _vertex_set(v1.n, sums)
    chart = _AffineChart(tuple(sums))
    pts = chart.integer_coords(sums)
    facets = dd_facets(pts)
    flags = hull_vertex_flags(pts, facets)
    return _vertex_set(v1.n, (p for p, keep in zip(sums, flags) if keep))


def simplex_vertices(n: int, mask: int) -> VertexSet:
    """The unit coordinate simplex conv{e_i : i in ``mask``} in Z^n."""
    pts = [tuple(1 if i == e else 0 for i in range(n)) for e in range(n) if mask >> e & 1]
    return _vertex_set(n, pts)


def volume_exact(v: VertexSet, frame: LatticeFrame) -> Fraction:
    """Lattice-normalized volume of conv(points) in the given frame."""
    if frame is LatticeFrame.ROOT:
        if len({sum(p) for p in v.points}) != 1 or v.affine_dim != v.n - 1:
            raise DimensionMismatch(
                "root-lattice volume needs a fixed-sum point set of affine dimension n-1"
            )
        return normalized_volume([p[:-1] for p in v.points])
    if frame is LatticeFrame.STANDARD:
        if v.affine_dim != v.n or not v.points:  # the empty set has affine rank 0 = n at n = 0
            raise DimensionMismatch("standard-lattice volume needs a full-dimensional point set")
        return normalized_volume(list(v.points))
    raise ValueError(f"unknown lattice frame {frame!r}")
