"""Exact convex hull machinery for integer point sets.

All row reduction is one routine, ``_echelon``: an incremental
fraction-free Gauss-Jordan (Bareiss) elimination that takes each row
independent of the rows before it and keeps the taken rows reduced, every
entry a minor of the input.  ``matrix_rank`` counts the taken rows and
``integer_det`` reads the last pivot.  The greedy affine basis behind
``affine_rank``, the double description's start and the oracle's charts
is the set of difference rows it takes, and the rays of the double
description's first cone are read off the reduced rows of [R | I].  The
normal of the hyperplane through d points of Z^d is the vector of signed
maximal minors of their difference rows, so no rational solve is needed.

Facet enumeration runs the double description method on the cone of valid
inequalities: the extreme rays of {(a, b) : a.p <= b for all points p} are
exactly the facet inequalities of the hull (plus the trivial ray 0 <= b).
It starts from the simplicial cone of d + 1 affinely independent points,
whose rays are the columns of -R^-1, and cuts it by one point's row at a
time.  Each ray carries its incidence set, the bitmask of processed rows it
lies on, forward: a ray made from an adjacent pair gets the intersection of
its parents' sets plus the new row, so no set is recomputed from the rows.
A row makes one pass over its dot products, sorting the rays into positive,
negative and zero; pairs run over positive x negative only.  Everything is
integer arithmetic; rays are kept primitive by gcd division.

One rule decides codimension 2, in the double description and in the
volume recursion alike (``_is_ridge``): a meet of two masks is a face of
codimension 2 exactly when no third mask contains it, since a ridge lies in
exactly two facets and any smaller face in at least three.  The double
description applies it to a ray pair whose common incidence set holds at
least dim - 2 rows (a ray is a facet of the polar), as its adjacency test;
the recursion applies it to a facet's meets of at least d - 1 points with
the other facets, which are then its ridges, each with its own mask.

Volumes are lattice-normalized: for full-dimensional integer point sets the
normalized volume equals the Euclidean volume, computed by a recursive
pyramid decomposition (the facet-pyramid method compared by Bueler, Enge and
Fukuda, 2000).  The recursion runs in integers on N = d! Vol: a facet
a.x <= b (a primitive) projected along coordinate i adds
(b - a.apex) N(F') / |a_i|, and the division is exact, because the
projection maps the lattice points of a.x = b onto a sublattice of
Z^(d-1) of index |a_i|.  ``normalized_volume`` is the recursion's first
call and divides by d! once.  Faces of dimension 2 are measured directly,
as the shoelace sum over their monotone-chain hull, so no ridges are built
for them.  Faces are point masks, walked by ``bitset.set_bits``; the facets
of a facet are its ridges, found by the rule above.  Each face's facets,
the hull's own included, are computed only when the recursion reads them,
so a face that needs none (dimension at most 2, a simplex, a memo hit)
computes none.  Each facet's mask comes from one scan of the points, so the
double description and the incidence scan run at most once per polytope,
and the vertex test reads the same masks.

Dimension 0 needs no branch in either.  A point of Z^0 is the 0-simplex:
one point is d + 1 points, and the determinant of the empty matrix is 1.
Its double description starts from the one-row cone of (-1,), whose only
ray is the trivial inequality 0 <= b.

An exhaustive hyperplane-enumeration facet finder is kept alongside as an
independent cross-check for small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial, gcd
from operator import and_, mul
from typing import Iterable, Iterator, Sequence

from .bitset import set_bits

Vec = tuple[int, ...]
Facet = tuple[Vec, int]
MaskedFacet = tuple[Vec, int, int]  # (a, b, bitmask of the points on a.x = b)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _primitive(v: Sequence[int]) -> Vec:
    """Divide by the gcd, keeping orientation."""
    g = gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def _primitive_signed(v: Sequence[int]) -> Vec:
    """Primitive vector of a nonzero v, with the first nonzero entry positive."""
    p = _primitive(v)
    return p if next(x for x in p if x) > 0 else tuple(-y for y in p)


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[tuple[int, Sequence[int]]], int]:
    """Incremental fraction-free Gauss-Jordan (Bareiss) elimination.

    Returns (taken, reduced, scale): the indices of the rows independent of
    the rows before them, and the reduced rows as (pivot column, row) pairs,
    each 0 in the other pivot columns and equal to ``scale`` in its own.
    ``scale`` is the determinant of the taken rows on the pivot columns, in
    pivot order.  A new row v becomes w = scale v - sum of v[c] e over the
    reduced rows (c, e), which clears every pivot column at once and leaves
    minors of the input in w; if w is nonzero, its first nonzero column p
    is the new pivot, each e becomes (w[p] e - e[p] w) / scale (an exact
    division) and scale becomes w[p].  Rows are read only until the
    reduced rows span the row width.
    """
    taken: list[int] = []
    reduced: list[tuple[int, Sequence[int]]] = []
    scale = 1
    for i, v in enumerate(rows):
        w = v if scale == 1 else [scale * x for x in v]
        for c, e in reduced:
            f = v[c]
            if f:
                w = [x - f * y for x, y in zip(w, e)]
        if not any(w):
            continue
        p = next(c for c, x in enumerate(w) if x)
        pv = w[p]
        reduced = [
            (c, e if pv == scale and not e[p] else [(pv * x - e[p] * y) // scale for x, y in zip(e, w)])
            for c, e in reduced
        ]
        reduced.append((p, w))
        taken.append(i)
        scale = pv
        if len(reduced) == len(w):
            break
    return taken, reduced, scale


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows)[0])


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the points."""
    if len(points) <= 1:
        return 0
    return len(_greedy_affine_basis(points)) - 1


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix; 1 for the empty matrix.

    It is ``_echelon``'s scale times the sign of its pivot-column order, and
    0 when some row depends on the rows before it.
    """
    taken, reduced, scale = _echelon(rows)
    if len(taken) < len(rows):
        return 0
    pivots = [c for c, _ in reduced]
    inversions = sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1 :])
    return -scale if inversions % 2 else scale


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _greedy_affine_basis(points: Sequence[Vec]) -> list[int]:
    """Indices of an inclusion-maximal affinely independent subset.

    Point i is taken when its difference row p_i - p_0 is independent of the
    rows taken before it, as ``_echelon`` of the difference rows finds.
    """
    p0 = points[0]
    diffs = ([x - y for x, y in zip(p, p0)] for p in points[1:])
    return [0] + [i + 1 for i in _echelon(diffs)[0]]


def _cone_rays(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Primitive extreme rays of {y : R y <= 0} for an invertible square R.

    They are the columns of -R^-1, so ray j lies on every row of R but row j.
    ``_echelon`` of [R | I] leaves scale R^-1 in the last columns of its
    reduced rows, row c of R^-1 on the reduced row with pivot c.
    """
    k = len(rows)
    _, reduced, scale = _echelon([list(row) + [int(j == i) for j in range(k)] for i, row in enumerate(rows)])
    sign = -1 if scale > 0 else 1
    inverse = [e[k:] for _, e in sorted(reduced)]
    return [_primitive([sign * x for x in column]) for column in zip(*inverse)]


def dd_facets(points: Sequence[Vec]) -> list[Facet]:
    """Facet inequalities a.x <= b of a full-dimensional conv(points).

    Normals come out primitive and the list is sorted; raises if the input
    is not full-dimensional in its ambient space.  A point of Z^0 has no
    facets: the only ray of its cone is the trivial 0 <= b, which the final
    filter drops.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("dd_facets needs a full-dimensional point set")
    d = len(pts[0])
    basis = _greedy_affine_basis(pts)
    if len(basis) != d + 1:
        raise ValueError("dd_facets needs a full-dimensional point set")

    order = basis + sorted(set(range(len(pts))) - set(basis))
    rows = [tuple(pts[i]) + (-1,) for i in order]

    dim = d + 1
    rays = _cone_rays(rows[:dim])  # the basis rows' cone; each later row cuts it
    masks = [((1 << dim) - 1) ^ (1 << j) for j in range(dim)]  # bit k of masks[i]: rays[i] lies on rows[k]

    for idx in range(dim, len(rows)):
        c, bit = rows[idx], 1 << idx
        positive, negative, kept, kept_masks = [], [], [], []
        for r, a in zip(rays, masks):
            x = sum(map(mul, c, r))
            if x > 0:
                positive.append((x, r, a))
                continue
            if x < 0:
                negative.append((x, r, a))
            kept.append(r)
            kept_masks.append(a if x else a | bit)
        # adjacent rays share a face of codimension 2 in the pointed cone
        for di, ri, ai in positive:
            for dj, rj, aj in negative:
                common = ai & aj
                if common.bit_count() >= dim - 2 and _is_ridge(common, masks):
                    kept.append(_primitive([di * y - dj * x for x, y in zip(ri, rj)]))
                    kept_masks.append(common | bit)
        rays, masks = kept, kept_masks

    return sorted({(r[:-1], r[-1]) for r in rays if any(r[:-1])})


def _is_ridge(common: int, masks: Iterable[int]) -> bool:
    """Whether the meet ``common`` of two of ``masks`` is a face of
    codimension 2: no third mask contains it.  Stops at the third owner."""
    owners = 0
    for a in masks:
        if common & a == common:
            owners += 1
            if owners > 2:
                return False
    return True


def exhaustive_facets(points: Sequence[Vec]) -> list[Facet]:
    """Facets by brute-force hyperplane enumeration; cross-check for small inputs.

    Every d-subset of points spanning a hyperplane nominates its hyperplane;
    keep the ones with all points on one side.
    """
    pts = sorted(set(points))
    d = len(pts[0])
    facets = set()
    for combo in combinations(pts, d):
        normal = _hyperplane_normal(combo)
        if normal is None:
            continue
        b = _dot(normal, combo[0])
        values = [_dot(normal, p) for p in pts]
        if all(v <= b for v in values):
            facets.add((normal, b))
        elif all(v >= b for v in values):
            facets.add((tuple(-x for x in normal), -b))
    return sorted(facets)


def _hyperplane_normal(pts: Sequence[Vec]) -> Vec | None:
    """Primitive normal of the hyperplane spanned by d points, if they span one.

    Entry j is (-1)^j times the maximal minor of the d-1 difference rows
    without column j; the vector is orthogonal to every row (a determinant
    with a repeated row vanishes) and is zero exactly when the rows are
    dependent.
    """
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    minors = [
        (-1) ** j * integer_det([row[:j] + row[j + 1 :] for row in diffs])
        for j in range(len(pts[0]))
    ]
    return _primitive_signed(minors) if any(minors) else None


def _facet_masks(points: Sequence[Vec], facets: Sequence[Facet]) -> list[MaskedFacet]:
    """Each facet with the bitmask of the points on it (bit k: points[k]).

    The values a.p are summed a coordinate column at a time over all points,
    skipping the zero entries of a.
    """
    columns = list(zip(*points))
    bits = [1 << k for k in range(len(points))]
    out = []
    for a, b in facets:
        values = [0] * len(points)
        for x, column in zip(a, columns):
            if x:
                values = [v + x * c for v, c in zip(values, column)]
        out.append((a, b, sum([bit for bit, v in zip(bits, values) if v == b])))
    return out


def hull_vertex_flags(points: Sequence[Vec], facets: Sequence[Facet]) -> list[bool]:
    """Whether each point is a vertex: the facets through it meet in it alone."""
    masks = [mask for _, _, mask in _facet_masks(points, facets)]
    everything = (1 << len(points)) - 1
    return [
        reduce(and_, (mask for mask in masks if mask >> k & 1), everything) == 1 << k
        for k in range(len(points))
    ]


# ---------------------------------------------------------------------------
# normalized volume
# ---------------------------------------------------------------------------

def normalized_volume(points: Sequence[Vec]) -> Fraction:
    """Lattice-normalized volume of a full-dimensional integer point hull.

    It is the first call of ``_volume_rec``, whose facets are a generator
    that runs the double description when first read, so a hull that needs
    no facets (d <= 2, a simplex) computes none.  A point of Z^0 is the
    0-simplex, of volume 1: the simplex branch measures it as |det| of the
    empty matrix.  A result of 0 raises ValueError: the point set is not
    full-dimensional.  A lower-dimensional set of d >= 3 that is not a
    simplex raises from ``dd_facets`` instead.
    """
    pts = tuple(sorted(set(points)))
    facets = (f for p in (pts,) for f in _facet_masks(p, dd_facets(p)))  # runs when first read
    n = _volume_rec(pts, facets, {}) if pts else 0
    if not n:
        raise ValueError("normalized_volume needs a full-dimensional point set")
    return Fraction(n, factorial(len(pts[0])))


def _planar_volume(pts: Sequence[Vec]) -> int:
    """Twice the area of conv(pts) in Z^2.

    Andrew's monotone chain: the lower chain runs left to right over the
    sorted points and the upper chain back, each keeping only left turns;
    together they close the hull counter-clockwise, so the shoelace sum over
    their edges is twice the area.
    """
    ordered = sorted(pts)
    total = 0
    for run in (ordered, ordered[::-1]):
        chain: list[Vec] = []
        for p in run:
            while len(chain) > 1:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        total += sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(chain, chain[1:]))
    return total


def _volume_rec(pts: tuple[Vec, ...], facets: Iterable[MaskedFacet], memo: dict) -> int:
    """N = d! Vol(conv(pts)) from its facets (a, b, mask), a.x <= b.

    Faces are point masks (bit k: pts[k]); facets of a facet are its ridges
    (``_facets_of_facet``).  The hull is the union of the pyramids from the
    apex pts[0] over the facets missing it, so N(P) is the sum over those facets
    of (b - a.apex) N(F') / |a_i|, where F' is the facet projected along the
    coordinate i of its largest |a_i|.  The division is exact: a is
    primitive, so that projection maps the lattice points of a.x = b onto a
    sublattice of Z^(d-1) of index |a_i|, and N(F') / |a_i| is the normalized
    volume of F in its own lattice.  Faces of dimension 1 and 2 and simplices
    are measured directly, a degenerate one as 0.  ``facets`` is read only
    past the shortcuts and the memo, so a face that needs none computes
    none, the hull itself included.
    """
    d = len(pts[0])
    if d == 1:
        return max(pts)[0] - min(pts)[0]
    if d == 2:
        return _planar_volume(pts)
    if len(pts) == d + 1:
        return abs(integer_det([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]))
    key = tuple(sorted(pts))
    if key in memo:
        return memo[key]

    facets = list(facets)
    apex = pts[0]
    total = 0
    for a, b, mask in facets:
        if mask & 1:
            continue  # the apex lies on this facet: a flat pyramid
        i = max(range(d), key=lambda j: abs(a[j]))
        on = set_bits(mask)
        sub_pts = tuple(pts[k][:i] + pts[k][i + 1 :] for k in on)
        sub = _volume_rec(sub_pts, _facets_of_facet(facets, a, b, mask, i, on), memo)
        total += (b - _dot(a, apex)) * (sub // abs(a[i]))
    memo[key] = total
    return total


def _facets_of_facet(
    facets: list[MaskedFacet], a: Vec, b: int, mask: int, i: int, on: list[int]
) -> Iterator[MaskedFacet]:
    """Facets of the facet (a, b, mask), with coordinate i eliminated.

    They are its ridges: the meets mask & G with another facet G that hold
    at least d - 1 points (a ridge spans d - 2 dimensions) and that no third
    facet contains (``_is_ridge``).  Each ridge keeps G's inequality
    restricted to a.x = b, its mask renumbered over ``on``.
    """
    least = len(a) - 1
    masks = [other for _, _, other in facets]
    position = {k: 1 << j for j, k in enumerate(on)}
    for c, e, other in facets:
        common = mask & other
        if other != mask and common.bit_count() >= least and _is_ridge(common, masks):
            sub_mask = sum([position[k] for k in set_bits(common)])
            yield (*_project_inequality(c, e, a, b, i), sub_mask)


def _project_inequality(c: Vec, e: int, a: Vec, b: int, i: int) -> Facet:
    """Substitute the equality a.x = b into c.x <= e, eliminating coordinate i."""
    s = 1 if a[i] > 0 else -1
    new_c = [s * (a[i] * c[j] - c[i] * a[j]) for j in range(len(c)) if j != i]
    v = _primitive(new_c + [s * (a[i] * e - c[i] * b)])
    return v[:-1], v[-1]
