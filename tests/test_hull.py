"""The one integer elimination behind rank, determinant and hyperplane normals,
the double description against exhaustive facet enumeration, and the point
masks behind vertex flags and the pyramid volume recursion."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matvol.hull import (
    _cone_rays,
    _echelon,
    _greedy_affine_basis,
    _hyperplane_normal,
    affine_rank,
    dd_facets,
    exhaustive_facets,
    hull_vertex_flags,
    integer_det,
    matrix_rank,
    normalized_volume,
)


def _fraction_rank(rows):
    """Reference rank: Gauss-Jordan over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _permutation_det(rows):
    """Reference determinant: the Leibniz expansion over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += -prod if inversions % 2 else prod
    return total


@st.composite
def _matrices(draw, max_size=7, square=False):
    """Integer matrices up to max_size x max_size: wide, tall, zero, and of
    every rank, the low ranks as products of thinner factors; rows and
    columns are then permuted so pivots are not where elimination looks first."""
    rows = draw(st.integers(1, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    inner = draw(st.integers(0, min(rows, cols)))
    entry = st.integers(-4, 4)
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    m = [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in left]
    if draw(st.booleans()):  # full-rank-ish noise on top
        m = [[x + draw(entry) for x in row] for row in m]
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return [[m[i][j] for j in col_order] for i in row_order]


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_matrix_rank_matches_fraction_elimination(m):
    assert matrix_rank(m) == _fraction_rank(m)


def test_matrix_rank_edge_shapes():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert matrix_rank([[0, 0, 5], [0, 0, 7]]) == 1  # pivot only in the last column
    assert matrix_rank([[0], [0], [3], [0]]) == 1
    assert matrix_rank([[0, 1, 2], [0, 2, 4], [1, 0, 0]]) == 2


@settings(max_examples=300, deadline=None)
@given(_matrices(max_size=4, square=True))
def test_integer_det_matches_permutation_expansion(m):
    assert integer_det(m) == _permutation_det(m)


def test_integer_det_needs_row_swaps():
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert integer_det([[0, 2, 1], [3, 0, 0], [0, 0, 4]]) == -24
    assert integer_det([]) == 1


@st.composite
def _point_sets(draw):
    """d points in Z^d, d = 1..5: the rows of a square matrix of any rank,
    shifted by a common offset, so they often lie on a lower flat."""
    m = draw(_matrices(max_size=5, square=True))
    offset = draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
    return [tuple(x + o for x, o in zip(row, offset)) for row in m]


@settings(max_examples=400, deadline=None)
@given(_point_sets())
def test_hyperplane_normal_is_primitive_and_orthogonal(pts):
    d = len(pts[0])
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    normal = _hyperplane_normal(pts)
    if _fraction_rank(diffs) != d - 1:
        assert normal is None
        return
    assert normal is not None and len(normal) == d
    for row in diffs:
        assert sum(a * b for a, b in zip(normal, row)) == 0
    g = 0
    for x in normal:
        g = gcd(g, x)
    assert g == 1
    assert next(x for x in normal if x) > 0


@st.composite
def _crowded_point_sets(draw):
    """Full-dimensional sets of up to 14 points of {0,1,2}^d, d = 2..4: on so
    small a grid many points share a facet, and most rays meet several rows."""
    d = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, 2)] * d)
    pts = draw(st.lists(point, min_size=d + 1, max_size=14, unique=True))
    assume(affine_rank(pts) == d)
    return draw(st.permutations(pts))


def _greedy_basis_full_scan(points):
    """Reference: the greedy affine basis, trying every point."""
    chosen = [0]
    for i in range(1, len(points)):
        rows = [[x - y for x, y in zip(points[j], points[0])] for j in chosen[1:] + [i]]
        if matrix_rank(rows) == len(chosen):
            chosen.append(i)
    return chosen


@settings(max_examples=300, deadline=None)
@given(_crowded_point_sets())
def test_dd_facets_match_exhaustive_on_crowded_grids(pts):
    assert dd_facets(pts) == exhaustive_facets(pts)
    assert _greedy_affine_basis(pts) == _greedy_basis_full_scan(pts)


@st.composite
def _grid_point_sets(draw, max_d=4):
    """Full-dimensional sets of points of {0,1,2}^d, d = 1..max_d; the grid's
    centre is often drawn too, so some points lie inside the hull."""
    d = draw(st.integers(1, max_d))
    point = st.tuples(*[st.integers(0, 2)] * d)
    pts = draw(st.lists(point, min_size=d + 1, max_size=10, unique=True))
    centre = (1,) * d
    if draw(st.booleans()) and centre not in pts:
        pts.append(centre)
    assume(affine_rank(pts) == d)
    return draw(st.permutations(pts))


def _is_vertex_by_brute_force(pts, k):
    """A point is a vertex iff it is off the affine hull of the others or
    violates a facet of their hull."""
    others = pts[:k] + pts[k + 1 :]
    if affine_rank(others) < len(pts[k]):
        return True
    return any(sum(x * y for x, y in zip(a, pts[k])) > b for a, b in exhaustive_facets(others))


@settings(max_examples=200, deadline=None)
@given(_grid_point_sets())
def test_hull_vertex_flags_match_brute_force(pts):
    flags = hull_vertex_flags(pts, dd_facets(pts))
    assert flags == [_is_vertex_by_brute_force(pts, k) for k in range(len(pts))]


@st.composite
def _unimodular_maps(draw, d):
    """A d x d integer matrix of determinant +-1, as a product of row
    additions, swaps and sign flips applied to the identity."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 2 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i != j:
            k = draw(st.integers(-2, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalized_volume_lattice_invariant_and_homogeneous(data):
    pts = data.draw(_grid_point_sets(max_d=5))
    d = len(pts[0])
    m = data.draw(_unimodular_maps(d))
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    k = data.draw(st.integers(2, 3))
    vol = normalized_volume(pts)
    moved = [tuple(sum(r * x for r, x in zip(row, p)) + s for row, s in zip(m, shift)) for p in pts]
    assert normalized_volume(moved) == vol
    assert normalized_volume([tuple(k * x for x in p) for p in pts]) == k**d * vol


@st.composite
def _rows_with_repeats(draw):
    """0-6 x 0-6 integer matrices with entries -3..3, each row drawn afresh,
    zero, or a copy of an earlier row."""
    cols = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("new", "zero", "repeat") if rows else ("new", "zero")))
        if kind == "new":
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)))
        else:
            rows.append([0] * cols if kind == "zero" else list(draw(st.sampled_from(rows))))
    return rows


@settings(max_examples=500, deadline=None)
@given(_rows_with_repeats())
def test_echelon_against_fraction_elimination_and_minors(rows):
    taken, reduced, scale = _echelon(rows)
    greedy = []
    for i, row in enumerate(rows):  # a row is taken when it grows the rational span
        if _fraction_rank([rows[j] for j in greedy] + [row]) > len(greedy):
            greedy.append(i)
    assert taken == greedy and len(reduced) == len(taken)
    pivots = [c for c, _ in reduced]
    for c, e in reduced:
        assert [e[p] for p in pivots] == [scale if p == c else 0 for p in pivots]
    for row in rows:  # scale * row = sum of row[c] e: the reduced rows span every row
        combination = [0] * len(row)
        for c, e in reduced:
            combination = [x + row[c] * y for x, y in zip(combination, e)]
        assert combination == [scale * x for x in row]
    assert scale == _permutation_det([[rows[i][c] for c in pivots] for i in taken])
    if rows and len(taken) == len(rows[0]):
        basis = [rows[i] for i in taken]  # invertible and square
        for j, ray in enumerate(_cone_rays(basis)):
            assert gcd(*ray) == 1
            dots = [sum(a * b for a, b in zip(row, ray)) for row in basis]
            assert dots[j] < 0 and not any(dots[:j] + dots[j + 1 :])


def test_a_point_of_z0_has_no_facets():
    """Dimension 0 takes the general path: the double description's only
    ray is the trivial 0 <= b, which the final filter drops."""
    assert dd_facets([()]) == []


@pytest.mark.parametrize("points", [[(0, 0), (1, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]])
def test_dd_facets_refuses_a_lower_dimensional_point_set(points):
    with pytest.raises(ValueError, match="^dd_facets needs a full-dimensional point set$"):
        dd_facets(points)
