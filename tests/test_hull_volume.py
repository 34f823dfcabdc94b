"""The integer pyramid recursion behind ``normalized_volume`` against lattice
point counts, and the incremental affine basis against full eliminations."""

from itertools import product
from math import comb, factorial
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st
from test_hull import _grid_point_sets

from matvol.hull import _greedy_affine_basis, affine_rank, exhaustive_facets, matrix_rank, normalized_volume


def _lattice_points(facets, j, lo, hi):
    """#(jP ∩ Z^d) for P = {x : a.x <= b}, searched in the box j[lo, hi]."""
    box = [range(j * l, j * h + 1) for l, h in zip(lo, hi)]
    return sum(
        1 for x in product(*box) if all(sum(map(mul, a, x)) <= j * b for a, b in facets)
    )


@settings(max_examples=60, deadline=None)
@given(_grid_point_sets(max_d=4))
def test_normalized_volume_is_the_ehrhart_leading_term(pts):
    # the Ehrhart polynomial L(j) = #(jP ∩ Z^d) has leading coefficient Vol(P),
    # so its d-th finite difference at 0 is d! Vol(P); the facets come from
    # hyperplane enumeration, not from the double description
    d = len(pts[0])
    facets = exhaustive_facets(pts)
    lo, hi = [min(c) for c in zip(*pts)], [max(c) for c in zip(*pts)]
    difference = sum(
        (-1) ** (d - j) * comb(d, j) * _lattice_points(facets, j, lo, hi) for j in range(d + 1)
    )
    assert normalized_volume(pts) * factorial(d) == difference


@st.composite
def _flat_point_sets(draw):
    """Up to 12 points of Z^d, d = 1..5, on an affine flat of any dimension
    r <= d: an offset plus small combinations of r drawn directions, with
    repeats, so many points add nothing to the span."""
    d = draw(st.integers(1, 5))
    r = draw(st.integers(0, d))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    offset, directions = draw(vec), draw(st.lists(vec, min_size=r, max_size=r))
    coefficients = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    pts = [
        tuple(o + sum(c * u[k] for c, u in zip(cs, directions)) for k, o in enumerate(offset))
        for cs in draw(st.lists(coefficients, min_size=1, max_size=12))
    ]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=4))


@settings(max_examples=400, deadline=None)
@given(_flat_point_sets())
def test_greedy_affine_basis_matches_elimination(pts):
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    rank = matrix_rank(diffs)
    basis = _greedy_affine_basis(pts)
    assert basis[0] == 0 and basis == sorted(set(basis))
    assert affine_rank(pts) == len(basis) - 1 == rank
    chosen = [diffs[i - 1] for i in basis[1:]]
    assert matrix_rank(chosen) == rank
    for i in range(1, len(pts)):
        # a point is taken exactly when it adds to the span of the ones before it
        before = diffs[: i - 1]
        grows = matrix_rank(before + [diffs[i - 1]]) > matrix_rank(before)
        assert (i in basis) == grows


def test_first_call_computes_facets_only_when_the_recursion_reads_them(monkeypatch):
    # planar hulls, segments and simplices are measured without facets; the
    # 3-cube is the one set here whose recursion reads them
    import matvol.hull as hull

    calls = []
    real = hull.dd_facets
    monkeypatch.setattr(hull, "dd_facets", lambda pts: calls.append(1) or real(pts))
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    hexagon = [(1, 0), (2, 0), (3, 1), (2, 2), (1, 2), (0, 1)]
    simplex = [(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)]
    cube = list(product((0, 1), repeat=3))
    for pts, volume in ((square, 1), (hexagon, 4), ([(0,), (3,)], 3), (simplex, 1)):
        assert normalized_volume(pts) == volume
    assert calls == []
    assert normalized_volume(cube) == 1
    assert calls == [1]
