import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from matvol.decomposition import decompose_base_polytope
from matvol.errors import DegenerateInput, DimensionMismatch
from matvol.hull import dd_facets, exhaustive_facets, normalized_volume
from matvol.matroid import Matroid, from_bases, is_connected, uniform
from matvol.oracle import (
    LatticeFrame,
    VertexSet,
    hull_facets,
    minkowski_sum_vertices,
    simplex_vertices,
    vertices_base,
    vertices_flag,
    vertices_indep,
    volume_exact,
)

PYRAMID = from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])
U23 = uniform(2, 3)


def test_vertices_base_pyramid():
    v = vertices_base(PYRAMID)
    assert set(v.points) == {
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
    }
    assert v.affine_dim == 3


def test_vertices_flag_golden():
    m = from_bases(3, [0b011, 0b101])
    assert set(vertices_flag(m).points) == {(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2)}


def _flag_points_by_chains(m):
    """Flag points from the definition: chains of independent sets of sizes
    1..r, each grown by one element, the element added at depth j weighted
    r - j + 1."""
    r = m.rank_value
    points = set()

    def grow(current, depth, vec):
        if depth > r:
            points.add(tuple(vec))
            return
        for e in range(m.n):
            nxt = current | 1 << e
            if nxt != current and m.rank(nxt) == depth:
                vec[e] += r - depth + 1
                grow(nxt, depth + 1, vec)
                vec[e] -= r - depth + 1

    grow(0, 1, [0] * m.n)
    return points


def test_vertices_flag_are_the_chains_of_independent_sets(catalog5):
    for entry in catalog5:
        assert set(vertices_flag(entry.matroid).points) == _flag_points_by_chains(entry.matroid), entry.name


def test_vertices_flag_reads_only_the_bases(monkeypatch):
    """A flag is an ordering of the basis it ends in, so no rank is read."""
    def refuse(_):
        raise AssertionError("vertices_flag read the rank table")

    m = from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])
    monkeypatch.setattr(Matroid, "rank_table", property(refuse))
    assert len(vertices_flag(m).points) == 2 * len(m.bases)
    assert set(vertices_flag(uniform(3, 3)).points) == set(permutations((1, 2, 3)))


def test_vertices_indep_single_element():
    assert set(vertices_indep(uniform(1, 1)).points) == {(0,), (1,)}


def test_hull_facets_unit_square():
    square = VertexSet(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert len(hull_facets(square)) == 4


def test_hull_facets_triangle():
    assert len(hull_facets(vertices_base(U23))) == 3


def test_hull_facets_pyramid():
    assert len(hull_facets(vertices_base(PYRAMID))) == 5


def test_hull_facets_degenerate():
    with pytest.raises(DegenerateInput):
        hull_facets(VertexSet(2, ((1, 1),)))


def test_facets_are_rank_inequalities(catalog5):
    """Each facet of the base polytope is x(A) <= r(A) or x_i >= 0, up to the
    coordinate-sum relation."""
    for entry in catalog5:
        m = entry.matroid
        if not is_connected(m) or m.n < 2:
            continue
        candidates = set()
        r = m.rank_value
        for a in range(1, 1 << m.n):
            # x(A) <= r(A), reduced modulo the all-ones normal
            normal = tuple(1 if a >> e & 1 else 0 for e in range(m.n))
            candidates.add(_reduce_fixed_sum(normal, m.rank(a), r))
        for e in range(m.n):
            normal = tuple(-1 if i == e else 0 for i in range(m.n))
            candidates.add(_reduce_fixed_sum(normal, 0, r))
        for facet in hull_facets(vertices_base(m)):
            assert facet in candidates, (entry.name, facet)


def _reduce_fixed_sum(normal, offset, coord_sum):
    from math import gcd

    lo = min(normal)
    normal = tuple(x - lo for x in normal)
    offset = offset - lo * coord_sum
    g = 0
    for x in normal:
        g = gcd(g, x)
    g = gcd(g, offset)
    if g > 1:
        normal = tuple(x // g for x in normal)
        offset //= g
    return (normal, offset)


def test_volume_exact_standard_simplices():
    for n in range(2, 6):
        v = simplex_vertices(n, (1 << n) - 1)
        assert volume_exact(v, LatticeFrame.ROOT) == Fraction(1, factorial(n - 1))


def test_volume_exact_goldens():
    assert volume_exact(vertices_indep(U23), LatticeFrame.STANDARD) == Fraction(5, 6)
    m = from_bases(3, [0b011, 0b101])
    assert volume_exact(vertices_flag(m), LatticeFrame.ROOT) == Fraction(3, 2)


def test_volume_exact_frame_validation():
    with pytest.raises(DimensionMismatch):
        volume_exact(vertices_indep(U23), LatticeFrame.ROOT)
    with pytest.raises(DimensionMismatch):
        volume_exact(vertices_base(U23), LatticeFrame.STANDARD)


def test_volume_permutation_invariance():
    rng = random.Random(17)
    base = vertices_indep(uniform(2, 4))
    reference = volume_exact(base, LatticeFrame.STANDARD)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = VertexSet(4, tuple(sorted(tuple(p[i] for i in perm) for p in base.points)))
        assert volume_exact(shuffled, LatticeFrame.STANDARD) == reference


def test_minkowski_identity_with_origin():
    v = vertices_base(U23)
    origin = VertexSet(3, ((0, 0, 0),))
    assert minkowski_sum_vertices(v, origin).points == v.points


def test_minkowski_segment_dilation():
    seg = simplex_vertices(2, 0b11)
    doubled = minkowski_sum_vertices(seg, seg)
    assert set(doubled.points) == {(2, 0), (0, 2)}


def test_minkowski_figure_identity():
    """The pyramid's signed decomposition as an honest vertex identity:
    D234 + D134 + D12 equals P_M + D1234."""
    left = minkowski_sum_vertices(simplex_vertices(4, 0b1110), simplex_vertices(4, 0b1101))
    left = minkowski_sum_vertices(left, simplex_vertices(4, 0b0011))
    right = minkowski_sum_vertices(vertices_base(PYRAMID), simplex_vertices(4, 0b1111))
    assert left.points == right.points


def test_signed_identity_positive_form(catalog5):
    """P_M plus the negated negative part has the same hull as the positive
    part, via explicit pairwise Minkowski sums on small matroids."""
    for entry in catalog5:
        m = entry.matroid
        if m.n > 4:
            continue
        d = decompose_base_polytope(m)
        left = vertices_base(m)
        for mask, c in sorted(d.coeffs.items()):
            for _ in range(-c if c < 0 else 0):
                left = minkowski_sum_vertices(left, simplex_vertices(m.n, mask))
        right = VertexSet(m.n, ((0,) * m.n,))  # empty sum is the origin
        for mask, c in sorted(d.coeffs.items()):
            for _ in range(c if c > 0 else 0):
                right = minkowski_sum_vertices(right, simplex_vertices(m.n, mask))
        assert left.points == right.points, entry.name


def test_dd_matches_exhaustive_enumeration():
    rng = random.Random(23)
    cases = [
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ]
    for _ in range(20):
        d = rng.choice((2, 3))
        pts = {tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(4, 9))}
        cases.append(sorted(pts))
    for pts in cases:
        from matvol.hull import affine_rank

        if affine_rank(pts) != len(pts[0]):
            continue
        assert dd_facets(pts) == exhaustive_facets(pts)


def test_normalized_volume_cube():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert normalized_volume(cube) == 1
    stretched = [(2 * x, y, z) for x, y, z in cube]
    assert normalized_volume(stretched) == 2


def test_vertex_set_validation():
    with pytest.raises(ValueError):
        VertexSet(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        VertexSet(2, ((0, 0, 1),))


# Exact facets of lower-dimensional hulls, recorded before the affine chart
# moved from rational Gram-inverse coordinates to integer ones.

def test_hull_facets_codimension_two_triangle_golden():
    from matvol.matroid import direct_sum

    triangle = vertices_base(direct_sum(uniform(1, 1), uniform(2, 3)))
    assert triangle.affine_dim == 2
    assert hull_facets(triangle) == [
        ((1, 0, 0, 3), 4),
        ((1, 0, 3, 0), 4),
        ((1, 3, 0, 0), 4),
    ]


def test_hull_facets_tilted_plane_golden():
    # five points on x + 2y + 3z = 6; the coordinate sums differ, so the
    # normals are not reduced modulo the all-ones vector
    v = VertexSet(3, ((0, 0, 2), (0, 3, 0), (1, 1, 1), (3, 0, 1), (6, 0, 0)))
    assert v.affine_dim == 2
    assert hull_facets(v) == [((-13, 2, 3), 6), ((1, -5, 3), 6), ((3, 6, -5), 18)]


@pytest.mark.parametrize("n, facets, volume", [(3, 6, 3), (4, 14, 16), (5, 30, 125)])
def test_permutohedron_golden(n, facets, volume):
    # the flag polytope of U(n-1, n) is the permutohedron of order n: one facet
    # per proper nonempty subset, and n^(n-2) unit simplices (Cayley's formula)
    v = vertices_flag(uniform(n - 1, n))
    assert len(hull_facets(v)) == 2**n - 2 == facets
    assert volume_exact(v, LatticeFrame.ROOT) == volume == n ** (n - 2)


def test_permutohedron_golden_at_the_flag_cap():
    # order 6, the largest permutohedron verify's flag check hulls: 62 facets
    # and 6^4 unit simplices
    v = vertices_flag(uniform(5, 6))
    assert len(hull_facets(v)) == 2**6 - 2 == 62
    assert volume_exact(v, LatticeFrame.ROOT) == 1296 == 6**4


def test_dd_matches_exhaustive_on_catalog4_oracle_sets():
    # the point sets the oracle hulls are degenerate (0/1 vertices and flag
    # sums with many points on each facet), unlike random grids
    from matvol.catalog import full_catalog
    from matvol.hull import affine_rank

    sets = []
    for entry in full_catalog(4):
        m = entry.matroid
        for v, drop_last in ((vertices_base(m), True), (vertices_indep(m), False), (vertices_flag(m), True)):
            pts = [p[:-1] for p in v.points] if drop_last else list(v.points)
            if pts[0] and affine_rank(pts) == len(pts[0]):
                sets.append(pts)
    assert len(sets) == 51
    for pts in sets:
        assert dd_facets(pts) == exhaustive_facets(pts), pts


@pytest.mark.parametrize("hull_routine", [dd_facets, normalized_volume])
def test_empty_point_set_is_refused_as_not_full_dimensional(hull_routine):
    with pytest.raises(ValueError, match="full-dimensional"):
        hull_routine([])


@pytest.mark.parametrize("points", [(), ((1, 1),)])
def test_hull_of_at_most_one_point_has_no_facets(points):
    with pytest.raises(DegenerateInput, match="^a hull of at most one point has no facets$"):
        hull_facets(VertexSet(2, points))


def test_standard_volume_of_the_empty_point_set_is_a_dimension_mismatch():
    """At n = 0 the empty set has affine rank 0 = n, yet it spans nothing."""
    with pytest.raises(DimensionMismatch, match="^standard-lattice volume needs a full-dimensional point set$"):
        volume_exact(VertexSet(0, ()), LatticeFrame.STANDARD)


def test_minkowski_sum_of_different_ambient_dimensions_is_refused():
    with pytest.raises(DimensionMismatch, match="^ambient dimensions differ: 2 vs 3$"):
        minkowski_sum_vertices(simplex_vertices(2, 0b11), simplex_vertices(3, 0b111))


def test_volume_exact_refuses_an_unknown_frame():
    with pytest.raises(ValueError, match="^unknown lattice frame 'root'$"):
        volume_exact(vertices_indep(U23), "root")
