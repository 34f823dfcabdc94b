"""Properties of the polytope volumes over random graphic matroids of up to
10 edges: loops, parallel edges and several components all occur.  About
half the graphs are a cycle with chords, which is 2-connected, so connected
matroids of 5-10 elements are common.  Random sparse paving matroids of up
to 7 elements add non-graphic connected ones."""

from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st
from test_pyramid import sparse_paving

from matvol.matroid import Graph, direct_sum, dual, graphic, is_connected
from matvol.oracle import LatticeFrame, vertices_base, vertices_flag, vertices_indep, volume_exact
from matvol.pyramid import pyramid_volume_base, pyramid_volume_flag, pyramid_volume_independent
from matvol.volume import volume_base_polytope, volume_independent_polytope, volume_truncation_flag


def _graphics(max_edges):
    @st.composite
    def draw_graphic(draw):
        vertices = draw(st.integers(1, 6))
        end = st.integers(1, vertices)
        if 2 <= vertices <= max_edges and draw(st.booleans()):
            cycle = [(v, v % vertices + 1) for v in range(1, vertices + 1)]
            chord = st.tuples(end, end).filter(lambda e: e[0] != e[1])
            edges = cycle + draw(st.lists(chord, max_size=max_edges - vertices))
        else:
            edges = draw(st.lists(st.tuples(end, end), min_size=1, max_size=max_edges))
        return graphic(Graph(vertices, tuple(edges)))

    return draw_graphic()


@settings(max_examples=150, deadline=None)
@given(_graphics(10))
def test_base_volume_is_dual_invariant(m):
    assert pyramid_volume_base(dual(m)) == pyramid_volume_base(m)


@settings(max_examples=150, deadline=None)
@given(_graphics(5), _graphics(5))
def test_volumes_of_a_direct_sum_are_the_products(m1, m2):
    m = direct_sum(m1, m2)
    assert pyramid_volume_base(m) == pyramid_volume_base(m1) * pyramid_volume_base(m2)
    assert pyramid_volume_independent(m) == pyramid_volume_independent(m1) * pyramid_volume_independent(m2)


@settings(max_examples=150, deadline=None)
@given(_graphics(10))
def test_base_volume_times_n_minus_1_factorial_is_an_integer(m):
    """The recursion is integer by construction for connected matroids, so
    the tuple formula's rational sum is checked too where it is cheap."""
    scale = factorial(m.n - 1)
    assert (pyramid_volume_base(m) * scale).denominator == 1
    if m.n <= 6:
        assert (volume_base_polytope(m) * scale).denominator == 1


@st.composite
def _sparse_pavings(draw, max_n):
    """U(k, n) with up to 10 circuit-hyperplanes relaxed back, in a random
    seeded pick; k = 1 gives loops, and no pick at all gives U(k, n)."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    m, _ = sparse_paving(k, n, draw(st.integers(0, 10)), draw(st.integers(0, 2**16)))
    return m


@settings(max_examples=200, deadline=None)
@given(_sparse_pavings(7))
def test_sparse_paving_base_volume_is_dual_invariant_and_integral(m):
    volume = pyramid_volume_base(m)
    assert pyramid_volume_base(dual(m)) == volume
    assert (volume * factorial(m.n - 1)).denominator == 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sparse_pavings(6), _graphics(6)))
def test_recursion_tuple_formula_and_oracle_agree_where_each_runs(m):
    """The tuple formula runs at n <= 6 for bases and n <= 5 for the D-family
    indep sum and for flags; the oracle needs a full-dimensional polytope
    (connected for bases, loopless for indep and flags) and n <= 5 for flags."""
    base = pyramid_volume_base(m)
    assert base == volume_base_polytope(m)
    if is_connected(m):
        assert base == volume_exact(vertices_base(m), LatticeFrame.ROOT)
    indep = pyramid_volume_independent(m)
    if m.n <= 5:
        assert indep == volume_independent_polytope(m)
    if m.has_loops():
        return
    assert indep == volume_exact(vertices_indep(m), LatticeFrame.STANDARD)
    if m.n <= 5:
        flag = pyramid_volume_flag(m)
        assert flag == volume_truncation_flag(m)
        assert flag == volume_exact(vertices_flag(m), LatticeFrame.ROOT)
