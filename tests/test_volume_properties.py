"""Properties of the polytope volumes over random graphic matroids of up to
10 edges: loops, parallel edges and several components all occur.  About
half the graphs are a cycle with chords, which is 2-connected, so connected
matroids of 5-10 elements are common."""

from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from matvol.matroid import Graph, direct_sum, dual, graphic
from matvol.pyramid import pyramid_volume_base, pyramid_volume_independent
from matvol.volume import volume_base_polytope


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
