"""The tuple formula's transfer DP where a walk over multisets took seconds
or minutes: uniform goldens at n = 7 and 8, random graphic matroids of 7-8
edges against the pyramid recursion, and its work budget."""

import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pyramid import eulerian
from test_volume import _grouped_by_sizes

from matvol.errors import WorkBudgetExceeded, work_budget
from matvol.matroid import Graph, graphic, uniform
from matvol.pyramid import pyramid_volume_base, pyramid_volume_flag, pyramid_volume_independent
from matvol.volume import (
    _lacks,
    _SizeGraded,
    ordered_contributing_terms,
    signed_tuple_sum,
    volume_base_polytope,
    volume_independent_polytope,
    volume_truncation_flag,
)


@pytest.mark.parametrize("n, top", [(7, 6), (8, 4)])
def test_independent_volume_of_uniform_matroids_is_an_eulerian_sum(n, top):
    """n! Vol(P_I(U(k, n))) = A(n, 0) + ... + A(n, k - 1) for k <= ``top``;
    U(5,8) would need 2^33 bitset bits, past the budget."""
    for k in range(1, top + 1):
        expected = Fraction(sum(eulerian(n, i) for i in range(k)), factorial(n))
        assert volume_independent_polytope(uniform(k, n)) == expected, (k, n)
    assert Fraction(sum(eulerian(8, i) for i in range(4)), factorial(8)) == Fraction(1, 2)  # U(4,8)


def _graphic(seed: int, edges: int):
    """A seeded loopless graph with ``edges`` edges on 4-6 vertices: even
    seeds draw a Hamiltonian cycle plus chords (a connected matroid), odd
    seeds any edges, so bridges, parallel classes and several components
    occur."""
    rng = random.Random(seed)
    vertices = rng.randint(4, 6)
    pairs = [(v, v % vertices + 1) for v in range(1, vertices + 1)] if seed % 2 == 0 else []
    while len(pairs) < edges:
        pairs.append(tuple(rng.sample(range(1, vertices + 1), 2)))
    return graphic(Graph(vertices, tuple(pairs)))


@pytest.mark.parametrize("seed", range(10))
def test_tuple_formula_equals_the_recursion_on_graphic_matroids(seed):
    """Base volumes at 8 edges, independent set and flag volumes at 7."""
    m = _graphic(seed, 8)
    assert volume_base_polytope(m) == pyramid_volume_base(m), seed
    m = _graphic(seed, 7)
    assert volume_independent_polytope(m) == pyramid_volume_independent(m), seed
    assert volume_truncation_flag(m) == pyramid_volume_flag(m), seed


@st.composite
def _n6_inputs(draw):
    support = draw(st.lists(
        st.tuples(st.integers(0, 63), st.integers(-2, 2)),
        max_size=4,
        unique_by=lambda mc: mc[0],
    ))
    return support, draw(st.integers(0, 6)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_n6_inputs())
def test_tuple_sum_at_n6_against_ordered_terms_property(inputs):
    """Integer and size-graded coefficients at n = 6, any length, either
    bound, against the naive ordered enumeration."""
    support, length, strict = inputs
    terms = ordered_contributing_terms(support, length, 6, strict)
    assert signed_tuple_sum(support, length, 6, strict) == sum(prod for _, prod in terms)
    if length:
        graded = [(mask, _SizeGraded({(mask.bit_count(),): (1, c)})) for mask, c in support]
        expected = _grouped_by_sizes(support, length, 6, strict)
        assert (signed_tuple_sum(graded, length, 6, strict) or {}) == expected


def test_lacks_marks_the_subsets_without_each_element():
    for n in range(1, 8):
        for e, bits in enumerate(_lacks(n)):
            assert bits == sum(1 << t for t in range(1 << n) if not t >> e & 1), (n, e)


def test_oversized_tuple_sums_raise_within_a_second():
    start = time.perf_counter()
    with pytest.raises(WorkBudgetExceeded):
        volume_independent_polytope(uniform(6, 12))
    with pytest.raises(WorkBudgetExceeded):
        signed_tuple_sum([(0, 1)], 3, 10**11, strict=False)  # refused before any mask is built
    assert time.perf_counter() - start < 1


def test_tuple_sum_refusal_wording():
    with pytest.raises(WorkBudgetExceeded) as refused:
        volume_independent_polytope(uniform(6, 12))
    assert str(refused.value) == "the tuple sum needs more than 1073741824 bitset bits; this input is too large for it"


def test_work_budget_refuses_the_charge_that_passes_its_limit():
    charge = work_budget(10, "the test", "units")
    charge(4)
    charge(6)  # 10, at the limit
    with pytest.raises(WorkBudgetExceeded, match="^the test needs more than 10 units; this input is too large for it$"):
        charge(1)
