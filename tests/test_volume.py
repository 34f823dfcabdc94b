import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvol.decomposition import (
    FAMILY_DELTA,
    decompose_base_polytope,
    decompose_independent_polytope,
    make_decomposition,
)
from matvol.errors import DimensionMismatch, DisconnectedMatroid
from matvol.matroid import direct_sum, dual, from_bases, is_connected, uniform
from matvol.pyramid import pyramid_volume_independent
from matvol.volume import (
    TermGroup,
    _SizeGraded,
    dragon_marriage,
    dragon_marriage_intersection_bounds,
    flag_volume_ordered_terms,
    independent_volume_census,
    orbit_degree,
    ordered_contributing_terms,
    sdr_condition,
    sdr_condition_intersection_bounds,
    signed_tuple_sum,
    signed_tuple_sum_ordered,
    volume_base_polytope,
    volume_independent_polytope,
    volume_signed_sum,
    volume_truncation_flag,
)

PYRAMID = from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])
U23 = uniform(2, 3)


def test_dragon_marriage_examples():
    assert dragon_marriage((0, 0), 3)
    assert not dragon_marriage((0b001, 0b001), 3)
    assert dragon_marriage((0b001, 0b010), 3)


def test_sdr_examples():
    assert sdr_condition((0, 0, 0), 3)
    assert not sdr_condition((0b001, 0b001, 0b001), 3)
    assert sdr_condition((0b010, 0b001, 0), 3)


def test_condition_checkers_agree_exhaustively():
    for n in (3, 4):
        subsets = range(1 << n)
        for sets in product(subsets, repeat=n - 1):
            assert dragon_marriage(sets, n) == dragon_marriage_intersection_bounds(sets, n)
        for sets in product(subsets, repeat=n):
            assert sdr_condition(sets, n) == sdr_condition_intersection_bounds(sets, n)


def test_condition_checkers_agree_random():
    rng = random.Random(99)
    for n in (5, 6):
        full = (1 << n) - 1
        for _ in range(2000):
            dragon = tuple(rng.randint(0, full) for _ in range(n - 1))
            assert dragon_marriage(dragon, n) == dragon_marriage_intersection_bounds(dragon, n)
            sdr = tuple(rng.randint(0, full) for _ in range(n))
            assert sdr_condition(sdr, n) == sdr_condition_intersection_bounds(sdr, n)


def test_tuple_sum_against_ordered_enumeration():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 4)
        support = []
        for mask in rng.sample(range(1 << n), rng.randint(1, min(5, 1 << n))):
            support.append((mask, rng.randint(-3, 3)))
        for strict, length in ((True, n - 1), (False, n)):
            fast = signed_tuple_sum(support, length, n, strict)
            slow = signed_tuple_sum_ordered(support, length, n, strict)
            assert fast == slow, (support, n, strict)


def test_volume_base_goldens():
    assert volume_base_polytope(uniform(1, 3)) == Fraction(1, 2)
    assert volume_base_polytope(U23) == Fraction(1, 2)
    assert volume_base_polytope(uniform(2, 4)) == Fraction(2, 3)
    assert volume_base_polytope(PYRAMID) == Fraction(1, 3)


def test_volume_base_hypersimplex_eulerian():
    # normalized hypersimplex volumes are Eulerian numbers over (n-1)!
    eulerian = {(2, 5): 11, (2, 6): 26, (3, 6): 66}
    for (k, n), a in eulerian.items():
        assert volume_base_polytope(uniform(k, n)) == Fraction(a, factorial(n - 1))


def test_volume_independent_goldens():
    assert volume_independent_polytope(U23) == Fraction(5, 6)
    assert volume_independent_polytope(uniform(1, 1)) == 1
    assert volume_independent_polytope(uniform(1, 2)) == Fraction(1, 2)


def test_independent_census_u23():
    census = independent_volume_census(U23)
    assert census == {
        (1, 1, 1): TermGroup(24, 24),
        (0, 1, 1): TermGroup(27, -27),
        (0, 0, 1): TermGroup(9, 9),
        (0, 0, 0): TermGroup(1, -1),
    }
    total = sum(group.signed_sum for group in census.values())
    assert Fraction(total, 6) == Fraction(5, 6)


def test_volume_flag_goldens():
    m = from_bases(3, [0b011, 0b101])
    assert volume_truncation_flag(m) == Fraction(3, 2)
    for n in (2, 3, 4):
        assert volume_truncation_flag(uniform(1, n)) == Fraction(1, factorial(n - 1))


def test_flag_contributing_terms():
    m = from_bases(3, [0b011, 0b101])
    terms = flag_volume_ordered_terms(m)
    assert sorted(t for t, _ in terms) == [(0, 0), (0, 1), (1, 0)]
    assert all(p == 1 for _, p in terms)


def test_flag_volume_rejects_loops():
    loopy = from_bases(2, [0b01])  # element 2 is a loop
    with pytest.raises(DisconnectedMatroid):
        volume_truncation_flag(loopy)
    with pytest.raises(DisconnectedMatroid):
        flag_volume_ordered_terms(loopy)


def test_volume_signed_sum_examples():
    assert volume_signed_sum(decompose_base_polytope(U23)) == Fraction(1, 2)
    for n in (2, 3, 4):
        single = make_decomposition(n, FAMILY_DELTA, {(1 << n) - 1: 1})
        assert volume_signed_sum(single) == Fraction(1, factorial(n - 1))
    assert volume_signed_sum(decompose_independent_polytope(U23)) == Fraction(5, 6)


def test_volume_signed_sum_matches_engine_connected(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if not is_connected(m):
            continue
        d = decompose_base_polytope(m)
        assert volume_signed_sum(d) == volume_base_polytope(m), entry.name
        di = decompose_independent_polytope(m)
        assert volume_signed_sum(di) == volume_independent_polytope(m), entry.name


def test_disconnected_volumes_are_products():
    m = direct_sum(U23, uniform(1, 2))
    assert volume_base_polytope(m) == Fraction(1, 2) * Fraction(1, 1)
    assert volume_independent_polytope(m) == Fraction(5, 6) * Fraction(1, 2)
    loopy = direct_sum(U23, uniform(0, 1))
    assert volume_base_polytope(loopy) == Fraction(1, 2)
    assert volume_independent_polytope(loopy) == 0


def test_volume_duality(catalog5):
    for entry in catalog5:
        m = entry.matroid
        assert volume_base_polytope(m) == volume_base_polytope(dual(m)), entry.name


def test_dual_switch_agrees_with_direct_sum():
    # U23 has four coconnected flats, its dual U13 has one; both supports
    # must give the same tuple sum
    from matvol.volume import _beta_support

    for m in (U23, uniform(2, 4), PYRAMID):
        direct = signed_tuple_sum(_beta_support(m), m.n - 1, m.n, strict=True)
        dualized = signed_tuple_sum(_beta_support(dual(m)), m.n - 1, m.n, strict=True)
        assert Fraction(direct, factorial(m.n - 1)) == Fraction(dualized, factorial(m.n - 1))
        assert volume_base_polytope(m) == Fraction(direct, factorial(m.n - 1))


def test_normalized_volume_is_integer(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if not is_connected(m):
            continue
        scaled = volume_base_polytope(m) * factorial(m.n - 1)
        assert scaled.denominator == 1, entry.name


def test_orbit_degree_examples():
    assert orbit_degree(uniform(1, 3)) == (Fraction(1, 2), 1)
    assert orbit_degree(uniform(2, 4)) == (Fraction(2, 3), 4)
    vol = volume_base_polytope(PYRAMID)
    assert orbit_degree(PYRAMID) == (vol, int(vol * 6))
    with pytest.raises(DisconnectedMatroid):
        orbit_degree(direct_sum(uniform(1, 1), uniform(1, 1)))


def test_thread_determinism_volumes():
    matroids = [U23, uniform(2, 4), uniform(2, 5), PYRAMID, from_bases(3, [0b011, 0b101])]
    for m in matroids:
        results_base = {volume_base_polytope(m, threads) for threads in (1, 2, 8)}
        results_indep = {volume_independent_polytope(m, threads) for threads in (1, 2, 8)}
        assert len(results_base) == 1
        assert len(results_indep) == 1


def test_census_rejects_disconnected():
    with pytest.raises(DisconnectedMatroid):
        independent_volume_census(direct_sum(uniform(1, 1), uniform(1, 1)))


def test_independent_census_groups_ordered_terms(catalog5):
    """The census walker against a grouping of the naive ordered enumeration."""
    from matvol.invariants import signed_beta_contractions

    checked = 0
    for entry in catalog5:
        m = entry.matroid
        if m.n > 4 or not is_connected(m):
            continue
        table = signed_beta_contractions(m)
        support = [(a, c) for a, c in enumerate(table) if c and a != m.full_mask]
        expected = {}
        for sets, prod in ordered_contributing_terms(support, m.n, m.n, strict=False):
            key = tuple(sorted(s.bit_count() for s in sets))
            tuples, signed = expected.get(key, (0, 0))
            expected[key] = (tuples + 1, signed + prod)
        census = independent_volume_census(m)
        assert census == {k: TermGroup(*v) for k, v in expected.items()}, entry.name
        checked += 1
    assert checked >= 5


@st.composite
def _tuple_sum_inputs(draw):
    n = draw(st.integers(1, 5))
    support = draw(st.lists(
        st.tuples(st.integers(0, (1 << n) - 1), st.integers(-3, 3)),
        max_size=5,
        unique_by=lambda mc: mc[0],
    ))
    return n, support


@settings(max_examples=200, deadline=None)
@given(_tuple_sum_inputs())
def test_tuple_sum_against_ordered_enumeration_property(inputs):
    """Every n from 1, the empty set among the masks, and supports whose
    walk collapses at the root (no set can violate a bound)."""
    n, support = inputs
    for strict, length in ((True, n - 1), (False, n)):
        fast = signed_tuple_sum(support, length, n, strict)
        assert fast == signed_tuple_sum_ordered(support, length, n, strict), (support, n, strict)


def _grouped_by_sizes(support, length, n, strict):
    """Count and signed sum of the valid ordered tuples, keyed by their
    sorted set sizes: the census by definition."""
    groups = {}
    for sets, prod in ordered_contributing_terms(support, length, n, strict):
        key = tuple(sorted(s.bit_count() for s in sets))
        tuples, signed = groups.get(key, (0, 0))
        groups[key] = (tuples + 1, signed + prod)
    return groups


@settings(max_examples=200, deadline=None)
@given(_tuple_sum_inputs())
def test_size_graded_tuple_sum_groups_ordered_terms_property(inputs):
    """The census coefficients through the volume engine, with its record
    dropping and collapse, against the naive ordered enumeration."""
    n, support = inputs
    graded = [(mask, _SizeGraded({(mask.bit_count(),): (1, c)})) for mask, c in support]
    for strict, length in ((True, n - 1), (False, n)):
        if length:
            total = signed_tuple_sum(graded, length, n, strict) or {}
            assert total == _grouped_by_sizes(support, length, n, strict), (support, n, strict)


def test_census_totals_against_the_pyramid_recursion(catalog5):
    """The signed sums of a census add up to n! Vol, and the recursion
    computes Vol without tuples."""
    checked = 0
    for entry in catalog5:
        m = entry.matroid
        if not is_connected(m):
            continue
        total = sum(group.signed_sum for group in independent_volume_census(m).values())
        assert total == factorial(m.n) * pyramid_volume_independent(m), entry.name
        checked += 1
    assert checked == 21


def test_census_at_n6():
    """U(3,6): one key per multiset of six contraction-set sizes that some
    valid tuple takes, and n! Vol = A(6,0) + A(6,1) + A(6,2) = 1 + 57 + 302."""
    census = independent_volume_census(uniform(3, 6))
    assert len(census) == 28
    assert all(len(key) == 6 for key in census)
    assert sum(group.signed_sum for group in census.values()) == 360


@st.composite
def _bulk_slot_inputs(draw):
    """Up to 8 sets on n <= 5 elements, any length 0..n, coefficients in
    -2..2 with 0 among them: wide sets keep intersection records live down
    to the last one or two slots, where the engine sums by bitsets."""
    n = draw(st.integers(1, 5))
    support = draw(st.lists(
        st.tuples(st.integers(0, (1 << n) - 1), st.integers(-2, 2)),
        max_size=8,
        unique_by=lambda mc: mc[0],
    ))
    return n, support, draw(st.integers(0, n)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_bulk_slot_inputs())
def test_bulk_last_slots_against_ordered_terms_property(inputs):
    """Integer and size-graded coefficients through the bitset sums of the
    last two slots against the naive ordered enumeration; a zero coefficient
    must leave no (0, 0) group behind."""
    n, support, length, strict = inputs
    terms = ordered_contributing_terms(support, length, n, strict)
    assert signed_tuple_sum(support, length, n, strict) == sum(prod for _, prod in terms)
    if length:
        graded = [(mask, _SizeGraded({(mask.bit_count(),): (1, c)})) for mask, c in support]
        groups = {}
        for sets, prod in terms:
            key = tuple(sorted(s.bit_count() for s in sets))
            tuples, signed = groups.get(key, (0, 0))
            groups[key] = (tuples + 1, signed + prod)
        assert (signed_tuple_sum(graded, length, n, strict) or {}) == groups


def test_tuple_volumes_past_the_oracle_cap_equal_the_recursion():
    """U(4,6) indep is a weak-bound sum over 57 sets; U(3,7) flag a strict
    one at n = 7, past the oracle's flag cap."""
    from matvol.pyramid import pyramid_volume_flag

    m = uniform(4, 6)
    assert volume_independent_polytope(m) == pyramid_volume_independent(m) == Fraction(331, 360)
    m = uniform(3, 7)
    assert volume_truncation_flag(m) == pyramid_volume_flag(m) == Fraction(1727, 30)


@pytest.mark.parametrize(
    "checker, length",
    [
        (dragon_marriage, 2),
        (dragon_marriage_intersection_bounds, 2),
        (sdr_condition, 3),
        (sdr_condition_intersection_bounds, 3),
    ],
)
def test_condition_checkers_refuse_a_tuple_of_the_wrong_length(checker, length):
    with pytest.raises(ValueError, match=f"^expected {length} subsets, got 1$"):
        checker((0,), 3)


def test_signed_sum_on_an_empty_ground_set_is_refused():
    with pytest.raises(DimensionMismatch, match="^signed sums need an ambient ground set$"):
        volume_signed_sum(make_decomposition(0, FAMILY_DELTA, {}))
