import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvol.bitset import elements_of, mask_of, popcounts
from matvol.errors import (
    EmptyBasisFamily,
    ExchangeAxiomViolation,
    GroundSetTooLarge,
    InvalidTruncationRank,
    InvalidUniformParams,
    UnequalCardinality,
)
from matvol.invariants import beta
from matvol.matroid import (
    Graph,
    Matroid,
    _is_submodular,
    coconnected_flats,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    graphic,
    is_connected,
    minor_table,
    restriction,
    truncate,
    uniform,
)

PYRAMID_BASES = [0b0011, 0b0101, 0b1001, 0b0110, 0b1010]  # 12 13 14 23 24


@pytest.fixture
def pyramid():
    return from_bases(4, PYRAMID_BASES)


def test_from_bases_pyramid(pyramid):
    assert pyramid.rank_value == 2
    assert len(pyramid.bases) == 5


def test_from_bases_single_coloop():
    m = from_bases(1, [0b1])
    assert m.rank_value == 1
    assert m.bases == frozenset({1})


def test_from_bases_unequal_cardinality():
    with pytest.raises(UnequalCardinality):
        from_bases(3, [0b011, 0b100])


def test_from_bases_empty():
    with pytest.raises(EmptyBasisFamily):
        from_bases(3, [])


def test_from_bases_exchange_violation():
    # {1,2} and {3,4} admit no exchange for element 1
    with pytest.raises(ExchangeAxiomViolation):
        from_bases(4, [0b0011, 0b1100])


def test_exchange_violation_names_the_basis_and_the_element():
    with pytest.raises(ExchangeAxiomViolation) as info:
        from_bases(4, [0b0011, 0b1100])
    assert str(info.value) == "no exchange for element 1 of basis [1, 2] against basis [3, 4]"


def test_ground_set_cap():
    with pytest.raises(GroundSetTooLarge):
        from_bases(21, [1])


def test_rank_examples(pyramid):
    assert pyramid.rank(mask_of([1, 2])) == 2
    assert pyramid.rank(0) == 0
    assert uniform(2, 4).rank(mask_of([1, 2, 3])) == 2


def test_rank_memo_matches_fresh_computation(catalog5):
    for entry in catalog5:
        m = entry.matroid
        for s in range(1 << m.n):
            fresh = max((s & b).bit_count() for b in m.bases)
            assert m.rank(s) == fresh, entry.name


def test_rank_submodular(catalog5):
    rng = random.Random(20260810)
    for entry in catalog5:
        m = entry.matroid
        full = m.full_mask
        for _ in range(1000):
            a = rng.randint(0, full)
            b = rng.randint(0, full)
            assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b), entry.name


def test_contract_drops_rank():
    m = contract(uniform(2, 3), mask_of([1]))
    assert m == uniform(1, 2)
    assert m.parent_labels == (2, 3)


def test_dual_uniform():
    assert dual(uniform(2, 3)) == uniform(1, 3)


def test_contract_pyramid_top(pyramid):
    m = contract(pyramid, mask_of([3, 4]))
    assert m.n == 2
    assert m.rank_value == 1
    assert m.bases == frozenset({0b01, 0b10})


def test_dual_involution(catalog5):
    for entry in catalog5:
        assert dual(dual(entry.matroid)) == entry.matroid, entry.name


def test_minor_commutation(catalog5):
    rng = random.Random(42)
    for entry in catalog5:
        m = entry.matroid
        if m.n < 2:
            continue
        for _ in range(20):
            a = rng.randint(0, m.full_mask)
            b = rng.randint(0, m.full_mask) & ~a
            if a == m.full_mask or (a | b) == m.full_mask and b:
                continue
            first = delete(contract(m, a), _relabel(m, a, b))
            second = contract(delete(m, b), _relabel(m, b, a))
            assert first.bases == second.bases, entry.name


def _relabel(parent, removed, target):
    """Mask of ``target`` in the child coordinates after removing ``removed``."""
    labels = elements_of(parent.full_mask & ~removed)
    out = 0
    for child_index, label in enumerate(labels, 1):
        if target >> (label - 1) & 1:
            out |= 1 << (child_index - 1)
    return out


def test_direct_sum_bases():
    m = direct_sum(uniform(1, 1), uniform(1, 1))
    assert m.n == 2
    assert m.bases == frozenset({0b11})
    assert not is_connected(m)


def test_truncate_examples():
    m = from_bases(3, [0b011, 0b101])
    t1 = truncate(m, 1)
    assert t1.bases == frozenset({0b001, 0b010, 0b100})
    assert truncate(m, m.rank_value) == m
    assert truncate(uniform(2, 4), 1) == uniform(1, 4)
    with pytest.raises(InvalidTruncationRank):
        truncate(m, 3)
    with pytest.raises(InvalidTruncationRank):
        truncate(m, 0)


def test_truncation_rank_function(catalog5):
    rng = random.Random(3)
    for entry in catalog5:
        m = entry.matroid
        if m.rank_value < 1:
            continue
        i = rng.randint(1, m.rank_value)
        t = truncate(m, i)
        for _ in range(30):
            s = rng.randint(0, m.full_mask)
            assert t.rank(s) == min(i, m.rank(s)), entry.name


def test_is_connected_examples(pyramid):
    assert is_connected(uniform(2, 3))
    assert not is_connected(direct_sum(uniform(1, 1), uniform(1, 1)))
    assert is_connected(pyramid)
    # exhaustive check of all proper splits of the pyramid matroid
    full = pyramid.full_mask
    for a in range(1, full):
        assert pyramid.rank(a) + pyramid.rank(full ^ a) > pyramid.rank_value


def test_single_element_connectivity():
    assert is_connected(uniform(1, 1))
    assert not is_connected(uniform(0, 1))


def test_components_of_direct_sum():
    m = direct_sum(uniform(2, 3), uniform(1, 2))
    assert components(m) == [0b00111, 0b11000]
    assert restriction(m, 0b00111) == uniform(2, 3)


def test_components_of_the_empty_matroid_are_none():
    assert components(Matroid(n=0, rank_value=0, bases=frozenset({0}))) == []


def test_components_at_the_ground_set_cap():
    assert components(uniform(20, 20)) == [1 << e for e in range(20)]
    assert components(direct_sum(uniform(5, 10), uniform(5, 10))) == [0x3FF, 0x3FF << 10]
    assert components(uniform(10, 20)) == [(1 << 20) - 1]


def test_coconnected_flats_examples():
    assert coconnected_flats(uniform(2, 3)) == [0, 0b001, 0b010, 0b100]
    assert coconnected_flats(uniform(1, 3)) == [0]
    free3 = uniform(3, 3)
    assert coconnected_flats(free3) == [0b011, 0b101, 0b110]


def test_coconnected_flats_match_beta_support(catalog5):
    for entry in catalog5:
        m = entry.matroid
        flats = coconnected_flats(m)
        by_connectivity = [
            a for a in range(1 << m.n)
            if a != m.full_mask and is_connected(contract(m, a))
        ]
        by_beta = [
            a for a in range(1 << m.n)
            if a != m.full_mask and beta(contract(m, a)) != 0
        ]
        assert sorted(flats) == by_connectivity == by_beta, entry.name


def test_uniform_examples():
    assert uniform(2, 3).bases == frozenset({0b011, 0b101, 0b110})
    assert uniform(4, 4).bases == frozenset({0b1111})
    assert uniform(0, 2).rank_value == 0
    with pytest.raises(InvalidUniformParams):
        uniform(3, 2)
    with pytest.raises(InvalidUniformParams):
        uniform(0, 0)


def test_graphic_triangle():
    g = Graph(3, ((1, 2), (2, 3), (3, 1)))
    assert graphic(g) == uniform(2, 3)


def test_graphic_with_loop_and_parallel():
    g = Graph(2, ((1, 2), (1, 2), (1, 1)))
    m = graphic(g)
    assert m.rank_value == 1
    assert m.bases == frozenset({0b001, 0b010})
    assert m.is_loop(3)


def _random_graphic(rng, edges):
    """Graphic matroid of a random loopless multigraph."""
    vertices = rng.randint(5, 6)
    return graphic(Graph(vertices, tuple(
        tuple(rng.sample(range(1, vertices + 1), 2)) for _ in range(edges)
    )))


def _random_graphics():
    rng = random.Random(20261017)
    return [_random_graphic(rng, n) for n in (7, 8, 9, 10, 11, 12, 12)]


def test_rank_table_matches_bases_past_n6():
    for m in _random_graphics():
        assert len(m.rank_table) == 1 << m.n
        for s in range(1 << m.n):
            assert m.rank(s) == max((s & b).bit_count() for b in m.bases), (m.n, s)


def test_truncation_and_minor_ranks_past_n6():
    rng = random.Random(7)
    for m in _random_graphics():
        r = m.rank_value
        for i in range(1, r + 1):
            t = truncate(m, i)
            assert t.rank_table == bytes(min(i, v) for v in m.rank_table), (m.n, i)
        for _ in range(3):
            a = rng.randint(0, m.full_mask - 1)
            c = contract(m, a)
            d = delete(m, a)
            for x in range(1 << c.n):
                lifted = mask_of(c.parent_labels[e - 1] for e in elements_of(x))
                assert c.rank(x) == m.rank(lifted | a) - m.rank(a), (m.n, a, x)
                assert d.rank(x) == m.rank(lifted), (m.n, a, x)


def _singletons(mask):
    return [1 << (e - 1) for e in elements_of(mask)]


def _satisfies_exchange(family):
    """Brute-force basis exchange: every B1, B2, x in B1 - B2 has a y in B2 - B1."""
    return all(
        any((b1 & ~x | y) in family for y in _singletons(b2 & ~b1))
        for b1 in family
        for b2 in family
        for x in _singletons(b1 & ~b2)
    )


@st.composite
def _basis_families(draw):
    """Equal-size families on n <= 7: arbitrary ones, and matroids missing some bases."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        every = [mask_of(c) for c in combinations(range(1, n + 1), k)]
        return n, frozenset(draw(st.sets(st.sampled_from(every), min_size=1)))
    if n >= 2 and draw(st.booleans()):
        m = _random_graphic(random.Random(draw(st.integers(0, 2**32))), n)
    else:
        m = uniform(draw(st.integers(0, n)), n)
    dropped = draw(st.sets(st.sampled_from(sorted(m.bases)), max_size=len(m.bases) - 1))
    return n, m.bases - dropped


@settings(max_examples=400, deadline=None)
@given(_basis_families())
def test_from_bases_accepts_exactly_exchange_families(case):
    n, family = case
    try:
        m = from_bases(n, family)
    except ExchangeAxiomViolation as exc:
        assert not _satisfies_exchange(family)
        found = re.fullmatch(
            r"no exchange for element (\d+) of basis \[(.*)\] against basis \[(.*)\]", str(exc)
        )
        assert found, str(exc)
        x = 1 << (int(found[1]) - 1)
        b1, b2 = (mask_of(int(e) for e in g.split(",") if e) for g in found.group(2, 3))
        assert b1 in family and b2 in family and x & b1 and not x & b2
        assert all((b1 & ~x | y) not in family for y in _singletons(b2 & ~b1))
    else:
        assert _satisfies_exchange(family)
        assert m.bases == family


@settings(max_examples=400, deadline=None)
@given(_basis_families())
def test_submodularity_alone_decides_the_exchange_axiom(case):
    """The walk that names a violation runs only after the submodularity
    test fails, so that test must be exact on its own."""
    n, family = case
    assert _is_submodular(from_bases(n, family, validate=False)) == _satisfies_exchange(family)


def test_rank_table_uniform_at_ground_set_cap():
    m = uniform(10, 20)
    assert m.rank_table == bytes(min(c, 10) for c in popcounts(20))


def test_from_bases_validates_uniform_8_16():
    bases = uniform(8, 16).bases
    assert from_bases(16, bases).rank_table == bytes(min(c, 8) for c in popcounts(16))
    # one missing basis leaves a (sparse paving) matroid; two that share seven
    # elements do not: {1..7, 10} - 10 takes neither 8 nor 9 from {2..9}
    relaxed = bases - {mask_of(range(1, 9))}
    assert from_bases(16, relaxed).bases == relaxed
    with pytest.raises(ExchangeAxiomViolation):
        from_bases(16, relaxed - {mask_of([*range(1, 8), 9])})


def _forests_by_brute_force(vertices, edges):
    """Maximal spanning forests as every C(m, r) edge set, each checked by a
    fresh union-find: r is the size of one greedy forest."""

    def forest_size(chosen):
        parent = list(range(vertices + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        count = 0
        for i in chosen:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru != rv:
                parent[ru] = rv
                count += 1
        return count

    rank = forest_size(range(len(edges)))
    found = {mask_of(i + 1 for i in c) for c in combinations(range(len(edges)), rank) if forest_size(c) == rank}
    return rank, frozenset(found)


@st.composite
def _multigraphs(draw):
    """Up to 11 edges on up to 6 vertices: loops, parallel edges and several
    components all occur."""
    vertices = draw(st.integers(1, 6))
    end = st.integers(1, vertices)
    edges = draw(st.lists(st.tuples(end, end), min_size=1, max_size=11))
    return vertices, tuple(edges)


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_graphic_bases_match_brute_force(case):
    vertices, edges = case
    m = graphic(Graph(vertices, edges))
    assert (m.rank_value, m.bases) == _forests_by_brute_force(vertices, edges)


def test_graphic_small_shapes():
    assert graphic(Graph(2, ((1, 2),))) == uniform(1, 1)
    assert graphic(Graph(1, ((1, 1),))) == uniform(0, 1)
    two_triangles = ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4))
    assert graphic(Graph(6, two_triangles)) == direct_sum(uniform(2, 3), uniform(2, 3))


def _random_monotone_table(n: int, rng: random.Random) -> bytes:
    """A random monotone set function on [n] with byte values: each set
    takes the largest value of the sets one element smaller, plus at most
    255 // n."""
    table = [0] * (1 << n)
    for x in range(1, 1 << n):
        table[x] = max(table[x ^ (1 << e)] for e in range(n) if x >> e & 1) + rng.randint(0, 255 // n)
    return bytes(table)


def test_minor_table_is_its_definition():
    """X -> f(X + C) - f(C), the elements of G relabeled 1, 2, ... in
    order, for every disjoint (G, C): G one run of bits with C below it (a
    strided slice), split runs, C above or inside G's span, and G empty."""
    rng = random.Random(7)
    shapes = set()
    for n in range(0, 9):
        for _ in range(2):
            f = _random_monotone_table(n, rng)
            for ground in range(1 << n):
                low = ground & -ground
                for contracted in range(1 << n):
                    if contracted & ground:
                        continue
                    labels = elements_of(ground)
                    expected = bytes(
                        f[mask_of(labels[i] for i in range(len(labels)) if x >> i & 1) | contracted] - f[contracted]
                        for x in range(1 << len(labels))
                    )
                    assert minor_table(f, ground, contracted) == expected, (n, ground, contracted)
                    run = not (ground + low) & ground
                    shapes.add((bool(ground), run, contracted < low))
    assert shapes == {(False, True, False), (True, True, True), (True, True, False), (True, False, True), (True, False, False)}


def test_removing_the_whole_ground_set_leaves_the_empty_matroid(catalog5):
    empty = Matroid(0, 0, {0})
    for entry in catalog5:
        m = entry.matroid
        for minor in (contract(m, m.full_mask), delete(m, m.full_mask)):
            assert minor == empty, entry.name
            assert minor.parent_labels == () and minor.rank_table == b"\x00", entry.name


def test_graph_edge_outside_the_vertex_range_is_refused():
    with pytest.raises(ValueError, match=re.escape("edge (1,3) outside vertex range 1..2")):
        Graph(2, ((1, 2), (1, 3)))


def test_matroid_fields_can_be_neither_assigned_nor_deleted(pyramid):
    with pytest.raises(AttributeError, match="^cannot assign to field 'n': matroids are immutable$"):
        pyramid.n = 5
    with pytest.raises(AttributeError, match="^cannot delete field 'bases': matroids are immutable$"):
        del pyramid.bases
    assert pyramid == from_bases(4, PYRAMID_BASES)


def test_from_bases_refuses_an_empty_ground_set_and_stray_elements():
    with pytest.raises(ValueError, match="^ground set must have at least one element, got n=0$"):
        from_bases(0, [0])
    with pytest.raises(ValueError, match=re.escape("basis mask 4 has elements outside 1..2")):
        from_bases(2, [0b01, 0b100])


def test_direct_sum_past_the_ground_set_cap_is_refused():
    with pytest.raises(GroundSetTooLarge, match="^direct sum has 21 > 20 elements$"):
        direct_sum(uniform(1, 11), uniform(1, 10))


def test_equal_matroids_from_different_routes_are_one_catalog_key():
    """``full_catalog`` dedupes by ``Matroid`` equality: U(2,3) built five
    ways compares equal, hashes equal and is one dict key, although the
    derived ones carry parent labels and the others do not."""
    routes = [
        uniform(2, 3),
        from_bases(3, [0b011, 0b101, 0b110]),
        graphic(Graph(3, ((1, 2), (2, 3), (1, 3)))),
        contract(uniform(3, 4), 0b1000),
        restriction(uniform(2, 4), 0b0111),
    ]
    assert len({m.parent_labels for m in routes}) == 2
    assert all(m == routes[0] and hash(m) == hash(routes[0]) for m in routes)
    assert len(dict.fromkeys(routes)) == 1
    assert uniform(2, 3) != (3, 2, uniform(2, 3).bases)
    assert repr(uniform(1, 2)) == "Matroid(n=2, rank_value=1, bases=frozenset({1, 2}))"
