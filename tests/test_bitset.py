"""The subset fold on packed lanes against its per-subset definition."""

import random
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvol.bitset import elements_of, fold_subsets, format_subset, set_bits, subset_formatter
from matvol.decomposition import mobius_subsets, zeta_subsets


def _submasks(mask):
    sub_mask = mask
    while True:
        yield sub_mask
        if not sub_mask:
            return
        sub_mask = (sub_mask - 1) & mask


def _fold_by_definition(values, n, op, upward):
    """Each S folds every T on its side of S, signed by |S xor T| for sub:
    upward the T below S, downward the T above it."""
    full = (1 << n) - 1
    out = []
    for s in range(1 << n):
        others = _submasks(s) if upward else (full ^ x for x in _submasks(full ^ s))
        total = 0
        for t in others:
            odd = op is sub and (s ^ t).bit_count() & 1
            total += -values[t] if odd else values[t]
        out.append(total)
    return out


@st.composite
def _tables(draw):
    """Random or extreme values at a random magnitude, as a list or bytes."""
    n = draw(st.integers(0, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return n, bytes(rng.randrange(256) for _ in range(1 << n))
    top = 1 << draw(st.integers(0, 100))
    shape = draw(st.sampled_from(["random", "max", "min", "alternating"]))
    if shape == "random":
        values = [rng.randint(-top, top) for _ in range(1 << n)]
    elif shape == "alternating":
        values = [-top if s.bit_count() & 1 else top for s in range(1 << n)]
    else:
        values = [top if shape == "max" else -top] * (1 << n)
    return n, values


@settings(max_examples=150, deadline=None)
@given(_tables(), st.sampled_from([add, sub]), st.booleans())
def test_fold_matches_per_subset_definition(table, op, upward):
    n, values = table
    assert fold_subsets(values, n, op, upward) == _fold_by_definition(values, n, op, upward)


@pytest.mark.parametrize("op", [add, sub])
@pytest.mark.parametrize("upward", [True, False])
@pytest.mark.parametrize("magnitude", [15, 31, 63, 64, 100])
def test_fold_at_lane_width_edges(op, upward, magnitude):
    # max|v| * 2^n = 2^magnitude: one bit more than a signed 16/32/64-bit lane holds
    for n in (0, 3, 9):
        for sign in (1, -1):
            values = [sign << (magnitude - n)] * (1 << n)
            assert fold_subsets(values, n, op, upward) == _fold_by_definition(values, n, op, upward)
            alternating = [v if s.bit_count() & 1 else -v for s, v in enumerate(values)]
            assert fold_subsets(alternating, n, op, upward) == _fold_by_definition(alternating, n, op, upward)


def test_fold_of_bytes_equals_fold_of_list():
    # bytes up to 0x7FFF >> n fit 16-bit lanes, one more does not
    rng = random.Random(8)
    for n in range(14):
        fits16 = 0x7FFF >> n
        for top in sorted({1, min(fits16, 255), min(fits16 + 1, 255), 255}):
            for table in (bytes([top]) * (1 << n), bytes(rng.randint(0, top) for _ in range(1 << n))):
                for op in (add, sub):
                    for upward in (True, False):
                        assert fold_subsets(table, n, op, upward) == fold_subsets(list(table), n, op, upward)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32), st.integers(0, 100))
def test_zeta_and_mobius_invert_each_other(n, seed, bits):
    rng = random.Random(seed)
    values = [rng.randint(-(1 << bits), 1 << bits) for _ in range(1 << n)]
    assert mobius_subsets(zeta_subsets(values, n), n) == values
    assert zeta_subsets(mobius_subsets(values, n), n) == values


def test_fold_rejects_other_ops_and_lengths():
    with pytest.raises(TypeError):
        fold_subsets([1, 2], 1, mul)
    with pytest.raises(TypeError):
        fold_subsets([1, 2], 1, lambda a, b: a + b)
    with pytest.raises(ValueError):
        fold_subsets([1, 2, 3], 1, add)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subset_formatter_matches_format_subset(data):
    n = data.draw(st.integers(0, 20))
    render = subset_formatter(n)
    for mask in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50)) + [0, (1 << n) - 1]:
        assert render(mask) == format_subset(mask)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 70) - 1))
def test_set_bits_walks_the_set_bits_in_order(mask):
    expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert set_bits(mask) == expected
    assert elements_of(mask) == tuple(i + 1 for i in expected)
