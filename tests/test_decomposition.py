import random
from math import comb

import pytest

from matvol.decomposition import (
    FAMILY_D,
    FAMILY_DELTA,
    KIND_GP,
    KIND_Q,
    SignedDecomposition,
    ZProfile,
    add,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
    make_decomposition,
    scale,
    support_function,
    y_from_z_gp,
    y_from_z_q,
    z_from_matroid,
    z_from_matroid_indep,
    z_from_y_gp,
    z_from_y_q,
)
from matvol.errors import FamilyMismatch
from matvol.invariants import beta, signed_beta, signed_gamma
from matvol.matroid import contract, from_bases, is_connected, truncate, uniform

PYRAMID = from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])
U23 = uniform(2, 3)
U13 = uniform(1, 3)


def delta(n, coeffs):
    return make_decomposition(n, FAMILY_DELTA, coeffs)


def cone(n, coeffs):
    return make_decomposition(n, FAMILY_D, coeffs)


def test_z_from_matroid_u24():
    z = z_from_matroid(uniform(2, 4))
    for i in range(16):
        expected = 0 if i.bit_count() <= 2 else (1 if i.bit_count() == 3 else 2)
        assert z.values[i] == expected


def test_z_full_set_is_rank(catalog5):
    for entry in catalog5:
        m = entry.matroid
        assert z_from_matroid(m).values[m.full_mask] == m.rank_value, entry.name


def test_z_from_matroid_u13():
    z = z_from_matroid(U13)
    assert z.values[0b111] == 1
    assert all(z.values[i] == 0 for i in range(7))


def test_matroid_profile_monotone(catalog5):
    for entry in catalog5:
        m = entry.matroid
        z = z_from_matroid(m)
        for i in range(1 << m.n):
            for b in range(m.n):
                if not i >> b & 1:
                    assert z.values[i] <= z.values[i | (1 << b)], entry.name


def test_y_from_z_golden_u23():
    d = y_from_z_gp(z_from_matroid(U23))
    assert d == delta(3, {0b011: 1, 0b101: 1, 0b110: 1, 0b111: -1})


def test_y_from_zero_profile_is_empty():
    z = ZProfile(3, KIND_GP, tuple([0] * 8))
    assert y_from_z_gp(z).is_empty()


def test_y_from_z_u24():
    d = y_from_z_gp(z_from_matroid(uniform(2, 4)))
    expected = {mask: 1 for mask in range(16) if mask.bit_count() == 3}
    expected[0b1111] = -2
    assert d == delta(4, expected)
    assert d.coeffs[0b1111] == -2 == -beta(uniform(2, 4))


def test_gp_roundtrips_random():
    rng = random.Random(11)
    for n in range(3, 7):
        for _ in range(100):
            values = [0] + [rng.randint(-9, 9) for _ in range((1 << n) - 1)]
            z = ZProfile(n, KIND_GP, tuple(values))
            assert z_from_y_gp(y_from_z_gp(z)) == z
            coeffs = {m: rng.randint(-4, 4) for m in range(1, 1 << n) if rng.random() < 0.4}
            d = delta(n, coeffs)
            assert y_from_z_gp(z_from_y_gp(d)) == d


def test_q_transform_golden_indep_u23():
    d = y_from_z_q(z_from_matroid_indep(U23))
    assert d == cone(3, {0b011: 1, 0b101: 1, 0b110: 1, 0b111: -1})


def test_q_single_full_summand():
    d = cone(3, {0b111: 1})
    z = z_from_y_q(d)
    assert z.kind == KIND_Q
    assert z.values[0] == 0
    assert all(z.values[j] == 1 for j in range(1, 8))


def test_profile_roundtrips_on_catalog(catalog5):
    for entry in catalog5:
        zg = z_from_matroid(entry.matroid)
        assert z_from_y_gp(y_from_z_gp(zg)) == zg, entry.name
        zq = z_from_matroid_indep(entry.matroid)
        assert z_from_y_q(y_from_z_q(zq)) == zq, entry.name


def test_q_roundtrips_random():
    rng = random.Random(12)
    for n in range(3, 7):
        for _ in range(100):
            coeffs = {m: rng.randint(-4, 4) for m in range(1, 1 << n) if rng.random() < 0.4}
            d = cone(n, coeffs)
            assert y_from_z_q(z_from_y_q(d)) == d


def test_decompose_base_pyramid():
    d = decompose_base_polytope(PYRAMID)
    assert d == delta(4, {0b1110: 1, 0b1101: 1, 0b0011: 1, 0b1111: -1})


def test_decompose_base_u13():
    assert decompose_base_polytope(U13) == delta(3, {0b111: 1})


@pytest.mark.parametrize("n", [14, 16])
def test_decompose_base_uniform_closed_form(n):
    # y[E-A] = (-1)^(k-|A|+1) C(n-|A|-2, k-|A|-1) for |A| < k, else 0
    # (n - |A| >= 2 follows from |A| < k <= n - 1).
    full = (1 << n) - 1
    for k in range(1, n):
        by_size = [(-1) ** (k - s + 1) * comb(n - s - 2, k - s - 1) for s in range(k)]
        expected = {full ^ a: by_size[a.bit_count()] for a in range(1 << n) if a.bit_count() < k}
        assert decompose_base_polytope(uniform(k, n)) == delta(n, expected), k


def test_decompose_base_matches_transform(catalog5):
    for entry in catalog5:
        m = entry.matroid
        assert decompose_base_polytope(m) == y_from_z_gp(z_from_matroid(m)), entry.name


def test_decompose_indep_matches_transform(catalog5):
    for entry in catalog5:
        m = entry.matroid
        assert decompose_independent_polytope(m) == y_from_z_q(z_from_matroid_indep(m)), entry.name


def test_decompose_indep_examples():
    assert decompose_independent_polytope(U23) == cone(3, {0b011: 1, 0b101: 1, 0b110: 1, 0b111: -1})
    assert decompose_independent_polytope(uniform(1, 1)) == cone(1, {0b1: 1})
    base = decompose_base_polytope(PYRAMID)
    indep = decompose_independent_polytope(PYRAMID)
    assert dict(indep.coeffs) == dict(base.coeffs)
    assert indep.family == FAMILY_D


def test_decompose_flag_examples():
    # bases {12, 13}: the translation summand on {1} comes from contracting {2,3}
    m = from_bases(3, [0b011, 0b101])
    assert decompose_truncation_flag(m) == delta(3, {0b111: 1, 0b110: 1, 0b001: 1})
    assert decompose_truncation_flag(uniform(1, 4)) == delta(4, {0b1111: 1})
    assert decompose_truncation_flag(U23) == delta(3, {0b011: 1, 0b101: 1, 0b110: 1})


def test_each_coefficient_is_the_invariant_of_its_contraction(catalog5):
    """The summand on E - A carries signed beta (base, indep) or signed
    gamma (flag) of M/A, one contraction at a time; A = E, the empty
    summand, has the empty minor's invariant 0 and is never a key."""
    for entry in catalog5:
        m = entry.matroid
        base, indep, flag = (decompose_base_polytope(m), decompose_independent_polytope(m),
                             decompose_truncation_flag(m))
        assert all(0 not in d.coeffs for d in (base, indep, flag)), entry.name
        for a in range(1 << m.n):
            minor, summand = contract(m, a), m.full_mask ^ a
            assert base.coeffs.get(summand, 0) == signed_beta(minor), (entry.name, a)
            assert indep.coeffs.get(summand, 0) == signed_beta(minor), (entry.name, a)
            assert flag.coeffs.get(summand, 0) == signed_gamma(minor), (entry.name, a)


def test_flag_equals_truncation_sum(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.rank_value == 0:
            continue
        total = decompose_base_polytope(truncate(m, 1))
        for i in range(2, m.rank_value + 1):
            total = add(total, decompose_base_polytope(truncate(m, i)))
        assert total == decompose_truncation_flag(m), entry.name


def test_add_examples():
    d = decompose_base_polytope(U23)
    empty = delta(3, {})
    assert add(d, empty) == d
    assert add(decompose_base_polytope(U13), d) == decompose_truncation_flag(U23)
    assert add(d, scale(d, -1)).is_empty()


def test_add_family_mismatch():
    with pytest.raises(FamilyMismatch):
        add(decompose_base_polytope(U23), decompose_independent_polytope(U23))
    with pytest.raises(FamilyMismatch):
        add(decompose_base_polytope(U23), decompose_base_polytope(uniform(2, 4)))


def test_support_function_examples():
    d = decompose_base_polytope(U23)
    assert support_function(d, [1, 0, 0]) == 1
    assert support_function(d, [0, 0, 0]) == 0
    di = decompose_independent_polytope(U23)
    assert support_function(di, [-1, -1, -1]) == 0


def test_support_function_identity_random(catalog5):
    rng = random.Random(5)
    for entry in catalog5:
        m = entry.matroid
        d = decompose_base_polytope(m)
        for _ in range(25):
            w = [rng.randint(-9, 9) for _ in range(m.n)]
            direct = max(sum(w[e] for e in range(m.n) if b >> e & 1) for b in m.bases)
            assert support_function(d, w) == direct, entry.name


def test_support_function_identity_indep(catalog5):
    rng = random.Random(6)
    for entry in catalog5:
        m = entry.matroid
        d = decompose_independent_polytope(m)
        for _ in range(25):
            w = [rng.randint(-9, 9) for _ in range(m.n)]
            direct = max(
                sum(w[e] for e in range(m.n) if s >> e & 1)
                for s in range(1 << m.n)
                if m.is_independent(s)
            )
            assert support_function(d, w) == direct, entry.name


def test_series_parallel_iff_unit_coefficients(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if not is_connected(m) or m.n < 2:
            continue
        d = decompose_base_polytope(m)
        series_parallel = beta(m) == 1
        all_unit = all(abs(c) == 1 for c in d.coeffs.values())
        assert series_parallel == all_unit, entry.name


def test_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        SignedDecomposition(3, FAMILY_DELTA, {0b001: 0})
    with pytest.raises(ValueError):
        SignedDecomposition(3, FAMILY_DELTA, {0: 1})


def test_profile_validation():
    with pytest.raises(ValueError):
        ZProfile(2, KIND_GP, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        ZProfile(2, "bad", (0, 0, 0, 0))
    with pytest.raises(FamilyMismatch):
        y_from_z_gp(ZProfile(2, KIND_Q, (0, 0, 0, 0)))


def test_profile_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="^profile needs 4 values, got 3$"):
        ZProfile(2, KIND_GP, (0, 0, 0))


def test_unknown_summand_family_is_refused():
    with pytest.raises(ValueError, match="^unknown summand family 'Q'$"):
        SignedDecomposition(2, "Q", {0b01: 1})


def test_transforms_refuse_the_other_family():
    with pytest.raises(FamilyMismatch, match="^expected a Delta decomposition, got D$"):
        z_from_y_gp(cone(2, {0b11: 1}))
    with pytest.raises(FamilyMismatch, match="^expected a Q profile, got GP$"):
        y_from_z_q(ZProfile(2, KIND_GP, (0, 1, 1, 1)))
    with pytest.raises(FamilyMismatch, match="^expected a D decomposition, got Delta$"):
        z_from_y_q(delta(2, {0b11: 1}))


def test_support_function_refuses_a_direction_of_the_wrong_length():
    with pytest.raises(ValueError, match="^direction has length 2, expected 3$"):
        support_function(decompose_base_polytope(U23), [1, 0])
