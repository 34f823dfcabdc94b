from math import comb

from matvol.bitset import popcounts
from matvol.invariants import (
    beta,
    gamma,
    gamma_from_rank_sum,
    signed_beta,
    signed_beta_contractions,
    signed_gamma,
    signed_gamma_contractions,
    tutte,
)
from matvol.matroid import (
    Graph,
    contract,
    direct_sum,
    dual,
    from_bases,
    graphic,
    uniform,
)

PYRAMID = from_bases(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])


def cycle_matroid(k):
    edges = tuple((i, i % k + 1) for i in range(1, k + 1))
    return graphic(Graph(k, edges))


def test_tutte_u23():
    t = tutte(uniform(2, 3))
    assert t.as_dict() == {(2, 0): 1, (1, 0): 1, (0, 1): 1}


def test_tutte_coloop():
    assert tutte(uniform(1, 1)).as_dict() == {(1, 0): 1}


def test_tutte_counts_bases_and_independents(catalog5):
    for entry in catalog5:
        m = entry.matroid
        t = tutte(m)
        assert t.evaluate(1, 1) == len(m.bases), entry.name
        independents = sum(1 for s in range(1 << m.n) if m.is_independent(s))
        assert t.evaluate(2, 1) == independents, entry.name
        assert all(c > 0 for _, c in t.coeffs), entry.name


def test_tutte_pyramid_basis_count():
    assert tutte(PYRAMID).evaluate(1, 1) == 5


def test_beta_examples():
    assert beta(uniform(2, 3)) == 1
    assert beta(direct_sum(uniform(1, 1), uniform(1, 1))) == 0
    assert beta(uniform(2, 4)) == 2


def test_beta_uniform_closed_form():
    for n in range(2, 7):
        for k in range(1, n):
            assert beta(uniform(k, n)) == comb(n - 2, k - 1)


def test_signed_beta_examples():
    assert signed_beta(uniform(2, 3)) == -1
    assert signed_beta(uniform(1, 3)) == 1
    assert signed_beta(direct_sum(uniform(1, 1), uniform(1, 1))) == 0


def test_beta_equals_tutte_corner(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.n < 2:
            continue
        t = tutte(m)
        b = beta(m)
        assert b == t.coefficient(1, 0) == t.coefficient(0, 1), entry.name


def test_beta_self_dual(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.n >= 2:
            assert beta(m) == beta(dual(m)), entry.name


def test_beta_one_for_series_parallel_cycles():
    for k in range(2, 7):
        assert beta(cycle_matroid(k)) == 1


def test_beta_k4_not_series_parallel():
    k4 = graphic(Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))))
    assert beta(k4) == 2


def test_gamma_examples():
    # bases {12, 13}: gamma invariant 1 for M and for M/1
    m = from_bases(3, [0b011, 0b101])
    assert signed_gamma(m) == 1
    assert signed_gamma(contract(m, 0b001)) == 1


def test_gamma_two_routes_agree(catalog5):
    for entry in catalog5:
        assert gamma(entry.matroid) == gamma_from_rank_sum(entry.matroid), entry.name


def test_gamma_uniform_small():
    # closed forms on a few hand-checkable cases
    assert gamma(uniform(1, 2)) == -1  # -C(-1, 0)
    assert gamma(uniform(2, 3)) == 0  # -C(0, 1)
    assert gamma(uniform(2, 4)) == -1  # -C(1, 1)
    assert gamma(direct_sum(uniform(1, 2), uniform(1, 1))) == 1  # C(0, 0)


def test_contraction_tables_match_definitions(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.n > 4:
            continue
        betas = signed_beta_contractions(m)
        gammas = signed_gamma_contractions(m)
        for a in range(1 << m.n):
            minor = contract(m, a)
            assert betas[a] == (0 if a == m.full_mask else signed_beta(minor)), entry.name
            assert gammas[a] == signed_gamma(minor), entry.name


def test_gamma_contraction_of_full_set_vanishes():
    for m in (uniform(2, 4), PYRAMID):
        assert signed_gamma_contractions(m)[m.full_mask] == 0


def test_signed_beta_contractions_uniform_at_the_ground_set_cap():
    # signed beta(M/A) = (-1)^(k-|A|+1) C(n-|A|-2, k-|A|-1) for |A| < k, else 0
    n, k = 20, 10
    by_size = [(-1) ** (k - s + 1) * comb(n - s - 2, k - s - 1) if s < k else 0 for s in range(n + 1)]
    assert signed_beta_contractions(uniform(k, n)) == [by_size[c] for c in popcounts(n)]
