import itertools
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matvol
from matvol.decomposition import (
    FAMILY_D,
    FAMILY_DELTA,
    SignedDecomposition,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
    make_decomposition,
    support_function,
)
from matvol.matroid import direct_sum, from_bases, truncate, uniform
from matvol.oracle import VertexSet, hull_facets
from matvol.verify import (
    Mismatch,
    _signed_sum_vertex_sets,
    _support_mismatches,
    greedy_max_basis,
    max_basis_weight,
    max_independent_weight,
    verify_matroid,
)
from matvol.volume import volume_signed_sum


def test_verify_passes_on_small_catalog(catalog5):
    for entry in catalog5:
        if entry.matroid.n > 4:
            continue
        checks, mismatches = verify_matroid(entry.matroid, entry.name)
        assert checks >= 2
        assert mismatches == [], entry.name


def test_signed_sum_of_disconnected_decomposition_is_flat():
    # a disconnected base polytope has lower dimension, so the mixed-volume
    # expansion of its decomposition measures 0 while the product rule does not
    m = direct_sum(uniform(1, 2), uniform(1, 1))
    assert volume_signed_sum(decompose_base_polytope(m)) == 0


def test_hull_facets_with_two_sum_constraints():
    # base polytope of U11 (+) U23: a triangle inside two fixed-sum planes
    m = direct_sum(uniform(1, 1), uniform(2, 3))
    points = VertexSet(4, tuple(sorted(
        tuple((b >> i) & 1 for i in range(4)) for b in m.bases
    )))
    assert points.affine_dim == 2
    assert len(hull_facets(points)) == 3


def test_flag_check_covers_disconnected_loopless():
    m = from_bases(3, [0b011, 0b101])  # disconnected, loopless
    checks, mismatches = verify_matroid(m, "chain")
    assert checks == 3
    assert mismatches == []


def test_support_directions_are_the_per_direction_draws():
    import random

    from matvol.verify import SUPPORT_DIRECTIONS, _support_directions

    for seed in (0, 1, 12345, 2**40 + 7):
        for n in range(1, 9):
            rng = random.Random(seed)
            one_by_one = [rng.choices(range(-9, 10), k=n) for _ in range(SUPPORT_DIRECTIONS)]
            assert _support_directions(seed, n) == one_by_one


def test_verify_refuses_ground_sets_past_its_reach(tmp_path):
    """U(10, 20) is past VERIFY_MAX_N: the CLI exits 2 before any check runs."""
    path = tmp_path / "u1020.matroid"
    path.write_text("n: 20\nuniform: 10 20\n")
    src = os.path.dirname(os.path.dirname(matvol.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "matvol.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: verify walks all n! coordinate orderings")


def greedy_vertex_sets(m, d):
    """The vertex-set check run the direct way: for each ordering, the greedy
    basis plus each negative summand's top element, and each positive
    summand's top element, one max per summand and ordering."""
    n = m.n
    neg = [(tuple(e for e in range(n) if mask >> e & 1), -c) for mask, c in d.coeffs.items() if c < 0]
    pos = [(tuple(e for e in range(n) if mask >> e & 1), c) for mask, c in d.coeffs.items() if c > 0]
    left, right = set(), set()
    pos_of = [0] * n
    for perm in itertools.permutations(range(n)):
        for position, e in enumerate(perm):
            pos_of[e] = n - position
        basis = greedy_max_basis(m, list(perm))
        point = [1 if basis >> e & 1 else 0 for e in range(n)]
        for elements, mult in neg:
            point[max(elements, key=pos_of.__getitem__)] += mult
        left.add(tuple(point))
        point = [0] * n
        for elements, mult in pos:
            point[max(elements, key=pos_of.__getitem__)] += mult
        right.add(tuple(point))
    return left, right


def assert_walk(d, optimum, w, support, optimum_value):
    """``_support_mismatches`` on the one direction w reports exactly the
    reference values when they differ, and nothing when they agree."""
    found = _support_mismatches(d, optimum, [w], "m", "check", "optimizers")
    if support == optimum_value:
        assert found == []
    else:
        detail = f"direction {w}: decomposition gives {support}, optimizers give {optimum_value}"
        assert found == [Mismatch("m", "check", detail)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_support_walk_is_support_function_and_greedy_on_catalog5(catalog5, data):
    """Every decomposition of a catalog(5) matroid against the rank table and
    the summed truncation tables, so that the two sides often differ and each
    is read off the message.  Entries in -3..3 make ties and zeros common."""
    m = data.draw(st.sampled_from(catalog5)).matroid
    w = data.draw(st.lists(st.integers(-3, 3), min_size=m.n, max_size=m.n))
    truncations = [truncate(m, i) for i in range(1, m.rank_value + 1)]
    flag_table = [sum(ranks) for ranks in zip(*(t.rank_table for t in truncations))]
    decompositions = [decompose_base_polytope(m), decompose_independent_polytope(m)]
    if not m.has_loops():
        decompositions.append(decompose_truncation_flag(m))
    for d in decompositions:
        greedy = max_independent_weight if d.family == FAMILY_D else max_basis_weight
        assert_walk(d, m.rank_table, w, support_function(d, w), greedy(m, w))
        if truncations:
            assert_walk(d, flag_table, w, support_function(d, w), sum(greedy(t, w) for t in truncations))


@st.composite
def _signed_sums(draw):
    """Random signed decompositions of either family on up to 6 elements, with
    a uniform matroid to optimize over; most are no matroid's decomposition."""
    n = draw(st.integers(1, 6))
    family = draw(st.sampled_from([FAMILY_DELTA, FAMILY_D]))
    coeffs = draw(st.dictionaries(st.integers(1, (1 << n) - 1), st.integers(-4, 4).filter(bool), max_size=10))
    w = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return SignedDecomposition(n, family, coeffs), uniform(draw(st.integers(0, n)), n), w


@settings(max_examples=400, deadline=None)
@given(_signed_sums())
def test_support_walk_on_random_signed_sums(case):
    d, m, w = case
    greedy = max_independent_weight if d.family == FAMILY_D else max_basis_weight
    assert_walk(d, m.rank_table, w, support_function(d, w), greedy(m, w))


def _off_by_one(d, mask, step):
    coeffs = dict(d.coeffs)
    coeffs[mask] = coeffs.get(mask, 0) + step
    return make_decomposition(d.n, d.family, coeffs)


def test_vertex_sets_are_the_greedy_ones(catalog5):
    """Equal sets on every catalog(5) decomposition, and on each one with one
    coefficient off by +-1, where the two sides must also differ."""
    rng = random.Random(1414)
    for entry in catalog5:
        m = entry.matroid
        d = decompose_base_polytope(m)
        left, right = _signed_sum_vertex_sets(m, d)
        assert (left, right) == greedy_vertex_sets(m, d), entry.name
        assert left == right, entry.name
        for step in (1, -1):
            wrong = _off_by_one(d, rng.choice([*d.coeffs, rng.randrange(1, 1 << m.n)]), step)
            left, right = _signed_sum_vertex_sets(m, wrong)
            assert (left, right) == greedy_vertex_sets(m, wrong), entry.name
            assert left != right, entry.name


def test_passing_base_checks_walk_no_orderings(catalog5, monkeypatch):
    """Equal rank and cover tables decide the base hull identity, so a
    passing verify walks no orderings; a corrupted base decomposition still
    walks them and is reported by the support and vertex-set checks."""
    import matvol.verify as verify

    calls = []
    walk = verify._signed_sum_vertex_sets

    def counting(m, d):
        calls.append(m)
        return walk(m, d)

    monkeypatch.setattr(verify, "_signed_sum_vertex_sets", counting)
    for entry in catalog5:
        assert verify_matroid(entry.matroid, entry.name)[1] == [], entry.name
    assert calls == []
    decompose = verify.decompose_base_polytope
    monkeypatch.setattr(verify, "decompose_base_polytope", lambda m: _off_by_one(decompose(m), m.full_mask, 1))
    found = [x.check for x in verify.check_base_polytope(uniform(2, 4), "u24")]
    assert found == ["base-decomposition", "base-support", "base-hull-identity"]
    assert calls == [uniform(2, 4)]


_SUPPORT_DETAIL = re.compile(r"direction \[(.*)\]: decomposition gives (-?\d+), (\w+) give (-?\d+)")


@pytest.mark.parametrize(
    "name, checks",
    [
        ("decompose_base_polytope", ["base-decomposition", "base-support", "base-hull-identity", "flag-decomposition"]),
        ("decompose_independent_polytope", ["indep-decomposition", "indep-support"]),
        ("decompose_truncation_flag", ["flag-decomposition", "flag-support"]),
    ],
)
def test_verify_reports_a_corrupted_decomposition(name, checks, monkeypatch):
    """One more summand on the whole ground set moves the support function by
    max(w), floored at 0 for D summands; the truncations run through the base
    decomposition, so a corrupted one also breaks the flag sum."""
    import matvol.verify as verify

    decompose = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda m: _off_by_one(decompose(m), m.full_mask, 1))
    m = uniform(2, 4)
    count, mismatches = verify_matroid(m, "u24")
    assert count == 3
    assert [x.check for x in mismatches] == checks
    for x in mismatches:
        if x.check.endswith("-support"):
            found = _SUPPORT_DETAIL.fullmatch(x.detail)
            w = [int(v) for v in found[1].split(", ")]
            top = max(0, *w) if x.check == "indep-support" else max(w)
            assert top != 0
            assert int(found[2]) - int(found[4]) == top


@pytest.mark.parametrize(
    "name, check, volume",
    [
        ("volume_base_polytope", "base-volume", Fraction(2, 3)),
        ("volume_independent_polytope", "indep-volume", Fraction(1, 2)),
        ("volume_truncation_flag", "flag-volume", Fraction(23, 6)),
    ],
)
def test_a_wrong_formula_volume_fails_the_oracle_then_the_recursion(name, check, volume, monkeypatch):
    """The formula is compared with the oracle first, then the recursion with
    the formula, so a wrong formula gives exactly two mismatches in that order."""
    import matvol.verify as verify

    monkeypatch.setattr(verify, name, lambda m: Fraction(99))
    _, mismatches = verify_matroid(uniform(2, 4), "u24")
    assert [(x.check, x.detail) for x in mismatches] == [
        (check, f"formula 99 vs oracle {volume}"),
        (check, f"recursion {volume} vs formula 99"),
    ]


def test_a_wrong_formula_volume_with_loops_fails_flatness_then_the_recursion(monkeypatch):
    """Loops flatten the independent set polytope, so there is no oracle
    volume: a nonzero formula is reported, then the recursion's 0 against it."""
    import matvol.verify as verify

    monkeypatch.setattr(verify, "volume_independent_polytope", lambda m: Fraction(99))
    _, mismatches = verify_matroid(from_bases(3, [0b011]), "loopy")
    assert [(x.check, x.detail) for x in mismatches] == [
        ("indep-volume", "loops flatten the polytope but formula gives 99"),
        ("indep-volume", "recursion 0 vs formula 99"),
    ]


def test_support_check_is_the_direction_walk_on_catalog4():
    """Comparing the tables first changes no verdict and no message: every
    catalog(4) decomposition, as it is and with one coefficient off by one."""
    from matvol.catalog import full_catalog
    from matvol.verify import _support_check, _support_directions

    rng = random.Random(1717)
    mismatched = 0
    for entry in full_catalog(4):
        m = entry.matroid
        cases = [(decompose_base_polytope(m), m.rank_table), (decompose_independent_polytope(m), m.rank_table)]
        if not m.has_loops():
            truncations = [truncate(m, i) for i in range(1, m.rank_value + 1)]
            cases.append((decompose_truncation_flag(m), [sum(r) for r in zip(*(t.rank_table for t in truncations))]))
        for d, optimum in cases:
            seed = rng.randrange(1 << 32)
            wrong = _off_by_one(d, rng.choice([*d.coeffs, rng.randrange(1, 1 << m.n)]), rng.choice((1, -1)))
            for case in (d, wrong):
                walk = _support_mismatches(case, optimum, _support_directions(seed, m.n), entry.name, "c", "s")
                assert _support_check(case, optimum, seed, entry.name, "c", "s") == walk, entry.name
            assert _support_check(d, optimum, seed, entry.name, "c", "s") == []
            mismatched += bool(walk)
    assert mismatched > 0
