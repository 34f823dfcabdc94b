"""Cross-checks of the formula engines against the geometric oracle.

Each matroid gets one check unit per polytope family: the decomposition is
recomputed through the profile transforms, its support function is compared
with the greedy optimum in random integer directions, the signed sum
identity is checked as equality of actual vertex sets, and the formula
volume is compared with the oracle volume and with the pyramid recursion
where the oracle scales (ground sets up to 7, flags up to 6).  The support
and vertex-set checks walk chains of subsets along the rank table (summed
over the truncations for flags) and the cover table (g(S) sums c_A over the
summands A meeting S).  The support check compares the two tables first and
draws its directions only when they differ: every direction's two sides
differ by a walk over the difference of the tables, so equal tables pass
them all.  The base check's vertex-set walk runs only then too: it compares
the vertex sets of rank - cover(negative part) and of cover(positive part),
two submodular tables, and a submodular table is fixed by its base
polytope (Edmonds 1970), so the sets are equal exactly when rank = cover.
A base check whose tables differ walks all n! orderings, so ground sets
above ``VERIFY_MAX_N`` are refused before any check starts.
"""

from __future__ import annotations

import itertools
import random
import zlib
from fractions import Fraction
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

from .decomposition import (
    FAMILY_D,
    SignedDecomposition,
    add,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
    y_from_z_gp,
    y_from_z_q,
    z_from_matroid,
    z_from_matroid_indep,
)
from .errors import WorkBudgetExceeded
from .matroid import Matroid, is_connected, truncate
from .oracle import LatticeFrame, vertices_base, vertices_flag, vertices_indep, volume_exact
from .pyramid import pyramid_volume_base, pyramid_volume_flag, pyramid_volume_independent
from .volume import (
    volume_base_polytope,
    volume_independent_polytope,
    volume_truncation_flag,
)

ORACLE_VOLUME_MAX_N = 7
ORACLE_FLAG_MAX_N = 6
VERIFY_MAX_N = 9
"""Largest ground set ``verify_matroid`` takes: a base check whose tables
differ walks all n! orderings, 0.6-0.8 s for U(3, 9) on a shared 2.1 GHz
Xeon vCPU under CPython 3.11, and n = 10 would take ten times that.  A
passing check walks none."""
SUPPORT_DIRECTIONS = 100


class Mismatch(NamedTuple):
    matroid_name: str
    check: str
    detail: str


def _seed_for(m: Matroid) -> int:
    payload = f"{m.n}:{sorted(m.bases)}".encode()
    return zlib.crc32(payload)


def greedy_max_basis(m: Matroid, order: list[int]) -> int:
    """Max-weight basis for weights decreasing along ``order`` (0-based).

    The matroid greedy algorithm; for injective weights the optimum basis is
    unique, so the returned mask is the argmax.  Elements outside ``order``
    are never taken, so a partial order gives a max-weight independent set
    of its elements.  The checks read the rank table; this is the reference.
    """
    current = 0
    rank = m.rank
    r_cur = 0
    for e in order:
        candidate = current | (1 << e)
        if rank(candidate) > r_cur:
            current = candidate
            r_cur += 1
            if r_cur == m.rank_value:
                break
    return current


def max_basis_weight(m: Matroid, w: list[int]) -> int:
    order = sorted(range(m.n), key=lambda e: -w[e])
    basis = greedy_max_basis(m, order)
    return sum(w[e] for e in range(m.n) if basis >> e & 1)


def max_independent_weight(m: Matroid, w: list[int]) -> int:
    """Greedy optimum over independent sets with free disposal."""
    order = sorted((e for e in range(m.n) if w[e] > 0), key=w.__getitem__, reverse=True)
    chosen = greedy_max_basis(m, order)
    return sum(w[e] for e in order if chosen >> e & 1)


def _cover_table(n: int, coeffs: Mapping[int, int]) -> list[int]:
    """g(S) = sum of c_A over the summands A that meet S, for each S in [n];
    summed directly, sharing no subset transform with the code under test."""
    full = (1 << n) - 1
    table = [0] + [sum(coeffs.values())] * full
    for a, c in coeffs.items():
        s = outside = full ^ a
        while s:
            table[s] -= c
            s = (s - 1) & outside
    return table


def _signed_sum_vertex_sets(m: Matroid, d: SignedDecomposition):
    """Vertex sets of P + (negative part) and of (positive part).

    Every vertex maximizes some direction with distinct entries, and such a
    direction picks a unique vertex in each summand, so running over all
    coordinate orderings enumerates both vertex sets exactly.  An ordering picks
    the increments along its chain of rank - cover(negative) and of cover(positive).
    """
    left_table = [r - g for r, g in zip(m.rank_table, _cover_table(m.n, {a: c for a, c in d.coeffs.items() if c < 0}))]
    right_table = _cover_table(m.n, {a: c for a, c in d.coeffs.items() if c > 0})
    left, right = set(), set()
    left_point, right_point = [0] * m.n, [0] * m.n
    for perm in itertools.permutations(range(m.n)):
        before = 0
        for e in perm:
            chain = before | 1 << e
            left_point[e] = left_table[chain] - left_table[before]
            right_point[e] = right_table[chain] - right_table[before]
            before = chain
        left.add(tuple(left_point))
        right.add(tuple(right_point))
    return left, right


def _support_directions(seed: int, n: int) -> list[list[int]]:
    """SUPPORT_DIRECTIONS random directions in Z^n, entries in -9..9, drawn
    in one call: row i holds the draws i*n .. i*n + n - 1 of ``seed``'s
    generator, as a call per row would."""
    draws = random.Random(seed).choices(range(-9, 10), k=SUPPORT_DIRECTIONS * n)
    return [draws[i * n : i * n + n] for i in range(SUPPORT_DIRECTIONS)]


def _support_mismatches(
    d: SignedDecomposition, optimum: Sequence[int], directions: list[list[int]], name: str, check: str, source: str
) -> list[Mismatch]:
    """The first direction where ``d``'s support function and ``optimum``'s Lovász extension
    differ, summed in one walk down the weights; it stops at w_e <= 0 for D summands."""
    cover = _cover_table(d.n, d.coeffs)
    disposal = d.family == FAMILY_D
    for w in directions:
        lhs = rhs = before = 0
        for e in sorted(range(d.n), key=w.__getitem__, reverse=True):
            if disposal and w[e] <= 0:
                break
            chain = before | 1 << e
            lhs += w[e] * (cover[chain] - cover[before])
            rhs += w[e] * (optimum[chain] - optimum[before])
            before = chain
        if lhs != rhs:
            return [Mismatch(name, check, f"direction {w}: decomposition gives {lhs}, {source} give {rhs}")]
    return []


def _support_check(
    d: SignedDecomposition, optimum: Sequence[int], seed: int, name: str, check: str, source: str
) -> list[Mismatch]:
    """``_support_mismatches`` over ``seed``'s directions, run only when the
    cover table and ``optimum`` differ somewhere: each direction's lhs - rhs
    sums w_e times the increments of their difference along its chain, so
    equal tables pass every direction and the walk would find nothing."""
    if _cover_table(d.n, d.coeffs) == list(optimum):
        return []
    return _support_mismatches(d, optimum, _support_directions(seed, d.n), name, check, source)


def _volume_mismatches(formula: Fraction, geometric: Fraction | None, recursion: Fraction, name: str, check: str) -> list[Mismatch]:
    """The tuple formula against the oracle (skipped when ``geometric`` is None),
    then the pyramid recursion against the formula: all three routes must agree."""
    out = []
    if geometric is not None and formula != geometric:
        out.append(Mismatch(name, check, f"formula {formula} vs oracle {geometric}"))
    if recursion != formula:
        out.append(Mismatch(name, check, f"recursion {recursion} vs formula {formula}"))
    return out


def check_base_polytope(m: Matroid, name: str) -> list[Mismatch]:
    out = []
    d = decompose_base_polytope(m)
    via_transform = y_from_z_gp(z_from_matroid(m))
    if d != via_transform:
        out.append(Mismatch(name, "base-decomposition", "contraction coefficients disagree with the profile inversion"))
    if _cover_table(m.n, d.coeffs) != list(m.rank_table):  # else both checks below pass: see the module docstring
        out += _support_mismatches(d, m.rank_table, _support_directions(_seed_for(m), m.n), name, "base-support", "bases")
        left, right = _signed_sum_vertex_sets(m, d)
        if left != right:
            out.append(Mismatch(name, "base-hull-identity", f"vertex sets differ: {sorted(left - right)[:3]} vs {sorted(right - left)[:3]}"))
    if is_connected(m) and m.n <= ORACLE_VOLUME_MAX_N:
        formula = volume_base_polytope(m)
        geometric = volume_exact(vertices_base(m), LatticeFrame.ROOT)
        out += _volume_mismatches(formula, geometric, pyramid_volume_base(m), name, "base-volume")
    return out


def check_independent_polytope(m: Matroid, name: str) -> list[Mismatch]:
    out = []
    d = decompose_independent_polytope(m)
    via_transform = y_from_z_q(z_from_matroid_indep(m))
    if d != via_transform:
        out.append(Mismatch(name, "indep-decomposition", "contraction coefficients disagree with the profile inversion"))
    out += _support_check(d, m.rank_table, _seed_for(m) ^ 0x5EED, name, "indep-support", "independents")
    if m.n <= ORACLE_VOLUME_MAX_N:
        formula = volume_independent_polytope(m)
        geometric = None
        if not m.has_loops():
            geometric = volume_exact(vertices_indep(m), LatticeFrame.STANDARD)
        elif formula != 0:
            out.append(Mismatch(name, "indep-volume", f"loops flatten the polytope but formula gives {formula}"))
        out += _volume_mismatches(formula, geometric, pyramid_volume_independent(m), name, "indep-volume")
    return out


def check_flag_polytope(m: Matroid, name: str) -> list[Mismatch]:
    out = []
    d = decompose_truncation_flag(m)
    truncations = [truncate(m, i) for i in range(1, m.rank_value + 1)]
    if reduce(add, (decompose_base_polytope(t) for t in truncations)) != d:
        out.append(Mismatch(name, "flag-decomposition", "gamma coefficients disagree with the truncation sum"))
    flag_table = [sum(ranks) for ranks in zip(*(t.rank_table for t in truncations))]
    out += _support_check(d, flag_table, _seed_for(m) ^ 0xF1A6, name, "flag-support", "truncations")
    if m.n <= ORACLE_FLAG_MAX_N:
        formula = volume_truncation_flag(m)
        geometric = volume_exact(vertices_flag(m), LatticeFrame.ROOT)
        out += _volume_mismatches(formula, geometric, pyramid_volume_flag(m), name, "flag-volume")
    return out


def verify_matroid(m: Matroid, name: str) -> tuple[int, list[Mismatch]]:
    """Run every applicable polytope check; returns (checks run, mismatches)."""
    if m.n > VERIFY_MAX_N:
        raise WorkBudgetExceeded(
            f"verify walks all n! coordinate orderings and takes ground sets of at most "
            f"{VERIFY_MAX_N} elements, got {m.n}"
        )
    checks = [check_base_polytope, check_independent_polytope]  # looked up per call: tests and bench/tracing.py rebind them
    if m.rank_value and not m.has_loops():  # the flag polytope sums the truncations 1..r
        checks.append(check_flag_polytope)
    return len(checks), [x for check in checks for x in check(m, name)]
