"""Exact polytope volumes via signed mixed-volume expansions over subset tuples.

All volumes are lattice-normalized so the standard simplex on n vertices has
volume 1/(n-1)!.  These are the paper's formulas: ``volume_signed_sum``
takes a signed simplex decomposition and sums, over tuples of contraction
sets (the complements of its summands), the product of their coefficients;
a tuple contributes exactly when its sets satisfy intersection bounds

    strict:  |J_{i_1} cap ... cap J_{i_k}| <  n - k   (hyperplane families)
    weak:    |J_{i_1} cap ... cap J_{i_k}| <= n - k   (orthant families)

for every choice of distinct indices.  The strict bound is the dragon
marriage condition; the weak one says the complements admit a system of
distinct representatives.  Enumeration runs over multisets with multinomial
counting and prunes a branch as soon as any index subset violates its bound;
the last one or two slots of a tuple are summed in bulk over bitsets of the
sets that violate nothing.

The three named volumes are ``volume_signed_sum`` of the ``decompose_*``
decompositions once one-element ground sets, components and loops are split
off; the base volume sums whichever of M and its dual has fewer summands.
``independent_volume_census`` is the same sum over size-graded coefficients,
which group the ordered tuples by the sorted sizes of their sets.

``matvol volume`` and ``orbit_degree`` use the much faster pyramid
recursion of ``pyramid`` instead; ``verify`` checks the two routes against
each other and against the geometry oracle.

The ``threads`` argument of the volume functions is accepted and ignored:
the engine is pure Python, and a thread pool over it measured 0.71-1.06x
the speed of one thread, so results and speed do not depend on it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Any, NamedTuple, Sequence

from .decomposition import (
    FAMILY_DELTA,
    SignedDecomposition,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
)
from .errors import DimensionMismatch, DisconnectedMatroid
from .matroid import Matroid, components, dual, is_connected, restriction
from .pyramid import orbit_degree  # noqa: F401 -- re-exported for callers that import it from here


# ---------------------------------------------------------------------------
# tuple conditions
# ---------------------------------------------------------------------------

def _intersection_condition(sets: Sequence[int], n: int, strict: bool) -> bool:
    bound = n - 1 if strict else n
    count = len(sets)
    full = (1 << n) - 1
    inter = [full] * (1 << count)
    for s in range(1, 1 << count):
        low = (s & -s).bit_length() - 1
        inter[s] = inter[s & (s - 1)] & sets[low]
        if inter[s].bit_count() + s.bit_count() > bound:
            return False
    return True


def _max_matching_size(left_masks: Sequence[int], n: int) -> int:
    """Maximum bipartite matching from mask-valued sets into [n] (Kuhn)."""
    match_to = [-1] * n

    def augment(u: int, seen: list[int]) -> bool:
        while True:
            cand = left_masks[u] & ~seen[0]
            if not cand:
                return False
            b = (cand & -cand).bit_length() - 1
            seen[0] |= 1 << b
            if match_to[b] < 0 or augment(match_to[b], seen):
                match_to[b] = u
                return True

    size = 0
    for u in range(len(left_masks)):
        if augment(u, [0]):
            size += 1
    return size


def dragon_marriage(sets: Sequence[int], n: int) -> bool:
    """Dragon marriage condition for an (n-1)-tuple of subsets of [n].

    Checked via matchings: for every k the complements must admit a system
    of distinct representatives avoiding k.
    """
    if len(sets) != n - 1:
        raise ValueError(f"expected {n - 1} subsets, got {len(sets)}")
    full = (1 << n) - 1
    complements = [full ^ j for j in sets]
    for k in range(n):
        masked = [c & ~(1 << k) for c in complements]
        if _max_matching_size(masked, n) != n - 1:
            return False
    return True


def dragon_marriage_intersection_bounds(sets: Sequence[int], n: int) -> bool:
    """Dragon marriage via the defining strict intersection bounds."""
    if len(sets) != n - 1:
        raise ValueError(f"expected {n - 1} subsets, got {len(sets)}")
    return _intersection_condition(sets, n, strict=True)


def sdr_condition(sets: Sequence[int], n: int) -> bool:
    """True iff the complements of an n-tuple of subsets admit an SDR."""
    if len(sets) != n:
        raise ValueError(f"expected {n} subsets, got {len(sets)}")
    full = (1 << n) - 1
    return _max_matching_size([full ^ j for j in sets], n) == n


def sdr_condition_intersection_bounds(sets: Sequence[int], n: int) -> bool:
    """SDR criterion via the equivalent weak intersection bounds (Hall)."""
    if len(sets) != n:
        raise ValueError(f"expected {n} subsets, got {len(sets)}")
    return _intersection_condition(sets, n, strict=False)


# ---------------------------------------------------------------------------
# multiset tuple enumeration
# ---------------------------------------------------------------------------

class TermGroup(NamedTuple):
    """Ordered-tuple count and signed contribution of one census group."""

    tuples: int
    signed_sum: int


class _SizeGraded(dict):
    """Census coefficients: sorted contraction-set sizes -> (tuple count,
    signed sum).  Sums add the pairs of equal keys; products join the keys
    and multiply the pairs entrywise, and an integer scales both entries."""

    __slots__ = ()

    def __add__(self, other: _SizeGraded) -> _SizeGraded:
        out = _SizeGraded(self)
        for key, (t, s) in other.items():
            t0, s0 = out.get(key, (0, 0))
            out[key] = (t0 + t, s0 + s)
        return out

    def __radd__(self, zero: int) -> _SizeGraded:
        return self  # 0 + x: the engine starts every sum at the integer 0

    def __mul__(self, other: _SizeGraded | int) -> _SizeGraded:
        if isinstance(other, int):
            return _SizeGraded({key: (other * t, other * s) for key, (t, s) in self.items()})
        out = _SizeGraded()
        for k1, (t1, s1) in self.items():
            for k2, (t2, s2) in other.items():
                key = tuple(sorted(k1 + k2))
                t0, s0 = out.get(key, (0, 0))
                out[key] = (t0 + t1 * t2, s0 + s1 * s2)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> _SizeGraded:
        return self if k == 1 else self * self ** (k - 1)


def signed_tuple_sum(
    support: Sequence[tuple[int, Any]], length: int, n: int, strict: bool
) -> Any:
    """Sum over all valid ordered tuples of the product of coefficients.

    ``support`` lists (mask, coefficient) pairs.  Tuples are enumerated as
    multisets with multinomial counting; the bounds only tighten as
    multiplicities grow, so each branch dies at the first violated index
    subset.  Two refinements keep large supports tractable: an intersection
    record that can no longer be violated within the remaining budget is
    dropped, and once nothing can be violated at all the rest of the sum
    collapses to a power of the remaining coefficient total, since
    unconstrained ordered tuples factorize.

    States with one or two slots left are summed in bulk over bitsets of
    support indices (bit j stands for the j-th set in the walk's order).
    ``violators(mask, t)`` is the bitset of the sets J_j with
    |mask cap J_j| > t, built by one scan and cached for the call; the
    coefficients are grouped into classes of equal value, so the sum of
    c_j over a bitset is one popcount per class.  With one slot left, the
    sets that violate neither their own bound nor any live record's are
    summed at once.  With two, a set taken twice must pass the bounds for
    two more slots and contributes c^2, and a pair j1 < j2 of such sets
    contributes 2 c1 c2 when j2 also avoids the violators of J1 and of
    each record's intersection with J1.

    Coefficients are integers for the volumes and ``_SizeGraded`` for the
    census: any type with ``+``, ``*``, ``**``, ``==`` and integer
    multiples, where ``0 + c`` and ``1 * c`` are ``c``.  The walk never
    adds a coefficient to the integer 0 on its right, nor scales one by 0.
    ``length == 0`` gives the integer 1, and a support with no valid tuple
    the integer 0.
    """
    bound = n - 1 if strict else n
    if length == 0:
        return 1

    ordered = sorted(support, key=lambda mc: (-mc[0].bit_count(), mc[0]))
    count = len(ordered)
    masks = [m for m, _ in ordered]
    coeffs = [c for _, c in ordered]
    fact = factorial(length)
    suffix_sum = [0] * (count + 1)
    suffix_maxpc = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_sum[i] = suffix_sum[i + 1] + coeffs[i]
        suffix_maxpc[i] = max(suffix_maxpc[i + 1], masks[i].bit_count())

    classes: list[list] = []  # [value, bitset of the indices holding it]
    for j, c in enumerate(coeffs):
        for cls in classes:
            if cls[0] == c:
                cls[1] |= 1 << j
                break
        else:
            classes.append([c, 1 << j])
    squares = [(value * value, bits) for value, bits in classes]

    def weight(bits: int, groups: Sequence) -> Any:
        """Sum of the group values over ``bits``; None for no nonzero term."""
        out = None
        for value, members in groups:
            k = (bits & members).bit_count()
            if k:
                out = value * k if out is None else out + value * k
        return out

    cache: dict[tuple[int, int], int] = {}

    def violators(mask: int, t: int) -> int:
        if t >= mask.bit_count():
            return 0
        key = (mask, t)
        bits = cache.get(key)
        if bits is None:
            bits = 0
            for j, m in enumerate(masks):
                if (m & mask).bit_count() > t:
                    bits |= 1 << j
            cache[key] = bits
        return bits

    ground = (1 << n) - 1
    everything = (1 << count) - 1
    total = 0
    stack = [(0, length, [], 1, 1)]
    while stack:
        idx, budget, entries, prod, denom = stack.pop()
        if idx == count:
            continue
        if not entries and suffix_maxpc[idx] + budget <= bound:
            total += fact // (denom * factorial(budget)) * prod * suffix_sum[idx] ** budget
            continue
        if budget <= 2:
            banned = violators(ground, bound - 1)
            for im, _, cnt in entries:
                banned |= violators(im, bound - cnt - 1)
            first = (everything >> idx << idx) & ~banned
            if budget == 1:
                w = weight(first, classes)
                if w is not None:
                    total += fact // denom * prod * w
                continue
            banned = violators(ground, bound - 2)
            for im, _, cnt in entries:
                banned |= violators(im, bound - cnt - 2)
            acc = weight(first & ~banned, squares)
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                j1 = low.bit_length() - 1
                m1 = masks[j1]
                banned = violators(m1, bound - 2)
                for im, _, cnt in entries:
                    banned |= violators(im & m1, bound - cnt - 2)
                w = weight(rest & ~banned, classes)
                if w is not None:
                    w = 2 * coeffs[j1] * w
                    acc = w if acc is None else acc + w
            if acc is not None:
                total += fact // (denom * 2) * prod * acc
            continue
        stack.append((idx + 1, budget, entries, prod, denom))
        m_, c_ = ordered[idx]
        mpc = m_.bit_count()
        for mu in range(1, budget + 1):
            rest = budget - mu
            if mpc + mu > bound:
                break
            new_entries = []
            if mpc + mu + rest > bound:
                new_entries.append((m_, mpc, mu))
            ok = True
            for im, ipc, cnt in entries:
                nm = im & m_
                npc = nm.bit_count()
                nc = cnt + mu
                if npc + nc > bound:
                    ok = False
                    break
                if npc + nc + rest > bound:
                    new_entries.append((nm, npc, nc))
                if ipc + cnt + rest > bound:
                    new_entries.append((im, ipc, cnt))
            if not ok:
                break
            if rest:
                stack.append((idx + 1, rest, new_entries, prod * c_**mu, denom * factorial(mu)))
            else:
                total += fact // (denom * factorial(mu)) * prod * c_**mu
    return total


def signed_tuple_sum_ordered(
    support: Sequence[tuple[int, int]], length: int, n: int, strict: bool
) -> int:
    """Naive ordered-tuple enumeration; validation oracle for small inputs."""
    return sum(prod for _, prod in ordered_contributing_terms(support, length, n, strict))


def ordered_contributing_terms(
    support: Sequence[tuple[int, int]], length: int, n: int, strict: bool
) -> list[tuple[tuple[int, ...], int]]:
    """All valid ordered tuples with their products; small inputs only."""
    out = []
    for combo in product(range(len(support)), repeat=length):
        sets = tuple(support[i][0] for i in combo)
        if _intersection_condition(sets, n, strict):
            prod = 1
            for i in combo:
                prod *= support[i][1]
            out.append((sets, prod))
    return out


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _tuple_support(d: SignedDecomposition) -> list[tuple[int, int]]:
    """The (contraction set, coefficient) pairs of a decomposition: each
    summand mask's complement, in no particular order."""
    full = (1 << d.n) - 1
    return [(full ^ mask, coeff) for mask, coeff in d.coeffs.items()]


def _beta_support(m: Matroid) -> list[tuple[int, int]]:
    return _tuple_support(decompose_base_polytope(m))


def volume_signed_sum(d: SignedDecomposition) -> Fraction:
    """Volume of a signed sum of simplex summands via 0/1 mixed volumes.

    Delta families expand over (n-1)-tuples whose complements must satisfy
    the strict bounds; D families over n-tuples with the weak bounds.
    """
    if d.n < 1:
        raise DimensionMismatch("signed sums need an ambient ground set")
    length, strict = (d.n - 1, True) if d.family == FAMILY_DELTA else (d.n, False)
    total = signed_tuple_sum(_tuple_support(d), length, d.n, strict=strict)
    return Fraction(total, factorial(length))


def volume_base_polytope(m: Matroid, threads: int = 1) -> Fraction:
    """Volume of the base polytope.

    Connected matroids sum the decomposition of whichever of M and its dual
    has fewer summands (the two polytopes are congruent).  Disconnected
    matroids factor into a product over components.
    """
    if m.n == 1:
        return Fraction(1)  # a single point either way
    if not is_connected(m):
        result = Fraction(1)
        for comp in components(m):
            result *= volume_base_polytope(restriction(m, comp))
        return result
    d = decompose_base_polytope(m)
    dual_d = decompose_base_polytope(dual(m))
    return volume_signed_sum(dual_d if len(dual_d.coeffs) < len(d.coeffs) else d)


def volume_independent_polytope(m: Matroid, threads: int = 1) -> Fraction:
    """Full-dimensional volume of the independent set polytope.

    Disconnected matroids factor as a coordinate product; a loop flattens
    its factor to a point, so any loop forces volume 0.
    """
    if m.n == 1:
        return Fraction(m.rank_value)  # unit segment for a coloop, point for a loop
    if not is_connected(m):
        result = Fraction(1)
        for comp in components(m):
            result *= volume_independent_polytope(restriction(m, comp))
        return result
    return volume_signed_sum(decompose_independent_polytope(m))


def volume_truncation_flag(m: Matroid, threads: int = 1) -> Fraction:
    """Volume of the truncation flag polytope from its signed-gamma decomposition.

    The expansion needs the flag polytope to be full-dimensional in its
    hyperplane, which holds exactly when M has no loops (the rank-1
    truncation is then the full simplex).
    """
    if m.has_loops():
        raise DisconnectedMatroid(
            "flag polytope is lower-dimensional for matroids with loops"
        )
    if m.n == 1:
        return Fraction(1)
    return volume_signed_sum(decompose_truncation_flag(m))


def independent_volume_census(m: Matroid) -> dict[tuple[int, ...], TermGroup]:
    """Signed term census of the independent set volume, keyed by the sorted
    cardinalities of the contraction sets in each ordered tuple."""
    if not is_connected(m):
        raise DisconnectedMatroid("the term census expands the connected formula")
    support = _tuple_support(decompose_independent_polytope(m))
    graded = [(a, _SizeGraded({(a.bit_count(),): (1, c)})) for a, c in support]
    total = signed_tuple_sum(graded, m.n, m.n, strict=False)
    return {key: TermGroup(*pair) for key, pair in (total or {}).items()}


def flag_volume_ordered_terms(m: Matroid) -> list[tuple[tuple[int, ...], int]]:
    """Every ordered tuple contributing to the flag volume, with its product."""
    if m.has_loops():
        raise DisconnectedMatroid(
            "flag polytope is lower-dimensional for matroids with loops"
        )
    support = _tuple_support(decompose_truncation_flag(m))
    return ordered_contributing_terms(support, m.n - 1, m.n, strict=True)
