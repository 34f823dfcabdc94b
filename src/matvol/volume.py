"""Exact polytope volumes via signed mixed-volume expansions over subset tuples.

All volumes are lattice-normalized so the standard simplex on n vertices has
volume 1/(n-1)!.  These are the paper's formulas: ``volume_signed_sum``
takes a signed simplex decomposition and sums, over tuples of contraction
sets (the complements of its summands), the product of their coefficients;
a tuple contributes exactly when its sets satisfy intersection bounds

    strict:  |J_{i_1} cap ... cap J_{i_k}| <  n - k   (hyperplane families)
    weak:    |J_{i_1} cap ... cap J_{i_k}| <= n - k   (orthant families)

for every choice of distinct indices.  By Hall's theorem the weak bounds
say that the complements A_i = [n] - J_i admit a system of distinct
representatives, and the strict ones (the dragon marriage condition) that
they still admit one after any one element of [n] is deleted (Postnikov
2009, "Permutohedra, associahedra, and beyond").  ``signed_tuple_sum`` is
a transfer DP over the positions of a tuple whose state is the basis
family of the partial tuple's transversal matroid, as a bitset over the
2^n subsets of [n]; its work is capped by ``TUPLE_WORK_BUDGET``.

The three named volumes are ``volume_signed_sum`` of the ``decompose_*``
decompositions once components and loops are split off by ``pyramid``'s
``component_product`` and ``refuse_flag``, which the recursion shares:
``component_product`` is the one connectivity decision of a base or
independent set volume, and hands each component, a one-element one
included, to the connected formula without testing it again.  The base
volume sums whichever of M and its dual has fewer summands.
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

from .bitset import lacking_masks as _lacks
from .decomposition import (
    FAMILY_DELTA,
    SignedDecomposition,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
)
from .errors import DimensionMismatch, DisconnectedMatroid, work_budget
from .matroid import Matroid, dual, is_connected
from .pyramid import component_product, orbit_degree, refuse_flag  # noqa: F401 -- orbit_degree is re-exported for callers that import it from here


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
# the transfer DP over transversal-matroid states
# ---------------------------------------------------------------------------

TUPLE_WORK_BUDGET = 1 << 30
"""Most bitset bits one tuple sum may process: each transition of the
transfer DP (one state extended by one support set) counts 2^n, the length
of the state's family, and building the n ``lacks`` masks counts n
transitions.  That is about 4 s of work at n = 7 and 2 s at n = 8 on a
shared 2 GHz Xeon vCPU under CPython 3.11; U(6,7) indep, the largest sum
the test suite runs, takes 0.71 of it, and any n of 26 or more is refused
before a mask is built."""


class TermGroup(NamedTuple):
    """Ordered-tuple count and signed contribution of one census group."""

    tuples: int
    signed_sum: int


class _SizeGraded(dict):
    """Census coefficients: sorted contraction-set sizes -> (tuple count,
    signed sum).  Sums add the pairs of equal keys; products join the keys
    and multiply the pairs entrywise."""

    __slots__ = ()

    def __add__(self, other: _SizeGraded) -> _SizeGraded:
        out = _SizeGraded(self)
        for key, (t, s) in other.items():
            t0, s0 = out.get(key, (0, 0))
            out[key] = (t0 + t, s0 + s)
        return out

    def __mul__(self, other: _SizeGraded) -> _SizeGraded:
        out = _SizeGraded()
        for k1, (t1, s1) in self.items():
            for k2, (t2, s2) in other.items():
                key = tuple(sorted(k1 + k2))
                t0, s0 = out.get(key, (0, 0))
                out[key] = (t0 + t1 * t2, s0 + s1 * s2)
        return out


def signed_tuple_sum(
    support: Sequence[tuple[int, Any]], length: int, n: int, strict: bool
) -> Any:
    """Sum over all valid ordered tuples of the product of coefficients.

    ``support`` lists (mask, coefficient) pairs; a tuple of ``length`` sets
    J_i is valid when its complements A_i = [n] - J_i admit a system of
    distinct representatives (weak bound), or still admit one after any
    one element of [n] is deleted (strict bound).

    The sum is a transfer DP over the positions of the tuple.  After t sets
    the state is the family of t-subsets of [n] onto which the t
    complements can be matched, as one int whose bit T stands for the
    subset T.  Appending a set J maps a family F to the OR over e in its
    complement A of ``(F & lacks[e]) << (1 << e)`` and multiplies the
    state's weight by c_J; equal families merge their weights.  Per state,
    the ORs are read off a table over the support's complements and their
    prefixes (A with its lowest elements removed), one OR per entry.  An
    empty family has no valid extension and is dropped; under the strict
    bound so is a family whose members all contain some element k, since
    the complements then cannot avoid k.  The sum is the total weight of
    the states left after ``length`` steps.  Raises ``WorkBudgetExceeded``
    past ``TUPLE_WORK_BUDGET``.

    Coefficients are integers for the volumes and ``_SizeGraded`` for the
    census: any type with ``+`` and ``*``.  ``length == 0`` gives the
    integer 1, and a support with no valid tuple the integer 0.
    """
    if length == 0:
        return 1
    unit = 1 << min(n, TUPLE_WORK_BUDGET.bit_length())  # 2^n, capped once past the budget
    charge = work_budget(TUPLE_WORK_BUDGET, "the tuple sum", "bitset bits")
    charge(n * unit)
    lacks = _lacks(n)
    full = (1 << n) - 1
    prefixes = {0}
    for mask, _ in support:
        a = full ^ mask
        while a not in prefixes:
            prefixes.add(a)
            a &= a - 1
    order = sorted(prefixes)  # a & (a - 1) < a: each entry's rest comes first
    slot = {a: i for i, a in enumerate(order)}
    table = [(slot[a & (a - 1)], (a & -a).bit_length() - 1) for a in order[1:]]
    moves = [(slot[full ^ mask], c) for mask, c in support]
    states: dict[int, Any] = {1: None}  # the empty tuple matches onto the empty set
    for _ in range(length):
        charge(len(states) * len(moves) * unit)
        grown: dict[int, Any] = {}
        for family, weight in states.items():
            parts = [(family & lack) << (1 << e) for e, lack in enumerate(lacks)]
            union = [0]
            for rest, e in table:
                union.append(union[rest] | parts[e])
            for i, c in moves:
                new = union[i]
                if new:
                    term = c if weight is None else weight * c
                    old = grown.get(new)
                    grown[new] = term if old is None else old + term
        if strict:
            grown = {f: w for f, w in grown.items() if all(f & lack for lack in lacks)}
        states = grown
    total = None
    for weight in states.values():
        total = weight if total is None else total + weight
    return 0 if total is None else total


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
    return component_product(m, _connected_base_volume)


def _connected_base_volume(m: Matroid) -> Fraction:
    if m.n == 1:
        return Fraction(1)  # a single point either way
    d = decompose_base_polytope(m)
    dual_d = decompose_base_polytope(dual(m))
    return volume_signed_sum(dual_d if len(dual_d.coeffs) < len(d.coeffs) else d)


def volume_independent_polytope(m: Matroid, threads: int = 1) -> Fraction:
    """Full-dimensional volume of the independent set polytope.

    Disconnected matroids factor as a coordinate product; a loop flattens
    its factor to a point, so any loop forces volume 0.
    """
    return component_product(m, _connected_independent_volume)


def _connected_independent_volume(m: Matroid) -> Fraction:
    if m.n == 1:
        return Fraction(m.rank_value)  # unit segment for a coloop, point for a loop
    return volume_signed_sum(decompose_independent_polytope(m))


def volume_truncation_flag(m: Matroid, threads: int = 1) -> Fraction:
    """Volume of the truncation flag polytope from its signed-gamma decomposition.

    The expansion needs the flag polytope to be full-dimensional in its
    hyperplane, which holds exactly when M has no loops (the rank-1
    truncation is then the full simplex); ``refuse_flag`` refuses the rest.
    """
    refuse_flag(m)
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
    refuse_flag(m)
    support = _tuple_support(decompose_truncation_flag(m))
    return ordered_contributing_terms(support, m.n - 1, m.n, strict=True)
