"""Volumes of the three matroid polytopes by a pyramid recursion over minors.

All three polytopes are generalized permutohedra
P(f) = {x : x(A) <= f(A), x(E) = f(E)} of an integer submodular f: the rank
function for the base polytope, the sum of the truncations' ranks for the
flag polytope, and for the independent set polytope the lift to one more
element p with f(A + p) = r(E).  Each facet of P(f) is a face
x(S) = f(S), which is the product P(f|S) x P(f/S) (Postnikov 2009,
"Permutohedra, associahedra, and beyond"), so a pyramid from one vertex
over every facet recurses on minors of f, read straight off the table of f
by ``matroid.minor_table``, the one builder of a minor's table (a strided
slice when the minor's ground set is one run of bits above the contracted
set, as on the symmetric path, and a gather otherwise).  The recursion is
all integer, and its work is capped by ``PYRAMID_WORK_BUDGET`` through
``errors.work_budget``.  Volumes are lattice-normalized as in ``volume``,
whose tuple formulas give the same values far more slowly.

A P(f) whose f splits is lower-dimensional and the product of smaller
ones, so connectivity is decided once per volume call, before the
recursion: ``component_product`` splits a base or independent set volume
over the components of M for both routes, and the flag table and the
lifted table of a loopless M never split.  The recursion tests only the
minors it builds.

The recursion is kept apart from ``volume``, whose tuple formulas no CLI
command but ``verify`` runs, so a ``matvol volume`` job executes this
module and no other engine, as
``tests/test_imports.py::test_each_command_runs_only_its_engine`` pins.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import comb, factorial, prod
from typing import Callable

from .bitset import popcounts
from .errors import DimensionMismatch, DisconnectedMatroid, work_budget
from .matroid import Matroid, components, is_connected, minor_table, restriction, splits

PYRAMID_WORK_BUDGET = 1 << 26
"""Most subset-table entries one pyramid recursion may touch: each state it
expands counts k * 2^k for its k bit-parallel passes, each minor table it
builds counts its length.  That is 3-12 s of work on a shared 2 GHz Xeon
vCPU under CPython 3.11, depending on how the work splits between the two.
A table that depends on |S| alone makes no passes: there a state counts
only its 2(k - 1) minor tables, one restriction and one contraction per set
size s, 2^s and 2^(k - s) entries (none under four elements, which are
written out), which comes to 6-8 times 2^n: 8.4 M units for Pi_20.  Those
minors are ``minor_table``'s strided slices, and a slice counts its length
as a gathered table does, so the units are the same on both paths."""


_LANE_CACHE_SIZE = 1 << 12
"""Largest table size whose lane masks one recursion keeps: they take 4k
bytes per entry, 200 KB at this size.  Larger tables build each element's
masks as ``_facets`` reaches it and drop them after."""


def _element_lanes(size: int, ones: int, e: int) -> tuple[int, ...]:
    """Masks of element e for tables of ``size`` = 2^k entries: (2^e,
    8 * 2^e, 1 in the lanes without e, 0xFF in those lanes, 0x80 in the
    lanes the test on g/S skips, 0x80 in the lanes without e)."""
    w = 1 << e
    lack = int.from_bytes((b"\x01" * w + b"\x00" * w) * (size >> (e + 1)), "little")
    skipped = (ones ^ lack) << 7 | 0x80 << 8 * ((size - 1) ^ w)  # lanes with e, and G - e
    return w, 8 * w, lack, 0xFF * lack, skipped, lack << 7


def _facets(t: bytes, cache: dict[int, tuple]) -> tuple[list[int], bytes]:
    """The S worth a pyramid over the face x(S) = g(S), and every height.

    The heights h_S = g(S) - v(S) of the greedy vertex v along 1, 2, ..., k
    come from one subset fold of v's increments.  Every step works on all
    2^k subsets at once, as byte lanes of one int (lane S holds a value for
    S; ``ones`` holds 1 in every lane).  S is dropped when h_S = 0 (v lies
    on the face), or when one factor of the face P(g|S) x P(g/S) has a
    one-element separator {e}, so that it is lower-dimensional:

    * g/S, for |G - S| >= 2: g(S + e) - g(S) = g(G) - g(G - e).  A loop of
      g/S is the case where S is not a flat of g.
    * g|S, for |S| >= 2: g(S) - g(S - e) = g(e).

    Both differences are >= 0 by submodularity, so "= 0" is a lane test.
    ``cache`` keeps the masks of tables up to ``_LANE_CACHE_SIZE`` entries.
    """
    size = len(t)
    full = size - 1
    lanes = cache.get(size)
    if lanes is None:
        ones = int.from_bytes(b"\x01" * size, "little")
        per_element = (_element_lanes(size, ones, e) for e in range(size.bit_length() - 1))
        lanes = ones, per_element
        if size <= _LANE_CACHE_SIZE:
            lanes = cache[size] = ones, list(per_element)
    ones, per_element = lanes
    low7, high = 0x7F * ones, ones << 7
    table = int.from_bytes(t, "little")
    vertex = 0
    w = 1
    while w < size:  # lane S of ``vertex`` becomes v(S), S below 2w
        vertex |= (vertex + (t[(w << 1) - 1] - t[w - 1]) * (ones >> 8 * (size - w))) << 8 * w
        w <<= 1
    heights = table - vertex  # no lane borrows: v(S) <= g(S)
    keep = ((heights & low7) + low7 | heights) & high  # 0x80 where h_S > 0
    for w, shift, lack, lack_ff, skipped, lack_high in per_element:
        gain = (table >> shift) - (table & lack_ff) & lack_ff  # lane S without e: g(S + e) - g(S)
        x = gain - (t[full] - t[full ^ w]) * lack
        keep &= ((x & low7) + low7 | x) & high | skipped
        x = t[w] * lack - gain  # moved from lane S to lane S + e below
        keep &= (((x & low7) + low7 | x) & lack_high | 0x80) << shift | lack_high
    keep = keep.to_bytes(size, "little")
    return list(compress(range(1, full), keep[1:full])), heights.to_bytes(size, "little")


def _small_volume(t: bytes, ground: int, contracted: int) -> int:
    """N of the minor g(X) = f(X + C) - f(C) on one to three elements,
    written out without building its table; 0 when g splits.

    One element is a point (N = 1) and two a segment of length
    g(a) + g(b) - g(ab).  For three, a < b < c, the pyramid sum from the
    greedy vertex has four terms, h_S times the segment left by the face:
    S = b and S = c with the contraction g/S, S = ac and S = bc with the
    restriction g|S (h vanishes on S = a and S = ab).  A fast path for the
    many small minors of small inputs: without it the ``volume`` bench
    workload ran 5 % fewer jobs per second.
    """
    a = ground & -ground
    rest = ground ^ a
    if not rest:
        return 1
    base = t[contracted]
    g_a = t[contracted | a] - base
    b = rest & -rest
    c = rest ^ b
    g_b = t[contracted | b] - base
    if not c:
        return g_a + g_b - t[contracted | ground] + base
    g_c = t[contracted | c] - base
    g_ab = t[contracted | a | b] - base
    g_ac = t[contracted | a | c] - base
    g_bc = t[contracted | b | c] - base
    g_abc = t[contracted | ground] - base
    return (
        (g_a + g_b - g_ab) * (g_ab + g_bc - g_abc - g_b)
        + (g_c + g_ab - g_abc) * (g_ac + g_bc - g_abc - g_c)
        + (g_ab + g_ac - g_a - g_abc) * (g_a + g_c - g_ac)
        + (g_a + g_bc - g_abc) * (g_b + g_c - g_bc)
    )


def pyramid_normalized_volume(table: bytes) -> int:
    """N(g) = (k-1)! Vol P(g) for the polytope P(g) = {x : x(A) <= g(A), x(G) = g(G)}.

    ``table`` holds g by mask over the subsets of G = [k]; g must be
    monotone and submodular with g(empty) = 0 and values below 256.  The
    volume is lattice-normalized in the hyperplane x(G) = g(G), so N is an
    integer; it is 0 when g splits (P(g) is then lower-dimensional) and 1
    on a single element.  Raises ``WorkBudgetExceeded`` past
    ``PYRAMID_WORK_BUDGET``, and ``ValueError`` on a table whose length is
    not a power of two.
    """
    if not table or len(table) & (len(table) - 1):
        raise ValueError(f"a set function table holds 2^k values, got {len(table)}")
    return 0 if splits(table) else _recursion(table)


def _size_profile(table: bytes) -> bytes | None:
    """The values g_0, ..., g_k of a table with g(S) = g_|S|, read on the
    initial segments, or None when g depends on more than |S|; one C-level
    compare of the whole table."""
    k = len(table).bit_length() - 1
    profile = bytes(table[(1 << s) - 1] for s in range(k + 1))
    return profile if popcounts(k).translate(profile.ljust(256, b"\0")) == table else None


def _recursion(table: bytes) -> int:
    """``pyramid_normalized_volume`` of a table that does not split.

    Every facet of P(g) is a face x(S) = g(S), which is the product
    P(g|S) x P(g/S).  A pyramid from a vertex v over each facet gives

        N(G) = sum over S of h_S * C(k - 2, |S| - 1) * N(g|S) * N(g/S)

    with h_S = g(S) - v(S).  The minors' tables are memo keys, so minors
    that agree after relabeling are computed once; a minor that splits is
    memoized as 0, so each minor's split test runs once too.  The top
    table is not tested: the entry points below pass only tables that
    cannot split, and ``pyramid_normalized_volume`` tests the rest.

    When g depends on |S| alone (``_size_profile``), so does every minor,
    and the faces of one size s are one orbit: S = [s] stands for all of
    them, with the summed height C(k, s) g_s - C(k - 1, s - 1) g_k (each
    element is in C(k - 1, s - 1) of the sets).  That is decided once per
    input; a table that is only nearly symmetric takes the general path
    throughout.  Both paths build their minors by ``minor_table``, which
    slices the symmetric path's: S = [s] and its complement are runs of
    bits, the complement above S.  ``work_budget`` charges each minor's
    length and each general state's k * 2^k lane pass.
    """
    if len(table) <= 8:
        return _small_volume(table, len(table) - 1, 0)
    symmetric = _size_profile(table) is not None
    memo: dict[bytes, int] = {}
    lane_cache: dict[int, tuple] = {}
    charge = work_budget(PYRAMID_WORK_BUDGET, "the volume recursion", "subset-table entries")

    def factor(t: bytes, ground: int, contracted: int) -> int:
        """N of the minor X -> g(X + C) - g(C) on ``ground``, C = ``contracted``:
        written out up to three elements, else built by ``minor_table``,
        charged and memoized."""
        if ground.bit_count() <= 3:
            return _small_volume(t, ground, contracted)
        minor = minor_table(t, ground, contracted)
        charge(len(minor))
        found = memo.get(minor)
        if found is None:
            found = memo[minor] = 0 if splits(minor) else expand(minor)
        return found

    def expand(t: bytes) -> int:
        k = len(t).bit_length() - 1
        full = len(t) - 1
        if symmetric:  # one S = [s] per size, with the heights of its orbit
            candidates = [(1 << s) - 1 for s in range(1, k)]
            heights = {
                low: comb(k, s) * t[low] - comb(k - 1, s - 1) * t[full] for s, low in enumerate(candidates, 1)
            }
        else:
            charge(k << k)
            candidates, heights = _facets(t, lane_cache)
        binomials = [comb(k - 2, j) for j in range(k - 1)]
        total = 0
        for s in candidates:
            left = factor(t, s, 0)
            if left:
                total += heights[s] * binomials[s.bit_count() - 1] * left * factor(t, full ^ s, s)
        return total

    return expand(table)


def component_product(m: Matroid, connected_volume: Callable[[Matroid], Fraction]) -> Fraction:
    """The volume of M from ``connected_volume`` of its components, for the
    tuple routes and the recursion alike: the one connectivity decision of
    a base or independent set volume.  ``components`` runs once; a matroid
    with one component (a lone loop or coloop among them) is measured as
    it is, and each component of a disconnected M is measured without a
    second test, its polytopes being the product of its components'.  The
    empty matroid, which has no components, gives 1."""
    parts = components(m)
    if len(parts) == 1:
        return connected_volume(m)
    return prod((connected_volume(restriction(m, part)) for part in parts), start=Fraction(1))


def refuse_flag(m: Matroid) -> None:
    """Raise unless M has a flag polytope to measure, for the tuple routes and
    the recursion alike: loops make it lower-dimensional, and the empty
    ground set has no truncations to sum."""
    if m.has_loops():
        raise DisconnectedMatroid("flag polytope is lower-dimensional for matroids with loops")
    if not m.n:
        raise DimensionMismatch("the flag polytope needs an ambient ground set")


def pyramid_volume_base(m: Matroid) -> Fraction:
    """Base polytope volume by the pyramid recursion on f = r.

    Same values as ``volume_base_polytope``: a disconnected matroid gives
    the product over its components, and a connected one's rank table does
    not split.
    """
    return component_product(m, lambda c: Fraction(_recursion(c.rank_table), factorial(c.n - 1)))


def _lifted_table(m: Matroid) -> bytes:
    """The lift of r to E + p, p first: mask 2A + 1 holds f(A + p) = r(E)."""
    lifted = bytearray(2 << m.n)
    lifted[0::2] = m.rank_table
    lifted[1::2] = bytes((m.rank_value,)) * (1 << m.n)
    return bytes(lifted)


def pyramid_volume_independent(m: Matroid) -> Fraction:
    """Independent set polytope volume by the pyramid recursion.

    The recursion runs on the lift to E + p with f(A) = r(A) and
    f(A + p) = r(E), whose base polytope projects onto the independent set
    polytope with its lattice volume.  A loop flattens the polytope.  The
    lift puts p first, so the greedy vertex is the origin and the faces in
    the sum are the x(F) = r(F) with F a flat of M.  A disconnected M gives
    the product over its components, as for the base polytope.  The lift
    of a loopless M never splits: a split S with p in S has
    f(S) = r(E) = f(E + p), so it needs r(E - S) = 0.
    """
    if m.has_loops():
        return Fraction(0)
    return component_product(m, lambda c: Fraction(_recursion(_lifted_table(c)), factorial(c.n)))


def _flag_table(m: Matroid) -> bytes:
    """f = sum over i <= r of min(r, i), read off the rank table by value."""
    r = m.rank_value
    by_rank = bytes(sum(min(v, i) for i in range(1, r + 1)) for v in range(r + 1))
    return m.rank_table.translate(by_rank + bytes(256 - len(by_rank)))


def pyramid_volume_flag(m: Matroid) -> Fraction:
    """Truncation flag polytope volume by the pyramid recursion.

    The flag polytope is the Minkowski sum of the base polytopes of the
    truncations, so it is P(f) for f = sum over i <= r of min(r, i).
    ``refuse_flag`` decides which matroids have none.  The table of a
    loopless M never splits: the rank-1 truncation's summand is the whole
    simplex, so P(f) is full-dimensional in x(E) = f(E).
    """
    refuse_flag(m)
    return Fraction(_recursion(_flag_table(m)), factorial(m.n - 1))


def orbit_degree(m: Matroid) -> tuple[Fraction, int]:
    """Base polytope volume together with its integer (n-1)! multiple."""
    if not is_connected(m):  # a lone loop is a point, but not connected
        raise DisconnectedMatroid("degree is defined here for connected matroids only")
    normalized = _recursion(m.rank_table)
    return Fraction(normalized, factorial(m.n - 1)), normalized
