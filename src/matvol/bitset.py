"""Subsets of a ground set [n] encoded as integer bitmasks.

Element i (1-based) belongs to a mask iff bit i-1 is set.  All 2^n-indexed
tables in the package are keyed by these masks; cardinality, union,
intersection and complement are single word operations.
"""

from __future__ import annotations

from typing import Callable, Iterable


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def subset_sort_key(mask: int) -> tuple[int, int]:
    """Orders subsets by cardinality, then numeric mask value."""
    return (mask.bit_count(), mask)


def popcounts(n: int) -> list[int]:
    """Cardinality of every mask of [n], indexed by mask."""
    out = [0]
    for _ in range(n):
        out += [c + 1 for c in out]
    return out


def fold_subsets(
    values: Iterable[int], n: int, op: Callable[[int, int], int], upward: bool = True
) -> list[int]:
    """Fold a binary op along every bit of the subset lattice of [n].

    Upward, each mask S holding bit b becomes op(t[S], t[S - b]); downward,
    each mask S missing b becomes op(t[S], t[S + b]).  With ``add`` upward
    this sums over subsets (zeta), with ``sub`` upward it inverts that
    (Moebius), and with ``sub`` downward it is the alternating sum over
    supersets.  For each bit the pairs (S - b, S + b) are updated as ``map``
    calls over whichever is fewer: the 2^b strided slices that interleave
    them, or the 2^(n-b-1) contiguous blocks that hold them.
    """
    t = list(values)
    size = len(t)
    for b in range(n):
        step = 1 << b
        span = step << 1
        if step <= size // span:
            pairs = [(slice(o, size, span), slice(o + step, size, span)) for o in range(step)]
        else:
            pairs = [(slice(o, o + step), slice(o + step, o + span)) for o in range(0, size, span)]
        for lo, hi in pairs:
            if upward:
                t[hi] = map(op, t[hi], t[lo])
            else:
                t[lo] = map(op, t[lo], t[hi])
    return t


def format_subset(mask: int) -> str:
    """Render a mask like ``{1,3,4}``; the empty set renders as ``{}``."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"
