"""Subsets of a ground set [n] encoded as integer bitmasks.

Element i (1-based) belongs to a mask iff bit i-1 is set.  All 2^n-indexed
tables in the package are keyed by these masks; cardinality, union,
intersection and complement are single word operations.
"""

from __future__ import annotations

from array import array
from operator import add, sub
from typing import Callable, Iterable

_TYPECODES = {array(c).itemsize: c for c in "hiq"}  # lane bytes -> signed array typecode


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def set_bits(mask: int) -> list[int]:
    """0-based indices of the set bits of ``mask``, ascending; one step per
    set bit, by isolating the lowest."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    return tuple(i + 1 for i in set_bits(mask))


def subset_sort_key(mask: int) -> tuple[int, int]:
    """Orders subsets by cardinality, then numeric mask value."""
    return (mask.bit_count(), mask)


def popcounts(n: int) -> bytes:
    """Cardinality of every mask of [n], indexed by mask, for n < 256: each
    element doubles the table, the new half one more than the old."""
    step = bytes(range(1, 256)) + b"\0"
    out = b"\0"
    for _ in range(n):
        out += out.translate(step)
    return out


def lacking_masks(n: int) -> list[int]:
    """For each element e of [n] (0-based), the 2^n-bit int whose bit T is
    set for every subset T without e: blocks of 2^e ones and 2^e zeros,
    doubled out to 2^n bits."""
    out = []
    for e in range(n):
        bits, span = (1 << (1 << e)) - 1, 2 << e
        while span < 1 << n:
            bits, span = bits | bits << span, span << 1
        out.append(bits)
    return out


def fold_subsets(
    values: Iterable[int] | bytes, n: int, op: Callable[[int, int], int], upward: bool = True
) -> list[int]:
    """Fold ``operator.add`` or ``operator.sub`` along every bit of the subset lattice of [n].

    Upward, each mask S holding bit b becomes op(t[S], t[S - b]); downward,
    each mask S missing b becomes op(t[S], t[S + b]).  With ``add`` upward
    this sums over subsets (zeta), with ``sub`` upward it inverts that
    (Moebius), and with ``sub`` downward it is the alternating sum over
    supersets.  Any other op raises ``TypeError``.

    The 2^n values are W-bit lanes of one int: lane S is bits
    [S*W, (S+1)*W) and holds t[S] + 2^(W-1), so every lane is nonnegative.
    After j bits every |t[S]| is at most max|v| * 2^j, and W is the first of
    16, 32 and 64 bits (or whole bytes past that) with max|v| * 2^n <
    2^(W-1).  So no lane ever leaves [0, 2^W): big-int arithmetic on the
    whole int is exact lane by lane, and no lane carries into or borrows
    from its neighbour.  A bit b costs one shift by 2^b lanes, one AND with
    the lanes missing b, one subtract of those lanes' bias, and the add or
    subtract of ``op``.  XOR with the bias turns lanes into two's complement
    and back, which ``array`` packs and unpacks at 16, 32 and 64 bits.
    Bytes input is bounded by 255, or less when one C pass shows that it
    fits 16-bit lanes, and is widened by one strided copy.  The per-bit
    masks are built per call and dropped: at n = 20 each one is 4 MB.
    """
    if op is not add and op is not sub:
        raise TypeError("fold_subsets folds with operator.add or operator.sub only")
    size = 1 << n
    raw = isinstance(values, (bytes, bytearray))
    if not raw:
        values = list(values)
    if len(values) != size:
        raise ValueError(f"a fold over [{n}] takes {size} values, got {len(values)}")
    if raw:
        fits16 = 0x7FFF >> n  # the largest peak that 16-bit lanes hold
        peak = fits16 if fits16 < 255 and not values.translate(None, bytes(range(fits16 + 1))) else 255
    else:
        peak = max(max(values), -min(values))
    bits = (peak << n).bit_length() + 1
    width = next((w for w in (2, 4, 8) if 8 * w >= bits), (bits + 7) >> 3)  # lane bytes
    top = bytes(width - 1) + b"\x80"
    bias = int.from_bytes(top * size, "little")  # 2^(W-1) in every lane
    if raw:
        lanes = bytearray(top * size)
        lanes[::width] = values
        x = int.from_bytes(lanes, "little")
    elif width in _TYPECODES:
        x = int.from_bytes(array(_TYPECODES[width], values), "little") ^ bias
    else:
        x = int.from_bytes(b"".join(v.to_bytes(width, "little", signed=True) for v in values), "little") ^ bias
    for b in range(n):
        block = width << b
        lack = int.from_bytes((b"\xff" * block + bytes(block)) * (size >> b + 1), "little")
        if upward:
            x = op(x, ((x & lack) - (lack & bias)) << 8 * block)
        else:
            x = op(x, ((x >> 8 * block) & lack) - (lack & bias))
    data = (x ^ bias).to_bytes(size * width, "little")  # lanes in two's complement
    if width in _TYPECODES:
        return array(_TYPECODES[width], data).tolist()
    view = memoryview(data)
    return [int.from_bytes(view[i : i + width], "little", signed=True) for i in range(0, len(data), width)]


def format_subset(mask: int) -> str:
    """Render a mask like ``{1,3,4}``; the empty set renders as ``{}``."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def subset_formatter(n: int) -> Callable[[int], str]:
    """``format_subset`` for masks of [n], at two table lookups per mask.

    One table renders the low ceil(n/2) bits of a mask and one the high
    floor(n/2) bits, each element followed by a comma: 2^ceil(n/2) +
    2^floor(n/2) strings, 2048 at n = 20.  They are built per call and
    dropped with the returned function.
    """
    split = (n + 1) >> 1
    low, high = [""], [""]
    for e in range(1, split + 1):
        low += [s + f"{e}," for s in low]
    for e in range(split + 1, n + 1):
        high += [s + f"{e}," for s in high]
    low_mask = (1 << split) - 1

    def render(mask: int) -> str:
        return "{" + (low[mask & low_mask] + high[mask >> split])[:-1] + "}"

    return render
