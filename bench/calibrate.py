"""How fast the host runs Python right now, from a fixed piece of work.

On a shared cloud VM the same pass of the same jobs takes anywhere from
1x to 2x its fastest time, in stretches from seconds to minutes, with no
page faults, context switches or CPU steal to show for it: the vCPU itself
runs slower while the host is busy.  Wall times alone then say more about
the hour than about the program.  The benchmark therefore times this
kernel before every job and after the last one, and divides each job's
latency by the kernel time measured around it.  The kernel does the kinds
of work matvol does (bit operations over a basis list into a memo list,
dict and frozenset churn, ``Fraction`` arithmetic) and never calls
matvol, so a faster program still reads faster and a slower host does
not read slower.  ``REFERENCE_S`` turns the ratio back into seconds: a
normalized time is the time the job would take on a host that runs the
kernel in exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0015  # a round figure within the 1.3-3.1 ms it took on a shared 2 GHz Xeon vCPU
REACH = 3  # kernel samples on each side of a job that set its speed
_BASES = tuple(random.Random(7).getrandbits(9) for _ in range(16))


def kernel() -> int:
    memo = [-1] * (1 << 9)
    for subset in range(1 << 9):
        memo[subset] = max((subset & b).bit_count() for b in _BASES)
    table: dict[int, int] = {}
    for i in range(1200):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key >> 3, 0) + 1
    sets = {frozenset((i % 7, i % 11, i % 13)) for i in range(600)}
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 7 - 3, i * (i + 1))
    return memo[-1] + len(table) + len(sets) + total.denominator


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def local_speeds(samples: list[float], jobs: int) -> list[float]:
    """Kernel time around each job of a pass.

    ``samples[i]`` was taken just before job ``i`` and ``samples[jobs]``
    after the last one.  Job ``i`` gets the median of the ``REACH`` samples
    before it and the ``REACH`` after it, which is local enough to follow
    the host's drift and wide enough that one disturbed kernel run does
    not move it.
    """
    return [median(samples[max(0, i + 1 - REACH):i + 1 + REACH]) for i in range(jobs)]
