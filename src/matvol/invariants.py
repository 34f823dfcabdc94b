"""Tutte polynomial and the beta and gamma invariants.

All of them read the matroid's rank table.  The Tutte polynomial is the
corank-nullity expansion over all 2^n subsets with exact integer binomials,
expanded once per distinct (corank, nullity) pair.  Beta keeps its
alternating-sum definition, the reference for b10 (``matvol invariants``
prints b10 as beta).  The whole-table variants give the signed invariant of
every contraction M/A at once by one alternating superset transform, which
is what the decomposition and volume engines iterate over.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .bitset import fold_subsets, popcounts

if TYPE_CHECKING:  # matroid imports this module for coconnected_flats
    from .matroid import Matroid


class TuttePolynomial(NamedTuple):
    """Sparse integer coefficient matrix b[i,j] of the Tutte polynomial."""

    coeffs: tuple[tuple[tuple[int, int], int], ...]

    def coefficient(self, i: int, j: int) -> int:
        return dict(self.coeffs).get((i, j), 0)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coeffs)

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.coeffs)

    def gamma(self) -> int:
        """Gamma invariant b20 - b10."""
        return self.coefficient(2, 0) - self.coefficient(1, 0)


def tutte(m: Matroid) -> TuttePolynomial:
    """Tutte polynomial via the subset expansion of corank/nullity terms.

    Subsets with the same rank and size contribute the same term, so the
    table is first counted by (r(A), |A|) and each distinct pair expanded
    once.
    """
    r = m.rank_value
    coeffs: dict[tuple[int, int], int] = {}
    for (ra, size), count in Counter(zip(m.rank_table, popcounts(m.n))).items():
        p = r - ra                  # corank exponent on (x-1)
        q = size - ra               # nullity exponent on (y-1)
        for i in range(p + 1):
            ci = count * comb(p, i) * (-1) ** (p - i)
            for j in range(q + 1):
                key = (i, j)
                coeffs[key] = coeffs.get(key, 0) + ci * comb(q, j) * (-1) ** (q - j)
    pruned = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
    return TuttePolynomial(pruned)


def beta(m: Matroid) -> int:
    """Beta invariant from its alternating rank sum; zero iff disconnected."""
    total = sum(-ra if size & 1 else ra for ra, size in zip(m.rank_table, popcounts(m.n)))
    return total if m.rank_value % 2 == 0 else -total


def signed_beta(m: Matroid) -> int:
    """Signed beta invariant (-1)^(r+1) * beta."""
    return -beta(m) if m.rank_value % 2 == 0 else beta(m)


def gamma(m: Matroid) -> int:
    """Gamma invariant b20 - b10 of the Tutte polynomial."""
    return tutte(m).gamma()


def gamma_from_rank_sum(m: Matroid) -> int:
    """Gamma invariant via the alternating binomial rank sum; independent route."""
    r = m.rank_value
    total = 0
    for ra, size in zip(m.rank_table, popcounts(m.n)):
        term = comb(r - ra + 1, 2)
        total += -term if size & 1 else term
    return total if r % 2 == 0 else -total


def signed_gamma(m: Matroid) -> int:
    """Signed gamma invariant (-1)^r * gamma."""
    g = gamma(m)
    return g if m.rank_value % 2 == 0 else -g


def signed_beta_contractions(m: Matroid) -> list[int]:
    """Signed beta invariant of M/A for every subset A, indexed by mask.

    The contraction's alternating rank sum telescopes to the alternating
    superset sum of this matroid's rank table (a downward ``sub`` fold), and
    the contraction rank parity cancels against it, leaving the sign -1 for
    every entry.  The fold of the corank r - r(B) carries that sign: the
    constant r sums to 0 over the supersets of every A but E, and the entry
    of E is its own corank, 0, the beta of the empty contraction.
    """
    r = m.rank_value
    corank = m.rank_table.translate(bytes(range(r, -1, -1)) + bytes(255 - r))
    return fold_subsets(corank, m.n, sub, upward=False)


def signed_gamma_contractions(m: Matroid) -> list[int]:
    """Signed gamma invariant of M/A for every subset A, indexed by mask."""
    r = m.rank_value
    by_rank = bytes(comb(r - ra + 1, 2) for ra in range(r + 1))  # at most C(21, 2) = 210
    return fold_subsets(m.rank_table.translate(by_rank + bytes(255 - r)), m.n, sub, upward=False)
