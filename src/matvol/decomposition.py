"""Signed Minkowski decompositions and the subset-lattice transforms behind them.

Two polytope families appear as summands:

* ``Delta`` -- faces of the standard simplex, conv{e_i : i in J}; sums of
  these are cut out by a total-sum equality and lower bounds on coordinate
  sums over subsets ("GP" profiles).
* ``D`` -- the same faces coned to the origin, conv{0, e_i : i in J}; sums
  live in the nonnegative orthant under upper bounds on coordinate sums
  ("Q" profiles).

A profile value z_I is the tight right-hand side for subset I; a
decomposition coefficient y_I is the signed multiplicity of the summand on
I.  The two are related by zeta/Moebius transforms over the subset lattice,
each one call of ``bitset.fold_subsets``: n big-int passes over 2^n packed
lanes.  Profiles are accepted as raw data:
for non-tight right-hand sides the transform output is still well defined
but has no geometric meaning, which is the caller's responsibility.

A decomposition is the nonzero part of one dense 2^n-entry table indexed by
summand mask: ``_sparse`` reads it off the table and ``_dense`` writes it
back, and ``_flip`` is the one complement map t'[K] = t[E] - t[E - K]
between the GP and Q sides.  A contraction table indexed by A, reversed,
is indexed by the summand E - A.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Mapping, NamedTuple, Sequence

from .bitset import elements_of, fold_subsets
from .errors import FamilyMismatch
from .invariants import signed_beta_contractions, signed_gamma_contractions
from .matroid import Matroid

KIND_GP = "GP"
KIND_Q = "Q"
FAMILY_DELTA = "Delta"
FAMILY_D = "D"


class _ZProfileFields(NamedTuple):
    n: int
    kind: str
    values: tuple[int, ...]


class ZProfile(_ZProfileFields):
    """Dense subset-indexed right-hand sides; values[0] is always 0."""

    __slots__ = ()

    def __new__(cls, n: int, kind: str, values: tuple[int, ...]):
        if kind not in (KIND_GP, KIND_Q):
            raise ValueError(f"unknown profile kind {kind!r}")
        if len(values) != 1 << n:
            raise ValueError(f"profile needs {1 << n} values, got {len(values)}")
        if values[0] != 0:
            raise ValueError("profile value on the empty set must be 0")
        return super().__new__(cls, n, kind, values)


class _DecompositionFields(NamedTuple):
    n: int
    family: str
    coeffs: Mapping[int, int]


class SignedDecomposition(_DecompositionFields):
    """Sparse signed summand multiplicities keyed by nonempty subset masks.

    Zero coefficients are never stored, so equality of decompositions is
    literal equality of the coefficient maps.  Singleton Delta summands are
    points; they carry translation information and are kept like any other
    nonzero term.  Decompositions are not hashable: the map is mutable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __new__(cls, n: int, family: str, coeffs: Mapping[int, int]):
        if family not in (FAMILY_DELTA, FAMILY_D):
            raise ValueError(f"unknown summand family {family!r}")
        for mask, c in coeffs.items():
            if mask <= 0 or mask >= 1 << n:
                raise ValueError(f"summand mask {mask} outside the nonempty subsets of [{n}]")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")
        return super().__new__(cls, n, family, coeffs)

    def __eq__(self, other) -> bool:
        """Equal only to another decomposition: a plain tuple of the same
        fields is not one, from either side, since Python tries this
        subclass's method first."""
        return (
            isinstance(other, SignedDecomposition)
            and self.n == other.n
            and self.family == other.family
            and dict(self.coeffs) == dict(other.coeffs)
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def sorted_items(self) -> list[tuple[int, int]]:
        """The (mask, coefficient) pairs in ``subset_sort_key`` order: by
        mask, then stably by size."""
        masks = sorted(sorted(self.coeffs), key=int.bit_count)
        return list(zip(masks, map(self.coeffs.__getitem__, masks)))

    def is_empty(self) -> bool:
        return not self.coeffs


def make_decomposition(n: int, family: str, coeffs: Mapping[int, int]) -> SignedDecomposition:
    """Normalize a coefficient mapping by dropping zeros."""
    return SignedDecomposition(n, family, {k: v for k, v in coeffs.items() if v != 0})


def zeta_subsets(values: Sequence[int], n: int) -> list[int]:
    """z[I] = sum of values over subsets of I."""
    return fold_subsets(values, n, operator.add)


def mobius_subsets(values: Sequence[int], n: int) -> list[int]:
    """Inverse of ``zeta_subsets``: y[I] = sum over J <= I of (-1)^(|I|-|J|) z[J]."""
    return fold_subsets(values, n, operator.sub)


def _sparse(n: int, family: str, table: Sequence[int]) -> SignedDecomposition:
    """The decomposition of a dense table's nonzero entries, keyed by mask.

    Entry 0 of every table read here is 0: z on the empty set by
    ``ZProfile``, g on the empty set as z_E - z_E, and a contraction table's
    entry for E as the invariant of the empty minor M/E.  A nonzero entry 0
    is refused by ``SignedDecomposition``, not dropped.
    """
    return SignedDecomposition(n, family, {mask: table[mask] for mask in compress(range(len(table)), table)})


def _dense(d: SignedDecomposition) -> list[int]:
    """The 2^n-entry table of a decomposition's coefficients, 0 off its support."""
    dense = [0] * (1 << d.n)
    for mask, c in d.coeffs.items():
        dense[mask] = c
    return dense


def _flip(table: Sequence[int]) -> list[int]:
    """t'[K] = t[E] - t[E - K], which is its own inverse; it turns a rank
    table into the GP profile and swaps the Q profile with its
    complement-keyed GP form."""
    return [table[-1] - v for v in reversed(table)]


def z_from_matroid(m: Matroid) -> ZProfile:
    """Tight GP profile of the base polytope: z_I = r - r(E-I)."""
    return ZProfile(m.n, KIND_GP, tuple(_flip(m.rank_table)))


def z_from_matroid_indep(m: Matroid) -> ZProfile:
    """Tight Q profile of the independent set polytope: z_J = r(J)."""
    return ZProfile(m.n, KIND_Q, tuple(m.rank_table))


def y_from_z_gp(z: ZProfile) -> SignedDecomposition:
    """Moebius inversion of a GP profile into Delta summand coefficients."""
    if z.kind != KIND_GP:
        raise FamilyMismatch(f"expected a GP profile, got {z.kind}")
    return _sparse(z.n, FAMILY_DELTA, mobius_subsets(z.values, z.n))


def z_from_y_gp(d: SignedDecomposition) -> ZProfile:
    """Zeta transform of Delta summand coefficients back to the GP profile."""
    if d.family != FAMILY_DELTA:
        raise FamilyMismatch(f"expected a Delta decomposition, got {d.family}")
    return ZProfile(d.n, KIND_GP, tuple(zeta_subsets(_dense(d), d.n)))


def y_from_z_q(z: ZProfile) -> SignedDecomposition:
    """Inversion of a Q profile into D summand coefficients.

    Rewriting z_J = sum of y over summands meeting J as a statement about
    the complement turns this into a plain subset Moebius inversion of
    g[K] = z_full - z[full - K].
    """
    if z.kind != KIND_Q:
        raise FamilyMismatch(f"expected a Q profile, got {z.kind}")
    return _sparse(z.n, FAMILY_D, mobius_subsets(_flip(z.values), z.n))


def z_from_y_q(d: SignedDecomposition) -> ZProfile:
    """Forward Q transform: z_J counts summands meeting J, with multiplicity."""
    if d.family != FAMILY_D:
        raise FamilyMismatch(f"expected a D decomposition, got {d.family}")
    return ZProfile(d.n, KIND_Q, tuple(_flip(zeta_subsets(_dense(d), d.n))))


def decompose_base_polytope(m: Matroid) -> SignedDecomposition:
    """Base polytope as a signed sum of Delta faces.

    The coefficient of the summand on E-A is the signed beta invariant of
    M/A; it is nonzero exactly on the coconnected flats A.
    """
    return _sparse(m.n, FAMILY_DELTA, signed_beta_contractions(m)[::-1])


def decompose_independent_polytope(m: Matroid) -> SignedDecomposition:
    """Independent set polytope as a signed sum of D summands.

    Same coefficients as the base polytope decomposition, on the coned
    family.
    """
    return _sparse(m.n, FAMILY_D, signed_beta_contractions(m)[::-1])


def decompose_truncation_flag(m: Matroid) -> SignedDecomposition:
    """Truncation flag polytope as a signed sum of Delta faces.

    The coefficient of the summand on E-I is the signed gamma invariant of
    M/I; coefficient-wise this equals the sum of the base polytope
    decompositions of all truncations of M.
    """
    return _sparse(m.n, FAMILY_DELTA, signed_gamma_contractions(m)[::-1])


def add(d1: SignedDecomposition, d2: SignedDecomposition) -> SignedDecomposition:
    """Coefficient-wise sum; Minkowski addition on the polytope side."""
    if d1.n != d2.n or d1.family != d2.family:
        raise FamilyMismatch(
            f"cannot add ({d1.n}, {d1.family}) and ({d2.n}, {d2.family}) decompositions"
        )
    merged = dict(d1.coeffs)
    for mask, c in d2.coeffs.items():
        merged[mask] = merged.get(mask, 0) + c
    return make_decomposition(d1.n, d1.family, merged)


def scale(d: SignedDecomposition, factor: int) -> SignedDecomposition:
    """Multiply every coefficient by an integer factor."""
    return make_decomposition(d.n, d.family, {k: factor * v for k, v in d.coeffs.items()})


def support_function(d: SignedDecomposition, w: Sequence[int]) -> int:
    """Value of the signed sum's support function at an integer direction.

    Support functions are additive under Minkowski sums, so this is the
    coefficient-weighted sum of the summands' maxima; D summands floor at 0
    because they contain the origin.  Integer inputs make the result exact.
    """
    if len(w) != d.n:
        raise ValueError(f"direction has length {len(w)}, expected {d.n}")
    total = 0
    for mask, c in d.coeffs.items():
        best = max(w[e - 1] for e in elements_of(mask))
        total += c * (max(best, 0) if d.family == FAMILY_D else best)
    return total
