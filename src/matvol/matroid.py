"""Matroids given by their basis families: rank table, minors, duality.

A matroid lives on ground set [n] with n <= 20 so that every subset fits in
a machine word and every subset-indexed table has exactly 2^n entries.
Matroids are immutable.  The rank function is one dense table of 2^n bytes,
``Matroid.rank_table``, built from the bases on first use and never written
again, so matroids share no mutable state between threads.

The build is bit-parallel: a family of subsets is one 2^n-bit int whose bit
S stands for subset S, so a step over all 2^n subsets is one big-int
operation.  The basis bits close downward to the independent sets; for each
k <= r the independent k-sets close upward to L_k, the sets of rank >= k;
and r(S) = #{k : S in L_k}, summed as byte lanes of one int.

Constructions that know a rank table already (truncations, contractions,
deletions) derive the new matroid's table from it and read the bases off
that table instead of rebuilding anything from the bases.

``from_bases`` decides the basis exchange axiom on the table.  The table
holds r(S) = max |S & B| over the given sets B, and they are the bases of a
matroid exactly when r is submodular (Edmonds 1970): the sets r calls
independent are then a matroid's, and its bases are the given sets, whose
sizes are checked equal.  Submodularity fails exactly when some S and x, y
outside it have r(S + x) = r(S + y) = r(S) < r(S + x + y); read off the
parities of r, that is one bit-parallel test over all S per pair x < y.

Only when that test fails does a walk name the failure.  For a basis B and
x in B, let C be B - x together with every y outside B for which
B - x + y is not a basis, i.e. r(B - x + y) < r.  The axiom fails for (B, x)
exactly when some basis lies inside C, i.e. r(C) = r: that basis B2 misses
x, and no y in B2 - B completes B - x.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress
from operator import add
from typing import Iterable, NamedTuple

from . import invariants  # lazy: runs on coconnected_flats' first call, never in a build
from .bitset import elements_of, lacking_masks, mask_of, set_bits, subset_sort_key
from .errors import (
    EmptyBasisFamily,
    ExchangeAxiomViolation,
    GroundSetTooLarge,
    InvalidTruncationRank,
    InvalidUniformParams,
    UnequalCardinality,
)

MAX_GROUND_SET = 20

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_PARITY_BITS = b"01" * 128  # byte v -> "0" or "1" by the parity of v
_BYTE_VALUES = bytes(range(256))  # the identity for bytes.translate


def _size_masks(n: int, r: int) -> list[int]:
    """For k = 0..r, the 2^n-bit int whose set bits are the masks of size k."""
    out = [1] + [0] * r
    for e in range(n):
        shift = 1 << e
        out = [1] + [out[k] | out[k - 1] << shift for k in range(1, r + 1)]
    return out


class _GraphFields(NamedTuple):
    vertices: int
    edges: tuple[tuple[int, int], ...]


class Graph(_GraphFields):
    """Multigraph on 1-based vertices; loops and parallel edges allowed.

    Edges are numbered 1..m in list order and form the ground set of the
    associated graphic matroid.
    """

    __slots__ = ()

    def __new__(cls, vertices: int, edges: tuple[tuple[int, int], ...]):
        for u, v in edges:
            if not (1 <= u <= vertices and 1 <= v <= vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{vertices}")
        return super().__new__(cls, vertices, edges)


class Matroid:
    """A matroid on [n] with rank ``rank_value``, given by its basis masks.

    ``parent_labels`` maps this matroid's elements back to the labels of the
    matroid it was derived from by ``contract``/``delete``; it does not take
    part in equality, hashing or the repr.  Instances are immutable: the
    fields are set once, and only the ``rank_table`` cache is filled later.
    """

    n: int
    rank_value: int
    bases: frozenset[int]
    parent_labels: tuple[int, ...] | None

    def __init__(
        self,
        n: int,
        rank_value: int,
        bases: frozenset[int],
        parent_labels: tuple[int, ...] | None = None,
    ):
        self.__dict__.update(n=n, rank_value=rank_value, bases=bases, parent_labels=parent_labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: matroids are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: matroids are immutable")

    def _key(self) -> tuple[int, int, frozenset[int]]:
        return (self.n, self.rank_value, self.bases)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Matroid(n={self.n!r}, rank_value={self.rank_value!r}, bases={self.bases!r})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def rank_table(self) -> bytes:
        """r(S) for every subset mask S, indexed by mask.

        Built bit-parallel (see the module docstring): the independent sets
        are the downward closure of the bases, level k is the upward closure
        of the independent k-sets, and r(S) counts the levels holding S.
        Each level becomes a 0/1 byte string and the levels add as byte
        lanes of one int; a lane never exceeds 20, so nothing carries.
        Built on first use, so a matroid whose ranks are never read costs no
        table.
        """
        size = 1 << self.n
        bits = bytearray(max(size >> 3, 1))
        for b in self.bases:
            bits[b >> 3] |= 1 << (b & 7)
        independent = int.from_bytes(bits, "little")
        lacking = lacking_masks(self.n)
        for e, lack in enumerate(lacking):
            independent |= (independent >> (1 << e)) & lack
        total = 0
        spread = f"0{size}b"
        for size_k in _size_masks(self.n, self.rank_value)[1:]:
            level = independent & size_k
            for e, lack in enumerate(lacking):
                level |= (level & lack) << (1 << e)
            total += int.from_bytes(format(level, spread).encode().translate(_BIT_BYTES), "big")
        return total.to_bytes(size, "big")[::-1]

    def rank(self, subset: int) -> int:
        """Rank of a subset: the largest intersection with a basis."""
        return self.rank_table[subset]

    def is_independent(self, subset: int) -> bool:
        return self.rank(subset) == subset.bit_count()

    def is_loop(self, element: int) -> bool:
        return self.rank(1 << (element - 1)) == 0

    def has_loops(self) -> bool:
        return any(self.is_loop(e) for e in range(1, self.n + 1))


def _check_ground_set(n: int) -> None:
    if n < 1:
        raise ValueError(f"ground set must have at least one element, got n={n}")
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(f"n={n} exceeds the hard limit of {MAX_GROUND_SET} elements")


def from_bases(n: int, bases: Iterable[int], validate: bool = True) -> Matroid:
    """Build a matroid from basis masks, checking the basis exchange axiom."""
    _check_ground_set(n)
    basis_set = frozenset(bases)
    if not basis_set:
        raise EmptyBasisFamily("a matroid needs at least one basis")
    full = (1 << n) - 1
    for b in basis_set:
        if b & ~full:
            raise ValueError(f"basis mask {b} has elements outside 1..{n}")
    sizes = {b.bit_count() for b in basis_set}
    if len(sizes) > 1:
        small = min(basis_set, key=subset_sort_key)
        big = max(basis_set, key=subset_sort_key)
        raise UnequalCardinality(
            f"bases {sorted(elements_of(small))} and {sorted(elements_of(big))} differ in size"
        )
    m = Matroid(n=n, rank_value=sizes.pop(), bases=basis_set)
    if validate:
        _check_exchange(m)
    return m


def _is_submodular(m: Matroid) -> bool:
    """Whether r(S + x) + r(S + y) >= r(S) + r(S + x + y) for all S, x, y.

    Each step of r is 0 or 1, so S gains x, r(S + x) = r(S) + 1, exactly
    when the parities of r(S) and r(S + x) differ: bit S of ``grows[x]``,
    for S without x, read off one 2^n-bit int of rank parities.  The
    inequality fails exactly where S gains neither x nor y alone but S + x
    gains y.
    """
    n = m.n
    parity = int(m.rank_table[::-1].translate(_PARITY_BITS), 2)
    lacking = lacking_masks(n)
    grows = [lack & (parity ^ parity >> (1 << x)) for x, lack in enumerate(lacking)]
    stays = [lack ^ grow for lack, grow in zip(lacking, grows)]
    return not any(stays[x] & stays[y] & grows[y] >> (1 << x) for y in range(n) for x in range(y))


def _check_exchange(m: Matroid) -> None:
    """Raise unless the bases satisfy the exchange axiom (module docstring).

    The submodularity test decides; the walk over the bases only runs when
    it fails, to name a basis and an element without an exchange.
    """
    if _is_submodular(m):
        return
    table = m.rank_table
    r = m.rank_value
    for b1 in sorted(m.bases):
        outside = [1 << e for e in range(m.n) if not b1 >> e & 1]
        xs = b1
        while xs:
            x = xs & -xs
            xs ^= x
            rest = b1 ^ x
            closure = rest
            for y in outside:
                if table[rest | y] < r:
                    closure |= y
            if table[closure] == r:
                b2 = min(b for b in m.bases if not b & ~closure)
                raise ExchangeAxiomViolation(
                    f"no exchange for element {elements_of(x)[0]} of basis "
                    f"{sorted(elements_of(b1))} against basis {sorted(elements_of(b2))}"
                )


def uniform(k: int, n: int) -> Matroid:
    """Uniform matroid U_{k,n}; k = 0 gives the rank-0 matroid with basis {}."""
    if n < 1 or not 0 <= k <= n:
        raise InvalidUniformParams(f"uniform matroid needs 0 <= k <= n and n >= 1, got k={k}, n={n}")
    _check_ground_set(n)
    bases = frozenset(mask_of(c) for c in combinations(range(1, n + 1), k))
    return Matroid(n=n, rank_value=k, bases=bases)


def graphic(g: Graph) -> Matroid:
    """Graphic matroid of a multigraph: bases are its maximal spanning forests.

    One depth-first search over the edges in order lists them.  An edge
    that joins two trees of the forest so far is taken in one branch (the
    union is undone on backtrack) and skipped in the other; an edge inside
    one tree is skipped; a branch ends when too few edges remain to reach
    the rank.  The union-find runs on the vertices the edges touch,
    renumbered densely, so its size does not grow with the vertex labels.
    """
    m = len(g.edges)
    _check_ground_set(m)
    index = {v: i for i, v in enumerate(sorted({v for edge in g.edges for v in edge}))}
    edges = [(index[u], index[v]) for u, v in g.edges]
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for u, v in edges:  # a greedy forest has the rank's size
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    parent[:] = range(len(index))
    bases: list[int] = []

    def extend(i: int, taken: int, mask: int) -> None:
        if taken == rank:
            bases.append(mask)
            return
        if m - i < rank - taken:
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            extend(i + 1, taken + 1, mask | 1 << i)
            parent[ru] = ru
        extend(i + 1, taken, mask)

    extend(0, 0, 0)
    return Matroid(n=m, rank_value=rank, bases=frozenset(bases))


def _from_table(n: int, rank: int, table: bytes, labels: tuple[int, ...] | None = None) -> Matroid:
    """The matroid with this rank table; its bases are the sets S with r(S) = |S| = rank."""
    bases = frozenset(x for x, v in enumerate(table) if v == rank and x.bit_count() == rank)
    m = Matroid(n=n, rank_value=rank, bases=bases, parent_labels=labels)
    m.__dict__["rank_table"] = table  # the cached_property's slot
    return m


def minor_table(table: bytes, ground: int, contracted: int) -> bytes:
    """The table of X -> f(X + C) - f(C) over the subsets X of ``ground``.

    ``table`` holds a set function f by mask and C = ``contracted`` is
    disjoint from ``ground``; the elements of ``ground`` are relabeled
    1, 2, ... in increasing order.  Values are bytes, so f must stay below
    256 and be monotone (every f(X + C) >= f(C)).

    When ``ground`` is one run of bits and C lies below it, the masks
    X + C are C, C + low, C + 2 low, ... with low the run's lowest bit, so
    the minor is one strided slice of ``table``; any other ``ground`` is
    gathered mask by mask.  An empty ``ground`` gives the one-entry
    table of the empty minor.
    """
    low = ground & -ground
    if not (ground + low) & ground and contracted < low:
        out = table[contracted : (ground | contracted) + 1 : low]
    else:
        index = [contracted]
        while ground:
            bit = ground & -ground
            ground ^= bit
            index += [x | bit for x in index]
        out = bytes(map(table.__getitem__, index))
    base = out[0]
    if base:
        out = out.translate(bytes(base) + _BYTE_VALUES[: 256 - base])  # v -> v - base
    return out


def _minor(parent: Matroid, removed: int, spanning: int) -> Matroid:
    """Shared relabeling machinery for contraction and deletion.

    The minor's rank of X is r(X + C) - r(C) in the parent, read off the
    parent's table by ``minor_table``: contraction passes C = ``spanning``
    = the contracted set, deletion passes 0.  Removing the whole ground set
    keeps no element, and ``minor_table`` then gives the one-entry table of
    the empty matroid, whose one basis is {}.
    """
    kept = parent.full_mask & ~removed
    table = minor_table(parent.rank_table, kept, spanning)
    return _from_table(kept.bit_count(), table[-1], table, elements_of(kept))


def contract(m: Matroid, a: int) -> Matroid:
    """Contraction M/A on ground set E-A relabeled to [n-|A|]."""
    return _minor(m, a, a)


def delete(m: Matroid, a: int) -> Matroid:
    """Deletion M\\A on ground set E-A relabeled to [n-|A|]."""
    return _minor(m, a, 0)


def dual(m: Matroid) -> Matroid:
    """Dual matroid: bases are the complements of the bases."""
    full = m.full_mask
    return Matroid(
        n=m.n,
        rank_value=m.n - m.rank_value,
        bases=frozenset(full ^ b for b in m.bases),
    )


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Direct sum on the concatenated ground set [n1 + n2]."""
    n = m1.n + m2.n
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(f"direct sum has {n} > {MAX_GROUND_SET} elements")
    bases = frozenset(b1 | (b2 << m1.n) for b1 in m1.bases for b2 in m2.bases)
    return Matroid(n=n, rank_value=m1.rank_value + m2.rank_value, bases=bases)


def truncate(m: Matroid, i: int) -> Matroid:
    """Rank-i truncation: bases are the independent sets of size i.

    Its rank function is min(i, r), read off the parent's table.
    """
    if not 1 <= i <= m.rank_value:
        raise InvalidTruncationRank(f"truncation rank {i} outside 1..{m.rank_value}")
    return _from_table(m.n, i, m.rank_table.translate(_BYTE_VALUES[:i] + bytes([i]) * (256 - i)))


def is_connected(m: Matroid) -> bool:
    """No proper nonempty split A with r(A) + r(E-A) = r(E).

    Single elements: a coloop is connected, a loop is not, so that
    connectivity coincides with a nonzero beta invariant on all ground sets.
    """
    if m.n == 0:
        return False
    if m.n == 1:
        return m.rank_value == 1
    return not splits(m.rank_table)


def splits(table: bytes) -> bool:
    """True iff some proper nonempty A has f(A) + f(G - A) = f(G), for the
    set function f held by ``table`` over the subsets of a ground set G.

    A runs over the masks without the top element, and table[-1 - a] is
    f(G - A), so each split is tested once, as C-level byte reads.  A single
    element never splits.
    """
    half = len(table) >> 1
    return table[-1] in map(add, table[1:half], table[-2:-half - 1:-1])


def components(m: Matroid) -> list[int]:
    """Ground-set partition into connected components, as masks.

    A separator A, with r(A) + r(E-A) = r(E), splits M into M|A and
    M|(E-A), and the components of M are theirs.  So each part is scanned
    for its first separator as ``splits`` scans, and split there until
    none is left.  The empty matroid has no components.
    """
    out = []
    todo = [(m.full_mask, m.rank_table)] if m.n else []
    while todo:
        ground, table = todo.pop()
        half = len(table) >> 1
        cut = bytes(map(add, table[1:half], table[-2:-half - 1:-1])).find(table[-1]) + 1
        if not cut:
            out.append(ground)
            continue
        bits = set_bits(ground)
        part = sum(1 << bits[i] for i in set_bits(cut))
        todo += [(s, minor_table(m.rank_table, s, 0)) for s in (part, ground ^ part)]
    return sorted(out)


def restriction(m: Matroid, subset: int) -> Matroid:
    """Restriction M|S, i.e. deletion of the complement of S."""
    return delete(m, m.full_mask & ~subset)


def coconnected_flats(m: Matroid) -> list[int]:
    """All proper subsets A of E whose contraction M/A is connected.

    These are exactly the subsets with a nonzero signed beta invariant of
    M/A, hence the support of the base polytope decomposition, which is how
    they are found: one superset transform instead of 2^n contractions.
    """
    table = invariants.signed_beta_contractions(m)  # zero at A = E
    return sorted(compress(range(len(table)), table), key=subset_sort_key)
