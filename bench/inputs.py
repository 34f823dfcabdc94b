"""Benchmark inputs and their reference values, built without matvol.

Everything here is the benchmark's own code: the uniform ladder, seeded
random multigraphs, their spanning forests (the bases of the graphic
matroid) by a private union-find, dense rank tables by downward closure of
the bases, closed forms for uniform volumes, and the Tutte polynomial,
gamma and beta support of a rank table.  None of it imports matvol, so
input generation costs the program nothing and the references do not lean
on the code under test.

Subsets are bitmasks with element ``i`` at bit ``i - 1``, as in matvol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial


@dataclass(frozen=True)
class Input:
    """One matroid file: its text plus what the references need."""

    name: str
    text: str
    n: int
    bases: tuple[int, ...]
    uniform: tuple[int, int] | None = None  # (k, n) for the uniform ladder


# ---------------------------------------------------------------------------
# matroids
# ---------------------------------------------------------------------------

def uniform_input(k: int, n: int) -> Input:
    bases = tuple(sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k))
    return Input(f"U{k}_{n}", f"n: {n}\nuniform: {k} {n}\n", n, bases, (k, n))


def random_multigraph(rng: random.Random, vertices: int, edges: int) -> list[tuple[int, int]]:
    """A connected loopless multigraph: a random spanning tree plus random
    extra edges (parallel edges allowed), listed in random order."""
    order = list(range(1, vertices + 1))
    rng.shuffle(order)
    out = [(order[i], order[rng.randrange(i)]) for i in range(1, vertices)]
    while len(out) < edges:
        u, v = rng.sample(range(1, vertices + 1), 2)
        out.append((u, v))
    rng.shuffle(out)
    return [(min(u, v), max(u, v)) for u, v in out]


def spanning_forests(vertices: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Bases of the graphic matroid: edge subsets of full rank with no cycle."""

    def acyclic_size(indices) -> int:
        parent = list(range(vertices + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        size = 0
        for i in indices:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    rank = acyclic_size(range(len(edges)))
    return tuple(
        sum(1 << i for i in combo)
        for combo in combinations(range(len(edges)), rank)
        if acyclic_size(combo) == rank
    )


def _draw(rng: random.Random, vertices: int, edges: int, connected: bool):
    while True:
        graph = random_multigraph(rng, vertices, edges)
        bases = spanning_forests(vertices, graph)
        if not connected or is_connected(edges, rank_table(edges, bases)):
            return graph, bases


def pick_graph(
    rng: random.Random, vertices: int, edges: int, connected: bool, candidates: int = 25
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """A random multigraph whose spanning-tree count is close to a fixed target.

    The rank-table work of every matvol command grows with the number of
    bases, which varies severalfold between random graphs of one shape.
    The target is the median count over a draw that does not depend on the
    seed, so the seed changes the graphs but hardly the work, and runs with
    different seeds stay comparable.  ``connected`` asks for a connected
    matroid (a 2-connected graph), which the volume formulas need.
    """
    fixed = random.Random(f"target:{vertices}:{edges}:{connected}")
    counts = sorted(len(_draw(fixed, vertices, edges, connected)[1]) for _ in range(15))
    target = counts[len(counts) // 2]
    best = None
    for _ in range(candidates):
        graph, bases = _draw(rng, vertices, edges, connected)
        if best is None or abs(len(bases) - target) < abs(len(best[1]) - target):
            best = graph, bases
        if len(bases) == target:
            break
    return best


def graph_text(edges: list[tuple[int, int]]) -> str:
    return f"n: {len(edges)}\ngraph: {' '.join(f'{u}-{v}' for u, v in edges)}\n"


def bases_text(n: int, bases: tuple[int, ...]) -> str:
    tokens = (",".join(str(e + 1) for e in range(n) if b >> e & 1) for b in sorted(bases))
    return f"n: {n}\nbases: {' '.join(tokens)}\n"


def rank_table(n: int, bases: tuple[int, ...]) -> list[int]:
    """r(X) for every subset X: |X| if X lies in a basis, else max r(X - e)."""
    size = 1 << n
    independent = bytearray(size)
    for b in bases:
        independent[b] = 1
    for e in range(n):
        bit = 1 << e
        for x in range(size):
            if x & bit and independent[x]:
                independent[x ^ bit] = 1
    ranks = [0] * size
    for x in range(1, size):
        if independent[x]:
            ranks[x] = x.bit_count()
        else:
            best = 0
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                best = max(best, ranks[x ^ low])
            ranks[x] = best
    return ranks


def is_connected(n: int, ranks: list[int]) -> bool:
    """No proper nonempty separator A with r(A) + r(E - A) = r(E)."""
    full = (1 << n) - 1
    return n >= 1 and all(ranks[a] + ranks[full ^ a] != ranks[full] for a in range(1, full, 2))


def has_loops(n: int, bases: tuple[int, ...]) -> bool:
    covered = 0
    for b in bases:
        covered |= b
    return covered != (1 << n) - 1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def eulerian(n: int, k: int) -> int:
    """A(n, k): permutations of [n] with exactly k descents."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def uniform_base_volume(k: int, n: int) -> Fraction:
    """Base polytope of U(k, n), 0 < k < n: A(n-1, k-1) / (n-1)!."""
    return Fraction(eulerian(n - 1, k - 1), factorial(n - 1))


def uniform_indep_volume(k: int, n: int) -> Fraction:
    """Independent set polytope of U(k, n): sum over j < k of A(n, j) / n!."""
    return Fraction(sum(eulerian(n, j) for j in range(k)), factorial(n))


def permutohedron_volume(x: list[int]) -> Fraction:
    """Volume of the permutohedron P_n(x), the hull of all permutations of x.

    Postnikov, "Permutohedra, associahedra, and beyond" (2009), Thm 3.2,
    with lambda = (1, ..., n); normalized like matvol, so the standard
    simplex P_n(1, 0, ..., 0) has volume 1/(n-1)!.
    """
    n = len(x)
    total = Fraction(0)
    for w in permutations(range(1, n + 1)):
        gaps = 1
        for a, b in zip(w, w[1:]):
            gaps *= a - b
        total += Fraction(sum(a * b for a, b in zip(w, x)) ** (n - 1), gaps)
    return total / factorial(n - 1)


def uniform_flag_volume(k: int, n: int) -> Fraction:
    """Flag polytope of U(k, n): its vertices are the permutations of
    (k, k-1, ..., 1, 0, ..., 0), so it is that permutohedron."""
    return permutohedron_volume([max(k - i, 0) for i in range(n)])


# ---------------------------------------------------------------------------
# invariants from a rank table
# ---------------------------------------------------------------------------

def tutte_coefficients(n: int, ranks: list[int]) -> dict[tuple[int, int], int]:
    """b[i, j] of the Tutte polynomial, sum over A of (x-1)^corank (y-1)^nullity."""
    r = ranks[-1]
    shapes: dict[tuple[int, int], int] = {}
    for a in range(1 << n):
        key = (r - ranks[a], a.bit_count() - ranks[a])
        shapes[key] = shapes.get(key, 0) + 1
    out: dict[tuple[int, int], int] = {}
    for (p, q), count in shapes.items():
        for i in range(p + 1):
            for j in range(q + 1):
                c = count * comb(p, i) * comb(q, j) * (-1) ** (p - i + q - j)
                out[(i, j)] = out.get((i, j), 0) + c
    return {key: c for key, c in out.items() if c}


def gamma_rank_sum(n: int, ranks: list[int]) -> int:
    """Gamma invariant as an alternating binomial sum over the rank table."""
    r = ranks[-1]
    total = sum((-1) ** (x.bit_count() & 1) * comb(r - ranks[x] + 1, 2) for x in range(1 << n))
    return total if r % 2 == 0 else -total


def beta_support(n: int, ranks: list[int]) -> list[int]:
    """Proper subsets A with nonzero beta(M/A): the superset Moebius
    transform of the rank table, which equals -signed_beta(M/A)."""
    t = list(ranks)
    for e in range(n):
        bit = 1 << e
        for mask in range(1 << n):
            if not mask & bit:
                t[mask] -= t[mask | bit]
    full = (1 << n) - 1
    return sorted((a for a in range(full) if t[a]), key=lambda a: (a.bit_count(), a))
