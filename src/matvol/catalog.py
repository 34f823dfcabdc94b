"""Deterministic test catalog: uniforms, small graphic matroids, and duals.

The multigraph generator enumerates one canonical representative per
isomorphism class of connected multigraphs (loops and parallel edges
allowed) with up to a given number of edges.  Graphs grow one edge at a
time; every connected multigraph arises this way because a non-bridge edge
can be removed without disconnecting, and an all-bridge graph is a tree,
which loses a leaf edge instead.  Canonical forms are minimal edge lists
over relabelings that respect a color refinement of the vertices, so the
search never touches more permutations than the symmetry of the graph.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from .matroid import Graph, Matroid, dual, graphic, uniform

CanonGraph = tuple[int, tuple[tuple[int, int], ...]]


class CatalogEntry(NamedTuple):
    name: str
    matroid: Matroid


def _refine_colors(v: int, edges: tuple[tuple[int, int], ...]) -> list:
    adj: list[list[int]] = [[] for _ in range(v + 1)]
    loops = [0] * (v + 1)
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            adj[a].append(b)
            adj[b].append(a)
    colors = [(len(adj[i]) + 2 * loops[i], loops[i]) for i in range(v + 1)]
    for _ in range(2):
        colors = [
            (colors[i], tuple(sorted(colors[j] for j in adj[i])))
            for i in range(v + 1)
        ]
    return colors


def _canonical(v: int, edges: tuple[tuple[int, int], ...]) -> CanonGraph:
    colors = _refine_colors(v, edges)
    classes: dict = {}
    for vertex in range(1, v + 1):
        classes.setdefault(colors[vertex], []).append(vertex)
    ordered_classes = [classes[c] for c in sorted(classes)]
    # assign consecutive label blocks per class, trying all in-class orders
    best: CanonGraph | None = None
    for perm_parts in product(*(permutations(cls) for cls in ordered_classes)):
        label = {}
        nxt = 1
        for part in perm_parts:
            for vertex in part:
                label[vertex] = nxt
                nxt += 1
        relabeled = tuple(
            sorted(tuple(sorted((label[a], label[b]))) for a, b in edges)
        )
        cand = (v, relabeled)
        if best is None or cand < best:
            best = cand
    return best


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """Canonical connected multigraphs with 1..max_edges edges, in a fixed order."""
    if max_edges < 1:
        return []
    level: list[CanonGraph] = sorted(
        {_canonical(2, ((1, 2),)), _canonical(1, ((1, 1),))}
    )
    out = list(level)
    for _ in range(1, max_edges):
        nxt: set[CanonGraph] = set()
        for v, edges in level:
            for i in range(1, v + 1):
                for j in range(i, v + 1):
                    nxt.add(_canonical(v, tuple(sorted(edges + ((i, j),)))))
                nxt.add(_canonical(v + 1, tuple(sorted(edges + ((i, v + 1),)))))
        level = sorted(nxt)
        out.extend(level)
    return [Graph(v, edges) for v, edges in out]


def full_catalog(max_n: int) -> list[CatalogEntry]:
    """Uniform and small graphic matroids plus all their duals, deduplicated."""
    entries: list[CatalogEntry] = []
    seen: set[tuple[int, frozenset[int]]] = set()

    def push(name: str, m: Matroid):
        key = (m.n, m.bases)
        if key not in seen:
            seen.add(key)
            entries.append(CatalogEntry(name, m))

    primal: list[CatalogEntry] = []
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            primal.append(CatalogEntry(f"uniform-{k}-{n}", uniform(k, n)))
    for idx, g in enumerate(connected_multigraphs(max_n)):
        primal.append(CatalogEntry(f"graphic-{len(g.edges)}e-{idx}", graphic(g)))

    for entry in primal:
        push(entry.name, entry.matroid)
    for entry in primal:
        push(f"dual-{entry.name}", dual(entry.matroid))
    return entries
