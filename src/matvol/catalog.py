"""Deterministic test catalog: uniforms, small graphic matroids, and duals.

Each matroid is listed once: the catalog dedupes by ``Matroid`` equality
(ground set size and bases), so isomorphic but differently labeled
matroids stay apart and equal ones built by different routes merge.

The multigraph generator enumerates one canonical representative per
isomorphism class of connected multigraphs (loops and parallel edges
allowed) with up to a given number of edges.  Graphs grow one edge at a
time; every connected multigraph arises this way because a non-bridge edge
can be removed without disconnecting, and an all-bridge graph is a tree,
which loses a leaf edge instead.  Canonical forms are minimal edge lists
over relabelings that respect a color refinement of the vertices, so the
search never touches more permutations than the symmetry of the graph.
The labelings that tie in that search give the graph's automorphisms, and
a graph grows only by one new edge per orbit of them.
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


def _canonical(v: int, edges: tuple[tuple[int, int], ...]) -> tuple[CanonGraph, list[tuple[int, ...]]]:
    """The canonical form of a multigraph and the automorphisms of that form.

    The labelings that tie for the minimum differ by an automorphism, and
    every automorphism respects the color classes, so composing each tied
    labeling with the inverse of the first gives all of them, as tuples
    indexed by canonical label (entry 0 unused)."""
    colors = _refine_colors(v, edges)
    classes: dict = {}
    for vertex in range(1, v + 1):
        classes.setdefault(colors[vertex], []).append(vertex)
    ordered_classes = [classes[c] for c in sorted(classes)]
    # assign consecutive label blocks per class, trying all in-class orders
    best: tuple[tuple[int, int], ...] | None = None
    ties: list[list[int]] = []
    for perm_parts in product(*(permutations(cls) for cls in ordered_classes)):
        label = [0] * (v + 1)
        nxt = 1
        for part in perm_parts:
            for vertex in part:
                label[vertex] = nxt
                nxt += 1
        ends = [(label[a], label[b]) for a, b in edges]
        relabeled = tuple(sorted([(a, b) if a <= b else (b, a) for a, b in ends]))
        if best is None or relabeled < best:
            best, ties = relabeled, [label]
        elif relabeled == best:
            ties.append(label)
    first = [0] * (v + 1)
    for vertex, canon in enumerate(ties[0]):
        first[canon] = vertex
    return (v, best), [tuple(label[vertex] for vertex in first) for label in ties]


def _orbit_representatives(
    items: list[tuple[int, ...]], automorphisms: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The first of each orbit of sorted vertex tuples, in the order of ``items``."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for item in items:
        if item not in seen:
            out.append(item)
            seen.update(tuple(sorted([sigma[x] for x in item])) for sigma in automorphisms)
    return out


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """Canonical connected multigraphs with 1..max_edges edges, in a fixed order.

    A graph grows by one edge per orbit of its automorphisms on vertex pairs
    and one pendant edge per vertex orbit: one orbit's edges give isomorphic
    graphs."""
    if max_edges < 1:
        return []
    found = dict([_canonical(2, ((1, 2),)), _canonical(1, ((1, 1),))])  # graph -> automorphisms
    level: list[CanonGraph] = sorted(found)
    out = list(level)
    for _ in range(1, max_edges):
        nxt: dict[CanonGraph, list[tuple[int, ...]]] = {}
        for v, edges in level:
            automorphisms = found[v, edges]
            pairs = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]
            for i, j in _orbit_representatives(pairs, automorphisms):
                graph, auts = _canonical(v, tuple(sorted(edges + ((i, j),))))
                nxt.setdefault(graph, auts)
            for (i,) in _orbit_representatives([(i,) for i in range(1, v + 1)], automorphisms):
                graph, auts = _canonical(v + 1, tuple(sorted(edges + ((i, v + 1),))))
                nxt.setdefault(graph, auts)
        found = nxt
        level = sorted(nxt)
        out.extend(level)
    return [Graph(v, edges) for v, edges in out]


def full_catalog(max_n: int) -> list[CatalogEntry]:
    """Every uniform matroid and the graphic matroid of every connected
    multigraph on at most ``max_n`` elements, then the duals of all of
    them, each matroid once.

    Identity is ``Matroid`` equality (ground set size and bases), so a
    matroid keeps the name of its first entry: a graphic matroid that is
    uniform is listed as the uniform one, and a dual that is already
    listed is dropped."""
    primal = [(f"uniform-{k}-{n}", uniform(k, n)) for n in range(1, max_n + 1) for k in range(n + 1)]
    primal += [(f"graphic-{len(g.edges)}e-{idx}", graphic(g)) for idx, g in enumerate(connected_multigraphs(max_n))]
    names: dict[Matroid, str] = {}
    for name, m in primal + [(f"dual-{name}", dual(m)) for name, m in primal]:
        names.setdefault(m, name)
    return [CatalogEntry(name, m) for m, name in names.items()]
