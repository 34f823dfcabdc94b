"""Deterministic test catalog: uniforms, small graphic matroids, and duals.

Each matroid is listed once: the catalog dedupes by ``Matroid`` equality
(ground set size and bases), so isomorphic but differently labeled
matroids stay apart and equal ones built by different routes merge.

The multigraph generator enumerates one canonical representative per
isomorphism class of connected multigraphs (loops and parallel edges
allowed) with up to a given number of edges.  Canonical forms are minimal
edge lists over relabelings that respect a color refinement of the
vertices.  The search skips the relabelings that only swap twins (two
vertices whose swap is an automorphism), so a star tries one labeling,
not the factorial of its leaves.  The labelings that tie in that search,
with the swaps of twins, generate the graph's automorphisms.

Graphs grow one edge at a time by McKay's canonical construction path,
every level from one root, the one-vertex graph with no edge: a graph G
gains one edge per orbit of its automorphisms on vertex pairs and one
pendant edge per vertex orbit, and the child H = G + e is kept only if e
is H's canonical deletion.  An edge is deletable when removing it,
and a vertex it leaves isolated, keeps the graph connected: a loop, a
parallel copy, a non-bridge, or the one edge of a degree-1 vertex.  Among
H's deletable edges, those with the largest cheap invariant (the sorted
(degree, loops) of their ends and their multiplicity) are the candidates,
and the canonical deletion is the orbit, under H's automorphisms, of the
candidate whose image under the canonical labeling is least.  A child
that some deletable edge beats on the invariant alone is dropped before it
is canonicalized.

Each class is reached exactly once.  The canonical deletion depends on H
alone, so every kept copy of H comes from the parent H - e, one graph of
the level below, and two of its pairs that both give H with e in the
canonical orbit differ by an automorphism of that parent, so they are one
orbit.  Every class is reached, because every connected multigraph with
an edge has a deletable edge (a loop, a non-bridge, or in a tree a leaf
edge), so removing its canonical deletion gives a connected parent; the
one-edge graphs, the loop and the edge, have the root as parent.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import Iterator, NamedTuple

from .matroid import Graph, Matroid, dual, graphic, uniform

CanonGraph = tuple[int, tuple[tuple[int, int], ...]]


class CatalogEntry(NamedTuple):
    name: str
    matroid: Matroid


def _color_classes(v: int, edges: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """The vertex classes of two rounds of color refinement, in color order.

    Colors start as (degree, loops), here degree * base + loops with base
    above any loop count, and a round pairs each color with the sorted
    colors of the vertex's neighbors.  Once a round splits no class, no
    later round does and the class order stays the same, so the refinement
    stops there."""
    adj: list[list[int]] = [[] for _ in range(v + 1)]
    base = len(edges) + 1
    colors: list = [0] * (v + 1)
    for a, b in edges:
        if a == b:
            colors[a] += 2 * base + 1
        else:
            adj[a].append(b)
            adj[b].append(a)
            colors[a] += base
            colors[b] += base
    count = len(set(colors[1:]))
    for _ in range(2):
        if count == v:
            break
        colors = [(colors[i], tuple(sorted([colors[j] for j in adj[i]]))) for i in range(v + 1)]
        split = len(set(colors[1:]))
        if split == count:
            break
        count = split
    classes: dict = {}
    for vertex in range(1, v + 1):
        classes.setdefault(colors[vertex], []).append(vertex)
    return [classes[c] for c in sorted(classes)]


def _twin_groups(cls: list[int], rows: list[list[int]]) -> list[list[int]]:
    """The vertices of one color class grouped into twins: u and w are twins
    when swapping them fixes the adjacency matrix ``rows``.  Being twins is
    an equivalence relation, so a vertex joins the group whose first member
    it twins."""
    groups: list[list[int]] = []
    for w in cls:
        for group in groups:
            u = group[0]
            swapped = rows[u][:]
            swapped[u], swapped[w] = swapped[w], swapped[u]
            if swapped == rows[w]:
                group.append(w)
                break
        else:
            groups.append([w])
    return groups


def _orders(groups: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every order of the groups' vertices that keeps each group's own order."""
    if len(groups) == 1:
        yield tuple(groups[0])
        return
    for g, group in enumerate(groups):
        rest = groups[:g] + ([group[1:]] if len(group) > 1 else []) + groups[g + 1 :]
        for order in _orders(rest):
            yield (group[0],) + order


def _canonical(v: int, edges: tuple[tuple[int, int], ...]) -> tuple[CanonGraph, list[tuple[int, ...]], list[int]]:
    """The canonical form of a multigraph, generators of its automorphisms,
    and a labeling that gives the form (``label[vertex]``, entry 0 unused).

    Labels go in consecutive blocks per color class, so a graph whose
    classes are all single vertices tries one labeling.  Swapping twins
    changes no relabeled edge list, so the twins of a class of three or
    more keep their order and the search tries the other orders only.  The
    labelings that tie for the minimum differ by automorphisms, and every
    automorphism respects the color classes, so the ties composed with the
    inverse of the first, with the twin swaps, generate all of them, as
    tuples indexed by canonical label."""
    rows: list[list[int]] = []
    twins: list[list[int]] = []
    choices: list = []
    for cls in _color_classes(v, edges):
        if len(cls) < 3:
            choices.append(permutations(cls))
            continue
        if not rows:
            rows = [[0] * (v + 1) for _ in range(v + 1)]
            for a, b in edges:
                rows[a][b] += 1
                rows[b][a] += a != b
        groups = _twin_groups(cls, rows)
        twins += [group for group in groups if len(group) > 1]
        choices.append(permutations(cls) if len(groups) == len(cls) else _orders(groups))
    best = None
    ties = []
    for perm_parts in product(*choices):
        label = [0] * (v + 1)
        for canon, vertex in enumerate(chain.from_iterable(perm_parts), 1):
            label[vertex] = canon
        relabeled = sorted([(label[a], label[b]) if label[a] <= label[b] else (label[b], label[a]) for a, b in edges])
        if best is None or relabeled < best:
            best, ties = relabeled, [label]
        elif relabeled == best:
            ties.append(label)
    label = ties[0]
    first = [0] * (v + 1)
    for vertex, canon in enumerate(label):
        first[canon] = vertex
    generators = [tuple([tie[vertex] for vertex in first]) for tie in ties[1:]]
    for group in twins:
        for u, w in zip(group, group[1:]):
            swap = list(range(v + 1))
            swap[label[u]], swap[label[w]] = label[w], label[u]
            generators.append(tuple(swap))
    return (v, tuple(best)), generators, label


def _orbit(item: tuple[int, ...], generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The orbit of a sorted vertex tuple under the group of the generators."""
    orbit = {item}
    stack = [item]
    while stack:
        x = stack.pop()
        for sigma in generators:
            y = tuple(sorted([sigma[z] for z in x]))
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _orbit_representatives(items: list[tuple[int, ...]], generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first of each orbit of sorted vertex tuples, in the order of ``items``."""
    if not generators:
        return items
    seen: set[tuple[int, ...]] = set()
    out = []
    for item in items:
        if item not in seen:
            out.append(item)
            seen |= _orbit(item, generators)
    return out


def _bridge_side(edges: tuple[tuple[int, int], ...], a: int, b: int) -> int:
    """The vertices that reach a without the edge (a, b), as a bit mask, if
    that edge is a bridge; 0 if it is not.  The edge appears once."""
    side, grown = 1 << a, True
    while grown:
        grown = False
        for x, y in edges:
            if (side >> x ^ side >> y) & 1 and (x, y) != (a, b):
                side |= 1 << x | 1 << y
                grown = True
    return 0 if side >> b & 1 else side


def _augmentations(
    v: int, edges: tuple[tuple[int, int], ...], generators: list[tuple[int, ...]]
) -> Iterator[tuple[CanonGraph, list[tuple[int, ...]]]]:
    """The children H = G + e of G = (v, edges) whose canonical deletion is
    e, as canonical forms with generators of their automorphisms.

    Only the ends of e change degree, so the invariants of H's edges come
    from G's degree list, and a bridge of G stays one in H unless e joins
    its two sides."""
    base = len(edges) + 2  # above any loop count in a child
    key = [0] * (v + 2)  # degree * base + loops; v + 1 is a pendant edge's new vertex
    mult: dict[tuple[int, int], int] = {}
    for a, b in edges:
        mult[a, b] = mult.get((a, b), 0) + 1
        key[a] += base
        key[b] += base + (a == b)
    # side 0: a loop, a parallel pair or a non-bridge, deletable in every child
    pairs = [(a, b, m, _bridge_side(edges, a, b) if a != b and m == 1 else 0) for (a, b), m in mult.items()]
    items = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)] + [(i,) for i in range(1, v + 1)]
    for item in _orbit_representatives(items, generators):
        i, j = item if len(item) == 2 else (item[0], v + 1)
        k = key[:]
        k[i] += base
        k[j] += base + (i == j)
        crossed = j if j <= v else i  # a pendant edge lies on i's side of every bridge
        lo, hi = (k[i], k[j]) if k[i] <= k[j] else (k[j], k[i])
        invariant = (mult.get((i, j), 0) + 1, hi, lo)
        tied = [(i, j)]
        for a, b, m, side in pairs:
            lo, hi = (k[a], k[b]) if k[a] <= k[b] else (k[b], k[a])
            if (m, hi, lo) < invariant or (a, b) == (i, j):
                continue
            if side and lo != base and not (side >> i ^ side >> crossed) & 1:
                continue  # still a bridge, and neither end has degree 1
            if (m, hi, lo) > invariant:
                break
            tied.append((a, b))
        else:
            graph, auts, label = _canonical(max(v, j), tuple(sorted(edges + ((i, j),))))
            if len(tied) > 1:
                images = [tuple(sorted((label[a], label[b]))) for a, b in tied]
                if min(images) not in _orbit(images[0], auts):
                    continue
            yield graph, auts


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """Canonical connected multigraphs with 1..max_edges edges, in a fixed
    order: by edge count, then by canonical form."""
    found: dict[CanonGraph, list[tuple[int, ...]]] = {(1, ()): []}
    out: list[CanonGraph] = []
    for _ in range(max_edges):
        found = {child: auts for (v, edges), gens in found.items() for child, auts in _augmentations(v, edges, gens)}
        out.extend(sorted(found))
    return [Graph(v, edges) for v, edges in out]


def full_catalog(max_n: int) -> list[CatalogEntry]:
    """Every uniform matroid and the graphic matroid of every connected
    multigraph on at most ``max_n`` elements, then the duals of the
    graphic ones, each matroid once.  The dual of U(k, n) is U(n - k, n),
    already listed, so uniform duals are not built.

    Identity is ``Matroid`` equality (ground set size and bases), so a
    matroid keeps the name of its first entry: a graphic matroid that is
    uniform is listed as the uniform one, and a dual that is already
    listed is dropped."""
    uniforms = [(f"uniform-{k}-{n}", uniform(k, n)) for n in range(1, max_n + 1) for k in range(n + 1)]
    graphics = [(f"graphic-{len(g.edges)}e-{idx}", graphic(g)) for idx, g in enumerate(connected_multigraphs(max_n))]
    names: dict[Matroid, str] = {}
    for name, m in uniforms + graphics + [(f"dual-{name}", dual(m)) for name, m in graphics]:
        names.setdefault(m, name)
    return [CatalogEntry(name, m) for m, name in names.items()]
