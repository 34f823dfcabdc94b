import hashlib

from matvol.catalog import connected_multigraphs, full_catalog
from matvol.cli import serialize_matroid
from matvol.matroid import from_bases, graphic, is_connected, uniform


def test_multigraph_counts_per_level():
    graphs = connected_multigraphs(6)
    by_edges = {}
    for g in graphs:
        by_edges.setdefault(len(g.edges), []).append(g)
    # hand-checked through 2 edges; larger levels frozen as regression values
    assert len(by_edges[1]) == 2
    assert len(by_edges[2]) == 4
    assert len(by_edges[3]) == 11
    assert len(by_edges[4]) == 30
    assert len(by_edges[5]) == 95
    assert len(by_edges[6]) == 328


def test_multigraph_generator_deterministic():
    a = connected_multigraphs(4)
    b = connected_multigraphs(4)
    assert [(g.vertices, g.edges) for g in a] == [(g.vertices, g.edges) for g in b]


def test_two_edge_classes():
    graphs = [g for g in connected_multigraphs(2) if len(g.edges) == 2]

    def shape(g):
        loops = sum(1 for u, v in g.edges if u == v)
        return (g.vertices, loops, len(set(g.edges)))

    # parallel pair, path, edge with a loop, two loops on one vertex
    assert sorted(shape(g) for g in graphs) == [(1, 2, 1), (2, 0, 1), (2, 1, 2), (3, 0, 2)]


def test_catalog_contains_expected_members(catalog5):
    matroids = {(e.matroid.n, e.matroid.bases) for e in catalog5}
    assert (3, uniform(2, 3).bases) in matroids
    assert (4, uniform(2, 4).bases) in matroids
    # dual of U_{1,4}
    assert (4, uniform(3, 4).bases) in matroids


def test_catalog_entries_distinct(catalog6):
    keys = [(e.matroid.n, e.matroid.bases) for e in catalog6]
    assert len(keys) == len(set(keys))


def test_catalog_matroids_satisfy_exchange(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.n <= 4:
            rebuilt = from_bases(m.n, m.bases)
            assert rebuilt == m, entry.name


def test_cycle_graphs_are_uniform():
    from matvol.matroid import Graph

    for k in (3, 4, 5):
        edges = tuple((i, i % k + 1) for i in range(1, k + 1))
        assert graphic(Graph(k, edges)) == uniform(k - 1, k)


def test_catalog_has_connected_and_disconnected(catalog6):
    flags = {is_connected(e.matroid) for e in catalog6}
    assert flags == {True, False}


def test_no_multigraphs_below_one_edge():
    assert connected_multigraphs(0) == []
    assert connected_multigraphs(-3) == []


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_catalog_lists_are_frozen(catalog6):
    """Digests of the lists a search over every vertex pair gave, before
    graphs grew by automorphism orbits only."""
    graphs = [(g.vertices, g.edges) for g in connected_multigraphs(7)]
    assert len(graphs) == 1681
    assert _sha256(graphs) == "8867882295775a2c68a75b8b119a616e4250962a1ba5c4682dc32baeae804011"
    entries = [(e.name, serialize_matroid(e.matroid)) for e in catalog6]
    assert _sha256(entries) == "af28d5e950f4505f038344ff1da921b3210806c63be588dd44386ee5a5d1fccb"


def test_catalog_lists_past_n_7_are_frozen():
    """Digests of the lists every child's canonicalization gave, before
    graphs grew by canonical augmentation."""
    graphs = [(g.vertices, g.edges) for g in connected_multigraphs(8)]
    assert len(graphs) == 6460
    assert _sha256(graphs) == "0448a5238e2647df916dfec719303edb626d24357bc9d1e31bae281cab5d5b39"
    entries = [(e.name, serialize_matroid(e.matroid)) for e in full_catalog(7)]
    assert len(entries) == 1309
    assert _sha256(entries) == "9267564bb4134c5a7a946d5b9982d9a94de61c1a5f29e1b4ff1baf7c6a07d034"


def test_each_class_grows_from_one_parent():
    """Every child that survives canonical augmentation is a new class, so
    no class is canonicalized twice only to be dropped as a repeat."""
    from matvol.catalog import _augmentations, _canonical

    graphs = connected_multigraphs(7)
    found = {graph: auts for graph, auts, _ in (_canonical(2, ((1, 2),)), _canonical(1, ((1, 1),)))}
    for edges in range(2, 8):
        children = [child for graph in sorted(found) for child in _augmentations(*graph, found[graph])]
        found = dict(children)
        assert len(children) == len(found) == sum(len(g.edges) == edges for g in graphs)


def test_the_one_edge_level_is_the_loop_and_the_edge():
    assert connected_multigraphs(1) == [(1, ((1, 1),)), (2, ((1, 2),))]


def test_every_level_grows_from_the_one_vertex_graph():
    """From the one-vertex graph with no edge and no automorphism
    generators, canonical augmentation reaches each class exactly once at
    every level, the first included."""
    from matvol.catalog import _augmentations

    graphs = [(g.vertices, g.edges) for g in connected_multigraphs(6)]
    found = {(1, ()): []}
    for edges in range(1, 7):
        children = [child for graph, auts in found.items() for child in _augmentations(*graph, auts)]
        found = dict(children)
        assert len(children) == len(found)
        assert sorted(found) == [g for g in graphs if len(g[1]) == edges]
