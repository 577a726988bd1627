from hypothesis import given, settings, strategies as st

from sdo.generators import tree_plus_chords
from sdo.graphs import Graph
from sdo.pathrep import replacement_lengths_along_path
from sdo.spt import dijkstra, distances_from, tree_path
from sdo.store import INF

from conftest import distances


def table_for(g: Graph, s: int, r: int):
    """The replacement table in public distances, and the path."""
    spt_s = dijkstra(g, s)
    path = tree_path(spt_s, s, r)
    table = replacement_lengths_along_path(g, spt_s, distances_from(g, r), path)
    return distances(table), path


def per_edge_dijkstra(g: Graph, s: int, r: int, path):
    return [dijkstra(g, s, {eid}).dist[r] for eid in path.edge_ids]


def test_chord_gives_direct_replacement():
    # s-a-r chain plus a longer chord (s, r): removing either chain edge
    # leaves the chord as the only detour
    from sdo.graphs import Edge

    g = Graph(3, [Edge(0, 1), Edge(1, 2), Edge(0, 2, 3)])
    table, path = table_for(g, 0, 2)
    assert path.vertices == [0, 1, 2]
    assert table == [3, 3]
    assert table == per_edge_dijkstra(g, 0, 2, path)


def test_pure_path_is_all_bridges():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    spt = dijkstra(g, 0)
    path = tree_path(spt, 0, 2)
    assert replacement_lengths_along_path(g, spt, distances_from(g, 2), path) == [INF, INF]


def test_empty_path():
    g = Graph.from_pairs(2, [(0, 1)])
    spt = dijkstra(g, 0)
    path = tree_path(spt, 0, 0)
    assert replacement_lengths_along_path(g, spt, distances_from(g, 0), path) == []


def test_twenty_random_graphs_match_per_edge_dijkstra():
    for seed in range(20):
        n = 12 + seed * 3
        g = tree_plus_chords(n, n // 2 + seed % 5, seed * 101 + 7)
        spt = dijkstra(g, 0)
        r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
        table, path = table_for(g, 0, r)
        assert table == per_edge_dijkstra(g, 0, r, path), seed


def test_monotone_lower_bound():
    g = tree_plus_chords(30, 25, 5)
    spt = dijkstra(g, 0)
    r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
    table, _ = table_for(g, 0, r)
    for value in table:
        assert value >= spt.dist[r]


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 30), st.integers(0, 25), st.integers(0, 10**6))
def test_matches_per_edge_dijkstra(n, extra, seed):
    g = tree_plus_chords(n, extra, seed)
    spt = dijkstra(g, 0)
    r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
    table, path = table_for(g, 0, r)
    assert table == per_edge_dijkstra(g, 0, r, path)
