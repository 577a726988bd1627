import random

import pytest
from hypothesis import given, settings, strategies as st

from sdo.generators import ragged_multigraph, random_tree_pairs, tree_plus_chords
from sdo.graphs import Graph, UNREACHABLE
from sdo.spt import (
    dijkstra,
    distances_from,
    separator_split,
    tree_path,
)
from sdo.store import INF, open_store

from conftest import (
    balanced,
    bellman_ford,
    min_simple_path,
    naive_lca,
    path_graph,
    star_graph,
    with_weights,
)


class TestDijkstra:
    def test_unit_path(self):
        g = path_graph(3)
        assert dijkstra(g, 0).dist == [0, 1, 2]

    def test_bridge_removal_disconnects(self):
        g = path_graph(3)
        spt = dijkstra(g, 0, {1})
        assert spt.dist[2] is UNREACHABLE
        assert spt.parent[2] is None

    def test_four_cycle_detour(self):
        # s-u-t-v-s, fault (s,u): t is reached the other way round
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        eid = g.edge_ids_between(0, 1)[0]
        spt = dijkstra(g, 0, {eid})
        assert spt.dist == [0, 3, 2, 1]
        assert spt.dist[2] == min_simple_path(g, 0, 2, frozenset({eid}))

    def test_parent_distance_identity(self):
        g = tree_plus_chords(40, 25, 3)
        spt = dijkstra(g, 0)
        for v in range(1, g.n):
            e = g.edges[spt.parent_edge[v]]
            assert spt.dist[v] == spt.dist[spt.parent[v]] + e.weight

    def test_rebuild_is_bit_identical(self):
        g = tree_plus_chords(60, 40, 17)
        a, b = dijkstra(g, 5), dijkstra(g, 5)
        assert a.parent == b.parent
        assert a.parent_edge == b.parent_edge
        assert a.order == b.order

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            dijkstra(path_graph(2), 5)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 10**6), st.booleans(), st.data())
def test_dijkstra_matches_bellman_ford(n, extra, seed, ragged, data):
    # ragged: weights 0-3 on a multigraph with parallel edges and, usually,
    # vertices the source cannot reach
    if ragged:
        base = ragged_multigraph(n, extra, seed)
        g = with_weights(base, data.draw(st.lists(st.integers(0, 3), min_size=base.m, max_size=base.m)))
    else:
        g = tree_plus_chords(n, extra, seed)
    rng = random.Random(seed)
    source = rng.randrange(n) if ragged else 0
    banned = rng.sample(range(g.m), k=min(g.m, rng.randrange(3))) if g.m else []
    want = bellman_ford(g, source, frozenset(banned))
    assert dijkstra(g, source, frozenset(banned)).dist == want
    # the sweep answers in store integers, INF where no path exists
    want_ints = [INF if d is UNREACHABLE else d for d in want]
    for container in (tuple(banned), set(banned), dict.fromkeys(banned)):
        got = distances_from(g, source, container)
        assert got == want_ints
        assert all(type(d) is int for d in got)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 10**6))
def test_triangle_inequality_over_edges(n, extra, seed):
    g = tree_plus_chords(n, extra, seed)
    dist = dijkstra(g, 0).dist
    for e in g.edges:
        du, dv = dist[e.u], dist[e.v]
        if du is not UNREACHABLE and dv is not UNREACHABLE:
            assert abs(du - dv) <= e.weight


def preorder_index(spt):
    """The store's ancestor index of ``spt``: preorder numbers, subtree sizes."""
    store = open_store(spt)
    return store.tin, store.size


def covers(index, u: int, v: int) -> bool:
    """The query entry's ancestor test: u is an ancestor of v, or v itself."""
    tin, size = index
    return tin[u] <= tin[v] < tin[u] + size[u]


def interval_lca(spt, index, u: int, v: int) -> int:
    """Lowest common ancestor read off the preorder intervals: climb from u
    until its interval covers v."""
    x = u
    while x is not None and not covers(index, x, v):
        x = spt.parent[x]
    if x is None:
        raise ValueError(f"no common ancestor of {u} and {v}")
    return x


class TestLca:
    def test_star_center(self):
        spt = dijkstra(star_graph(2), 0)
        assert interval_lca(spt, preorder_index(spt), 1, 2) == 0

    def test_ancestor_case(self):
        spt = dijkstra(path_graph(3), 0)
        assert interval_lca(spt, preorder_index(spt), 1, 2) == 1

    def test_unreachable_raises(self):
        g = Graph.from_pairs(3, [(0, 1)])
        spt = dijkstra(g, 0)
        index = preorder_index(spt)
        assert (index[0][2], index[1][2]) == (-1, 0)
        assert not covers(index, 0, 2) and not covers(index, 2, 2)
        with pytest.raises(ValueError):
            interval_lca(spt, index, 0, 2)

    def test_matches_naive_walk_all_pairs_seeded(self):
        for seed in (1, 2, 3):
            g = Graph.from_pairs(200, random_tree_pairs(200, random.Random(seed)))
            spt = dijkstra(g, 0)
            index = preorder_index(spt)
            for u in range(0, 200, 7):
                for v in range(0, 200, 11):
                    assert interval_lca(spt, index, u, v) == naive_lca(spt, u, v)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6), st.data())
def test_lca_matches_naive_walk(n, seed, data):
    g = Graph.from_pairs(n, random_tree_pairs(n, random.Random(seed)))
    spt = dijkstra(g, 0)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    assert interval_lca(spt, preorder_index(spt), u, v) == naive_lca(spt, u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 3))
def test_is_ancestor_matches_parent_walk(n, seed, cuts):
    # banning tree edges leaves some vertices unreachable from the source;
    # they get preorder number -1 and size 0
    rng = random.Random(seed)
    g = Graph.from_pairs(n, random_tree_pairs(n, rng))
    banned = set(rng.sample(range(g.m), k=min(cuts, g.m)))
    spt = dijkstra(g, rng.randrange(n), banned)
    index = preorder_index(spt)
    for u in range(n):
        if not spt.reachable(u):
            assert (index[0][u], index[1][u]) == (-1, 0), u
        for v in range(n):
            want = spt.reachable(u) and spt.reachable(v) and naive_lca(spt, u, v) == u
            assert covers(index, u, v) == want, (u, v)


def side_sizes(spt, split) -> tuple[int, int, int]:
    """(reachable count, |V_M|, |V_N|) of ``split``, a split of ``spt``."""
    return spt.reachable_count(), sum(split.in_m), sum(split.in_n)


class TestSeparator:
    def test_path3_balanced_split(self):
        spt = dijkstra(path_graph(3), 0)
        split = separator_split(spt)
        assert split.r == 1
        assert side_sizes(spt, split)[1:] == (2, 2)

    def test_path9_lands_at_position_3(self):
        spt = dijkstra(path_graph(9), 0)
        split = separator_split(spt)
        assert split.r == 3
        nr, size_m, size_n = side_sizes(spt, split)
        assert (size_m, size_n) == (4, 6)
        assert balanced(nr, size_m, size_n)
        assert all(3 <= s <= 7 for s in (size_m, size_n))

    def test_star_groups_children_at_center(self):
        g = star_graph(10)
        spt = dijkstra(g, 0)
        split = separator_split(spt)
        assert split.r == 0
        assert balanced(*side_sizes(spt, split))

    def test_single_vertex_raises(self):
        g = Graph.from_pairs(2, [(0, 1)])
        spt = dijkstra(g, 0, {0})
        with pytest.raises(ValueError):
            separator_split(spt)

    def test_sides_overlap_only_at_r(self):
        g = tree_plus_chords(50, 20, 9)
        split = separator_split(dijkstra(g, 0))
        both = [v for v in range(g.n) if split.in_m[v] and split.in_n[v]]
        assert both == [split.r]

    def test_balance_on_1000_random_trees(self):
        rng = random.Random(20240813)
        for _ in range(1000):
            n = rng.randrange(2, 501)
            g = Graph.from_pairs(n, random_tree_pairs(n, rng))
            spt = dijkstra(g, rng.randrange(n))
            sizes = side_sizes(spt, separator_split(spt))
            assert balanced(*sizes), (n, sizes)


class TestTreePath:
    def test_full_path(self):
        spt = dijkstra(path_graph(3), 0)
        p = tree_path(spt, 0, 2)
        assert p.vertices == [0, 1, 2]
        assert p.edge_ids == [0, 1]

    def test_trivial_path(self):
        spt = dijkstra(path_graph(3), 0)
        p = tree_path(spt, 1, 1)
        assert p.vertices == [1]
        assert p.edge_ids == []

    def test_non_ancestor_raises(self):
        spt = dijkstra(star_graph(2), 0)
        with pytest.raises(ValueError):
            tree_path(spt, 1, 2)

    def test_matches_parent_walk(self):
        g = tree_plus_chords(40, 0, 5)
        spt = dijkstra(g, 0)
        for v in range(g.n):
            walked = [v]
            while walked[-1] != 0:
                walked.append(spt.parent[walked[-1]])
            assert tree_path(spt, 0, v).vertices == walked[::-1]
