import math

import pytest
from hypothesis import given, settings, strategies as st

from sdo.baseline import brute_ssrp
from sdo.generators import (
    nested_arcs,
    ragged_multigraph,
    tree_plus_chords,
    verify_corpus,
)
from sdo.graphs import Graph, UNREACHABLE
from sdo.oracle import build_node, build_oracle
from sdo.query import query, ssrp
from sdo.spt import build_preorder, dijkstra, separator_split
from sdo.store import INF, close_store, open_store

from conftest import (
    child_maps,
    distances,
    leaf_table,
    path_graph,
    primary_positions,
    source_tree,
    split_sizes,
    star_graph,
    vertex_segment,
)


def walk_internal(oracle):
    """(store id, node) of every internal node; the tree's preorder is the
    store's node order."""
    for i, node in enumerate(oracle.nodes()):
        if not node.is_leaf:
            yield i, node


def build_leaf(g, depth):
    """A node built alone on ``g`` at ``depth``, and its store."""
    spt = dijkstra(g, 0)
    build_preorder(spt)
    store = open_store(spt)
    node = build_node(spt, depth, store)
    return node, close_store(store)


def assert_child_distances_equal_parent_distances(oracle):
    """Every child vertex lies at its parent vertex's source distance, and
    every node vertex at the input-graph distance of its original vertex."""
    store = oracle.store
    nodes = list(oracle.nodes())
    root = nodes[0]
    original = {v: v for v in range(root.graph.n)}
    input_dist = source_tree(oracle).dist
    stack = [(0, original, dijkstra(root.graph, root.source).dist)]
    while stack:
        i, original, dist = stack.pop()
        for v, ov in original.items():
            assert dist[v] == input_dist[ov]
        if nodes[i].is_leaf:
            continue
        lv, rv, _, _ = child_maps(store, i, nodes[i].graph)
        for child, vmap in ((store.left[i], lv), (store.right[i], rv)):
            child_dist = dijkstra(nodes[child].graph, nodes[child].source).dist
            for v, cv in vmap.items():
                assert child_dist[cv] == dist[v]
            child_original = {vmap[v]: ov for v, ov in original.items() if v in vmap}
            stack.append((child, child_original, child_dist))


def test_tree_nodes_are_store_nodes_in_preorder():
    for label, g, s in verify_corpus(seed=11, count=28, max_n=60):
        oracle = build_oracle(g, s)
        store = oracle.store
        nodes = list(oracle.nodes())
        index = {id(node): i for i, node in enumerate(nodes)}
        assert len(nodes) == oracle.node_count, label
        for i, node in enumerate(nodes):
            original = sum(not e.virtual for e in node.graph.edges)
            assert store.vbase[i + 1] - store.vbase[i] == node.graph.n, (label, i)
            assert store.ebase[i + 1] - store.ebase[i] == original, (label, i)
            if node.is_leaf:
                assert store.left[i] == store.right[i] == store.sep[i] == -1, (label, i)
                continue
            assert store.sep[i] == node.separator, (label, i)
            assert store.left[i] == i + 1 == index[id(node.left)], (label, i)
            assert store.right[i] == index[id(node.right)], (label, i)


class TestLeaves:
    def test_single_edge_root_is_leaf(self):
        oracle = build_oracle(Graph.from_pairs(2, [(0, 1)]), 0)
        root = oracle.root
        assert root.is_leaf
        assert leaf_table(oracle.store, 0) == {0: [0, UNREACHABLE]}

    def test_small_non_root_nodes_are_leaves(self):
        node, store = build_leaf(path_graph(4), depth=1)
        assert node.is_leaf
        assert node.left is None and node.right is None
        assert set(leaf_table(store, 0)) == {0, 1, 2}

    def test_leaf_tables_match_banned_dijkstra(self):
        g = tree_plus_chords(4, 2, 8)
        node, store = build_leaf(g, depth=3)
        assert node.is_leaf
        for eid, dist in leaf_table(store, 0).items():
            assert dist == dijkstra(g, 0, {eid}).dist


class TestThreeVertexPath:
    def test_root_splits_with_leaf_children(self):
        oracle = build_oracle(path_graph(3), 0)
        root = oracle.root
        assert not root.is_leaf
        assert root.separator == 1
        assert oracle.depth == 1
        assert root.left.is_leaf and root.right.is_leaf


class TestDegenerateSeparator:
    def test_source_equals_separator(self):
        # star from the center: the separator lands on the source, the
        # primary path is empty, children are still built
        oracle = build_oracle(star_graph(10), 0)
        root = oracle.root
        assert root.separator == root.source == 0
        assert len(root.primary_path) == 1
        assert root.primary_path.edge_ids == []
        assert set(vertex_segment(oracle.store, "dist_r", 0)) == {INF}
        assert oracle.store.srbase[1] == 0
        assert root.sr_replacements is None
        assert root.dep is None
        assert root.left is not None and root.right is not None


class TestChildGraphs:
    def test_four_cycle_left_child_shortcut_weight(self):
        # s-u-t-v-s: separator u; the only shortcut carries the length of the
        # route around the far side, u-t-v
        from sdo.graphs import Edge

        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        oracle = build_oracle(g, 0)
        root = oracle.root
        assert root.separator == 1
        lmap, _, left_edge_map, _ = child_maps(oracle.store, 0, root.graph)
        banned = set(left_edge_map)
        virtuals = [e for e in root.left.graph.edges if e.virtual]
        assert virtuals == [Edge(lmap[1], lmap[3], 2, virtual=True)]
        assert dijkstra(g, 1, banned).dist[3] == 2

    def test_child_distances_equal_parent_distances(self):
        for seed in (0, 1, 2):
            g = tree_plus_chords(45, 30, seed)
            assert_child_distances_equal_parent_distances(build_oracle(g, 0))

    def test_fresh_shortcuts_incident_to_separator_and_new_source(self):
        g = tree_plus_chords(40, 20, 4)
        oracle = build_oracle(g, 0)
        for i, node in walk_internal(oracle):
            lv, _, le, re = child_maps(oracle.store, i, node.graph)
            r_left = lv[node.separator]
            for eid in range(len(le), node.left.graph.m):
                e = node.left.graph.edges[eid]
                assert e.virtual and r_left in (e.u, e.v)
            for eid in range(len(re), node.right.graph.m):
                e = node.right.graph.edges[eid]
                assert e.virtual and node.right.source in (e.u, e.v)

    def test_unreachable_shortcut_weights_are_omitted(self):
        # pure path: the far side is unreachable once its edges are banned,
        # so the left child gains no shortcut edges at all
        oracle = build_oracle(path_graph(9), 0)
        root = oracle.root
        lv, rv, le, _ = child_maps(oracle.store, 0, root.graph)
        m_side = [v for v in lv if v not in rv]
        assert m_side
        banned_m = set(le)
        avoid = dijkstra(root.graph, root.separator, banned_m).dist
        assert all(avoid[v] is UNREACHABLE for v in m_side)
        assert not any(e.virtual for e in root.left.graph.edges)
        # the far side keeps exactly one entry edge, to the separator itself
        right_virtuals = [e for e in root.right.graph.edges if e.virtual]
        r_right = rv[root.separator]
        d_r = dijkstra(root.graph, root.source).dist[root.separator]
        assert [(e.u, e.v, e.weight) for e in right_virtuals] == [
            (root.right.source, r_right, d_r)
        ]


class TestClassify:
    """Which child edge map, if any, holds each edge of the root, read off
    the root's store rows."""

    def _root(self):
        g = Graph.from_pairs(
            7, [(3, 4), (4, 1), (1, 0), (0, 6), (5, 2), (2, 6), (2, 3)]
        )
        oracle = build_oracle(g, 0)
        return g, oracle.root, oracle.store

    def test_first_primary_edge(self):
        g, root, store = self._root()
        eid = g.edge_ids_between(0, 6)[0]
        _, _, le, re = child_maps(store, 0, g)
        assert eid in primary_positions(store, 0)
        assert eid in le
        assert eid not in re

    def test_crossing_edge(self):
        g, root, store = self._root()
        eid = g.edge_ids_between(3, 4)[0]
        lv, rv, le, re = child_maps(store, 0, g)
        assert (3 in lv) != (4 in lv)
        assert (3 in rv) != (4 in rv)
        assert eid not in le
        assert eid not in re

    def test_edge_at_separator_takes_other_side(self):
        g, root, store = self._root()
        assert root.separator == 6
        eid = g.edge_ids_between(2, 6)[0]
        lv, rv, le, re = child_maps(store, 0, g)
        assert 2 in rv and 2 not in lv
        assert eid in re
        assert eid not in le


class TestStructure:
    def test_side_partition_counts(self):
        g = tree_plus_chords(60, 35, 12)
        oracle = build_oracle(g, 0)
        for i, node in walk_internal(oracle):
            nr, nm, nn = split_sizes(oracle.store, i, node)
            assert nm + nn == nr + 1
            split = separator_split(dijkstra(node.graph, node.source))
            assert split.r == node.separator
            assert (split.reachable_count, split.size_m, split.size_n) == (nr, nm, nn)

    def test_primary_path_inside_m(self):
        g = tree_plus_chords(50, 20, 13)
        oracle = build_oracle(g, 0)
        for i, node in walk_internal(oracle):
            lv = child_maps(oracle.store, i, node.graph)[0]
            for v in node.primary_path.vertices:
                assert v in lv

    def test_virtual_tree_edges_only_at_source(self):
        for seed in (5, 6, 7):
            g = tree_plus_chords(55, 30, seed)
            for node in build_oracle(g, 0).nodes():
                spt = dijkstra(node.graph, node.source)
                for v in range(node.graph.n):
                    pe = spt.parent_edge[v]
                    if pe is not None and node.graph.edges[pe].virtual:
                        assert spt.parent[v] == node.source

    def test_vertex_slot_budget(self):
        g = tree_plus_chords(80, 40, 21)
        oracle = build_oracle(g, 0)
        total = sum(node.graph.n for node in oracle.nodes())
        assert total <= (oracle.depth + 1) * (oracle.root.graph.n + oracle.node_count)

    def test_depth_bound(self):
        for seed in (1, 2):
            for n in (10, 40, 120):
                g = tree_plus_chords(n, n // 3, seed)
                oracle = build_oracle(g, 0)
                assert oracle.depth <= math.ceil(math.log(n, 1.5)) + 2

    def test_disconnected_vertices_excluded(self):
        g = Graph.from_pairs(6, [(0, 1), (1, 2), (3, 4)])
        oracle = build_oracle(g, 0)
        root = oracle.root
        assert root.graph is g
        assert not root.is_leaf
        lv, rv, _, _ = child_maps(oracle.store, 0, g)
        for v in (3, 4, 5):
            assert v not in lv
            assert v not in rv

    def test_isolated_source_in_a_large_graph_is_a_leaf(self):
        # the other 19,999 vertices form a path the source cannot reach
        n = 20_000
        g = Graph.from_pairs(n, [(v, v + 1) for v in range(1, n - 1)])
        oracle = build_oracle(g, 0)
        assert oracle.root.is_leaf
        assert leaf_table(oracle.store, 0) == {}
        assert ssrp(oracle).records == []

    def test_source_with_one_neighbour_in_a_large_graph(self):
        n = 20_000
        g = Graph.from_pairs(n, [(0, 1)] + [(v, v + 1) for v in range(2, n - 1)])
        oracle = build_oracle(g, 0)
        root = oracle.root
        assert root.is_leaf
        assert list(leaf_table(oracle.store, 0)) == [source_tree(oracle).parent_edge[1]]
        assert ssrp(oracle).records == brute_ssrp(g, 0).records
        assert query(oracle, 1, (0, 1)).distance is UNREACHABLE
        assert query(oracle, 5, (5, 6)).distance is UNREACHABLE

    def test_rejects_virtual_input(self):
        from sdo.graphs import Edge

        with pytest.raises(ValueError):
            build_oracle(Graph(2, [Edge(0, 1, 2, virtual=True)]), 0)


def test_space_bound_as_exact_counts():
    """The paper's O~(n sqrt n) size, read off the store: departing entries
    per n**1.5 and vertex slots per n log2 n stay bounded and do not grow
    with n within a family."""
    families = {
        "nested_arcs": [nested_arcs(k)[0] for k in (8, 16, 32)],
        "tree_plus_chords": [tree_plus_chords(n, 2 * n, 42) for n in (512, 1024, 2048)],
    }
    for family, graphs in families.items():
        ratios = []
        for g in graphs:
            store = build_oracle(g, 0).store
            n = g.n
            ratios.append((len(store.dep_len) / n**1.5, store.vbase[-1] / (n * math.log2(n))))
        print(family, " ".join(f"n={g.n}: {e:.3f} {v:.3f}" for g, (e, v) in zip(graphs, ratios)))
        assert all(e <= 1.5 and v <= 1.5 for e, v in ratios), (family, ratios)
        assert ratios[-1][0] <= ratios[0][0], (family, ratios)
        assert ratios[-1][1] <= ratios[0][1], (family, ratios)


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 50), st.integers(0, 30), st.integers(0, 10**6))
def test_build_invariants_random(n, extra, seed):
    g = tree_plus_chords(n, extra, seed)
    oracle = build_oracle(g, 0)
    assert oracle.depth <= math.ceil(math.log(n, 1.5)) + 2
    for i, node in walk_internal(oracle):
        nr, nm, nn = split_sizes(oracle.store, i, node)
        assert nr // 3 <= nm <= -(-2 * nr // 3) + 1
        assert nr // 3 <= nn <= -(-2 * nr // 3) + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_child_distances_on_disconnected_multigraphs(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    source = data.draw(st.integers(0, n - 1))
    assert_child_distances_equal_parent_distances(build_oracle(g, source))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_child_maps_partition_ragged_multigraphs(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    source = data.draw(st.integers(0, n - 1))
    oracle = build_oracle(g, source)
    store = oracle.store
    for i, node in walk_internal(oracle):
        lv, rv, le, re = child_maps(store, i, node.graph)
        primary = primary_positions(store, i)
        spt = dijkstra(node.graph, node.source)
        assert not le.keys() & re.keys()
        assert all(eid in le for eid in primary)
        assert all(not node.graph.edges[eid].virtual for eid in primary)
        tables = (node.sr_replacements, node.dep, node.dep_stats)
        dist_r = vertex_segment(store, "dist_r", i)
        if primary:
            assert None not in tables
            assert distances(dist_r) == dijkstra(node.graph, node.separator).dist
        else:
            assert tables == (None, None, None)
            assert set(dist_r) <= {INF}
        for eid, e in enumerate(node.graph.edges):
            if eid not in le and eid not in re:
                # the edge crosses the split or lies outside the component
                if spt.reachable(e.u):
                    assert (e.u in lv) != (e.v in lv)
                    assert (e.u in rv) != (e.v in rv)
                else:
                    assert e.u not in lv and e.u not in rv
                    assert e.v not in lv and e.v not in rv
        assert lv.keys() & rv.keys() == {node.separator}
        assert lv.keys() | rv.keys() == set(spt.order)
