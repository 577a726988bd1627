"""Recursive construction of the fault-tolerant distance oracle tree.

Each internal node splits its graph at a tree separator, stores the distance
tables and departing-path arrays needed to answer faults handled at that
level, and recurses on the two sides after adding weighted shortcut edges
that preserve all surviving distances inside each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .departing import DepArray, DepBuildStats, build_dep
from .graphs import Distance, Edge, Graph, UNREACHABLE
from .pathrep import replacement_lengths_along_path
from .spt import (
    PathOnTree,
    ShortestPathTree,
    build_preorder,
    dijkstra,
    separator_split,
    tree_path,
)


class EdgeSide(IntEnum):
    M_ON_PRIMARY = 0
    M_OFF_PRIMARY = 1
    N_SIDE = 2
    CROSSING = 3


class VertexSide(IntEnum):
    M = 0
    N = 1
    BOTH = 2


class OracleNode:
    """One recursion level: its graph, separator split, tables, and children."""

    __slots__ = (
        "graph",
        "source",
        "depth",
        "is_leaf",
        "spt_s",
        "base_table",
        "separator",
        "primary_path",
        "spt_r",
        "dist_s_avoiding_gn",
        "dist_r_avoiding_gm",
        "sr_replacements",
        "dep",
        "dep_stats",
        "vertex_side",
        "edge_side",
        "primary_pos_of_edge",
        "split_sizes",
        "left",
        "right",
        "left_vertex_map",
        "right_vertex_map",
        "left_edge_map",
        "right_edge_map",
        "right_source",
    )

    def __init__(self, graph: Graph, source: int, depth: int):
        self.graph = graph
        self.source = source
        self.depth = depth
        self.is_leaf = False
        self.spt_s: ShortestPathTree | None = None
        self.base_table: dict[int, list[Distance]] | None = None
        self.separator: int | None = None
        self.primary_path: PathOnTree | None = None
        self.spt_r: ShortestPathTree | None = None
        self.dist_s_avoiding_gn: list[Distance] | None = None
        self.dist_r_avoiding_gm: list[Distance] | None = None
        self.sr_replacements: list[Distance] | None = None
        self.dep: list[DepArray] | None = None
        self.dep_stats: DepBuildStats | None = None
        self.vertex_side: list[VertexSide] | None = None
        self.edge_side: list[EdgeSide] | None = None
        self.primary_pos_of_edge: dict[int, int] | None = None
        self.split_sizes: tuple[int, int, int] | None = None
        self.left: OracleNode | None = None
        self.right: OracleNode | None = None
        self.left_vertex_map: dict[int, int] | None = None
        self.right_vertex_map: dict[int, int] | None = None
        self.left_edge_map: dict[int, int] | None = None
        self.right_edge_map: dict[int, int] | None = None
        self.right_source: int | None = None

    def walk(self):
        """All nodes of the subtree, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)


@dataclass(slots=True)
class OracleTree:
    """The built oracle: root node plus the original-graph bookkeeping."""

    root: OracleNode
    original_graph: Graph
    original_source: int
    to_root_id: list[int | None]
    from_root_id: list[int]
    to_root_edge: list[int | None]
    node_count: int = 0
    depth: int = 0
    total_dep_entries: int = 0
    total_vertex_slots: int = 0

    def nodes(self):
        return self.root.walk()


def classify(node: OracleNode, eid: int) -> EdgeSide:
    """Side of one edge of the node graph; an edge incident to the separator
    (which belongs to both sides) takes its other endpoint's side."""
    if eid in node.primary_pos_of_edge:
        return EdgeSide.M_ON_PRIMARY
    e = node.graph.edges[eid]
    su, sv = node.vertex_side[e.u], node.vertex_side[e.v]
    if su == VertexSide.BOTH:
        return EdgeSide.M_OFF_PRIMARY if sv == VertexSide.M else EdgeSide.N_SIDE
    if sv == VertexSide.BOTH:
        return EdgeSide.M_OFF_PRIMARY if su == VertexSide.M else EdgeSide.N_SIDE
    if su == sv:
        return EdgeSide.M_OFF_PRIMARY if su == VertexSide.M else EdgeSide.N_SIDE
    return EdgeSide.CROSSING


def _leaf_node(node: OracleNode) -> OracleNode:
    node.is_leaf = True
    g = node.graph
    node.base_table = {
        eid: dijkstra(g, node.source, (eid,)).dist for eid in g.original_edge_ids()
    }
    return node


def make_left_child(node: OracleNode) -> tuple[Graph, dict[int, int], dict[int, int], int]:
    """Induced side-M graph plus weighted shortcuts from the separator.

    Each shortcut (r, v) carries the best r -> v length that avoids every
    side-M edge, so faults handled deeper inside M can still route around the
    whole side at the recorded cost.
    """
    g = node.graph
    side = node.vertex_side
    r = node.separator
    vmap: dict[int, int] = {}
    for v in range(g.n):
        if side[v] != VertexSide.N:
            vmap[v] = len(vmap)
    edges: list[Edge] = []
    emap: dict[int, int] = {}
    for eid, e in enumerate(g.edges):
        es = node.edge_side[eid]
        if es in (EdgeSide.M_ON_PRIMARY, EdgeSide.M_OFF_PRIMARY):
            emap[eid] = len(edges)
            edges.append(Edge(vmap[e.u], vmap[e.v], e.weight, e.virtual))
    rv = vmap[r]
    avoid = node.dist_r_avoiding_gm
    for v, lv in vmap.items():
        if v == r:
            continue
        w = avoid[v]
        if w is not UNREACHABLE:
            edges.append(Edge(rv, lv, w, virtual=True))
    return Graph(len(vmap), edges), vmap, emap, vmap[node.source]


def make_right_child(node: OracleNode) -> tuple[Graph, dict[int, int], dict[int, int], int]:
    """Induced side-N graph plus a fresh source with weighted entry edges.

    The fresh source is added uniformly (even when the separator equals the
    node source); its edge to v carries the best source -> v length avoiding
    every side-N edge.
    """
    g = node.graph
    side = node.vertex_side
    vmap: dict[int, int] = {}
    for v in range(g.n):
        if side[v] != VertexSide.M:
            vmap[v] = len(vmap)
    s_n = len(vmap)
    edges: list[Edge] = []
    emap: dict[int, int] = {}
    for eid, e in enumerate(g.edges):
        if node.edge_side[eid] == EdgeSide.N_SIDE:
            emap[eid] = len(edges)
            edges.append(Edge(vmap[e.u], vmap[e.v], e.weight, e.virtual))
    avoid = node.dist_s_avoiding_gn
    for v, lv in vmap.items():
        w = avoid[v]
        if w is not UNREACHABLE:
            edges.append(Edge(s_n, lv, w, virtual=True))
    return Graph(len(vmap) + 1, edges), vmap, emap, s_n


def build_node(g: Graph, source: int, depth: int) -> OracleNode:
    """Build one oracle node; the root (depth 0) always attempts a split,
    deeper nodes become brute-force leaves at four vertices or fewer."""
    node = OracleNode(g, source, depth)
    node.spt_s = dijkstra(g, source)
    if g.n <= 2 or (depth > 0 and g.n <= 4):
        return _leaf_node(node)
    assert node.spt_s.reachable_count() == g.n, "node graphs are connected by construction"

    split = separator_split(node.spt_s)
    r = split.r
    node.separator = r
    node.split_sizes = (split.reachable_count, split.size_m, split.size_n)
    node.primary_path = tree_path(node.spt_s, source, r)
    node.primary_pos_of_edge = {
        eid: pos for pos, eid in enumerate(node.primary_path.edge_ids)
    }
    node.vertex_side = [
        VertexSide.BOTH
        if split.in_m[v] and split.in_n[v]
        else (VertexSide.M if split.in_m[v] else VertexSide.N)
        for v in range(g.n)
    ]
    node.edge_side = [classify(node, eid) for eid in range(g.m)]

    banned_n = [eid for eid, s in enumerate(node.edge_side) if s == EdgeSide.N_SIDE]
    banned_m = [
        eid
        for eid, s in enumerate(node.edge_side)
        if s in (EdgeSide.M_ON_PRIMARY, EdgeSide.M_OFF_PRIMARY)
    ]
    node.spt_r = dijkstra(g, r)
    node.dist_s_avoiding_gn = dijkstra(g, source, banned_n).dist
    node.dist_r_avoiding_gm = dijkstra(g, r, banned_m).dist

    path = node.primary_path
    if path.edge_ids:
        node.sr_replacements = replacement_lengths_along_path(
            g, node.spt_s, node.spt_r, path
        )
        if any(not g.edges[eid].virtual for eid in path.edge_ids):
            node.dep, node.dep_stats = build_dep(g, node.spt_s, path)

    left_g, node.left_vertex_map, node.left_edge_map, left_src = make_left_child(node)
    right_g, node.right_vertex_map, node.right_edge_map, right_src = make_right_child(node)
    node.right_source = right_src
    node.left = build_node(left_g, left_src, depth + 1)
    node.right = build_node(right_g, right_src, depth + 1)
    return node


def build_oracle(g: Graph, source: int) -> OracleTree:
    """Build the oracle for ``g`` from ``source``.

    Vertices outside the source's component are excluded up front; queries
    about them answer UNREACHABLE.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if any(e.virtual for e in g.edges):
        raise ValueError("input graphs must contain only original unit edges")
    probe = dijkstra(g, source)
    if probe.reachable_count() == g.n:
        root_graph = g
        to_root: list[int | None] = list(range(g.n))
        from_root = list(range(g.n))
        to_root_edge: list[int | None] = list(range(g.m))
        root_source = source
    else:
        to_root = [None] * g.n
        from_root = []
        for v in range(g.n):
            if probe.reachable(v):
                to_root[v] = len(from_root)
                from_root.append(v)
        edges = []
        to_root_edge = [None] * g.m
        for eid, e in enumerate(g.edges):
            if to_root[e.u] is not None and to_root[e.v] is not None:
                to_root_edge[eid] = len(edges)
                edges.append(Edge(to_root[e.u], to_root[e.v], e.weight, e.virtual))
        root_graph = Graph(len(from_root), edges)
        root_source = to_root[source]

    root = build_node(root_graph, root_source, 0)
    # queries test ancestry on the root tree only
    build_preorder(root.spt_s)
    tree = OracleTree(
        root=root,
        original_graph=g,
        original_source=source,
        to_root_id=to_root,
        from_root_id=from_root,
        to_root_edge=to_root_edge,
    )
    for node in tree.nodes():
        tree.node_count += 1
        tree.depth = max(tree.depth, node.depth)
        tree.total_vertex_slots += node.graph.n
        if node.dep is not None:
            tree.total_dep_entries += sum(len(a) for a in node.dep)
    return tree
