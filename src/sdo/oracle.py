"""Recursive construction of the fault-tolerant distance oracle tree.

Each internal node splits its graph at a tree separator, stores the distance
tables and departing-path arrays needed to answer faults on its primary path,
and recurses on the two sides after adding weighted shortcut edges that
preserve all surviving distances inside each side. The root is the input
graph itself, and a vertex the source cannot reach enters neither side.
Grafting preserves distances from the source, so every node vertex lies at
its original vertex's input-graph distance, and the oracle keeps that one
source tree for the whole recursion. Once built, the tree is frozen into a
``QueryStore`` of flat arrays, the only thing queries read and files hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .departing import DepBuildStats, DepTable, build_dep
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
from .store import INF, QueryStore, _original_count, freeze


class OracleNode:
    """One recursion level: its graph, separator split, tables, and children.

    The child id maps are the split. ``left_vertex_map`` holds side M (the
    source side, with the primary path) and ``right_vertex_map`` side N; the
    separator is the only vertex in both. Each edge map holds the edges with
    both ends in its side, so a primary-path edge (also in
    ``primary_pos_of_edge``) is in ``left_edge_map``, and an edge in neither
    map crosses the split.
    """

    __slots__ = (
        "graph",
        "source",
        "depth",
        "is_leaf",
        "base_table",
        "separator",
        "primary_path",
        "dist_r",
        "sr_replacements",
        "dep",
        "dep_stats",
        "primary_pos_of_edge",
        "left",
        "right",
        "left_vertex_map",
        "right_vertex_map",
        "left_edge_map",
        "right_edge_map",
    )

    def __init__(self, graph: Graph, source: int, depth: int):
        self.graph = graph
        self.source = source
        self.depth = depth
        self.is_leaf = False
        self.base_table: dict[int, list[Distance]] | None = None
        self.separator: int | None = None
        self.primary_path: PathOnTree | None = None
        self.dist_r: list[Distance] | None = None
        self.sr_replacements: list[Distance] | None = None
        self.dep: DepTable | None = None
        self.dep_stats: DepBuildStats | None = None
        self.primary_pos_of_edge: dict[int, int] | None = None
        self.left: OracleNode | None = None
        self.right: OracleNode | None = None
        self.left_vertex_map: dict[int, int] | None = None
        self.right_vertex_map: dict[int, int] | None = None
        self.left_edge_map: dict[int, int] | None = None
        self.right_edge_map: dict[int, int] | None = None

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
    """The oracle: ``store`` holds every table a query reads. A built oracle
    also keeps ``root``, the recursion tree, whose graph is the input graph
    itself; a loaded oracle has only the store, and ``root`` is None.
    """

    store: QueryStore
    root: OracleNode | None = None

    @property
    def original_source(self) -> int:
        return self.store.meta[1]

    @property
    def node_count(self) -> int:
        return self.store.meta[2]

    @property
    def depth(self) -> int:
        return self.store.meta[3]

    @property
    def total_dep_entries(self) -> int:
        return self.store.meta[4]

    def nodes(self):
        return self.root.walk()


def _leaf_node(node: OracleNode, spt_s: ShortestPathTree) -> OracleNode:
    """Tabulate the source distances avoiding each original edge the source
    reaches (an edge with one reached end has both); a fault elsewhere never
    descends here."""
    node.is_leaf = True
    g = node.graph
    node.base_table = {
        eid: dijkstra(g, node.source, (eid,)).dist
        for eid in range(_original_count(g))
        if spt_s.reachable(g.edges[eid].u)
    }
    return node


def _induced(
    g: Graph, inside: list[bool]
) -> tuple[dict[int, int], list[Edge], dict[int, int]]:
    """Vertex map, edges and edge map of the subgraph of ``g`` induced by the
    vertices marked ``inside``, in the parent's vertex and edge order."""
    vmap: dict[int, int] = {}
    for v in range(g.n):
        if inside[v]:
            vmap[v] = len(vmap)
    edges: list[Edge] = []
    emap: dict[int, int] = {}
    for eid, e in enumerate(g.edges):
        a = vmap.get(e.u)
        if a is None:
            continue
        b = vmap.get(e.v)
        if b is None:
            continue
        emap[eid] = len(edges)
        edges.append(Edge(a, b, e.weight, e.virtual))
    return vmap, edges, emap


def make_left_child(
    node: OracleNode, in_m: list[bool]
) -> tuple[Graph, dict[int, int], dict[int, int], int]:
    """Induced side-M graph plus weighted shortcuts from the separator.

    Each shortcut (r, v) carries the best r -> v length that avoids every
    side-M edge, so faults handled deeper inside M can still route around the
    whole side at the recorded cost.
    """
    g = node.graph
    r = node.separator
    vmap, edges, emap = _induced(g, in_m)
    rv = vmap[r]
    avoid = dijkstra(g, r, emap).dist
    for v, lv in vmap.items():
        if v == r:
            continue
        w = avoid[v]
        if w is not UNREACHABLE:
            edges.append(Edge(rv, lv, w, virtual=True))
    return Graph(len(vmap), edges), vmap, emap, vmap[node.source]


def make_right_child(
    node: OracleNode, in_n: list[bool]
) -> tuple[Graph, dict[int, int], dict[int, int], int]:
    """Induced side-N graph plus a fresh source with weighted entry edges.

    The fresh source is added uniformly (even when the separator equals the
    node source); its edge to v carries the best source -> v length avoiding
    every side-N edge.
    """
    g = node.graph
    vmap, edges, emap = _induced(g, in_n)
    s_n = len(vmap)
    avoid = dijkstra(g, node.source, emap).dist
    for v, lv in vmap.items():
        w = avoid[v]
        if w is not UNREACHABLE:
            edges.append(Edge(s_n, lv, w, virtual=True))
    return Graph(len(vmap) + 1, edges), vmap, emap, s_n


def build_node(spt_s: ShortestPathTree, depth: int) -> OracleNode:
    """Build the oracle node for ``spt_s``, the canonical tree of the node's
    graph from its source. The node is a brute-force leaf when its source
    reaches at most two vertices at the root, or at most four deeper. Faults
    are input edges, so a primary path without one builds no tables."""
    g, source = spt_s.graph, spt_s.source
    node = OracleNode(g, source, depth)
    if spt_s.reachable_count() <= (4 if depth else 2):
        return _leaf_node(node, spt_s)

    split = separator_split(spt_s)
    r = split.r
    node.separator = r
    node.primary_path = path = tree_path(spt_s, source, r)
    node.primary_pos_of_edge = {
        eid: pos for pos, eid in enumerate(path.edge_ids) if not g.edges[eid].virtual
    }
    if node.primary_pos_of_edge:
        node.dist_r = dijkstra(g, r).dist
        node.sr_replacements = replacement_lengths_along_path(g, spt_s, node.dist_r, path)
        node.dep, node.dep_stats = build_dep(g, spt_s, path)

    left_g, node.left_vertex_map, node.left_edge_map, left_src = make_left_child(
        node, split.in_m
    )
    right_g, node.right_vertex_map, node.right_edge_map, right_src = make_right_child(
        node, split.in_n
    )
    node.left = build_node(dijkstra(left_g, left_src), depth + 1)
    node.right = build_node(dijkstra(right_g, right_src), depth + 1)
    return node


def build_oracle(g: Graph, source: int) -> OracleTree:
    """Build the oracle for ``g`` from ``source``.

    The root node is built on ``g`` itself, with the input graph's canonical
    source tree. Vertices the source cannot reach enter neither child, and
    queries about them answer UNREACHABLE at the entry. The built tree is
    then frozen into the query store. The weights must sum below ``INF``,
    so every finite distance, and the sum of any two, fits the store's
    64-bit integers.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if any(e.virtual for e in g.edges):
        raise ValueError("input graphs must contain only original edges")
    if sum(e.weight for e in g.edges) >= INF:
        raise ValueError(f"edge weights must sum below 2**62 = {INF}")
    spt = dijkstra(g, source)
    build_preorder(spt)
    root = build_node(spt, 0)
    return OracleTree(freeze(spt, root), root)
