"""Recursive construction of the fault-tolerant distance oracle tree.

Each internal node splits its graph at a tree separator, stores the distance
tables and departing-path arrays needed to answer faults on its primary path,
and recurses on the two sides after adding weighted shortcut edges that
preserve all surviving distances inside each side. The root is the input
graph itself, and a vertex the source cannot reach enters neither side.
Grafting preserves distances from the source, so every node vertex lies at
its original vertex's input-graph distance, and the oracle keeps that one
source tree for the whole recursion. Each level appends its rows to a
``QueryStore`` of flat arrays as it is built, the only thing queries read
and files hold.
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
from .store import (
    INF,
    QueryStore,
    _original_count,
    append_node,
    close_store,
    open_store,
)


@dataclass(slots=True, eq=False, repr=False)
class OracleNode:
    """The build record of one recursion level: its graph, separator, primary
    path, the tables built on it, and its children. Queries never read it;
    it is kept for inspection and benchmarks. What queries read of a level,
    its child id maps and tables, went to the store as it was built.
    """

    graph: Graph
    source: int
    depth: int
    is_leaf: bool = False
    separator: int | None = None
    primary_path: PathOnTree | None = None
    sr_replacements: list[Distance] | None = None
    dep: DepTable | None = None
    dep_stats: DepBuildStats | None = None
    left: OracleNode | None = None
    right: OracleNode | None = None

    def walk(self):
        """All nodes of the subtree in preorder, the store's node order."""
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
    also keeps ``root``, the build record, whose graph is the input graph
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
        """The recursion tree's nodes in preorder; node ``i`` is store node ``i``."""
        if self.root is None:
            raise ValueError("a loaded oracle keeps no recursion tree, only its query store")
        return self.root.walk()


def _leaf_node(node: OracleNode, spt_s: ShortestPathTree, store: QueryStore) -> OracleNode:
    """Tabulate the source distances avoiding each original edge the source
    reaches (an edge with one reached end has both); a fault elsewhere never
    descends here."""
    node.is_leaf = True
    g = node.graph
    rows = (
        (eid, dijkstra(g, node.source, (eid,)).dist)
        for eid in range(_original_count(g))
        if spt_s.reachable(g.edges[eid].u)
    )
    append_node(store, g, node.depth, rows)
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


# A child graph, its source, and its (vertex, edge) id maps from the parent.
Graft = tuple[Graph, int, tuple[dict[int, int], dict[int, int]]]


def _graft(g: Graph, inside: list[bool], origin: int, fresh: bool) -> Graft:
    """The subgraph induced by ``inside`` plus a shortcut from a hub to each
    other vertex v, weighted by the best ``origin`` -> v length avoiding every
    induced edge, and left out where that is UNREACHABLE. The hub, returned
    as the source, is ``origin`` itself or, if ``fresh``, a new last vertex."""
    vmap, edges, emap = _induced(g, inside)
    hub = len(vmap) if fresh else vmap[origin]
    avoid = dijkstra(g, origin, emap).dist
    for v, lv in vmap.items():
        w = avoid[v]
        if lv != hub and w is not UNREACHABLE:
            edges.append(Edge(hub, lv, w, virtual=True))
    return Graph(len(vmap) + int(fresh), edges), hub, (vmap, emap)


def make_left_child(node: OracleNode, in_m: list[bool]) -> Graft:
    """Induced side-M graph plus weighted shortcuts from the separator.

    Each shortcut (r, v) carries the best r -> v length that avoids every
    side-M edge, so faults handled deeper inside M can still route around the
    whole side at the recorded cost.
    """
    child, _, maps = _graft(node.graph, in_m, node.separator, fresh=False)
    return child, maps[0][node.source], maps


def make_right_child(node: OracleNode, in_n: list[bool]) -> Graft:
    """Induced side-N graph plus a fresh source with weighted entry edges.

    The fresh source is added uniformly (even when the separator equals the
    node source); its edge to v carries the best source -> v length avoiding
    every side-N edge.
    """
    return _graft(node.graph, in_n, node.source, fresh=True)


def build_node(spt_s: ShortestPathTree, depth: int, store: QueryStore) -> OracleNode:
    """Build the oracle node for ``spt_s``, the canonical tree of the node's
    graph from its source, appending its rows to ``store`` before its
    children's. The node is a brute-force leaf when its source reaches at
    most two vertices at the root, or at most four deeper. Faults are input
    edges, so a primary path without one builds no tables."""
    g, source = spt_s.graph, spt_s.source
    node = OracleNode(g, source, depth)
    if spt_s.reachable_count() <= (4 if depth else 2):
        return _leaf_node(node, spt_s, store)

    split = separator_split(spt_s)
    r = split.r
    node.separator = r
    node.primary_path = path = tree_path(spt_s, source, r)
    tables = dist_r = None
    if any(not g.edges[eid].virtual for eid in path.edge_ids):
        dist_r = dijkstra(g, r).dist
        node.sr_replacements = replacement_lengths_along_path(g, spt_s, dist_r, path)
        node.dep, node.dep_stats = build_dep(g, spt_s, path)
        tables = (dist_r, node.sr_replacements, node.dep)

    left_g, left_src, left_maps = make_left_child(node, split.in_m)
    right_g, right_src, right_maps = make_right_child(node, split.in_n)
    i = append_node(store, g, depth, (), r, path.edge_ids, (left_maps, right_maps), tables)
    # the store holds all a query reads of the maps and the distances from r
    del split, tables, dist_r, left_maps, right_maps
    node.left = build_node(dijkstra(left_g, left_src), depth + 1, store)
    store.right[i] = len(store.left)
    node.right = build_node(dijkstra(right_g, right_src), depth + 1, store)
    return node


def build_oracle(g: Graph, source: int) -> OracleTree:
    """Build the oracle for ``g`` from ``source``.

    The root node is built on ``g`` itself, with the input graph's canonical
    source tree. Vertices the source cannot reach enter neither child, and
    queries about them answer UNREACHABLE at the entry. The weights must sum
    below ``INF``, so every finite distance, and the sum of any two, fits
    the store's 64-bit integers.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if any(e.virtual for e in g.edges):
        raise ValueError("input graphs must contain only original edges")
    if sum(e.weight for e in g.edges) >= INF:
        raise ValueError(f"edge weights must sum below 2**62 = {INF}")
    spt = dijkstra(g, source)
    build_preorder(spt)
    store = open_store(spt)
    root = build_node(spt, 0, store)
    return OracleTree(close_store(store), root)
