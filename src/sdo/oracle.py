"""Recursive construction of the fault-tolerant distance oracle tree.

Each internal node splits its graph at a tree separator, stores the distance
tables and departing-path arrays needed to answer faults on its primary path,
and recurses on the two sides after adding weighted shortcut edges that
preserve all surviving distances inside each side. The root is the input
graph itself, and a vertex the source cannot reach enters neither side.
Grafting preserves distances from the source, so every node vertex lies at
its original vertex's input-graph distance, and the oracle keeps that one
source tree for the whole recursion. Each level appends its rows to a
``QueryStore`` of flat arrays, the only thing queries read and files hold,
and drops its graph before it recurses; ``OracleTree.nodes()`` replays the
build for the levels' records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable

from .departing import DepBuildStats, DepTable, build_dep
from .graphs import Edge, Graph
from .pathrep import replacement_lengths_along_path
from .spt import (
    PathOnTree,
    ShortestPathTree,
    dijkstra,
    distances_from,
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
    """The build record of one recursion level: its graph, primary path and
    the tables built on it. Queries never read it and the oracle keeps none;
    the build passes it to ``emit``. Record ``i`` is store node ``i``, whose
    ``left``, ``right`` and ``sep`` give its children and separator.
    """

    graph: Graph
    source: int
    depth: int
    primary_path: PathOnTree | None = None
    sr_replacements: list[int] | None = None
    dep: DepTable | None = None
    dep_stats: DepBuildStats | None = None


@dataclass(slots=True)
class OracleTree:
    """The oracle: ``store`` holds every table a query reads. A built oracle
    also keeps ``graph``, the input graph itself, to replay its build; a
    loaded oracle has only the store, and ``graph`` is None.
    """

    store: QueryStore
    graph: Graph | None = None

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

    def nodes(self) -> list[OracleNode]:
        """The build record of every level, record ``i`` for store node ``i``.
        None is kept, so each call reruns the build at the cost of the first."""
        if self.graph is None:
            raise ValueError("a loaded oracle keeps no recursion tree, only its query store")
        levels: list[OracleNode] = []
        _build(self.graph, self.original_source, levels.append)
        return levels


def _leaf_node(node: OracleNode, spt_s: ShortestPathTree, store: QueryStore) -> OracleNode:
    """Tabulate the source distances avoiding each original edge the source
    reaches (an edge with one reached end has both); a fault elsewhere never
    descends here."""
    g = node.graph
    rows = (
        (eid, distances_from(g, node.source, (eid,)))
        for eid in range(_original_count(g))
        if spt_s.reachable(g.edges[eid].u)
    )
    append_node(store, g, node.depth, rows)
    return node


# A child graph, its source, and its (vertex, edge) id maps from the parent;
# and the callback that takes each level's build record.
Graft = tuple[Graph, int, tuple[list[int], dict[int, int]]]
Emit = Callable[[OracleNode], object]


def _graft(g: Graph, inside: list[bool], origin: int, fresh: bool) -> Graft:
    """The subgraph induced by ``inside`` plus a shortcut from a hub to each
    other vertex v, weighted by the best ``origin`` -> v length avoiding every
    induced edge, and left out where there is none (``INF``). The hub, returned
    as the source, is ``origin`` itself or, if ``fresh``, a new last vertex.

    The vertex map lists each parent vertex's child id, -1 outside: the
    store's child row as it is. The edge map is a dict, the avoid sweep's
    banned set. Both keep the parent's order."""
    kept = list(compress(range(g.n), inside))
    vmap = [-1] * g.n
    for lv, v in enumerate(kept):
        vmap[v] = lv
    new = tuple.__new__
    edges: list[Edge] = []
    emap: dict[int, int] = {}
    for eid, (u, v, weight, virtual) in enumerate(g.edges):
        a = vmap[u]
        if a < 0:
            continue
        b = vmap[v]
        if b < 0:
            continue
        emap[eid] = len(edges)
        edges.append(new(Edge, (a, b, weight, virtual)))
    hub = len(kept) if fresh else vmap[origin]
    avoid = distances_from(g, origin, emap)
    for lv, v in enumerate(kept):
        w = avoid[v]
        if lv != hub and w < INF:
            edges.append(new(Edge, (hub, lv, w, True)))
    return Graph(len(kept) + int(fresh), edges), hub, (vmap, emap)


def make_left_child(g: Graph, source: int, r: int, in_m: list[bool]) -> Graft:
    """Induced side-M graph plus weighted shortcuts from the separator ``r``.

    Each shortcut (r, v) carries the best r -> v length that avoids every
    side-M edge, so faults handled deeper inside M can still route around the
    whole side at the recorded cost.
    """
    child, _, maps = _graft(g, in_m, r, fresh=False)
    return child, maps[0][source], maps


def make_right_child(g: Graph, source: int, in_n: list[bool]) -> Graft:
    """Induced side-N graph plus a fresh source with weighted entry edges.

    The fresh source is added uniformly (even when the separator equals the
    node source); its edge to v carries the best source -> v length avoiding
    every side-N edge.
    """
    return _graft(g, in_n, source, fresh=True)


def build_node(spt_s: ShortestPathTree, depth: int, store: QueryStore, emit: Emit) -> None:
    """Build the oracle node for ``spt_s``, the canonical tree of the node's
    graph from its source: append its rows to ``store``, pass its record to
    ``emit``, then build its children. A node is a brute-force leaf when its
    source reaches at most two vertices at the root, or four deeper. Faults
    are input edges, so a primary path without one builds no tables."""
    g, source = spt_s.graph, spt_s.source
    node = OracleNode(g, source, depth)
    if spt_s.reachable_count() <= (4 if depth else 2):
        emit(_leaf_node(node, spt_s, store))
        return

    split = separator_split(spt_s)
    r = split.r
    node.primary_path = path = tree_path(spt_s, source, r)
    tables = dist_r = None
    if any(not g.edges[eid].virtual for eid in path.edge_ids):
        dist_r = distances_from(g, r)
        node.sr_replacements = replacement_lengths_along_path(g, spt_s, dist_r, path)
        node.dep, node.dep_stats = build_dep(g, spt_s, path)
        tables = (dist_r, node.sr_replacements, node.dep)

    left_g, left_src, left_maps = make_left_child(g, source, r, split.in_m)
    right_g, right_src, right_maps = make_right_child(g, source, split.in_n)
    i = append_node(store, g, depth, (), r, path.edge_ids, (left_maps, right_maps), tables)
    emit(node)
    # The store holds all a query reads of this level. Each child graph is
    # popped into its call, so a subtree builds with only the right one here.
    grafts = [(right_g, right_src), (left_g, left_src)]
    del node, g, spt_s, split, path, tables, dist_r, left_g, left_maps, right_g, right_maps
    build_node(dijkstra(*grafts.pop()), depth + 1, store, emit)
    store.right[i] = len(store.left)
    build_node(dijkstra(*grafts.pop()), depth + 1, store, emit)


def _build(g: Graph, source: int, emit: Emit) -> QueryStore:
    """The query store of the oracle for ``g`` from ``source``; each level's
    record goes to ``emit`` in store order."""
    spt = dijkstra(g, source)
    store = open_store(spt)
    build_node(spt, 0, store, emit)
    return close_store(store)


def build_oracle(g: Graph, source: int) -> OracleTree:
    """Build the oracle for ``g`` from ``source``.

    The root node is built on ``g`` itself, with the input graph's canonical
    source tree. Vertices the source cannot reach enter neither child, and
    queries about them answer UNREACHABLE at the entry. The weights must sum
    below ``INF``, so every finite distance, and the sum of any two, fits
    the store's 64-bit integers. ``source`` must be an ``int`` (a bool is
    not), the rule ``Graph`` applies to endpoints. The oracle keeps ``g``
    but no build record.
    """
    if type(source) is not int:
        raise ValueError(f"source {source!r} is not an integer vertex")
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if any(e.virtual for e in g.edges):
        raise ValueError("input graphs must contain only original edges")
    if sum(e.weight for e in g.edges) >= INF:
        raise ValueError(f"edge weights must sum below 2**62 = {INF}")
    return OracleTree(_build(g, source, lambda record: None), g)
