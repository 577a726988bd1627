"""Shared independent oracles and graph builders for the test suite.

The oracles here deliberately use different algorithms than the library:
Bellman-Ford relaxation for distances, two-pointer walks for ancestors,
exhaustive path enumeration on tiny graphs.
"""

from __future__ import annotations

from sdo.departing import DepArray
from sdo.graphs import Graph, UNREACHABLE
from sdo.spt import ShortestPathTree, dijkstra
from sdo.store import INF, LEFT, PRIMARY, RIGHT


def bellman_ford(g: Graph, source: int, banned: set[int] | frozenset = frozenset()):
    """Distances by repeated edge relaxation; independent of any heap order."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    for _ in range(g.n):
        changed = False
        for eid, e in enumerate(g.edges):
            if eid in banned:
                continue
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if dist[a] is not UNREACHABLE:
                    cand = dist[a] + e.weight
                    if cand < dist[b]:
                        dist[b] = cand
                        changed = True
        if not changed:
            break
    return dist


def naive_lca(spt: ShortestPathTree, u: int, v: int) -> int:
    """Walk both vertices up to equal depth, then in lockstep to the meet."""
    while spt.depth[u] > spt.depth[v]:
        u = spt.parent[u]
    while spt.depth[v] > spt.depth[u]:
        v = spt.parent[v]
    while u != v:
        u = spt.parent[u]
        v = spt.parent[v]
    return u


def min_simple_path(g: Graph, s: int, t: int, banned: frozenset = frozenset()):
    """Exhaustive DFS over simple paths; only for graphs of a dozen vertices."""
    best = [UNREACHABLE]

    def go(v, seen, acc):
        if v == t:
            if acc < best[0]:
                best[0] = acc
            return
        for eid in g.adj[v]:
            if eid in banned:
                continue
            w = g.edges[eid].other(v)
            if w in seen:
                continue
            go(w, seen | {w}, acc + g.edges[eid].weight)

    go(s, {s}, 0)
    return best[0]


def source_tree(oracle) -> ShortestPathTree:
    """The canonical source tree of a built oracle's input graph."""
    return dijkstra(oracle.root.graph, oracle.original_source)


def best_departing(arr, pos: int):
    """The departing answer by definition: the least candidate length among
    those departing at or above path position ``pos``, else UNREACHABLE."""
    return min(
        (length for length, dpi in zip(arr.lengths, arr.dp_depths) if dpi <= pos),
        default=UNREACHABLE,
    )


def distances(values) -> list:
    """Store distances with INF turned back into UNREACHABLE."""
    return [UNREACHABLE if d >= INF else d for d in values]


def vertex_segment(store, name: str, i: int):
    """Store node ``i``'s vertex slots of array ``name``."""
    return getattr(store, name)[store.vbase[i] : store.vbase[i + 1]]


def edge_segment(store, name: str, i: int):
    """Store node ``i``'s edge slots of array ``name``, one per original edge."""
    return getattr(store, name)[store.ebase[i] : store.ebase[i + 1]]


def leaf_table(store, i: int) -> dict[int, list]:
    """Leaf ``i``'s rows by original edge id: the source distances avoiding
    that edge, one per vertex of the leaf's graph."""
    nv = store.vbase[i + 1] - store.vbase[i]
    return {
        eid: distances(store.rows[at : at + nv])
        for eid, at in enumerate(edge_segment(store, "echild", i))
        if at >= 0
    }


def primary_positions(store, i: int) -> dict[int, int]:
    """Path position of each original edge on internal node ``i``'s primary
    path."""
    return {
        eid: pos
        for eid, (side, pos) in enumerate(
            zip(edge_segment(store, "eside", i), edge_segment(store, "epos", i))
        )
        if side == PRIMARY
    }


def child_maps(store, i: int, g: Graph):
    """(left vertex, right vertex, left edge, right edge) child id maps of
    internal store node ``i``, whose graph is ``g``. The vertex maps and the
    original edges' maps are read off the store; a primary-path edge lies in
    side M. The store keeps no slot for a shortcut, so a shortcut's child id
    is recounted: a child keeps the parent's edges with both ends in its
    side, in the parent's order, and the original edges come first."""
    lv = {v: c for v, c in enumerate(vertex_segment(store, "lchild", i)) if c >= 0}
    rv = {v: c for v, c in enumerate(vertex_segment(store, "rchild", i)) if c >= 0}
    le: dict[int, int] = {}
    re: dict[int, int] = {}
    sides = edge_segment(store, "eside", i)
    kids = edge_segment(store, "echild", i)
    for eid, e in enumerate(g.edges):
        if eid < len(sides):
            if sides[eid] in (LEFT, PRIMARY):
                le[eid] = kids[eid]
            elif sides[eid] == RIGHT:
                re[eid] = kids[eid]
            continue
        if e.u in lv and e.v in lv:
            le[eid] = len(le)
        if e.u in rv and e.v in rv:
            re[eid] = len(re)
    return lv, rv, le, re


def split_sizes(store, i: int, node) -> tuple[int, int, int]:
    """(reachable count, |V_M|, |V_N|) of internal node ``i``: the vertices
    its source reaches, and the sides read off its store child vertex ids."""
    reached = dijkstra(node.graph, node.source).reachable_count()
    nm = sum(c >= 0 for c in vertex_segment(store, "lchild", i))
    nn = sum(c >= 0 for c in vertex_segment(store, "rchild", i))
    return reached, nm, nn


def path_graph(n: int) -> Graph:
    return Graph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_pairs(n, pairs)


def star_graph(leaves: int) -> Graph:
    return Graph.from_pairs(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def rejoin_gadget() -> tuple[Graph, int, tuple[int, int], int]:
    """The fixed regression gadget: chain 0-1-2-3 with a bush under 3 keeping
    the separator at 2, a shortcut 0-4-1 rejoining the chain, and leaf 5 on 1.

    Returns (graph, t, fault edge, expected distance). Avoiding (0, 1) for
    destination 5 must route 0-4-1-5 entirely inside the near side, which only
    the recursion branch of the primary-fault case can produce.
    """
    g = Graph.from_pairs(
        10,
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 1), (1, 5), (3, 6), (3, 7), (3, 8), (3, 9)],
    )
    return g, 5, (0, 1), 3


def root_primary_candidates(oracle, t: int, fault: tuple[int, int]) -> list:
    """The root's own candidates for a primary-path fault, read off its
    store rows: the route through the separator and the departing entry."""
    store = oracle.store
    eid = oracle.root.graph.edge_ids_between(*fault)[0]
    pos = edge_segment(store, "epos", 0)[eid]
    sr = distances(store.sr[store.srbase[0] : store.srbase[1]])[pos]
    dist_r = distances(vertex_segment(store, "dist_r", 0))[t]
    lo, hi = store.dep_off[store.vbase[0] + t], store.dep_off[store.vbase[0] + t + 1]
    segment = DepArray(store.dep_len[lo:hi], store.dep_dpi[lo:hi])
    return [sr + dist_r, best_departing(segment, pos)]
