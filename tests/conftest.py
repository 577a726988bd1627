"""Shared independent oracles and graph builders for the test suite.

The oracles here deliberately use different algorithms than the library:
Bellman-Ford relaxation for distances, two-pointer walks for ancestors,
exhaustive path enumeration on tiny graphs.
"""

from __future__ import annotations

import random

from sdo.graphs import Graph, UNREACHABLE
from sdo.spt import ShortestPathTree


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


def random_connected_graph(n: int, extra: int, seed: int) -> Graph:
    from sdo.generators import tree_plus_chords

    return tree_plus_chords(n, extra, seed)


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

