"""Brute-force oracles used to validate the real oracle; correctness only.

Deliberately shares nothing with the oracle machinery beyond the Graph type:
a separate Dijkstra whose priority-queue tie-breaks match the canonical rule,
so tree shapes (and hence enumerated fault sets) agree. ``brute_departing``
reads only the source distances and the path vertices it is handed.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Collection

from .graphs import Distance, Graph, UNREACHABLE
from .query import SsrpOutput

if TYPE_CHECKING:
    from .spt import PathOnTree, ShortestPathTree


def _sweep(
    g: Graph, source: int, banned: Collection[int]
) -> tuple[list[Distance], list[int | None], list[int | None]]:
    banned = set(banned)
    n = g.n
    dist: list[Distance] = [UNREACHABLE] * n
    parent: list[int | None] = [None] * n
    parent_edge: list[int | None] = [None] * n
    best: list[tuple | None] = [None] * n
    start = (0, 0, 0, -1, source, -1)
    best[source] = start
    heap = [start]
    done = [False] * n
    while heap:
        entry = heapq.heappop(heap)
        d, _, _, pred, v, eid = entry
        if done[v] or entry != best[v]:
            continue
        done[v] = True
        dist[v] = d
        if pred >= 0:
            parent[v] = pred
            parent_edge[v] = eid
        for e2 in g.adj[v]:
            if e2 in banned:
                continue
            edge = g.edges[e2]
            w = edge.other(v)
            if done[w]:
                continue
            cand = (
                d + edge.weight,
                1 if edge.virtual else 0,
                (1 if v != source else 0) if edge.virtual else 0,
                v,
                w,
                e2,
            )
            if best[w] is None or cand < best[w]:
                best[w] = cand
                heapq.heappush(heap, cand)
    return dist, parent, parent_edge


def brute_query(g: Graph, s: int, t: int, eid: int) -> Distance:
    """Distance from s to t with one edge removed, by direct recomputation."""
    return _sweep(g, s, (eid,))[0][t]


def brute_ssrp(g: Graph, s: int) -> SsrpOutput:
    """Every (t, tree edge above t) answered by one banned-edge run per
    distinct tree edge; output order matches the oracle enumeration."""
    dist, parent, parent_edge = _sweep(g, s, ())
    by_edge: dict[int, list[Distance]] = {}
    records: list[tuple[int, tuple[int, int], Distance]] = []
    for t in range(g.n):
        if dist[t] is UNREACHABLE or t == s:
            continue
        chain: list[tuple[int, int, int]] = []
        cur = t
        while cur != s:
            p = parent[cur]
            chain.append((p, cur, parent_edge[cur]))
            cur = p
        chain.reverse()
        for upper, lower, eid in chain:
            if eid not in by_edge:
                by_edge[eid] = _sweep(g, s, (eid,))[0]
            records.append((t, (upper, lower), by_edge[eid][t]))
    return SsrpOutput(records)


def brute_departing(
    g: Graph, spt_s: ShortestPathTree, path: PathOnTree
) -> list[list[Distance]]:
    """Per destination and path-edge position, the best departing length,
    via one vertex-banned run per path vertex.

    Banning every edge incident to the other path vertices confines each run
    to detours that leave the path exactly at its start vertex.
    """
    n = g.n
    k = len(path.edge_ids)
    on_path = set(path.vertices)
    result: list[list[Distance]] = [[UNREACHABLE] * k for _ in range(n)]
    if k == 0:
        return result
    running: list[Distance] = [UNREACHABLE] * n
    for j, u_j in enumerate(path.vertices[:k]):
        banned = {
            eid
            for v in path.vertices
            if v != u_j
            for eid in g.adj[v]
        }
        detour = _sweep(g, u_j, banned)[0]
        prefix = spt_s.dist[u_j]
        for t in range(n):
            if t in on_path:
                continue
            cand = prefix + detour[t]
            if cand < running[t]:
                running[t] = cand
            result[t][j] = running[t]
    return result
