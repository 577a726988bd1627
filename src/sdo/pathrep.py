"""Replacement lengths from the source to the path bottom, one per path edge.

For each tree edge on a top-to-bottom shortest path, computes the length of
the shortest source -> bottom route avoiding that edge, in one pass over the
graph plus an interval-minimum sweep instead of one Dijkstra per edge.
"""

from __future__ import annotations

import heapq

from .graphs import Distance, Graph, UNREACHABLE
from .spt import PathOnTree, ShortestPathTree


def replacement_lengths_along_path(
    g: Graph,
    spt_s: ShortestPathTree,
    spt_r: ShortestPathTree,
    path: PathOnTree,
) -> list[Distance]:
    """Table indexed by path-edge position: length of the best detour around
    that edge, or UNREACHABLE when removing it disconnects the endpoints.

    Every non-path edge (x, y) certifies the route dist_s(x) + w + dist_r(y)
    for exactly the faults whose cut it crosses: positions between where x and
    y hang off the path. Those contributions are folded with a heap sweep.
    """
    k = len(path.edge_ids)
    if k == 0:
        return []
    dist_s = spt_s.dist
    dist_r = spt_r.dist
    pos_of = path.index_of
    path_edge_ids = set(path.edge_ids)

    # anchor(v): position where the tree path to v leaves the primary path,
    # which starts at the tree root; parents come before children in order
    parent = spt_s.parent
    anchor = [-1] * g.n
    for v in spt_s.order:
        pos = pos_of.get(v)
        anchor[v] = anchor[parent[v]] if pos is None else pos

    # events[j]: values whose covering interval starts at fault position j
    events: list[list[tuple[int, int]]] = [[] for _ in range(k)]

    def add(x: int, y: int, w: int) -> None:
        ax, ay = anchor[x], anchor[y]
        if ax >= ay:
            return
        dx, dy = dist_s[x], dist_r[y]
        if dx is UNREACHABLE or dy is UNREACHABLE:
            return
        events[ax].append((dx + w + dy, ay - 1))

    for eid, e in enumerate(g.edges):
        if eid in path_edge_ids:
            continue
        add(e.u, e.v, e.weight)
        add(e.v, e.u, e.weight)

    table: list[Distance] = [UNREACHABLE] * k
    active: list[tuple[int, int]] = []
    for j in range(k):
        for item in events[j]:
            heapq.heappush(active, item)
        while active and active[0][1] < j:
            heapq.heappop(active)
        if active:
            table[j] = active[0][0]
    return table
