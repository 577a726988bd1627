"""Candidate departing paths: per-destination sorted arrays and their queries.

A departing route for a fault on the primary path leaves the path above the
fault and never returns to it. For each destination off the path we keep the
short list of candidate routes whose lengths strictly increase while their
departure points climb strictly toward the source; a fault is then answered by
a binary search for the first candidate departing at or above it.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

from .graphs import Distance, Graph, UNREACHABLE
from .spt import PathOnTree, ShortestPathTree, dijkstra


class DepArray:
    """Candidates for one destination, lengths strictly increasing and
    departure positions strictly decreasing."""

    __slots__ = ("end", "lengths", "dp_depths")

    def __init__(self, end: int):
        self.end = end
        self.lengths = array("q")
        self.dp_depths = array("q")

    def __len__(self) -> int:
        return len(self.lengths)

    def query(self, edge_pos: int) -> Distance:
        """Length of the cheapest candidate departing at or above the path
        vertex with position ``edge_pos`` (the fault's upper endpoint)."""
        depths = self.dp_depths
        lo, hi = 0, len(depths)
        while lo < hi:
            mid = (lo + hi) // 2
            if depths[mid] <= edge_pos:
                hi = mid
            else:
                lo = mid + 1
        if lo == len(depths):
            return UNREACHABLE
        return self.lengths[lo]


@dataclass(slots=True)
class DepBuildStats:
    """Heap accounting for the construction cost bound."""

    departure_seeds: int = 0
    accepted: int = 0
    pushes: int = 0
    pops: int = 0
    max_degree: int = 0


def build_dep(
    g: Graph, spt_s: ShortestPathTree, path: PathOnTree
) -> tuple[list[DepArray], DepBuildStats]:
    """Grow all candidate arrays with one best-first pass.

    The heap is seeded with every single-edge departure from the path (one
    candidate per path vertex and incident off-path edge, departing at that
    vertex), then closed under off-path extensions of accepted candidates.
    Popping by (length, departure position) and keeping a candidate only when
    it departs strictly above the incumbent yields the doubly monotone arrays:
    the first entry kept for a destination is a shortest route with the
    highest achievable departure, and later entries trade length for height.
    """
    n = g.n
    on_path = [False] * n
    for v in path.vertices:
        on_path[v] = True

    dist = spt_s.dist
    adj = g.adj
    edges = g.edges
    dep = [DepArray(v) for v in range(n)]
    stats = DepBuildStats()
    stats.max_degree = max((len(a) for a in adj), default=0)

    heap: list[tuple[int, int, int, int, int]] = []
    seq = 0

    def push_extensions(v: int, length: int, dp_depth: int) -> None:
        nonlocal seq
        for eid in adj[v]:
            e = edges[eid]
            w = e.other(v)
            if on_path[w]:
                continue
            heapq.heappush(heap, (length + e.weight, dp_depth, -w, seq, w))
            seq += 1
            stats.pushes += 1

    for dpi, u in enumerate(path.vertices):
        base = dist[u]
        for eid in adj[u]:
            e = edges[eid]
            w = e.other(u)
            if on_path[w]:
                continue
            heapq.heappush(heap, (base + e.weight, dpi, -w, seq, w))
            seq += 1
            stats.pushes += 1
            stats.departure_seeds += 1

    while heap:
        length, dpi, _, _, v = heapq.heappop(heap)
        stats.pops += 1
        arr = dep[v]
        # pops come in (length, dpi) order, so a candidate that does not
        # depart strictly higher than the last kept one never beats it
        if arr.dp_depths and dpi >= arr.dp_depths[-1]:
            continue
        arr.lengths.append(length)
        arr.dp_depths.append(dpi)
        stats.accepted += 1
        push_extensions(v, length, dpi)
    return dep, stats


def brute_departing(
    g: Graph, spt_s: ShortestPathTree, path: PathOnTree
) -> list[list[Distance]]:
    """Independent oracle: per destination and path-edge position, the best
    departing length, via one vertex-banned Dijkstra per path vertex.

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
        detour = dijkstra(g, u_j, banned).dist
        prefix = spt_s.dist[u_j]
        for t in range(n):
            if t in on_path:
                continue
            cand = prefix + detour[t]
            if cand < running[t]:
                running[t] = cand
            result[t][j] = running[t]
    return result
