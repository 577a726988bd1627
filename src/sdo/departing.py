"""Candidate departing paths: per-destination sorted arrays.

A departing route for a fault on the primary path leaves the path above the
fault and never returns to it. For each destination off the path we keep the
short list of candidate routes whose lengths strictly increase while their
departure points climb strictly toward the source; a fault is then answered by
a binary search for the first candidate departing at or above it.

``build_dep`` writes a level's arrays in CSR form, one ``DepTable``: every
array concatenated plus one offset per destination, so an empty array costs
one offset and the oracle's flat store takes the table as it is.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

from .graphs import Distance, Graph, UNREACHABLE
from .spt import PathOnTree, ShortestPathTree, dijkstra


class DepArray:
    """A copy of one destination's candidates, for inspection: lengths
    strictly increasing and departure positions strictly decreasing."""

    __slots__ = ("lengths", "dp_depths")

    def __init__(self, lengths: array, dp_depths: array):
        self.lengths = lengths
        self.dp_depths = dp_depths

    def __len__(self) -> int:
        return len(self.lengths)


class DepTable:
    """One level's candidate arrays in CSR form. Destination t owns entries
    ``offsets[t]:offsets[t + 1]`` of ``lengths`` and ``dp_depths``, stored by
    rising departure position (so falling length), the order in which the
    query store's binary search reads them. Indexing or iterating yields
    ``DepArray`` copies, shortest candidate first."""

    __slots__ = ("offsets", "lengths", "dp_depths")

    def __init__(self, offsets: array, lengths: array, dp_depths: array):
        self.offsets = offsets
        self.lengths = lengths
        self.dp_depths = dp_depths

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t: int) -> DepArray:
        a, b = self.offsets[t], self.offsets[t + 1]
        return DepArray(
            array("q", reversed(self.lengths[a:b])), array("q", reversed(self.dp_depths[a:b]))
        )

    def __iter__(self):
        return (self[t] for t in range(len(self)))


@dataclass(slots=True)
class DepBuildStats:
    """Heap accounting of one pass; the heap drains, so pops equal pushes."""

    accepted: int = 0
    pushes: int = 0
    pops: int = 0


def build_dep(
    g: Graph, spt_s: ShortestPathTree, path: PathOnTree
) -> tuple[DepTable, DepBuildStats]:
    """Grow all candidate arrays with one best-first pass.

    The heap is seeded with every single-edge departure from the path (one
    candidate per path vertex and incident off-path edge, departing at that
    vertex), then closed under off-path extensions of accepted candidates.
    Popping by (length, departure position) and keeping a candidate only when
    it departs strictly above the incumbent yields the doubly monotone arrays:
    the first entry kept for a destination is a shortest route with the
    highest achievable departure, and later entries trade length for height.
    Whether a destination keeps a candidate depends only on its own earlier
    pops, so ties between destinations may pop in any order. Accepted
    candidates are appended in pop order and grouped by destination at the
    end, with one counting sort.
    """
    n = g.n
    on_path = [False] * n
    for v in path.vertices:
        on_path[v] = True

    dist = spt_s.dist
    adj = g.adj
    edges = g.edges
    stats = DepBuildStats()
    # departure position of each destination's last kept candidate; the path
    # length is above every position
    last_dpi = [len(path.vertices)] * n
    kept_v = array("i")
    kept_length = array("q")
    kept_dpi = array("i")

    heap: list[tuple[int, int, int]] = []

    def push_extensions(v: int, length: int, dp_depth: int) -> None:
        for eid in adj[v]:
            e = edges[eid]
            w = e.other(v)
            if on_path[w]:
                continue
            heapq.heappush(heap, (length + e.weight, dp_depth, w))
            stats.pushes += 1

    for dpi, u in enumerate(path.vertices):
        push_extensions(u, dist[u], dpi)

    while heap:
        length, dpi, v = heapq.heappop(heap)
        # pops come in (length, dpi) order, so a candidate that does not
        # depart strictly higher than the last kept one never beats it
        if dpi >= last_dpi[v]:
            continue
        last_dpi[v] = dpi
        kept_v.append(v)
        kept_length.append(length)
        kept_dpi.append(dpi)
        push_extensions(v, length, dpi)
    stats.accepted = len(kept_v)
    stats.pops = stats.pushes
    return _group_by_destination(n, kept_v, kept_length, kept_dpi), stats


def _group_by_destination(
    n: int, vs: array, lengths: array, dpis: array
) -> DepTable:
    """Counting sort of the kept candidates by destination. A destination's
    candidates were kept by falling departure position, so each segment is
    filled from its end to list them by rising position."""
    offsets = array("i", bytes(4 * (n + 1)))
    for v in vs:
        offsets[v + 1] += 1
    for v in range(n):
        offsets[v + 1] += offsets[v]
    fill = offsets[1:]
    out_lengths = array("q", bytes(8 * len(vs)))
    out_dpis = array("i", bytes(4 * len(vs)))
    for v, length, dpi in zip(vs, lengths, dpis):
        p = fill[v] - 1
        fill[v] = p
        out_lengths[p] = length
        out_dpis[p] = dpi
    return DepTable(offsets, out_lengths, out_dpis)


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
