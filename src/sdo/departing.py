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

import numpy as np

from .graphs import Graph
from .spt import PathOnTree, ShortestPathTree
from .store import INF


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
    """One level's candidate arrays in CSR form, as numpy int32 offsets and
    positions and int64 lengths. Destination t owns entries
    ``offsets[t]:offsets[t + 1]`` of ``lengths`` and ``dp_depths``, stored by
    rising departure position (so falling length), the order in which the
    query store's binary search reads them. Indexing or iterating yields
    ``DepArray`` copies, shortest candidate first."""

    __slots__ = ("offsets", "lengths", "dp_depths")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray, dp_depths: np.ndarray):
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
    """Heap accounting of one pass. ``pushes`` counts only candidates that
    improve on their destination's best length when pushed, the ones the
    pop test can still accept; the heap drains, so pops equal pushes, and
    ``accepted / pops`` is the share of heap work kept."""

    accepted: int = 0
    pushes: int = 0

    @property
    def pops(self) -> int:
        return self.pushes


def build_dep(
    g: Graph, spt_s: ShortestPathTree, path: PathOnTree
) -> tuple[DepTable, DepBuildStats]:
    """Grow all candidate arrays with one Dijkstra round per departure
    position, from the source down the path.

    ``best[v]`` is the shortest departing route to v found so far, over the
    positions already done. Round j starts from path vertex j, at its source
    distance, and runs over off-path vertices only, pushing a vertex only
    when its length falls strictly below ``best``. Every vertex the round
    settles gets a route departing at j that is strictly shorter than any
    departing higher: a kept candidate. So the first candidate of a
    destination is a shortest route with the highest achievable departure,
    and later ones trade length for height. Each destination's candidates
    are kept by rising position, the order the store reads; one stable sort
    groups them by destination. Each vertex's off-path ``(weight,
    neighbour)`` list is built once, for this level only.
    """
    n = g.n
    on_path = [False] * n
    for v in path.vertices:
        on_path[v] = True
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, weight, _ in g.edges:
        if not on_path[v]:
            out[u].append((weight, v))
        if not on_path[u]:
            out[v].append((weight, u))

    dist = spt_s.dist
    heappush, heappop = heapq.heappush, heapq.heappop
    best = [INF] * n
    kept_v = array("i")
    kept_length = array("q")
    kept_dpi = array("i")  # kept_dpi[i]: the round (path position) kept_v[i] departs at
    pushes = 0
    for j, u in enumerate(path.vertices):
        heap = []
        for weight, w in out[u]:
            length = dist[u] + weight
            if length < best[w]:
                best[w] = length
                heap.append((length, w))
        pushes += len(heap)
        heapq.heapify(heap)
        while heap:
            length, v = heappop(heap)
            if length > best[v]:
                continue
            kept_v.append(v)
            kept_length.append(length)
            for weight, w in out[v]:
                length_w = length + weight
                if length_w < best[w]:
                    best[w] = length_w
                    heappush(heap, (length_w, w))
                    pushes += 1
        kept_dpi += array("i", [j]) * (len(kept_v) - len(kept_dpi))
    stats = DepBuildStats(len(kept_v), pushes)
    return _group_by_destination(n, kept_v, kept_length, kept_dpi), stats


def _group_by_destination(
    n: int, vs: array, lengths: array, dpis: array
) -> DepTable:
    """Stable sort of the kept candidates by destination, keeping each
    destination's candidates in the order they were kept; ``dpis`` holds
    each candidate's round, which departs at that path position."""
    v = np.frombuffer(vs, dtype=np.int32)
    at = np.argsort(v, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(v, minlength=n), out=offsets[1:])
    lengths, dpis = np.frombuffer(lengths, dtype=np.int64), np.frombuffer(dpis, dtype=np.int32)
    return DepTable(offsets, lengths[at], dpis[at])

