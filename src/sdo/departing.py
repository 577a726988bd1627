"""Candidate departing paths: per-destination sorted arrays.

A departing route for a fault on the primary path leaves the path above the
fault and never returns to it. For each destination off the path we keep the
short list of candidate routes whose lengths strictly increase while their
departure points climb strictly toward the source; a fault is then answered by
a binary search for the first candidate departing at or above it.

``build_dep`` writes a level's arrays as the query store appends them, one
``DepTable``: one count per destination and every destination's candidates
concatenated by rising departure position, so an empty array costs one
count and ``store.append_node`` appends the table as it is.
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
    """An empty placeholder: the benchmark's span table still names
    ``DepArray.query`` and looks its owner up by name, so the name stays
    until the benchmark drops it."""


class DepTable:
    """One level's candidate arrays as the store appends them: numpy int32
    ``counts`` and ``dp_depths`` and int64 ``lengths``. Destination t owns
    the next ``counts[t]`` entries of ``lengths`` and ``dp_depths``, stored
    by rising departure position (so falling length), the order in which
    the query store's binary search reads them. Iterating yields each
    destination's ``lengths`` as a view."""

    __slots__ = ("counts", "lengths", "dp_depths")

    def __init__(self, counts: np.ndarray, lengths: np.ndarray, dp_depths: np.ndarray):
        self.counts = counts
        self.lengths = lengths
        self.dp_depths = dp_depths

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        ends = np.cumsum(self.counts).tolist()
        return (self.lengths[a:b] for a, b in zip([0, *ends], ends))


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
    counts = np.bincount(v, minlength=n).astype(np.int32)
    lengths, dpis = np.frombuffer(lengths, dtype=np.int64), np.frombuffer(dpis, dtype=np.int32)
    return DepTable(counts, lengths[at], dpis[at])

