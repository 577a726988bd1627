"""Shortest-path trees with canonical tie-breaking, a distance-only sweep in
store integers, and the tree separator."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Container

from .graphs import Distance, Graph, UNREACHABLE
from .store import INF


class ShortestPathTree:
    """Dijkstra tree from one source with deterministic shape.

    ``dist`` holds exact integer distances (UNREACHABLE where no path exists),
    ``parent``/``parent_edge`` the canonical tree, ``depth`` hop depths, and
    ``order`` the reached vertices by rising distance, source first and
    parents before children: ``dijkstra``'s finalization sequence, or in a
    tree the oracle derives from a parent level's, that order restricted to
    the child's side.
    """

    __slots__ = (
        "graph",
        "source",
        "dist",
        "parent",
        "parent_edge",
        "depth",
        "order",
    )

    def __init__(self, graph: Graph, source: int):
        self.graph = graph
        self.source = source
        n = graph.n
        self.dist: list[Distance] = [UNREACHABLE] * n
        self.parent: list[int | None] = [None] * n
        self.parent_edge: list[int | None] = [None] * n
        self.depth: list[int] = [0] * n
        self.order: list[int] = []

    def reachable(self, v: int) -> bool:
        return self.dist[v] is not UNREACHABLE

    def reachable_count(self) -> int:
        return len(self.order)


def dijkstra(g: Graph, source: int, banned_edges: Container[int] = ()) -> ShortestPathTree:
    """Shortest-path tree of ``g`` minus ``banned_edges``.

    ``banned_edges`` is not copied, only tested with ``in``: pass a set, a
    dict keyed by edge id or a one-element tuple.

    Ties break on (distance, original-before-virtual, source-predecessor-first
    among virtual, predecessor id, vertex id, edge id), so repeated builds are
    bit-identical and on unweighted input the tree is the classic
    (distance, predecessor id, vertex id) canonical tree. A caller that reads
    only ``dist`` should call ``distances_from``, which builds no tree.

    The oracle build runs it on the input graph and on child graphs with a
    zero-weight edge only. Every other level's tree is its parent's,
    remapped (``oracle._graft``): on positive weights each vertex's parent
    edge is the least of its tight edges by this key, since every tight
    neighbour settles before it.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    spt = ShortestPathTree(g, source)
    dist = spt.dist
    parent = spt.parent
    parent_edge = spt.parent_edge
    depth = spt.depth
    order = spt.order
    edges = g.edges
    adj = g.adj
    heappush, heappop = heapq.heappush, heapq.heappop

    # best known (relaxation key) per vertex, pruning duplicate heap pushes
    best: list[tuple | None] = [None] * g.n
    start = (0, 0, 0, -1, source, -1)
    best[source] = start
    heap = [start]
    done = [False] * g.n
    while heap:
        entry = heappop(heap)
        d, _, _, pred, v, eid = entry
        if done[v] or entry != best[v]:
            continue
        done[v] = True
        order.append(v)
        dist[v] = d
        if pred >= 0:
            parent[v] = pred
            parent_edge[v] = eid
            depth[v] = depth[pred] + 1
        not_source = 1 if v != source else 0
        for e2 in adj[v]:
            if e2 in banned_edges:
                continue
            a, w, weight, virtual = edges[e2]
            if w == v:
                w = a
            if done[w]:
                continue
            if virtual:
                cand = (d + weight, 1, not_source, v, w, e2)
            else:
                cand = (d + weight, 0, 0, v, w, e2)
            b = best[w]
            if b is None or cand < b:
                best[w] = cand
                heappush(heap, cand)
    return spt


def distances_from(g: Graph, source: int, banned_edges: Container[int] = ()) -> list[int]:
    """``dijkstra(g, source, banned_edges).dist`` in store integers, without
    the tree: ``INF`` where no path exists, as the build's tables hold it.
    ``build_oracle`` bounds the weight sum below ``INF``, so every real
    distance is smaller and ``INF`` never stands for one.

    Distances do not depend on tie-breaks, so the heap holds bare
    ``(distance, vertex)`` pairs and a vertex is pushed only when its
    distance strictly falls; the entry popped at a vertex's best distance
    settles it, and weights are non-negative, so no later pop lowers it.
    ``banned_edges`` is tested with ``in``, as by ``dijkstra``.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    edges = g.edges
    adj = g.adj
    heappush, heappop = heapq.heappush, heapq.heappop
    best = [INF] * g.n
    best[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if d > best[v]:
            continue
        for e2 in adj[v]:
            if e2 in banned_edges:
                continue
            a, w, weight, _ = edges[e2]
            if w == v:
                w = a
            d2 = d + weight
            if d2 < best[w]:
                best[w] = d2
                heappush(heap, (d2, w))
    return best


@dataclass(slots=True)
class PathOnTree:
    """A top-to-bottom tree path: its vertices, and the tree edges between
    them (``edge_ids[i]`` joins ``vertices[i]`` and ``vertices[i + 1]``)."""

    vertices: list[int]
    edge_ids: list[int]

    def __len__(self) -> int:
        return len(self.vertices)


def tree_path(spt: ShortestPathTree, u: int, v: int) -> PathOnTree:
    """Ordered u -> v path along the tree; u must be an ancestor of v."""
    verts = [v]
    eids: list[int] = []
    cur = v
    while cur != u:
        p = spt.parent[cur]
        if p is None:
            raise ValueError(f"{u} is not an ancestor of {v}")
        eids.append(spt.parent_edge[cur])
        verts.append(p)
        cur = p
    verts.reverse()
    eids.reverse()
    return PathOnTree(verts, eids)


@dataclass(slots=True)
class SeparatorSplit:
    """Separator r and the two vertex sides; V_M and V_N overlap only at r."""

    r: int
    in_m: list[bool]
    in_n: list[bool]


def separator_split(spt: ShortestPathTree) -> SeparatorSplit:
    """Split the reachable tree at a separator r into edge-disjoint sides.

    Descends from the root into the heaviest child while that subtree exceeds
    two thirds of the reachable count. If the heaviest child below the stop
    vertex is big enough it becomes r and N is its subtree; otherwise r is the
    stop vertex and whole child subtrees are grouped into N, largest first,
    until N holds at least max(floor(nr / 3), 2) vertices. The floor of 2
    guarantees both sides strictly shrink for nr >= 3.
    """
    order = spt.order
    nr = len(order)
    if nr < 2:
        raise ValueError("separator undefined on single-vertex trees")
    n = spt.graph.n
    parent = spt.parent
    size = [0] * n
    heavy: list[int] = [-1] * n
    for v in reversed(order):
        size[v] += 1
        p = parent[v]
        if p is not None:
            size[p] += size[v]
            h = heavy[p]
            if h < 0 or size[v] > size[h] or (size[v] == size[h] and v < h):
                heavy[p] = v

    v = spt.source
    while heavy[v] >= 0 and 3 * size[heavy[v]] > 2 * nr:
        v = heavy[v]
    c = heavy[v]
    target = max(nr // 3, 2)
    if target > nr - 1:
        target = nr - 1

    in_n = [False] * n
    if size[c] >= target:
        r = c
        in_n[c] = True
    else:
        r = v
        size_n = 1
        children = [w for w in order if parent[w] == v]
        for ch in sorted(children, key=lambda w: (-size[w], w)):
            in_n[ch] = True
            size_n += size[ch]
            if size_n >= target:
                break

    # order lists parents first, so one pass spreads N down from its roots;
    # r joins after it, or a stop vertex r would pull all its children in
    for w in order:
        p = parent[w]
        if p is not None and in_n[p]:
            in_n[w] = True
    in_n[r] = True
    in_m = [False] * n
    for w in order:
        if not in_n[w] or w == r:
            in_m[w] = True
    return SeparatorSplit(r, in_m, in_n)
