"""Shortest-path trees with canonical tie-breaking, ancestor tests, tree separator."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection

from .graphs import Distance, Graph, UNREACHABLE


class ShortestPathTree:
    """Dijkstra tree from one source with deterministic shape.

    ``dist`` holds exact integer distances (UNREACHABLE where no path exists),
    ``parent``/``parent_edge`` the canonical tree, ``depth`` hop depths, and
    ``order`` the finalization sequence (source first, children after parents).
    """

    __slots__ = (
        "graph",
        "source",
        "dist",
        "parent",
        "parent_edge",
        "depth",
        "order",
        "_tin",
        "_size",
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
        self._tin: list[int] | None = None
        self._size: list[int] | None = None

    def reachable(self, v: int) -> bool:
        return self.dist[v] is not UNREACHABLE

    def reachable_count(self) -> int:
        return len(self.order)


def dijkstra(g: Graph, source: int, banned_edges: Collection[int] = ()) -> ShortestPathTree:
    """Shortest paths in ``g`` minus ``banned_edges``.

    Ties break on (distance, original-before-virtual, source-predecessor-first
    among virtual, predecessor id, vertex id, edge id), so repeated builds are
    bit-identical and on unweighted input the tree is the classic
    (distance, predecessor id, vertex id) canonical tree.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    banned = banned_edges if isinstance(banned_edges, (set, frozenset)) else set(banned_edges)
    spt = ShortestPathTree(g, source)
    dist = spt.dist
    parent = spt.parent
    parent_edge = spt.parent_edge
    depth = spt.depth
    edges = g.edges
    adj = g.adj

    # best known (relaxation key) per vertex, pruning duplicate heap pushes
    best: list[tuple | None] = [None] * g.n
    start = (0, 0, 0, -1, source, -1)
    best[source] = start
    heap = [start]
    done = [False] * g.n
    while heap:
        entry = heapq.heappop(heap)
        d, _, _, pred, v, eid = entry
        if done[v] or entry != best[v]:
            continue
        done[v] = True
        spt.order.append(v)
        dist[v] = d
        if pred >= 0:
            parent[v] = pred
            parent_edge[v] = eid
            depth[v] = depth[pred] + 1
        for e2 in adj[v]:
            if e2 in banned:
                continue
            edge = edges[e2]
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
    return spt


def build_preorder(spt: ShortestPathTree) -> None:
    """Attach preorder numbers and subtree sizes for O(1) ancestor tests.

    A reverse pass over ``order`` sums subtree sizes; a forward pass hands
    each child the next free range inside its parent's. Unreachable vertices
    keep number -1 and size 0, so no ancestor test involving them holds.
    """
    n = spt.graph.n
    parent = spt.parent
    size = [0] * n
    for v in reversed(spt.order):
        size[v] += 1
        p = parent[v]
        if p is not None:
            size[p] += size[v]
    tin = [-1] * n
    tin[spt.source] = 0
    free = [0] * n
    for v in spt.order:
        p = parent[v]
        if p is not None:
            tin[v] = free[p]
            free[p] += size[v]
        free[v] = tin[v] + 1
    spt._tin = tin
    spt._size = size


def is_ancestor(spt: ShortestPathTree, u: int, v: int) -> bool:
    """True iff u is an ancestor of v (or u == v) in the tree; False when
    either vertex is unreachable."""
    if spt._tin is None:
        build_preorder(spt)
    tin = spt._tin
    return tin[u] <= tin[v] < tin[u] + spt._size[u]


@dataclass(slots=True)
class PathOnTree:
    """A top-to-bottom tree path: vertices, the tree edges between them, and
    the inverse position map."""

    vertices: list[int]
    edge_ids: list[int]
    index_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index_of:
            self.index_of = {v: i for i, v in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def top(self) -> int:
        return self.vertices[0]

    @property
    def bottom(self) -> int:
        return self.vertices[-1]


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


def tree_edge_lower(spt: ShortestPathTree, eid: int) -> int | None:
    """The child endpoint if ``eid`` is a tree edge, else None."""
    e = spt.graph.edges[eid]
    if spt.parent_edge[e.u] == eid:
        return e.u
    if spt.parent_edge[e.v] == eid:
        return e.v
    return None


def edge_on_tree_path(spt: ShortestPathTree, t: int, e: tuple[int, int]) -> bool:
    """True iff (x, y) is a tree edge whose lower endpoint is an ancestor of t
    (or t itself), i.e. the edge lies on the source -> t tree path."""
    x, y = e
    if spt.parent[y] == x:
        lower = y
    elif spt.parent[x] == y:
        lower = x
    else:
        return False
    return is_ancestor(spt, lower, t)


@dataclass(slots=True)
class SeparatorSplit:
    """Separator r and the two vertex sides; V_M and V_N overlap only at r."""

    r: int
    in_m: list[bool]
    in_n: list[bool]
    reachable_count: int
    size_m: int
    size_n: int


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

    children: list[list[int]] = [[] for _ in range(n)]
    for w in order:
        p = parent[w]
        if p is not None:
            children[p].append(w)

    if size[c] >= target:
        r = c
        n_roots = [c]
        size_n = size[c]
    else:
        r = v
        size_n = 1
        n_roots = []
        for ch in sorted(children[v], key=lambda w: (-size[w], w)):
            n_roots.append(ch)
            size_n += size[ch]
            if size_n >= target:
                break

    in_n = [False] * n
    in_n[r] = True
    stack = list(n_roots)
    while stack:
        w = stack.pop()
        in_n[w] = True
        stack.extend(children[w])
    in_m = [False] * n
    for w in order:
        if not in_n[w] or w == r:
            in_m[w] = True
    size_m = nr - size_n + 1
    return SeparatorSplit(r, in_m, in_n, nr, size_m, size_n)


def find_separator(spt: ShortestPathTree) -> int:
    """Separator vertex r; see separator_split for the balance guarantees."""
    return separator_split(spt).r


def separator_balanced(split: SeparatorSplit) -> bool:
    """The balance predicate: floor(nr/3) <= |V_M|, |V_N| <= ceil(2 nr/3) + 1."""
    nr = split.reachable_count
    lo = nr // 3
    hi = -(-2 * nr // 3) + 1
    return lo <= split.size_m <= hi and lo <= split.size_n <= hi
