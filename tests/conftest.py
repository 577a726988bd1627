"""Shared independent oracles and graph builders for the test suite.

The oracles here deliberately use different algorithms than the library:
Bellman-Ford relaxation for distances, two-pointer walks for ancestors,
exhaustive path enumeration on tiny graphs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import chain, compress, count, islice, repeat
from operator import eq, ge, le, lt, sub

from sdo.departing import DepArray
from sdo.graphs import Edge, Graph, UNREACHABLE
from sdo.oracle import build_node
from sdo.spt import ShortestPathTree, dijkstra
from sdo.store import CROSS, INF, LEAF, LEFT, PRIMARY, RIGHT, QueryStore, open_store


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
    return dijkstra(oracle.graph, oracle.original_source)


def best_departing(arr, pos: int):
    """The departing answer by definition: the least candidate length among
    those departing at or above path position ``pos``, else UNREACHABLE."""
    return min(
        (length for length, dpi in zip(arr.lengths, arr.dp_depths) if dpi <= pos),
        default=UNREACHABLE,
    )


def build_store(g: Graph, source: int = 0, depth: int = 0):
    """The level records of the oracle built on ``g`` from ``source``, its
    root at ``depth``, and the store the build appends them to, as the
    build leaves it: its child links still hold ids within the child, before
    ``close_store`` adds the child's bases. The helpers below read such a
    store."""
    spt = dijkstra(g, source)
    store = open_store(spt)
    records = []
    build_node(spt, depth, store, records.append)
    return records, store


def distances(values) -> list:
    """Store distances with INF turned back into UNREACHABLE."""
    return [UNREACHABLE if d >= INF else d for d in values]


def vertex_segment(store, name: str, i: int):
    """Store node ``i``'s vertex slots of array ``name``."""
    return getattr(store, name)[store.vbase[i] : store.vbase[i + 1]]


def edge_segment(store, name: str, i: int):
    """Store node ``i``'s edge slots of array ``name``, one per original edge."""
    return getattr(store, name)[store.ebase[i] : store.ebase[i + 1]]


def child_ids(store, i: int, side: int):
    """Node ``i``'s child vertex ids on ``side`` (0 left, 1 right), one per
    vertex of its graph, -1 outside that side: every other entry of its
    ``vlink`` slots in a store the build left."""
    return store.vlink[2 * store.vbase[i] + side : 2 * store.vbase[i + 1] : 2]


def separator(store, i: int) -> int:
    """Node ``i``'s separator vertex, the one its ``vsep`` flags; -1 at a
    leaf."""
    flags = vertex_segment(store, "vsep", i)
    return flags.index(1) if 1 in flags else -1


def sr_base(records, i: int) -> int:
    """Where store node ``i``'s replacement lengths start in ``sr``: the
    lengths of the records before it, in store order."""
    return sum(len(node.sr_replacements or ()) for node in records[:i])


def leaf_table(store, i: int) -> dict[int, list]:
    """Leaf ``i``'s rows by original edge id: the source distances avoiding
    that edge, one per vertex of the leaf's graph. A LEAF slot's link is the
    row's offset less the leaf's ``vbase``."""
    lo, nv = store.vbase[i], store.vbase[i + 1] - store.vbase[i]
    return {
        eid: distances(store.rows[lo + at : lo + at + nv])
        for eid, (kind, at) in enumerate(
            zip(edge_segment(store, "kind", i), edge_segment(store, "elink", i))
        )
        if kind == LEAF
    }


def primary_positions(store, records, i: int) -> dict[int, int]:
    """Path position of each original edge on internal node ``i``'s primary
    path: its ``sr`` index less the node's ``sr`` base."""
    base = sr_base(records, i)
    return {
        eid: at - base
        for eid, (kind, at) in enumerate(
            zip(edge_segment(store, "kind", i), edge_segment(store, "esr", i))
        )
        if kind == PRIMARY
    }


def child_maps(store, i: int, g: Graph):
    """(left vertex, right vertex, left edge, right edge) child id maps of
    internal store node ``i``, whose graph is ``g``. The vertex maps and the
    original edges' maps are read off the store; a primary-path edge lies in
    side M. The store keeps no slot for a shortcut, so a shortcut's child id
    is recounted: a child keeps the parent's edges with both ends in its
    side, in the parent's order, and the original edges come first."""
    lv = {v: c for v, c in enumerate(child_ids(store, i, 0)) if c >= 0}
    rv = {v: c for v, c in enumerate(child_ids(store, i, 1)) if c >= 0}
    le: dict[int, int] = {}
    re: dict[int, int] = {}
    sides = edge_segment(store, "kind", i)
    kids = edge_segment(store, "elink", i)
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
    nm = sum(c >= 0 for c in child_ids(store, i, 0))
    nn = sum(c >= 0 for c in child_ids(store, i, 1))
    return reached, nm, nn


def balanced(nr: int, *sizes: int) -> bool:
    """The separator's balance predicate: every side size lies in
    [floor(nr/3), ceil(2 nr/3) + 1], where nr vertices are reachable."""
    lo, hi = nr // 3, -(-2 * nr // 3) + 1
    return all(lo <= size <= hi for size in sizes)


def with_weights(g: Graph, weights) -> Graph:
    """``g`` with edge ``eid`` reweighted to ``weights[eid]``."""
    return Graph(g.n, [Edge(e.u, e.v, w) for e, w in zip(g.edges, weights)])


def relabel(g: Graph, seed: int) -> tuple[Graph, list[int]]:
    """``g`` with its vertices renamed by a random permutation and its edges
    shuffled, as the benchmark relabels its inputs; returns the copy and the
    permutation, old id -> new id."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [Edge(perm[e.u], perm[e.v], e.weight) for e in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, edges), perm


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


def root_primary_candidates(g: Graph, source: int, t: int, fault: tuple[int, int]) -> list:
    """The root's own candidates for a primary-path fault, read off the
    build's store: the route through the separator and the departing
    entry. The root's ``sr`` base is 0, so its ``sr`` indexes are path
    positions."""
    records, store = build_store(g, source)
    eid = g.edge_ids_between(*fault)[0]
    pos = primary_positions(store, records, 0)[eid]
    sr = distances(store.sr[sr_base(records, 0) : sr_base(records, 1)])[pos]
    dist_r = distances(vertex_segment(store, "dist_r", 0))[t]
    lo, hi = store.dep_off[store.vbase[0] + t], store.dep_off[store.vbase[0] + t + 1]
    segment = DepArray(store.dep_len[lo:hi], store.dsr[lo:hi])
    return [sr + dist_r, best_departing(segment, pos)]


def node_walk(store: QueryStore, t: int, eid: int, d0: int, depth: int) -> tuple[int, int]:
    """The descent of ``_query_node`` in node ids, the reference both
    descents must match: it walks a store as the build leaves it, by
    ``left``, ``right`` and the bases, over child links that still hold ids
    within the child, rather than the slots ``close_store`` rebases them
    to, so a fault in that rebase shows. Returns (distance with INF, depth
    reached)."""
    left, vbase, ebase = store.left, store.vbase, store.ebase
    kind, elink, vlink = store.kind, store.elink, store.vlink
    node = 0
    best = INF
    while True:
        child = left[node]
        if child < 0:
            break
        es = ebase[node] + eid
        vs = vbase[node] + t
        side = kind[es]
        if side == PRIMARY:
            at = store.esr[es]
            cand = store.sr[at] + store.dist_r[vs]
            if cand < best:
                best = cand
            # a destination on the path has an empty segment
            dep_off = store.dep_off
            lo = dep_off[vs]
            i = bisect_right(store.dsr, at, lo, dep_off[vs + 1])
            if i > lo:
                cand = store.dep_len[i - 1]
                if cand < best:
                    best = cand
            ct = vlink[2 * vs]
            if store.vsep[vs] or ct < 0:
                return best, depth
        elif side == LEFT:
            ct = vlink[2 * vs]
        elif side == RIGHT:
            child = store.right[node]
            ct = vlink[2 * vs + 1]
        else:
            return d0, depth
        if ct < 0:
            return d0, depth
        node, t, eid, depth = child, ct, elink[es], depth + 1
    es = ebase[node] + eid
    if kind[es] != LEAF:
        # the leaf's source does not reach the fault
        return d0, depth
    d = store.rows[elink[es] + vbase[node] + t]
    return (d if d < best else best), depth


def _non_decreasing(a) -> bool:
    return all(map(le, a, islice(a, 1, None)))


def loop_check(s: QueryStore) -> None:
    """``store.check`` element by element in plain Python, the reference
    the numpy check must match message for message."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"inconsistent oracle store: {what}")

    need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    for name in ("vbase", "ebase"):
        base = getattr(s, name)
        need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        need(_non_decreasing(base), f"{name} decreases")
    for name in ("left", "right"):
        need(len(getattr(s, name)) == nodes, f"{name} does not hold one entry per node")
    slots, edge_slots = s.vbase[-1], s.ebase[-1]
    need(len(s.vlink) == 2 * slots, "vlink does not hold two entries per vertex slot")
    for name in ("vsep", "dist_r"):
        need(len(getattr(s, name)) == slots, f"{name} does not hold one entry per vertex slot")
    for name in ("kind", "elink", "esr"):
        need(len(getattr(s, name)) == edge_slots, f"{name} does not hold one entry per edge slot")
    need(len(s.dep_off) == slots + 1 and s.dep_off[0] == 0, "dep_off length")
    need(_non_decreasing(s.dep_off), "dep_off decreases")
    need(s.dep_off[-1] == len(s.dep_len) == len(s.dsr) == entries,
         "dep_off does not end at the departing entries")
    for name in ("dist", "dist_r", "sr", "rows", "dep_len"):
        need(all(0 <= d <= INF for d in getattr(s, name)), f"{name} holds a distance outside [0, INF]")
    need(all(map(lt, s.edge_keys, islice(s.edge_keys, 1, None))), "edge_keys not sorted")
    need(not s.edge_keys or (s.edge_keys[0] >= 0 and s.edge_keys[-1] < n * n),
         "edge key out of range")

    vbase, ebase = s.vbase, s.ebase
    need(vbase[1] == n, "the root does not hold the input vertices")
    parent, parent_edge, dist, tin = s.parent, s.parent_edge, s.dist, s.tin
    need(parent[source] == -1 and dist[source] == 0, "source has a parent")
    need(min(parent) >= -1 and max(parent) < n, "parent out of range")
    need(all(map(eq, map(lt, parent, repeat(0)), map(lt, parent_edge, repeat(0)))),
         "parent and parent edge disagree")
    need(max(parent_edge) < ebase[1], "parent edge out of range")
    # every reached vertex hangs below a reached vertex with a smaller
    # preorder number, so climbing the tree ends at the source
    for v in range(n):
        p = parent[v]
        if dist[v] < INF and v != source and (p < 0 or dist[p] >= INF or tin[p] >= tin[v]):
            need(False, "source tree is not a tree")

    need(set(s.vsep) <= {0, 1}, "vsep is not 0 or 1")

    left, right = s.left, s.right
    nv = list(map(sub, islice(vbase, 1, None), vbase))
    ne = list(map(sub, islice(ebase, 1, None), ebase))
    vertex_owner = list(chain.from_iterable(map(repeat, range(nodes), nv)))
    edge_owner = list(chain.from_iterable(map(repeat, range(nodes), ne)))
    marks = [0] * nodes
    for i, flag in zip(vertex_owner, s.vsep):
        marks[i] += flag
    node_depth = [0] * nodes
    for i, l, r in zip(range(nodes), left, right):
        if l < 0:
            need(l == r == -1, f"node {i} has one child")
            need(marks[i] == 0, f"node {i} separator marks {marks[i]} slots")
            continue
        need(i < l < nodes and i < r < nodes, f"node {i} has a child out of preorder")
        need(marks[i] == 1, f"node {i} separator marks {marks[i]} slots")
        node_depth[l] = node_depth[r] = node_depth[i] + 1
    need(max(node_depth) == depth, "meta depth differs from the tree")

    # Each slot's links against the slot ranges of its node's children.
    kind, elink = s.kind, s.elink
    for i, k in zip(edge_owner, kind):
        need(k in ((CROSS, LEAF) if left[i] < 0 else (CROSS, PRIMARY, LEFT, RIGHT)), "side code unknown")
    for side, child in enumerate((left, right)):
        for v, i in enumerate(vertex_owner):
            x, c = s.vlink[2 * v + side], child[i]
            need(x == -1 or (c >= 0 and vbase[c] <= x < vbase[c + 1]), "child vertex slot out of range")
    for e, i in enumerate(edge_owner):
        k, x = kind[e], elink[e]
        if k == CROSS:
            ok = x == -1
        elif k == LEAF:
            ok = x + vbase[i] >= 0 and x + vbase[i] + nv[i] <= len(s.rows)
        else:
            c = (right if k == RIGHT else left)[i]
            ok = c >= 0 and ebase[c] <= x < ebase[c + 1]
        need(ok, "child edge id or leaf row out of range")
    for k, x in zip(kind, s.esr):
        need(0 <= x < len(s.sr) if k == PRIMARY else x == -1, "path position out of range")

    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    starts = set(s.dep_off)
    dsr, length = s.dsr, s.dep_len
    for breaks in (map(le, islice(dsr, 1, None), dsr), map(ge, islice(length, 1, None), length)):
        need(set(compress(count(1), breaks)) <= starts, "departing segment not doubly monotone")
