"""Shared independent oracles and graph builders for the test suite.

The oracles here deliberately use different algorithms than the library:
Bellman-Ford relaxation for distances, two-pointer walks for ancestors,
exhaustive path enumeration on tiny graphs.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, ge, le, lt, mul, sub

import numpy as np

from sdo.departing import DepArray
from sdo.graphs import Edge, Graph, UNREACHABLE
from sdo.oracle import build_node
from sdo.spt import ShortestPathTree, dijkstra
from sdo.store import (
    CROSS,
    FILE,
    INF,
    LEAF,
    LEFT,
    PRIMARY,
    RIGHT,
    QueryStore,
    check_and_rebase,
    file_arrays,
    open_store,
)


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


def appended_store(g: Graph, source: int = 0, depth: int = 0):
    """The level records of the oracle built on ``g`` from ``source``, its
    root at ``depth``, and the store the build appends them to, as the
    build leaves it before ``check_and_rebase``: every value local to its
    node, as a file holds it."""
    spt = dijkstra(g, source)
    store = open_store(spt)
    records = []
    build_node(spt, depth, store, records.append)
    return records, store


def build_store(g: Graph, source: int = 0, depth: int = 0):
    """``appended_store``, with the counts of ``vbase``, ``ebase`` and
    ``sbase`` summed into offsets, and the arrays the build leaves out
    derived here in plain Python from the ones it appends, by the rules
    ``check_and_rebase`` follows: a vertex's child id on each side is its
    rank among its node's vertices whose ``vside`` bit marks that side (-1
    off it), so the separator has an id on both; an edge's child id is its
    rank among its node's PRIMARY and LEFT slots, or its RIGHT slots; a LEAF
    slot's offset in its leaf's rows is its rank among the leaf's LEAF
    slots times the leaf's vertex count; CROSS links -1. A leaf's LEAF
    slots, which the build appends as PRIMARY, become LEAF. ``esr`` gets -1
    off the path, and ``dist_r`` and ``dep_off`` INF and no entries at a
    node without tables. The child links hold ids within the child, the
    leaf links offsets in the leaf's rows and the path positions positions
    on the node's path, before ``check_and_rebase`` rebases them. The
    helpers below read such a store."""
    records, store = appended_store(g, source, depth)
    for name in ("vbase", "ebase", "sbase"):
        setattr(store, name, array("i", accumulate(getattr(store, name))))
    vbase, ebase, sbase, side, kind = store.vbase, store.ebase, store.sbase, store.vside, store.kind
    vlink, elink, esr, dist_r, dep_counts = array("i"), array("i"), array("i"), array("q"), [0]
    positions, tabled_dist, tabled_counts = iter(store.esr), iter(store.dist_r), iter(store.dep_off[1:])
    for i in range(len(vbase) - 1):
        tabled = sbase[i + 1] > sbase[i]
        ranks = [0, 0]
        for v in range(vbase[i], vbase[i + 1]):
            for c in (0, 1):
                vlink.append(ranks[c] if side[2 * v + c] else -1)
                ranks[c] += side[2 * v + c]
            dist_r.append(next(tabled_dist) if tabled else INF)
            dep_counts.append(next(tabled_counts) if tabled else 0)
        ranks = {LEFT: 0, RIGHT: 0, LEAF: 0}
        leaf = not any(side[2 * v] and side[2 * v + 1] for v in range(vbase[i], vbase[i + 1]))
        for e in range(ebase[i], ebase[i + 1]):
            if leaf and kind[e] == PRIMARY:
                kind[e] = LEAF
            k = LEFT if kind[e] == PRIMARY else kind[e]
            if k == CROSS:
                elink.append(-1)
            else:
                elink.append(ranks[k] * (vbase[i + 1] - vbase[i] if k == LEAF else 1))
                ranks[k] += 1
            esr.append(next(positions) if kind[e] == PRIMARY else -1)
    store.vlink, store.elink, store.esr, store.dist_r = vlink, elink, esr, dist_r
    store.dep_off = array("i", accumulate(dep_counts))
    return records, store


def checked(store: QueryStore) -> QueryStore:
    """A copy of ``store`` as a load makes it: its arrays as a file holds
    them (``file_arrays``), at their table types, through
    ``check_and_rebase``."""
    copy = file_store(dict(file_arrays(store)))
    check_and_rebase(copy)
    return copy


def file_store(arrays: dict) -> QueryStore:
    """A store holding the file arrays ``arrays`` (by name, each at any
    integer type) at their ``FILE`` types, as a load reads them."""
    s = QueryStore()
    for name, code in FILE:
        setattr(s, name, array(code, np.asarray(arrays[name]).astype(code).tobytes()))
    return s


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
    """Node ``i``'s separator vertex, the one vertex whose two child links
    are both >= 0; -1 at a leaf."""
    links = store.vlink[2 * store.vbase[i] : 2 * store.vbase[i + 1]]
    both = [v for v in range(len(links) // 2) if links[2 * v] >= 0 and links[2 * v + 1] >= 0]
    assert len(both) <= 1, (i, both)
    return both[0] if both else -1


def children(store) -> list[tuple[int, int]]:
    """Each node's (left, right) child, (-1, -1) at a leaf, read off the
    separator marks with a stack of the children still to come, apart from
    the store's own derivation: in preorder, each node is the innermost
    child still to come, and a node with a separator is internal and then
    waits for its two children, the left one first."""
    kids: list[list[int]] = []
    to_come = [(-1, 0)]  # (parent, 0 left or 1 right), the innermost last
    for i in range(len(store.vbase) - 1):
        parent, side = to_come.pop()
        if parent >= 0:
            kids[parent][side] = i
        kids.append([-1, -1])
        if separator(store, i) >= 0:
            to_come += [(i, 1), (i, 0)]
    assert not to_come, to_come
    return list(map(tuple, kids))


def sr_base(records, i: int) -> int:
    """Where store node ``i``'s replacement lengths start in ``sr``: the
    lengths of the records before it, in store order."""
    return sum(len(node.sr_replacements or ()) for node in records[:i])


def leaf_rows(store) -> list[int]:
    """Where each node's leaf rows start in ``rows``: one row per LEAF slot,
    one entry per vertex, in store order."""
    sizes = (
        edge_segment(store, "kind", i).count(LEAF) * (store.vbase[i + 1] - store.vbase[i])
        for i in range(len(store.vbase) - 1)
    )
    return list(accumulate(sizes, initial=0))


def leaf_table(store, i: int) -> dict[int, list]:
    """Leaf ``i``'s rows by original edge id: the source distances avoiding
    that edge, one per vertex of the leaf's graph. A LEAF slot's link is the
    row's offset in the leaf's rows."""
    lo, nv = leaf_rows(store)[i], store.vbase[i + 1] - store.vbase[i]
    return {
        eid: distances(store.rows[lo + at : lo + at + nv])
        for eid, (kind, at) in enumerate(
            zip(edge_segment(store, "kind", i), edge_segment(store, "elink", i))
        )
        if kind == LEAF
    }


def primary_positions(store, i: int) -> dict[int, int]:
    """Path position of each original edge on internal node ``i``'s primary
    path, as its ``esr`` slot holds it."""
    return {
        eid: at
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
    pos = primary_positions(store, 0)[eid]
    sr = distances(store.sr[sr_base(records, 0) : sr_base(records, 1)])[pos]
    dist_r = distances(vertex_segment(store, "dist_r", 0))[t]
    lo, hi = store.dep_off[store.vbase[0] + t], store.dep_off[store.vbase[0] + t + 1]
    segment = DepArray(store.dep_len[lo:hi], store.dsr[lo:hi])
    return [sr + dist_r, best_departing(segment, pos)]


def walk_tables(store) -> tuple[list, list[int], list[int]]:
    """What ``node_walk`` reads beside ``store``: each node's children, its
    separator and where its leaf rows start."""
    separators = [separator(store, i) for i in range(len(store.vbase) - 1)]
    return children(store), separators, leaf_rows(store)


def node_walk(
    store: QueryStore, tables: tuple, t: int, eid: int, d0: int, depth: int
) -> tuple[int, int]:
    """The descent of ``_query_node`` in node ids, the reference both
    descents must match: it walks a store as ``build_store`` leaves it, by
    ``children`` and the bases, over child links that still hold ids
    within the child, rather than the slots ``check_and_rebase`` rebases
    them to, and over path positions and leaf row offsets local to their
    node (``tables`` is ``walk_tables(store)``), so a fault in that rebase
    shows.
    Returns (distance with INF, depth reached)."""
    kids, separators, rows_at = tables
    vbase, ebase = store.vbase, store.ebase
    kind, elink, vlink = store.kind, store.elink, store.vlink
    node = 0
    best = INF
    while True:
        child = kids[node][0]
        if child < 0:
            break
        es = ebase[node] + eid
        vs = vbase[node] + t
        side = kind[es]
        if side == PRIMARY:
            at = store.esr[es]
            cand = store.sr[store.sbase[node] + at] + store.dist_r[vs]
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
            if t == separators[node] or ct < 0:
                return best, depth
        elif side == LEFT:
            ct = vlink[2 * vs]
        elif side == RIGHT:
            child = kids[node][1]
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
    d = store.rows[rows_at[node] + elink[es] + t]
    return (d if d < best else best), depth


def _non_decreasing(a) -> bool:
    return all(map(le, a, islice(a, 1, None)))


def _int32_sums(counts) -> list[int]:
    """The running sums of ``counts`` in int32 arithmetic that wraps."""
    return [(x + 2**31) % 2**32 - 2**31 for x in accumulate(counts)]


def loop_check(s: QueryStore) -> None:
    """The checks of ``store.check_and_rebase`` element by element in plain
    Python, on the arrays of ``FILE`` as a file holds them: the reference
    the numpy check must match message for message."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"inconsistent oracle store: {what}")

    need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    bases = []
    for name in ("vbase", "ebase", "sbase"):
        base = _int32_sums(getattr(s, name))
        need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        need(_non_decreasing(base), f"{name} decreases: a count is negative or passes int32")
        bases.append(base)
    vbase, ebase, sbase = bases
    need(vbase[1] == n, "the root does not hold the input vertices")
    nv, ne, ns = (list(map(sub, islice(base, 1, None), base)) for base in bases)
    slots, edge_slots = vbase[-1], ebase[-1]
    vertex_owner = list(chain.from_iterable(map(repeat, range(nodes), nv)))
    edge_owner = list(chain.from_iterable(map(repeat, range(nodes), ne)))
    tabled = [ns[i] > 0 for i in vertex_owner]
    need(len(s.vside) == 2 * slots, "vside does not hold two entries per vertex slot")
    need(len(s.kind) == edge_slots, "kind does not hold one entry per edge slot")
    need(len(s.dist_r) == sum(tabled), "dist_r does not hold one entry per tabled slot")
    need(len(s.dep_off) == sum(tabled) + 1 and s.dep_off[0] == 0, "dep_off length")
    counts = iter(s.dep_off[1:])
    dep_off = _int32_sums([0] + [next(counts) if t else 0 for t in tabled])
    need(_non_decreasing(dep_off), "dep_off decreases: a count is negative or passes int32")
    need(dep_off[-1] == len(s.dep_len) == len(s.dsr) == entries,
         "dep_off does not end at the departing entries")
    need(sbase[-1] == len(s.sr), "sbase does not end at the sr entries")
    # a route departs at a position on its node's path, the separator included
    for v, i in enumerate(vertex_owner):
        for x in s.dsr[dep_off[v] : dep_off[v + 1]]:
            need(0 <= x <= ns[i], "departure position out of range")
    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    starts = set(dep_off)
    dsr, length = s.dsr, s.dep_len
    for breaks in (map(le, islice(dsr, 1, None), dsr), map(ge, islice(length, 1, None), length)):
        need(set(compress(count(1), breaks)) <= starts, "departing segment not doubly monotone")
    for name in ("dist", "dist_r", "sr", "rows", "dep_len"):
        need(all(0 <= d <= INF for d in getattr(s, name)), f"{name} holds a distance outside [0, INF]")
    need(all(map(lt, s.edge_keys, islice(s.edge_keys, 1, None))), "edge_keys not sorted")
    need(not s.edge_keys or (s.edge_keys[0] >= 0 and s.edge_keys[-1] < n * n),
         "edge key out of range")

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

    need(set(s.vside) <= {0, 1}, "vside is not 0 or 1")
    in_m, in_n = s.vside[0::2], s.vside[1::2]
    marks = [0] * nodes
    for i, m, k in zip(vertex_owner, in_m, in_n):
        marks[i] += m & k
    # in preorder, each node is the innermost child still to come, and a
    # node with a separator then waits for its two children, the left first
    left, right = [-1] * nodes, [-1] * nodes
    node_depth = [0] * nodes
    to_come = [(-1, 0)]
    for i in range(nodes):
        need(bool(to_come), f"node {i} follows the end of the tree")
        need(marks[i] <= 1, f"node {i} separator marks {marks[i]} slots")
        parent, side = to_come.pop()
        if parent >= 0:
            (left, right)[side][parent] = i
            node_depth[i] = node_depth[parent] + 1
        if marks[i]:
            to_come += [(i, 1), (i, 0)]
    need(not to_come, f"the tree leaves {len(to_come)} subtrees open after its last node, {nodes - 1}")
    need(max(node_depth) == depth, "meta depth differs from the tree")

    # a leaf's slot is CROSS or, coded as PRIMARY, LEAF
    for i, k in zip(edge_owner, s.kind):
        need(k in ((CROSS, PRIMARY) if left[i] < 0 else (CROSS, PRIMARY, LEFT, RIGHT)), "side code unknown")
    kind = [LEAF if left[i] < 0 and k == PRIMARY else k for i, k in zip(edge_owner, s.kind)]
    primary = [e for e, k in enumerate(kind) if k == PRIMARY]
    need(len(s.esr) == len(primary), "esr does not hold one entry per PRIMARY slot")
    for e, x in zip(primary, s.esr):
        need(0 <= x < ns[edge_owner[e]], "path position out of range")
    # Each side's members and edges against its child's vertex and original
    # edge counts (side N's child adds its hub), the LEAF slots' rows
    # against rows.
    members = [[0, 0] for _ in range(nodes)]
    for i, m, k in zip(vertex_owner, in_m, in_n):
        members[i][0] += m
        members[i][1] += k
    sides = [[0, 0] for _ in range(nodes)]
    leaf_slots = [0] * nodes
    for i, k in zip(edge_owner, kind):
        if k in (PRIMARY, LEFT):
            sides[i][0] += 1
        elif k == RIGHT:
            sides[i][1] += 1
        elif k == LEAF:
            leaf_slots[i] += 1
    for what, have, count_of in (
        ("child vertex slot out of range", members, lambda c, hub: nv[c] - hub),
        ("child edge id or leaf row out of range", sides, lambda c, hub: ne[c]),
    ):
        for i in range(nodes):
            want = [0, 0] if left[i] < 0 else [count_of(left[i], 0), count_of(right[i], 1)]
            if have[i] != want:
                c = int(have[i][0] == want[0])
                need(False, f"{what}: node {i} side {'MN'[c]} holds {have[i][c]}, its child {want[c]}")
    rows = sum(map(mul, leaf_slots, nv))
    need(rows == len(s.rows), f"child edge id or leaf row out of range: the LEAF slots take {rows} rows, "
                              f"rows holds {len(s.rows)}")
