"""Fault queries and full single-source enumeration over the query store.

Both read only the oracle's ``QueryStore``, so a built and a loaded oracle
answer through the same code. Inside, distances are integers with INF for
UNREACHABLE; the answers turn INF back into UNREACHABLE.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .graphs import Distance, UNREACHABLE
from .oracle import OracleTree
from .store import INF, LEFT, PRIMARY, RIGHT, QueryStore


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Answer plus how deep the case dispatch descended (diagnostic)."""

    distance: Distance
    recursion_depth: int


@dataclass(slots=True)
class SsrpOutput:
    """One record per (destination, tree edge above it): the distance from
    the source to that destination when the edge fails."""

    records: list[tuple[int, tuple[int, int], Distance]]

    def to_tsv(self) -> str:
        lines = [
            f"{t}\t{x}\t{y}\t{'INF' if d is UNREACHABLE else d}"
            for t, (x, y), d in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _query_node(
    store: QueryStore, t: int, eid: int, d0: int, depth: int
) -> tuple[int, int]:
    """Descend from the root for destination t and fault eid, both in the
    ids of the node reached.

    At each level the edge slot's side code says whether the fault lies on
    the primary path, inside one side or across the split. A primary-path
    fault offers the level's own candidates (the jump through the separator
    and the departing segment of t), and the descent carries the best of
    them on into side M, where a shorter route may stay. The descent goes on
    into the side holding the fault while t lies there too; ``d0``, the
    unfaulted distance to t, answers wherever the fault misses t's tree path:
    every candidate is a walk from the source, so none beats ``d0``.
    """
    left, vbase, ebase = store.left, store.vbase, store.ebase
    eside, echild, lchild = store.eside, store.echild, store.lchild
    node = 0
    best = INF
    while True:
        child = left[node]
        if child < 0:
            break
        es = ebase[node] + eid
        vs = vbase[node] + t
        side = eside[es]
        if side == PRIMARY:
            pos = store.epos[es]
            cand = store.sr[store.srbase[node] + pos] + store.dist_r[vs]
            if cand < best:
                best = cand
            # a destination on the path has an empty segment
            dep_off = store.dep_off
            lo = dep_off[vs]
            i = bisect_right(store.dep_dpi, pos, lo, dep_off[vs + 1])
            if i > lo:
                cand = store.dep_len[i - 1]
                if cand < best:
                    best = cand
            ct = lchild[vs]
            if t == store.sep[node] or ct < 0:
                return best, depth
        elif side == LEFT:
            ct = lchild[vs]
        elif side == RIGHT:
            child = store.right[node]
            ct = store.rchild[vs]
        else:
            return d0, depth
        if ct < 0:
            return d0, depth
        node, t, eid, depth = child, ct, echild[es], depth + 1
    row = echild[ebase[node] + eid]
    if row < 0:
        # the leaf's source does not reach the fault
        return d0, depth
    d = store.rows[row + t]
    return (d if d < best else best), depth


def query(oracle: OracleTree, t: int, e: tuple[int, int]) -> QueryResult:
    """Length of the shortest source -> t path avoiding edge e = (x, y).

    Faults off the t tree path leave the distance unchanged; destinations
    outside the source's component answer UNREACHABLE. With parallel edges
    the tree copy fails.
    """
    store = oracle.store
    dist = store.dist
    n = len(dist)
    x, y = e
    if not (0 <= t < n):
        raise ValueError(f"destination {t} out of range [0, {n})")
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"edge endpoints ({x}, {y}) out of range [0, {n})")
    parent = store.parent
    if parent[y] == x:
        lower = y
    elif parent[x] == y:
        lower = x
    else:
        # a tree edge proves the pair is joined; any other pair needs a key
        keys = store.edge_keys
        key = x * n + y if x < y else y * n + x
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            raise ValueError(f"no edge between {x} and {y}")
        d = dist[t]
        return QueryResult(UNREACHABLE if d >= INF else d, 0)
    tin = store.tin
    if not (tin[lower] <= tin[t] < tin[lower] + store.size[lower]):
        d = dist[t]
        return QueryResult(UNREACHABLE if d >= INF else d, 0)
    d, depth = _query_node(store, t, store.parent_edge[lower], dist[t], 0)
    return QueryResult(UNREACHABLE if d >= INF else d, depth)


def ssrp(oracle: OracleTree) -> SsrpOutput:
    """For every reachable destination and every tree edge above it, the
    avoiding distance; records ordered by destination then edge depth."""
    store = oracle.store
    parent, parent_edge, dist = store.parent, store.parent_edge, store.dist
    source = oracle.original_source
    records: list[tuple[int, tuple[int, int], Distance]] = []
    for t in range(len(dist)):
        d0 = dist[t]
        if t == source or d0 >= INF:
            continue
        chain: list[tuple[int, int, int]] = []
        cur = t
        while cur != source:
            p = parent[cur]
            chain.append((p, cur, parent_edge[cur]))
            cur = p
        chain.reverse()
        for upper, lower, eid in chain:
            d, _ = _query_node(store, t, eid, d0, 0)
            records.append((t, (upper, lower), UNREACHABLE if d >= INF else d))
    return SsrpOutput(records)
