"""Fault queries and full single-source enumeration over the query store.

Both read only the oracle's ``QueryStore``, so a built and a loaded oracle
answer through the same code. ``query`` walks the recursion tree for one
fault in plain Python (``_query_node``); ``ssrp`` walks it for all its
records at once (``_descend``), one round of numpy operations per level over
zero-copy views of the store arrays. Inside, distances are integers with INF
for UNREACHABLE; the answers turn INF back into UNREACHABLE.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graphs import Distance, UNREACHABLE
from .oracle import OracleTree
from .store import CROSS, INF, LEFT, PRIMARY, RIGHT, QueryStore, _view


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
    the tree copy fails. ``t``, ``x`` and ``y`` must be ``int`` (a bool is
    not), the rule ``build_oracle`` applies to the source.
    """
    store = oracle.store
    dist = store.dist
    n = len(dist)
    x, y = e
    if type(t) is not int:
        raise ValueError(f"destination {t!r} is not an integer vertex")
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"edge endpoints ({x!r}, {y!r}) are not integer vertices")
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


def _descend(store: QueryStore, t: np.ndarray, eid: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """``_query_node`` for every record at once: one round of array
    operations per level, over the records still descending.

    Each level mirrors the scalar cases: a leaf reads its row, CROSS answers
    ``d0``, PRIMARY folds its candidates into ``best`` and stops at the
    separator or where t has no left copy, and LEFT/RIGHT move to the child
    (``d0`` where t has no copy there). Answered records leave the arrays.
    Returns the distances with INF for UNREACHABLE, in the order of ``t``.
    """
    left, right, sep = _view(store.left), _view(store.right), _view(store.sep)
    vbase, ebase, srbase = _view(store.vbase), _view(store.ebase), _view(store.srbase)
    lchild, rchild, dist_r = _view(store.lchild), _view(store.rchild), _view(store.dist_r)
    eside, echild, epos = _view(store.eside), _view(store.echild), _view(store.epos)
    sr, rows = _view(store.sr), _view(store.rows)
    dep_off, dep_len = _view(store.dep_off), _view(store.dep_len)
    # One sorted key per departing entry, slot * K + position + 1, so a
    # single searchsorted finds bisect_right within every segment at once.
    # K leaves room for any path position; clipping keeps a segment's keys
    # inside its slot's range without reordering them.
    k = int(np.diff(srbase).max()) + 2
    owner = np.repeat(np.arange(len(dep_off) - 1, dtype=np.int64), np.diff(dep_off))
    key = owner * k + np.clip(_view(store.dep_dpi), -1, k - 2) + 1

    out = d0.copy()
    idx = np.arange(len(t))
    node = np.zeros(len(t), dtype=np.intp)
    best = np.full(len(t), INF, dtype=np.int64)
    while len(idx):
        child = left[node]
        es = ebase[node] + eid
        leaf = child < 0
        if leaf.any():
            row = echild[es[leaf]]
            hit = row >= 0
            at = np.flatnonzero(leaf)[hit]
            out[idx[at]] = np.minimum(rows[row[hit] + t[at]], best[at])
            inner = ~leaf
            idx, node, t, es, best, child = (
                idx[inner], node[inner], t[inner], es[inner], best[inner], child[inner])
        vs = vbase[node] + t
        side = eside[es]
        to_right = side == RIGHT
        ct = np.where(to_right, rchild[vs], lchild[vs])
        child = np.where(to_right, right[node], child)
        go = (side != CROSS) & (ct >= 0)
        prim = np.flatnonzero(side == PRIMARY)
        if len(prim):
            pn, pvs = node[prim], vs[prim]
            pos = epos[es[prim]]
            # saturating sr + dist_r: INF + INF would wrap in int64
            b = dist_r[pvs]
            cand = np.minimum(sr[srbase[pn] + pos], INF - b) + b
            i = np.searchsorted(key, pvs.astype(np.int64) * k + pos + 1, side="right")
            has = np.flatnonzero(i > dep_off[pvs])
            cand[has] = np.minimum(cand[has], dep_len[i[has] - 1])
            pb = np.minimum(best[prim], cand)
            best[prim] = pb
            stop = (t[prim] == sep[pn]) | (ct[prim] < 0)
            out[idx[prim[stop]]] = pb[stop]
            go[prim[stop]] = False
        idx, node, t, eid, best = idx[go], child[go], ct[go], echild[es[go]], best[go]
    return out


def ssrp(oracle: OracleTree) -> SsrpOutput:
    """For every reachable destination and every tree edge above it, the
    avoiding distance; records ordered by destination then edge depth.

    All records descend together (``_descend``). Climbing the source tree
    from every destination at once gives each its depth; record (t, j-th
    edge up from t) then lands at slot ``off[t] + depth[t] - 1 - j``, where
    ``off`` sums the depths before t, which is the record order without a
    sort.
    """
    store = oracle.store
    parent, dist = _view(store.parent), _view(store.dist)
    source = oracle.original_source
    ts = np.flatnonzero(dist < INF)
    ts = ts[ts != source]
    if not len(ts):
        return SsrpOutput([])
    depth = np.zeros(len(ts), dtype=np.int64)
    climb = []
    live, cur = np.arange(len(ts)), ts
    while len(live):
        climb.append((live, cur))
        depth[live] += 1
        cur = parent[cur]
        up = cur != source
        live, cur = live[up], cur[up]
    end = np.cumsum(depth)
    lower = np.empty(end[-1], dtype=np.intp)
    for j, (live, cur) in enumerate(climb):
        lower[end[live] - 1 - j] = cur
    t = np.repeat(ts, depth)
    d = _descend(store, t, _view(store.parent_edge)[lower], dist[t])
    ds = d.tolist()
    for i in np.flatnonzero(d >= INF).tolist():
        ds[i] = UNREACHABLE
    # Every record below one tree edge shares that edge's (x, y) tuple: one
    # tuple per vertex, not one per record, nearly halves the objects the
    # garbage collector tracks and collects while the list grows.
    edge = list(zip(parent.tolist(), range(len(parent))))
    tcol = chain.from_iterable(map(repeat, ts.tolist(), depth.tolist()))
    return SsrpOutput(list(zip(tcol, map(edge.__getitem__, lower.tolist()), ds)))
