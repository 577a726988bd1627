"""Fault queries and full single-source enumeration over the query store.

Both read only the oracle's ``QueryStore``, so a built and a loaded oracle
answer through the same code, and both walk the store's slot links as they
are (``store.TABLE``): a record descends as a (vertex slot, edge slot) pair,
one lookup per level. ``query`` walks them for one fault in plain Python
(``_query_node``); ``ssrp`` for all its records at once (``_descend``),
one round of numpy operations per level, in one chunk of records per usable
CPU (``_descend_on_cores``). Inside, distances are integers with INF for
UNREACHABLE; the answers turn INF back into UNREACHABLE.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graphs import Distance, UNREACHABLE
from .oracle import OracleTree, usable_cpus
from .store import CROSS, INF, LEAF, PRIMARY, RIGHT, QueryStore, _view


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
    root's ids: ``_descend`` for one record, over the same slot links.

    At each level the edge slot's kind says whether the fault lies on the
    primary path, inside one side or across the split. A primary-path fault
    offers the level's own candidates (the jump through the separator and
    the departing segment of t), and the descent carries the best of them on
    into side M, where a shorter route may stay. The descent goes on into
    the side holding the fault while t lies there too; ``d0``, the unfaulted
    distance to t, answers wherever the fault misses t's tree path: every
    candidate is a walk from the source, so none beats ``d0``.
    """
    kind, elink, vlink, esr = store.kind, store.elink, store.vlink, store.esr
    # the root's slots start at 0, so its vertex and edge ids are slots
    vs, es = t, eid
    best = INF
    while True:
        side = kind[es]
        if side == LEAF:
            d = store.rows[elink[es] + vs]
            return (d if d < best else best), depth
        if side == CROSS:
            return d0, depth
        ct = vlink[2 * vs + (side == RIGHT)]
        if side == PRIMARY:
            at = esr[es]
            cand = store.sr[at] + store.dist_r[vs]
            if cand < best:
                best = cand
            # a destination on the path has an empty segment
            lo = store.dep_off[vs]
            i = bisect_right(store.dsr, at, lo, store.dep_off[vs + 1])
            if i > lo:
                cand = store.dep_len[i - 1]
                if cand < best:
                    best = cand
            if store.vsep[vs] or ct < 0:
                return best, depth
        elif ct < 0:
            return d0, depth
        vs, es, depth = ct, elink[es], depth + 1


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


# The fewest records a chunk of the descent gets. Smaller chunks hand the
# interpreter lock back and forth between their many small numpy calls for
# more than another core saves: on a 2-core VM, 2**15 records of
# nested_arcs(64) descended 0.95x as fast in two chunks, 2**16 records
# 1.18x as fast.
CHUNK_MIN_RECORDS = 1 << 15


def _descend(
    store: QueryStore, views: tuple, t: np.ndarray, eid: np.ndarray, d0: np.ndarray
) -> np.ndarray:
    """``_query_node`` for every record at once: one round of array
    operations per level, over the records still descending.

    Each level mirrors the scalar cases: a leaf reads its row, CROSS answers
    ``d0``, PRIMARY folds its candidates into ``best`` and stops at the
    separator or where t has no left copy, and LEFT/RIGHT move to the child
    (``d0`` where t has no copy there). Answered records leave the arrays.
    ``views`` come from ``_descend_on_cores``. Returns the distances with
    INF for UNREACHABLE, in the order of ``t``.
    """
    elink, vlink, esr, key, stride = views
    kind, vsep = _view(store.kind), _view(store.vsep).view(bool)
    dist_r, sr, rows = _view(store.dist_r), _view(store.sr), _view(store.rows)
    dep_off, dep_len = _view(store.dep_off), _view(store.dep_len)

    out = d0.copy()
    idx = np.arange(len(t))
    # the root's slots start at 0, so its vertex and edge ids are slots
    vs, es = t, eid
    best = np.full(len(t), INF, dtype=np.int64)
    while len(idx):
        side = kind[es]
        # a leaf slot links to no child, so its records stop here too
        ct = vlink[2 * vs + (side == RIGHT)]
        go = (side != CROSS) & (ct >= 0)
        leaf = np.flatnonzero(side == LEAF)
        if len(leaf):
            out[idx[leaf]] = np.minimum(rows[elink[es[leaf]] + vs[leaf]], best[leaf])
        prim = np.flatnonzero(side == PRIMARY)
        if len(prim):
            pvs = vs[prim]
            at = esr[es[prim]]
            # saturating sr + dist_r: INF + INF would wrap in int64
            b = dist_r[pvs]
            cand = np.minimum(sr[at], INF - b) + b
            i = np.searchsorted(key, pvs * stride + at + 1, side="right")
            has = np.flatnonzero(i > dep_off[pvs])
            cand[has] = np.minimum(cand[has], dep_len[i[has] - 1])
            pb = np.minimum(best[prim], cand)
            best[prim] = pb
            stop = vsep[pvs] | (ct[prim] < 0)
            out[idx[prim[stop]]] = pb[stop]
            go[prim[stop]] = False
        idx, vs, es, best = idx[go], ct[go], elink[es[go]], best[go]
    return out


def _descend_on_cores(store: QueryStore, t: np.ndarray, eid: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """``_descend`` over one contiguous chunk of the records per usable CPU,
    as far as each chunk gets ``CHUNK_MIN_RECORDS``; a smaller call is one
    chunk. Before any thread starts, it makes int64 copies of the links,
    which index without a conversion per gather, and one sorted key per
    departing entry, ``owner * stride + dsr + 1`` for its vertex slot
    ``owner``, which one search over all entries finds; nothing outlives the
    call. The calling thread takes the first chunk and a thread each the
    others; numpy releases the GIL in the gathers, ufuncs and searches, so
    the chunks run in parallel. Every thread is joined before this returns
    or raises."""
    # a departure lies on its node's path, the separator at the latest, so
    # dsr + 1 lies in [1, len(sr) + 1], inside its owner's stride
    stride = len(store.sr) + 2
    dep_off = _view(store.dep_off)
    key = np.repeat(np.arange(len(dep_off) - 1, dtype=np.int64) * stride + 1, np.diff(dep_off))
    key += _view(store.dsr)
    views = (*(_view(a).astype(np.int64) for a in (store.elink, store.vlink, store.esr)), key, stride)
    chunks = max(1, min(usable_cpus(), len(t) // CHUNK_MIN_RECORDS))
    cut = [len(t) * c // chunks for c in range(chunks + 1)]
    parts = [(t[a:b], eid[a:b], d0[a:b]) for a, b in zip(cut, cut[1:])]
    with ThreadPoolExecutor(chunks) as pool:
        rest = [pool.submit(_descend, store, views, *part) for part in parts[1:]]
        return np.concatenate([_descend(store, views, *parts[0])] + [f.result() for f in rest])


def ssrp(oracle: OracleTree) -> SsrpOutput:
    """For every reachable destination and every tree edge above it, the
    avoiding distance; records ordered by destination then edge depth.

    All records descend together (``_descend_on_cores``). Climbing the source tree
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
    d = _descend_on_cores(store, t, _view(store.parent_edge)[lower], dist[t])
    ds = d.tolist()
    for i in np.flatnonzero(d >= INF).tolist():
        ds[i] = UNREACHABLE
    # Every record below one tree edge shares that edge's (x, y) tuple: one
    # tuple per vertex, not one per record, nearly halves the objects the
    # garbage collector tracks and collects while the list grows.
    edge = list(zip(parent.tolist(), range(len(parent))))
    tcol = chain.from_iterable(map(repeat, ts.tolist(), depth.tolist()))
    return SsrpOutput(list(zip(tcol, map(edge.__getitem__, lower.tolist()), ds)))
