"""Fault queries and full single-source enumeration over the query store.

Both read only the oracle's ``QueryStore``, so a built and a loaded oracle
answer through the same code, and both walk the store's slot links as they
are (``store.TABLE``): a record descends as a (vertex slot, edge slot) pair,
one lookup per level, and a primary-path fault bisects its destination's
own departing segment of ``dsr``, so neither walk derives anything from the
store. ``query`` walks them for one fault in plain Python
(``_query_node``); ``ssrp`` for all its records at once (``_descend``),
one round of numpy operations per level over rows allocated once per call,
in one chunk of records per usable CPU (``_descend_on_cores``). Inside,
distances are integers with INF for UNREACHABLE. ``query`` turns INF back
into UNREACHABLE; ``ssrp`` returns its records as int64 columns
(``SsrpOutput``), builds no Python object per record, and turns INF into
UNREACHABLE only where a record is read as a tuple.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
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


class SsrpOutput:
    """One record per (destination, tree edge above it): the distance from
    the source to that destination when the edge fails.

    The records are four read-only int64 columns in record order: ``t``, the
    edge's upper end ``x`` and lower end ``y``, and ``dist`` with INF for
    UNREACHABLE. ``records`` reads them as ``(t, (x, y), d)`` tuples.
    ``SsrpOutput(records)`` takes such tuples, ``from_columns`` the columns.
    """

    __slots__ = ("t", "x", "y", "dist")

    def __init__(self, records: Iterable[tuple[int, tuple[int, int], Distance]] = ()):
        rows = [(t, x, y, INF if d is UNREACHABLE else d) for t, (x, y), d in records]
        self._hold(np.array(rows, dtype=np.int64).reshape(-1, 4).T)

    @classmethod
    def from_columns(cls, t, x, y, dist) -> SsrpOutput:
        out = cls.__new__(cls)
        out._hold((t, x, y, dist))
        return out

    def _hold(self, columns) -> None:
        for name, column in zip(self.__slots__, columns):
            column = np.ascontiguousarray(column, dtype=np.int64).view()
            column.flags.writeable = False
            setattr(self, name, column)

    @property
    def records(self) -> SsrpRecords:
        return SsrpRecords(self)

    def first_difference(self, other: SsrpOutput) -> int | None:
        """The index of the first record the two outputs do not share, or
        None where they are equal."""
        n = min(len(self.t), len(other.t))
        differs = np.zeros(n, dtype=bool)
        for name in self.__slots__:
            differs |= getattr(self, name)[:n] != getattr(other, name)[:n]
        if differs.any():
            return int(np.argmax(differs))
        return None if len(self.t) == len(other.t) else n

    def to_tsv(self) -> str:
        fields = self._fields("{}\t".format, "{}\t{}\t".format, "INF")
        return "".join(map("{}{}{}\n".format, *fields))

    def _fields(self, dest, edge, unreached) -> tuple[Iterator, Iterator, list]:
        """Per record, ``dest(t)``, ``edge(x, y)`` and the distance, with
        ``unreached`` for INF. Records come in runs of one destination, so
        one ``dest`` object serves a run."""
        t, dist = self.t, self.dist
        d = dist.tolist()
        for i in np.flatnonzero(dist >= INF).tolist():
            d[i] = unreached
        if not len(t):
            return iter(()), iter(()), d
        start = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        runs = map(repeat, map(dest, t[start].tolist()), np.diff(start, append=len(t)).tolist())
        return chain.from_iterable(runs), self._edges(edge), d

    def _edges(self, edge) -> Iterator:
        """``edge(x, y)`` per record. In every ssrp ``x`` is ``y``'s tree
        parent, so one object serves each lower vertex, and one numpy
        gather hands it to the records. That table, one entry per id up to
        the largest lower end, is built only while it stays within a few
        entries per record, as an ssrp's does on a connected graph (one
        record or more per vertex but the source); otherwise each record
        gets its own object."""
        x, y = self.x, self.y
        if y.min() >= 0 and y.max() < 4 * len(y):
            upper = np.full(y.max() + 1, -1, dtype=np.int64)
            upper[y] = x
            if np.array_equal(upper[y], x):
                n = len(upper)
                shared = np.fromiter(map(edge, upper.tolist(), range(n)), dtype=object, count=n)
                return iter(shared[y].tolist())
        return map(edge, x.tolist(), y.tolist())


class SsrpRecords(Sequence):
    """The records of an ``SsrpOutput`` as ``(t, (x, y), d)`` tuples, built
    from its columns as they are read; iteration shares ints and edge tuples
    as ``SsrpOutput._fields`` does. Equal to another view column by column
    and to a list tuple by tuple. A slice, or ``+`` with a list, gives a
    list."""

    __slots__ = ("_out",)
    __hash__ = None

    def __init__(self, out: SsrpOutput):
        self._out = out

    def __len__(self) -> int:
        return len(self._out.t)

    def __getitem__(self, i):
        out = self._out
        if isinstance(i, slice):
            return list(SsrpOutput.from_columns(out.t[i], out.x[i], out.y[i], out.dist[i]).records)
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        d = int(out.dist[i])
        return int(out.t[i]), (int(out.x[i]), int(out.y[i])), UNREACHABLE if d >= INF else d

    def __iter__(self) -> Iterator[tuple[int, tuple[int, int], Distance]]:
        return zip(*self._out._fields(int, lambda x, y: (x, y), UNREACHABLE))

    def __eq__(self, other):
        if isinstance(other, SsrpRecords):
            return self._out.first_difference(other._out) is None
        if isinstance(other, list):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __add__(self, other):
        return list(self) + other if isinstance(other, list) else NotImplemented

    def __radd__(self, other):
        return other + list(self) if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"SsrpRecords({list(self)!r})"


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
            if ct < 0 or vlink[2 * vs + 1] >= 0:
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


def _bisect_segments(dsr: np.ndarray, lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``bisect_right(dsr, at[r], lo[r], hi[r])`` for every r at once, each
    over its own rising segment ``dsr[lo[r]:hi[r]]``.

    Each round tries to move every index on by the same power of two, and
    keeps the move where the entry it would pass holds at most ``at``; the
    steps halve from the highest one within the longest segment, so one
    round per bit of that length finds every answer. The indexes are int64,
    so no probe wraps, and ``take`` clips the probes past the end of
    ``dsr``, which only a segment ending there makes and which never move.
    """
    i = lo.astype(np.int64)
    longest = int((hi - lo).max(initial=0))
    step = 1 << (longest.bit_length() - 1) if longest else 0
    probe = np.empty_like(i)
    while step:
        np.add(i, step, out=probe)
        move = probe <= hi
        probe -= 1
        move &= dsr.take(probe, mode="clip") <= at
        np.add(i, step, out=i, where=move)
        step >>= 1
    return i


def _descend(store: QueryStore, t: np.ndarray, eid: np.ndarray, d0: np.ndarray) -> None:
    """``_query_node`` for every record at once: one round of array
    operations per level, over the records still descending.

    Each level mirrors the scalar cases: a leaf reads its row, CROSS answers
    ``d0``, PRIMARY folds its candidates into ``best`` and stops at the
    separator (the vertex with a copy on both sides) or where t has no left
    copy, and LEFT/RIGHT move to the child
    (``d0`` where t has no copy there). A PRIMARY record finds its departing
    candidate in its own segment, as ``_query_node`` does
    (``_bisect_segments``). Each answer, INF for UNREACHABLE, overwrites its
    record's ``d0``.

    The records still descending are the prefixes of rows allocated once per
    call: position and ``best`` in two pairs of rows, one read and the other
    written each level, and the vertex and edge slots in one row each, which
    the compaction reads before it writes them. Each row is an array of its
    own, so a chunk of up to 2**19 records stays below the 4 MB at which
    numpy asks the kernel for huge pages. ``take`` into a row allocates
    nothing; its ``clip`` mode never clips, because ``check_and_rebase``
    bounds every link a record that moves on reads, on built and loaded
    stores alike.
    """
    kind, elink, vlink, esr = (_view(a) for a in (store.kind, store.elink, store.vlink, store.esr))
    dist_r, sr, rows = _view(store.dist_r), _view(store.sr), _view(store.rows)
    dep_off, dsr, dep_len = _view(store.dep_off), _view(store.dsr), _view(store.dep_len)

    n = len(t)
    cur = np.arange(n), np.full(n, INF, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    # the root's slots start at 0, so its vertex and edge ids are slots
    vs_row, es_row = t.astype(np.int64), eid.astype(np.int64)
    ct_row, link_row = np.empty(n, dtype=vlink.dtype), np.empty(n, dtype=vlink.dtype)
    side_row = np.empty(n, dtype=kind.dtype)
    while n:
        idx, best, vs, es = cur[0][:n], cur[1][:n], vs_row[:n], es_row[:n]
        side = kind.take(es, out=side_row[:n], mode="clip")
        pos = np.multiply(vs, 2, out=nxt[0][:n])
        pos += side == RIGHT
        # a leaf slot links to no child, so its records stop here too
        ct = vlink.take(pos, out=ct_row[:n], mode="clip")
        go = (side != CROSS) & (ct >= 0)
        leaf = np.flatnonzero(side == LEAF)
        if len(leaf):
            d0[idx[leaf]] = np.minimum(rows[elink[es[leaf]] + vs[leaf]], best[leaf])
        prim = np.flatnonzero(side == PRIMARY)
        if len(prim):
            pvs = vs[prim]
            at = esr[es[prim]]
            # saturating sr + dist_r: INF + INF would wrap in int64
            b = dist_r[pvs]
            cand = np.minimum(sr[at], INF - b) + b
            lo = dep_off[pvs]
            i = _bisect_segments(dsr, lo, dep_off[pvs + 1], at)
            has = np.flatnonzero(i > lo)
            cand[has] = np.minimum(cand[has], dep_len[i[has] - 1])
            pb = np.minimum(best[prim], cand)
            best[prim] = pb
            stop = (ct[prim] < 0) | (vlink[2 * pvs + 1] >= 0)
            d0[idx[prim[stop]]] = pb[stop]
            go[prim[stop]] = False
        keep = np.flatnonzero(go)
        n = len(keep)
        es.take(keep, out=nxt[0][:n], mode="clip")
        elink.take(nxt[0][:n], out=link_row[:n], mode="clip")
        es_row[:n] = link_row[:n]
        ct.take(keep, out=link_row[:n], mode="clip")
        vs_row[:n] = link_row[:n]
        idx.take(keep, out=nxt[0][:n], mode="clip")
        best.take(keep, out=nxt[1][:n], mode="clip")
        cur, nxt = nxt, cur


def _descend_on_cores(store: QueryStore, t: np.ndarray, eid: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """``_descend`` over one contiguous chunk of the records per usable CPU,
    as far as each chunk gets ``CHUNK_MIN_RECORDS``; a smaller call is one
    chunk. The chunks read the store's arrays as they are and derive
    nothing from them, so nothing outlives the call. The calling thread
    takes the first chunk and a thread each the others; numpy releases the
    GIL in the gathers and ufuncs, so the chunks run in parallel.
    Every thread is joined before this returns ``d0``, answered in place,
    or raises."""
    chunks = max(1, min(usable_cpus(), len(t) // CHUNK_MIN_RECORDS))
    cut = [len(t) * c // chunks for c in range(chunks + 1)]
    parts = [(t[a:b], eid[a:b], d0[a:b]) for a, b in zip(cut, cut[1:])]
    with ThreadPoolExecutor(chunks) as pool:
        rest = [pool.submit(_descend, store, *part) for part in parts[1:]]
        _descend(store, *parts[0])
        for f in rest:
            f.result()
    return d0


def ssrp(oracle: OracleTree) -> SsrpOutput:
    """For every reachable destination and every tree edge above it, the
    avoiding distance; records ordered by destination then edge depth, as
    the columns of an ``SsrpOutput``.

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
        return SsrpOutput()
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
    return SsrpOutput.from_columns(t, parent[lower], lower, d)
