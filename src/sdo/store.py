"""The query store: the oracle as flat integer arrays.

Each array concatenates one table kind over all recursion nodes, numbered in
preorder with the root at 0; the build appends each level's rows before its
children's. A node owns the vertex slots ``vbase[i]:vbase[i + 1]`` and the
edge slots ``ebase[i]:ebase[i + 1]``, one per vertex and per original edge
of its graph. Every node graph numbers its original edges first (the root
holds only input edges, grafting keeps the parent's order and appends
shortcuts), so slot ``ebase[i] + eid`` belongs to edge ``eid``; shortcuts
are never faults and get no slot. The build appends each level to one
``QueryStore``, all that queries, on built and loaded oracles alike, read
and files hold.

The build appends every value local to its node, the form a file holds
(format SDO10), so that each fits a byte or two: ``vbase``, ``ebase``,
``sbase`` (each node's first ``sr`` entry) and ``dep_off`` as a leading 0
and then one count per node or vertex slot; a child link as an id within
its child; a leaf row as its offset in the leaf's own rows; a path position
(``esr``, ``dsr``) as a position on the node's path. A subtree's arrays can
then be appended anywhere as they are. ``close_store`` turns them into the
store queries walk, the counts summed into offsets and each local value
rebased to its slot, row or ``sr`` index; a load does the same behind
``check_and_rebase``, which bounds each local value first, and a save runs
the inverse (``file_arrays``). All three share ``_frame``, the base and
range of every local value.

Distances are integers up to ``INF = 2**62``, which stands for UNREACHABLE:
a candidate sum at or above INF never wins, and the API turns INF back into
UNREACHABLE. The build's kernels compute in these integers too, so every
table but the public source tree's ``dist`` goes in as it is. ``open_store``
also numbers that tree in preorder (``tin``/``size``), the ancestor index
a query's entry reads.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from .graphs import UNREACHABLE

if TYPE_CHECKING:
    from .departing import DepTable
    from .graphs import Edge, Graph
    from .spt import ShortestPathTree

INF = 2**62

# Side codes of an edge slot at an internal node: where the fault lies. A
# leaf's slot is LEAF where the leaf holds a row for it, else CROSS.
CROSS, PRIMARY, LEFT, RIGHT, LEAF = 0, 1, 2, 3, 4

# (name, typecode) of every array of a query store, in file order.
# Distances are "q" (they reach INF); ids, offsets and positions are "i".
TABLE = (
    # n, source, node count, depth, departing entries
    ("meta", "q"),
    # the input graph's source tree, one entry per input vertex (-1: none)
    ("parent", "i"),
    ("parent_edge", "i"),
    ("dist", "q"),
    ("tin", "i"),
    ("size", "i"),
    # sorted distinct min * n + max keys of the input edges
    ("edge_keys", "q"),
    # per node, read by the check only: its first vertex slot, edge slot and
    # sr entry, each with one extra entry, the total (a file: counts)
    ("vbase", "i"),
    ("ebase", "i"),
    ("sbase", "i"),
    ("left", "i"),
    ("right", "i"),
    # per vertex slot: left and right child slots, two a slot (-1: none; a
    # file: child vertex ids); 1 on the separator; distance from it;
    # departing segment start (plus the end; a file: counts)
    ("vlink", "i"),
    ("vsep", "b"),
    ("dist_r", "q"),
    ("dep_off", "i"),
    # departing candidates, each segment by rising departure position (an sr
    # index; a file: the node's path position)
    ("dep_len", "q"),
    ("dsr", "i"),
    # per edge slot: side code or LEAF; the child edge slot on that side (a
    # file: the child edge id), or a leaf row's offset less the leaf's vbase
    # (a file: the offset in the leaf's rows), CROSS: -1; PRIMARY's sr index
    # (a file: the path position), else -1
    ("kind", "b"),
    ("elink", "i"),
    ("esr", "i"),
    # source -> separator replacement lengths by path position; leaf rows
    ("sr", "q"),
    ("rows", "q"),
)


class QueryStore:
    """Every table a query reads, one ``array`` per entry of ``TABLE``,
    empty at first."""

    __slots__ = tuple(name for name, _ in TABLE)

    def __init__(self):
        for name, code in TABLE:
            setattr(self, name, array(code))

    def arrays(self) -> list[tuple[str, array]]:
        return [(name, getattr(self, name)) for name, _ in TABLE]


def _original_count(g: Graph) -> int:
    """Edges before the first shortcut: the original edges, which can fail.
    Every node graph lists its shortcuts last, so a binary search finds it."""
    return bisect_left(g.edges, True, key=_is_virtual)


def _is_virtual(e: Edge) -> bool:
    return e.virtual


def open_store(spt: ShortestPathTree) -> QueryStore:
    """A store holding the source-tree arrays of the oracle built on
    ``spt.graph`` from ``spt.source``, ready for ``append_node``.

    ``tin``/``size`` are the tree's preorder numbers and subtree sizes, so
    u is an ancestor of v iff ``tin[u] <= tin[v] < tin[u] + size[u]``. A
    reverse pass over ``order`` sums the sizes; a forward pass hands each
    child the next free range inside its parent's. Unreachable vertices
    keep number -1 and size 0, so no ancestor test involving them holds."""
    s = open_segment()
    g = spt.graph
    n = g.n
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
    s.parent = array("i", [-1 if p is None else p for p in parent])
    s.parent_edge = array("i", [-1 if e is None else e for e in spt.parent_edge])
    s.dist = array("q", [INF if d is UNREACHABLE else d for d in spt.dist])
    s.tin = array("i", tin)
    s.size = array("i", size)
    s.edge_keys = array("q", sorted({min(e.u, e.v) * n + max(e.u, e.v) for e in g.edges}))
    s.meta[:2] = array("q", [n, spt.source])
    return s


_NONE = array("i", [-1])


def append_node(
    s: QueryStore,
    g: Graph,
    depth: int,
    rows: Iterable[tuple[int, list[int]]] = (),
    r: int = -1,
    path_edges: Iterable[int] = (),
    maps: tuple[tuple[list[int], dict[int, int]], ...] = (),
    tables: tuple[list[int], list[int], DepTable] | None = None,
) -> int:
    """Append the next node in preorder, on graph ``g``; returns its id.

    A leaf gives ``rows``: the source distances avoiding each original edge
    a fault can reach. An internal node gives its separator ``r``, primary
    path and split: the vertex and edge maps of side M (the source side,
    holding the path), then of side N. A vertex map, the child id of each
    of ``g``'s vertices or -1, is its side's half of ``vlink``; an edge map
    lists ``g``'s edge ids in ``g``'s order. The separator is in both sides,
    and an edge in neither crosses the split. Its left child is appended
    next; the caller sets ``right``. ``tables`` holds the distances from ``r``, the
    replacement lengths along the path and the departing table, or None
    when no input edge lies on the path. Distances are store integers,
    ``INF`` for none, and go in as they are.

    Every value goes in local to the node, as a file holds it: the offsets
    as the node's vertex, edge and ``sr`` counts and each vertex slot's
    departing count; the child links as ids within the child (both halves
    of ``vlink``, and ``elink`` at PRIMARY, LEFT and RIGHT slots); a leaf
    row as its offset in the leaf's rows; a path position, in ``esr`` and
    ``dsr``, as it is. ``close_store`` turns them into the store queries
    read."""
    i = len(s.left)
    nv, ne = g.n, _original_count(g)
    first_row = len(s.rows)
    s.meta[3] = max(s.meta[3], depth)
    s.left.append(i + 1 if maps else -1)
    s.right.append(-1)
    vlink, sep = _NONE * (2 * nv), array("b", [0]) * nv
    kind, link, at = array("b", [CROSS]) * ne, _NONE * ne, _NONE * ne
    for eid, row in rows:
        kind[eid] = LEAF
        link[eid] = len(s.rows) - first_row
        s.rows.extend(row)
    for side, (code, (vmap, emap)) in enumerate(zip((LEFT, RIGHT), maps)):
        vlink[side::2] = array("i", vmap)
        for eid, ce in emap.items():
            if eid >= ne:  # the shortcuts, which follow the original edges
                break
            kind[eid] = code
            link[eid] = ce
    # shortcuts follow the original edges, so a path edge below ne can fail
    for p, eid in enumerate(path_edges):
        if eid < ne:
            kind[eid] = PRIMARY
            at[eid] = p
    if maps:
        sep[r] = 1
    s.vlink.extend(vlink)
    s.vsep.extend(sep)
    s.kind.extend(kind)
    s.elink.extend(link)
    s.esr.extend(at)
    if tables is None:
        s.dist_r.extend(array("q", [INF]) * nv)
        s.dep_off.extend(array("i", [0]) * nv)
        s.sbase.append(0)
    else:
        dist_r, sr, dep = tables
        s.dist_r.extend(dist_r)
        s.sr.extend(sr)
        s.sbase.append(len(sr))
        s.dep_off.frombytes(np.diff(dep.offsets).tobytes())
        s.dep_len.frombytes(dep.lengths.tobytes())
        s.dsr.frombytes(dep.dp_depths.tobytes())
    s.vbase.append(nv)
    s.ebase.append(ne)
    return i


def close_store(s: QueryStore) -> None:
    """Finish the store the build appended to, in place: sum the offset
    arrays' counts and rebase every relative value (``_rebase``), and put
    the node count and departing entries in ``meta``."""
    s.meta[2] = len(s.left)
    s.meta[4] = len(s.dep_len)
    _sum_counts(s)
    _rebase(s, _frame(s, check=False))


# The offset arrays: the first vertex slot, edge slot and sr entry of each
# node, and the first departing entry of each vertex slot, each with one
# extra entry, the total. The build appends, and a file holds, each as its
# leading 0 and then one count per node or slot.
OFFSETS = ("vbase", "ebase", "sbase", "dep_off")


def _sum_counts(s: QueryStore) -> None:
    """Sum each offset array's counts into offsets, in place, in int32
    arithmetic that wraps: a negative count, or one that carries the sum
    past int32, makes the offsets decrease."""
    for name in OFFSETS:
        v = _view(getattr(s, name))
        np.cumsum(v, dtype=np.int32, out=v)


def _counts(s: QueryStore, name: str) -> np.ndarray:
    """Offset array ``name`` as the file holds it: its first entry, then the
    difference of each entry from the one before, in int32 arithmetic that
    wraps, so ``_sum_counts`` gives back every int32 array exactly."""
    v = _view(getattr(s, name))
    c = np.empty_like(v)
    c[:1] = v[:1]
    np.subtract(v[1:], v[:-1], out=c[1:])
    return c


class _Frame(NamedTuple):
    """Per coded array of a store: the base each local value adds in the
    rebase, and what bounds the local values. Vertex links and departure
    positions are bounded per node, by their least and greatest; an edge
    link or path position x one by one, where x plus an offset (1 at CROSS,
    whose link is -1), as an unsigned 32-bit number, lies below its span.
    The fields after ``rows`` are the check's own: None where they were not
    asked for."""

    # per vertex link: its child's first vertex slot
    vlink: np.ndarray
    # per edge slot: its link's base, less 1 at CROSS, whose link is -1
    elink: np.ndarray
    # the PRIMARY edge slots; at each, its node's first sr entry and sr count
    primary: np.ndarray
    esr: np.ndarray
    esr_span: np.ndarray
    # per departing entry: its node's first sr entry
    dsr: np.ndarray
    # the rows that the leaves' LEAF slots hold
    rows: int
    # per edge slot, whether its side code is one its node may hold
    known: np.ndarray | None = None
    # the first slot of each node that has one, and per side that node's
    # child's vertex count
    vlink_first: np.ndarray | None = None
    vlink_bound: np.ndarray | None = None
    # per edge slot, its link's span, for x + 1 at CROSS (-1), where the base
    # of -1 restores it
    elink_span: np.ndarray | None = None
    # the first departing entry of each node that has one, and that node's
    # sr count
    dsr_first: np.ndarray | None = None
    dsr_bound: np.ndarray | None = None


def _frame(s: QueryStore, check: bool = True) -> _Frame:
    """How each relative value of ``s`` maps to its absolute one, from the
    summed offsets, ``left``, ``right`` and ``kind``, which must keep every
    index here inside its array (``check_and_rebase`` and ``_walkable``
    make sure):

    - a vertex slot's two links: -1 (none), which stays, or an id below its
      child's vertex count, plus the child's ``vbase``; a leaf's -1
      children count 0 vertices;
    - an edge slot's link: at PRIMARY and LEFT an id below the left child's
      edge count, at RIGHT below the right child's, plus the child's
      ``ebase``; at LEAF an offset into the leaf's own rows, at most one
      row from their end, plus the leaf's first row less its ``vbase``; at
      CROSS -1, which stays;
    - ``esr``: at PRIMARY a position below the node's ``sr`` count, plus its
      ``sbase``; elsewhere -1, which stays;
    - ``dsr``: a position on its owner node's path, at most its ``sr`` count
      (a route may depart at the separator, the path's last vertex), plus
      the node's ``sbase``.

    Edge slots gather theirs from per-node tables by side code. Every
    per-value array is fresh, so a caller may write into it."""
    left, right, kind = _view(s.left), _view(s.right), _view(s.kind)
    vbase, ebase, sbase, dep_off = (_view(getattr(s, name)) for name in OFFSETS)
    nodes, codes = len(left), LEAF + 1
    nv, ne, ns = np.diff(vbase), np.diff(ebase), np.diff(sbase)
    kids = np.stack([left, right], axis=1)
    # each edge slot's entry in the per-node tables below, by side code:
    # CROSS, PRIMARY, LEFT, RIGHT, LEAF
    at = np.repeat(np.arange(0, nodes * codes, codes, dtype=np.int32), ne)
    at += kind
    rows = np.bincount(at[kind == LEAF] // codes, minlength=nodes) * nv.astype(np.int64)
    base = np.full((nodes, codes), -1, dtype=np.int32)
    base[:, PRIMARY] = base[:, LEFT] = ebase[left]
    base[:, RIGHT] = ebase[right]
    base[:, LEAF] = np.cumsum(rows) - rows - vbase[:-1]
    primary = np.flatnonzero(kind == PRIMARY)
    owner = at[primary] // codes
    entries = dep_off[vbase[1:]] - dep_off[vbase[:-1]]
    f = _Frame(
        np.repeat(vbase[kids], nv, axis=0).ravel(), base.ravel().take(at),
        primary, sbase[owner], ns[owner].astype(np.uint32),
        np.repeat(sbase[:-1], entries), int(rows.sum()),
    )
    if not check:
        return f
    # a child's count sits at its id plus one, behind a 0 that a -1 reads
    v_count, e_count = np.concatenate(([0], nv)), np.concatenate(([0], ne))
    # a leaf's edge slots are LEAF or CROSS, an internal node's any other
    leaf = left < 0
    allowed = np.ones((nodes, codes), dtype=bool)
    allowed[:, LEAF] = leaf
    allowed[:, PRIMARY:LEAF] = ~leaf[:, None]
    span = np.ones((nodes, codes), dtype=np.uint32)
    span[:, PRIMARY] = span[:, LEFT] = e_count[left + 1]
    span[:, RIGHT] = e_count[right + 1]
    span[:, LEAF] = np.maximum(rows - nv + 1, 0)
    departs, holds = np.flatnonzero(entries), np.flatnonzero(nv)
    return f._replace(
        known=allowed.ravel().take(at),
        vlink_first=vbase[holds], vlink_bound=v_count[kids + 1][holds],
        elink_span=span.ravel().take(at),
        dsr_first=dep_off[vbase[departs]], dsr_bound=ns[departs],
    )


def _rebase(s: QueryStore, f: _Frame, need: Callable[[bool, str], None] | None = None) -> None:
    """Add to each relative value of ``s`` its base in ``f``, in place. With
    ``need`` (and ``f`` made for a check), first check that each array's values lie
    in their ranges, and before the leaf links that ``rows`` holds the
    leaves' rows, each before the array is rebased."""
    kind, vlink, elink, esr, dsr = map(_view, (s.kind, s.vlink, s.elink, s.esr, s.dsr))
    if need is not None:
        # each node's links on each side, by their least and greatest
        most = np.maximum.reduceat(vlink.reshape(-1, 2), f.vlink_first, axis=0)
        need(vlink.min() >= -1 and (most < f.vlink_bound).all(), "child vertex slot out of range")
    np.multiply(f.vlink, vlink >= 0, out=f.vlink)
    vlink += f.vlink
    elink += kind == CROSS
    if need is not None:
        need(f.rows == len(s.rows), "rows does not hold one row per leaf slot")
        need((elink.view(np.uint32) < f.elink_span).all(), "child edge id or leaf row out of range")
    elink += f.elink
    at = esr[f.primary]
    if need is not None:
        need(np.count_nonzero(esr == -1) == len(esr) - len(at) and (at.view(np.uint32) < f.esr_span).all(),
             "path position out of range")
    esr[f.primary] = at + f.esr
    if need is not None:
        # each node's departures, by their least and greatest
        need(not len(dsr) or (dsr.min() >= 0 and (np.maximum.reduceat(dsr, f.dsr_first) <= f.dsr_bound).all()),
             "departure position out of range")
    dsr += f.dsr


def _walkable(s: QueryStore) -> bool:
    """Whether ``_frame`` can index ``s``, a store as queries read it: its
    offsets start at 0, never decrease and match the lengths of the arrays
    they cover, its children are node ids or -1 and its side codes known."""
    nodes = len(s.left)
    offsets = v, e, sr, dep_off = [_view(getattr(s, name)) for name in OFFSETS]
    left, right, kind = _view(s.left), _view(s.right), _view(s.kind)
    if not (nodes and len(right) == nodes and len(v) == len(e) == len(sr) == nodes + 1):
        return False
    slots = int(v[-1])
    if len(dep_off) != slots + 1 or len(s.vlink) != 2 * slots:
        return False
    if not (len(kind) == len(s.elink) == len(s.esr) == e[-1] and dep_off[-1] == len(s.dsr)):
        return False
    return bool(
        all(a[0] == 0 and not (a[1:] < a[:-1]).any() for a in offsets)
        and min(left.min(), right.min()) >= -1 and max(left.max(), right.max()) < nodes
        and (not len(kind) or (kind.min() >= CROSS and kind.max() <= LEAF))
    )


def file_arrays(s: QueryStore) -> list[tuple[str, np.ndarray]]:
    """The arrays of ``s`` as a file holds them, in ``TABLE`` order: the
    offsets as counts (``_counts``) and every relative value less its base,
    the inverse of ``close_store``'s sums and rebase. ``s`` is not changed.

    A store that ``check_and_rebase`` would reject before its links keeps
    its links as they are. Elsewhere a vertex link just below its child's
    first slot becomes -2, not -1 (none), so that every value out of its
    range stays out of range in the file, and the load rejects it."""
    out = {name: _view(a) for name, a in s.arrays()}
    for name in OFFSETS:
        out[name] = _counts(s, name)
    if _walkable(s):
        f = _frame(s, check=False)
        # each difference goes into the frame's own array, which is fresh
        linked = out["vlink"] != -1
        np.multiply(f.vlink, linked, out=f.vlink)
        out["vlink"] = vlink = np.subtract(out["vlink"], f.vlink, out=f.vlink)
        linked &= vlink == -1
        vlink -= linked
        elink = np.subtract(out["elink"], f.elink, out=f.elink)
        out["elink"] = np.subtract(elink, out["kind"] == CROSS, out=elink)
        out["esr"] = esr = out["esr"].copy()
        esr[f.primary] -= f.esr
        out["dsr"] = np.subtract(out["dsr"], f.dsr, out=f.dsr)
    return list(out.items())


def _view(a: array) -> np.ndarray:
    """A zero-copy numpy view of one store array."""
    return np.frombuffer(a, dtype=a.typecode)


# The arrays a subtree appends to: all from vbase on. The ones before it,
# meta and the input graph's source tree and edge keys, are the whole store's.
SEGMENT = tuple(name for name, _ in TABLE[TABLE.index(("vbase", "i")):])


def open_segment() -> QueryStore:
    """An empty store for a subtree built apart from the store it joins: its
    node ids start at 0, and ``splice_segment`` shifts them to where the
    subtree lands. Each offset array holds its leading 0."""
    s = QueryStore()
    s.meta = array("q", [0] * 5)
    for name in OFFSETS:
        getattr(s, name).append(0)
    return s


def _send(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int, size: int) -> bytearray:
    data = bytearray(size)
    view = memoryview(data)
    got = 0
    while got < size:
        k = os.readv(fd, [view[got:]])
        if not k:
            raise EOFError("the segment ends early")
        got += k
    return data


def send_segment(s: QueryStore, fd: int) -> None:
    """Write the segment ``s`` to the pipe ``fd``: its depth, then each array
    of ``SEGMENT`` as a byte count and its raw bytes."""
    _send(fd, s.meta[3:4])
    for name in SEGMENT:
        a = getattr(s, name)
        _send(fd, array("q", [len(a) * a.itemsize]))
        _send(fd, a)


def splice_segment(s: QueryStore, fd: int) -> None:
    """Append the segment sent on ``fd`` to ``s`` as its next subtree in
    preorder. Each array's bytes go onto the end of ``s``'s as they are, an
    offset array's less its leading 0: every value but a child node id is
    local to its node, so only those ids are shifted, in place, by ``s``'s
    node count. The depth is the deeper of the two."""
    nodes = len(s.left)
    s.meta[3] = max(s.meta[3], array("q", _receive(fd, 8))[0])
    for name in SEGMENT:
        data = _receive(fd, array("q", _receive(fd, 8))[0])
        getattr(s, name).frombytes(memoryview(data)[4:] if name in OFFSETS else data)
    for ids in (_view(s.left)[nodes:], _view(s.right)[nodes:]):
        ids[ids >= 0] += nodes


def check_and_rebase(s: QueryStore) -> None:
    """Turn ``s``, the arrays as a file holds them, into the store queries
    walk, in place, or raise ValueError unless they form a store that every
    query can walk without leaving an array: consistent lengths and counts,
    child nodes after their parent in preorder, every link inside the child
    node its side names (so every walk ends), leaf rows inside their leaf's
    rows, path positions inside their node's path, doubly monotone
    departing segments, distances in [0, INF].

    The counts are summed into offsets first, which index nothing, and the
    offsets are checked as the store's. Each relative value is bounded
    before the rebase adds its base (``_rebase``). Every check is
    whole-array numpy work, about the cost of a copy; no value indexes an
    array before an earlier check has bounded it."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"inconsistent oracle store: {what}")

    _sum_counts(s)
    need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    for name in ("vbase", "ebase", "sbase"):
        base = _view(getattr(s, name))
        need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        need(not (base[1:] < base[:-1]).any(), f"{name} decreases: a count is negative or passes int32")
    for name in ("left", "right"):
        need(len(getattr(s, name)) == nodes, f"{name} does not hold one entry per node")
    slots, edge_slots = s.vbase[-1], s.ebase[-1]
    need(len(s.vlink) == 2 * slots, "vlink does not hold two entries per vertex slot")
    for name in ("vsep", "dist_r"):
        need(len(getattr(s, name)) == slots, f"{name} does not hold one entry per vertex slot")
    for name in ("kind", "elink", "esr"):
        need(len(getattr(s, name)) == edge_slots, f"{name} does not hold one entry per edge slot")
    dep_off = _view(s.dep_off)
    need(len(dep_off) == slots + 1 and dep_off[0] == 0, "dep_off length")
    need(not (dep_off[1:] < dep_off[:-1]).any(), "dep_off decreases: a count is negative or passes int32")
    need(dep_off[-1] == len(s.dep_len) == len(s.dsr) == entries,
         "dep_off does not end at the departing entries")
    need(s.sbase[-1] == len(s.sr), "sbase does not end at the sr entries")
    for name in ("dist", "dist_r", "sr", "rows", "dep_len"):
        d = _view(getattr(s, name))
        need(not len(d) or (d.min() >= 0 and d.max() <= INF),
             f"{name} holds a distance outside [0, INF]")
    keys = _view(s.edge_keys)
    need(not (keys[1:] <= keys[:-1]).any(), "edge_keys not sorted")
    need(not len(keys) or (keys[0] >= 0 and keys[-1] < n * n), "edge key out of range")

    need(s.vbase[1] == n, "the root does not hold the input vertices")
    parent, parent_edge, dist, tin = map(_view, (s.parent, s.parent_edge, s.dist, s.tin))
    need(parent[source] == -1 and dist[source] == 0, "source has a parent")
    need(parent.min() >= -1 and parent.max() < n, "parent out of range")
    need(((parent < 0) == (parent_edge < 0)).all(), "parent and parent edge disagree")
    need(parent_edge.max() < s.ebase[1], "parent edge out of range")
    # every reached vertex hangs below a reached vertex with a smaller
    # preorder number, so climbing the tree ends at the source
    v = np.flatnonzero((dist < INF) & (np.arange(n) != source))
    p = parent[v]
    up = np.maximum(p, 0)
    need(not ((p < 0) | (dist[up] >= INF) | (tin[up] >= tin[v])).any(), "source tree is not a tree")

    vsep = _view(s.vsep)
    need(((vsep == 0) | (vsep == 1)).all(), "vsep is not 0 or 1")

    # the node checks name the first node that fails one; an internal node
    # marks one separator slot, a leaf none
    left, right = _view(s.left), _view(s.right)
    vbase = _view(s.vbase)
    ids = np.arange(nodes)
    leaf = left < 0
    holds = np.flatnonzero(np.diff(vbase))
    marks = np.zeros(nodes, dtype=np.int64)
    marks[holds] = np.add.reduceat(vsep, vbase[holds], dtype=np.int64)
    one_child = leaf & ((left != -1) | (right != -1))
    out_of_order = ~leaf & ~((ids < left) & (left < nodes) & (ids < right) & (right < nodes))
    bad = np.flatnonzero(one_child | out_of_order | (marks != ~leaf))
    if len(bad):
        i = int(bad[0])
        need(not one_child[i], f"node {i} has one child")
        need(not out_of_order[i], f"node {i} has a child out of preorder")
        need(False, f"node {i} separator marks {marks[i]} slots")
    # a node is one deeper than the last node naming it as a child, as in a
    # preorder walk; pointer doubling sums the hops in log(depth) rounds
    inner = np.flatnonzero(~leaf)
    hop = np.full(nodes, -1, dtype=np.int64)
    np.maximum.at(hop, left[inner], inner)
    np.maximum.at(hop, right[inner], inner)
    node_depth = (hop >= 0).astype(np.int64)
    while (on := hop >= 0).any():
        node_depth[on] += node_depth[hop[on]]
        hop[on] = hop[hop[on]]
    need(node_depth.max() == depth, "meta depth differs from the tree")

    # every side code is known, and one its node may hold (``_frame``)
    kind = _view(s.kind)
    need(not len(kind) or (kind.min() >= CROSS and kind.max() <= LEAF), "side code unknown")
    f = _frame(s)
    need(f.known.all(), "side code unknown")
    # Every link lands in the child node its side names, later in preorder,
    # so every walk ends.
    _rebase(s, f, need)

    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    dsr, length = _view(s.dsr), _view(s.dep_len)
    starts = np.zeros(entries + 1, dtype=bool)
    starts[dep_off] = True
    breaks = (dsr[1:] <= dsr[:-1]) | (length[1:] >= length[:-1])
    need(not (breaks & ~starts[1:-1]).any(), "departing segment not doubly monotone")
