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
and files hold. Every array but the child links is final once its level is
appended; the links hold child-relative ids until ``close_store`` adds the
child's base to each.

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
from typing import TYPE_CHECKING, Iterable

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
    # per node, read by the check only; the bases carry one extra entry, the total
    ("vbase", "i"),
    ("ebase", "i"),
    ("left", "i"),
    ("right", "i"),
    # per vertex slot: left and right child slots, two a slot (-1: none; built
    # as child vertex ids); 1 on the separator; distance from it; departing
    # segment start (plus the end)
    ("vlink", "i"),
    ("vsep", "b"),
    ("dist_r", "q"),
    ("dep_off", "i"),
    # departing candidates, each segment by rising departure position (an sr index)
    ("dep_len", "q"),
    ("dsr", "i"),
    # per edge slot: side code or LEAF; the child edge slot on that side (built
    # as a child edge id; a leaf row's offset less the leaf's vbase; CROSS: -1);
    # PRIMARY's sr index, else -1
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

    Every array is final but the child links, which hold ids within the
    child: both halves of ``vlink`` and ``elink`` at PRIMARY, LEFT and RIGHT
    slots. A path position goes in as its index into ``sr``, and a leaf
    row as its offset less the leaf's ``vbase``."""
    i = len(s.left)
    nv, ne = g.n, _original_count(g)
    vbase, sr_start = len(s.vsep), len(s.sr)
    s.meta[3] = max(s.meta[3], depth)
    s.left.append(i + 1 if maps else -1)
    s.right.append(-1)
    vlink, sep = _NONE * (2 * nv), array("b", [0]) * nv
    kind, link, at = array("b", [CROSS]) * ne, _NONE * ne, _NONE * ne
    for eid, row in rows:
        kind[eid] = LEAF
        link[eid] = len(s.rows) - vbase
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
            at[eid] = sr_start + p
    if maps:
        sep[r] = 1
    s.vlink.extend(vlink)
    s.vsep.extend(sep)
    s.kind.extend(kind)
    s.elink.extend(link)
    s.esr.extend(at)
    if tables is None:
        s.dist_r.extend(array("q", [INF]) * nv)
        s.dep_off.extend(array("i", [len(s.dep_len)]) * nv)
    else:
        dist_r, sr, dep = tables
        s.dist_r.extend(dist_r)
        s.sr.extend(sr)
        s.dep_off.frombytes((dep.offsets[1:] + len(s.dep_len)).tobytes())
        s.dep_len.frombytes(dep.lengths.tobytes())
        s.dsr.frombytes((dep.dp_depths + sr_start).tobytes())
    s.vbase.append(len(s.vsep))
    s.ebase.append(len(s.kind))
    return i


def close_store(s: QueryStore) -> None:
    """Finish the store the build appended to, in place: add to each child
    link the base of the child its side names, ``vbase`` to a vertex slot's
    two links and ``ebase`` to a PRIMARY, LEFT or RIGHT edge slot's, and
    put the node count and departing entries in ``meta``."""
    s.meta[2] = len(s.left)
    s.meta[4] = len(s.dep_len)
    left, right, vbase, ebase, kind, vlink, elink = map(
        _view, (s.left, s.right, s.vbase, s.ebase, s.kind, s.vlink, s.elink))
    # per-node bases spread over the node's slots; a leaf's -1 children read
    # the bases' totals, which the masks then drop
    nv, ne = np.diff(vbase), np.diff(ebase)
    for side, child in enumerate((left, right)):
        links = vlink[side::2]
        links += np.where(links >= 0, np.repeat(vbase[child], nv), 0)
    linked = (kind != CROSS) & (kind != LEAF)
    base = np.where(kind == RIGHT, np.repeat(ebase[right], ne), np.repeat(ebase[left], ne))
    elink[linked] += base[linked]


def _view(a: array) -> np.ndarray:
    """A zero-copy numpy view of one store array."""
    return np.frombuffer(a, dtype=a.typecode)


# The arrays a subtree appends to: all from vbase on. The ones before it,
# meta and the input graph's source tree and edge keys, are the whole store's.
SEGMENT = tuple(name for name, _ in TABLE[TABLE.index(("vbase", "i")):])


def open_segment() -> QueryStore:
    """An empty store for a subtree built apart from the store it joins: its
    node ids, bases, offsets and ``sr`` indexes start at 0, and
    ``splice_segment`` shifts them to where the subtree lands."""
    s = QueryStore()
    s.meta = array("q", [0] * 5)
    for offsets in (s.vbase, s.ebase, s.dep_off):
        offsets.append(0)
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
    offset array's less its leading 0, and only the absolute fields are
    shifted, in place, by what ``s`` held before: child node ids by its node
    count; ``vbase``, ``ebase`` and ``dep_off`` by its vertex slots, edge
    slots and departing entries; the ``sr`` indexes, all of ``dsr`` and
    ``esr`` at PRIMARY slots, by its ``sr`` length; and the leaf links by
    its rows less its vertex slots. The child links are relative to their
    child and stay as they are. The depth is the deeper of the two."""
    nodes, vslots, eslots, entries = len(s.left), len(s.vsep), len(s.kind), len(s.dsr)
    rows, srs = len(s.rows), len(s.sr)
    shift = {"vbase": vslots, "ebase": eslots, "dep_off": entries}
    start = {name: len(getattr(s, name)) for name in shift}
    s.meta[3] = max(s.meta[3], array("q", _receive(fd, 8))[0])
    for name in SEGMENT:
        data = _receive(fd, array("q", _receive(fd, 8))[0])
        getattr(s, name).frombytes(memoryview(data)[4:] if name in shift else data)
    for name, by in shift.items():
        _view(getattr(s, name))[start[name]:] += by
    for ids in (_view(s.left)[nodes:], _view(s.right)[nodes:]):
        ids[ids >= 0] += nodes
    kind = _view(s.kind)[eslots:]
    _view(s.elink)[eslots:][kind == LEAF] += rows - vslots
    _view(s.esr)[eslots:][kind == PRIMARY] += srs
    _view(s.dsr)[entries:] += srs


def check(s: QueryStore) -> None:
    """Raise ValueError unless the arrays form a store that every query can
    walk without leaving an array: consistent lengths, child nodes after
    their parent in preorder, every link inside the child node its side
    names (so every walk ends), leaf rows and ``sr`` indexes inside their
    arrays, doubly monotone departing segments, distances in [0, INF].

    Every check is whole-array numpy work, about the cost of a copy; no
    value indexes an array before an earlier check has bounded it."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"inconsistent oracle store: {what}")

    need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    for name in ("vbase", "ebase"):
        base = _view(getattr(s, name))
        need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        need(not (base[1:] < base[:-1]).any(), f"{name} decreases")
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
    need(not (dep_off[1:] < dep_off[:-1]).any(), "dep_off decreases")
    need(dep_off[-1] == len(s.dep_len) == len(s.dsr) == entries,
         "dep_off does not end at the departing entries")
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
    vbase, ebase = _view(s.vbase), _view(s.ebase)
    nv, ne = np.diff(vbase), np.diff(ebase)
    ids = np.arange(nodes)
    leaf = left < 0
    marked = np.zeros(slots + 1, dtype=np.int32)
    np.cumsum(vsep, out=marked[1:])
    marks = np.diff(marked[vbase])
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

    # Every link lands in the child node its side names, later in preorder,
    # so every walk ends. A leaf's -1 children read the bases' last and
    # first entries, an empty range; its edge slots are LEAF or CROSS.
    kind = _view(s.kind)
    known = np.where(np.repeat(leaf, ne), (kind == CROSS) | (kind == LEAF), kind <= RIGHT)
    need((known & (kind >= CROSS)).all(), "side code unknown")
    kids = np.stack([left, right], axis=1)
    vlink = _view(s.vlink).reshape(-1, 2)
    ok = np.repeat(vbase[kids], nv, axis=0) <= vlink
    ok &= vlink < np.repeat(vbase[kids + 1], nv, axis=0)
    need((ok | (vlink == -1)).all(), "child vertex slot out of range")
    elink, far = _view(s.elink), kind == RIGHT
    ok = np.where(far, np.repeat(ebase[right], ne), np.repeat(ebase[left], ne)) <= elink
    ok &= elink < np.where(far, np.repeat(ebase[right + 1], ne), np.repeat(ebase[left + 1], ne))
    ok[kind == CROSS] = elink[kind == CROSS] == -1
    # a leaf row, at the link plus a vertex slot, stays inside rows
    at = np.flatnonzero(kind == LEAF)
    own = np.searchsorted(ebase, at, side="right") - 1
    row = elink[at] + vbase[own].astype(np.int64)
    ok[at] = (row >= 0) & (row + nv[own] <= len(s.rows))
    need(ok.all(), "child edge id or leaf row out of range")
    esr = _view(s.esr)
    need(np.where(kind == PRIMARY, (esr >= 0) & (esr < len(s.sr)), esr == -1).all(),
         "path position out of range")

    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    dsr, length = _view(s.dsr), _view(s.dep_len)
    starts = np.zeros(entries + 1, dtype=bool)
    starts[dep_off] = True
    breaks = (dsr[1:] <= dsr[:-1]) | (length[1:] >= length[:-1])
    need(not (breaks & ~starts[1:-1]).any(), "departing segment not doubly monotone")
