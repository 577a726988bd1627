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

The build appends the arrays of ``FILE``, the form a file holds (format
SDO13), each value local to its node so that it fits a few bits:
``vbase``, ``ebase``, ``sbase`` (each node's first ``sr`` entry) and
``dep_off`` as a leading 0 and then one count per node or slot; a path
position (``esr``, ``dsr``) as a position on the node's path. No node id
is held, so a subtree's arrays can be appended anywhere as they are. The
build appends each split as two bits per vertex slot (``vside``: in side
M, in side N); a node with a vertex on both, the separator, is internal,
which gives the tree (``_shape``). Each edge slot gets its side code, a
leaf's LEAF slot PRIMARY's, as no leaf holds a PRIMARY slot, so the codes
fit two bits. As grafting keeps the parent's order, every link is a rank:

- a vertex's id in a child is its rank among its node's vertices on that
  side; the separator has an id on both;
- a child edge id is the slot's rank among its node's PRIMARY and LEFT
  slots (side M) or its RIGHT slots (side N); CROSS links nowhere (-1);
- a leaf's row offset is the slot's rank among its leaf's LEAF slots, times
  the leaf's vertex count.

``dist_r`` and ``dep_off`` are held only at tabled nodes (an ``sbase``
count above 0), and ``esr`` only at PRIMARY slots; everywhere else a query
never reads them, and they hold INF, 0 and -1. ``check_and_rebase`` turns
these arrays into the store queries walk, the arrays of ``TABLE``, for a
finished build and a loaded file alike: it sums the counts into offsets,
derives the tree, turns a leaf's PRIMARY codes into LEAF, checks that each
node's side counts equal its children's vertex and edge counts (so every
derived link lands inside its child) and bounds each path position, then
derives the links and rebases every local value to its slot, row or ``sr``
index. ``file_arrays`` is the inverse.

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
# leaf's slot is LEAF where the leaf holds a row for it, else CROSS; the
# build appends, and a file holds, LEAF as PRIMARY.
CROSS, PRIMARY, LEFT, RIGHT, LEAF = 0, 1, 2, 3, 4

# (name, typecode) of every array of a query store, in the order ``arrays``
# lists them. Distances are "q" (they reach INF); ids, offsets and positions
# are "i".
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
    # per node, read by the check and by file_arrays, not by queries: its
    # first vertex slot, edge slot and sr entry, each with one extra entry,
    # the total (a file: counts)
    ("vbase", "i"),
    ("ebase", "i"),
    ("sbase", "i"),
    # per vertex slot: left and right child slots, two a slot (-1: none; the
    # separator has both); distance from the separator (INF: none);
    # departing segment start (plus the end; a file: counts)
    ("vlink", "i"),
    ("dist_r", "q"),
    ("dep_off", "i"),
    # departing candidates, each segment by rising departure position (an sr
    # index; a file: the node's path position)
    ("dep_len", "q"),
    ("dsr", "i"),
    # per edge slot: side code or LEAF; the child edge slot on that side, or
    # a leaf row's offset less the leaf's vbase, CROSS: -1; PRIMARY's sr
    # index (a file: the path position), else -1
    ("kind", "b"),
    ("elink", "i"),
    ("esr", "i"),
    # source -> separator replacement lengths by path position; leaf rows
    ("sr", "q"),
    ("rows", "q"),
)

# (name, typecode) of every array a file holds, in file order: the arrays
# the build appends, which ``check_and_rebase`` turns into ``TABLE``'s.
FILE = (
    *TABLE[: TABLE.index(("vlink", "i"))],
    # per vertex slot: 1 if its vertex is in side M, then 1 if in side N
    ("vside", "b"),
    # per vertex slot of a tabled node only
    ("dist_r", "q"),
    ("dep_off", "i"),
    ("dep_len", "q"),
    ("dsr", "i"),
    # a leaf's LEAF slots as PRIMARY
    ("kind", "b"),
    # per PRIMARY edge slot only
    ("esr", "i"),
    ("sr", "q"),
    ("rows", "q"),
)


class QueryStore:
    """Every table a query reads, one ``array`` per entry of ``TABLE``, and
    ``vside``, which only the arrays a build appends and a file holds use;
    all empty at first."""

    __slots__ = tuple(dict.fromkeys(name for name, _ in TABLE + FILE))

    def __init__(self):
        for name, code in TABLE + FILE:
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


def append_node(
    s: QueryStore,
    g: Graph,
    depth: int,
    rows: Iterable[tuple[int, list[int]]] = (),
    path_edges: Iterable[int] = (),
    sides: tuple[tuple[list[bool], Iterable[int]], ...] = (),
    tables: tuple[list[int], list[int], DepTable] | None = None,
) -> None:
    """Append the next node in preorder, on graph ``g``.

    A leaf gives ``rows``: the source distances avoiding each original edge
    a fault can reach, by rising edge id. An internal node gives its
    primary path and split: side M (the source side, holding the path),
    then side N, each as whether each of ``g``'s vertices is in it and
    ``g``'s edge ids in it, in ``g``'s order. The separator is in both
    sides, and an edge in neither crosses the split. Its left child's
    subtree is appended next, then its right child's. ``tables`` holds the
    distances from the separator, the replacement lengths along the path
    and the departing table, or None when no input edge lies on the path.
    Distances are store integers, ``INF`` for none, and go in as they are.

    Every value goes in as a file holds it (``FILE``): the offsets as the
    node's vertex, edge and ``sr`` counts and, at a tabled node, each
    vertex slot's departing count; each side as one bit per vertex slot and
    each edge slot's side code, from which ``check_and_rebase`` derives the
    links; a path position, in ``esr`` (at PRIMARY slots) and ``dsr``, as
    it is."""
    nv, ne = g.n, _original_count(g)
    s.meta[3] = max(s.meta[3], depth)
    vside, kind = array("b", bytes(2 * nv)), array("b", bytes(ne))
    for eid, row in rows:
        kind[eid] = PRIMARY  # LEAF, as a leaf holds no PRIMARY slot
        s.rows.extend(row)
    for side, (code, (inside, eids)) in enumerate(zip((LEFT, RIGHT), sides)):
        vside[side::2] = array("b", inside)
        for eid in eids:
            if eid >= ne:  # the shortcuts, which follow the original edges
                break
            kind[eid] = code
    # shortcuts follow the original edges, so a path edge below ne can fail
    primary = sorted((eid, p) for p, eid in enumerate(path_edges) if eid < ne)
    for eid, _ in primary:
        kind[eid] = PRIMARY
    s.vside.extend(vside)
    s.kind.extend(kind)
    s.esr.extend(p for _, p in primary)
    if tables is None:
        s.sbase.append(0)
    else:
        dist_r, sr, dep = tables
        s.dist_r.extend(dist_r)
        s.sr.extend(sr)
        s.sbase.append(len(sr))
        s.dep_off.frombytes(dep.counts.tobytes())
        s.dep_len.frombytes(dep.lengths.tobytes())
        s.dsr.frombytes(dep.dp_depths.tobytes())
    s.vbase.append(nv)
    s.ebase.append(ne)


# The offset arrays: the first vertex slot, edge slot and sr entry of each
# node, and the first departing entry of each vertex slot, each with one
# extra entry, the total. The build appends, and a file holds, each as its
# leading 0 and then one count per node or slot (for ``dep_off``, per slot
# of a tabled node).
OFFSETS = ("vbase", "ebase", "sbase", "dep_off")


def _counts(v: np.ndarray) -> np.ndarray:
    """The offsets ``v`` as a file holds them: the first entry, then the
    difference of each entry from the one before, in int32 arithmetic that
    wraps, so a cumulative int32 sum gives back every int32 array exactly."""
    c = np.empty_like(v)
    c[:1] = v[:1]
    np.subtract(v[1:], v[:-1], out=c[1:])
    return c


def file_arrays(s: QueryStore) -> list[tuple[str, np.ndarray]]:
    """The arrays of ``s``, a store as ``check_and_rebase`` leaves it, as a
    file holds them, in ``FILE`` order: the inverse of the check's sums,
    derivations and rebase. The offsets become counts, ``dep_off``'s at
    tabled nodes only; the links give way to ``vside``, which marks each
    vertex link that is not -1; a LEAF code becomes PRIMARY's; ``dist_r``
    keeps the slots of tabled nodes and ``esr`` the PRIMARY slots; each
    path position loses its node's ``sbase``. ``s`` is not changed. A
    value changed in ``s`` after its check reaches the file where the file
    holds it, so a load rejects it as it would the file, with one
    exception: a LEAF code is saved as PRIMARY's wherever it stands, so a
    LEAF written at an internal node's slot reaches the file as PRIMARY."""
    v = {name: _view(getattr(s, name)) for name, _ in TABLE}
    vbase, ebase, sbase, dep_off = (v[name] for name in OFFSETS)
    tabled = np.repeat(sbase[1:] > sbase[:-1], np.diff(vbase))
    primary = np.flatnonzero(v["kind"] == PRIMARY)
    dep_counts = _counts(dep_off)
    # LEAF takes PRIMARY's code, by arithmetic: a select branches per slot
    v["kind"] = v["kind"] - (v["kind"] == LEAF) * np.int8(LEAF - PRIMARY)
    v.update(
        vbase=_counts(vbase),
        ebase=_counts(ebase),
        sbase=_counts(sbase),
        vside=(v["vlink"] >= 0).view(np.int8),
        dist_r=v["dist_r"][tabled],
        dep_off=np.concatenate((dep_counts[:1], dep_counts[1:][tabled])),
        esr=v["esr"][primary] - sbase[np.searchsorted(ebase, primary, "right") - 1],
        dsr=v["dsr"] - np.repeat(sbase[:-1], dep_off[vbase[1:]] - dep_off[vbase[:-1]]),
    )
    return [(name, v[name]) for name, _ in FILE]


def _view(a: array) -> np.ndarray:
    """A zero-copy numpy view of one store array."""
    return np.frombuffer(a, dtype=a.typecode)


# The arrays a subtree appends to: all from vbase on. The ones before it,
# meta and the input graph's source tree and edge keys, are the whole store's.
SEGMENT = tuple(name for name, _ in FILE[FILE.index(("vbase", "i")):])


def open_segment() -> QueryStore:
    """An empty store for a subtree built apart from the store it joins,
    which ``splice_segment`` appends as it is. Each offset array holds its
    leading 0."""
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
    offset array's less its leading 0: every value is local to its node, so
    nothing is shifted. The depth is the deeper of the two."""
    s.meta[3] = max(s.meta[3], array("q", _receive(fd, 8))[0])
    for name in SEGMENT:
        data = _receive(fd, array("q", _receive(fd, 8))[0])
        getattr(s, name).frombytes(memoryview(data)[4:] if name in OFFSETS else data)


def _steps(run: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, what the running count ``run`` adds over the node's slots
    ``base[i]:base[i + 1]``, and what it holds before them."""
    until = np.zeros(len(base) - 1, dtype=np.int64)
    held = base[1:] > 0
    until[held] = run[base[1:][held] - 1]
    before = np.concatenate(([0], until[:-1]))
    return until - before, before


def _start_at(x: np.ndarray, starts: np.ndarray, k: np.ndarray) -> None:
    """Make a running sum of ``x`` add ``k[j]`` from ``starts[j]`` on, for
    rising ``starts``: add each ``k``'s step from the one before at its
    start, in int32 arithmetic that wraps like the sum."""
    step = np.array(k, dtype=np.int64)
    step[1:] -= k[:-1]
    x[starts] += step.astype(np.int32)


# Per side code, as a bit mask by code: the slots that count on side M
# (with the leaves' rows), and those that count on side N.
_ON_M = 1 << PRIMARY | 1 << LEFT | 1 << LEAF
_ON_N = 1 << RIGHT


def _on(mask: int, kind: np.ndarray, out: np.ndarray) -> None:
    """``out``: 1 at each slot whose side code ``kind`` is in ``mask``."""
    np.right_shift(np.int32(mask), kind, out=out)
    np.bitwise_and(out, 1, out=out)


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"inconsistent oracle store: {what}")


def _links(s: QueryStore, side: np.ndarray, kids: np.ndarray) -> None:
    """Check each node's side counts against its children ``kids`` (from
    ``_shape``) and derive the child links, ``vlink`` and ``elink``, from
    ``side``, the vertex slots' two bits, and ``kind``: every link is a
    running count of its side's slots, started at each node at its child's
    first slot (at a leaf, at its first row less its first vertex slot,
    where a LEAF slot weighs the leaf's vertex count), so the checked
    counts keep each link inside its child. Side N's edges take a run of
    their own, and CROSS links -1, as does a vertex slot off the side."""
    vbase, ebase, kind = map(_view, (s.vbase, s.ebase, s.kind))
    nodes, leaf = len(kids), kids[:, 0] < 0
    left, right = kids.T
    nv, ne = np.diff(vbase), np.diff(ebase)
    holds, edge_holds = np.flatnonzero(nv), np.flatnonzero(ne)
    # Per node, its members of each side and its edge slots of each side
    # code: the steps of running counts over its slots. Side M's edges are
    # PRIMARY and LEFT, side N's RIGHT; a leaf's slots are LEAF or CROSS, an
    # internal node's any other.
    s.vlink = array("i", [0]) * (2 * len(side))
    vlink = _view(s.vlink).reshape(-1, 2)
    vlink[:] = side
    np.cumsum(vlink, axis=0, dtype=np.int32, out=vlink)
    vertex_steps = [_steps(vlink[:, c], vbase) for c in (0, 1)]
    at_leaf = np.flatnonzero(kind == LEAF)
    leaf_of = np.searchsorted(ebase, at_leaf, "right") - 1
    on_leaf = np.bincount(leaf_of, minlength=nodes)
    s.elink = array("i", [0]) * len(kind)
    elink = _view(s.elink)
    right_link = np.empty(len(kind), dtype=np.int32)
    _on(_ON_M, kind, elink)
    np.cumsum(elink, dtype=np.int32, out=elink)
    on_m = _steps(elink, ebase)[0] - on_leaf
    _on(_ON_N, kind, right_link)
    np.cumsum(right_link, dtype=np.int32, out=right_link)
    on_n, n_before = _steps(right_link, ebase)
    # each side's vertices and original edges are its child's, in order:
    # side N's child adds its hub; a -1 child (a leaf's) reads a count of 0
    child_nv, child_ne = np.concatenate(([0], nv))[kids + 1], np.concatenate(([0], ne))[kids + 1]
    child_nv[:, 1] -= ~leaf
    members = np.stack([count for count, _ in vertex_steps], axis=1)
    sides = np.stack([on_m, on_n], axis=1)
    for what, have, want in (
        ("child vertex slot out of range", members, child_nv),
        ("child edge id or leaf row out of range", sides, child_ne),
    ):
        bad = np.flatnonzero((have != want).any(axis=1))
        if len(bad):
            i = int(bad[0])
            c = int(have[i, 0] == want[i, 0])
            _need(False, f"{what}: node {i} side {'MN'[c]} holds {have[i, c]}, its child {want[i, c]}")
    rows = on_leaf * nv
    _need(rows.sum() == len(s.rows), "child edge id or leaf row out of range: "
          f"the LEAF slots take {rows.sum()} rows, rows holds {len(s.rows)}")

    # the links: each run again, started at every node
    _on(_ON_M, kind, elink)
    elink[at_leaf] = nv[leaf_of]
    weight = on_m + rows
    first = np.where(leaf, np.cumsum(rows) - rows - vbase[:-1] - nv, ebase[left] - 1)
    _start_at(elink, ebase[edge_holds], (first - (np.cumsum(weight) - weight))[edge_holds])
    np.cumsum(elink, dtype=np.int32, out=elink)
    _on(_ON_N, kind, right_link)
    on_right = right_link.astype(bool)
    _start_at(right_link, ebase[edge_holds], (ebase[right] - 1 - n_before)[edge_holds])
    np.cumsum(right_link, dtype=np.int32, out=right_link)
    right_link -= elink
    right_link *= on_right
    elink += right_link
    cross = kind == CROSS
    elink *= ~cross
    elink -= cross
    vlink[:] = side
    for c, (_, before) in enumerate(vertex_steps):
        _start_at(vlink[:, c], vbase[holds], (vbase[kids[:, c]] - 1 - before)[holds])
    np.cumsum(vlink, axis=0, dtype=np.int32, out=vlink)
    np.multiply(vlink, side, out=vlink)
    np.add(vlink, side, out=vlink)
    np.subtract(vlink, 1, out=vlink)


def _shape(s: QueryStore, side: np.ndarray) -> np.ndarray:
    """Derive the recursion tree of ``s`` from ``side``, the vertex slots'
    two bits, and check it for ``check_and_rebase``. In preorder, a node
    with a separator slot (on both sides) is internal, its left child the
    next node, and a node with none a leaf. The subtrees still to come
    number 1 before the root, one more after an internal node and one fewer
    after a leaf; the nodes form one tree when that count is at least 1
    before every node and 0 after the last, and an internal node's right
    child is the next node with its count before it. Returns each node's
    left and right child, -1 at a leaf."""
    nodes, depth = s.meta[2], s.meta[3]
    # a slot's two bits, read as one int16, are 0x0101 on both sides
    separators = np.flatnonzero(side.view(np.int16) == 0x0101)
    marks = np.bincount(np.searchsorted(_view(s.vbase), separators, "right") - 1, minlength=nodes)
    leaf = marks == 0
    open_after = 1 + np.cumsum(np.where(leaf, -1, 1))
    before = np.concatenate(([1], open_after[:-1]))
    # the node checks name the first node that fails one
    bad = np.flatnonzero((before < 1) | (marks > 1))
    if len(bad):
        i = int(bad[0])
        _need(before[i] >= 1, f"node {i} follows the end of the tree")
        _need(False, f"node {i} separator marks {marks[i]} slots")
    _need(open_after[-1] == 0, f"the tree leaves {open_after[-1]} subtrees open after its last node, {nodes - 1}")
    # the node before each node with the same count before it; a stable
    # sort of small counts is a radix sort
    order = np.argsort(before.astype(np.min_scalar_type(before.max())), kind="stable")
    same = np.empty(nodes, dtype=np.int64)
    same[order[1:]] = order[:-1]
    # a node's parent is the node before it, or after a leaf, that node
    ids = np.arange(nodes)
    parent, rights = ids - 1, np.flatnonzero(leaf[:-1]) + 1
    parent[rights] = same[rights]
    kids = np.full((nodes, 2), -1, dtype=np.int64)
    kids[~leaf, 0] = ids[~leaf] + 1
    kids[parent[rights], 1] = rights
    # a node is one deeper than its parent; pointer doubling sums the hops
    # to the root, which hops to itself, in log(depth) rounds
    parent[0] = 0
    hop, node_depth = parent, np.minimum(ids, 1)
    while hop.any():
        node_depth += node_depth[hop]
        hop = hop[hop]
    _need(node_depth.max() == depth, "meta depth differs from the tree")
    return kids


def check_and_rebase(s: QueryStore) -> None:
    """Turn ``s``, the arrays of ``FILE`` as a build appends them and a file
    holds them, into the store queries walk, the arrays of ``TABLE``, in
    place, or raise ValueError unless they form a store that every query
    can walk without leaving an array: consistent lengths and counts, at
    most one separator slot per node, marks that give one tree in preorder
    (``_shape``), side codes that fit their node (a leaf's CROSS or, as
    PRIMARY's code, LEAF), side counts equal to the vertex and edge counts
    of the children the tree gives (so every link derived from them lands
    in that child, later in preorder, and every walk ends), one leaf row
    per LEAF slot and leaf vertex, path positions inside their node's
    path, doubly monotone departing segments, distances in [0, INF]. A
    build's store passes it as a loaded file's does, so no oracle is handed
    out before the check.

    The counts are summed into offsets first, which index nothing, and the
    offsets are checked as the store's. The side counts and path positions
    are bounded before the links are derived and the positions rebased.
    Each link is a running count of its side's slots, started at each node
    at its child's first slot, so the checked counts bound it. Every check
    is whole-array numpy work, about the cost of a copy; no value indexes
    an array before an earlier check has bounded it."""

    _need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    _need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        _need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    for name in ("vbase", "ebase", "sbase"):
        base = _view(getattr(s, name))
        np.cumsum(base, dtype=np.int32, out=base)
        _need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        _need(not (base[1:] < base[:-1]).any(), f"{name} decreases: a count is negative or passes int32")
    _need(s.vbase[1] == n, "the root does not hold the input vertices")
    vbase, ebase, sbase, kind = map(_view, (s.vbase, s.ebase, s.sbase, s.kind))
    nv, ne, ns = np.diff(vbase), np.diff(ebase), np.diff(sbase)
    slots, edge_slots = int(vbase[-1]), int(ebase[-1])
    # the vertex slots of tabled nodes, those with sr entries
    tabled = np.repeat(ns > 0, nv)
    held = np.count_nonzero(tabled)
    _need(len(s.vside) == 2 * slots, "vside does not hold two entries per vertex slot")
    _need(len(kind) == edge_slots, "kind does not hold one entry per edge slot")
    _need(len(s.dist_r) == held, "dist_r does not hold one entry per tabled slot")
    counts = _view(s.dep_off)
    _need(len(counts) == held + 1 and counts[0] == 0, "dep_off length")
    s.dep_off = array("i", [0]) * (slots + 1)
    dep_off = _view(s.dep_off)
    dep_off[1:][tabled] = counts[1:]
    np.cumsum(dep_off, dtype=np.int32, out=dep_off)
    _need(not (dep_off[1:] < dep_off[:-1]).any(), "dep_off decreases: a count is negative or passes int32")
    _need(dep_off[-1] == len(s.dep_len) == len(s.dsr) == entries,
          "dep_off does not end at the departing entries")
    _need(sbase[-1] == len(s.sr), "sbase does not end at the sr entries")
    # each node's departures by their greatest, at most its sr count (a route
    # may depart at the separator, the path's last vertex), then rebased
    dsr = _view(s.dsr)
    node_entries = dep_off[vbase[1:]] - dep_off[vbase[:-1]]
    departs = np.flatnonzero(node_entries)
    if len(dsr):
        most = np.maximum.reduceat(dsr, dep_off[vbase[departs]])
        _need(dsr.min() >= 0 and (most <= ns[departs]).all(), "departure position out of range")
    dsr += np.repeat(sbase[:-1], node_entries)
    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    length = _view(s.dep_len)
    starts = np.zeros(entries + 1, dtype=bool)
    starts[dep_off] = True
    breaks = (dsr[1:] <= dsr[:-1]) | (length[1:] >= length[:-1])
    _need(not (breaks & ~starts[1:-1]).any(), "departing segment not doubly monotone")
    del starts, breaks
    for name in ("dist", "dist_r", "sr", "rows", "dep_len"):
        d = _view(getattr(s, name))
        _need(not len(d) or (d.min() >= 0 and d.max() <= INF),
              f"{name} holds a distance outside [0, INF]")
    keys = _view(s.edge_keys)
    _need(not (keys[1:] <= keys[:-1]).any(), "edge_keys not sorted")
    _need(not len(keys) or (keys[0] >= 0 and keys[-1] < n * n), "edge key out of range")

    parent, parent_edge, dist, tin = map(_view, (s.parent, s.parent_edge, s.dist, s.tin))
    _need(parent[source] == -1 and dist[source] == 0, "source has a parent")
    _need(parent.min() >= -1 and parent.max() < n, "parent out of range")
    _need(((parent < 0) == (parent_edge < 0)).all(), "parent and parent edge disagree")
    _need(parent_edge.max() < ebase[1], "parent edge out of range")
    # every reached vertex hangs below a reached vertex with a smaller
    # preorder number, so climbing the tree ends at the source
    v = np.flatnonzero((dist < INF) & (np.arange(n) != source))
    p = parent[v]
    up = np.maximum(p, 0)
    _need(not ((p < 0) | (dist[up] >= INF) | (tin[up] >= tin[v])).any(), "source tree is not a tree")

    side = _view(s.vside).reshape(-1, 2)
    _need(not (side.view(np.uint8) > 1).any(), "vside is not 0 or 1")
    kids = _shape(s, side)
    # a leaf's slot is CROSS or, coded as PRIMARY, LEAF; an internal node's
    # any code up to RIGHT
    leaf_slot = np.repeat(kids[:, 0] < 0, ne)
    _need(not len(kind) or (kind.min() >= CROSS and kind.max() <= RIGHT
                            and kind.max(where=leaf_slot, initial=CROSS) <= PRIMARY), "side code unknown")
    kind[leaf_slot & (kind == PRIMARY)] = LEAF
    del leaf_slot
    primary = np.flatnonzero(kind == PRIMARY)
    _need(len(s.esr) == len(primary), "esr does not hold one entry per PRIMARY slot")
    # the path positions, by their node's sr count
    owner = np.searchsorted(ebase, primary, "right") - 1
    esr = _view(s.esr)
    _need((esr.view(np.uint32) < ns[owner]).all(), "path position out of range")
    _links(s, side, kids)
    # the values held only where queries read them, at their slots
    s.esr = array("i", [-1]) * edge_slots
    _view(s.esr)[primary] = esr + sbase[owner]
    dist_r = _view(s.dist_r)
    s.dist_r = array("q", [INF]) * slots
    _view(s.dist_r)[tabled] = dist_r
    s.vside = array("b")
