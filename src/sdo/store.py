"""The query store: the oracle as flat integer arrays.

Each array concatenates one table kind over all recursion nodes, numbered in
preorder with the root at 0; the build appends each level's rows before its
children's. A node owns the vertex slots ``vbase[i]:vbase[i + 1]`` and the
edge slots ``ebase[i]:ebase[i + 1]``, one per vertex and per original edge
of its graph. Every node graph numbers its original edges first (the root
holds only input edges, grafting keeps the parent's order and appends
shortcuts), so slot ``ebase[i] + eid`` belongs to edge ``eid``; shortcuts
are never faults and get no slot. Queries, on built and loaded oracles
alike, read only these arrays.

Distances are integers up to ``INF = 2**62``, which stands for UNREACHABLE:
a candidate sum at or above INF never wins, and the API turns INF back into
UNREACHABLE.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, ge, le, lt, sub
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .graphs import UNREACHABLE

if TYPE_CHECKING:
    from .departing import DepTable
    from .graphs import Distance, Graph
    from .spt import ShortestPathTree

INF = 2**62

# Side codes of an edge slot at an internal node: where the fault lies.
CROSS, PRIMARY, LEFT, RIGHT = 0, 1, 2, 3

# (name, typecode) of every array, in file order. Distances are "q" (they
# reach INF); ids, offsets and positions are "i".
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
    # per node; the three bases carry one extra entry, the total
    ("vbase", "i"),
    ("ebase", "i"),
    ("left", "i"),
    ("right", "i"),
    ("sep", "i"),
    ("srbase", "i"),
    # per vertex slot: child vertex ids (-1 when absent), distance from the
    # separator, departing segment start (plus one final offset)
    ("lchild", "i"),
    ("rchild", "i"),
    ("dist_r", "q"),
    ("dep_off", "i"),
    # departing candidates, each segment by rising departure position
    ("dep_len", "q"),
    ("dep_dpi", "i"),
    # per edge slot: side code, child edge id (at a leaf: row offset, or -1),
    # primary path position (-1 off the path)
    ("eside", "b"),
    ("echild", "i"),
    ("epos", "i"),
    # source -> separator replacement lengths by path position; leaf rows
    ("sr", "q"),
    ("rows", "q"),
)

class QueryStore:
    """Every table a query reads, one ``array`` per entry of ``TABLE``."""

    __slots__ = tuple(name for name, _ in TABLE)

    def __init__(self):
        for name, code in TABLE:
            setattr(self, name, array(code))

    def arrays(self) -> list[tuple[str, array]]:
        return [(name, getattr(self, name)) for name, _ in TABLE]


def _ints(values: list[Distance]) -> list[int]:
    return [INF if d is UNREACHABLE else d for d in values]


def _original_count(g: Graph) -> int:
    """Edges before the first shortcut: the original edges, which can fail."""
    for eid, e in enumerate(g.edges):
        if e.virtual:
            return eid
    return g.m


def open_store(spt: ShortestPathTree) -> QueryStore:
    """A store holding the source-tree arrays of the oracle built on
    ``spt.graph`` from ``spt.source``, ready for ``append_node``."""
    s = QueryStore()
    g = spt.graph
    n = g.n
    s.parent = array("i", [-1 if p is None else p for p in spt.parent])
    s.parent_edge = array("i", [-1 if e is None else e for e in spt.parent_edge])
    s.dist = array("q", _ints(spt.dist))
    s.tin = array("i", spt._tin)
    s.size = array("i", spt._size)
    s.edge_keys = array("q", sorted({min(e.u, e.v) * n + max(e.u, e.v) for e in g.edges}))
    s.meta = array("q", [n, spt.source, 0, 0, 0])
    s.dep_off.append(0)
    return s


_NONE = array("i", [-1])


def append_node(
    s: QueryStore,
    g: Graph,
    depth: int,
    rows: Iterable[tuple[int, list[Distance]]] = (),
    r: int = -1,
    path_edges: Iterable[int] = (),
    maps: tuple[tuple[dict[int, int], dict[int, int]], ...] = (),
    tables: tuple[list[Distance], list[Distance], DepTable] | None = None,
) -> int:
    """Append the next node in preorder, on graph ``g``; returns its id.

    A leaf gives ``rows``: the source distances avoiding each original edge
    a fault can reach. An internal node gives its separator ``r``, primary
    path and split: the vertex and edge maps of side M (the source side,
    holding the path), then of side N; the separator is in both, and an
    edge in neither crosses the split. Its left child is appended next; the
    caller sets ``right``. ``tables`` holds the distances from ``r``, the
    replacement lengths along the path and the departing table, or None
    when no input edge lies on the path."""
    i = len(s.left)
    nv, ne = g.n, _original_count(g)
    s.vbase.append(len(s.lchild))
    s.ebase.append(len(s.eside))
    s.srbase.append(len(s.sr))
    s.meta[3] = max(s.meta[3], depth)
    s.left.append(i + 1 if maps else -1)
    s.right.append(-1)
    s.sep.append(r)
    lchild, rchild, child, pos = _NONE * nv, _NONE * nv, _NONE * ne, _NONE * ne
    side = array("b", [CROSS]) * ne
    for eid, row in rows:
        child[eid] = len(s.rows)
        s.rows.extend(_ints(row))
    for code, ids, (vmap, emap) in zip((LEFT, RIGHT), (lchild, rchild), maps):
        for v, cv in vmap.items():
            ids[v] = cv
        for eid, ce in emap.items():
            if eid < ne:
                side[eid] = code
                child[eid] = ce
    # shortcuts follow the original edges, so a path edge below ne can fail
    for p, eid in enumerate(path_edges):
        if eid < ne:
            side[eid] = PRIMARY
            pos[eid] = p
    s.lchild.extend(lchild)
    s.rchild.extend(rchild)
    s.eside.extend(side)
    s.echild.extend(child)
    s.epos.extend(pos)
    if tables is None:
        s.dist_r.extend(array("q", [INF]) * nv)
        s.dep_off.extend(array("i", [len(s.dep_len)]) * nv)
    else:
        dist_r, sr, dep = tables
        s.dist_r.extend(_ints(dist_r))
        s.sr.extend(_ints(sr))
        base = len(s.dep_len)
        s.dep_off.extend([base + o for o in islice(dep.offsets, 1, None)])
        s.dep_len.extend(dep.lengths)
        s.dep_dpi.extend(dep.dp_depths)
    return i


def close_store(s: QueryStore) -> QueryStore:
    """Write the bases' final totals and the node and entry counts."""
    s.vbase.append(len(s.lchild))
    s.ebase.append(len(s.eside))
    s.srbase.append(len(s.sr))
    s.meta[2] = len(s.left)
    s.meta[4] = len(s.dep_len)
    return s


def _non_decreasing(a: array) -> bool:
    return all(map(le, a, islice(a, 1, None)))


def _view(a: array) -> np.ndarray:
    """A zero-copy numpy view of one store array."""
    return np.frombuffer(a, dtype=a.typecode)


def _within_inf(a: array) -> bool:
    v = _view(a)
    return not len(v) or (v.min() >= 0 and v.max() <= INF)


def check(s: QueryStore) -> None:
    """Raise ValueError unless the arrays form a store that every query can
    walk without leaving an array: consistent lengths, child nodes after
    their parent in preorder (so no cycle), child ids and positions inside
    the child, doubly monotone departing segments, distances in [0, INF]."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"inconsistent oracle store: {what}")

    need(len(s.meta) == 5, "meta is not 5 values")
    n, source, nodes, depth, entries = s.meta
    need(n >= 1 and 0 <= source < n and nodes >= 1, "meta out of range")
    for name in ("parent", "parent_edge", "dist", "tin", "size"):
        need(len(getattr(s, name)) == n, f"{name} does not hold n entries")
    for name in ("vbase", "ebase", "srbase"):
        base = getattr(s, name)
        need(len(base) == nodes + 1 and base[0] == 0, f"{name} does not hold nodes + 1 entries")
        need(_non_decreasing(base), f"{name} decreases")
    for name in ("left", "right", "sep"):
        need(len(getattr(s, name)) == nodes, f"{name} does not hold one entry per node")
    slots, edge_slots = s.vbase[-1], s.ebase[-1]
    for name in ("lchild", "rchild", "dist_r"):
        need(len(getattr(s, name)) == slots, f"{name} does not hold one entry per vertex slot")
    for name in ("eside", "echild", "epos"):
        need(len(getattr(s, name)) == edge_slots, f"{name} does not hold one entry per edge slot")
    need(s.srbase[-1] == len(s.sr), "srbase does not end at the end of sr")
    need(len(s.dep_off) == slots + 1 and s.dep_off[0] == 0, "dep_off length")
    need(_non_decreasing(s.dep_off), "dep_off decreases")
    need(s.dep_off[-1] == len(s.dep_len) == len(s.dep_dpi) == entries,
         "dep_off does not end at the departing entries")
    for name in ("dist", "dist_r", "sr", "rows", "dep_len"):
        need(_within_inf(getattr(s, name)), f"{name} holds a distance outside [0, INF]")
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

    # Per node, the bounds of each id it stores: [lo, hi) per side code for
    # child edge ids (leaf: row offsets, -1 for none) and path positions, and
    # hi for child vertex ids (-1 for none). Every slot is then checked
    # against its node's bounds in one pass per array.
    left, right, sep = s.left, s.right, s.sep
    nv = list(map(sub, islice(vbase, 1, None), vbase))
    ne = list(map(sub, islice(ebase, 1, None), ebase))
    path_len = list(map(sub, islice(s.srbase, 1, None), s.srbase))
    row_hi = len(s.rows) + 1
    edge_lo, edge_hi, pos_lo, pos_hi, left_hi, right_hi = [], [], [], [], [], []
    node_depth = [0] * nodes
    for i, l, r in zip(range(nodes), left, right):
        if l < 0:
            need(l == r == -1, f"node {i} has one child")
            edge_lo += (-1, -1, -1, -1)
            edge_hi += (max(row_hi - nv[i], 0),) * 4
            pos_lo += (-1, -1, -1, -1)
            pos_hi += (0, 0, 0, 0)
            left_hi.append(0)
            right_hi.append(0)
            continue
        need(i < l < nodes and i < r < nodes, f"node {i} has a child out of preorder")
        need(0 <= sep[i] < nv[i], f"node {i} separator out of range")
        node_depth[l] = node_depth[r] = node_depth[i] + 1
        edge_lo += (-1, 0, 0, 0)
        edge_hi += (0, ne[l], ne[l], ne[r])
        pos_lo += (-1, 0, -1, -1)
        pos_hi += (0, path_len[i], 0, 0)
        left_hi.append(nv[l])
        right_hi.append(nv[r])
    need(max(node_depth) == depth, "meta depth differs from the tree")
    vertex_owner = list(chain.from_iterable(map(repeat, range(nodes), nv)))
    for kids, hi in ((s.lchild, left_hi), (s.rchild, right_hi)):
        need(not kids or min(kids) >= -1, "child vertex id out of range")
        need(all(map(lt, kids, map(hi.__getitem__, vertex_owner))), "child vertex id out of range")
    need(not s.eside.tobytes().translate(None, bytes((CROSS, PRIMARY, LEFT, RIGHT))),
         "side code unknown")
    keys = list(map(add, chain.from_iterable(map(repeat, range(0, 4 * nodes, 4), ne)), s.eside))
    for ids, lo, hi, what in (
        (s.echild, edge_lo, edge_hi, "child edge id or leaf row"),
        (s.epos, pos_lo, pos_hi, "path position"),
    ):
        need(all(map(le, map(lo.__getitem__, keys), ids)), f"{what} out of range")
        need(all(map(lt, ids, map(hi.__getitem__, keys))), f"{what} out of range")

    # departing segments: positions rise and lengths fall, except where a
    # segment starts
    starts = set(s.dep_off)
    dpi, length = s.dep_dpi, s.dep_len
    for breaks in (map(le, islice(dpi, 1, None), dpi), map(ge, islice(length, 1, None), length)):
        need(set(compress(count(1), breaks)) <= starts, "departing segment not doubly monotone")
