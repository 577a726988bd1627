"""Recursive construction of the fault-tolerant distance oracle tree.

Each internal node splits its graph at a tree separator, stores the distance
tables and departing-path arrays needed to answer faults on its primary path,
and recurses on the two sides after adding weighted shortcut edges that
preserve all surviving distances inside each side. The root is the input
graph itself, and a vertex the source cannot reach enters neither side.
Grafting preserves distances from the source, so every node vertex lies at
its original vertex's input-graph distance, and the oracle keeps that one
source tree for the whole recursion. So a child's shortcut weights come
from its parent's distances, in the pass that builds the child, and its
canonical tree is its parent's, remapped: a heap ``dijkstra`` builds only
the root's tree and those of children with a zero-weight edge. Each level
appends its rows to the ``QueryStore``, the flat arrays that queries read
and files hold, and drops its graph before it recurses; then
``close_store`` rebases the child links. ``OracleTree.nodes()`` replays the
build for the levels' records. On a host with a free core, a level may hand
its far side to a forked worker, which builds it into a segment store that
is spliced in after the near side.
"""

from __future__ import annotations

import os
import select
import signal
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from typing import Callable

from .departing import DepBuildStats, DepTable, build_dep
from .graphs import Edge, Graph
from .pathrep import replacement_lengths_along_path
from .spt import (
    PathOnTree,
    ShortestPathTree,
    dijkstra,
    distances_from,
    separator_split,
    tree_path,
)
from .store import (
    INF,
    QueryStore,
    _original_count,
    append_node,
    close_store,
    open_segment,
    open_store,
    send_segment,
    splice_segment,
)


@dataclass(slots=True, eq=False, repr=False)
class OracleNode:
    """The build record of one recursion level: its graph, primary path and
    the tables built on it. Queries never read it and the oracle keeps none;
    the build passes it to ``emit``. Record ``i`` is store node ``i``, whose
    ``left`` and ``right`` give its children and ``vsep`` its separator slot.
    """

    graph: Graph
    source: int
    depth: int
    primary_path: PathOnTree | None = None
    sr_replacements: list[int] | None = None
    dep: DepTable | None = None
    dep_stats: DepBuildStats | None = None


@dataclass(slots=True)
class OracleTree:
    """The oracle: ``store`` holds every table a query reads. A built oracle
    also keeps ``graph``, the input graph itself, to replay its build; a
    loaded oracle has only the store, and ``graph`` is None.
    """

    store: QueryStore
    graph: Graph | None = None

    @property
    def original_source(self) -> int:
        return self.store.meta[1]

    @property
    def node_count(self) -> int:
        return self.store.meta[2]

    @property
    def depth(self) -> int:
        return self.store.meta[3]

    @property
    def total_dep_entries(self) -> int:
        return self.store.meta[4]

    def nodes(self) -> list[OracleNode]:
        """The build record of every level, record ``i`` for store node ``i``.
        None is kept, so each call reruns the build at the cost of the first."""
        if self.graph is None:
            raise ValueError("a loaded oracle keeps no recursion tree, only its query store")
        levels: list[OracleNode] = []
        _build(self.graph, self.original_source, levels.append)
        return levels


def _leaf_node(node: OracleNode, spt_s: ShortestPathTree, store: QueryStore) -> OracleNode:
    """Tabulate the source distances avoiding each original edge the source
    reaches (an edge with one reached end has both); a fault elsewhere never
    descends here."""
    g = node.graph
    rows = (
        (eid, distances_from(g, node.source, (eid,)))
        for eid in range(_original_count(g))
        if spt_s.reachable(g.edges[eid].u)
    )
    append_node(store, g, node.depth, rows)
    return node


# A child graph, its source, its canonical tree (None where ``dijkstra``
# must build it) and its (vertex, edge) id maps from the parent; and the
# callback that takes each level's build record.
Graft = tuple[Graph, int, ShortestPathTree | None, tuple[list[int], dict[int, int]]]
Emit = Callable[[OracleNode], object]


def _graft(spt: ShortestPathTree, inside: list[bool], r: int | None) -> Graft:
    """The child on one side of ``spt``'s split: the subgraph induced by
    ``inside`` plus a shortcut from a hub to each other vertex v, weighted by
    the best length from an origin to v avoiding every induced edge and left
    out where that is ``INF``; its source; and its canonical tree.

    On side M, given its separator ``r``, the origin and hub are r. On side
    N (``r`` None) the origin is the source and the hub a new last vertex,
    the child's source. Such a path enters v by an edge (x, v) from the
    other side, so it is at least ``dist(x) - dist(origin) + w`` long, and
    the tree path from the origin to x meets that bound off the induced
    edges: M holds every tree ancestor of its vertices, and N the tree path
    from r to each of its vertices. So v's shortcut weighs the least such
    sum over those edges, or 0 where v is the origin, and the pass over the
    parent's edges that builds the child and its adjacency takes these
    minima too.

    Grafting keeps each vertex's distance, and the maps keep the parent's
    order, so on positive weights the child's tree is the parent's,
    remapped: a vertex keeps its tree edge unless its shortcut is tight and
    has the smaller ``(virtual, pred != source, pred, eid)`` key, the
    tie-break of ``dijkstra``, and side N's separator, whose tree edge
    leaves the side, takes its shortcut. The order is the parent's, the hub
    first. A child with a zero-weight edge, where a tight neighbour may
    settle after its vertex, gets no tree here: whoever builds the child,
    this process or a forked worker, runs ``dijkstra`` for it (``_tree``).

    The vertex map lists each parent vertex's child id, -1 outside: the
    store's child links on that side as the build appends them. The edge map
    is a dict from parent to child edge id. Both keep the parent's order."""
    g, dist, source = spt.graph, spt.dist, spt.source
    kept = list(compress(range(g.n), inside))
    vmap = [-1] * g.n
    for lv, v in enumerate(kept):
        vmap[v] = lv
    fresh = r is None
    origin = source if fresh else r
    n = len(kept) + fresh
    adj: list[list[int]] = [[] for _ in range(n)]
    reach = [INF] * g.n
    reach[origin] = dist[origin]
    new = tuple.__new__
    edges: list[Edge] = []
    emap: dict[int, int] = {}
    zero = False
    for eid, (u, v, weight, virtual) in enumerate(g.edges):
        a = vmap[u]
        b = vmap[v]
        if a < 0 or b < 0:
            # an edge from the other side ends a shortcut's path
            if a >= 0:
                if dist[v] + weight < reach[u]:
                    reach[u] = dist[v] + weight
            elif b >= 0 and dist[u] + weight < reach[v]:
                reach[v] = dist[u] + weight
            continue
        ce = emap[eid] = len(edges)
        edges.append(new(Edge, (a, b, weight, virtual)))
        adj[a].append(ce)
        adj[b].append(ce)
        if not weight:
            zero = True
    # the parent's tree, remapped; the source and side N's separator, whose
    # tree edges leave the side, have none yet
    parent_edge = [emap.get(spt.parent_edge[v]) for v in kept]
    parent = [None if e is None else vmap[spt.parent[v]] for v, e in zip(kept, parent_edge)]
    child_dist = [dist[v] for v in kept]
    if fresh:
        hub = src = len(kept)
        parent.append(None)
        parent_edge.append(None)
        child_dist.append(0)
    else:
        hub, src = vmap[r], vmap[source]
    hub_key = (hub != src, hub)
    base = dist[origin]
    for lv, v in enumerate(kept):
        d = reach[v]
        if lv == hub or d >= INF:
            continue
        ce = len(edges)
        edges.append(new(Edge, (hub, lv, d - base, True)))
        adj[hub].append(ce)
        adj[lv].append(ce)
        if d == base:
            zero = True
        elif d == dist[v]:
            e = parent_edge[lv]
            if e is None or (edges[e].virtual and hub_key < (parent[lv] != src, parent[lv])):
                parent[lv], parent_edge[lv] = hub, ce
    child = Graph(n, edges, adj=adj)
    if zero:
        return child, src, None, (vmap, emap)
    tree = ShortestPathTree(child, src)
    tree.parent, tree.parent_edge, tree.dist = parent, parent_edge, child_dist
    order = tree.order = [hub] if fresh else []
    order += (vmap[v] for v in spt.order if inside[v])
    depth = tree.depth
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return child, src, tree, (vmap, emap)


def _tree(g: Graph, source: int, tree: ShortestPathTree | None) -> ShortestPathTree:
    """A child's canonical tree: the one its graft derived, else the heap's."""
    return dijkstra(g, source) if tree is None else tree


def make_left_child(spt_s: ShortestPathTree, r: int, in_m: list[bool]) -> Graft:
    """Induced side-M graph plus weighted shortcuts from the separator ``r``.

    Each shortcut (r, v) carries the best r -> v length that avoids every
    side-M edge, so faults handled deeper inside M can still route around the
    whole side at the recorded cost. The child's source is the node's.
    """
    return _graft(spt_s, in_m, r)


def make_right_child(spt_s: ShortestPathTree, in_n: list[bool]) -> Graft:
    """Induced side-N graph plus a fresh source with weighted entry edges.

    The fresh source is added uniformly (even when the separator equals the
    node source); its edge to v carries the best source -> v length avoiding
    every side-N edge.
    """
    return _graft(spt_s, in_n, None)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Cores:
    """The free cores of one build, as tokens in a pipe that every process of
    the build shares: one per core beyond the first. A level that takes one
    without blocking may fork a worker for its far side; the worker gives it
    back once its subtree is built. A process blocked on a worker gives back
    the core it runs on, and takes one again before it goes on.

    A parent killed by a signal that runs no ``finally`` cannot stop its
    workers, so a worker whose parent is gone leaves through ``os._exit``:
    nothing would take the subtree it builds. It looks once per level and
    every ``ORPHAN_POLL_MS`` while it waits, so a killed build's workers all
    end soon after it."""

    def __init__(self, tokens: int):
        self.take_fd, self.give_fd = os.pipe()
        os.set_blocking(self.take_fd, False)
        os.write(self.give_fd, b"." * tokens)
        self.owner = os.getpid()
        # the pid that forked this process; None in the build's own process
        self.parent: int | None = None

    @classmethod
    def open(cls) -> _Cores | None:
        """Tokens for this host's other cores; None on one core or where
        ``os.fork`` is missing, which keeps the build serial."""
        if not hasattr(os, "fork"):
            return None
        cpus = usable_cpus()
        return cls(cpus - 1) if cpus > 1 else None

    def take(self) -> bool:
        try:
            return bool(os.read(self.take_fd, 1))
        except BlockingIOError:
            return False

    def wait(self) -> None:
        while not self.take():
            self.idle(self.take_fd)

    def idle(self, fd: int) -> None:
        """Block until ``fd`` is readable, or its writer has closed it."""
        ready = select.poll()
        ready.register(fd, select.POLLIN)
        while not ready.poll(ORPHAN_POLL_MS):
            self.leave_if_orphaned()

    def leave_if_orphaned(self) -> None:
        if self.parent is not None and os.getppid() != self.parent:
            os._exit(1)

    def give(self) -> None:
        os.write(self.give_fd, b".")

    def close(self) -> None:
        os.close(self.take_fd)
        os.close(self.give_fd)


# The least far-side graph, in vertices, worth a worker: below it the fork
# and the segment's trip cost more than the build they take off this core.
FORK_MIN_VERTICES = 256

# How often a worker blocked on a pipe looks whether its parent is gone.
ORPHAN_POLL_MS = 100


def _fork(
    graft: tuple[Graph, int, ShortestPathTree | None], depth: int, cores: _Cores
) -> tuple[int, int]:
    """Build the subtree on the grafted child in a forked worker; returns
    its pid and the pipe its segment arrives on. The worker sends a status
    byte, then the segment, or the failure's name, and leaves through
    ``os._exit`` on every path, so it never returns into its caller's stack.
    A worker forked by the build's own process leads a process group, which
    its own workers join, so that one signal ends them all."""
    forker = os.getpid()
    lead = forker == cores.owner
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            cores.parent = forker
            if lead:
                os.setpgid(0, 0)
            os.close(rfd)
            try:
                segment = open_segment()
                build_node(_tree(*graft), depth, segment, _discard, cores)
            except BaseException as exc:
                # the worker's boundary: the failure goes to the parent,
                # which raises it; nothing unwinds past os._exit
                os.write(wfd, b"\1" + repr(exc).encode())
            else:
                cores.give()
                os.write(wfd, b"\0")
                send_segment(segment, wfd)
                code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    if lead:
        with suppress(OSError):
            os.setpgid(pid, pid)
    return pid, rfd


def _join(pid: int, rfd: int, store: QueryStore, cores: _Cores) -> None:
    """Splice the worker's segment onto ``store``, then reap the worker.
    While it waits on the worker, this process gives back its core."""
    cores.give()
    cores.idle(rfd)
    if os.read(rfd, 1) != b"\0":
        chunks = []
        while chunk := os.read(rfd, 1 << 16):
            chunks.append(chunk)
        why = b"".join(chunks).decode(errors="replace") or "it ended without sending its subtree"
        raise RuntimeError(f"an oracle build worker failed: {why}")
    splice_segment(store, rfd)
    cores.wait()
    os.waitpid(pid, 0)


def _stop(pid: int, cores: _Cores) -> None:
    """Kill and reap a worker that was not joined, and its own workers too
    where this is the build's own process (they share the worker's group)."""
    with suppress(ProcessLookupError):
        if os.getpid() == cores.owner:
            os.killpg(pid, signal.SIGKILL)
        else:
            os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def build_node(
    spt_s: ShortestPathTree, depth: int, store: QueryStore, emit: Emit, cores: _Cores | None = None
) -> None:
    """Build the oracle node for ``spt_s``, the canonical tree of the node's
    graph from its source: append its rows to ``store``, pass its record to
    ``emit``, then build its children on the trees that ``make_left_child``
    and ``make_right_child`` derive from it. A node is a brute-force leaf
    when its source reaches at most two vertices at the root, or four
    deeper. Faults are input edges, so a primary path without one builds no
    tables.

    With ``cores``, a far side of at least ``FORK_MIN_VERTICES`` vertices is
    built by a forked worker whenever a core is free, while this process
    builds the near side; its segment is then spliced in after the near
    side, so the store is the same as a serial build's, byte for byte."""
    if cores is not None:
        cores.leave_if_orphaned()
    g, source = spt_s.graph, spt_s.source
    node = OracleNode(g, source, depth)
    if spt_s.reachable_count() <= (4 if depth else 2):
        emit(_leaf_node(node, spt_s, store))
        return

    split = separator_split(spt_s)
    r = split.r
    node.primary_path = path = tree_path(spt_s, source, r)
    tables = dist_r = None
    if any(not g.edges[eid].virtual for eid in path.edge_ids):
        dist_r = distances_from(g, r)
        node.sr_replacements = replacement_lengths_along_path(g, spt_s, dist_r, path)
        node.dep, node.dep_stats = build_dep(g, spt_s, path)
        tables = (dist_r, node.sr_replacements, node.dep)

    left_g, left_src, left_tree, left_maps = make_left_child(spt_s, r, split.in_m)
    right_g, right_src, right_tree, right_maps = make_right_child(spt_s, split.in_n)
    i = append_node(store, g, depth, (), r, path.edge_ids, (left_maps, right_maps), tables)
    emit(node)
    # The store holds all a query reads of this level. Each child is popped
    # into its call, so a subtree builds with only the right one here.
    grafts = [(right_g, right_src, right_tree), (left_g, left_src, left_tree)]
    pid = rfd = None
    if cores is not None and right_g.n >= FORK_MIN_VERTICES and cores.take():
        pid, rfd = _fork(grafts.pop(0), depth + 1, cores)
    del node, g, spt_s, split, path, tables, dist_r
    del left_g, left_tree, left_maps, right_g, right_tree, right_maps
    try:
        build_node(_tree(*grafts.pop()), depth + 1, store, emit, cores)
        store.right[i] = len(store.left)
        if pid is None:
            build_node(_tree(*grafts.pop()), depth + 1, store, emit, cores)
        else:
            _join(pid, rfd, store, cores)
            pid = None
    finally:
        if rfd is not None:
            os.close(rfd)
        if pid is not None:
            _stop(pid, cores)


def _discard(record: OracleNode) -> None:
    """The ``emit`` of ``build_oracle``, which keeps no build record."""


def _build(g: Graph, source: int, emit: Emit) -> QueryStore:
    """The query store of the oracle for ``g`` from ``source``; each level's
    record goes to ``emit`` in store order. Only a build that discards the
    records uses the host's other cores: a worker's records would stay in
    the worker."""
    spt = dijkstra(g, source)
    store = open_store(spt)
    cores = _Cores.open() if emit is _discard else None
    try:
        build_node(spt, 0, store, emit, cores)
    finally:
        if cores is not None:
            cores.close()
    close_store(store)
    return store


def build_oracle(g: Graph, source: int) -> OracleTree:
    """Build the oracle for ``g`` from ``source``.

    The root node is built on ``g`` itself, with the input graph's canonical
    source tree. Vertices the source cannot reach enter neither child, and
    queries about them answer UNREACHABLE at the entry. The weights must sum
    below ``INF``, so every finite distance, and the sum of any two, fits
    the store's 64-bit integers. ``source`` must be an ``int`` (a bool is
    not), the rule ``Graph`` applies to endpoints. The oracle keeps ``g``
    but no build record.
    """
    if type(source) is not int:
        raise ValueError(f"source {source!r} is not an integer vertex")
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if any(e.virtual for e in g.edges):
        raise ValueError("input graphs must contain only original edges")
    if sum(e.weight for e in g.edges) >= INF:
        raise ValueError(f"edge weights must sum below 2**62 = {INF}")
    return OracleTree(_build(g, source, _discard), g)
