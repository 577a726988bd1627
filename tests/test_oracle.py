import errno
import gc
import math
import os
import re
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdo import oracle as oracle_module
from sdo.baseline import brute_ssrp
from sdo.generators import (
    nested_arcs,
    ragged_multigraph,
    tree_plus_chords,
    verify_corpus,
)
from sdo.graphs import Graph, UNREACHABLE
from sdo.oracle import OracleTree, _build, build_oracle
from sdo.query import query, ssrp
from sdo.serialize import dump_oracle
from sdo.spt import dijkstra, distances_from, separator_split
from sdo.store import CROSS, FILE, INF, LEAF, LEFT, OFFSETS, RIGHT, SEGMENT, check_and_rebase, file_arrays

from conftest import (
    appended_store,
    balanced,
    bellman_ford,
    build_store,
    child_maps,
    children,
    distances,
    leaf_table,
    path_graph,
    primary_positions,
    relabel,
    separator,
    source_tree,
    split_sizes,
    sr_base,
    star_graph,
    vertex_segment,
    with_weights,
)


def walk_internal(records, store):
    """(store id, record) of every internal node of a built store; record
    ``i`` is store node ``i``."""
    kids = children(store)
    for i, node in enumerate(records):
        if kids[i][0] >= 0:
            yield i, node


def assert_child_distances_equal_parent_distances(g, source):
    """Every child vertex lies at its parent vertex's source distance, and
    every node vertex at the input-graph distance of its original vertex."""
    nodes, store = build_store(g, source)
    root = nodes[0]
    original = {v: v for v in range(root.graph.n)}
    input_dist = dijkstra(g, source).dist
    kids = children(store)
    stack = [(0, original, dijkstra(root.graph, root.source).dist)]
    while stack:
        i, original, dist = stack.pop()
        for v, ov in original.items():
            assert dist[v] == input_dist[ov]
        if kids[i][0] < 0:
            continue
        lv, rv, _, _ = child_maps(store, i, nodes[i].graph)
        for child, vmap in zip(kids[i], (lv, rv)):
            child_dist = dijkstra(nodes[child].graph, nodes[child].source).dist
            for v, cv in vmap.items():
                assert child_dist[cv] == dist[v]
            child_original = {vmap[v]: ov for v, ov in original.items() if v in vmap}
            stack.append((child, child_original, child_dist))


def test_tree_nodes_are_store_nodes_in_preorder():
    for label, g, s in verify_corpus(seed=11, count=28, max_n=60):
        oracle = build_oracle(g, s)
        # the serial build behind nodes(), with the store it appends to, of
        # which check_and_rebase, given the node and departing-entry counts
        # as _build gives them, sums the offsets, spreads the arrays held at
        # some slots only, derives the links from vside and rebases the
        # local values, turns a leaf's PRIMARY codes into LEAF, and changes
        # no other array the build appends; the file holds the arrays as the
        # build appends them
        nodes, store = appended_store(g, s)
        appended = {name: getattr(store, name).tobytes() for name, _ in FILE}
        store.meta[2], store.meta[4] = len(store.vbase) - 1, len(store.dep_len)
        check_and_rebase(store)
        assert dump_oracle(OracleTree(store)) == dump_oracle(oracle), label
        changed = {name for name, _ in FILE if getattr(store, name).tobytes() != appended[name]}
        assert changed <= {"meta", *OFFSETS, "vside", "dist_r", "kind", "esr", "dsr"}, label
        held = {name: v.astype(code).tobytes() for (name, v), (_, code) in zip(file_arrays(store), FILE)}
        assert {**held, "meta": b""} == {**appended, "meta": b""}, label
        assert len(nodes) == oracle.node_count, label
        kids = children(store)
        for i, node in enumerate(nodes):
            original = sum(not e.virtual for e in node.graph.edges)
            assert store.vbase[i + 1] - store.vbase[i] == node.graph.n, (label, i)
            assert store.ebase[i + 1] - store.ebase[i] == original, (label, i)
            if node.primary_path is None:
                assert kids[i] == (-1, -1) and separator(store, i) == -1, (label, i)
                continue
            assert separator(store, i) == node.primary_path.vertices[-1], (label, i)
            assert kids[i][0] == i + 1 < kids[i][1], (label, i)
            for child in kids[i]:
                assert nodes[child].depth == node.depth + 1, (label, i, child)


@pytest.mark.parametrize("code", [-1, LEFT, RIGHT, LEAF, 5])
def test_the_check_rejects_a_side_code_a_build_cannot_append(code):
    # a build appends a leaf's LEAF slots as PRIMARY, so LEAF itself, a code
    # past it and a side of an internal node are unknown at a leaf, and any
    # code past RIGHT anywhere
    nodes, store = appended_store(tree_plus_chords(60, 60, 9), 0)
    store.meta[2], store.meta[4] = len(store.vbase) - 1, len(store.dep_len)
    leaf = next(i for i, node in enumerate(nodes) if node.primary_path is None and store.ebase[i + 1])
    slot = sum(store.ebase[: leaf + 1])
    store.kind[slot if code in (LEFT, RIGHT) else 0] = code
    with pytest.raises(ValueError, match="side code unknown"):
        check_and_rebase(store)


def test_the_build_only_appends(monkeypatch):
    # every array a subtree appends to only grows while a serial build runs:
    # no value is changed once appended, so a worker's segment can be
    # spliced in as it is
    append_node, check = oracle_module.append_node, oracle_module.check_and_rebase
    snapshots, final = [], {}

    def segment_arrays(s):
        return {name: getattr(s, name).tobytes() for name in SEGMENT}

    def append_and_snapshot(s, *args):
        append_node(s, *args)
        snapshots.append(segment_arrays(s))

    def check_the_final(s):
        final.update(segment_arrays(s))
        check(s)

    monkeypatch.setattr(oracle_module, "append_node", append_and_snapshot)
    monkeypatch.setattr(oracle_module, "check_and_rebase", check_the_final)
    for g in (tree_plus_chords(300, 600, 7), nested_arcs(16)[0], ragged_multigraph(200, 100, 1)):
        snapshots.clear()
        records = []
        _build(g, 0, records.append)
        assert len(snapshots) == len(records) > 1
        for snapshot in snapshots:
            for name in SEGMENT:
                assert final[name].startswith(snapshot[name]), name


def assert_links_point_ahead_into_their_child(store):
    """Every vertex link and every edge link but a leaf's row is -1 or a
    slot past its own, in the child node its side names: the left child for
    a vertex's first link and for PRIMARY and LEFT edge slots, the right
    child for the second and for RIGHT. CROSS edge slots link nowhere."""
    vbase, ebase = store.vbase, store.ebase
    left, right = zip(*children(store))

    def owner(base, slot):
        return bisect_right(base, slot) - 1

    for v in range(vbase[-1]):
        i = owner(vbase, v)
        for x, child in zip(store.vlink[2 * v : 2 * v + 2], (left[i], right[i])):
            assert x == -1 or (x > v and child >= 0 and owner(vbase, x) == child), (v, x)
    for e in range(ebase[-1]):
        kind, x = store.kind[e], store.elink[e]
        if kind == LEAF:
            continue
        i = owner(ebase, e)
        if kind == CROSS:
            assert x == -1, (e, x)
        else:
            child = right[i] if kind == RIGHT else left[i]
            assert x > e and child >= 0 and owner(ebase, x) == child, (e, kind, x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [(g, s) for _, g, s in verify_corpus(seed=11, count=28, max_n=60)],
        lambda: [(tree_plus_chords(4096, 8192, 42), 0)],
        lambda: [(nested_arcs(64)[0], 0)],
    ],
    ids=["corpus", "chords(4096)", "arcs(64)"],
)
def test_links_point_ahead_into_their_child(make):
    # the benchmark's two graph families, before their relabelling
    for g, s in make():
        assert_links_point_ahead_into_their_child(build_oracle(g, s).store)


def test_built_oracle_keeps_no_level_graph():
    def live_graphs():
        gc.collect()
        return sum(isinstance(o, Graph) for o in gc.get_objects())

    corpus = list(verify_corpus(seed=11, count=28, max_n=60))
    before = live_graphs()
    oracles = [build_oracle(g, s) for _, g, s in corpus]
    assert live_graphs() == before
    assert all(oracle.graph is g for oracle, (_, g, _) in zip(oracles, corpus))
    assert sum(separator(oracle.store, 0) >= 0 for oracle in oracles) > 0


def zero_weighted(g: Graph) -> Graph:
    """``g`` with weights 0-3 taken from the edge id, a quarter of them 0."""
    return with_weights(g, [(7 * eid + eid // 5) % 4 for eid in range(g.m)])


class TestParallelBuild:
    """``build_oracle`` hands far sides to forked workers while a core is
    free, and splices their segments back in preorder."""

    # the ragged graph's root hands a worker a far side with unreached
    # vertices, CROSS slots and parallel edges; on zero weights, a worker
    # builds its far side's tree with dijkstra
    GRAPHS = {
        "arcs(32)": nested_arcs(32)[0],
        "chords(2048)": tree_plus_chords(2048, 4096, 17),
        "ragged(2048)": ragged_multigraph(2048, 1024, 1),
        "zero-weighted chords(2048)": zero_weighted(tree_plus_chords(2048, 4096, 17)),
    }

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids the test's own process forks, on a host of two cores."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
        return pids

    @pytest.mark.parametrize("label", GRAPHS)
    def test_workers_give_the_serial_bytes(self, label, forks):
        g = self.GRAPHS[label]
        serial = dump_oracle(OracleTree(_build(g, 0, [].append)))
        assert forks == []
        assert dump_oracle(build_oracle(g, 0)) == serial
        assert len(forks) >= 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_nested_workers_on_more_cores_than_the_host(self, forks, monkeypatch, tmp_path):
        # four cores' tokens, and workers for far sides of 16 vertices, so
        # that workers fork workers and more processes run than cores exist
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(oracle_module, "FORK_MIN_VERTICES", 16)
        # every process of the build appends the pid of each worker it forks
        log = tmp_path / "pids"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        fork = os.fork

        def logged():
            pid = fork()
            if pid:
                os.write(fd, b"%d\n" % pid)
            return pid

        monkeypatch.setattr(os, "fork", logged)
        try:
            for g in self.GRAPHS.values():
                before = len(log.read_text().split())
                assert dump_oracle(build_oracle(g, 0)) == dump_oracle(OracleTree(_build(g, 0, [].append)))
                # Each of the build's own levels down its left spine, while its
                # far side has 16 vertices, takes a token or finds all three
                # held by running workers; either way all three were taken.
                assert len(log.read_text().split()) - before >= 3
        finally:
            os.close(fd)
        assert set(forks) <= set(map(int, log.read_text().split()))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_core_forks_nothing(self, forks, monkeypatch):
        g = self.GRAPHS["chords(2048)"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
        one_core = dump_oracle(build_oracle(g, 0))
        assert forks == []
        assert one_core == dump_oracle(OracleTree(_build(g, 0, [].append)))

    def test_a_failing_worker_fails_the_build(self, forks, monkeypatch):
        here, build_dep = os.getpid(), oracle_module.build_dep

        def build_dep_here(*args):
            if os.getpid() != here:
                raise ArithmeticError("injected in a worker")
            return build_dep(*args)

        monkeypatch.setattr(oracle_module, "build_dep", build_dep_here)
        with pytest.raises(RuntimeError, match="worker failed: ArithmeticError.*injected"):
            build_oracle(self.GRAPHS["chords(2048)"], 0)
        assert len(forks) >= 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_build_ends_its_workers(self, forks, monkeypatch):
        # the root forks before its near side, whose first table then fails
        here, build_dep = os.getpid(), oracle_module.build_dep
        calls = []

        def build_dep_here(*args):
            if os.getpid() == here:
                calls.append(1)
                if len(calls) == 2:
                    raise ArithmeticError("injected in the build's own process")
            return build_dep(*args)

        monkeypatch.setattr(oracle_module, "build_dep", build_dep_here)
        with pytest.raises(ArithmeticError, match="injected in the build's own"):
            build_oracle(self.GRAPHS["chords(2048)"], 0)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_builds_the_far_side_here(self, monkeypatch):
        # every fork fails as at a process limit: each far side is built in
        # this process, the pipe opened for its worker is closed, and the
        # core token comes back for the next level to try
        g = tree_plus_chords(2000, 4000, 3)
        serial = dump_oracle(OracleTree(_build(g, 0, [].append)))
        tries = []

        def failing():
            tries.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing)
        monkeypatch.setattr(oracle_module, "usable_cpus", lambda: 2)
        fds = "/proc/self/fd"
        before = len(os.listdir(fds)) if os.path.isdir(fds) else None
        assert dump_oracle(build_oracle(g, 0)) == serial
        assert len(tries) >= 2
        if before is not None:
            assert len(os.listdir(fds)) == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_corrupt_build_fails_like_a_corrupt_file(self, cpus, forks, monkeypatch):
        # the first internal level a process appends loses one vertex from
        # its side-M bits, one short of its left child's vertex count; on two
        # cores only workers append it, so a spliced segment holds it
        here, append_node = os.getpid(), oracle_module.append_node
        done = []

        def corrupt(s, g, depth, rows=(), path_edges=(), sides=(), tables=None):
            append_node(s, g, depth, rows, path_edges, sides, tables)
            if sides and not done and (cpus == 1 or os.getpid() != here):
                (in_m, _), (in_n, _) = sides
                v = next(v for v in range(g.n) if in_m[v] and not in_n[v])
                s.vside[len(s.vside) - 2 * g.n + 2 * v] = 0
                done.append(v)

        monkeypatch.setattr(oracle_module, "append_node", corrupt)
        monkeypatch.setattr(oracle_module, "usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="child vertex slot out of range: node [0-9]+ side M"):
            build_oracle(self.GRAPHS["chords(2048)"], 0)
        assert bool(forks) == (cpus == 2)
        assert bool(done) == (cpus == 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_segment_that_ends_early_fails_the_build(self, forks, monkeypatch):
        # each worker sends its status byte, then two bytes of its segment
        def cut_short(segment, fd):
            os.write(fd, b"\0\0")

        monkeypatch.setattr(oracle_module, "send_segment", cut_short)
        with pytest.raises(RuntimeError, match="an oracle build worker failed: .*the segment ends early"):
            build_oracle(self.GRAPHS["chords(2048)"], 0)
        assert len(forks) >= 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_killed_build_leaves_no_worker_running(self, tmp_path):
        # SIGKILL runs no finally, so the workers must notice on their own
        # that their parent is gone; a zombie has ended, awaiting its reaper
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to tell a zombie from a running worker")
        log = tmp_path / "pids"
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_BUILD, str(log)],
            env={**os.environ, "PYTHONPATH": str(Path(oracle_module.__file__).parents[1])},
        )
        try:
            deadline = time.monotonic() + 60
            while not (log.exists() and log.read_text()) and proc.poll() is None:
                assert time.monotonic() < deadline, "the build forked no worker"
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        pids = [int(line) for line in log.read_text().split()]
        assert pids

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 1
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [pid for pid in pids if running(pid)] == []


# A build on two cores that appends the pid of every worker to the file
# named by its argument, from whichever process forked it.
KILLED_BUILD = """
import os, sys
log = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
fork = os.fork
def logged():
    pid = fork()
    if pid:
        os.write(log, b"%d\\n" % pid)
    return pid
os.fork = logged
os.sched_getaffinity = lambda _: {0, 1}
from sdo.generators import tree_plus_chords
from sdo.oracle import build_oracle
build_oracle(tree_plus_chords(16384, 32768, 42), 0)
"""


class TestLeaves:
    def test_single_edge_root_is_leaf(self):
        g = Graph.from_pairs(2, [(0, 1)])
        assert separator(build_oracle(g, 0).store, 0) < 0
        assert leaf_table(build_store(g)[1], 0) == {0: [0, UNREACHABLE]}

    def test_small_non_root_nodes_are_leaves(self):
        records, store = build_store(path_graph(4), depth=1)
        assert separator(store, 0) < 0
        assert len(records) == 1 and children(store) == [(-1, -1)]
        assert set(leaf_table(store, 0)) == {0, 1, 2}

    def test_leaf_tables_match_banned_dijkstra(self):
        g = tree_plus_chords(4, 2, 8)
        records, store = build_store(g, depth=3)
        assert separator(store, 0) < 0 and records[0].depth == 3
        for eid, dist in leaf_table(store, 0).items():
            assert dist == dijkstra(g, 0, {eid}).dist

    def test_only_tree_edges_take_a_banned_sweep(self, monkeypatch):
        # an edge off a leaf's source tree leaves that tree whole, so its
        # row is the leaf's own distances, and no sweep runs for it
        sweeps = []

        def counted(g, source, banned_edges=()):
            if banned_edges:
                sweeps.append(banned_edges)
            return distances_from(g, source, banned_edges)

        monkeypatch.setattr(oracle_module, "distances_from", counted)
        g = tree_plus_chords(60, 60, 9)
        records, store = build_store(g)
        tree_edges = rows = 0
        for i, node in enumerate(records):
            if separator(store, i) >= 0:
                continue
            spt = dijkstra(node.graph, node.source)
            tree_edges += sum(e is not None and not node.graph.edges[e].virtual for e in spt.parent_edge)
            for eid, dist in leaf_table(store, i).items():
                assert dist == dijkstra(node.graph, node.source, {eid}).dist, (i, eid)
                rows += 1
        assert len(sweeps) == tree_edges < rows


class TestThreeVertexPath:
    def test_root_splits_with_leaf_children(self):
        oracle = build_oracle(path_graph(3), 0)
        store = build_store(path_graph(3))[1]
        assert separator(store, 0) == 1
        assert oracle.depth == 1
        assert children(store) == [(1, 2), (-1, -1), (-1, -1)]


class TestDegenerateSeparator:
    def test_source_equals_separator(self):
        # star from the center: the separator lands on the source, the
        # primary path is empty, children are still built
        nodes, store = build_store(star_graph(10))
        root = nodes[0]
        assert separator(store, 0) == root.source == 0
        assert len(root.primary_path) == 1
        assert root.primary_path.edge_ids == []
        assert set(vertex_segment(store, "dist_r", 0)) == {INF}
        assert sr_base(nodes, 1) == 0
        assert root.sr_replacements is None
        assert root.dep is None
        assert min(children(store)[0]) >= 0


class TestChildGraphs:
    def test_four_cycle_left_child_shortcut_weight(self):
        # s-u-t-v-s: separator u; the only shortcut carries the length of the
        # route around the far side, u-t-v
        from sdo.graphs import Edge

        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        nodes, store = build_store(g)
        assert separator(store, 0) == 1
        lmap, _, left_edge_map, _ = child_maps(store, 0, nodes[0].graph)
        banned = set(left_edge_map)
        virtuals = [e for e in nodes[children(store)[0][0]].graph.edges if e.virtual]
        assert virtuals == [Edge(lmap[1], lmap[3], 2, virtual=True)]
        assert dijkstra(g, 1, banned).dist[3] == 2

    def test_child_distances_equal_parent_distances(self):
        for seed in (0, 1, 2):
            assert_child_distances_equal_parent_distances(tree_plus_chords(45, 30, seed), 0)

    def test_fresh_shortcuts_incident_to_separator_and_new_source(self):
        nodes, store = build_store(tree_plus_chords(40, 20, 4))
        kids = children(store)
        for i, node in walk_internal(nodes, store):
            left, right = (nodes[child] for child in kids[i])
            lv, _, le, re = child_maps(store, i, node.graph)
            r_left = lv[separator(store, i)]
            for eid in range(len(le), left.graph.m):
                e = left.graph.edges[eid]
                assert e.virtual and r_left in (e.u, e.v)
            for eid in range(len(re), right.graph.m):
                e = right.graph.edges[eid]
                assert e.virtual and right.source in (e.u, e.v)

    def test_shortcut_weights_equal_avoid_sweeps(self):
        # grafting weighs shortcuts from the edges between the sides; each
        # must equal the length Bellman-Ford finds from the hub's origin
        # (r on side M, the source on side N) avoiding the side's edges
        from sdo.graphs import Edge

        ragged = ragged_multigraph(50, 60, 2)
        cases = [(g, s) for _, g, s in verify_corpus(seed=11, count=40, max_n=30)]
        cases += [(zero_weighted(tree_plus_chords(60, 80, 5)), 0),
                  (with_weights(ragged, [1 + eid % 7 for eid in range(ragged.m)]), 3)]
        for g, source in cases:
            nodes, store = build_store(g, source)
            kids = children(store)
            for i, node in walk_internal(nodes, store):
                r = separator(store, i)
                lv, rv, le, re = child_maps(store, i, node.graph)
                left, right = (nodes[child] for child in kids[i])
                for child, vmap, emap, hub, origin in (
                    (left, lv, le, lv[r], r),
                    (right, rv, re, right.source, node.source),
                ):
                    avoid = bellman_ford(node.graph, origin, set(emap))
                    want = [Edge(hub, c, avoid[v], True) for v, c in sorted(vmap.items())
                            if c != hub and avoid[v] is not UNREACHABLE]
                    assert child.graph.edges[len(emap):] == want

    def test_unreachable_shortcut_weights_are_omitted(self):
        # pure path: the far side is unreachable once its edges are banned,
        # so the left child gains no shortcut edges at all
        nodes, store = build_store(path_graph(9))
        root, (left, right) = nodes[0], (nodes[child] for child in children(store)[0])
        r = separator(store, 0)
        lv, rv, le, _ = child_maps(store, 0, root.graph)
        m_side = [v for v in lv if v not in rv]
        assert m_side
        banned_m = set(le)
        avoid = dijkstra(root.graph, r, banned_m).dist
        assert all(avoid[v] is UNREACHABLE for v in m_side)
        assert not any(e.virtual for e in left.graph.edges)
        # the far side keeps exactly one entry edge, to the separator itself
        right_virtuals = [e for e in right.graph.edges if e.virtual]
        r_right = rv[r]
        d_r = dijkstra(root.graph, root.source).dist[r]
        assert [(e.u, e.v, e.weight) for e in right_virtuals] == [
            (right.source, r_right, d_r)
        ]


def inherited_and_heap_stores(g: Graph, source: int):
    """The arrays of a serial build's store, and of the store built again
    with every child's tree from ``dijkstra`` instead of its parent's."""
    inherited = dict(_build(g, source, [].append).arrays())
    with pytest.MonkeyPatch.context() as mp:
        for name in ("make_left_child", "make_right_child"):
            graft = getattr(oracle_module, name)

            def from_heap(*args, graft=graft):
                child, source, _, maps = graft(*args)
                return child, source, None, maps

            mp.setattr(oracle_module, name, from_heap)
        heap = dict(_build(g, source, [].append).arrays())
    return inherited, heap


class TestInheritedTrees:
    """A child's tree is its parent's, remapped; the store must be the one
    that heap trees give."""

    def test_corpus_stores_equal_heap_tree_stores(self):
        cases = [
            *verify_corpus(seed=11, count=140, max_n=60),
            ("arcs(32)", nested_arcs(32)[0], 0),
            ("ragged(300)", ragged_multigraph(300, 200, 1), 0),
            ("zero-weighted chords(300)", zero_weighted(tree_plus_chords(300, 400, 5)), 0),
        ]
        for label, g, source in cases:
            inherited, heap = inherited_and_heap_stores(g, source)
            assert inherited == heap, label

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 10**6), st.data())
    def test_positive_weights(self, n, extra, seed, data):
        base = ragged_multigraph(n, extra, seed)
        weights = data.draw(st.lists(st.integers(1, 4), min_size=base.m, max_size=base.m))
        source = data.draw(st.integers(0, n - 1))
        inherited, heap = inherited_and_heap_stores(with_weights(base, weights), source)
        assert inherited == heap

    def test_children_with_a_zero_weight_edge_take_the_heap(self, monkeypatch):
        # the heap runs where the child is built, which may be a forked
        # worker, and never inside its graft
        heap_graphs = []
        grafting = []

        def counted(g, source):
            assert not grafting
            heap_graphs.append(g)
            return dijkstra(g, source)

        for name in ("make_left_child", "make_right_child"):
            def marked(*args, graft=getattr(oracle_module, name)):
                grafting.append(name)
                try:
                    return graft(*args)
                finally:
                    grafting.pop()

            monkeypatch.setattr(oracle_module, name, marked)
        monkeypatch.setattr(oracle_module, "dijkstra", counted)
        records = []
        g = zero_weighted(tree_plus_chords(300, 400, 5))
        _build(g, 0, records.append)
        zero = [node.graph for node in records[1:] if any(e.weight == 0 for e in node.graph.edges)]
        assert 0 < len(zero) < len(records) - 1
        assert heap_graphs[0] is g
        assert sorted(map(id, heap_graphs[1:])) == sorted(map(id, zero))

    # The root's tree, and on point-sparse those of the 21 levels with a
    # zero-weight edge: the right children of the two levels whose separator
    # is their source, where the hub's shortcut to that source weighs 0, and
    # the left descendants that keep the shortcut. Before trees were
    # inherited, every level took one: 5,693 and 5,395.
    @pytest.mark.parametrize(
        "make, trees",
        [(lambda: tree_plus_chords(4096, 8192, 42), 22), (lambda: nested_arcs(64)[0], 1)],
        ids=["point-sparse", "ssrp-arcs"],
    )
    def test_heap_trees_per_benchmark_build(self, make, trees, monkeypatch):
        g, perm = relabel(make(), 101)
        calls = []
        monkeypatch.setattr(oracle_module, "dijkstra", lambda *args: calls.append(1) or dijkstra(*args))
        _build(g, perm[0], [].append)
        assert len(calls) == trees

    # Hand-made levels with virtual edges from a hub q = 2 or from the
    # separator r = 1 itself. Side N is {r, 4}; vertex 3's tree edge is
    # virtual, and the left child's shortcut from r to it is tight: it
    # takes vertex 3 from q, whose key is larger, but not from r's own
    # older edge, whose id is smaller.
    @pytest.mark.parametrize(
        "pred, child_pred",
        [(2, 1), (1, 1)],
        ids=["shortcut-wins", "older-edge-wins"],
    )
    def test_a_tight_shortcut_takes_a_vertex_by_the_heap_key(self, pred, child_pred):
        from sdo.graphs import Edge

        g = Graph(5, [Edge(0, 1), Edge(0, 2), Edge(1, 4), Edge(pred, 3, 2, True),
                      Edge(4, 3, 1, True)])
        spt = dijkstra(g, 0)
        assert spt.parent[3] == pred and spt.dist[3] == 3
        child, source, tree, (vmap, _) = oracle_module.make_left_child(
            spt, 1, [True, True, True, True, False])
        assert (tree.graph, tree.source) == (child, source)
        heap = dijkstra(child, source)
        assert (tree.parent, tree.parent_edge, tree.dist, tree.depth) == (
            heap.parent, heap.parent_edge, heap.dist, heap.depth)
        assert tree.parent[vmap[3]] == vmap[child_pred]

    def test_level_graphs_have_the_adjacency_graph_builds(self):
        # child graphs skip the constructor's checks; rebuilding each one
        # checks its edges and must give the same adjacency lists
        def check(node):
            assert node.graph.adj == Graph(node.graph.n, node.graph.edges).adj

        for _, g, source in verify_corpus(seed=11, count=140, max_n=60):
            _build(g, source, check)
        _build(nested_arcs(32)[0], 0, check)
        _build(ragged_multigraph(2048, 1024, 1), 0, check)


class TestClassify:
    """Which child edge map, if any, holds each edge of the root, read off
    the root's store rows."""

    def _root(self):
        g = Graph.from_pairs(
            7, [(3, 4), (4, 1), (1, 0), (0, 6), (5, 2), (2, 6), (2, 3)]
        )
        return g, *build_store(g)

    def test_first_primary_edge(self):
        g, records, store = self._root()
        eid = g.edge_ids_between(0, 6)[0]
        _, _, le, re = child_maps(store, 0, g)
        assert eid in primary_positions(store, 0)
        assert eid in le
        assert eid not in re

    def test_crossing_edge(self):
        g, records, store = self._root()
        eid = g.edge_ids_between(3, 4)[0]
        lv, rv, le, re = child_maps(store, 0, g)
        assert (3 in lv) != (4 in lv)
        assert (3 in rv) != (4 in rv)
        assert eid not in le
        assert eid not in re

    def test_edge_at_separator_takes_other_side(self):
        g, records, store = self._root()
        assert separator(store, 0) == 6
        eid = g.edge_ids_between(2, 6)[0]
        lv, rv, le, re = child_maps(store, 0, g)
        assert 2 in rv and 2 not in lv
        assert eid in re
        assert eid not in le


class TestStructure:
    def test_side_partition_counts(self):
        records, store = build_store(tree_plus_chords(60, 35, 12))
        for i, node in walk_internal(records, store):
            nr, nm, nn = split_sizes(store, i, node)
            assert nm + nn == nr + 1
            spt = dijkstra(node.graph, node.source)
            split = separator_split(spt)
            assert split.r == separator(store, i)
            assert (spt.reachable_count(), sum(split.in_m), sum(split.in_n)) == (nr, nm, nn)

    def test_primary_path_inside_m(self):
        records, store = build_store(tree_plus_chords(50, 20, 13))
        for i, node in walk_internal(records, store):
            lv = child_maps(store, i, node.graph)[0]
            for v in node.primary_path.vertices:
                assert v in lv

    def test_virtual_tree_edges_only_at_source(self):
        for seed in (5, 6, 7):
            g = tree_plus_chords(55, 30, seed)
            for node in build_oracle(g, 0).nodes():
                spt = dijkstra(node.graph, node.source)
                for v in range(node.graph.n):
                    pe = spt.parent_edge[v]
                    if pe is not None and node.graph.edges[pe].virtual:
                        assert spt.parent[v] == node.source

    def test_vertex_slot_budget(self):
        g = tree_plus_chords(80, 40, 21)
        oracle = build_oracle(g, 0)
        total = sum(node.graph.n for node in oracle.nodes())
        assert total <= (oracle.depth + 1) * (oracle.graph.n + oracle.node_count)

    def test_depth_bound(self):
        for seed in (1, 2):
            for n in (10, 40, 120):
                g = tree_plus_chords(n, n // 3, seed)
                oracle = build_oracle(g, 0)
                assert oracle.depth <= math.ceil(math.log(n, 1.5)) + 2

    def test_disconnected_vertices_excluded(self):
        g = Graph.from_pairs(6, [(0, 1), (1, 2), (3, 4)])
        oracle = build_oracle(g, 0)
        assert oracle.graph is g
        assert oracle.nodes()[0].graph is g
        assert separator(oracle.store, 0) >= 0
        lv, rv, _, _ = child_maps(build_store(g)[1], 0, g)
        for v in (3, 4, 5):
            assert v not in lv
            assert v not in rv

    def test_isolated_source_in_a_large_graph_is_a_leaf(self):
        # the other 19,999 vertices form a path the source cannot reach
        n = 20_000
        g = Graph.from_pairs(n, [(v, v + 1) for v in range(1, n - 1)])
        oracle = build_oracle(g, 0)
        assert separator(oracle.store, 0) < 0
        assert leaf_table(build_store(g)[1], 0) == {}
        assert ssrp(oracle).records == []

    def test_source_with_one_neighbour_in_a_large_graph(self):
        n = 20_000
        g = Graph.from_pairs(n, [(0, 1)] + [(v, v + 1) for v in range(2, n - 1)])
        oracle = build_oracle(g, 0)
        assert separator(oracle.store, 0) < 0
        assert list(leaf_table(build_store(g)[1], 0)) == [source_tree(oracle).parent_edge[1]]
        assert ssrp(oracle).records == brute_ssrp(g, 0).records
        assert query(oracle, 1, (0, 1)).distance is UNREACHABLE
        assert query(oracle, 5, (5, 6)).distance is UNREACHABLE

    def test_rejects_virtual_input(self):
        from sdo.graphs import Edge

        with pytest.raises(ValueError):
            build_oracle(Graph(2, [Edge(0, 1, 2, virtual=True)]), 0)

    @pytest.mark.parametrize("source", [1.0, True, "0"])
    def test_rejects_a_source_that_is_not_an_int(self, source):
        g = Graph.from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=re.escape(f"source {source!r} is not an integer")):
            build_oracle(g, source)


def test_space_bound_as_exact_counts():
    """The paper's O~(n sqrt n) size, read off the store: departing entries
    per n**1.5 and vertex slots per n log2 n stay bounded and do not grow
    with n within a family."""
    families = {
        "nested_arcs": [nested_arcs(k)[0] for k in (8, 16, 32)],
        "tree_plus_chords": [tree_plus_chords(n, 2 * n, 42) for n in (512, 1024, 2048)],
    }
    for family, graphs in families.items():
        ratios = []
        for g in graphs:
            store = build_oracle(g, 0).store
            n = g.n
            ratios.append((len(store.dep_len) / n**1.5, store.vbase[-1] / (n * math.log2(n))))
        print(family, " ".join(f"n={g.n}: {e:.3f} {v:.3f}" for g, (e, v) in zip(graphs, ratios)))
        assert all(e <= 1.5 and v <= 1.5 for e, v in ratios), (family, ratios)
        assert ratios[-1][0] <= ratios[0][0], (family, ratios)
        assert ratios[-1][1] <= ratios[0][1], (family, ratios)


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 50), st.integers(0, 30), st.integers(0, 10**6))
def test_build_invariants_random(n, extra, seed):
    g = tree_plus_chords(n, extra, seed)
    oracle = build_oracle(g, 0)
    assert oracle.depth <= math.ceil(math.log(n, 1.5)) + 2
    records, store = build_store(g)
    for i, node in walk_internal(records, store):
        nr, nm, nn = split_sizes(store, i, node)
        assert balanced(nr, nm)
        assert balanced(nr, nn)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_child_distances_on_disconnected_multigraphs(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    source = data.draw(st.integers(0, n - 1))
    assert_child_distances_equal_parent_distances(g, source)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_child_maps_partition_ragged_multigraphs(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    source = data.draw(st.integers(0, n - 1))
    records, store = build_store(g, source)
    for i, node in walk_internal(records, store):
        lv, rv, le, re = child_maps(store, i, node.graph)
        primary = primary_positions(store, i)
        spt = dijkstra(node.graph, node.source)
        assert not le.keys() & re.keys()
        assert all(eid in le for eid in primary)
        assert all(not node.graph.edges[eid].virtual for eid in primary)
        tables = (node.sr_replacements, node.dep, node.dep_stats)
        dist_r = vertex_segment(store, "dist_r", i)
        if primary:
            assert None not in tables
            assert distances(dist_r) == dijkstra(node.graph, separator(store, i)).dist
        else:
            assert tables == (None, None, None)
            assert set(dist_r) <= {INF}
        for eid, e in enumerate(node.graph.edges):
            if eid not in le and eid not in re:
                # the edge crosses the split or lies outside the component
                if spt.reachable(e.u):
                    assert (e.u in lv) != (e.v in lv)
                    assert (e.u in rv) != (e.v in rv)
                else:
                    assert e.u not in lv and e.u not in rv
                    assert e.v not in lv and e.v not in rv
        assert lv.keys() & rv.keys() == {separator(store, i)}
        assert lv.keys() | rv.keys() == set(spt.order)
