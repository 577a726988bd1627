import bisect
import hashlib
import importlib
import os
import random
import sys
import tempfile
import threading
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdo.baseline import _sweep, brute_query, brute_ssrp
from sdo.generators import nested_arcs, ragged_multigraph, tree_plus_chords, verify_corpus
from sdo.graphs import Edge, Graph, UNREACHABLE
from sdo.oracle import build_oracle
from sdo.query import SsrpOutput, _query_node, query, ssrp
from sdo.serialize import dump_oracle, load_oracle, save_oracle
from sdo.spt import tree_path
from sdo.store import FILE, INF, PRIMARY, TABLE, QueryStore

from conftest import (
    build_store,
    checked,
    node_walk,
    path_graph,
    primary_positions,
    rejoin_gadget,
    relabel,
    root_primary_candidates,
    source_tree,
    sr_base,
    walk_tables,
    with_weights,
)

# the module: the package's ``sdo.query`` attribute is the function
query_module = importlib.import_module("sdo.query")


def all_fault_pairs(oracle):
    """Every (t, tree edge above t) of the source tree."""
    spt = source_tree(oracle)
    s = oracle.original_source
    for t in range(oracle.graph.n):
        if t == s or not spt.reachable(t):
            continue
        path = tree_path(spt, s, t)
        for eid, upper, lower in zip(path.edge_ids, path.vertices, path.vertices[1:]):
            yield t, (upper, lower), eid


class TestQuery:
    def test_bridge_fault_is_unreachable(self):
        oracle = build_oracle(path_graph(3), 0)
        assert query(oracle, 2, (1, 2)).distance is UNREACHABLE

    def test_four_cycle_detour(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        oracle = build_oracle(g, 0)
        assert query(oracle, 2, (0, 1)).distance == 2
        assert query(oracle, 2, (0, 1)).distance == brute_query(g, 0, 2, 0)

    def test_fault_off_the_path_changes_nothing(self):
        oracle = build_oracle(path_graph(3), 0)
        assert query(oracle, 1, (1, 2)).distance == 1

    def test_monotone_lower_bound(self):
        g = tree_plus_chords(40, 25, 6)
        oracle = build_oracle(g, 0)
        dist = source_tree(oracle).dist
        for t, pair, _ in all_fault_pairs(oracle):
            assert query(oracle, t, pair).distance >= dist[t]

    def test_recursion_depth_bounded_by_tree_depth(self):
        g = tree_plus_chords(70, 45, 10)
        oracle = build_oracle(g, 0)
        for t, pair, _ in all_fault_pairs(oracle):
            assert query(oracle, t, pair).recursion_depth <= oracle.depth

    def test_id_validation(self):
        oracle = build_oracle(path_graph(3), 0)
        with pytest.raises(ValueError):
            query(oracle, 9, (0, 1))
        with pytest.raises(ValueError):
            query(oracle, 1, (0, 9))
        with pytest.raises(ValueError):
            query(oracle, 1, (0, 2))
        # two vertices outside the source's component, not joined by an edge
        disconnected = build_oracle(Graph.from_pairs(5, [(0, 1), (2, 3), (3, 4)]), 0)
        with pytest.raises(ValueError):
            query(disconnected, 1, (2, 4))
        # ids must be ints, as a source must: a bool or a float names no
        # vertex, even where it compares equal to one
        chords = build_oracle(tree_plus_chords(10, 5, 1), 0)
        for t, e, named in (
            (True, (0, 2), "destination True"),
            (1.0, (0, 2), "destination 1.0"),
            (2, (0.0, 2), r"endpoints \(0.0, 2\)"),
            (2, (0, False), r"endpoints \(0, False\)"),
        ):
            with pytest.raises(ValueError, match=named):
                query(chords, t, e)
        assert query(chords, 2, (0, 2)).distance == query(chords, 2, (2, 0)).distance

    def test_unreachable_destination(self):
        g = Graph.from_pairs(5, [(0, 1), (2, 3), (3, 4)])
        oracle = build_oracle(g, 0)
        assert query(oracle, 3, (0, 1)).distance is UNREACHABLE
        assert query(oracle, 3, (2, 3)).distance is UNREACHABLE

    def test_fault_in_another_component(self):
        g = Graph.from_pairs(5, [(0, 1), (2, 3), (3, 4)])
        oracle = build_oracle(g, 0)
        assert query(oracle, 1, (2, 3)).distance == 1

    def test_destination_is_source(self):
        oracle = build_oracle(path_graph(3), 0)
        assert query(oracle, 0, (0, 1)).distance == 0

    def test_single_edge_root_leaf(self):
        oracle = build_oracle(path_graph(2), 0)
        assert query(oracle, 1, (0, 1)).distance is UNREACHABLE
        assert ssrp(oracle).records == [(1, (0, 1), UNREACHABLE)]

    def test_parallel_edge_survives_fault(self):
        # doubled edge (0, 1): losing the tree copy leaves the twin
        g = Graph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
        oracle = build_oracle(g, 0)
        assert query(oracle, 2, (0, 1)).distance == 2
        assert query(oracle, 2, (0, 1)).distance == brute_query(g, 0, 2, 0)


class TestGadget:
    def test_rejoining_route_needs_the_recursion_branch(self):
        g, t, fault, expected = rejoin_gadget()
        oracle = build_oracle(g, 0)
        eid = g.edge_ids_between(*fault)[0]
        assert brute_query(g, 0, t, eid) == expected
        result = query(oracle, t, fault)
        assert result.distance == expected
        assert result.recursion_depth >= 1
        own = min(root_primary_candidates(g, 0, t, fault))
        assert own != expected
        assert own > expected


class TestSsrp:
    def test_pure_path_all_bridges(self):
        oracle = build_oracle(path_graph(3), 0)
        assert ssrp(oracle).records == [
            (1, (0, 1), UNREACHABLE),
            (2, (0, 1), UNREACHABLE),
            (2, (1, 2), UNREACHABLE),
        ]

    def test_four_cycle_records(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        oracle = build_oracle(g, 0)
        records = ssrp(oracle).records
        assert records == brute_ssrp(g, 0).records
        assert records == [
            (1, (0, 1), 3),
            (2, (0, 1), 2),
            (2, (1, 2), 2),
            (3, (0, 3), 3),
        ]

    def test_record_count_is_total_tree_depth(self):
        g = tree_plus_chords(50, 30, 14)
        oracle = build_oracle(g, 0)
        spt = source_tree(oracle)
        assert len(ssrp(oracle).records) == sum(
            spt.depth[v] for v in range(g.n) if spt.reachable(v)
        )

    def test_tsv_format(self):
        oracle = build_oracle(path_graph(3), 0)
        assert ssrp(oracle).to_tsv() == "1\t0\t1\tINF\n2\t0\t1\tINF\n2\t1\t2\tINF\n"

    def test_matches_brute_on_mixed_corpus(self):
        for label, g, s in verify_corpus(seed=5, count=30, max_n=45):
            oracle = build_oracle(g, s)
            assert ssrp(oracle).records == brute_ssrp(g, s).records, label


def tuple_records(out: SsrpOutput) -> list:
    """The records as ``ssrp`` returned them when it built a list: one tuple
    per record, UNREACHABLE for INF."""
    return [
        (t, (x, y), UNREACHABLE if d >= INF else d)
        for t, x, y, d in zip(out.t.tolist(), out.x.tolist(), out.y.tolist(), out.dist.tolist())
    ]


def heavy_cycle() -> Graph:
    """A 4-cycle whose closing edge weighs 2**62 - 4, so that every weight
    sums to 2**62 - 1, the most a build takes, plus a zero-weight bridge to
    vertex 4. From source 0, failing (0, 1) leaves 1, 2 and 3 at 2**62 - 2,
    2**62 - 3 and 2**62 - 4, and failing the bridge leaves 4 unreached."""
    base = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    return with_weights(base, [1, 1, 1, 2**62 - 4, 0])


class TestRecordsView:
    """``ssrp(...).records`` reads the output's columns as the list of
    tuples it used to be."""

    @pytest.fixture(scope="class")
    def out(self):
        return ssrp(build_oracle(ragged_multigraph(300, 200, 1), 0))

    def test_len_and_indexing(self, out):
        records, want = out.records, tuple_records(out)
        assert len(records) == len(want) == 1823
        for i in (0, 1, 17, len(want) - 1, -1, -2, -len(want)):
            assert records[i] == want[i], i
        assert records[np.int64(5)] == want[5]
        assert records[10:20] == want[10:20]
        assert records[::-97] == want[::-97]
        for i in (len(want), -len(want) - 1, 10**9):
            with pytest.raises(IndexError):
                records[i]

    def test_iteration_gives_the_tuple_list(self, out):
        got = list(out.records)
        assert got == tuple_records(out)
        assert any(d is UNREACHABLE for _, _, d in got)
        for t, (x, y), d in got:
            assert type(t) is int and type(x) is int and type(y) is int
            assert d is UNREACHABLE or type(d) is int

    def test_equality_in_both_directions(self, out):
        records, want = out.records, tuple_records(out)
        again = ssrp(build_oracle(ragged_multigraph(300, 200, 1), 0)).records
        assert records == want and want == records
        assert records == again and again == records
        assert not records != want and not records != again
        changed = [want[0][:2] + (12345,)] + want[1:]
        assert records != changed and changed != records
        assert records != want[:-1] and want[:-1] != records
        assert records != SsrpOutput(changed).records
        assert records != tuple(want)
        assert out.first_difference(SsrpOutput(want)) is None
        assert out.first_difference(SsrpOutput(want[:9] + [want[9][:2] + (54321,)] + want[10:])) == 9
        assert out.first_difference(SsrpOutput(want[:-1])) == len(want) - 1
        assert SsrpOutput(want + want[:1]).first_difference(out) == len(want)
        with pytest.raises(TypeError):
            hash(records)

    def test_random_sample(self, out):
        want = tuple_records(out)
        picked = random.Random(3).sample(out.records, 50)
        assert len(picked) == 50 and all(r in want for r in picked)
        assert picked == random.Random(3).sample(want, 50)

    def test_a_list_of_tuples_round_trips(self, out):
        records = list(out.records)
        again = SsrpOutput(records)
        assert again.records == out.records and again.records == records
        assert again.to_tsv() == out.to_tsv()
        assert out.records + [(0, (0, 1), 99)] == records + [(0, (0, 1), 99)]
        assert [(0, (0, 1), 99)] + out.records == [(0, (0, 1), 99)] + records

    def test_records_no_tree_made_read_back(self):
        # edges whose upper end is not a function of the lower one, and
        # negative ids, cannot share one tuple per lower vertex
        for records in (
            [(0, (5, 1), 3), (1, (6, 1), UNREACHABLE), (1, (5, 1), 0)],
            [(2, (1, -1), 2), (-3, (-4, 0), UNREACHABLE)],
        ):
            out = SsrpOutput(records)
            assert list(out.records) == records and out.records == records
            assert [out.records[i] for i in range(len(records))] == records

    def test_columns_are_read_only(self, out):
        for column in (out.t, out.x, out.y, out.dist):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 1
        mine = np.arange(3, dtype=np.int64)
        SsrpOutput.from_columns(mine, mine, mine, mine)
        assert mine.flags.writeable

    def test_no_records(self):
        for out in (SsrpOutput(), ssrp(build_oracle(Graph.from_pairs(3, [(1, 2)]), 0))):
            assert len(out.records) == 0 and list(out.records) == [] and out.records == []
            assert out.to_tsv() == ""
            with pytest.raises(IndexError):
                out.records[0]

    def test_distances_near_inf_read_back_exactly(self):
        g = heavy_cycle()
        out = ssrp(build_oracle(g, 0))
        assert out.records == brute_ssrp(g, 0).records
        assert list(out.records) == [
            (1, (0, 1), 2**62 - 2),
            (2, (0, 1), 2**62 - 3),
            (2, (1, 2), 2**62 - 3),
            (3, (0, 1), 2**62 - 4),
            (3, (1, 2), 2**62 - 4),
            (3, (2, 3), 2**62 - 4),
            (4, (0, 1), 2**62 - 4),
            (4, (1, 2), 2**62 - 4),
            (4, (2, 3), 2**62 - 4),
            (4, (3, 4), UNREACHABLE),
        ]
        assert out.dist[-1] == INF and out.records[-1][2] is UNREACHABLE
        assert out.to_tsv().splitlines()[:1] == ["1\t0\t1\t4611686018427387902"]
        assert out.to_tsv().splitlines()[-1:] == ["4\t3\t4\tINF"]
        assert SsrpOutput(list(out.records)).records == out.records


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 10**6), st.data())
def test_records_view_equals_brute_force_on_ragged_multigraphs(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    s = data.draw(st.integers(0, n - 1))
    out, want = ssrp(build_oracle(g, s)), brute_ssrp(g, s)
    assert list(out.records) == want.records
    assert list(out.records) == tuple_records(want)
    assert out.to_tsv() == want.to_tsv()


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 40), st.integers(0, 30), st.integers(0, 10**6))
def test_query_equals_brute_everywhere(n, extra, seed):
    g = tree_plus_chords(n, extra, seed)
    oracle = build_oracle(g, 0)
    for t, pair, eid in all_fault_pairs(oracle):
        assert query(oracle, t, pair).distance == brute_query(g, 0, t, eid)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_disconnected_multigraphs_match_brute(n, extra, seed, data):
    # a fault on a doubled pair removes the tree copy, the copy whose loss
    # costs the most, so the answer is the max over the copies
    g = ragged_multigraph(n, extra, seed)
    s = data.draw(st.integers(0, n - 1))
    oracle = build_oracle(g, s)
    without = [_sweep(g, s, (eid,))[0] for eid in range(g.m)]
    for e in g.edges:
        copies = g.edge_ids_between(e.u, e.v)
        for t in range(g.n):
            want = max(without[c][t] for c in copies)
            assert query(oracle, t, (e.u, e.v)).distance == want, (s, t, (e.u, e.v))
    assert ssrp(oracle).records == brute_ssrp(g, s).records


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_loaded_oracle_answers_like_the_built_one(n, extra, seed, data):
    g = ragged_multigraph(n, extra, seed)
    s = data.draw(st.integers(0, n - 1))
    built = build_oracle(g, s)
    for node in built.nodes():
        # the store gives original edges slots ebase + eid
        virtual = [e.virtual for e in node.graph.edges]
        assert virtual == sorted(virtual), "original edges come first"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.oracle"
        save_oracle(built, path)
        loaded = load_oracle(path)
    for e in g.edges:
        for t in range(g.n):
            want = query(built, t, (e.u, e.v))
            got = query(loaded, t, (e.u, e.v))
            assert got == want, (s, t, (e.u, e.v))
            d = got.distance
            assert d is UNREACHABLE or (type(d) is int and 0 <= d < 2**62)
    records = ssrp(loaded).records
    assert records == ssrp(built).records
    assert all(d is UNREACHABLE or d < 2**62 for _, _, d in records)


def test_separate_builds_dump_identical_bytes():
    families = set()
    for label, g, s in verify_corpus(seed=8, count=14, max_n=60):
        families.add(label.split("(")[0])
        assert dump_oracle(build_oracle(g, s)) == dump_oracle(build_oracle(g, s)), label
    assert len(families) == 7


# SHA-256 of dump_oracle for the first graph of each verify_corpus family at
# seed 11. A change that leaves the file format alone must leave these bytes
# alone too.
PINNED_DUMPS = {
    "tree": "ae07043120d74b61a3aa8d58edbf611e83ab0308c9f1a406140e44091b2daf65",
    "tree+n/4": "5f4ca19910095cc86dc17fcb16e7fad394b38f6d3b58d0eb1b8518abf814a5d0",
    "tree+n": "1c10bd70a1c50116d20da458322f62f9e0f6cb6463e31144d60d2567cee1d01b",
    "tree+dense": "665525f4832c2792eb345ad282cff61e031195f45ba8bd3020855c245d0650e5",
    "grid": "0aa7eceb7a6ce368ddd79dd1162bc8c1dc6c8dd8da9919341772cdd37fe58bd8",
    "gadget": "a31a2574430d145e48bd44cc87049e50479c35242fb92b7201f6345fbe2985df",
    "ragged": "31a3bb66986d2f098bec1916b69b6bf313fb445231b903c18bca005cc36b2f0f",
}


def test_dump_bytes_are_pinned():
    got = {
        label.split("(")[0]: hashlib.sha256(dump_oracle(build_oracle(g, s))).hexdigest()
        for label, g, s in verify_corpus(seed=11, count=7, max_n=60)
    }
    assert got == PINNED_DUMPS


def zero_weighted_chords(n: int, chords: int, seed: int) -> Graph:
    """tree_plus_chords with weights 0-3 taken from the edge id; 614 of the
    1535 edges of (512, 1024, 5) weigh 0."""
    base = tree_plus_chords(n, chords, seed)
    return with_weights(base, [(7 * eid + eid // 5) % 4 for eid in range(base.m)])


# The same pins where departing segments grow long and equal lengths tie:
# nested_arcs(32), and a weighted tree_plus_chords with zero weights.
PINNED_DUMPS_AT_SCALE = {
    "arcs(32)": "eb03659d523094f020070cf5cd8950c90bd6055348faab226fe58633647b4514",
    "chords(512)": "051b6079e28e753ff8377c9ef10b93eb643dfb4f8c3ae4003cd551df90fdd3ec",
}


def at_scale_graphs() -> dict[str, Graph]:
    return {"arcs(32)": nested_arcs(32)[0], "chords(512)": zero_weighted_chords(512, 1024, 5)}


def test_dump_bytes_are_pinned_at_scale():
    got = {
        label: hashlib.sha256(dump_oracle(build_oracle(g, 0))).hexdigest()
        for label, g in at_scale_graphs().items()
    }
    assert got == PINNED_DUMPS_AT_SCALE


def store_digest(store: QueryStore) -> str:
    """SHA-256 of the store's arrays in TABLE order, each as its typecode,
    its length and its bytes; ``sbase``, which format SDO10 added, is left
    out."""
    digest = hashlib.sha256()
    for name, a in store.arrays():
        if name != "sbase":
            digest.update(a.typecode.encode() + len(a).to_bytes(8, "little"))
            digest.update(a)
    return digest.hexdigest()


# store_digest of the loaded store for the graphs of PINNED_DUMPS and
# PINNED_DUMPS_AT_SCALE. These were taken from format SDO11's stores, over
# the arrays that TABLE keeps since format SDO12 dropped ``left``, ``right``
# and ``vsep``, and no change of the file format alone may move them: a
# load must give the store that queries walk, whatever the file holds.
PINNED_STORES = {
    "tree": "10d67730d772878926046074ee066e3046cbf9678be533ecbf0850ea18007ce7",
    "tree+n/4": "914ebe1f9f34a54bc9365f743bbf3815d28a704571945a0f433f1a95301d630d",
    "tree+n": "61a3b8437f25a33e13ac91c04dedcfc92aabd0fe3fc34d470ad8e9e7d75c908c",
    "tree+dense": "841c428c8b6010ffba36768188c5b23949287a55056f753afb3db3ee4e854532",
    "grid": "4f8337134f3279bb8c5fec1b239f7caeeca3675b0274075f209b9740e367fbf6",
    "gadget": "48020900cac613e9f50909b23578cd65eaa3f5f4a83a6b2d91154ae63e5dfa85",
    "ragged": "b371dcab6bde4d0e9e3d5d24264515c9bc1a69782597470f6f9a20c69b0294aa",
    "arcs(32)": "afbeeb45676da97a2d9f8ac054e9ef6ef9706a0403e39c6c6a25736f2fafbe55",
    "chords(512)": "d47cef757b70d02297e54e91508676aa4b40d6d769cb10c0ce9838320d3e38d0",
}


def test_loaded_stores_are_pinned(tmp_path):
    graphs = {label.split("(")[0]: (g, s) for label, g, s in verify_corpus(seed=11, count=7, max_n=60)}
    graphs.update((label, (g, 0)) for label, g in at_scale_graphs().items())
    path = tmp_path / "g.oracle"
    got = {}
    for label, (g, s) in graphs.items():
        save_oracle(build_oracle(g, s), path)
        got[label] = store_digest(load_oracle(path).store)
    assert got == PINNED_STORES


# SHA-256 of ssrp(...).to_tsv(): the records and their text. A change to how
# ssrp builds or formats its records must leave these bytes alone. The
# ragged graph leaves 16 vertices unreached and 42 records at INF; the
# relabelled arcs (relabel(..., 1), below) search departing segments of up
# to 8 and 11 entries.
PINNED_SSRP_TSV = {
    "arcs(32)": "44ba1893356b150fac2ccfabcd9c901cceb2bbab91054f9637615d270e1be0c3",
    "chords(512)": "7c9822eb71ade8e784b53d9dcaede01be1f7260cb556c3c6d4771bd002093a2d",
    "ragged(300)": "8d147c8ee555553b94a49b39372aa8450732f66efbb980dc93111611803d260c",
    "relabelled arcs(24)": "9484178ee4650dd5370f884559083b5f6b19781823841d06a4c3c2d1e39846cf",
    "relabelled arcs(32)": "3d43c71dc31f9f6849a664ad7e35a09506b68730e4f6ea02b08c425601fb2cd5",
}


def test_ssrp_tsv_is_pinned(long_segment_graphs):
    graphs = {
        "arcs(32)": (nested_arcs(32)[0], 0),
        "chords(512)": (zero_weighted_chords(512, 1024, 5), 0),
        "ragged(300)": (ragged_multigraph(300, 200, 1), 0),
        **{f"relabelled arcs({k})": graph for k, graph in long_segment_graphs.items()},
    }
    got = {
        label: hashlib.sha256(ssrp(build_oracle(g, s)).to_tsv().encode()).hexdigest()
        for label, (g, s) in graphs.items()
    }
    assert got == PINNED_SSRP_TSV


def test_loaded_oracle_has_no_recursion_tree():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.oracle"
        save_oracle(build_oracle(path_graph(5), 0), path)
        loaded = load_oracle(path)
    with pytest.raises(ValueError, match="keeps no recursion tree"):
        loaded.nodes()


def full_sweep(g, s):
    """Every edge against every destination, on and off the tree path."""
    oracle = build_oracle(g, s)
    for eid, e in enumerate(g.edges):
        for t in range(g.n):
            got = query(oracle, t, (e.u, e.v)).distance
            assert got == brute_query(g, s, t, eid), (s, t, (e.u, e.v))


@pytest.mark.parametrize(
    "make, source",
    [
        (lambda: path_graph(30), 0),
        (lambda: path_graph(30), 15),
        (lambda: Graph.from_pairs(16, [(0, i) for i in range(1, 16)]), 0),
        (lambda: Graph.from_pairs(16, [(0, i) for i in range(1, 16)]), 7),
        (
            lambda: Graph.from_pairs(
                6, [(a, b) for a in range(6) for b in range(a + 1, 6)]
            ),
            3,
        ),
        (lambda: tree_plus_chords(24, 12, 4242), 11),
    ],
)
def test_all_edges_all_destinations(make, source):
    full_sweep(make(), source)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_weighted_inputs_answer_exactly(n, extra, seed, data):
    # the library API takes any non-negative integer weights, zero included
    base = tree_plus_chords(n, extra, seed)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=base.m, max_size=base.m))
    g = with_weights(base, weights)
    oracle = build_oracle(g, 0)
    for eid, e in enumerate(g.edges):
        want = _sweep(g, 0, (eid,))[0]
        for t in range(n):
            assert query(oracle, t, (e.u, e.v)).distance == want[t], (t, eid)
    assert ssrp(oracle).records == brute_ssrp(g, 0).records


@pytest.mark.parametrize("weight", [2**62, 2**63])
def test_weights_summing_to_inf_are_rejected(weight):
    g = Graph(3, [Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, weight)])
    with pytest.raises(ValueError, match="sum below"):
        build_oracle(g, 0)


def test_weights_summing_just_below_inf_answer_exactly():
    g = Graph(3, [Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 2**62 - 3)])
    oracle = build_oracle(g, 0)
    assert query(oracle, 2, (1, 2)).distance == brute_query(g, 0, 2, 1) == 2**62 - 3
    assert ssrp(oracle).records == brute_ssrp(g, 0).records


def assert_ssrp_matches_the_scalar_descent(oracle, build):
    """Every ssrp record, answered by the batched descent, and
    ``_query_node`` run for that record alone both equal the reference walk
    in node ids on ``build``, the oracle's store as its build left it,
    whose child links are not yet rebased to slots."""
    store = oracle.store
    tables = walk_tables(build)
    for t, (x, y), d in ssrp(oracle).records:
        eid = store.parent_edge[y]
        want, depth = node_walk(build, tables, t, eid, store.dist[t], 0)
        assert _query_node(store, t, eid, store.dist[t], 0) == (want, depth), (t, x, y)
        assert d == (UNREACHABLE if want >= INF else want), (t, x, y)
        assert d is UNREACHABLE or d >= 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_batched_descent_equals_the_scalar_one(n, extra, seed, data):
    base = ragged_multigraph(n, extra, seed)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=base.m, max_size=base.m))
    g = with_weights(base, weights)
    source = data.draw(st.integers(0, n - 1))
    built = build_oracle(g, source)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.oracle"
        save_oracle(built, path)
        loaded = load_oracle(path)
    build = build_store(g, source)[1]
    assert_ssrp_matches_the_scalar_descent(built, build)
    assert_ssrp_matches_the_scalar_descent(loaded, build)


@pytest.mark.parametrize(
    "make", [lambda: tree_plus_chords(4096, 8192, 42), lambda: nested_arcs(32)[0]],
    ids=["chords(4096)", "arcs(32)"],
)
def test_batched_descent_equals_the_scalar_one_at_scale(make):
    # beyond the drawn graphs' 30 vertices: 4096 vertices, and departing
    # segments of up to 10 entries on the arcs
    g = make()
    assert_ssrp_matches_the_scalar_descent(build_oracle(g, 0), build_store(g)[1])


SEGMENT_WIDTHS = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_segment_bisection_equals_bisect_right(data):
    # strictly rising segments with gaps of at least 2, so a position falls
    # below, on, between and above their entries; the last one ends at the
    # end of dsr, where probes past a short segment clip
    widths = data.draw(st.lists(st.sampled_from(SEGMENT_WIDTHS), max_size=5))
    widths.append(data.draw(st.sampled_from(SEGMENT_WIDTHS[1:])))
    dsr, bounds = [], []
    for w in widths:
        start = data.draw(st.integers(-1, 40))
        gaps = data.draw(st.lists(st.integers(2, 4), min_size=w, max_size=w))
        bounds.append((len(dsr), len(dsr) + w))
        dsr += list(accumulate(gaps, initial=start))[1:]
    cases = [
        (lo, hi, at)
        for lo, hi in bounds
        for at in sorted({a + d for a in [0, *dsr[lo:hi]] for d in (-1, 0, 1)})
    ]
    cases = data.draw(st.permutations(cases))
    lo, hi, at = (np.array(column, dtype=np.int32) for column in zip(*cases))
    got = query_module._bisect_segments(np.array(dsr, dtype=np.int32), lo, hi, at)
    assert got.dtype == np.int64
    assert got.tolist() == [bisect.bisect_right(dsr, at, lo, hi) for lo, hi, at in cases]


def test_inf_candidates_saturate_in_the_batched_descent():
    # sr and dist_r may both hold INF; their sum must stay INF, not wrap
    # around int64 to a negative length. The root's slots start at 0, and
    # both stores change alike.
    g = tree_plus_chords(60, 40, 5)
    oracle = build_oracle(g, 0)
    records, build = build_store(g)
    store = oracle.store
    t, (x, y), _ = next(
        r for r in ssrp(oracle).records if store.kind[store.parent_edge[r[1][1]]] == PRIMARY
    )
    eid = store.parent_edge[y]
    at = store.esr[eid]
    assert at == build.esr[eid] == sr_base(records, 0) + primary_positions(build, 0)[eid]
    for s in (store, build):
        s.sr[at] = INF
        s.dist_r[t] = INF
    assert checked(store).arrays() == store.arrays()
    assert_ssrp_matches_the_scalar_descent(oracle, build)


def test_the_store_holds_only_its_file_arrays():
    # no state is kept beside the arrays, so a loaded store equals a built
    # one; vside, which the build appends and the file holds instead of the
    # links, is empty once they are derived
    assert QueryStore.__slots__ == tuple(dict.fromkeys(name for name, _ in TABLE + FILE))
    oracle = build_oracle(tree_plus_chords(300, 600, 7), 0)
    faults = [(t, e) for t, e, _ in all_fault_pairs(oracle)]
    before = dump_oracle(oracle)
    want = [query(oracle, t, e) for t, e in faults]
    records = ssrp(oracle).records
    assert dump_oracle(oracle) == before
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.oracle"
        save_oracle(oracle, path)
        loaded = load_oracle(path)
    assert loaded.store.arrays() == oracle.store.arrays()
    assert not oracle.store.vside and not loaded.store.vside
    assert [query(loaded, t, e) for t, e in faults] == want
    assert ssrp(loaded).records == records


def test_ssrp_equals_brute_force_at_n_1024():
    g = tree_plus_chords(1024, 2048, 42)
    records = ssrp(build_oracle(g, 0)).records
    assert len(records) == 4060
    assert records == brute_ssrp(g, 0).records


@pytest.fixture(scope="module")
def chunk_oracles():
    return {
        "arcs(32)": build_oracle(nested_arcs(32)[0], 0),
        "chords(4096)": build_oracle(tree_plus_chords(4096, 8192, 42), 0),
    }


class TestChunkedDescent:
    """A large ssrp() call descends in one chunk per usable CPU: the calling
    thread takes the first, a thread each the others."""

    @pytest.fixture
    def report_cpus(self, monkeypatch):
        """Let a chunk be as small as 64 records; returns a setter for the
        CPUs the host reports, which returns the threads started."""
        monkeypatch.setattr(query_module, "CHUNK_MIN_RECORDS", 64)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)

        def report(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)), raising=False)
            return started

        return report

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """The record count of every ``_descend`` call."""
        sizes = []
        descend = query_module._descend

        def sized(store, t, eid, d0):
            sizes.append(len(t))
            return descend(store, t, eid, d0)

        monkeypatch.setattr(query_module, "_descend", sized)
        return sizes

    @pytest.mark.parametrize("label", ["arcs(32)", "chords(4096)"])
    def test_chunks_give_the_one_chunk_records(self, label, chunk_oracles, report_cpus, chunk_sizes):
        oracle = chunk_oracles[label]
        report_cpus(1)
        one = ssrp(oracle).records
        assert chunk_sizes == [len(one)]
        # more chunk threads than the host's cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (2, 4):
                report_cpus(cpus)
                chunk_sizes.clear()
                assert ssrp(oracle).records == one
                assert len(chunk_sizes) == cpus and sum(chunk_sizes) == len(one)
                assert max(chunk_sizes) - min(chunk_sizes) <= 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("where", ["calling thread", "chunk threads"])
    def test_a_failing_chunk_fails_ssrp(self, where, chunk_oracles, report_cpus, monkeypatch):
        report_cpus(4)
        baseline = threading.active_count()
        descend = query_module._descend

        def fails(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (where == "calling thread"):
                raise ArithmeticError(f"injected in the {where}")
            return descend(*args)

        monkeypatch.setattr(query_module, "_descend", fails)
        with pytest.raises(ArithmeticError, match=f"injected in the {where}"):
            ssrp(chunk_oracles["arcs(32)"])
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_call(self, chunk_oracles, report_cpus):
        baseline = threading.active_count()
        for cpus in (2, 4, 8):
            started = report_cpus(cpus)
            for oracle in chunk_oracles.values():
                started.clear()
                ssrp(oracle)
                # a pool thread done with its chunk may take the next one
                assert 1 <= len(started) <= cpus - 1
                assert threading.active_count() == baseline
                assert not any(thread.is_alive() for thread in started)

    def test_one_cpu_starts_no_thread(self, chunk_oracles, report_cpus):
        started = report_cpus(1)
        for oracle in chunk_oracles.values():
            ssrp(oracle)
        assert started == []

    def test_chunks_get_the_least_records(self, chunk_oracles, report_cpus, chunk_sizes, monkeypatch):
        # arcs(32) has 32,281 records: three chunks of at least 10,000 on
        # four CPUs, and one chunk where two could not get 20,000 each
        started = report_cpus(4)
        for least, sizes in ((10_000, [10_760, 10_760, 10_761]), (20_000, [32_281])):
            monkeypatch.setattr(query_module, "CHUNK_MIN_RECORDS", least)
            started.clear()
            chunk_sizes.clear()
            ssrp(chunk_oracles["arcs(32)"])
            assert sorted(chunk_sizes) == sizes
            assert min(len(sizes) - 1, 1) <= len(started) <= len(sizes) - 1


@pytest.mark.parametrize(
    "make", [lambda: nested_arcs(16)[0], lambda: tree_plus_chords(512, 1024, 3)],
    ids=["arcs(16)", "chords(512)"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_labels_do_not_change_answers(make, seed):
    # a simple graph names each edge by its ends, so a record of the
    # relabelled oracle names the same fault of the original graph; the two
    # source trees may differ in ties, but replacement distances cannot
    g = make()
    assert len({(min(e.u, e.v), max(e.u, e.v)) for e in g.edges}) == g.m
    moved, perm = relabel(g, seed)
    back = [0] * g.n
    for old, new in enumerate(perm):
        back[new] = old
    original = build_oracle(g, 0)
    records = ssrp(build_oracle(moved, perm[0])).records
    assert len(records) == len(ssrp(original).records)
    for t, (x, y), d in records:
        assert query(original, back[t], (back[x], back[y])).distance == d, (t, x, y)


@pytest.fixture(scope="module")
def long_segment_graphs():
    """Relabelled nested_arcs(24) and (32), each with its relabelled source."""
    graphs = {}
    for k in (24, 32):
        g, perm = relabel(nested_arcs(k)[0], 1)
        graphs[k] = g, perm[0]
    return graphs


@pytest.mark.parametrize("k, longest", [(24, 8), (32, 11)])
def test_ssrp_on_long_departing_segments_equals_query(k, longest, long_segment_graphs, monkeypatch):
    g, source = long_segment_graphs[k]
    oracle = build_oracle(g, source)
    searched = []
    bisect_segments = query_module._bisect_segments

    def widest(dsr, lo, hi, at):
        searched.append(int((hi - lo).max(initial=0)))
        return bisect_segments(dsr, lo, hi, at)

    monkeypatch.setattr(query_module, "_bisect_segments", widest)
    records = ssrp(oracle).records
    assert max(searched) == int(np.diff(oracle.store.dep_off).max()) == longest
    for t, (x, y), d in records:
        assert query(oracle, t, (x, y)).distance == d, (t, x, y)
    if k == 24:
        assert records == brute_ssrp(g, source).records
