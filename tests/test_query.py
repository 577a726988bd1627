import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdo.baseline import _sweep, brute_query, brute_ssrp
from sdo.generators import ragged_multigraph, tree_plus_chords, verify_corpus
from sdo.graphs import Edge, Graph, UNREACHABLE
from sdo.oracle import build_oracle
from sdo.query import _query_node, query, ssrp
from sdo.serialize import dump_oracle, load_oracle, save_oracle
from sdo.spt import tree_path
from sdo.store import INF, PRIMARY, check

from conftest import path_graph, rejoin_gadget, root_primary_candidates, source_tree


def all_fault_pairs(oracle):
    """Every (t, tree edge above t) of the source tree."""
    spt = source_tree(oracle)
    s = oracle.original_source
    for t in range(oracle.root.graph.n):
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
        own = min(root_primary_candidates(oracle, t, fault))
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
    "tree": "f3b9160d4c834a55e5c13166dae6d7d30439b9b075f56aaa6375e282d7a51936",
    "tree+n/4": "e8ea1c132f7ecfbea25eb1ab1232f7480a601e49dbd97e1c44c12d1f94200eed",
    "tree+n": "0137cb864f1788218a30cffa75889c2d6ecc53421ba8fefa500e9be688800916",
    "tree+dense": "c053e683a3a2b4c4adf16295dbb0bdfee6b6972dcf4784772bf8c40e913a03d7",
    "grid": "c0ede3102c094097fedad1d9cd69de56b7e6e287d173a7027b3002da9afe7e77",
    "gadget": "804455dead7c4e880f820990737409651e88830ad7efc43522e616862fc93904",
    "ragged": "d8e17978f8a4d3a05f7a3a0ca702c4fba7ca7de7299bf763091d4fd41764c503",
}


def test_dump_bytes_are_pinned():
    got = {
        label.split("(")[0]: hashlib.sha256(dump_oracle(build_oracle(g, s))).hexdigest()
        for label, g, s in verify_corpus(seed=11, count=7, max_n=60)
    }
    assert got == PINNED_DUMPS


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
    g = Graph(n, [Edge(e.u, e.v, w) for e, w in zip(base.edges, weights)])
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


def assert_ssrp_matches_the_scalar_descent(oracle):
    """Every ssrp record, answered by the batched descent, equals
    ``_query_node`` run for that record alone on the same store."""
    store = oracle.store
    for t, (x, y), d in ssrp(oracle).records:
        want, _ = _query_node(store, t, store.parent_edge[y], store.dist[t], 0)
        assert d == (UNREACHABLE if want >= INF else want), (t, x, y)
        assert d is UNREACHABLE or d >= 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 30), st.integers(0, 10**6), st.data())
def test_batched_descent_equals_the_scalar_one(n, extra, seed, data):
    base = ragged_multigraph(n, extra, seed)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=base.m, max_size=base.m))
    g = Graph(n, [Edge(e.u, e.v, w) for e, w in zip(base.edges, weights)])
    built = build_oracle(g, data.draw(st.integers(0, n - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.oracle"
        save_oracle(built, path)
        loaded = load_oracle(path)
    assert_ssrp_matches_the_scalar_descent(built)
    assert_ssrp_matches_the_scalar_descent(loaded)


def test_inf_candidates_saturate_in_the_batched_descent():
    # sr and dist_r may both hold INF; their sum must stay INF, not wrap
    # around int64 to a negative length. The root's slots start at 0.
    oracle = build_oracle(tree_plus_chords(60, 40, 5), 0)
    store = oracle.store
    t, (x, y), _ = next(
        r for r in ssrp(oracle).records if store.eside[store.parent_edge[r[1][1]]] == PRIMARY
    )
    store.sr[store.epos[store.parent_edge[y]]] = INF
    store.dist_r[t] = INF
    check(store)
    assert_ssrp_matches_the_scalar_descent(oracle)


def test_ssrp_equals_brute_force_at_n_1024():
    g = tree_plus_chords(1024, 2048, 42)
    records = ssrp(build_oracle(g, 0)).records
    assert len(records) == 4060
    assert records == brute_ssrp(g, 0).records
