import pickle

import pytest
from hypothesis import given, strategies as st

from sdo.graphs import (
    Edge,
    Graph,
    GraphFormatError,
    UNREACHABLE,
    format_graph,
    is_unreachable,
    parse_graph,
)


class TestUnreachable:
    def test_saturating_addition(self):
        assert UNREACHABLE + 5 is UNREACHABLE
        assert 5 + UNREACHABLE is UNREACHABLE
        assert UNREACHABLE + UNREACHABLE is UNREACHABLE

    def test_min_ignores_it(self):
        assert min(UNREACHABLE, 7) == 7
        assert min(7, UNREACHABLE) == 7
        assert min(UNREACHABLE, UNREACHABLE) is UNREACHABLE

    def test_ordering(self):
        assert not (UNREACHABLE < 10**9)
        assert UNREACHABLE > 10**9
        assert UNREACHABLE >= UNREACHABLE
        assert UNREACHABLE <= UNREACHABLE
        assert sorted([UNREACHABLE, 3, 1]) == [1, 3, UNREACHABLE]

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(UNREACHABLE)) is UNREACHABLE
        assert is_unreachable(pickle.loads(pickle.dumps([UNREACHABLE]))[0])


class TestGraph:
    def test_adjacency_is_doubly_linked(self):
        g = Graph.from_pairs(3, [(0, 1), (1, 2)])
        for eid, e in enumerate(g.edges):
            assert eid in g.adj[e.u]
            assert eid in g.adj[e.v]

    def test_multigraph_parallel_edges(self):
        g = Graph(2, [Edge(0, 1), Edge(0, 1, 5, virtual=True)])
        assert g.edge_ids_between(0, 1) == [0, 1]
        assert g.m == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph.from_pairs(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_pairs(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(2, [Edge(0, 1, -1)])
        for weight in (1.5, "2"):
            with pytest.raises(ValueError, match="non-integer weight on edge"):
                Graph(2, [Edge(0, 1, weight)])
        for e in (Edge(0.5, 1), Edge(1.0, 0), Edge(True, 0)):
            with pytest.raises(ValueError, match="non-integer endpoint on edge"):
                Graph(2, [e])


class TestTextFormat:
    def test_round_trip(self):
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g2 = parse_graph(format_graph(g))
        assert g2.n == g.n
        assert [(e.u, e.v) for e in g2.edges] == [(e.u, e.v) for e in g.edges]

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n3 2\n\n0 1  # chain\n1 2\n")
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("3\n", 1),
            ("3 1\n0 5\n", 2),
            ("3 1\n0 zero\n", 2),
            ("3 1\n1 1\n", 2),
            ("2 1\n0 1 9\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(GraphFormatError, match=f"line {lineno}"):
            parse_graph(text)

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced"):
            parse_graph("3 2\n0 1\n")

    def test_virtual_edges_never_serialized(self):
        g = Graph(2, [Edge(0, 1, 3, virtual=True)])
        with pytest.raises(ValueError, match=r"edge 0 \(0, 1\) is virtual"):
            format_graph(g)

    def test_weights_other_than_one_never_serialized(self):
        # the text parses back as unit weights, so a weight would be lost
        g = Graph(3, [Edge(0, 1, 5), Edge(1, 2, 7)])
        with pytest.raises(ValueError, match=r"edge 0 \(0, 1\) has weight 5"):
            format_graph(g)
        g = Graph(3, [Edge(0, 1), Edge(1, 2, 0)])
        with pytest.raises(ValueError, match=r"edge 1 \(1, 2\) has weight 0"):
            format_graph(g)


@given(st.integers(2, 30), st.integers(0, 20), st.integers(0, 10**6))
def test_parse_format_round_trip_random(n, extra, seed):
    from sdo.generators import tree_plus_chords

    g = tree_plus_chords(n, extra, seed)
    g2 = parse_graph(format_graph(g))
    assert [(e.u, e.v) for e in g2.edges] == [(e.u, e.v) for e in g.edges]
