import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdo.baseline import brute_departing, brute_query, brute_ssrp
from sdo.departing import build_dep
from sdo.generators import nested_arcs, ragged_multigraph, tree_plus_chords
from sdo.graphs import Graph, UNREACHABLE
from sdo.oracle import build_oracle
from sdo.query import query, ssrp
from sdo.spt import dijkstra, tree_path

from conftest import best_departing, dep_segment, naive_lca, with_weights


def dep_for(g: Graph, s: int, r: int):
    spt = dijkstra(g, s)
    path = tree_path(spt, s, r)
    dep, stats = build_dep(g, spt, path)
    return spt, path, dep, stats


def check_against_brute(g: Graph, s: int, r: int):
    spt, path, dep, _ = dep_for(g, s, r)
    brute = brute_departing(g, spt, path)
    on_path = set(path.vertices)
    for t in range(g.n):
        if t in on_path:
            continue
        for pos in range(len(path.edge_ids)):
            assert best_departing(dep_segment(dep, t), pos) == brute[t][pos], (t, pos)
    return spt, path, dep


class TestBuildDep:
    def test_source_adjacent_destination_single_entry(self):
        # chain 0-1-2-3 is the primary path, destination 4 hangs off the source
        g = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        _, path, dep, _ = dep_for(g, 0, 3)
        lengths, depths = dep_segment(dep, 4)
        assert len(lengths) == 1
        assert lengths[0] == 1
        assert depths[0] == 0 and path.vertices[depths[0]] == 0

    def test_equal_length_keeps_higher_departure(self):
        # primary 0-1-2; destination 4 reachable at length 2 both through the
        # path vertex 1 and through off-path 3 hanging from the source: only
        # the higher departure survives
        g = Graph.from_pairs(5, [(0, 1), (1, 2), (1, 4), (0, 3), (3, 4)])
        spt, path, dep, _ = dep_for(g, 0, 2)
        assert path.vertices == [0, 1, 2]
        lengths, depths = dep_segment(dep, 4)
        assert len(lengths) == 1
        assert lengths[0] == 2
        assert depths[0] == 0 and path.vertices[depths[0]] == 0

    def test_last_entry_is_shortest_with_high_departure(self):
        # by rising departure position the last entry is the shortest, t's
        # tree route, departing at or above where t's tree path leaves r's
        for seed in range(8):
            g = tree_plus_chords(25, 12, seed * 13 + 1)
            spt = dijkstra(g, 0)
            r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
            path = tree_path(spt, 0, r)
            dep, _ = build_dep(g, spt, path)
            on_path = set(path.vertices)
            for t in range(g.n):
                if t in on_path:
                    continue
                lengths, depths = dep_segment(dep, t)
                assert lengths[-1] == spt.dist[t]
                assert depths[-1] <= path.vertices.index(naive_lca(spt, t, r))

    def test_double_monotonicity(self):
        for seed in range(10):
            g = tree_plus_chords(30, 18, seed * 7 + 3)
            spt = dijkstra(g, 0)
            r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
            dep, _ = build_dep(g, spt, tree_path(spt, 0, r))
            assert int(dep.counts.sum()) == len(dep.lengths) == len(dep.dp_depths)
            for t, own in enumerate(dep):
                lengths, depths = map(list, dep_segment(dep, t))
                assert list(own) == lengths
                assert all(a > b for a, b in zip(lengths, lengths[1:]))
                assert all(a < b for a, b in zip(depths, depths[1:]))

    def test_heap_accounting_bound(self):
        g = tree_plus_chords(40, 30, 99)
        spt = dijkstra(g, 0)
        r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
        path = tree_path(spt, 0, r)
        _, stats = build_dep(g, spt, path)
        max_degree = max(len(a) for a in g.adj)
        budget = (stats.accepted + len(path.vertices)) * max_degree
        assert stats.pops <= stats.pushes <= budget


def longest_stored_segment(oracle) -> int:
    off = oracle.store.dep_off
    return max(b - a for a, b in zip(off, off[1:]))


class TestStoreSegments:
    """The query store's binary search over departing segments longer than
    the few entries random sparse graphs give."""

    @pytest.mark.parametrize("k, longest", [(4, 3), (8, 4), (16, 6)])
    def test_nested_arcs_ssrp_equals_brute(self, k, longest):
        g, _ = nested_arcs(k)
        oracle = build_oracle(g, 0)
        assert longest_stored_segment(oracle) >= longest
        assert ssrp(oracle).records == brute_ssrp(g, 0).records

    def test_every_path_fault_to_the_arcs_destination(self):
        k = 32
        g, t = nested_arcs(k)
        oracle = build_oracle(g, 0)
        assert longest_stored_segment(oracle) >= 10
        for j in range(k):
            eid = g.edge_ids_between(j, j + 1)[0]
            assert query(oracle, t, (j, j + 1)).distance == brute_query(g, 0, t, eid), j


class TestBruteDeparting:
    def test_bridge_only_access_below_fault(self):
        # destination 3 hangs under the path bottom; any departure above the
        # first edge dead-ends
        g = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        spt = dijkstra(g, 0)
        path = tree_path(spt, 0, 2)
        brute = brute_departing(g, spt, path)
        assert brute[3] == [UNREACHABLE, UNREACHABLE]

    def test_source_adjacent_is_one_everywhere(self):
        g = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        spt = dijkstra(g, 0)
        path = tree_path(spt, 0, 3)
        brute = brute_departing(g, spt, path)
        assert brute[4] == [1, 1, 1]


class TestEquivalence:
    def test_twenty_five_random_graphs(self):
        for seed in range(25):
            n = 10 + seed * 2
            g = tree_plus_chords(n, n // 2 + seed % 7, seed * 31 + 5)
            spt = dijkstra(g, 0)
            r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
            check_against_brute(g, 0, r)

    def test_nested_arcs_every_arc_is_a_candidate(self):
        g, t = nested_arcs(6)
        spt, path, dep = check_against_brute(g, 0, 6)
        lengths, depths = dep_segment(dep, t)
        assert len(lengths) == 7
        assert list(depths) == [0, 1, 2, 3, 4, 5, 6]

    def test_sublinear_growth_on_nested_arcs(self):
        # quadrupling the vertex count must grow the largest array by no more
        # than about 2.5x (square-root behavior; linear would be 4x)
        sizes = {}
        for k in (8, 16, 32):
            g, t = nested_arcs(k)
            spt = dijkstra(g, 0)
            dep, _ = build_dep(g, spt, tree_path(spt, 0, k))
            sizes[g.n] = max(len(a) for a in dep)
        ns = sorted(sizes)
        assert ns[1] / ns[0] > 3 and ns[2] / ns[1] > 3
        assert sizes[ns[1]] <= 2.5 * sizes[ns[0]]
        assert sizes[ns[2]] <= 2.5 * sizes[ns[1]]


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 24), st.integers(0, 15), st.integers(0, 10**6), st.booleans(), st.data())
def test_matches_brute_departing(n, extra, seed, ragged, data):
    # ragged: weights 0-3 on a multigraph, where zero-weight edges give
    # equal lengths at several departure positions
    if ragged:
        base = ragged_multigraph(n, extra, seed)
        g = with_weights(base, data.draw(st.lists(st.integers(0, 3), min_size=base.m, max_size=base.m)))
    else:
        g = tree_plus_chords(n, extra, seed)
    spt = dijkstra(g, 0)
    r = max(range(g.n), key=lambda v: (spt.depth[v], -v))
    check_against_brute(g, 0, r)


# scripts/dep_growth.py --sizes 64,128 --seeds 11, as it printed when it read
# DepTable's shortest-first copies: at the root, the largest departing count
# of each random sparse graph and the arcs' destination's count
DEP_GROWTH_TEXT = """\
random sparse (m ~ 3n), max |Dep| at the root over seeds:
  n=    64  max|Dep|=2
  n=   128  max|Dep|=2
nested arcs, |Dep(t)| against sqrt(n):
  n=    82  |Dep(t)|=   9  sqrt(n)=   9.1
  n=   290  |Dep(t)|=  17  sqrt(n)=  17.0
  n=  1090  |Dep(t)|=  33  sqrt(n)=  33.0
  n=  4226  |Dep(t)|=  65  sqrt(n)=  65.0
"""


def test_dep_growth_script_prints_its_pinned_text():
    script = Path(__file__).resolve().parent.parent / "scripts" / "dep_growth.py"
    argv = [sys.executable, str(script), "--sizes", "64,128", "--seeds", "11"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert done.stdout == DEP_GROWTH_TEXT
