"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 1, 3, 5, 6, 7
share one seeded 210-graph corpus spanning every generator family with
n in [5, 120]. All equality criteria are exact; criterion 8 reports timing
violations as warnings instead of failures.
"""

from __future__ import annotations

import math
import random
import time
import warnings

import pytest

from sdo.baseline import _sweep, brute_departing, brute_ssrp
from sdo.generators import path_faults, tree_plus_chords, verify_corpus
from sdo.graphs import UNREACHABLE
from sdo.oracle import build_oracle
from sdo.query import query, ssrp
from sdo.spt import dijkstra, tree_path

from conftest import (
    balanced,
    best_departing,
    build_store,
    distances,
    primary_positions,
    rejoin_gadget,
    root_primary_candidates,
    separator,
    source_tree,
    split_sizes,
    sr_base,
    vertex_segment,
)

CORPUS_SEED = 20240601
CORPUS_COUNT = 210
CORPUS_MAX_N = 120


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def fault_cases(oracle):
    """(t, (x, y), edge id) for every reachable t and tree edge above it."""
    spt = source_tree(oracle)
    s = oracle.original_source
    for t in range(oracle.graph.n):
        if t == s or not spt.reachable(t):
            continue
        path = tree_path(spt, s, t)
        for eid, upper, lower in zip(path.edge_ids, path.vertices, path.vertices[1:]):
            yield t, (upper, lower), eid


@pytest.fixture(scope="session")
def corpus():
    cases = []
    for label, g, s in verify_corpus(CORPUS_SEED, CORPUS_COUNT, CORPUS_MAX_N):
        oracle = build_oracle(g, s)
        cases.append((label, g, s, oracle))
    return cases


def test_criterion_1_exact_oracle_equivalence(corpus):
    graphs = queries = unreachable_hits = 0
    for label, g, s, oracle in corpus:
        graphs += 1
        tables: dict[int, list] = {}
        for t, pair, eid in fault_cases(oracle):
            if eid not in tables:
                tables[eid] = _sweep(g, s, (eid,))[0]
            want = tables[eid][t]
            got = query(oracle, t, pair).distance
            assert got == want, (label, s, t, pair, got, want)
            queries += 1
            if want is UNREACHABLE:
                unreachable_hits += 1
    assert graphs >= 200
    assert unreachable_hits > 0
    _report(
        1,
        True,
        f"{queries} queries on {graphs} graphs match brute force exactly "
        f"({unreachable_hits} unreachable cases included)",
    )


def test_criterion_2_gadget_regression():
    g, t, fault, expected = rejoin_gadget()
    oracle = build_oracle(g, 0)
    eid = g.edge_ids_between(*fault)[0]
    brute = _sweep(g, 0, (eid,))[0][t]
    assert brute == expected
    result = query(oracle, t, fault)
    full = result.distance
    assert full == brute, (full, brute)
    assert result.recursion_depth >= 1, "the answer must come from the left descent"
    own = root_primary_candidates(g, 0, t, fault)
    assert min(own) > brute, "the root's own candidates must miss the answer"
    _report(
        2,
        True,
        f"rejoin gadget answers {full} after the left descent, "
        f"{min(own)} from the root's own candidates (brute force: {brute})",
    )


def test_criterion_3_dep_invariants_and_equivalence(corpus):
    nodes_checked = pairs_checked = 0
    for label, g, s, oracle in corpus:
        # the store's own segments, which a query bisects; dsr holds sr
        # indexes, so a path position is an entry less the node's sbase
        store = oracle.store
        dep_off, dep_len, dsr = store.dep_off, store.dep_len, store.dsr
        for i, node in enumerate(oracle.nodes()):
            if separator(store, i) < 0 or store.sbase[i + 1] == store.sbase[i]:
                continue
            nodes_checked += 1
            path = node.primary_path
            base = store.sbase[i]
            segments = []
            for end in range(store.vbase[i], store.vbase[i + 1]):
                lo, hi = dep_off[end], dep_off[end + 1]
                lengths = dep_len[lo:hi]
                depths = [at - base for at in dsr[lo:hi]]
                for k in range(len(lengths) - 1):
                    assert lengths[k] > lengths[k + 1], (label, end)
                    assert depths[k] < depths[k + 1], (label, end)
                segments.append((lengths, depths))
            spt_s = dijkstra(node.graph, node.source)
            brute = brute_departing(node.graph, spt_s, path)
            on_path = set(path.vertices)
            for t in range(node.graph.n):
                if t in on_path:
                    continue
                for pos, eid in enumerate(path.edge_ids):
                    if node.graph.edges[eid].virtual:
                        continue
                    got = best_departing(segments[t], pos)
                    assert got == brute[t][pos], (label, node.depth, t, pos)
                    pairs_checked += 1
    _report(
        3,
        True,
        f"{nodes_checked} nodes: arrays doubly monotone, "
        f"{pairs_checked} (t, e) pairs equal the departing oracle",
    )


def test_criterion_4_dep_size_sublinearity():
    seeds = (11, 12, 13, 14, 15)
    peak = {}
    t0 = time.perf_counter()
    for n in (64, 256, 1024):
        best = 0
        for seed in seeds:
            g = tree_plus_chords(n, 2 * n, seed)
            store = build_oracle(g, 0).store
            off = store.dep_off[store.vbase[0] : store.vbase[1] + 1]
            best = max(best, max((b - a for a, b in zip(off, off[1:])), default=0))
        peak[n] = best
    elapsed = time.perf_counter() - t0
    assert peak[1024] <= 3 * peak[64], peak
    assert elapsed < 120
    _report(
        4,
        True,
        f"root max |Dep| {peak[64]} -> {peak[256]} -> {peak[1024]} "
        f"across a 16x size growth (limit 3x, {elapsed:.1f}s)",
    )


def test_criterion_5_replacement_table_equivalence(corpus):
    edges_checked = bare_levels = 0
    for label, g, s, oracle in corpus:
        nodes, store = build_store(g, s)
        for i, node in enumerate(nodes):
            if separator(store, i) < 0:
                continue
            path = node.primary_path
            positions = primary_positions(store, i)
            assert positions == {
                eid: pos
                for pos, eid in enumerate(path.edge_ids)
                if not node.graph.edges[eid].virtual
            }, (label, node.depth)
            dist_r = distances(vertex_segment(store, "dist_r", i))
            sr = distances(store.sr[sr_base(nodes, i) : sr_base(nodes, i + 1)])
            if not positions:
                # no fault can land on this path, so it keeps no tables
                tables = (node.sr_replacements, node.dep, node.dep_stats)
                assert tables == (None, None, None), (label, node.depth)
                assert sr == [] and set(dist_r) == {UNREACHABLE}, (label, node.depth)
                bare_levels += 1
                continue
            r = separator(store, i)
            assert dist_r == dijkstra(node.graph, r).dist, (label, node.depth)
            assert sr == distances(node.sr_replacements), (label, node.depth)
            for pos, eid in enumerate(path.edge_ids):
                want = dijkstra(node.graph, node.source, {eid}).dist[r]
                assert sr[pos] == want, (label, node.depth, pos)
                edges_checked += 1
    assert bare_levels > 0
    _report(
        5,
        True,
        f"{edges_checked} primary edges: replacement table equals banned Dijkstra; "
        f"{bare_levels} levels without an input path edge keep no tables",
    )


def test_criterion_6_structural_bounds(corpus):
    splits = 0
    max_query_depth = 0
    for label, g, s, oracle in corpus:
        n_root = oracle.graph.n
        depth_cap = math.ceil(math.log(max(n_root, 2), 1.5)) + 2
        assert oracle.depth <= depth_cap, (label, oracle.depth, depth_cap)
        nodes, store = build_store(g, s)
        for i, node in enumerate(nodes):
            if separator(store, i) < 0:
                continue
            nr, nm, nn = split_sizes(store, i, node)
            assert balanced(nr, nm), (label, nr, nm, nn)
            assert balanced(nr, nn), (label, nr, nm, nn)
            splits += 1
        for t, pair, _ in fault_cases(oracle):
            d = query(oracle, t, pair).recursion_depth
            assert d <= oracle.depth, (label, t, pair)
            max_query_depth = max(max_query_depth, d)
    _report(
        6,
        True,
        f"{splits} splits balanced, tree depths within ceil(log1.5 n)+2, "
        f"deepest query recursion {max_query_depth}",
    )


def test_criterion_7_ssrp_equivalence_and_accounting(corpus):
    records_total = 0
    for label, g, s, oracle in corpus:
        got = ssrp(oracle)
        want = brute_ssrp(g, s)
        assert got.records == want.records, label
        spt = source_tree(oracle)
        expected_count = sum(spt.depth[t] for t in range(g.n) if spt.reachable(t))
        assert len(got.records) == expected_count, label
        records_total += len(got.records)
    _report(
        7,
        True,
        f"{records_total} records equal brute force, counts match total tree depth",
    )


def test_criterion_8_scaling_smoke():
    build_seconds = {}
    for n in (4096, 16384):
        g = tree_plus_chords(n, 2 * n, 42)
        t0 = time.perf_counter()
        oracle = build_oracle(g, 0)
        build_seconds[n] = time.perf_counter() - t0

    ratio = build_seconds[16384] / build_seconds[4096]
    cases = path_faults(source_tree(oracle), 10_000, random.Random(1))
    t0 = time.perf_counter()
    for t, pair in cases:
        query(oracle, t, pair)
    mean_us = (time.perf_counter() - t0) / len(cases) * 1e6

    problems = []
    if ratio > 12:
        problems.append(f"build time ratio {ratio:.1f} exceeds 12")
    if mean_us > 50:
        problems.append(f"mean query {mean_us:.1f} us exceeds 50 us")
    for p in problems:
        warnings.warn(f"scaling smoke: {p}")
    status = "PASS" if not problems else "WARN"
    print(
        f"[{status}] criterion 8: build {build_seconds[4096]:.1f}s -> "
        f"{build_seconds[16384]:.1f}s (ratio {ratio:.1f}, limit 12); "
        f"mean query {mean_us:.1f} us over 10^4 faults (limit 50)"
    )
