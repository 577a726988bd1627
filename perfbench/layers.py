"""The traced run: the same phases with every sdo layer wrapped, reduced to
per-layer metrics named after the src/sdo modules.

Self times are totals over one traced build (build layers), means per call
(query entry and descent, in microseconds), or means per ssrp() call (the
chain walk and the departing-array lookups it drives).

Which end-to-end metric each layer metric should move, and where:

  layer metrics                          end-to-end metric     workload
  spt.dijkstra.*, spt.build_lca.self_s,  setup_s               point-sparse most
    spt.separator_split.self_s                                 (dijkstra + LCA ~40%
                                                               of its build)
  graphs.graph_new.*                     setup_s               point-sparse
  oracle.build_node/classify/graft/      setup_s               both
    leaf, oracle.d<k>.*
  oracle.vertex_slots                    oracle_bytes,         both
                                         peak_rss_mb
  pathrep.*                              setup_s               ssrp-arcs mostly
  departing.build.*, departing.entries,  setup_s,              ssrp-arcs
    departing.max_len                    oracle_bytes
  departing.lookup.*                     ssrp_records_per_s    ssrp-arcs; hardly
                                                               point-sparse
  query.entry.*, entry_answered_frac     query_p50_us,         point-sparse; none
                                         query_per_s           on ssrp_records_per_s
  query.descent.us, query.levels_*       query_p50_us,         both
                                         ssrp_records_per_s
  query.ssrp.self_s                      ssrp_records_per_s    both
  serialize.*                            save_s, load_s,       both; no other
                                         oracle_bytes          metric
"""

from __future__ import annotations

import gc
import io
import pickle
import time
from array import array
from contextlib import contextmanager

import numpy as np

from spans import SpanTable, Tracer, installed_wrappers, patched
from workloads import OUT, _mod, run_rounds

# Recursion depths reported one by one; deeper levels are folded into the
# last bucket. Depth is at most 20 on both workloads.
DEPTH_BUCKETS = 24

# Phase seconds of a traced run at most: a traced ssrp() on ssrp-arcs
# records ~1.5M spans, and per-call means settle long before that.
TRACE_SECONDS = 18.0

# OracleNode slots reported on their own; all other bytes go to `other`.
# The four child maps are reported together as `child_maps`.
BYTE_SLOTS = ("graph", "spt_s", "spt_r", "dep", "edge_side", "vertex_side")
CHILD_MAPS = ("left_vertex_map", "right_vertex_map", "left_edge_map", "right_edge_map")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = [
        "spt.dijkstra.calls",
        "spt.dijkstra.self_s",
        "spt.build_lca.self_s",
        "spt.separator_split.self_s",
        "graphs.graph_new.calls",
        "graphs.graph_new.self_s",
        "oracle.build_node.self_s",
        "oracle.classify.calls",
        "oracle.classify.self_s",
        "oracle.graft.self_s",
        "oracle.leaf.self_s",
        "oracle.nodes",
        "oracle.depth",
        "oracle.vertex_slots",
    ]
    for k in range(DEPTH_BUCKETS):
        names += [f"oracle.d{k}.nodes", f"oracle.d{k}.s"]
    names += [
        "pathrep.sweep.calls",
        "pathrep.sweep.self_s",
        "pathrep.path_edges",
        "departing.build.self_s",
        "departing.entries",
        "departing.max_len",
        "departing.build.accepted_per_pop",
        "departing.lookup.calls",
        "departing.lookup.self_s",
        "query.entry.self_us",
        "query.entry.spt_us",
        "query.entry_answered_frac",
        "query.descent.us",
        "query.levels_mean",
        "query.levels_max",
        "query.ssrp.self_s",
        "serialize.dump.s",
        "serialize.load.s",
    ]
    names += [f"serialize.bytes.{s}" for s in (*BYTE_SLOTS, "child_maps", "other")]
    names += ["trace.setup_s", "trace.overhead_s", "trace.spans"]
    return names


UNITS = {
    "calls": "count", "nodes": "count", "depth": "count", "vertex_slots": "count",
    "path_edges": "count", "entries": "count", "max_len": "count", "spans": "count",
    "levels_max": "count", "levels_mean": "count", "accepted_per_pop": "ratio",
    "entry_answered_frac": "ratio", "self_us": "us", "spt_us": "us", "us": "us",
}


def unit_of(name: str) -> str:
    if name.startswith("serialize.bytes."):
        return "bytes"
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def slot_bytes(oracle) -> dict[str, int]:
    """Pickle bytes per OracleNode slot, over all nodes. One pickler dumps
    the slots in declaration order, so an object shared between slots (the
    node graph inside spt_s) counts once, under the first slot holding it."""
    nodes = list(oracle.nodes())
    slots = [s for s in type(nodes[0]).__slots__ if s not in ("left", "right")]
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    sizes = {}
    for slot in slots:
        before = buf.tell()
        pickler.dump([getattr(n, slot, None) for n in nodes])
        sizes[slot] = buf.tell() - before
    before = buf.tell()
    pickler.dump(oracle)
    out = {s: sizes.pop(s, 0) for s in BYTE_SLOTS}
    out["child_maps"] = sum(sizes.pop(s, 0) for s in CHILD_MAPS)
    out["other"] = sum(sizes.values()) + buf.tell() - before
    return out


def tree_counts(oracle) -> dict[str, float]:
    """Deterministic counts of the built tree."""
    nodes = list(oracle.nodes())
    per_depth = [0] * DEPTH_BUCKETS
    entries = max_len = accepted = pops = path_edges = 0
    for node in nodes:
        per_depth[min(node.depth, DEPTH_BUCKETS - 1)] += 1
        dep = getattr(node, "dep", None) or ()
        for a in dep:
            entries += len(a)
            max_len = max(max_len, len(a))
        stats = getattr(node, "dep_stats", None)
        if stats is not None:
            accepted += stats.accepted
            pops += stats.pops
        if getattr(node, "sr_replacements", None) is not None:
            path_edges += len(node.primary_path.edge_ids)
    out = {
        "oracle.nodes": len(nodes),
        "oracle.depth": max(n.depth for n in nodes),
        "oracle.vertex_slots": sum(n.graph.n for n in nodes),
        "departing.entries": entries,
        "departing.max_len": max_len,
        "departing.build.accepted_per_pop": accepted / pops if pops else 0.0,
        "pathrep.path_edges": path_edges,
    }
    for k, c in enumerate(per_depth):
        out[f"oracle.d{k}.nodes"] = c
    return out


def span_metrics(spans: SpanTable) -> dict[str, float]:
    out: dict[str, float] = {}

    def total(name, where, column):
        return float(column[spans.in_phase(name, where)].sum())

    for name in ("spt.dijkstra", "graphs.graph_new", "oracle.classify", "pathrep.sweep"):
        out[f"{name}.calls"] = len(spans.in_phase(name, "phase.build"))
    for name in (
        "spt.dijkstra", "spt.build_lca", "spt.separator_split", "graphs.graph_new",
        "oracle.build_node", "oracle.classify", "oracle.graft", "oracle.leaf",
        "pathrep.sweep", "departing.build",
    ):
        out[f"{name}.self_s"] = total(name, "phase.build", spans.self_time)

    # Time spent at each recursion depth: a build_node span minus the
    # build_node spans directly under it.
    bn = spans.in_phase("oracle.build_node", "phase.build")
    is_bn = np.zeros(len(spans.dur), dtype=bool)
    is_bn[bn] = True
    level = spans.dur.copy()
    par = spans.parent[bn]
    kids = bn[(par >= 0) & is_bn[par]]
    np.subtract.at(level, spans.parent[kids], spans.dur[kids])
    depth = {}
    per_depth = [0.0] * DEPTH_BUCKETS
    for i in bn.tolist():
        p = int(spans.parent[i])
        depth[i] = depth[p] + 1 if p in depth else 0
        per_depth[min(depth[i], DEPTH_BUCKETS - 1)] += float(level[i])
    for k, s in enumerate(per_depth):
        out[f"oracle.d{k}.s"] = s

    # Query entry: query() minus its descent, per call.
    q = spans.in_phase("query.entry", "phase.query")
    calls = max(len(q), 1)
    pos = np.full(len(spans.dur), -1)
    pos[q] = np.arange(len(q))

    def under_query(name):
        idx = spans.in_phase(name, "phase.query")
        par = spans.parent[idx]
        return idx[(par >= 0) & (pos[par] >= 0)]

    desc = under_query("query.descent")
    helpers = np.concatenate([under_query("spt.tree_edge_lower"), under_query("spt.is_ancestor")])
    out["query.entry.self_us"] = (spans.dur[q].sum() - spans.dur[desc].sum()) / calls * 1e6
    out["query.entry.spt_us"] = spans.dur[helpers].sum() / calls * 1e6
    out["query.entry_answered_frac"] = 1.0 - len(desc) / calls
    out["query.descent.us"] = spans.dur[desc].mean() * 1e6 if len(desc) else 0.0

    runs = max(len(spans.in_phase("query.ssrp", "phase.ssrp")), 1)
    out["query.ssrp.self_s"] = total("query.ssrp", "phase.ssrp", spans.self_time) / runs
    look = spans.in_phase("departing.lookup", "phase.ssrp")
    out["departing.lookup.calls"] = len(look) / runs
    out["departing.lookup.self_s"] = float(spans.self_time[look].sum()) / runs

    out["serialize.dump.s"] = total("serialize.dump", "phase.cold", spans.dur)
    out["serialize.load.s"] = total("serialize.load", "phase.cold", spans.dur)
    out["trace.spans"] = len(spans.dur)
    return out


@contextmanager
def phase(tracer: Tracer, name: str):
    """Wrappers installed and a benchmark span open for one phase."""
    with patched(tracer), tracer.span(name):
        yield


def traced_run(inp, seconds, path, tally):
    """One untraced build for reference, then two rounds on one graph: one
    traced build, traced query slices and ssrp runs, one traced save/load.
    Returns the per-layer metrics as {name: (value, unit)} and the samples."""
    build_oracle = _mod("oracle").build_oracle
    gc.collect()
    t0 = time.perf_counter()
    build_oracle(inp.graph, inp.source)
    untraced_setup_s = time.perf_counter() - t0
    tally.ran()

    tracer = Tracer()
    depths = array("q")
    # Two rounds: per-call means settle quickly, and every traced ssrp()
    # adds about two spans per record.
    s = run_rounds([inp], min(seconds, TRACE_SECONDS), tally, path, rounds=2,
                   phase=lambda name: phase(tracer, name), depths=depths, check_bytes=True)
    left = installed_wrappers()
    tally.check(not left, f"wrappers left installed: {left}")

    metrics = tree_counts(s.oracle)
    metrics.update(span_metrics(SpanTable(tracer)))
    d = np.frombuffer(depths, dtype=np.int64)
    metrics["query.levels_mean"] = float(d.mean()) if len(d) else 0.0
    metrics["query.levels_max"] = int(d.max()) if len(d) else 0
    for slot, size in slot_bytes(s.oracle).items():
        metrics[f"serialize.bytes.{slot}"] = size
    metrics["trace.setup_s"] = s.builds[0]
    # Two single builds of one graph: machine drift makes this noisy, and it
    # can come out negative.
    metrics["trace.overhead_s"] = s.builds[0] - untraced_setup_s
    tracer.write(OUT / f"spans-{inp.workload}.npz")
    return {n: (float(metrics[n]), unit_of(n)) for n in layer_metric_names()}, s
