"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

assert workloads.load_sdo() is not None

import layers  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"point-sparse": 400, "ssrp-arcs": 8}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_without_errors(workload, trace):
    result = workloads.run(workload, 3, 0.2, trace, TINY[workload])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["meta"]["error_rate"] == 0
    assert result["meta"]["checked"] > 0
    assert spans.installed_wrappers() == []


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == layers.layer_metric_names()


def test_self_time_on_synthetic_span_tree():
    # root(10) -> a(4) -> c(1); root -> b(3)
    parent = np.array([-1, 0, 0, 1], dtype=np.int32)
    dur = np.array([10.0, 4.0, 3.0, 1.0])
    assert spans.self_times(parent, dur).tolist() == [3.0, 3.0, 3.0, 1.0]
    assert spans.roots(parent).tolist() == [0, 0, 0, 0]


def test_tracer_records_nesting_and_phase():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: leaf())
    with tracer.span("phase.x"):
        outer()
        leaf()
    table = spans.SpanTable(tracer)
    assert table.parent.tolist() == [-1, 0, 1, 0]
    assert len(table.in_phase("leaf", "phase.x")) == 2
    assert len(table.in_phase("leaf", "phase.y")) == 0
    assert (table.self_time >= 0).all()


def test_wrappers_are_removed_after_tracing():
    originals = [(owner, attr, fn) for _, owner, attr, fn in spans.patch_targets()]
    with spans.patched(spans.Tracer()):
        assert len(spans.installed_wrappers()) == len(originals)
    assert spans.installed_wrappers() == []
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_tracing_restores_originals_when_the_phase_raises():
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            raise RuntimeError("phase failed")
    assert spans.installed_wrappers() == []


def test_point_sparse_base_counts_match_the_roadmap_baseline():
    g, source = workloads.point_sparse_base(16384)
    oracle = workloads._mod("oracle").build_oracle(g, source)
    counts = layers.tree_counts(oracle)
    assert (g.n, g.m) == (16384, 49151)
    assert counts["oracle.nodes"] == 22727
    assert counts["oracle.depth"] == 19
    assert counts["departing.entries"] == 221917
    assert counts["oracle.vertex_slots"] == 293349
