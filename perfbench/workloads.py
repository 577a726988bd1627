"""Inputs, timed phases and correctness checks of the sdo benchmark.

Every workload runs the same phases on its own graph, so every end-to-end
metric exists on every workload:

  build   build_oracle, median wall time -> setup_s
  query   closed loop of single query() calls, one client, each call waiting
          for the previous one -> query_p50_us, query_p99_us, query_per_s
  ssrp    full ssrp(oracle) -> ssrp_records_per_s
  cold    save_oracle then load_oracle -> save_s, load_s, oracle_bytes

The phases repeat in rounds over several graphs, so the samples of every
metric are spread over the whole run: the speed of a shared 2-core machine
drifts over seconds, and samples taken in one stretch would all share its
drift. Each metric pools the samples of the whole run. Checks against the
brute-force baseline run between the phases, never inside a timed region.
"""

from __future__ import annotations

import gc
import importlib
import os
import random
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"

# A run builds GRAPHS relabelled graphs from its seed (the first is the
# seed's own) and gives each ROUNDS / GRAPHS rounds: the first round of a
# graph builds it, every round runs a query slice, ssrp() runs whenever it
# is behind its share of the run, the last round saves and loads the
# oracle. Many short rounds sample the machine's drifting speed at many
# points.
GRAPHS = 3
ROUNDS = 12
# Share of the run's --seconds given to query slices; ssrp() gets the rest.
# One ssrp() on ssrp-arcs takes ~2 s, so it needs the larger share to be
# sampled several times a run.
QUERY_SHARE = 1 / 3
WARMUP_QUERIES = 2000
FAULT_BATCH = 1 << 16
LOAD_CHECK_FAULTS = 500
QUERY_CHECKS = 10
SSRP_CHECKS = 10


def load_sdo():
    """Import the library from this checkout's sources; None if absent."""
    src, scripts = ROOT / "src", ROOT / "scripts"
    if not (src / "sdo" / "__init__.py").is_file() or not (scripts / "dep_growth.py").is_file():
        return None
    for p in (str(scripts), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)
    return importlib.import_module("sdo")


def _mod(name: str):
    # `sdo.query` on the package is the function, so go through the module
    # table. Functions are fetched at call time, which lets the traced run
    # swap in its wrappers.
    return importlib.import_module(f"sdo.{name}")


# ---------------------------------------------------------------- inputs


# Both workloads keep one graph shape and let the seed relabel it. Query
# latency and ssrp() speed differ by up to ~30% between random
# tree_plus_chords graphs of one size, far more than the change a later
# optimisation has to show; a relabelled copy differs only in tie-breaks.
BASE_SEED = 42


def relabelled(g, source: int, seed: int):
    """``g`` with vertices and edge order shuffled by ``seed``, and the
    relabelled source."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    pairs = [(perm[e.u], perm[e.v]) for e in g.edges]
    rng.shuffle(pairs)
    return _mod("graphs").Graph.from_pairs(g.n, pairs), perm[source]


def point_sparse_base(n: int = 4096):
    """The ROADMAP baseline graph, a random tree plus 2n chords of seed 42,
    source 0, at a quarter of the baseline's n = 16384: there one save/load
    round trip alone takes ~24 s on a 2-core Xeon, too long to sample
    several times in one run."""
    return _mod("generators").tree_plus_chords(n, 2 * n, BASE_SEED), 0


def point_sparse_graph(seed: int, n: int = 4096):
    return relabelled(*point_sparse_base(n), seed)


def ssrp_arcs_graph(seed: int, k: int = 64):
    """nested_arcs(k), relabelled; the source is the relabelled vertex 0."""
    from dep_growth import nested_arcs

    base, _ = nested_arcs(k)
    return relabelled(base, 0, seed)


WORKLOADS = {
    "point-sparse": point_sparse_graph,
    "ssrp-arcs": ssrp_arcs_graph,
}


@dataclass
class Tree:
    """Canonical BFS tree of a unit-weight graph: each vertex hangs off its
    smallest-id neighbour one level up (by its smallest edge id, since
    adjacency lists are in edge-id order): the rule the oracle's tree follows."""

    parent: list[int]
    parent_edge: list[int]
    depth: list[int]

    @classmethod
    def of(cls, g, source: int) -> "Tree":
        n = g.n
        depth = [-1] * n
        parent = [-1] * n
        parent_edge = [-1] * n
        depth[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in sorted(frontier):
                for eid in g.adj[v]:
                    w = g.edges[eid].other(v)
                    if depth[w] == -1:
                        depth[w] = depth[v] + 1
                        parent[w], parent_edge[w] = v, eid
                        nxt.append(w)
            frontier = nxt
        if min(depth) < 0:
            raise ValueError("benchmark graphs must be connected")
        return cls(parent, parent_edge, depth)

    def ssrp_keys(self, source: int) -> list[tuple[int, tuple[int, int]]]:
        """(t, tree edge) pairs in ssrp record order."""
        keys = []
        for t in range(len(self.parent)):
            chain = []
            cur = t
            while cur != source:
                chain.append((self.parent[cur], cur))
                cur = self.parent[cur]
            keys.extend((t, e) for e in reversed(chain))
        return keys


def sample_faults(g, tree: Tree, rng: random.Random, count: int):
    """The benchmark's one fault sampler: (t, (x, y), eid) with t uniform;
    two faults in three a uniform tree edge on the source -> t path, which
    descends the oracle tree, and one a uniform edge of the graph, which
    almost always lies off the path and is answered at the query entry (a
    path fault falls back to a graph edge when t is the source).

    With an even split the median latency would sit on the gap between the
    entry-answered and the descending calls and jump between them from one
    graph to the next; at two to one it lies inside the descending calls."""
    faults = []
    for i in range(count):
        t = rng.randrange(g.n)
        if i % 3 != 2 and tree.depth[t] > 0:
            low = t
            for _ in range(rng.randrange(tree.depth[t])):
                low = tree.parent[low]
            eid = tree.parent_edge[low]
            faults.append((t, (tree.parent[low], low), eid))
        else:
            eid = rng.randrange(g.m)
            e = g.edges[eid]
            faults.append((t, (e.u, e.v), eid))
    return faults


@dataclass
class Inputs:
    workload: str
    seed: int
    graph: object
    source: int
    tree: Tree
    faults: list
    load_faults: list

    @classmethod
    def make(cls, workload: str, seed: int, size: int | None = None) -> "Inputs":
        """The graph of ``seed``, its canonical tree and its fault batches."""
        make_graph = WORKLOADS[workload]
        g, source = make_graph(seed) if size is None else make_graph(seed, size)
        tree = Tree.of(g, source)
        rng = random.Random(f"{workload}/{seed}/faults")
        faults = sample_faults(g, tree, rng, FAULT_BATCH)
        load_faults = sample_faults(g, tree, rng, LOAD_CHECK_FAULTS)
        return cls(workload, seed, g, source, tree, faults, load_faults)


# ---------------------------------------------------------------- results


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an operation that
    raised or a checked answer that disagreed with its reference."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatched: int = 0
    notes: list[str] = field(default_factory=list)

    def ran(self, count: int = 1) -> None:
        self.attempted += count

    def raised(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{what} raised {exc!r}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.checked += 1
        if not ok:
            self.failed += 1
            self.mismatched += 1
            if len(self.notes) < 20:
                self.notes.append(f"check failed: {what}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- phases


def _untraced(name: str):
    return nullcontext()


@dataclass
class Samples:
    """What one run measured; times in seconds, latencies in ns."""

    builds: list[float] = field(default_factory=list)
    lat: array = field(default_factory=lambda: array("q"))
    query_walls: list[float] = field(default_factory=list)
    ssrps: list[tuple[int, float]] = field(default_factory=list)
    saves: list[float] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    rss_mb: float = 0.0
    records: list | None = None
    oracle: object = None


def _query_slice(oracle, faults, start: int, seconds: float, tally: Tally, lat: array,
                 depths: array | None) -> tuple[int, float]:
    """Closed loop over the fault batch from index ``start`` for ``seconds``;
    appends per-call latencies in ns. Returns the next index and the wall time."""
    query = _mod("query").query
    clock = time.perf_counter_ns
    n = len(faults)
    i = start
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    while True:
        t, e, _ = faults[i % n]
        t0 = clock()
        try:
            r = query(oracle, t, e)
        except Exception as exc:  # counted as a failed operation, loop goes on
            r = None
            tally.raised(f"query(t={t}, e={e})", exc)
        t1 = clock()
        lat.append(t1 - t0)
        if depths is not None and r is not None:
            depths.append(r.recursion_depth)
        i += 1
        if t1 >= deadline:
            break
    tally.ran(i - start)
    return i, (clock() - begin) / 1e9


def _answers(oracle, faults) -> list:
    query = _mod("query").query
    return [query(oracle, t, e).distance for t, e, _ in faults]


def graph_seeds(seed: int, count: int = GRAPHS) -> list[int]:
    return [seed + 1_000_003 * i for i in range(count)]


def run_rounds(graphs: list[Inputs], seconds: float, tally: Tally, path: Path, *,
               rounds: int = ROUNDS, phase=_untraced, depths: array | None = None,
               check_bytes: bool = False) -> Samples:
    """``rounds`` rounds spread evenly over ``graphs``; per round, a query
    slice gets QUERY_SHARE of seconds / rounds, and ssrp() runs until its
    total time reaches its share of the rounds so far, at least once per
    graph. ``phase(name)`` wraps each timed call; the traced run passes one
    that installs its wrappers.

    Every ssrp() of a graph must return the same records, and the loaded
    oracle must answer LOAD_CHECK_FAULTS like the built one; with
    ``check_bytes`` it must also re-serialize to the saved bytes. After its
    last round each graph's answers are checked against brute force."""
    s = Samples()
    query_s = seconds * QUERY_SHARE / rounds
    ssrp_s = seconds * (1 - QUERY_SHARE) / rounds
    ssrp_spent = 0.0
    per_graph = rounds // len(graphs)
    for r in range(rounds):
        inp = graphs[r // per_graph]
        if r % per_graph == 0:
            s.oracle = s.records = None
            next_fault = 0
            gc.collect()
            tally.ran()
            with phase("phase.build"):
                build_oracle = _mod("oracle").build_oracle
                t0 = time.perf_counter()
                s.oracle = build_oracle(inp.graph, inp.source)
                s.builds.append(time.perf_counter() - t0)
            if r == 0:
                s.rss_mb = peak_rss_mb()
            _answers(s.oracle, inp.faults[:WARMUP_QUERIES])

        # One full collection per round, outside the timed calls, so that
        # no collection of leftovers from the previous phase lands in them.
        gc.collect()
        with phase("phase.query"):
            next_fault, wall = _query_slice(s.oracle, inp.faults, next_fault, query_s, tally,
                                            s.lat, depths)
        s.query_walls.append(wall)

        while s.records is None or ssrp_spent < ssrp_s * (r + 1):
            tally.ran()
            with phase("phase.ssrp"):
                ssrp = _mod("query").ssrp
                t0 = time.perf_counter()
                out = ssrp(s.oracle)
                dt = time.perf_counter() - t0
            ssrp_spent += dt
            s.ssrps.append((len(out.records), dt))
            if s.records is None:
                s.records = out.records
            else:
                tally.check(out.records == s.records, "repeated ssrp output differs")
            out = None

        if r % per_graph == per_graph - 1:
            want = _answers(s.oracle, inp.load_faults)
            tally.ran()
            with phase("phase.cold"):
                serialize = _mod("serialize")
                t0 = time.perf_counter()
                serialize.save_oracle(s.oracle, path)
                t1 = time.perf_counter()
                loaded = serialize.load_oracle(path)
                t2 = time.perf_counter()
            s.saves.append(t1 - t0)
            s.loads.append(t2 - t1)
            s.sizes.append(path.stat().st_size)
            tally.check(_answers(loaded, inp.load_faults) == want,
                        "loaded oracle answers differ from the built one")
            if check_bytes:
                same = _mod("serialize").dump_oracle(loaded) == path.read_bytes()
                tally.check(same, "dump_oracle(load_oracle(f)) differs from the saved bytes")
            loaded = None
            path.unlink()
            check_ssrp(s.records, inp, tally)
            check_queries(s.oracle, inp, tally)
    return s


# ---------------------------------------------------------------- checks


def check_queries(oracle, inp: Inputs, tally: Tally, count: int = QUERY_CHECKS) -> None:
    """A seeded sample of the timed faults against brute_query."""
    query = _mod("query").query
    brute_query = _mod("baseline").brute_query
    rng = random.Random(f"{inp.workload}/{inp.seed}/query-checks")
    for t, e, eid in rng.sample(inp.faults, count):
        got = query(oracle, t, e).distance
        want = brute_query(inp.graph, inp.source, t, eid)
        tally.check(got == want, f"query t={t} e={e}: oracle {got}, brute {want}")


def check_ssrp(records, inp: Inputs, tally: Tally, count: int = SSRP_CHECKS) -> None:
    """Record keys equal the canonical tree's, and a seeded sample of
    distances equals brute_query (a full brute_ssrp is too slow per run)."""
    keys = inp.tree.ssrp_keys(inp.source)
    tally.check([(t, e) for t, e, _ in records] == keys, "ssrp record keys differ from the tree")
    brute_query = _mod("baseline").brute_query
    rng = random.Random(f"{inp.workload}/{inp.seed}/ssrp-checks")
    for t, (x, y), d in rng.sample(records, min(count, len(records))):
        eid = inp.tree.parent_edge[y]
        want = brute_query(inp.graph, inp.source, t, eid)
        tally.check(d == want, f"ssrp t={t} e=({x},{y}): oracle {d}, brute {want}")


# ---------------------------------------------------------------- run


def end_to_end(s: Samples) -> dict[str, tuple[float, str]]:
    """Percentiles over every query call of the run, rates as all the work
    of a phase over all its time, save and load as means over the round
    trips. The machine's speed moves in spells of a few seconds; pooling
    the whole run averages over them, where a median of per-slice values
    would take its value from whichever spell the middle slice fell in."""
    lat = np.frombuffer(s.lat, dtype=np.int64)
    p50, p99 = np.percentile(lat, (50, 99)) / 1e3
    records, ssrp_s = map(sum, zip(*s.ssrps))
    return {
        "setup_s": (statistics.median(s.builds), "s"),
        "query_p50_us": (float(p50), "us"),
        "query_p99_us": (float(p99), "us"),
        "query_per_s": (len(lat) / sum(s.query_walls), "1/s"),
        "ssrp_records_per_s": (records / ssrp_s, "1/s"),
        "save_s": (statistics.mean(s.saves), "s"),
        "load_s": (statistics.mean(s.loads), "s"),
        "oracle_bytes": (float(statistics.median(s.sizes)), "bytes"),
        "peak_rss_mb": (s.rss_mb, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    """One benchmark run; returns {"correct", "attempted", "failed",
    "metrics", "meta"}. The traced run uses the seed's own graph only."""
    wall = {}
    lap = time.perf_counter()
    seeds = graph_seeds(seed, 1 if trace else GRAPHS)
    graphs = [Inputs.make(workload, s, size) for s in seeds]
    wall["inputs"] = time.perf_counter() - lap
    tally = Tally()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-{os.getpid()}.oracle"
    try:
        lap = time.perf_counter()
        if trace:
            from layers import traced_run

            metrics, s = traced_run(graphs[0], seconds, path, tally)
        else:
            s = run_rounds(graphs, seconds, tally, path)
            metrics = end_to_end(s)
        wall["rounds"] = time.perf_counter() - lap
    finally:
        if path.exists():
            path.unlink()
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "graph_seeds": seeds,
        "n": [g.graph.n for g in graphs],
        "m": [g.graph.m for g in graphs],
        "source": [g.source for g in graphs],
        "build_s": s.builds,
        "ssrp_records_s": s.ssrps,
        "save_s": s.saves,
        "load_s": s.loads,
        "oracle_bytes": s.sizes,
        "query_samples": len(s.lat),
        "checked": tally.checked,
        "mismatched": tally.mismatched,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "wall_s": {k: round(v, 3) for k, v in wall.items()},
        "notes": tally.notes,
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "meta": meta,
    }
