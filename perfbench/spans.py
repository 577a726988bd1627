"""Spans recorded around calls into the sdo modules, for the traced run only.

A `Tracer` keeps every span as four parallel arrays (name id, start, end,
parent index) and writes them out when the run ends. `patched` swaps each
traced function for a timing wrapper in every sdo module that holds it by
name, and puts the originals back on exit, so an untraced run executes no
wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (span name, defining module, attribute). A function is replaced in every
# loaded sdo module whose attribute of that name is the original object,
# because `from .spt import dijkstra` binds a separate name in each importer.
FUNCTIONS = (
    ("spt.dijkstra", "sdo.spt", "dijkstra"),
    ("spt.build_lca", "sdo.spt", "build_lca"),
    ("spt.separator_split", "sdo.spt", "separator_split"),
    ("spt.tree_edge_lower", "sdo.spt", "tree_edge_lower"),
    ("spt.is_ancestor", "sdo.spt", "is_ancestor"),
    ("oracle.build_node", "sdo.oracle", "build_node"),
    ("oracle.classify", "sdo.oracle", "classify"),
    ("oracle.graft", "sdo.oracle", "make_left_child"),
    ("oracle.graft", "sdo.oracle", "make_right_child"),
    ("oracle.leaf", "sdo.oracle", "_leaf_node"),
    ("pathrep.sweep", "sdo.pathrep", "replacement_lengths_along_path"),
    ("departing.build", "sdo.departing", "build_dep"),
    ("query.entry", "sdo.query", "query"),
    ("query.descent", "sdo.query", "_query_node"),
    ("query.ssrp", "sdo.query", "ssrp"),
    ("serialize.dump", "sdo.serialize", "dump_oracle"),
    ("serialize.load", "sdo.serialize", "load_oracle"),
)

# (span name, module, dotted attribute path): names patched on one object
# only. `Graph` is wrapped only where grafting constructs child graphs;
# replacing it in `sdo.graphs` would break `Graph.from_pairs`.
ATTRIBUTES = (
    ("graphs.graph_new", "sdo.oracle", "Graph"),
    ("departing.lookup", "sdo.departing", "DepArray.query"),
)


class Tracer:
    """In-memory span store; one wrapper call appends one span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped_original__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one phase."""
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-span derived columns: duration, self time and enclosing phase."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.self_time = self_times(self.parent, self.dur)
        self.root = roots(self.parent)

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def in_phase(self, name: str, phase: str) -> np.ndarray:
        """Indices of spans called ``name`` under the benchmark span ``phase``."""
        idx = self.ids(name)
        phase_ids = self.ids(phase)
        return idx[np.isin(self.root[idx], phase_ids)]


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of the outermost span enclosing each span (itself for roots)."""
    root = np.arange(len(parent))
    up = parent.astype(np.int64)
    has = up >= 0
    root[has] = up[has]
    while True:
        nxt = parent[root]
        move = nxt >= 0
        if not move.any():
            return root
        root[move] = nxt[move]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _sdo_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sdo" or name.startswith("sdo."))]


def patch_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every name the traced
    run replaces. A traced name the library no longer has is skipped with a
    warning, and its metrics read 0."""
    targets = []
    for span, module, attr in FUNCTIONS + ATTRIBUTES:
        try:
            owner, last = _resolve(module, attr)
            original = vars(owner)[last]
        except (AttributeError, KeyError):
            print(f"warning: {module}.{attr} not found, {span} is not traced", file=sys.stderr)
            continue
        if (span, module, attr) in ATTRIBUTES:
            targets.append((span, owner, last, original))
            continue
        for mod in _sdo_modules():
            if getattr(mod, last, None) is original:
                targets.append((span, mod, last, original))
    return targets


@contextmanager
def patched(tracer: Tracer):
    """Install a wrapper for every target; restore all originals on exit."""
    targets = patch_targets()
    wrappers: dict[int, object] = {}
    try:
        for span, owner, attr, original in targets:
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(span, original)
            setattr(owner, attr, wrappers[id(original)])
        yield
    finally:
        for _, owner, attr, original in targets:
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names still bound to a wrapper; empty once tracing has ended."""
    found = []
    for mod in _sdo_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__wrapped_original__"):
                found.append(f"{mod.__name__}.{attr}")
    for _, module, attr in ATTRIBUTES:
        owner, last = _resolve(module, attr)
        if isinstance(owner, type) and hasattr(owner.__dict__.get(last), "__wrapped_original__"):
            found.append(f"{module}.{attr}")
    return found
