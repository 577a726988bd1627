"""The file widths of formats SDO9 to SDO11: each array at the narrowest
type that holds it, an array of 0s and 1s as packed bits, a narrow distance
array's INF at the type's maximum; and the local coding of SDO10 and SDO11,
which a load turns back into the store exactly."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdo import serialize
from sdo.generators import nested_arcs, ragged_multigraph, tree_plus_chords, verify_corpus
from sdo.graphs import Graph
from sdo.oracle import OracleTree, build_oracle
from sdo.query import ssrp
from sdo.serialize import dump_oracle, file_entries, load_oracle, save_oracle
from sdo.store import FILE, INF, QueryStore, file_arrays

from conftest import appended_store, checked, with_weights

# (values, the file typecode they take) per table typecode. Below "q", 0s
# and 1s (none at all included) pack into bits. In a distance array the
# type's maximum stands for INF, so a finite value there widens.
WIDTHS = {
    "b": [([], "?"), ([0, 1, 1, 0, 1, 0, 0, 1, 1], "?"), ([-1, 1], "b"), ([2], "b"), ([-128, 0, 127], "b")],
    "i": [
        ([], "?"),
        ([1], "?"),
        ([0, 1] * 8, "?"),
        ([-1, 0], "b"),
        ([-128, -1, 127], "b"),
        ([-129], "h"),
        ([128], "h"),
        ([-32768, 32767], "h"),
        ([-32769], "i"),
        ([32768], "i"),
        ([-(2**31), 2**31 - 1], "i"),
    ],
    "q": [
        ([], "b"),
        ([0, 1], "b"),
        ([INF], "b"),
        ([-128, 126, INF], "b"),
        ([-1, 126], "b"),
        ([127], "h"),
        ([127, INF], "h"),
        ([-129, INF], "h"),
        ([128], "h"),
        ([32766, INF], "h"),
        ([32767, INF], "i"),
        ([-32769], "i"),
        ([2**31 - 2, INF], "i"),
        ([-(2**31)], "i"),
        ([2**31 - 1, INF], "q"),
        ([-(2**31) - 1], "q"),
        ([INF - 1], "q"),
        ([INF + 1], "q"),
        ([INF, INF + 1], "q"),
        ([-(2**63), 2**63 - 1], "q"),
    ],
}
BYTES = {"b": 1, "h": 2, "i": 4, "q": 8}


@pytest.mark.parametrize("name, code", FILE, ids=[name for name, _ in FILE])
def test_each_width_edge_round_trips(name, code, tmp_path, monkeypatch):
    # the structural check would reject these stores; the widths alone are
    # under test here, so a save writes each store array of the file as it
    # is, and a load checks nothing
    monkeypatch.setattr(serialize, "file_arrays", lambda s: [
        (other, np.frombuffer(getattr(s, other), dtype=c)) for other, c in FILE])
    monkeypatch.setattr(serialize, "check_and_rebase", lambda s: None)
    target = tmp_path / "edge.oracle"
    for values, want in WIDTHS[code]:
        store = QueryStore()
        setattr(store, name, array(code, values))
        blob = dump_oracle(OracleTree(store))
        target.write_bytes(blob)
        entries = {entry[0]: entry[1:] for entry in file_entries(target)}
        size = (len(values) + 7) // 8 if want == "?" else BYTES[want] * len(values)
        assert entries[name] == (want, len(values), size), values
        assert all(entries[other][0] == ("b" if c == "q" else "?") for other, c in FILE if other != name)
        loaded = load_oracle(target).store
        assert [getattr(loaded, other) for other, _ in FILE] == [getattr(store, other) for other, _ in FILE]
        assert dump_oracle(OracleTree(loaded)) == blob, values


def _round_trip(oracle: OracleTree, path) -> OracleTree:
    blob = dump_oracle(oracle)
    save_oracle(oracle, path)
    loaded = load_oracle(path)
    assert loaded.store.arrays() == oracle.store.arrays()
    assert dump_oracle(loaded) == blob
    return loaded


def test_built_oracles_round_trip_at_their_widths(tmp_path):
    graphs = [(g, s) for _, g, s in verify_corpus(seed=11, count=14, max_n=60)]
    graphs += [(tree_plus_chords(2000, 4000, 3), 0), (nested_arcs(16)[0], 0)]
    for g, s in graphs:
        _round_trip(build_oracle(g, s), tmp_path / "g.oracle")


def _heavy_graphs():
    """Weighted graphs whose store sums come near INF: a path whose edges
    weigh about INF / 60, each bypassed by a chord; and tree_plus_chords
    with a pendant vertex whose only other edge weighs INF - m - 2."""
    k = 20
    path = Graph.from_pairs(k, [(i, i + 1) for i in range(k - 1)] + [(i, i + 2) for i in range(k - 2)])
    w = (INF - 1) // (3 * k)
    yield with_weights(path, [w - i % 3 if i < k - 1 else 2 * w + 1 for i in range(path.m)])
    base = tree_plus_chords(40, 30, 5)
    pendant = Graph.from_pairs(41, [(e.u, e.v) for e in base.edges] + [(39, 40), (0, 40)])
    yield with_weights(pendant, [1] * (base.m + 1) + [INF - base.m - 2])


def test_weights_near_inf_keep_eight_bytes(tmp_path):
    path = tmp_path / "heavy.oracle"
    for g in _heavy_graphs():
        oracle = build_oracle(g, 0)
        loaded = _round_trip(oracle, path)
        assert ssrp(loaded).records == ssrp(oracle).records
        codes = {name: code for name, code, _, _ in file_entries(path)}
        top = 0
        for name, a in oracle.store.arrays():
            finite = [d for d in a if d != INF]
            if a.typecode == "q" and finite and max(finite) >= 2**31 - 1:
                assert codes[name] == "q", name
                top = max(top, max(finite))
        assert top > INF // 4


def _assert_coding_round_trips(g, source):
    # the file holds every array as the build appends it, and a load, or
    # the check on those arrays, gives back the built store exactly
    oracle = build_oracle(g, source)
    _, appended = appended_store(g, source)
    held = dict(file_arrays(oracle.store))
    for name, code in FILE:
        if name != "meta":
            assert held[name].astype(code).tolist() == getattr(appended, name).tolist(), name
    assert checked(oracle.store).arrays() == oracle.store.arrays()
    loaded = serialize._read_store(memoryview(dump_oracle(oracle))[len(serialize.MAGIC) + 32 :])
    assert loaded.arrays() == oracle.store.arrays()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ragged", "zero weights", "disconnected"]),
    st.integers(1, 40),
    st.integers(0, 40),
    st.integers(0, 10**6),
    st.data(),
)
def test_decoding_an_encoded_store_is_the_identity(family, n, extra, seed, data):
    """Ragged multigraphs (parallel edges), zero-weighted chords, roots that
    are leaves (n <= 2) and inputs that the source does not wholly reach."""
    if family == "ragged":
        g = ragged_multigraph(n, extra, seed)
    elif family == "zero weights":
        base = tree_plus_chords(n, extra, seed)
        g = with_weights(base, data.draw(st.lists(st.integers(0, 2), min_size=base.m, max_size=base.m)))
    else:
        # two copies of a tree plus chords side by side, and a lone vertex
        base = tree_plus_chords(n, extra, seed)
        pairs = [(e.u, e.v) for e in base.edges] + [(e.u + n, e.v + n) for e in base.edges]
        g = Graph.from_pairs(2 * n + 1, pairs)
    _assert_coding_round_trips(g, data.draw(st.integers(0, g.n - 1)))


@pytest.mark.parametrize("n", [1, 2])
def test_a_root_leaf_round_trips(n):
    g = Graph.from_pairs(n, [(0, n - 1)] * (n - 1) * 2)
    _assert_coding_round_trips(g, 0)
    _assert_coding_round_trips(g, n - 1)
