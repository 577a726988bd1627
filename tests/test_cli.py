import hashlib
import pickle
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from sdo import cli, serialize
from sdo.cli import main
from sdo.generators import path_faults, tree_plus_chords
from sdo.oracle import build_oracle
from sdo.query import SsrpOutput, query, ssrp
from sdo.serialize import MAGIC, dump_oracle, load_oracle, save_oracle
from sdo.spt import dijkstra
from sdo.store import CROSS, FILE, INF, LEAF, LEFT, PRIMARY, RIGHT, TABLE, file_arrays

from conftest import children, file_store, loop_check, separator

DIGEST = 32


CALLS = []


def _record_call(*args):
    CALLS.append(args)


class _Payload:
    """Unpickles by calling ``_record_call``."""

    def __reduce__(self):
        return (_record_call, ("loaded",))


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text("3 2\n0 1\n1 2\n")
    return p


def test_build_summary_reports_shallow_tree(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    out = capsys.readouterr().out
    assert "n=3 m=2 tree_depth=1" in out
    assert (path3.parent / "p3.graph.oracle").exists()


def test_query_prints_inf_for_bridge(path3, capsys):
    assert main(["query", str(path3), "0", "2", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "INF"


def test_query_through_serialized_oracle(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    capsys.readouterr()
    oracle_path = str(path3) + ".oracle"
    assert main(["query", oracle_path, "0", "1", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_query_rejects_wrong_source_for_oracle(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    capsys.readouterr()
    assert main(["query", str(path3) + ".oracle", "1", "2", "0", "1"]) == 2
    assert "source" in capsys.readouterr().err


def test_ssrp_tsv_stream(path3, capsys):
    assert main(["ssrp", str(path3), "0"]) == 0
    out = capsys.readouterr().out
    assert out == "1\t0\t1\tINF\n2\t0\t1\tINF\n2\t1\t2\tINF\n"


def test_parse_error_exit_code_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 1\n0 7\n")
    assert main(["ssrp", str(bad), "0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_small_corpus_passes(capsys):
    assert main(["verify", "--seed", "11", "--count", "4", "--max-n", "25"]) == 0
    out = capsys.readouterr().out
    assert "verified 4 graphs" in out


def test_verify_deterministic_output(capsys):
    main(["verify", "--seed", "11", "--count", "3", "--max-n", "20"])
    first = capsys.readouterr().out
    main(["verify", "--seed", "11", "--count", "3", "--max-n", "20"])
    assert capsys.readouterr().out == first


def _extra_record(records):
    return records + [(0, (0, 1), 99)]


def _changed_distance(records):
    t, e, _ = records[0]
    return [(t, e, 12345)] + records[1:]


@pytest.mark.parametrize(
    "tamper, got, expected",
    [
        (_extra_record, "got=[t=0 e=(0,1) d=99]", "expected=none"),
        (_changed_distance, "d=12345]", "expected=[t="),
    ],
)
def test_verify_mismatch_prints_both_sides(tamper, got, expected, monkeypatch, tmp_path, capsys):
    real_ssrp = cli.ssrp
    monkeypatch.setattr(cli, "ssrp", lambda oracle: SsrpOutput(tamper(real_ssrp(oracle).records)))
    # a failing case writes its graph to the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--seed", "11", "--count", "1", "--max-n", "25"]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH case 0" in err
    assert got in err and expected in err
    assert err.index("got=") < err.index("expected=")
    assert list(tmp_path.glob("verify_fail_seed11_case0.graph"))


def test_bench_prints_table(capsys):
    assert main(["bench", "--sizes", "32,64", "--queries", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[0].split() == ["n", "m", "build_s", "max_dep", "query_us", "ssrp_s", "load_s"]
    assert all(len(row.split()) == 7 for row in out[1:])
    # max_dep is the longest departing segment of the store of the same
    # graph, drawn as bench draws it, its faults taken from the same stream
    rng = random.Random(0)
    for n, row in zip((32, 64), out[1:]):
        g = tree_plus_chords(n, 2 * n, rng.randrange(1 << 30))
        off = build_oracle(g, 0).store.dep_off
        assert int(row.split()[3]) == max(b - a for a, b in zip(off, off[1:]))
        path_faults(dijkstra(g, 0), 50, rng)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--sizes", "32", "--queries", "0"], "--queries"),
        (["bench", "--sizes", "32,1"], "--sizes"),
        (["verify", "--max-n", "4"], "--max-n"),
        (["verify", "--count", "0"], "--count"),
    ],
)
def test_bad_numeric_flag_exits_2_naming_it(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_oracle_round_trip_is_bit_exact(tmp_path):
    g = tree_plus_chords(35, 18, 77)
    oracle = build_oracle(g, 0)
    blob = dump_oracle(oracle)
    target = tmp_path / "g.oracle"
    save_oracle(oracle, target)
    assert target.read_bytes() == blob
    loaded = load_oracle(target)
    assert dump_oracle(loaded) == blob


def test_load_rejects_foreign_files(tmp_path):
    blob = dump_oracle(build_oracle(tree_plus_chords(20, 8, 3), 0))
    for junk in (
        b"not an oracle",
        blob[:60],
        MAGIC + b"\x80\x04garbage that is no pickle",
        b"SDO1-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO5-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO6-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO9-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO10-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO11-ORACLE\x00" + blob[len(MAGIC) :],
        b"SDO12-ORACLE\x00" + blob[len(MAGIC) :],
    ):
        p = tmp_path / "junk.oracle"
        p.write_bytes(junk)
        with pytest.raises(ValueError, match="junk.oracle"):
            load_oracle(p)


def test_load_calls_no_foreign_global(tmp_path):
    payload = pickle.dumps(_Payload(), protocol=4)
    p = tmp_path / "foreign.oracle"
    p.write_bytes(MAGIC + hashlib.sha256(payload).digest() + payload)
    CALLS.clear()
    with pytest.raises(ValueError, match="foreign.oracle"):
        load_oracle(p)
    assert CALLS == []
    # plain pickle would have run it
    pickle.loads(payload)
    assert CALLS == [("loaded",)]


def test_every_single_bit_flip_is_rejected(tmp_path):
    blob = dump_oracle(build_oracle(tree_plus_chords(30, 15, 5), 0))
    rng = random.Random(300)
    p = tmp_path / "flip.oracle"
    for _ in range(300):
        bit = rng.randrange(8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(flipped)
        with pytest.raises(ValueError, match="flip.oracle"):
            load_oracle(p)
    p.write_bytes(blob)
    assert dump_oracle(load_oracle(p)) == blob


def test_query_on_truncated_oracle_exits_2(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    capsys.readouterr()
    oracle_path = path3.parent / "p3.graph.oracle"
    oracle_path.write_bytes(oracle_path.read_bytes()[:60])
    assert main(["query", str(oracle_path), "0", "1", "1", "2"]) == 2
    assert "p3.graph.oracle" in capsys.readouterr().err


def test_dep_growth_rejects_zero_size():
    script = Path(__file__).resolve().parent.parent / "scripts" / "dep_growth.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--sizes", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --sizes" in proc.stderr


def _stats_tables(out: str):
    """The meta line, then the in-memory and the file table of ``sdo
    stats``, each as its header, its rows and its total line."""
    lines = out.splitlines()
    memory, file = lines.index("in memory:"), lines.index("in the file:")
    return lines[0], (
        (lines[memory + 1], lines[memory + 2 : file - 1], lines[file - 1]),
        (lines[file + 1], lines[file + 2 : -1], lines[-1]),
    )


def test_stats_lists_every_array(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    capsys.readouterr()
    oracle_path = path3.parent / "p3.graph.oracle"
    assert main(["stats", str(oracle_path)]) == 0
    meta, ((header, rows, total), (file_header, file_rows, file_total)) = _stats_tables(
        capsys.readouterr().out)
    assert meta == "n=3 source=0 nodes=3 depth=1 dep_entries=1"
    assert header.split() == file_header.split() == ["array", "type", "length", "bytes"]
    assert [row.split()[0] for row in rows] == [name for name, _ in TABLE]
    assert [row.split()[0] for row in file_rows] == [name for name, _ in FILE]
    in_memory = sum(int(row.split()[3]) for row in rows)
    assert total.split() == ["total", str(in_memory)]
    # the payload is a 4-byte array count and a 21-byte entry per array,
    # then the arrays
    arrays = oracle_path.stat().st_size - len(MAGIC) - DIGEST - 4 - 21 * len(file_rows)
    assert sum(int(row.split()[3]) for row in file_rows) == arrays
    assert file_total.split() == ["total", str(arrays)]


def test_stats_shows_each_array_at_its_file_width(tmp_path, capsys):
    target = tmp_path / "g.oracle"
    oracle = build_oracle(tree_plus_chords(300, 600, 7), 0)
    save_oracle(oracle, target)
    assert main(["stats", str(target)]) == 0
    _, ((_, rows, _), (_, file_rows, _)) = _stats_tables(capsys.readouterr().out)
    for row, (name, a) in zip(rows, oracle.store.arrays(), strict=True):
        assert row.split() == [name, a.typecode, str(len(a)), str(len(a) * a.itemsize)]
    payload = target.read_bytes()[len(MAGIC) + DIGEST :]
    width = {"b": 8, "h": 16, "i": 32, "q": 64, "1": 1, "2": 2, "4": 4}
    narrower = 0
    for i, (row, (name, code)) in enumerate(zip(file_rows, FILE, strict=True)):
        entry = payload[4 + 21 * i : 4 + 21 * (i + 1)]
        file_code, length = chr(entry[12]), int.from_bytes(entry[13:], "little")
        size = (length * width[file_code] + 7) // 8
        assert row.split() == [name, file_code, str(length), str(size)]
        assert width[file_code] <= width[code]
        narrower += width[file_code] < width[code]
    # the 300 parent ids take 2 bytes each, distances below 15 four bits
    # (15 stands for INF), the side codes of the edge slots two bits each,
    # and the two side bits of each vertex slot one bit each
    codes = {row.split()[0]: row.split()[1] for row in file_rows}
    assert (codes["parent"], codes["dist"], codes["kind"], codes["vside"]) == ("h", "4", "2", "1")
    assert narrower >= 10


def test_stats_on_junk_exits_2(tmp_path, capsys):
    junk = tmp_path / "junk.oracle"
    junk.write_bytes(b"not an oracle at all")
    assert main(["stats", str(junk)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "junk.oracle" in err
    assert "Traceback" not in err


def _sealed(payload: bytes) -> bytes:
    """An oracle file around ``payload`` with a correct digest."""
    return MAGIC + hashlib.sha256(payload).digest() + payload


def _child_node_points_upward(oracle, payload):
    # the last internal node's separator leaves side N, so that node reads
    # as a leaf and the tree ends before the store does
    def edit(arrays, s):
        arrays["vside"][2 * _separator_slot(s, _internal(s, -1)) + 1] = 0

    return _file_with(oracle, edit)


def _departing_segment_not_monotone(oracle, payload):
    s = oracle.store
    t = next(t for t in range(len(s.dep_off) - 1) if s.dep_off[t + 1] - s.dep_off[t] >= 2)
    a = s.dep_off[t]
    s.dsr[a], s.dsr[a + 1] = s.dsr[a + 1], s.dsr[a]


def _tabled(s) -> int:
    """The first node with tables, whose dist_r slots the file holds."""
    return next(i for i in range(len(s.sbase) - 1) if s.sbase[i + 1] > s.sbase[i])


def _negative_distance(oracle, payload):
    s = oracle.store
    s.dist_r[s.vbase[_tabled(s)]] = -1


def _meta_too_short(oracle, payload):
    oracle.store.meta.pop()


def _source_outside_the_graph(oracle, payload):
    s = oracle.store
    s.meta[1] = s.meta[0]


def _parent_too_long(oracle, payload):
    oracle.store.parent.append(-1)


def _left_too_long(oracle, payload):
    # the root's separator leaves side N: the tree ends after node 0, and
    # the store holds nodes past it
    def edit(arrays, s):
        arrays["vside"][2 * _separator_slot(s, 0) + 1] = 0

    return _file_with(oracle, edit)


def _dep_off_decreases(oracle, payload):
    s = oracle.store
    s.dep_off[s.vbase[_tabled(s)] + 1] = s.dep_off[-1] + 1


def _dep_off_short_of_the_entries(oracle, payload):
    oracle.store.dep_len.append(0)


def _edge_key_repeated(oracle, payload):
    keys = oracle.store.edge_keys
    keys[1] = keys[0]


def _edge_key_past_n_squared(oracle, payload):
    s = oracle.store
    s.edge_keys[-1] = s.meta[0] ** 2


def _root_short_of_the_input_vertices(oracle, payload):
    oracle.store.vbase[1] -= 1


def _source_with_a_parent(oracle, payload):
    s = oracle.store
    s.parent[s.meta[1]] = 1


def _reached(s):
    """A reached vertex other than the source."""
    return next(v for v in range(len(s.dist)) if s.parent[v] >= 0)


def _parent_past_n(oracle, payload):
    s = oracle.store
    s.parent[_reached(s)] = s.meta[0]


def _parent_without_parent_edge(oracle, payload):
    s = oracle.store
    s.parent_edge[_reached(s)] = -1


def _parent_edge_past_the_root(oracle, payload):
    s = oracle.store
    s.parent_edge[_reached(s)] = s.ebase[1]


def _vertex_is_its_own_parent(oracle, payload):
    s = oracle.store
    v = _reached(s)
    s.parent[v] = v


def _leaf_with_a_right_child(oracle, payload):
    # the first leaf's first vertex joins both sides: the leaf reads as an
    # internal node, whose two subtrees never come
    def edit(arrays, s):
        v = s.vbase[_leaf(s, 0)]
        arrays["vside"][2 * v : 2 * v + 2] = [1, 1]

    return _file_with(oracle, edit)


def _meta_depth_too_deep(oracle, payload):
    oracle.store.meta[3] += 1


def _left_code_at_a_leaf(oracle, payload):
    # a leaf's slot is CROSS or LEAF, which the file codes as PRIMARY
    s = oracle.store
    s.kind[s.kind.index(LEAF)] = LEFT


def _right_code_at_a_leaf(oracle, payload):
    s = oracle.store
    s.kind[s.kind.index(LEAF)] = RIGHT


def _kind_five(oracle, payload):
    # past every side code: kind then takes 4 bits in the file
    oracle.store.kind[0] = 5


def _meta_depth_too_shallow(oracle, payload):
    oracle.store.meta[3] -= 1


def _path_position_past_the_path(oracle, payload):
    s = oracle.store
    s.esr[s.kind.index(PRIMARY)] = len(s.sr)


def _payload(arrays: dict) -> bytes:
    """A payload that holds the file arrays ``arrays``, by name, each at
    its ``FILE`` type."""
    header = [len(FILE).to_bytes(4, "little")]
    header += [name.encode().ljust(12, b"\0") + code.encode() + len(arrays[name]).to_bytes(8, "little")
               for name, code in FILE]
    return b"".join(header + [np.asarray(arrays[name]).astype(code).tobytes() for name, code in FILE])


def _file_with(oracle, edit) -> bytes:
    """The payload of a file that holds ``oracle``'s arrays as a file holds
    them (counts, side bits and local values), each at its table type, once
    ``edit`` has changed them. ``edit`` gets the arrays by name, as lists,
    and the store they code."""
    arrays = {name: v.tolist() for name, v in file_arrays(oracle.store)}
    edit(arrays, oracle.store)
    return _payload(arrays)


def _owner(base, slot: int) -> int:
    return max(i for i in range(len(base) - 1) if base[i] <= slot)


def _internal(s, i: int = 0) -> int:
    """The ``i``-th internal node in preorder."""
    return [j for j, (left, _) in enumerate(children(s)) if left >= 0][i]


def _leaf(s, i: int = 0) -> int:
    """The ``i``-th leaf in preorder."""
    return [j for j, (left, _) in enumerate(children(s)) if left < 0][i]


def _separator_slot(s, i: int) -> int:
    """Internal node ``i``'s separator vertex slot."""
    return s.vbase[i] + separator(s, i)


def _slot_on_one_side(s, node: int, side: int) -> int:
    """The first vertex slot of ``node`` on side ``side`` (0: M, 1: N)
    alone, whose link on that side is its only one."""
    return next(v for v in range(s.vbase[node], s.vbase[node + 1])
                if s.vlink[2 * v + side] >= 0 and s.vlink[2 * v + 1 - side] < 0)


def _count_past_int32(oracle, payload):
    def edit(arrays, s):
        arrays["vbase"][2] = 2**31 - 1

    return _file_with(oracle, edit)


def _negative_count(oracle, payload):
    def edit(arrays, s):
        arrays["dep_off"][1] = -1

    return _file_with(oracle, edit)


def _vbase_too_long(oracle, payload):
    def edit(arrays, s):
        arrays["vbase"].append(0)

    return _file_with(oracle, edit)


def _vbase_decreases(oracle, payload):
    def edit(arrays, s):
        arrays["vbase"][2] = -1

    return _file_with(oracle, edit)


def _dep_off_too_long(oracle, payload):
    def edit(arrays, s):
        arrays["dep_off"].append(0)

    return _file_with(oracle, edit)


def _vside_too_long(oracle, payload):
    def edit(arrays, s):
        arrays["vside"].append(0)

    return _file_with(oracle, edit)


def _vside_two(oracle, payload):
    def edit(arrays, s):
        arrays["vside"][0] = 2

    return _file_with(oracle, edit)


def _esr_too_long(oracle, payload):
    def edit(arrays, s):
        arrays["esr"].append(0)

    return _file_with(oracle, edit)


def _esr_at_every_edge_slot(oracle, payload):
    # as format SDO10 held it: -1 off the path
    def edit(arrays, s):
        positions = iter(arrays["esr"])
        arrays["esr"] = [next(positions) if k == PRIMARY else -1 for k in s.kind]

    return _file_with(oracle, edit)


def _dist_r_at_every_slot(oracle, payload):
    def edit(arrays, s):
        arrays["dist_r"] = list(s.dist_r)

    return _file_with(oracle, edit)


def _sr_short_of_its_indexes(oracle, payload):
    # a node's sr entries end below a path position one of its PRIMARY
    # slots holds, though above every departure of the node
    def edit(arrays, s):
        for i in range(len(s.sbase) - 1):
            lo, hi = s.sbase[i], s.sbase[i + 1]
            top = max((s.esr[e] - lo for e in range(s.ebase[i], s.ebase[i + 1]) if s.kind[e] == PRIMARY),
                      default=0)
            departs = s.dsr[s.dep_off[s.vbase[i]] : s.dep_off[s.vbase[i + 1]]]
            if top and max(departs, default=lo) - lo <= top:
                arrays["sbase"][i + 1] = top
                del arrays["sr"][lo + top : hi]
                return
        raise AssertionError("no node to cut")

    return _file_with(oracle, edit)


def _child_vertex_out_of_range(oracle, payload):
    # a root vertex of side M leaves it: one vertex short of the left child
    def edit(arrays, s):
        arrays["vside"][2 * _slot_on_one_side(s, 0, 0)] = 0

    return _file_with(oracle, edit)


def _side_count_off_by_one(oracle, payload):
    # a root vertex of side N leaves it: one vertex short of the right child
    def edit(arrays, s):
        arrays["vside"][2 * _slot_on_one_side(s, 0, 1) + 1] = 0

    return _file_with(oracle, edit)


def _vertex_link_at_the_child_count(oracle, payload):
    # a root vertex of side M moves to side N
    def edit(arrays, s):
        v = _slot_on_one_side(s, 0, 0)
        arrays["vside"][2 * v : 2 * v + 2] = [0, 1]

    return _file_with(oracle, edit)


def _backward_vertex_link(oracle, payload):
    def edit(arrays, s):
        i = _internal(s, 1)
        arrays["vside"][2 * _slot_on_one_side(s, i, 1) + 1] = 0

    return _file_with(oracle, edit)


def _two_separators(oracle, payload):
    def edit(arrays, s):
        arrays["vside"][2 * _slot_on_one_side(s, 0, 0) + 1] = 1

    return _file_with(oracle, edit)


def _separator_past_the_root(oracle, payload):
    # the root's separator leaves side N, and node 1's first vertex joins it
    def edit(arrays, s):
        r = _separator_slot(s, 0)
        arrays["vside"][2 * r + 1] = 0
        arrays["vside"][2 * s.vbase[1] + 1] = 1

    return _file_with(oracle, edit)


def _child_edge_past_the_child(oracle, payload):
    def edit(arrays, s):
        arrays["kind"][s.kind.index(CROSS)] = LEFT

    return _file_with(oracle, edit)


def _edge_link_in_the_wrong_child(oracle, payload):
    def edit(arrays, s):
        arrays["kind"][s.kind.index(LEFT)] = RIGHT

    return _file_with(oracle, edit)


def _edge_link_at_the_child_count(oracle, payload):
    def edit(arrays, s):
        arrays["kind"][s.kind.index(RIGHT)] = CROSS

    return _file_with(oracle, edit)


def _leaf_row_past_its_leaf(oracle, payload):
    def edit(arrays, s):
        arrays["kind"][s.kind.index(LEAF)] = CROSS

    return _file_with(oracle, edit)


def _leaf_row_past_the_rows(oracle, payload):
    def edit(arrays, s):
        arrays["rows"].pop()

    return _file_with(oracle, edit)


def _path_position_past_its_node(oracle, payload):
    # the first path's sr entries end where the next node's start, inside sr
    def edit(arrays, s):
        es = s.kind.index(PRIMARY)
        i = _owner(s.ebase, es)
        assert s.sbase[i + 1] < len(s.sr)
        arrays["esr"][0] = s.sbase[i + 1] - s.sbase[i]

    return _file_with(oracle, edit)


def _departure_past_its_node(oracle, payload):
    # a route departs at the separator at most, at the path's sr count
    def edit(arrays, s):
        i = _owner(s.vbase, next(v for v in range(s.vbase[-1]) if s.dep_off[v + 1] > 0))
        arrays["dsr"][0] = s.sbase[i + 1] - s.sbase[i] + 1

    return _file_with(oracle, edit)


# The payload header: a 4-byte count, then per array a 12-byte name, a
# 1-byte typecode and an 8-byte length; the first array is "meta".
def _header_length_disagrees(oracle, payload):
    length = int.from_bytes(payload[17:25], "little")
    return payload[:17] + (length + 1).to_bytes(8, "little") + payload[25:]


def _unknown_typecode(oracle, payload):
    return payload[:16] + b"Z" + payload[17:]


def _entry(name: str) -> int:
    """Where array ``name``'s header entry starts in the payload."""
    return 4 + 21 * [n for n, _ in FILE].index(name)


def _declared(name: str, code: bytes):
    """A craft that gives array ``name``'s header entry the typecode ``code``."""
    at = _entry(name) + 12

    def craft(oracle, payload):
        return payload[:at] + code + payload[at + 1 :]

    return craft


# both wider than the table: loading them would truncate
_parent_declared_q = _declared("parent", b"q")
_vside_declared_h = _declared("vside", b"h")


def _padding_set(name: str, bits: int, craft_name: str):
    """A craft that sets the lowest bit of array ``name``'s last byte, where
    its values, packed at ``bits`` bits each, end before the byte does."""

    def craft(oracle, payload):
        at = 4 + 21 * len(FILE)
        for got, code, length, size in serialize._entries(memoryview(payload)):
            if got == name:
                assert code == str(bits) and length * bits % 8
                end = at + size - 1
                return payload[:end] + bytes([payload[end] | 1]) + payload[end + 1 :]
            at += size

    craft.__name__ = craft_name
    return craft


_bit_past_the_last_slot = _padding_set("vside", 1, "_bit_past_the_last_slot")
_side_code_past_the_last_slot = _padding_set("kind", 2, "_side_code_past_the_last_slot")
_length_past_the_last_entry = _padding_set("dep_len", 4, "_length_past_the_last_entry")


@pytest.mark.parametrize(
    "craft, reason",
    [
        (_child_node_points_upward, "follows the end of the tree"),
        (_departing_segment_not_monotone, "not doubly monotone"),
        (_negative_distance, "dist_r holds a distance outside [0, INF]"),
        (_meta_too_short, "meta is not 5 values"),
        (_source_outside_the_graph, "meta out of range"),
        (_parent_too_long, "parent does not hold n entries"),
        (_vbase_too_long, "vbase does not hold nodes + 1 entries"),
        (_vbase_decreases, "vbase decreases"),
        (_left_too_long, "node 1 follows the end of the tree"),
        (_vside_too_long, "vside does not hold two entries per vertex slot"),
        (_esr_too_long, "esr does not hold one entry per PRIMARY slot"),
        (_esr_at_every_edge_slot, "esr does not hold one entry per PRIMARY slot"),
        (_dist_r_at_every_slot, "dist_r does not hold one entry per tabled slot"),
        (_sr_short_of_its_indexes, "path position out of range"),
        (_dep_off_too_long, "dep_off length"),
        (_dep_off_decreases, "dep_off decreases"),
        (_dep_off_short_of_the_entries, "dep_off does not end at the departing entries"),
        (_edge_key_repeated, "edge_keys not sorted"),
        (_edge_key_past_n_squared, "edge key out of range"),
        (_root_short_of_the_input_vertices, "the root does not hold the input vertices"),
        (_source_with_a_parent, "source has a parent"),
        (_parent_past_n, "parent out of range"),
        (_parent_without_parent_edge, "parent and parent edge disagree"),
        (_parent_edge_past_the_root, "parent edge out of range"),
        (_vertex_is_its_own_parent, "source tree is not a tree"),
        (_leaf_with_a_right_child, "the tree leaves 2 subtrees open after its last node"),
        (_separator_past_the_root, "node 1 follows the end of the tree"),
        (_two_separators, "node 0 separator marks 2 slots"),
        (_vside_two, "vside is not 0 or 1"),
        (_meta_depth_too_deep, "meta depth differs from the tree"),
        (_left_code_at_a_leaf, "side code unknown"),
        (_right_code_at_a_leaf, "side code unknown"),
        (_kind_five, "side code unknown"),
        (_meta_depth_too_shallow, "meta depth differs from the tree"),
        (_child_vertex_out_of_range, "child vertex slot out of range: node 0 side M"),
        (_side_count_off_by_one, "child vertex slot out of range: node 0 side N"),
        (_vertex_link_at_the_child_count, "child vertex slot out of range: node 0 side M"),
        (_backward_vertex_link, "child vertex slot out of range"),
        (_child_edge_past_the_child, "child edge id or leaf row out of range: node 0 side M"),
        (_edge_link_in_the_wrong_child, "child edge id or leaf row out of range: node 0 side M"),
        (_edge_link_at_the_child_count, "child edge id or leaf row out of range: node 0 side N"),
        (_leaf_row_past_its_leaf, "child edge id or leaf row out of range: the LEAF slots"),
        (_leaf_row_past_the_rows, "child edge id or leaf row out of range: the LEAF slots"),
        (_path_position_past_the_path, "path position out of range"),
        (_count_past_int32, "vbase decreases: a count is negative or passes int32"),
        (_negative_count, "dep_off decreases: a count is negative or passes int32"),
        (_path_position_past_its_node, "path position out of range"),
        (_departure_past_its_node, "departure position out of range"),
        (_header_length_disagrees, "do not fill the payload"),
        (_unknown_typecode, "does not match the oracle's array table"),
        (_parent_declared_q, "does not match the oracle's array table"),
        (_vside_declared_h, "does not match the oracle's array table"),
        (_bit_past_the_last_slot, "vside sets a bit past its last value"),
        (_side_code_past_the_last_slot, "kind sets a bit past its last value"),
        (_length_past_the_last_entry, "dep_len sets a bit past its last value"),
    ],
)
def test_crafted_file_with_valid_digest_is_rejected(craft, reason, tmp_path, capsys):
    target = tmp_path / "crafted.oracle"
    save_oracle(build_oracle(tree_plus_chords(60, 60, 9), 0), target)
    oracle = load_oracle(target)
    payload = target.read_bytes()[len(MAGIC) + DIGEST :]
    crafted = craft(oracle, payload)
    target.write_bytes(dump_oracle(oracle) if crafted is None else _sealed(crafted))
    with pytest.raises(ValueError, match="crafted.oracle") as exc:
        load_oracle(target)
    assert reason in str(exc.value)
    assert main(["query", str(target), "0", "1", "0", "1"]) == 2
    assert "crafted.oracle" in capsys.readouterr().err


def test_check_names_the_first_bad_node(tmp_path):
    # two faults in the separator bits of one file: the check names the
    # first node at which either shows
    target = tmp_path / "two.oracle"
    s = build_oracle(tree_plus_chords(60, 60, 9), 0).store
    leaves = [i for i in range(len(s.vbase) - 1) if separator(s, i) < 0 and s.vbase[i + 1] - s.vbase[i] >= 2]
    first, last = leaves[0], leaves[-1]
    inner = _internal(s, -1)
    assert 1 < first < inner < last

    def load(*faults):
        arrays = dict(file_arrays(s))
        for fault, i in faults:
            fault(arrays["vside"], i)
        target.write_bytes(_sealed(_payload(arrays)))
        with pytest.raises(ValueError) as exc:
            load_oracle(target)
        return str(exc.value)

    def two_separators(vside, i):
        # node i's first two vertices join both sides
        v = s.vbase[i]
        vside[2 * v : 2 * v + 4] = 1

    def no_separator(vside, i):
        vside[2 * _separator_slot(s, i) + 1] = 0

    assert load((two_separators, last), (two_separators, first)).endswith(f"node {first} separator marks 2 slots")
    assert load((two_separators, first), (no_separator, 0)).endswith("node 1 follows the end of the tree")
    assert load((no_separator, inner), (two_separators, first)).endswith(f"node {first} separator marks 2 slots")
    ended = re.search(r"node (\d+) follows the end of the tree$", load((two_separators, last), (no_separator, inner)))
    assert ended and inner < int(ended[1]) < last


def _fuzzed_files(arrays: dict, rounds: int, rng: random.Random):
    """Copies of the file arrays ``arrays`` with one entry changed,
    ``rounds`` per array and edge value: -2, -1, 0, 1, 2, len - 1, len,
    127, 128, 32767, 32768 and 2**31 - 1, and for distance arrays INF and
    INF + 1. 1 and 2 are side codes and bits past vside's 0 or 1, and small
    ids and counts; 127 to 32768 cross the edges of the file's 1- and
    2-byte widths. Values the array's type cannot hold are skipped."""
    for name, code in FILE:
        a = arrays[name]
        values = [-2, -1, 0, 1, 2, len(a) - 1, len(a), 127, 128, 32767, 32768, 2**31 - 1]
        if code == "q":
            values += [INF, INF + 1]
        bits = 8 * array(code).itemsize
        for value in values:
            if not (len(a) and -(1 << (bits - 1)) <= value < 1 << (bits - 1)):
                continue
            for _ in range(rounds):
                copy = {other: b.copy() for other, b in arrays.items()}
                copy[name][rng.randrange(len(a))] = value
                yield copy


def test_fuzzed_store_fails_only_with_value_error(tmp_path):
    """Each fuzzed file fails to load with the message of the element-wise
    reference check, or loads and answers without raising anything but
    ValueError."""
    target = tmp_path / "fuzzed.oracle"
    store = build_oracle(tree_plus_chords(60, 60, 9), 0).store
    parent = store.parent
    faults = []
    for t in range(len(parent)):
        v = t
        while parent[v] >= 0:
            faults.append((t, (parent[v], v)))
            v = parent[v]
    arrays = {name: np.asarray(v).astype(code) for (name, v), (_, code) in zip(file_arrays(store), FILE)}
    tried = loaded = 0
    for fuzzed in _fuzzed_files(arrays, 2, random.Random(13)):
        try:
            loop_check(file_store(fuzzed))
            expected = None
        except ValueError as exc:
            expected = str(exc)
        target.write_bytes(_sealed(_payload(fuzzed)))
        tried += 1
        if expected is not None:
            with pytest.raises(ValueError, match="fuzzed.oracle") as exc:
                load_oracle(target)
            assert str(exc.value).endswith(expected)
            continue
        oracle = load_oracle(target)
        loaded += 1
        try:
            ssrp(oracle)
            for t, e in faults:
                query(oracle, t, e)
        except ValueError:
            pass
    assert tried >= 300 and 0 < loaded < tried
