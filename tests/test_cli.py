import pytest

from sdo.cli import main
from sdo.generators import tree_plus_chords
from sdo.oracle import build_oracle
from sdo.serialize import MAGIC, dump_oracle, load_oracle, save_oracle


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


def test_bench_prints_table(capsys):
    assert main(["bench", "--sizes", "32,64", "--queries", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[0].split() == ["n", "m", "build_s", "max_dep", "query_us"]


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
    ):
        p = tmp_path / "junk.oracle"
        p.write_bytes(junk)
        with pytest.raises(ValueError, match="junk.oracle"):
            load_oracle(p)


def test_query_on_truncated_oracle_exits_2(path3, capsys):
    assert main(["build", str(path3), "0"]) == 0
    capsys.readouterr()
    oracle_path = path3.parent / "p3.graph.oracle"
    oracle_path.write_bytes(oracle_path.read_bytes()[:60])
    assert main(["query", str(oracle_path), "0", "1", "1", "2"]) == 2
    assert "p3.graph.oracle" in capsys.readouterr().err
