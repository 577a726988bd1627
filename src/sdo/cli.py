"""Command line front end: build, query, ssrp, stats, verify, bench."""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

from .baseline import brute_ssrp
from .generators import path_faults, tree_plus_chords, verify_corpus
from .graphs import UNREACHABLE, GraphFormatError, read_graph, write_graph
from .oracle import OracleTree, build_oracle
from .query import SsrpOutput, query, ssrp
from .serialize import file_entries, load_oracle, save_oracle
from .spt import dijkstra


def _load_or_build(path: str, source: int) -> OracleTree:
    p = Path(path)
    if p.suffix == ".oracle":
        oracle = load_oracle(p)
        if oracle.original_source != source:
            raise ValueError(
                f"oracle was built for source {oracle.original_source}, not {source}"
            )
        return oracle
    return build_oracle(read_graph(p), source)


def _fmt(d) -> str:
    return "INF" if d is UNREACHABLE else str(d)


def _record(out: SsrpOutput, i: int) -> str:
    """Record ``i`` as ``[t=.. e=(x,y) d=..]``, or ``none`` past the end."""
    if i >= len(out.t):
        return "none"
    t, (x, y), d = out.records[i]
    return f"[t={t} e=({x},{y}) d={_fmt(d)}]"


def cmd_build(args) -> int:
    g = read_graph(args.graph)
    oracle = build_oracle(g, args.source)
    out = Path(args.graph).with_suffix(Path(args.graph).suffix + ".oracle")
    save_oracle(oracle, out)
    print(f"n={g.n} m={g.m} tree_depth={oracle.depth} nodes={oracle.node_count}")
    print(f"dep_entries={oracle.total_dep_entries} oracle={out}")
    return 0


def cmd_query(args) -> int:
    oracle = _load_or_build(args.graph, args.source)
    result = query(oracle, args.t, (args.x, args.y))
    print(_fmt(result.distance))
    return 0


def cmd_ssrp(args) -> int:
    oracle = _load_or_build(args.graph, args.source)
    sys.stdout.write(ssrp(oracle).to_tsv())
    return 0


def cmd_stats(args) -> int:
    store = load_oracle(args.oracle).store
    n, source, nodes, depth, entries = store.meta
    print(f"n={n} source={source} nodes={nodes} depth={depth} dep_entries={entries}")
    tables = (
        ("in memory:", [(name, a.typecode, len(a), len(a) * a.itemsize) for name, a in store.arrays()]),
        ("in the file:", file_entries(args.oracle)),
    )
    for title, rows in tables:
        print(title)
        print(f"{'array':<12} {'type':>4} {'length':>10} {'bytes':>10}")
        for name, code, length, size in rows:
            print(f"{name:<12} {code:>4} {length:>10} {size:>10}")
        print(f"{'total':<12} {'':>4} {'':>10} {sum(row[3] for row in rows):>10}")
    return 0


def cmd_verify(args) -> int:
    for i, (label, g, source) in enumerate(
        verify_corpus(args.seed, args.count, args.max_n)
    ):
        oracle = build_oracle(g, source)
        got, want = ssrp(oracle), brute_ssrp(g, source)
        idx = got.first_difference(want)
        if idx is not None:
            dump = Path(f"verify_fail_seed{args.seed}_case{i}.graph")
            write_graph(g, dump)
            print(
                f"MISMATCH case {i} {label} source={source} record {idx}: "
                f"got={_record(got, idx)} expected={_record(want, idx)}; graph -> {dump}",
                file=sys.stderr,
            )
            return 1
        print(f"ok case {i} {label} source={source} records={len(got.t)}")
    print(f"verified {args.count} graphs, all records match")
    return 0


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    print(f"{'n':>8} {'m':>8} {'build_s':>9} {'max_dep':>8} {'query_us':>9} {'ssrp_s':>8}"
          f" {'load_s':>8}")
    for n in args.sizes:
        g = tree_plus_chords(n, 2 * n, rng.randrange(1 << 30))
        t0 = time.perf_counter()
        oracle = build_oracle(g, 0)
        build_s = time.perf_counter() - t0
        off = oracle.store.dep_off
        max_dep = max((b - a for a, b in zip(off, off[1:])), default=0)
        cases = path_faults(dijkstra(g, 0), args.queries, rng)
        query(oracle, *cases[0])  # an untimed warm-up query
        t0 = time.perf_counter()
        for t, e in cases:
            query(oracle, t, e)
        per_query_us = (time.perf_counter() - t0) / len(cases) * 1e6
        t0 = time.perf_counter()
        ssrp(oracle)
        ssrp_s = time.perf_counter() - t0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench.oracle"
            save_oracle(oracle, path)
            t0 = time.perf_counter()
            load_oracle(path)
            load_s = time.perf_counter() - t0
        print(f"{g.n:>8} {g.m:>8} {build_s:>9.3f} {max_dep:>8} {per_query_us:>9.2f} {ssrp_s:>8.3f}"
              f" {load_s:>8.4f}")
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    return parse


def _sizes(text: str) -> list[int]:
    """An argparse type: comma-separated graph sizes, each at least 2."""
    return [_at_least(2)(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdo",
        description="Single-source distance oracle for one edge fault.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an oracle and serialize it")
    p.add_argument("graph")
    p.add_argument("source", type=int)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer one fault query")
    p.add_argument("graph", help="graph file or .oracle file")
    p.add_argument("source", type=int)
    p.add_argument("t", type=int)
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("ssrp", help="stream every (t, edge) replacement length")
    p.add_argument("graph", help="graph file or .oracle file")
    p.add_argument("source", type=int)
    p.set_defaults(func=cmd_ssrp)

    p = sub.add_parser("stats", help="print what an .oracle file stores")
    p.add_argument("oracle")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="diff the oracle against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(1), default=50)
    p.add_argument("--max-n", type=_at_least(5), default=120)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="build/query/ssrp/load timing table")
    p.add_argument("--sizes", type=_sizes, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=_at_least(1), default=2000)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"graph format error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
