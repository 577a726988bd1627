"""Command line front end: build, query, ssrp, verify, bench."""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from .baseline import brute_ssrp
from .generators import path_faults, tree_plus_chords, verify_corpus
from .graphs import UNREACHABLE, GraphFormatError, read_graph, write_graph
from .oracle import OracleTree, build_oracle
from .query import query, ssrp
from .serialize import load_oracle, save_oracle


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


def cmd_verify(args) -> int:
    for i, (label, g, source) in enumerate(
        verify_corpus(args.seed, args.count, args.max_n)
    ):
        oracle = build_oracle(g, source)
        got = ssrp(oracle).records
        want = brute_ssrp(g, source).records
        if got != want:
            dump = Path(f"verify_fail_seed{args.seed}_case{i}.graph")
            write_graph(g, dump)
            idx = next(
                (k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            t, (x, y), expected = want[idx] if idx < len(want) else got[idx]
            print(
                f"MISMATCH case {i} {label} source={source}: "
                f"t={t} e=({x},{y}) expected={_fmt(expected)}; graph -> {dump}",
                file=sys.stderr,
            )
            return 1
        print(f"ok case {i} {label} source={source} records={len(got)}")
    print(f"verified {args.count} graphs, all records match")
    return 0


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    print(f"{'n':>8} {'m':>8} {'build_s':>9} {'max_dep':>8} {'query_us':>9}")
    for n in args.sizes:
        g = tree_plus_chords(n, 2 * n, rng.randrange(1 << 30))
        t0 = time.perf_counter()
        oracle = build_oracle(g, 0)
        build_s = time.perf_counter() - t0
        max_dep = max(
            (len(a) for node in oracle.nodes() if node.dep for a in node.dep),
            default=0,
        )
        cases = path_faults(oracle.root.spt_s, args.queries, rng)
        t0 = time.perf_counter()
        for t, e in cases:
            query(oracle, t, e)
        per_query_us = (time.perf_counter() - t0) / len(cases) * 1e6
        print(f"{g.n:>8} {g.m:>8} {build_s:>9.3f} {max_dep:>8} {per_query_us:>9.2f}")
    return 0


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

    p = sub.add_parser("verify", help="diff the oracle against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-n", type=int, default=120)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="build/query timing table")
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=2000)
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
