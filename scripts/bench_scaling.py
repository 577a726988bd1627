#!/usr/bin/env python3
"""Build-time and query-time scaling on sparse random graphs (m ~ 3n).

Prints one row per size and flags the two smoke thresholds: build-time
growth over a 4x size step should stay under 12x, mean query time under
50 microseconds.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdo.cli import _at_least, _sizes
from sdo.generators import path_faults, tree_plus_chords
from sdo.oracle import build_oracle
from sdo.query import query


def run(sizes: list[int], seed: int, queries: int) -> None:
    prev = None
    print(f"{'n':>8} {'m':>8} {'build_s':>9} {'ratio':>7} {'depth':>6} {'query_us':>9}")
    for n in sizes:
        g = tree_plus_chords(n, 2 * n, seed)
        t0 = time.perf_counter()
        oracle = build_oracle(g, 0)
        build_s = time.perf_counter() - t0

        cases = path_faults(oracle.spt, queries, random.Random(seed + 1))
        t0 = time.perf_counter()
        for t, e in cases:
            query(oracle, t, e)
        per_us = (time.perf_counter() - t0) / len(cases) * 1e6

        ratio = "" if prev is None else f"{build_s / prev:.2f}"
        print(f"{g.n:>8} {g.m:>8} {build_s:>9.3f} {ratio:>7} {oracle.depth:>6} {per_us:>9.2f}")
        if per_us > 50:
            print(f"  warning: mean query {per_us:.1f} us exceeds 50 us")
        if prev is not None and build_s / prev > 12:
            print(f"  warning: build ratio {build_s / prev:.1f} exceeds 12")
        prev = build_s


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="4096,16384", type=_sizes)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--queries", type=_at_least(1), default=10_000)
    args = ap.parse_args()
    run(args.sizes, args.seed, args.queries)
