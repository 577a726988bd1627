#!/usr/bin/env python3
"""How the largest departing-path array grows with graph size.

Two families: random sparse graphs (short primary paths, tiny arrays) and
the nested-arcs construction whose arrays genuinely grow like sqrt(n).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdo.cli import _sizes
from sdo.departing import build_dep
from sdo.generators import nested_arcs, tree_plus_chords
from sdo.oracle import build_oracle
from sdo.spt import dijkstra, tree_path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,256,1024", type=_sizes)
    ap.add_argument("--seeds", default="11,12,13,14,15",
                    type=lambda s: [int(x) for x in s.split(",")])
    args = ap.parse_args()

    print("random sparse (m ~ 3n), max |Dep| at the root over seeds:")
    for n in args.sizes:
        peak = 0
        for seed in args.seeds:
            store = build_oracle(tree_plus_chords(n, 2 * n, seed), 0).store
            off = store.dep_off[store.vbase[0] : store.vbase[1] + 1]
            peak = max(peak, max((b - a for a, b in zip(off, off[1:])), default=0))
        print(f"  n={n:>6}  max|Dep|={peak}")

    print("nested arcs, |Dep(t)| against sqrt(n):")
    for k in (8, 16, 32, 64):
        g, t = nested_arcs(k)
        spt = dijkstra(g, 0)
        dep, _ = build_dep(g, spt, tree_path(spt, 0, k))
        print(f"  n={g.n:>6}  |Dep(t)|={len(dep[t]):>4}  sqrt(n)={g.n ** 0.5:6.1f}")


if __name__ == "__main__":
    main()
