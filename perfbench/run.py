#!/usr/bin/env python3
"""Benchmark of the sdo one-fault distance oracle.

    python3 perfbench/run.py --workload point-sparse --seed 1 --seconds 10 --trace 0

Runs one workload in this process (one closed-loop client) and prints, as
its last stdout line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the machine and run metadata. Both also go to
perfbench/_out/. The library is imported from ./src of the checkout the
command runs in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if workloads.load_sdo() is None:
        print(f"error: src/sdo or scripts/dep_growth.py missing under {workloads.ROOT}",
              file=sys.stderr)
        return 2

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    meta = result.pop("meta")
    meta.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        machine=platform.machine(),
    )
    out = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
