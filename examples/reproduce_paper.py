#!/usr/bin/env python3
"""Reproduce every experiment (E1-E20) and emit the EXPERIMENTS.md tables.

This is the full-scale version of what ``pytest benchmarks/`` runs quickly:
each experiment regenerates one of the paper's quantitative claims and
reports measured-vs-paper columns plus a shape verdict.

Run:  python examples/reproduce_paper.py [--scale 1.0] [--markdown out.md]

At scale 1.0 this takes a few minutes; use --scale 0.25 for a fast pass, or
``--workers 0`` to shard trials over every CPU (tables stay bit-identical —
see EXPERIMENTS.md, "Parallel execution").
"""

import argparse
import sys
import time

from repro.analysis.paper import select_experiments
from repro.runtime.parallel import parallelism


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trial-count multiplier (default 1.0)")
    parser.add_argument("--markdown", type=str, default="",
                        help="also write the tables as a markdown fragment")
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids, e.g. E1,E5")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per sweep (0 = all CPUs); "
                             "results are identical for any value")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="trials per dispatch unit (default: auto)")
    args = parser.parse_args()

    tables = []
    all_ok = True
    with parallelism(workers=args.workers, chunk_size=args.chunk_size):
        for experiment in select_experiments(args.only):
            started = time.time()
            table = experiment(scale=args.scale)
            elapsed = time.time() - started
            tables.append(table)
            print(table.render())
            print(f"({elapsed:.1f}s)")
            print()
            all_ok = all_ok and table.shape_holds

    print(f"experiments run: {len(tables)}; all shapes hold: {all_ok}")

    if args.markdown:
        with open(args.markdown, "w") as handle:
            for table in tables:
                handle.write(f"### {table.experiment_id} — {table.claim}\n\n")
                handle.write("```\n")
                handle.write(table.render())
                handle.write("\n```\n\n")
        print(f"markdown fragment written to {args.markdown}")

    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
