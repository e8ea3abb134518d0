"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it starts two child
processes that only set the workload up, then one that sets it up and
measures for ``--seconds`` (``setup_s`` is the median of the three
set-ups).  The measuring child runs the workload's blocks round-robin
with a reference job interleaved, and times are in calibrated seconds (see
``calibrate.py``).  It prints every end-to-end metric with its unit and
sample count, then, as the last line, one JSON object.  With ``--trace 1``
one child runs a fixed number of blocks untraced and again traced, and the
JSON carries the per-layer ledger instead.  ``--workload all`` runs every
workload in turn, each followed by its own JSON line.  A failed correctness
gate or a missing source tree exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
# Whole-run budget: the benchmark must exit within 180 s.
BUDGET_S = 170.0
# Capped at p99: a p99.9 over a few thousand calls is set by the host's
# scheduling hiccups, not by the program.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


class ChildFailed(RuntimeError):
    pass


def run_child(args: Sequence[str], deadline: float) -> Dict[str, Any]:
    """Run one child to completion and return its last-line JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"child {list(args)} timed out") from error
    if completed.returncode != 0:
        raise ChildFailed(
            f"child {list(args)} exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {list(args)} printed nothing")
    return json.loads(lines[-1])


def tail(samples: List[float]) -> tuple:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), as ``(percentile, value)``."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100 * count))
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    rank = max(1, math.ceil(0.5 * count))
    return 50.0, ordered[rank - 1]


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    deadline = time.monotonic() + BUDGET_S
    args = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(args + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    child = run_child(args + ["--mode", "measure", "--seconds", str(seconds)],
                      deadline)
    setups.append(child["setup_s"])
    latencies = child["latencies_ms"]
    percentile, tail_value = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "steps_per_sec": child["steps"] / child["pass_s"],
        "ops_per_sec": child["ops"] / child["pass_s"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_value,
        "completed_fraction": child["completed"] / child["attempted"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    rounds = f"{child['rounds']} rounds"
    blocks = f"{child['blocks']} blocks, median of {rounds} each"
    samples = {
        "setup_s": f"median of {SETUPS} set-ups",
        "steps_per_sec": blocks,
        "ops_per_sec": blocks,
        "latency_p50_ms": f"{len(latencies)} calls, median of {rounds} each",
        "latency_tail_ms": f"p{percentile:g} of {len(latencies)} calls",
        "completed_fraction": (f"{child['completed']} of "
                               f"{child['attempted']}"),
        "peak_rss_mb": "the measuring process",
    }
    print(f"{workload:<14} calibrated seconds per wall second: median "
          f"{child['factor']:.3f} over {rounds}")
    for name, _, _, _ in END_TO_END:
        print(f"{workload:<14} {name:<20} {values[name]:>16.6g} "
              f"{UNITS[name]:<9} {samples[name]}")
    return {"attempted": child["attempted"], "failed": child["failed"],
            "values": values}


def trace(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    blocks = min(WORKLOADS[workload].blocks, max(1, seconds // 2))
    child = run_child(["--workload", workload, "--seed", str(seed),
                       "--mode", "trace", "--blocks", str(blocks)],
                      time.monotonic() + BUDGET_S)
    values = child["metrics"]
    for name, unit, _ in PER_LAYER:
        print(f"{workload:<14} {name:<36} {values.get(name, 0.0):>16.6g} {unit}")
    return {"attempted": child["attempted"], "failed": child["failed"],
            "values": values}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in chosen:
        try:
            if args.trace:
                result = trace(workload, args.seed, args.seconds)
                names = [name for name, _, _ in PER_LAYER]
            else:
                result = measure(workload, args.seed, args.seconds)
                names = [name for name, _, _, _ in END_TO_END]
        except ChildFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        metrics = {
            name: {"value": float(result["values"].get(name, 0.0)),
                   "unit": UNITS[name]}
            for name in names
        }
        print(json.dumps({"correct": True,
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
