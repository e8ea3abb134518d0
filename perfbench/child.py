"""One workload in its own process; ``run.py`` starts and reads these.

``--mode setup`` times set-up and warm-up and exits.  ``--mode measure``
times set-up, then runs the workload's blocks round-robin, untraced, for
about ``--seconds``, with the workload's reference job interleaved (see
``calibrate.py``), and prints per-block work, each block's and each call's
median calibrated time, and peak RSS.  Set-up time is calibrated too.
``--mode trace`` runs ``--blocks`` blocks untraced, then (for paper-sweep)
the L0-L5 ladder, then the same blocks again with every layer's entry
points wrapped, and prints the per-layer ledger.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibrate import REFERENCES  # noqa: E402
from workloads import WORKLOADS, Workload, check, mix  # noqa: E402

LADDER_TRIALS = 5
LADDER_REPS = 7
# Reference time interleaved after each block, as a share of the block's.
REFERENCE_SHARE = 0.05


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_block(workload: Workload, k: int) -> Dict[str, Any]:
    """Run block ``k`` (already planned) under the clock."""
    clock = time.perf_counter_ns
    start = clock()
    result = workload.run_block(k)
    result["ns"] = clock() - start
    if workload.probe is not None:
        latencies, steps = workload.probe.take()
        result.setdefault("latencies_ms", latencies)
        result.setdefault("steps", steps)
        result["probe_ns"] = sum(latencies) * 1e6
    return result


def _fingerprint(result: Dict[str, Any]) -> List[Any]:
    """What a block must reproduce exactly on every repeat."""
    counts = sorted((key, value)
                    for key, value in result.get("counts", {}).items()
                    if not key.endswith("_ns"))
    return [result["steps"], result["ops"], result["failed"],
            result["completed"], counts]


def measure(workload: Workload, seconds: float,
            setup_s: float) -> Dict[str, Any]:
    """Run the blocks round-robin for about ``seconds`` (at least one
    round; no round starts that would end past the deadline).  After each
    block the reference job runs for ``REFERENCE_SHARE`` of the block's
    time; each round's mean reference time calibrates that round's block
    and call times.  A block reports the median of its calibrated runs, a
    call the median of its calibrated latencies.  A repeat that does not
    reproduce its block's work exactly fails the run.
    """
    reference = REFERENCES[workload.calibration]
    blocks = workload.blocks
    for k in range(blocks):
        workload.plan(k)
    fingerprints: List[Optional[List[Any]]] = [None] * blocks
    block_s: List[List[float]] = [[] for _ in range(blocks)]
    call_ms: List[List[List[float]]] = [[] for _ in range(blocks)]
    factors: List[float] = []
    steps = ops = attempted = failed = completed = 0
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        results, reference_ns = [], []
        for k in range(blocks):
            result = _run_block(workload, k)
            reference_ns += reference.run_for(result["ns"] * REFERENCE_SHARE)
            latencies = result["latencies_ms"]
            if fingerprints[k] is None:
                fingerprints[k] = _fingerprint(result)
                call_ms[k] = [[] for _ in latencies]
                steps += result["steps"]
                ops += result["ops"]
            check(_fingerprint(result) == fingerprints[k]
                  and len(latencies) == len(call_ms[k]),
                  f"block {k}: a repeat did different work")
            attempted += result["attempted"]
            failed += result["failed"]
            completed += result["completed"]
            results.append(result)
        factor = reference.factor(reference_ns)
        factors.append(factor)
        for k, result in enumerate(results):
            block_s[k].append(result["ns"] / 1e9 * factor)
            for samples, ms in zip(call_ms[k], result["latencies_ms"]):
                samples.append(ms * factor)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    peak = _peak_rss_mb()
    workload.reference()
    median = statistics.median
    return {"setup_s": setup_s, "blocks": blocks, "rounds": len(factors),
            "steps": steps, "ops": ops,
            "pass_s": sum(median(runs) for runs in block_s),
            "latencies_ms": [median(samples) for block in call_ms
                             for samples in block],
            "factor": median(factors),
            "attempted": attempted, "failed": failed, "completed": completed,
            "peak_rss_mb": peak}


def _pass(workload: Workload, blocks: int) -> Dict[str, float]:
    totals: Dict[str, float] = {"blocks": blocks}
    for k in range(blocks):
        workload.plan(k)
    for k in range(blocks):
        result = _run_block(workload, k)
        for key in ("ops", "attempted", "failed", "ns"):
            totals[key] = totals.get(key, 0) + result[key]
        totals["worker_ns"] = totals.get("worker_ns", 0) + result.get(
            "probe_ns", 0)
        for key, value in result.get("counts", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def trace(workload: Workload, blocks: int) -> Dict[str, Any]:
    from ladder import run_ladder
    from tracer import Tracer, install, ledger

    untraced = _pass(workload, blocks)
    workload.reference()
    metrics: Dict[str, float] = {}
    if workload.name == "paper-sweep":
        metrics.update(run_ladder(
            workload.protocols, lambda index: mix(workload.seed, "ladder", index),
            LADDER_TRIALS, LADDER_REPS))
    if workload.probe is not None:
        workload.probe.take()  # drop calls made by the reference and ladder
    tracer = Tracer()
    install(tracer)
    workload.instrument(tracer)
    traced = _pass(workload, blocks)
    metrics.update(ledger(tracer))
    metrics.update(workload.ledger(traced, untraced, tracer))
    untraced_rate = untraced["ops"] / (untraced["ns"] / 1e9)
    traced_rate = traced["ops"] / (traced["ns"] / 1e9)
    metrics.update({
        "tracer.untraced_ops_per_sec": untraced_rate,
        "tracer.traced_ops_per_sec": traced_rate,
        "tracer.overhead": untraced_rate / traced_rate - 1.0,
        "tracer.unattributed_share": 1.0 - tracer.attributed_ns() / (
            traced["ns"] - tracer.overhead_ns()),
    })
    return {"metrics": metrics, "attempted": int(traced["attempted"]),
            "failed": int(traced["failed"])}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--blocks", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.warm_up()
    setup_s = time.perf_counter() - START
    # Set-up is mostly imports, so every workload calibrates it with the
    # Python reference (the NumPy one's first runs fault in fresh pages).
    setup_s *= REFERENCES["python"].settle()
    if args.mode == "setup":
        output = {"setup_s": setup_s}
    elif args.mode == "measure":
        output = measure(workload, args.seconds, setup_s)
    else:
        output = trace(workload, args.blocks)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
