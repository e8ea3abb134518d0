"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the smallest size (``--seconds 1``), untraced and
traced, and checks that the result line carries every metric of the
catalog with its unit, that the human-readable lines name each metric, and
that ``BENCHMARK.json`` lists exactly the catalog's metrics.  It also checks
that the benchmark refuses to run, without a result line, in a directory
holding only ``BENCHMARK.json`` and the benchmark's files.  Exits non-zero
on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] != END_TO_END:
        fail("BENCHMARK.json end_to_end differs from catalog.END_TO_END")
    if [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] != PER_LAYER:
        fail("BENCHMARK.json per_layer differs from catalog.PER_LAYER")


def check_run(workload: str, trace: int) -> None:
    completed = run(ROOT, workload, trace)
    if completed.returncode != 0:
        fail(f"{workload} trace={trace} exited {completed.returncode}:\n"
             f"{completed.stderr[-3000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload}: correct={result['correct']} "
             f"attempted={result['attempted']}")
    names = ([name for name, *_ in END_TO_END] if trace == 0
             else [name for name, *_ in PER_LAYER])
    if list(result["metrics"]) != names:
        fail(f"{workload} trace={trace}: metric names differ from catalog")
    for name in names:
        entry = result["metrics"][name]
        if entry["unit"] != UNITS[name] or not isinstance(entry["value"], float):
            fail(f"{workload}: {name} printed as {entry}")
        if not any(line.split()[1:2] == [name] for line in lines[:-1]):
            fail(f"{workload}: no human-readable line for {name}")
    if trace == 0:
        for name, *_ in END_TO_END:
            if result["metrics"][name]["value"] <= 0:
                fail(f"{workload}: {name} is not positive")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run(bare, "paper-sweep", 0)
        if completed.returncode == 0 or completed.stdout.strip():
            fail("the benchmark ran without a source tree")


def main() -> int:
    check_manifest()
    check_refuses_without_source()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok: {workload} trace={trace}", flush=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
