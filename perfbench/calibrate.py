"""Reference work that calibrates the benchmark's clock on a shared host.

The CPU speed of a small shared machine moves by 25-50% from one stretch of
seconds to the next, and for minutes at a time, as its neighbours load it.
No estimator over one run's wall times removes a slowdown that lasts the
whole run.  So the measuring process interleaves a fixed reference job with
the workload's blocks, and expresses each block's time in *calibrated
seconds*: wall seconds times ``nominal_s`` over the reference's mean time in
the same round.  A slower host slows both, and the ratio stays.  The
reference is the benchmark's own code, never the program's, so a change to
the program moves only the numerator.

``nominal_s`` is roughly the reference's time on the quiet 2-vCPU Xeon this
was tuned on, so calibrated seconds read like wall seconds there.  Each
workload names the reference closest to its own work: ``python`` (generator
dispatch, attribute and dict traffic, like the simulator) or ``numpy``
(sorts and gathers over arrays larger than a private cache, like the
vectorized kernels).
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List


class _Register:
    __slots__ = ("value", "stamp")

    def __init__(self) -> None:
        self.value = 0
        self.stamp = 0


def python_job(rounds: int = 800) -> int:
    """Eight generator 'processes' stepping round-robin over registers."""
    registers = [_Register() for _ in range(16)]
    table: Dict[int, int] = {}

    def process(pid: int) -> Any:
        x = pid
        while True:
            op = yield x
            register = registers[(x + op) & 15]
            if op & 1:
                register.value = x
                register.stamp += 1
            else:
                x = (x * 1103515245 + register.value + 12345) & 0xFFFFFF
            table[x & 255] = table.get(x & 255, 0) + 1

    processes = [process(pid) for pid in range(8)]
    for generator in processes:
        next(generator)
    trail: List[Any] = []
    value = 0
    for step in range(rounds):
        for pid, generator in enumerate(processes):
            value = generator.send(step + pid)
        if step % 16 == 0:
            trail.append((step, value))
    return len(trail) + len(table)


class _NumpyJob:
    """Row-wise argsort of a 64 x 4096 key block plus a 2^20-entry gather."""

    def __init__(self) -> None:
        self.arrays: Any = None

    def __call__(self) -> int:
        if self.arrays is None:
            import numpy as np

            rng = np.random.default_rng(7)
            self.arrays = (
                np.argsort,
                rng.permutation(1 << 20),
                rng.integers(0, 2**32, size=(64, 4096), dtype=np.uint32),
            )
        argsort, permutation, keys = self.arrays
        order = argsort(keys, axis=-1)
        gathered = permutation[permutation]
        return int(order[0, 0]) + int(gathered[0])


class Reference:
    """A fixed job and its nominal time."""

    def __init__(self, job: Callable[[], int], nominal_s: float):
        self.job = job
        self.nominal_s = nominal_s

    def run_ns(self) -> int:
        clock = time.perf_counter_ns
        start = clock()
        self.job()
        return clock() - start

    def run_for(self, budget_ns: float) -> List[int]:
        """Run the job at least once and until ``budget_ns`` is spent.

        The cyclic collector is off meanwhile: a collection of the
        program's garbage would otherwise land in the reference's time.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = [self.run_ns()]
            while sum(times) < budget_ns:
                times.append(self.run_ns())
        finally:
            if enabled:
                gc.enable()
        return times

    def factor(self, times: List[int]) -> float:
        """Calibrated seconds per wall second, from reference times."""
        return self.nominal_s * 1e9 / (sum(times) / len(times))

    def settle(self, budget_ns: float = 60e6) -> float:
        """A stand-alone factor: median over a short burst of runs."""
        times = self.run_for(budget_ns)
        return self.nominal_s * 1e9 / statistics.median(times)


REFERENCES: Dict[str, Reference] = {
    "python": Reference(python_job, 0.002),
    "numpy": Reference(_NumpyJob(), 0.010),
}
