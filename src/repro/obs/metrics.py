"""Metrics registry: counters and histograms with deterministic merging.

The registry exists to make the paper's quantities observable per run —
steps per process, rounds to decision, register contention, scheduler
queue depth — and to aggregate them across the PR 1 parallel trial engine
without breaking its core contract: **a parallel sweep is bit-identical to
a serial one**.  Three rules make that hold for metrics too:

- metric state is plain data (ints, floats, bounded sample lists), never
  wall-clock or host-dependent unless the caller explicitly records it;
- each trial collects into its own fresh registry, and per-trial
  *snapshots* travel back to the coordinator through the parallel engine,
  which re-orders them by trial index;
- the coordinator folds snapshots **in trial order** with
  :func:`merge_snapshots`; the fold is a pure function of the snapshot
  sequence, so worker count and chunking cannot change the result.

Histograms keep exact ``count``/``total``/``min``/``max`` and a bounded,
*deterministically decimated* sample list for quantiles: when the retained
samples would exceed ``max_samples``, every second retained sample is
dropped and the retention stride doubles.  Decimation depends only on the
observation sequence, never on time or randomness, so it survives the
bit-identical contract (quantiles become approximate for huge streams, the
moments stay exact).

Snapshots are versioned JSON; readers reject foreign versions loudly.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.errors import ConfigurationError
from repro.jsonio import expect_versioned
from repro.runtime.hooks import StepHook
from repro.runtime.operations import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult
    from repro.runtime.simulator import Simulator

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Histogram",
    "MetricsHook",
    "MetricsRegistry",
    "merge_snapshots",
]

#: Version stamped on every snapshot; bump on incompatible change.
METRICS_SCHEMA_VERSION = 1

#: Default cap on retained histogram samples before decimation kicks in.
DEFAULT_MAX_SAMPLES = 4096

#: :class:`MetricsHook` samples the scheduler queue depth every this many
#: charged steps.
QUEUE_DEPTH_EVERY = 64


class Counter:
    """A monotonically accumulating numeric metric."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float] = 0):
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value!r})"


class Histogram:
    """Exact moments plus bounded deterministic samples for quantiles.

    ``count``/``total``/``min``/``max`` are exact for every observation
    ever made.  ``samples`` retains every ``stride``-th observation (in
    observation order); the stride doubles whenever retention would exceed
    ``max_samples``, so memory is bounded and the retained set is a pure
    function of the observation sequence.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "stride",
                 "_observed_since_kept", "max_samples")

    def __init__(self, *, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 2:
            raise ConfigurationError(
                f"max_samples must be >= 2, got {max_samples}"
            )
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self.stride = 1
        self._observed_since_kept = 0
        self.max_samples = max_samples

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._observed_since_kept % self.stride == 0:
            self.samples.append(value)
            self._observed_since_kept = 0
            if len(self.samples) > self.max_samples:
                self._decimate()
        self._observed_since_kept += 1

    def _decimate(self) -> None:
        self.samples = self.samples[::2]
        self.stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact moments, then samples).

        Before pooling, both sample sets are decimated to the *coarser* of
        the two strides.  Each retained sample then stands for the same
        number of observations on both sides, so the pooled list remains an
        unweighted uniform subsample and quantiles stay unbiased; naively
        extending would overweight the finer-stride stream (e.g. a 100-
        observation histogram at stride 1 merged into a 10^4-observation
        histogram at stride 32 would contribute 100 of ~400 samples while
        representing under 1% of the mass, dragging p99 toward its values).
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        other_samples = other.samples
        other_stride = other.stride
        while self.stride < other_stride:
            self._decimate()
        while other_stride < self.stride:
            other_samples = other_samples[::2]
            other_stride *= 2
        self.samples.extend(other_samples)
        while len(self.samples) > self.max_samples:
            self._decimate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, mean={self.mean:.3g}, "
                f"min={self.min}, max={self.max})")


def _metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Flatten ``name`` + labels into one stable string key."""
    if not name:
        raise ConfigurationError("metric name must be non-empty")
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A namespace of counters and histograms.

    Metric identity is ``name`` plus optional labels, flattened into a
    single string key (``"sim.steps{pid=3}"``) so snapshots stay plain
    JSON.  ``counter``/``histogram`` are get-or-create; asking for the
    same key with a different metric type is a configuration error.
    """

    def __init__(self, *, max_samples: int = DEFAULT_MAX_SAMPLES):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._max_samples = max_samples

    # ----- creation / lookup ----------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _metric_key(name, labels)
        if key in self._histograms:
            raise ConfigurationError(
                f"metric {key!r} is already a histogram"
            )
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _metric_key(name, labels)
        if key in self._counters:
            raise ConfigurationError(
                f"metric {key!r} is already a counter"
            )
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                max_samples=self._max_samples
            )
        return histogram

    def counter_value(self, name: str, **labels: Any) -> Union[int, float]:
        """Current value of a counter, 0 if it was never touched."""
        counter = self._counters.get(_metric_key(name, labels))
        return counter.value if counter is not None else 0

    def counter_keys(self, prefix: str = "") -> List[str]:
        """Sorted counter keys, optionally filtered by prefix."""
        return sorted(k for k in self._counters if k.startswith(prefix))

    def histogram_for(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self._histograms.get(_metric_key(name, labels))

    @property
    def empty(self) -> bool:
        return not self._counters and not self._histograms

    # ----- snapshots -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A versioned, key-sorted, JSON-plain snapshot of every metric."""
        return {
            "v": METRICS_SCHEMA_VERSION,
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
            "histograms": {
                key: {
                    "count": hist.count,
                    "total": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                    "stride": hist.stride,
                    "samples": list(hist.samples),
                }
                for key, hist in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_json(
        cls, data: Dict[str, Any], *, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot, rejecting foreign versions."""
        expect_versioned(
            data, "metrics snapshot", METRICS_SCHEMA_VERSION, key="v"
        )
        registry = cls(max_samples=max_samples)
        for key, value in data.get("counters", {}).items():
            registry._counters[key] = Counter(value)
        for key, entry in data.get("histograms", {}).items():
            histogram = Histogram(max_samples=max_samples)
            histogram.count = int(entry["count"])
            histogram.total = float(entry["total"])
            histogram.min = entry["min"]
            histogram.max = entry["max"]
            histogram.stride = int(entry.get("stride", 1))
            histogram.samples = [float(v) for v in entry.get("samples", [])]
            registry._histograms[key] = histogram
        return registry

    def merge_snapshot(self, data: Dict[str, Any]) -> None:
        """Fold one snapshot into this registry.

        The fold is exact for counters and histogram moments, and
        deterministic for histogram samples; folding per-trial snapshots
        in trial order therefore yields the same registry no matter how
        the trials were sharded.
        """
        other = MetricsRegistry.from_json(data, max_samples=self._max_samples)
        for key, counter in other._counters.items():
            self.counter(key).inc(counter.value)
        for key, histogram in other._histograms.items():
            self.histogram(key).merge_from(histogram)


def merge_snapshots(
    snapshots: Iterable[Dict[str, Any]],
    *,
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold snapshots, in the given order, into one registry."""
    registry = into if into is not None else MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry


class MetricsHook(StepHook):
    """Populate a registry from one simulated run.

    Everything recorded here is a deterministic function of the execution
    (step counts, operation mix, contention, queue depth, crashes,
    stalls), so per-trial snapshots merge bit-identically across the
    parallel engine.  Wall-clock timing is deliberately *not* recorded by
    this hook — the bench harness measures time at the case level, where
    nondeterminism is expected and quarantined.

    Every ``QUEUE_DEPTH_EVERY`` charged steps it also observes the
    scheduler's unfinished-process count (``sched.queue_depth``).
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._simulator: Optional["Simulator"] = None
        self._steps_by_pid: Dict[int, int] = {}
        self._steps_seen = 0
        # The per-step counters, resolved through the registry once and
        # then added to directly; they stay live in the registry, so a run
        # that raises still reports its partial counts.  ``sim.steps`` is
        # resolved at the first step, so a zero-step run does not gain it.
        self._steps_counter: Optional[Counter] = None
        self._op_counters: Dict[str, Counter] = {}
        self._object_counters: Dict[str, Counter] = {}

    def on_run_start(self, simulator: "Simulator") -> None:
        self._simulator = simulator
        self.registry.counter("run.count").inc()

    def after_step(
        self, pid: int, step_index: int, operation: Operation, result: Any
    ) -> None:
        registry = self.registry
        steps = self._steps_counter
        if steps is None:
            steps = self._steps_counter = registry.counter("sim.steps")
        steps.value += 1
        kind = operation.kind
        ops = self._op_counters.get(kind)
        if ops is None:
            ops = self._op_counters[kind] = registry.counter("sim.ops", op=kind)
        ops.value += 1
        name = operation.obj.name
        object_ops = self._object_counters.get(name)
        if object_ops is None:
            object_ops = self._object_counters[name] = registry.counter(
                "sim.object_ops", obj=name
            )
        object_ops.value += 1
        self._steps_by_pid[pid] = self._steps_by_pid.get(pid, 0) + 1
        self._steps_seen += 1
        if (self._steps_seen % QUEUE_DEPTH_EVERY == 0
                and self._simulator is not None):
            registry.histogram("sched.queue_depth").observe(
                len(self._simulator._unfinished)
            )

    def on_skip(self, pid: int, global_steps: int) -> None:
        self.registry.counter("sim.stalled_slots").inc()

    def on_crash(self, pid: int, steps_taken: int) -> None:
        self.registry.counter("sim.crashes").inc()
        self.registry.histogram("sim.steps_at_crash").observe(steps_taken)

    def on_finish(self, pid: int, output: Any) -> None:
        self.registry.histogram("sim.steps_to_finish").observe(
            self._steps_by_pid.get(pid, 0)
        )

    def on_run_end(self, result: "RunResult") -> None:
        registry = self.registry
        registry.histogram("run.total_steps").observe(result.total_steps)
        registry.histogram("run.max_individual_steps").observe(
            result.max_individual_steps
        )
        if result.completed:
            registry.counter("run.completed").inc()
        self._simulator = None
