"""Per-layer tracing from outside the program.

The traced run wraps the public functions and methods of each layer's
modules with timing wrappers; nothing under ``src/`` changes.  A wrapper
pushes a frame on a call stack, and when the call returns it charges the
call's elapsed time minus the time of nested wrapped calls to its own key
(its *self time*).  Summed over every key, self time covers the part of the
wall clock that some layer accounts for; the rest is the unattributed share.

Keys are ``<layer>.<what>``.  ``calls`` counts every call; ``outer`` counts
calls per layer that were not made from inside the same layer, so a wrapper
adversary delegating to its inner strategy is one pick, not two.

A wrapper's own bookkeeping lands partly inside the wrapped call's clock
window and partly in its caller's.  Both parts are measured on a no-op at
start-up and subtracted, so self times estimate the untraced program rather
than the traced one (the per-call correction is a few hundred nanoseconds).
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

_HOOK_METHODS = (
    "on_run_start", "before_step", "intercept", "after_step", "on_skip",
    "on_crash", "on_finish", "on_run_end",
)

# StepHook subclasses are charged to the layer of the module defining them.
_HOOK_LAYERS = {
    "repro.runtime.monitors": "monitors",
    "repro.runtime.faults": "faults",
    "repro.runtime.budget": "faults",
    "repro.obs.metrics": "metrics_hook",
    "repro.obs.tracing": "trace",
    "repro.memory.semantics": "semantics",
}

MEMORY_KINDS = ("read", "write", "scan", "update", "maxread", "maxwrite")


class Tracer:
    """Self-time and call accounting for wrapped functions."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.child_calls: Dict[str, int] = defaultdict(int)
        self.outer: Dict[str, int] = defaultdict(int)
        # Root frame: [layer, ns spent in wrapped children, child calls].
        self._stack: List[List[Any]] = [[None, 0, 0]]
        self.steps = 0
        self.runs = 0
        self.sweep_steps = 0
        self.sweep_blocks = 0
        self.adversaries: List[Any] = []
        self.resolvers: List[Any] = []
        self.inside_ns = 0.0
        self.outside_ns = 0.0
        self._calibrate()

    def _calibrate(self, calls: int = 50_000, rounds: int = 5) -> None:
        """Measure the wrapper's bookkeeping on a no-op: ``inside_ns`` is
        what it adds within the wrapped call's own window, ``outside_ns``
        what it adds to the caller."""
        import statistics

        def noop() -> None:
            return None

        wrapped = self.wrap("tracer.calibrate", noop)
        clock = time.perf_counter_ns
        inside, outside = [], []
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                noop()
            direct = (clock() - start) / calls
            before = self.total_ns["tracer.calibrate"]
            start = clock()
            for _ in range(calls):
                wrapped()
            total = (clock() - start) / calls
            window = (self.total_ns["tracer.calibrate"] - before) / calls
            inside.append(window - direct)
            outside.append(total - window)
        self.inside_ns = max(0.0, statistics.median(inside))
        self.outside_ns = max(0.0, statistics.median(outside))
        for table in (self.self_ns, self.total_ns, self.calls,
                      self.child_calls, self.outer):
            table.clear()
        self._stack[0][1] = self._stack[0][2] = 0

    def wrap(self, key: Any, fn: Callable, layer: str = "") -> Callable:
        """Return ``fn`` timed under ``key``.

        ``key`` is a string, or a callable mapping the call's arguments to
        one (used where the key depends on the operation kind).
        """
        stack = self._stack
        self_ns = self.self_ns
        total_ns = self.total_ns
        calls = self.calls
        child_calls = self.child_calls
        outer = self.outer
        clock = time.perf_counter_ns
        fixed = isinstance(key, str)
        if not layer:
            layer = key.split(".", 1)[0]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = key if fixed else key(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[1]
                total_ns[name] += elapsed
                calls[name] += 1
                child_calls[name] += frame[2]
                parent[1] += elapsed
                parent[2] += 1
                if parent[0] != layer:
                    outer[layer] += 1

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def self_time(self, key: str) -> float:
        """Self time of ``key`` with the wrapper's bookkeeping removed."""
        return max(0.0, self.self_ns[key] - self.calls[key] * self.inside_ns
                   - self.child_calls[key] * self.outside_ns)

    def inclusive_time(self, key: str) -> float:
        """Inclusive time of ``key``, bookkeeping of its whole subtree
        removed only approximately (its own window's share)."""
        return max(0.0, self.total_ns[key] - self.calls[key] * self.inside_ns)

    def layer_ns(self, layer: str) -> float:
        return sum(self.self_time(key) for key in list(self.self_ns)
                   if key.split(".", 1)[0] == layer)

    def attributed_ns(self) -> float:
        return sum(self.self_time(key) for key in list(self.self_ns))

    def overhead_ns(self) -> float:
        """Estimated wall time the wrappers themselves added."""
        return sum(self.calls.values()) * (self.inside_ns + self.outside_ns)


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement``, so by-name imports see the wrapper too."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(base: type) -> List[type]:
    found: List[type] = []
    pending = [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _patch_methods(tracer: Tracer, classes: List[type], names: tuple,
                   key_for: Callable[[type, str], Any], layer_for) -> None:
    """Wrap methods on every class, resolving originals before patching so
    an inherited method is wrapped once per class, never twice."""
    plan = []
    for cls in classes:
        for name in names:
            fn = getattr(cls, name, None)
            if fn is not None and callable(fn):
                plan.append((cls, name, fn))
    for cls, name, fn in plan:
        setattr(cls, name, tracer.wrap(key_for(cls, name), fn,
                                       layer=layer_for(cls)))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points.  Irreversible: the traced
    pass runs last in its process."""
    import repro.baselines.doubling_cil  # noqa: F401  (register subclasses)
    import repro.fuzz.campaign
    import repro.fuzz.scenario
    import repro.fuzz.stacks
    import repro.memory.base
    import repro.memory.max_register  # noqa: F401
    import repro.memory.register  # noqa: F401
    import repro.memory.semantics
    import repro.memory.snapshot  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.obs.tracing  # noqa: F401
    import repro.runtime.adaptive
    import repro.runtime.adversary
    import repro.runtime.budget  # noqa: F401
    import repro.runtime.faults
    import repro.runtime.monitors  # noqa: F401
    import repro.runtime.process
    import repro.runtime.rng
    import repro.runtime.scheduler
    import repro.runtime.simulator
    import repro.runtime.streaming  # noqa: F401
    import repro.runtime.trace
    import repro.runtime.vectorized
    import repro.service.service  # noqa: F401
    import repro.service.vtime
    import repro.service.workers
    import repro.workloads.schedules

    # schedules: construction, and every slot drawn from any schedule.
    replace_everywhere(
        repro.workloads.schedules.make_schedule,
        tracer.wrap("schedules.build", repro.workloads.schedules.make_schedule),
    )
    spec_build = repro.workloads.schedules.ScheduleSpec.build
    repro.workloads.schedules.ScheduleSpec.build = tracer.wrap(
        "schedules.build", spec_build)
    timed_next = tracer.wrap("schedules.slot", lambda it: next(it._inner))

    class _TimedSlots:
        __slots__ = ("_inner",)

        def __init__(self, inner: Any) -> None:
            self._inner = inner

        def __iter__(self) -> "_TimedSlots":
            return self

        __next__ = timed_next

    base = repro.runtime.scheduler.Schedule
    originals = [(cls, cls.__iter__) for cls in _subclasses(base)]
    for cls, original in originals:
        cls.__iter__ = (lambda orig: lambda self: _TimedSlots(orig(self)))(
            original)

    # simulator: the oblivious and the adaptive step loops.
    def counted_run(fn: Callable) -> Callable:
        def run(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            tracer.steps += result.total_steps
            tracer.runs += 1
            return result
        return run

    for fn in (repro.runtime.simulator.run_programs,
               repro.runtime.adaptive.run_adaptive_programs):
        replace_everywhere(fn, tracer.wrap("simulator.run", counted_run(fn)))

    # process: priming (start) and resuming the protocol generator.
    process = repro.runtime.process.Process
    process.start = tracer.wrap("process.start", process.start)
    process.complete_step = tracer.wrap("process.resume",
                                        process.complete_step)

    # memory: every shared object's apply, keyed by operation kind.
    _patch_methods(
        tracer, _subclasses(repro.memory.base.SharedObject), ("apply",),
        lambda cls, name: (lambda self, operation, pid:
                           "memory." + operation.kind),
        lambda cls: "memory",
    )

    # rng: seed derivation and stream construction.
    rng_module = repro.runtime.rng
    replace_everywhere(rng_module.derive_seed,
                       tracer.wrap("rng.derive", rng_module.derive_seed))
    rng_module.SeedTree.rng = tracer.wrap("rng.stream", rng_module.SeedTree.rng)

    # hooks: monitors, fault injectors, metrics, tracing, semantics.
    hook_classes = [
        cls for cls in _subclasses(repro.runtime.faults.StepHook)
        if cls.__module__ in _HOOK_LAYERS
    ]
    _patch_methods(
        tracer, hook_classes, _HOOK_METHODS,
        lambda cls, name: _HOOK_LAYERS[cls.__module__] + ".hook",
        lambda cls: _HOOK_LAYERS[cls.__module__],
    )

    # trace: the built-in recorder and the post-run trace checkers.
    recorder = repro.runtime.trace.TraceRecorder
    recorder.record = tracer.wrap("trace.record", recorder.record)
    for name in ("check_register_semantics", "check_snapshot_semantics",
                 "check_max_register_semantics"):
        fn = getattr(repro.runtime.trace, name)
        replace_everywhere(fn, tracer.wrap("trace.check", fn))

    # adversary: every choosing strategy; capture built instances so the
    # clamped/perturbed counters can be read after the pass.
    _patch_methods(
        tracer, _subclasses(repro.runtime.adaptive.AdaptiveAdversary),
        ("choose",), lambda cls, name: "adversary.choose",
        lambda cls: "adversary",
    )
    for spec in (repro.runtime.adaptive.AdaptiveSpec,
                 repro.runtime.adversary.AdversarySpec):
        spec.build = _capturing(spec.build, tracer.adversaries)

    # semantics: weak read resolution and the resolvers that record it.
    resolver = repro.memory.semantics.SemanticsResolver
    for name in ("resolve_read", "note_write", "note_observed"):
        setattr(resolver, name,
                tracer.wrap("semantics.resolve", getattr(resolver, name)))
    model = repro.memory.semantics.RegisterModel
    model.resolver = _capturing(model.resolver, tracer.resolvers)

    # fuzz: scenario generation, stack construction, and run_scenario's
    # own work (monitor setup, output oracles, classification).
    fuzz = repro.fuzz.scenario
    replace_everywhere(fuzz.generate_scenario,
                       tracer.wrap("fuzz.generate", fuzz.generate_scenario))
    replace_everywhere(fuzz.run_scenario,
                       tracer.wrap("fuzz.run", fuzz.run_scenario))
    stack = repro.fuzz.stacks.StackSpec
    stack.build = tracer.wrap("fuzz.build", stack.build)

    # vectorized: whole sweeps (steps and blocks counted) and stats().
    vec = repro.runtime.vectorized

    def counted_sweep(fn: Callable) -> Callable:
        def sweep(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            tracer.sweep_steps += int(sum(result.total_steps))
            tracer.sweep_blocks += math.ceil(
                result.trials / vec.VECTORIZED_BLOCK_TRIALS)
            return result
        return sweep

    replace_everywhere(
        vec.run_vectorized_sweep,
        tracer.wrap("vectorized.sweep", counted_sweep(vec.run_vectorized_sweep)),
    )
    vec.VectorizedSweep.stats = tracer.wrap("vectorized.stats",
                                            vec.VectorizedSweep.stats)

    # workers: one service attempt, keyed by backend.
    replace_everywhere(
        repro.service.workers.execute_session,
        tracer.wrap(
            lambda request, backend="generator": "workers." + backend,
            repro.service.workers.execute_session, layer="workers",
        ),
    )

    # vtime: one iteration of the virtual-time event loop runs the ready
    # service callbacks, so its self time is the service's own code.
    loop = repro.service.vtime.VirtualTimeEventLoop
    loop._run_once = tracer.wrap("vtime.loop", loop._run_once)


def _capturing(fn: Callable, sink: List[Any]) -> Callable:
    def capture(*args: Any, **kwargs: Any) -> Any:
        value = fn(*args, **kwargs)
        sink.append(value)
        return value
    return capture


def ledger(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics every workload reports from one traced pass.

    Per-trial figures divide by the simulator runs the pass made and
    per-step figures by the steps those runs charged; a layer a workload
    never enters reports 0.
    """
    self_ns, total_ns = tracer.self_time, tracer.inclusive_time
    calls, outer = tracer.calls, tracer.outer
    runs, steps = tracer.runs, tracer.steps

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    slots = calls["schedules.slot"]
    picks = outer["adversary"]
    events = calls["trace.record"]
    scenarios = calls["fuzz.run"]
    blocks = tracer.sweep_blocks
    hook_calls = sum(count for key, count in calls.items()
                     if key.endswith(".hook"))
    metrics = {
        "schedules.build_us_per_trial": per(self_ns("schedules.build") / 1e3,
                                            runs),
        "schedules.ns_per_slot": per(self_ns("schedules.slot"), slots),
        "schedules.slots": slots,
        "simulator.runs": runs,
        "simulator.steps": steps,
        "simulator.self_ns_per_step": per(self_ns("simulator.run"), steps),
        "simulator.useful_slot_ratio": per(steps, slots + picks),
        "process.resume_ns_per_step": per(self_ns("process.resume"), steps),
        "process.start_us_per_trial": per(self_ns("process.start") / 1e3, runs),
        "rng.derivations_per_trial": per(calls["rng.derive"], runs),
        "rng.us_per_trial": per(tracer.layer_ns("rng") / 1e3, runs),
        "core.factory_us_per_trial": per(self_ns("core.factory") / 1e3, runs),
        "monitors.ns_per_step": per(tracer.layer_ns("monitors"), steps),
        "faults.ns_per_step": per(tracer.layer_ns("faults"), steps),
        "metrics_hook.ns_per_step": per(tracer.layer_ns("metrics_hook"), steps),
        "hooks.calls_per_step": per(hook_calls, steps),
        "trace.events": events,
        "trace.ns_per_event": per(self_ns("trace.record")
                                  + self_ns("trace.hook"), events),
        "trace.check_us_per_trial": per(self_ns("trace.check") / 1e3, runs),
        "adversary.picks": picks,
        "adversary.ns_per_pick": per(tracer.layer_ns("adversary"), picks),
        "adversary.clamped": sum(getattr(a, "clamped", 0)
                                 for a in tracer.adversaries),
        "adversary.perturbed": sum(getattr(a, "perturbed", 0)
                                   for a in tracer.adversaries),
        "semantics.weak_reads": sum(len(r.weak_reads) for r in tracer.resolvers),
        "semantics.ns_per_step": per(tracer.layer_ns("semantics"), steps),
        "fuzz.generate_us_per_trial": per(self_ns("fuzz.generate") / 1e3,
                                          scenarios),
        "fuzz.build_us_per_trial": per(self_ns("fuzz.build") / 1e3, scenarios),
        "fuzz.run_self_us_per_trial": per(self_ns("fuzz.run") / 1e3, scenarios),
        "vectorized.ns_per_step": per(total_ns("vectorized.sweep"),
                                      tracer.sweep_steps),
        "vectorized.blocks": blocks,
        "vectorized.sweep_ms_per_block": per(total_ns("vectorized.sweep") / 1e6,
                                             blocks),
        "vectorized.stats_ms": per(total_ns("vectorized.stats") / 1e6,
                                   calls["vectorized.stats"]),
        "vtime.loop_iterations": calls["vtime.loop"],
    }
    for kind in MEMORY_KINDS:
        key = "memory." + kind
        metrics[key + ".ops"] = calls[key]
        metrics[key + ".ns_per_op"] = per(self_ns(key), calls[key])
    for backend in ("generator", "vectorized"):
        key = "workers." + backend
        metrics[key + ".calls"] = calls[key]
        metrics[key + ".ms_per_call"] = per(total_ns(key) / 1e6, calls[key])
    return metrics
