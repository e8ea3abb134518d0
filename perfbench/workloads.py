"""The four benchmark workloads, their correctness gates and references.

A workload is a fixed set of *blocks*, each a short run of calls into the
library's public entry points.  Block ``k`` draws every seed from
``(--seed, k)``, so the same seed always gives the same inputs, and a block
repeated does exactly the same work.  Each block checks its own outputs and
raises :class:`GateError` on a mismatch; :meth:`Workload.reference` runs
the heavier, untimed check against the benchmark's own reference once per
run.

Every workload runs single-process (``workers=1``): forked workers on a
small shared machine would measure the OS scheduler, not the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


class GateError(RuntimeError):
    """A correctness gate failed; the run must not report a number."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def mix(seed: int, *labels: Any) -> int:
    """A 48-bit seed for one block/case, derived from the run's seed."""
    text = "/".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


class Probe:
    """Per-call wall latency and charged steps at one boundary function.

    Installed in every run (traced or not): it costs two clock reads per
    trial, which is noise next to a trial's milliseconds.
    """

    def __init__(self, steps_of: Callable[[Any], float]):
        self.steps_of = steps_of
        self.latencies_ns: List[int] = []
        self.steps = 0

    def wrap(self, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        def probed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(*args, **kwargs)
            self.latencies_ns.append(clock() - start)
            self.steps += int(self.steps_of(result))
            return result

        return probed

    def take(self) -> tuple:
        """Latencies (ms) and steps since the last take."""
        latencies = [ns / 1e6 for ns in self.latencies_ns]
        steps = self.steps
        self.latencies_ns = []
        self.steps = 0
        return latencies, steps


class Workload:
    """One workload: set-up, warm-up, measured blocks, reference check."""

    name = ""
    # Distinct blocks per run, sized so one round of them takes ~3-5 s.
    blocks = 1
    # The reference job in calibrate.REFERENCES closest to this workload.
    calibration = "python"

    def __init__(self, seed: int):
        self.seed = seed
        self.probe: Optional[Probe] = None

    def setup(self) -> None:
        """Imports and construction (timed as part of ``setup_s``)."""

    def warm_up(self) -> None:
        """A small run before measuring (counted in ``setup_s``)."""

    def plan(self, k: int) -> None:
        """Prepare block ``k``'s inputs before any clock starts."""

    def run_block(self, k: int) -> Dict[str, Any]:
        """Run block ``k``; return ``ops``, ``attempted``, ``failed``,
        ``completed`` and, where the probe cannot see them, ``steps`` and
        ``latencies_ms``.  ``counts`` holds workload-specific tallies."""
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed check against the benchmark's own reference."""

    def instrument(self, tracer: Any) -> None:
        """Wrap the workload's own factories for the traced run."""

    def ledger(self, counts: Dict[str, float], untraced: Dict[str, float],
               tracer: Any) -> Dict[str, float]:
        """Workload-specific per-layer metrics from the traced pass's
        ``counts`` and ``tracer`` and the untraced pass's wall-clock
        tallies."""
        return {}


# ----- paper-sweep -----------------------------------------------------------


class PaperSweep(Workload):
    """Algorithms 1-3 at n=32 and register consensus at n=16 on the generator
    backend, ``random`` family, no hooks: the sweep behind the paper tables."""

    name = "paper-sweep"
    trials = 8
    blocks = 48

    def setup(self) -> None:
        from repro.analysis.experiments import (
            run_conciliator_trials,
            run_consensus_trials,
        )
        from repro.core.cil_embedded import CILEmbeddedConciliator
        from repro.core.consensus import register_consensus
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.core.snapshot_conciliator import SnapshotConciliator
        import repro.runtime.simulator as simulator
        from tracer import replace_everywhere

        self.protocols = [
            ("snapshot", 32, lambda: SnapshotConciliator(32), False),
            ("sifting", 32, lambda: SiftingConciliator(32), False),
            ("cil-embedded", 32, lambda: CILEmbeddedConciliator(32), False),
            ("register-consensus", 16,
             lambda: register_consensus(16, value_domain=list(range(16))),
             True),
        ]
        self.run_conciliator_trials = run_conciliator_trials
        self.run_consensus_trials = run_consensus_trials
        self.probe = Probe(lambda result: result.total_steps)
        replace_everywhere(simulator.run_programs,
                           self.probe.wrap(simulator.run_programs))
        self.first_stats: List[Any] = []

    def _sweep(self, index: int, master_seed: int, trials: int) -> Any:
        _, n, factory, consensus = self.protocols[index]
        run = (self.run_consensus_trials if consensus
               else self.run_conciliator_trials)
        return run(factory, list(range(n)), schedule_family="random",
                   trials=trials, master_seed=master_seed, workers=1)

    def warm_up(self) -> None:
        for index in range(len(self.protocols)):
            self._sweep(index, mix(self.seed, "warm-up", index), 2)
        self.probe.take()

    def run_block(self, k: int) -> Dict[str, Any]:
        failed = 0
        stats_list = []
        for index, (name, _, _, consensus) in enumerate(self.protocols):
            stats = self._sweep(index, mix(self.seed, k, index), self.trials)
            check(stats.validity_failures == 0,
                  f"{name}: {stats.validity_failures} validity failures")
            if consensus:
                check(stats.agreement_failures == 0,
                      f"{name}: {stats.agreement_failures} agreement failures")
            failed += stats.validity_failures
            stats_list.append(stats)
        if k == 0:
            self.first_stats = stats_list
        attempted = self.trials * len(self.protocols)
        check(len(self.probe.latencies_ns) == attempted,
              f"expected {attempted} simulator runs, saw "
              f"{len(self.probe.latencies_ns)}")
        return {"ops": attempted, "attempted": attempted, "failed": failed,
                "completed": attempted - failed}

    def reference(self) -> None:
        """Recompute block 0 trial by trial with the benchmark's own loop
        (seed tree, schedule, simulator) and compare every statistic."""
        if not self.first_stats:
            return
        from repro.runtime.rng import SeedTree
        from repro.runtime.simulator import run_programs
        from repro.workloads.schedules import make_schedule

        for index, (name, n, factory, consensus) in enumerate(self.protocols):
            master_seed = mix(self.seed, 0, index)
            inputs = list(range(n))
            agree = valid_fail = 0
            individual: List[float] = []
            totals: List[float] = []
            for trial in range(self.trials):
                seeds = SeedTree(master_seed).child(f"trial-{trial}")
                protocol = factory()
                schedule = make_schedule("random", n, seeds.child("schedule"))
                result = run_programs([protocol.program] * n, schedule, seeds,
                                      inputs=inputs)
                outputs = list(result.outputs.values())
                check(len(outputs) == n, f"{name}: trial {trial} unfinished")
                agree += all(out == outputs[0] for out in outputs)
                valid_fail += not all(out in inputs for out in outputs)
                steps = list(result.steps_by_pid.values())
                individual.append(float(max(steps)))
                totals.append(float(sum(steps)))
            stats = self.first_stats[index]
            if consensus:
                check(stats.agreement_failures == self.trials - agree,
                      f"{name}: agreement failures differ from reference")
            else:
                check(stats.agreement_count == agree,
                      f"{name}: agreement {stats.agreement_count} != "
                      f"reference {agree}")
            check(stats.validity_failures == valid_fail == 0,
                  f"{name}: validity differs from reference")
            for label, summary, samples in (
                ("individual", stats.individual_steps, individual),
                ("total", stats.total_steps, totals),
            ):
                check(summary.count == len(samples)
                      and summary.minimum == min(samples)
                      and summary.maximum == max(samples)
                      and math.isclose(summary.mean,
                                       sum(samples) / len(samples),
                                       rel_tol=1e-12),
                      f"{name}: {label} steps differ from reference")

    def instrument(self, tracer: Any) -> None:
        self.protocols = [
            (name, n, tracer.wrap("core.factory", factory), consensus)
            for name, n, factory, consensus in self.protocols
        ]


# ----- mass-trials -------------------------------------------------------------


class MassTrials(Workload):
    """Fast-mode vectorized sweeps at n=64 and at n=256, where one block's
    arrays (tens of MB) are far larger than any CPU cache.  Benchmark block
    ``k`` is one sweep, of shape ``k % 6``."""

    name = "mass-trials"
    blocks = 30
    calibration = "numpy"
    # (label, conciliator class name, family, n, trials per sweep)
    sweeps = (
        ("sifting", "SiftingConciliator", "permuted", 64, 4096),
        ("snapshot", "SnapshotConciliator", "interleaved", 64, 4096),
        ("doubling-cil", "DoublingCILConciliator", "permuted", 64, 1024),
        ("sifting", "SiftingConciliator", "permuted", 256, 1024),
        ("snapshot", "SnapshotConciliator", "interleaved", 256, 1024),
        ("doubling-cil", "DoublingCILConciliator", "permuted", 256, 256),
    )

    def setup(self) -> None:
        from repro.baselines.doubling_cil import DoublingCILConciliator
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.core.snapshot_conciliator import SnapshotConciliator
        import repro.runtime.vectorized as vectorized

        check(vectorized.numpy_available(), "mass-trials needs NumPy")
        self.classes = {
            "SiftingConciliator": SiftingConciliator,
            "SnapshotConciliator": SnapshotConciliator,
            "DoublingCILConciliator": DoublingCILConciliator,
        }
        # Looked up per call, so the traced pass sees the wrapped function.
        self.vectorized = vectorized
        self.first: Dict[int, Any] = {}

    def _factory(self, class_name: str, n: int) -> Callable[[], Any]:
        cls = self.classes[class_name]
        return lambda: cls(n)

    def _sweep(self, index: int, master_seed: int, trials: int,
               **kwargs: Any) -> Any:
        _, class_name, family, n, _ = self.sweeps[index]
        return self.vectorized.run_vectorized_sweep(
            self._factory(class_name, n), list(range(n)),
            schedule_family=family, trials=trials, master_seed=master_seed,
            workers=1, **kwargs)

    def warm_up(self) -> None:
        for index in range(len(self.sweeps)):
            self._sweep(index, mix(self.seed, "warm-up", index), 64).stats()

    def run_block(self, k: int) -> Dict[str, Any]:
        clock = time.perf_counter_ns
        index = k % len(self.sweeps)
        label, _, _, n, trials = self.sweeps[index]
        start = clock()
        sweep = self._sweep(index, mix(self.seed, k // len(self.sweeps),
                                       index), trials)
        stats = sweep.stats()
        latency_ms = (clock() - start) / 1e6
        check(sweep.trials == trials == len(sweep.agreement)
              == stats.total_steps.count,
              f"{label}@{n}: trial count mismatch")
        check(stats.individual_steps.minimum >= 1,
              f"{label}@{n}: a trial charged no steps")
        check(0 < stats.agreement_count <= trials,
              f"{label}@{n}: agreement count {stats.agreement_count}")
        if k < len(self.sweeps):
            self.first[index] = sweep
        return {"ops": trials, "attempted": trials, "failed": 0,
                "completed": trials, "steps": int(sum(sweep.total_steps)),
                "latencies_ms": [latency_ms]}

    def reference(self) -> None:
        """Three checks per sweep shape: (1) a shorter re-run of block 0 is
        a prefix of it (trial i depends only on the seed and i), (2) every
        decision is some process's input, and (3) the oracle mode of the
        same kernel matches the generator simulator trial for trial."""
        from repro.analysis.experiments import run_conciliator_trials

        for index, (label, class_name, family, n, trials) in enumerate(
                self.sweeps):
            if index in self.first:
                prefix = max(1, trials // 4)
                again = self._sweep(index, mix(self.seed, 0, index), prefix,
                                    collect_decisions=True)
                full = self.first[index]
                check(again.agreement == full.agreement[:prefix]
                      and again.total_steps == full.total_steps[:prefix]
                      and again.individual_steps
                      == full.individual_steps[:prefix],
                      f"{label}@{n}: re-run is not a prefix of the sweep")
                inputs = set(range(n))
                check(all(set(row) <= inputs for row in again.decisions),
                      f"{label}@{n}: a decision is not an input")
            if n != 64:
                continue
            small, seed = 16, mix(self.seed, "oracle", index)
            factory = self._factory(class_name, small)
            oracle = self.vectorized.run_vectorized_sweep(
                factory, list(range(small)), schedule_family=family,
                trials=8, master_seed=seed, oracle=True, workers=1).stats()
            generator = run_conciliator_trials(
                factory, list(range(small)), schedule_family=family,
                trials=8, master_seed=seed, workers=1)
            check(oracle.agreement_count == generator.agreement_count
                  and oracle.total_steps == generator.total_steps
                  and oracle.individual_steps == generator.individual_steps,
                  f"{label}: oracle kernel disagrees with the generator")


# ----- fuzz-soak ----------------------------------------------------------------

FUZZ_STATUSES = ("ok", "degraded", "violation", "budget-exceeded",
                 "inconclusive")


class FuzzSoak(Workload):
    """Fuzz campaigns over the 17 honest stacks (adaptive adversaries on,
    no starvation-spinning scenarios) and the 40 weakened-model ladder
    stacks, shrinking off."""

    name = "fuzz-soak"
    honest_trials = 4
    ladder_trials = 16
    blocks = 120

    def setup(self) -> None:
        import repro.fuzz.campaign as campaign
        from repro.fuzz.campaign import run_fuzz_campaign
        from repro.fuzz.scenario import FuzzConfig, generate_scenario
        from repro.fuzz.stacks import ladder_stack_names, stack_names
        from tracer import replace_everywhere

        self.honest = FuzzConfig()
        self.ladder = FuzzConfig(stacks=tuple(ladder_stack_names()))
        check(len(stack_names()) == 17 and len(self.ladder.stacks) == 40,
              "the honest/ladder stack catalog changed size")
        self.run_fuzz_campaign = run_fuzz_campaign
        self.generate_scenario = generate_scenario
        self.probe = Probe(lambda outcome: outcome.total_steps)
        replace_everywhere(campaign.run_scenario,
                           self.probe.wrap(campaign.run_scenario))
        self.planned: Dict[int, tuple] = {}

    def _spins(self, scenario: Any) -> bool:
        """Whether a scenario will spin through the starvation guard."""
        return bool(scenario.faults.stalls) or (
            scenario.schedule is not None
            and scenario.schedule.family == "crash-half")

    def _non_spinning_seed(self, label: Any, trials: int) -> int:
        """The first campaign seed under ``label`` whose ``trials`` honest
        scenarios carry no stall faults and no ``crash-half`` schedule.

        Those two kinds of scenario, about a third of a default campaign,
        spin through the simulator's 100k-slot starvation guard: such a
        trial takes 50-200 ms against ~1 ms for any other, so a default
        campaign's time is ~97% spinning and a run's throughput is a count
        of how many it drew (ten-seed spreads of 0.3 even with their number
        fixed per block).  Generation is cheap and happens before any
        clock starts.
        """
        for attempt in range(10_000):
            master = mix(self.seed, label, "honest", attempt)
            if not any(self._spins(self.generate_scenario(
                    master, index, self.honest)) for index in range(trials)):
                return master
        raise GateError("no non-spinning honest campaign seed found")

    def _campaigns(self, honest_seed: int, ladder_seed: int, honest: int,
                   ladder: int) -> List[Any]:
        return [
            self.run_fuzz_campaign(master, config, trials=trials,
                                   shrink=False, workers=1)
            for master, config, trials in (
                (honest_seed, self.honest, honest),
                (ladder_seed, self.ladder, ladder))
        ]

    def warm_up(self) -> None:
        self._campaigns(self._non_spinning_seed("warm-up", 4),
                        mix(self.seed, "warm-up", "ladder"), 4, 8)
        self.probe.take()

    def plan(self, k: int) -> None:
        if k not in self.planned:
            self.planned[k] = (
                self._non_spinning_seed(k, self.honest_trials),
                mix(self.seed, k, "ladder"))

    def run_block(self, k: int) -> Dict[str, Any]:
        counts: Dict[str, float] = {}
        for report in self._campaigns(*self.planned[k], self.honest_trials,
                                      self.ladder_trials):
            for status, count in report.statuses.items():
                check(status in FUZZ_STATUSES, f"unknown status {status!r}")
                counts[f"fuzz.status.{status}"] = (
                    counts.get(f"fuzz.status.{status}", 0) + count)
        failed = int(counts.get("fuzz.status.violation", 0)
                     + counts.get("fuzz.status.budget-exceeded", 0))
        check(failed == 0, f"block {k}: {failed} hard-oracle violations or "
                           "budget-exceeded trials")
        attempted = self.honest_trials + self.ladder_trials
        check(len(self.probe.latencies_ns) == attempted,
              f"expected {attempted} scenarios, saw "
              f"{len(self.probe.latencies_ns)}")
        return {"ops": attempted, "attempted": attempted, "failed": failed,
                "completed": attempted - failed, "counts": counts}

    def ledger(self, counts: Dict[str, float], untraced: Dict[str, float],
               tracer: Any) -> Dict[str, float]:
        return {f"fuzz.status.{status}": counts.get(f"fuzz.status.{status}", 0)
                for status in FUZZ_STATUSES}


# ----- service-burst ------------------------------------------------------------


class ServiceBurst(Workload):
    """``run_loadtest(profile="burst", chaos=baseline)`` plus
    ``build_report``: the configuration of ``benchmarks/SLO_baseline.json``,
    open loop in virtual time, 2000 sessions per block."""

    name = "service-burst"
    sessions = 2000
    blocks = 4

    def setup(self) -> None:
        import repro.service.service as service_module
        from repro.fuzz.stacks import get_service_chaos
        from repro.runtime.vectorized import numpy_available
        from repro.service import ServiceConfig, build_report, run_loadtest
        from repro.service.slo import deterministic_view
        from tracer import replace_everywhere

        # Degraded sessions import NumPy lazily; pay for it here, not in the
        # first measured burst.
        check(numpy_available(), "service-burst degrades onto NumPy")
        self.chaos = get_service_chaos("baseline")
        self.config_for = lambda seed: ServiceConfig(seed=seed)
        self.run_loadtest = run_loadtest
        self.build_report = build_report
        self.deterministic_view = deterministic_view
        self.probe = Probe(lambda outcome: outcome.steps)
        replace_everywhere(service_module.execute_session,
                           self.probe.wrap(service_module.execute_session))

    def _run(self, seed: int, sessions: int) -> tuple:
        clock = time.perf_counter_ns
        start = clock()
        result = self.run_loadtest(
            profile="burst", sessions=sessions, seed=seed,
            config=self.config_for(seed), chaos=self.chaos)
        middle = clock()
        report = self.build_report(result, label="baseline",
                                   chaos_stack="baseline")
        return result, report, middle - start, clock() - middle

    def warm_up(self) -> None:
        self._run(mix(self.seed, "warm-up"), 300)
        self.probe.take()

    def run_block(self, k: int) -> Dict[str, Any]:
        result, report, loadtest_ns, report_ns = self._run(
            mix(self.seed, k), self.sessions)
        sessions = report["sessions"]
        check(result.unexpected_errors == 0,
              f"block {k}: {result.unexpected_errors} unexpected errors")
        rejected = sum(sessions["rejected"].values())
        failed = sum(sessions["failed"].values())
        check(sessions["offered"] == self.sessions
              == sessions["admitted"] + rejected + sessions["missing"],
              f"block {k}: session counts do not add up: {sessions}")
        completed = sessions["completed"]
        attempts = sum(r.attempts for r in result.responses
                       if r.status == "completed")
        phases = report["latency_attribution"]["phases"]
        counts = {
            "service.offered": sessions["offered"],
            "service.completed": completed,
            "service.shed": rejected,
            "service.failed": failed + sessions["missing"],
            "service.attempts": attempts,
            "service.degraded_attempts": sessions["degraded"],
            "service.breaker_opens": sum(
                b["opened"] for b in report["breakers"].values()),
            "service.queue_wait_s": phases["queue-wait"]["seconds"],
            "service.latency_s": report["latency_attribution"][
                "total_latency_seconds"],
            "loadtest_ns": loadtest_ns,
            "report_ns": report_ns,
        }
        return {"ops": self.sessions, "attempted": self.sessions,
                # Shedding and chaos-injected worker kills are the service
                # working as designed; a failure is a session with no
                # well-formed response (gated to zero above).
                "failed": result.unexpected_errors,
                "completed": completed, "counts": counts}

    def reference(self) -> None:
        """The seed-0 replay must equal the committed SLO baseline."""
        path = ROOT / "benchmarks" / "SLO_baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        result, report, _, _ = self._run(0, self.sessions)
        check(result.unexpected_errors == 0, "seed-0 replay: unexpected errors")

        def strip(view: Dict[str, Any]) -> str:
            view = {key: value
                    for key, value in self.deterministic_view(view).items()
                    if key != "label"}
            return json.dumps(view, sort_keys=True)

        check(report["latency_attribution"]["spans"]["digest"]
              == baseline["latency_attribution"]["spans"]["digest"],
              "seed-0 replay: span digest differs from SLO_baseline.json")
        check(strip(report) == strip(baseline),
              "seed-0 replay: deterministic view differs from "
              "SLO_baseline.json")

    def instrument(self, tracer: Any) -> None:
        from repro.service import workers

        for name, factory in list(workers.ALGORITHMS.items()):
            workers.ALGORITHMS[name] = tracer.wrap("core.factory", factory)

    def ledger(self, counts: Dict[str, float], untraced: Dict[str, float],
               tracer: Any) -> Dict[str, float]:
        offered = counts.get("service.offered", 0)
        completed = counts.get("service.completed", 0)
        latency = counts.get("service.latency_s", 0)
        blocks = max(1, untraced.get("blocks", 1))
        return {
            "service.offered": offered,
            "service.completed": completed,
            "service.shed": counts.get("service.shed", 0),
            "service.failed": counts.get("service.failed", 0),
            "service.attempts_per_completed": (
                counts.get("service.attempts", 0) / completed
                if completed else 0.0),
            "service.degraded_attempts": counts.get(
                "service.degraded_attempts", 0),
            "service.breaker_opens": counts.get("service.breaker_opens", 0),
            "service.queue_wait_share": (
                counts.get("service.queue_wait_s", 0) / latency
                if latency else 0.0),
            "service.overhead_us_per_session": (
                (untraced.get("loadtest_ns", 0) - untraced.get("worker_ns", 0))
                / 1e3 / max(1, untraced.get("service.offered", 1))),
            "slo.build_report_ms": untraced.get("report_ns", 0) / 1e6 / blocks,
            "vtime.self_us_per_session": (
                tracer.self_ns["vtime.loop"] / 1e3 / offered
                if offered else 0.0),
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperSweep, MassTrials, FuzzSoak, ServiceBurst)
}
