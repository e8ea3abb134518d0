"""Unit tests for the adaptive-adversary runtime."""

import pytest

from repro.errors import (
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.memory.register import AtomicRegister
from repro.obs.metrics import MetricsHook, MetricsRegistry
from repro.runtime.adaptive import (
    AdaptiveAdversary,
    LongestFirstAdversary,
    PendingKindAdversary,
    RandomAdaptiveAdversary,
    ShortestFirstAdversary,
    SiftKillerAdversary,
    run_adaptive_programs,
)
from repro.runtime.faults import CrashFault, FaultPlan, StallFault, StepHook
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree


def write_then_read(register):
    def program(ctx):
        yield Write(register, ctx.pid)
        value = yield Read(register)
        return value

    return program



class StaticView:
    """A fixed adversary view: pid -> pending operation, no steps taken."""

    def __init__(self, pending):
        self._pending = pending

    def unfinished(self):
        return sorted(self._pending)

    def pending_operation(self, pid):
        return self._pending[pid]

    def pending_kind(self, pid):
        return self._pending[pid].kind

    def steps_taken(self, pid):
        return 0


class TestRunAdaptive:
    def test_completes_and_counts_steps(self):
        register = AtomicRegister("r")
        result = run_adaptive_programs(
            [write_then_read(register)] * 3,
            RandomAdaptiveAdversary(1),
            SeedTree(0),
        )
        assert result.completed
        assert all(steps == 2 for steps in result.steps_by_pid.values())

    def test_deterministic_given_seeds(self):
        outcomes = []
        for _ in range(2):
            register = AtomicRegister("r")
            result = run_adaptive_programs(
                [write_then_read(register)] * 4,
                RandomAdaptiveAdversary(9),
                SeedTree(3),
            )
            outcomes.append(result.outputs)
        assert outcomes[0] == outcomes[1]

    def test_trace_recording(self):
        register = AtomicRegister("r")
        result = run_adaptive_programs(
            [write_then_read(register)] * 2,
            ShortestFirstAdversary(),
            SeedTree(0),
            record_trace=True,
        )
        assert len(result.trace) == result.total_steps

    def test_step_limit(self):
        register = AtomicRegister("r")

        def forever(ctx):
            while True:
                yield Read(register)

        with pytest.raises(StepLimitExceededError):
            run_adaptive_programs(
                [forever], ShortestFirstAdversary(), SeedTree(0),
                step_limit=50,
            )

    def test_input_length_checked(self):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError):
            run_adaptive_programs(
                [write_then_read(register)] * 2,
                ShortestFirstAdversary(),
                SeedTree(0),
                inputs=[1],
            )



class Always(AdaptiveAdversary):
    """Names the same pid at every pick, runnable or not."""

    def __init__(self, pid):
        self.pid = pid

    def choose(self, view):
        return self.pid


class CountingPicks(AdaptiveAdversary):
    """Counts the picks of a wrapped strategy."""

    def __init__(self, inner):
        self.inner = inner
        self.picks = 0

    def choose(self, view):
        self.picks += 1
        return self.inner.choose(view)


class SkipLog(StepHook):
    def __init__(self):
        self.skips = []

    def on_skip(self, pid, global_steps):
        self.skips.append((pid, global_steps))


def writes(register, count):
    def program(ctx):
        for _ in range(count):
            yield Write(register, ctx.pid)
        return ctx.pid

    return program


class TestRefusals:
    def test_pid_outside_the_run_is_unrunnable(self):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError,
                           match="adaptive adversary chose unrunnable process 7"):
            run_adaptive_programs(
                [write_then_read(register)] * 4, Always(7), SeedTree(0),
            )

    def test_finished_pid_is_unrunnable(self):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError,
                           match="adaptive adversary chose unrunnable process 0"):
            run_adaptive_programs(
                [write_then_read(register)] * 2, Always(0), SeedTree(0),
            )

    def test_crashed_pid_is_unrunnable(self):
        register = AtomicRegister("r")
        crash = FaultPlan(crashes=(CrashFault(pid=0, after_steps=0),))
        with pytest.raises(SimulationError,
                           match="adaptive adversary chose unrunnable process 0"):
            run_adaptive_programs(
                [write_then_read(register)] * 2, Always(0), SeedTree(0),
                hooks=[crash.injector()],
            )

    @pytest.mark.parametrize("skip_guard", [0, -3])
    def test_skip_guard_below_one_rejected(self, skip_guard):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError,
                           match=f"skip_guard must be >= 1, got {skip_guard}"):
            run_adaptive_programs(
                [write_then_read(register)] * 2, ShortestFirstAdversary(),
                SeedTree(0), skip_guard=skip_guard,
            )

    def test_skip_guard_of_one_allowed(self):
        register = AtomicRegister("r")
        result = run_adaptive_programs(
            [write_then_read(register)] * 2, ShortestFirstAdversary(),
            SeedTree(0), skip_guard=1,
        )
        assert result.completed


class TestOnSkip:
    def test_every_withheld_slot_is_reported(self):
        register = AtomicRegister("r")
        stall = StallFault(pid=0, start_step=2, duration=6)
        adversary = CountingPicks(RandomAdaptiveAdversary(3))
        log = SkipLog()
        registry = MetricsRegistry()
        result = run_adaptive_programs(
            [writes(register, 10)] * 4, adversary, SeedTree(0),
            hooks=[FaultPlan(stalls=(stall,)).injector(), log,
                   MetricsHook(registry)],
        )
        assert result.completed
        withheld = adversary.picks - result.total_steps
        assert withheld > 0
        assert len(log.skips) == withheld
        assert all(pid == 0 and 2 <= step < 8 for pid, step in log.skips)
        assert registry.counter_value("sim.stalled_slots") == withheld

    def test_starvation_raises_after_guard_skips(self):
        register = AtomicRegister("r")
        stall = StallFault(pid=0, start_step=0, duration=10**9)
        log = SkipLog()
        with pytest.raises(ScheduleExhaustedError, match="starved") as info:
            run_adaptive_programs(
                [writes(register, 3)] * 2, Always(0), SeedTree(0),
                hooks=[FaultPlan(stalls=(stall,)).injector(), log],
                skip_guard=25,
            )
        assert len(log.skips) == 25
        assert list(info.value.unfinished_pids) == [0, 1]


class TestStrategies:
    def test_pending_kind_prefers_listed_kind(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return ("read-first", value)

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        # Readers scheduled before writers: the reader must see None.
        result = run_adaptive_programs(
            [writer, reader],
            PendingKindAdversary(["read"]),
            SeedTree(0),
        )
        assert result.outputs[1] == ("read-first", None)

    def test_pending_kind_ranks_a_repeated_kind_by_first_occurrence(self):
        read, write = Read(AtomicRegister("a")), Write(AtomicRegister("b"), 1)
        view = StaticView({0: write, 1: read})
        # "read" first appears at 0 and "write" at 1; a later repeat of
        # "read" must not demote it below "write".
        assert PendingKindAdversary(["read", "write", "read"]).choose(view) == 1
        assert PendingKindAdversary(["write", "read", "write"]).choose(view) == 0
        # An unlisted kind ranks after every listed one, repeats included.
        assert PendingKindAdversary(["scan", "read", "scan"]).choose(view) == 1

    def test_pending_kind_ties_rotate(self):
        read = Read(AtomicRegister("a"))
        adversary = PendingKindAdversary(["read"])
        view = StaticView({0: read, 1: read, 2: read})
        assert [adversary.choose(view) for _ in range(4)] == [2, 1, 0, 2]
        sparse = PendingKindAdversary(["read"])
        view = StaticView({1: read, 3: read})
        assert [sparse.choose(view) for _ in range(4)] == [3, 3, 1, 1]

    def test_pending_kind_write_priority(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return value

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        result = run_adaptive_programs(
            [reader, writer],
            PendingKindAdversary(["write"]),
            SeedTree(0),
        )
        assert result.outputs[0] == "w"

    def test_longest_first_runs_one_process_to_completion(self):
        register = AtomicRegister("r")

        def program(ctx):
            for _ in range(5):
                yield Write(register, ctx.pid)
            value = yield Read(register)
            return value

        result = run_adaptive_programs(
            [program] * 3, LongestFirstAdversary(), SeedTree(0),
            record_trace=True,
        )
        # The first scheduled process keeps the lead and finishes before
        # anyone else starts.
        first_six = [event.pid for event in result.trace.events[:6]]
        assert len(set(first_six)) == 1

    def test_shortest_first_is_round_robin_like(self):
        register = AtomicRegister("r")

        def program(ctx):
            yield Write(register, ctx.pid)
            yield Write(register, ctx.pid)
            return "done"

        result = run_adaptive_programs(
            [program] * 3, ShortestFirstAdversary(), SeedTree(0),
            record_trace=True,
        )
        pids = [event.pid for event in result.trace.events[:3]]
        assert pids == [0, 1, 2]

    def test_sift_killer_runs_empty_readers_first(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return value

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        result = run_adaptive_programs(
            [writer, reader], SiftKillerAdversary(), SeedTree(0),
        )
        # The reader ran while the register was still empty.
        assert result.outputs[1] is None


class TestAdversaryBreaksSifting:
    """The E18 punchline at unit-test scale: a content-aware adversary
    pushes Algorithm 2 below its oblivious floor, while Algorithm 1 is
    structurally immune (its two ops per round are the same kinds for
    everyone)."""

    def test_readers_first_defeats_the_sift(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        # The attack strengthens with n (~0.30 at n=32 vs ~0.9 oblivious).
        n, trials = 32, 40
        agreed = 0
        for trial in range(trials):
            conciliator = SiftingConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n,
                PendingKindAdversary(["read"]),
                SeedTree(trial),
                inputs=list(range(n)),
            )
            agreed += result.agreement
        # Well below the 1 - eps = 0.5 oblivious floor.
        assert agreed / trials < 0.5

    def test_snapshot_conciliator_resists_the_same_adversary(self):
        from repro.core.snapshot_conciliator import SnapshotConciliator

        n, trials = 16, 30
        agreed = 0
        for trial in range(trials):
            conciliator = SnapshotConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n,
                PendingKindAdversary(["scan"]),
                SeedTree(trial),
                inputs=list(range(n)),
            )
            agreed += result.agreement
        assert agreed / trials >= 0.5

    def test_validity_and_termination_survive_any_adversary(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        n = 8
        for adversary in (
            PendingKindAdversary(["read"]),
            SiftKillerAdversary(),
            LongestFirstAdversary(),
            ShortestFirstAdversary(),
        ):
            conciliator = SiftingConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n, adversary, SeedTree(5),
                inputs=list(range(n)),
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})


class TestAdaptiveUnderFullMonitorSuite:
    """Every adaptive adversary family, with the complete invariant-monitor
    suite riding along as hooks: no monitor may record a violation against
    an honest protocol, whatever the adversary does."""

    ADVERSARIES = (
        lambda: PendingKindAdversary(["read"]),
        lambda: PendingKindAdversary(["write"]),
        lambda: LongestFirstAdversary(),
        lambda: ShortestFirstAdversary(),
        lambda: RandomAdaptiveAdversary(7),
        lambda: SiftKillerAdversary(),
    )

    def run_under_monitors(self, conciliator, adversary, inputs, seed=3):
        from repro.runtime.monitors import (
            AdoptCommitCoherenceMonitor,
            RegisterSemanticsMonitor,
            ValidityMonitor,
            WaitFreedomWatchdog,
        )

        n = len(inputs)
        monitors = [
            ValidityMonitor(inputs, strict=False),
            AdoptCommitCoherenceMonitor(strict=False),
            WaitFreedomWatchdog(conciliator.step_bound(), strict=False),
            RegisterSemanticsMonitor(strict=False),
        ]
        result = run_adaptive_programs(
            [conciliator.program] * n,
            adversary,
            SeedTree(seed),
            inputs=list(inputs),
            hooks=monitors,
            record_trace=True,
        )
        return result, monitors

    def test_sifting_is_clean_under_every_adversary(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        n = 6
        for make_adversary in self.ADVERSARIES:
            result, monitors = self.run_under_monitors(
                SiftingConciliator(n), make_adversary(), list(range(n)),
            )
            assert result.completed
            for monitor in monitors:
                assert monitor.violations == [], type(monitor).__name__

    def test_snapshot_is_clean_under_every_adversary(self):
        from repro.core.snapshot_conciliator import SnapshotConciliator

        n = 5
        for make_adversary in self.ADVERSARIES:
            result, monitors = self.run_under_monitors(
                SnapshotConciliator(n), make_adversary(), list(range(n)),
            )
            assert result.completed
            for monitor in monitors:
                assert monitor.violations == [], type(monitor).__name__

    def test_watchdog_exposes_a_planted_step_hog_under_adaptive(self):
        # Sanity-check the suite has teeth in the adaptive runtime too: an
        # absurdly tight step budget must be reported by the watchdog.
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.runtime.monitors import WaitFreedomWatchdog

        n = 4
        conciliator = SiftingConciliator(n)
        watchdog = WaitFreedomWatchdog(1, strict=False)
        result = run_adaptive_programs(
            [conciliator.program] * n,
            RandomAdaptiveAdversary(1),
            SeedTree(2),
            inputs=list(range(n)),
            hooks=[watchdog],
        )
        assert result.completed
        assert watchdog.violations
        assert all(v.monitor == "wait-freedom" for v in watchdog.violations)
