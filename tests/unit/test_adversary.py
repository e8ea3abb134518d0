"""Unit tests for the intermediate-strength adversary ladder.

Covers the AdversarySpec value object, the LateAdversary's delayed view
and clamping, the NoisySchedulerAdversary's perturbation behaviour at
both noise endpoints, and AdaptiveSpec's JSON/eq/hash parity with the
other schedule-producing specs.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.memory.register import AtomicRegister
from repro.runtime.adaptive import AdaptiveSpec, AdversaryView, make_adaptive
from repro.runtime.adversary import (
    ADVERSARY_KINDS,
    ADVERSARY_LADDER,
    AdversarySpec,
    LateAdversary,
    NoisySchedulerAdversary,
    make_adversary,
)
from repro.runtime.operations import Read, Write


class _FakeView:
    """A minimal AdversaryView over a static unfinished set."""

    def __init__(self, pids, steps=None):
        self._pids = sorted(pids)
        self._steps = steps or {pid: 0 for pid in self._pids}

    def unfinished(self):
        return list(self._pids)

    def pending_operation(self, pid):
        return None

    def pending_kind(self, pid):
        return None

    def steps_taken(self, pid):
        return self._steps[pid]


class _MaxPidStrategy:
    """Deterministic inner strategy: always picks the largest visible pid."""

    def choose(self, view):
        return max(view.unfinished())


class TestLadderConstants:
    def test_ladder_ordering(self):
        assert ADVERSARY_LADDER == ("oblivious", "noisy", "late", "adaptive")

    def test_spec_kinds_are_the_middle_rungs(self):
        assert set(ADVERSARY_KINDS) == {"noisy", "late"}


class TestAdversarySpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec("clairvoyant")

    def test_rejects_unknown_inner(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec("late", inner="nope")

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec("late", delay=-1)

    def test_rejects_bad_noise(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec("noisy", noise=1.5)

    def test_json_round_trip(self):
        spec = AdversarySpec("late", inner="pending-reads", seed=7, delay=2)
        assert AdversarySpec.from_json(spec.to_json()) == spec

    def test_json_version_rejected(self):
        data = AdversarySpec("noisy").to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            AdversarySpec.from_json(data)

    def test_hashable_value_object(self):
        assert AdversarySpec("late", delay=2) == AdversarySpec("late", delay=2)
        assert hash(AdversarySpec("late", delay=2)) == hash(
            AdversarySpec("late", delay=2)
        )
        assert AdversarySpec("late") != AdversarySpec("noisy")

    def test_describe_names_the_strength(self):
        assert AdversarySpec("late", inner="sift-killer",
                             delay=3).describe() == "late-3(sift-killer)"
        assert AdversarySpec("noisy", inner="pending-reads",
                             noise=0.8).describe() == "noisy-0.8(pending-reads)"

    def test_build_types(self):
        assert isinstance(AdversarySpec("late").build(), LateAdversary)
        assert isinstance(AdversarySpec("noisy").build(),
                          NoisySchedulerAdversary)


class TestMakeAdversary:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_adversary("clairvoyant")

    def test_rejects_unknown_inner(self):
        with pytest.raises(ConfigurationError):
            make_adversary("late", inner="nope")


class TestNoisyScheduler:
    def test_zero_noise_is_the_inner_strategy(self):
        adversary = NoisySchedulerAdversary(_MaxPidStrategy(), noise=0.0)
        picks = [adversary.choose(_FakeView([0, 1, 2])) for _ in range(10)]
        assert picks == [2] * 10
        assert adversary.perturbed == 0

    def test_full_noise_never_consults_inner(self):
        class Exploder:
            def choose(self, view):
                raise AssertionError("inner must not be consulted")

        adversary = NoisySchedulerAdversary(Exploder(), noise=1.0, seed=3)
        picks = [adversary.choose(_FakeView([0, 1, 2])) for _ in range(20)]
        assert adversary.perturbed == 20
        assert set(picks) <= {0, 1, 2}

    def test_rejects_bad_noise(self):
        with pytest.raises(ConfigurationError):
            NoisySchedulerAdversary(_MaxPidStrategy(), noise=-0.1)

    def test_deterministic_for_seed(self):
        def run(seed):
            adversary = NoisySchedulerAdversary(
                _MaxPidStrategy(), noise=0.5, seed=seed
            )
            return [adversary.choose(_FakeView([0, 1, 2, 3]))
                    for _ in range(30)]

        assert run(11) == run(11)


class TestLateAdversary:
    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            LateAdversary(_MaxPidStrategy(), delay=-1)

    def test_zero_delay_is_fully_adaptive(self):
        adversary = LateAdversary(_MaxPidStrategy(), delay=0)
        assert adversary.choose(_FakeView([0, 1, 2])) == 2
        assert adversary.clamped == 0

    def test_warmup_is_oblivious(self):
        """Until delay snapshots accumulate, the inner strategy has seen
        nothing it may act on: picks are seeded-uniform, not inner."""

        class Exploder:
            def choose(self, view):
                raise AssertionError("inner consulted before history built")

        adversary = LateAdversary(Exploder(), delay=2, seed=5)
        for _ in range(2):
            pick = adversary.choose(_FakeView([0, 1, 2]))
            assert pick in (0, 1, 2)

    def test_consults_inner_against_stale_view(self):
        adversary = LateAdversary(_MaxPidStrategy(), delay=1)
        adversary.choose(_FakeView([0, 1, 2]))       # snapshot {0,1,2}
        # Inner sees the old view {0,1,2}; its pick (2) is still runnable.
        assert adversary.choose(_FakeView([0, 1, 2])) == 2
        assert adversary.clamped == 0

    def test_clamps_vanished_pick(self):
        adversary = LateAdversary(_MaxPidStrategy(), delay=1, seed=4)
        adversary.choose(_FakeView([0, 1, 2]))       # snapshot {0,1,2}
        # Inner picks 2 from the stale view, but 2 has since finished.
        pick = adversary.choose(_FakeView([0, 1]))
        assert pick in (0, 1)
        assert adversary.clamped == 1

    def test_deterministic_for_seed(self):
        def run(seed):
            adversary = LateAdversary(
                make_adaptive("random-adaptive", seed), delay=2, seed=seed
            )
            return [adversary.choose(_FakeView([0, 1, 2, 3]))
                    for _ in range(30)]

        assert run(9) == run(9)


class TestAdaptiveSpecParity:
    """AdaptiveSpec must keep JSON round-trip + eq/hash parity with
    ScheduleSpec/FaultPlan/AdversarySpec, so ladder scenarios that pin the
    adaptive endpoint stay corpus-storable."""

    def test_json_round_trip(self):
        spec = AdaptiveSpec("sift-killer", seed=13)
        assert AdaptiveSpec.from_json(spec.to_json()) == spec

    def test_json_version_rejected(self):
        data = AdaptiveSpec("pending-reads").to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            AdaptiveSpec.from_json(data)

    def test_hashable_value_object(self):
        assert AdaptiveSpec("sift-killer", seed=1) == AdaptiveSpec(
            "sift-killer", seed=1
        )
        assert hash(AdaptiveSpec("sift-killer", seed=1)) == hash(
            AdaptiveSpec("sift-killer", seed=1)
        )
        assert AdaptiveSpec("sift-killer") != AdaptiveSpec("pending-reads")


class _MethodView:
    """An AdversaryView's state offered through the four view methods
    only, as any duck-typed view would."""

    def __init__(self, view):
        self._view = view

    def unfinished(self):
        return self._view.unfinished()

    def pending_operation(self, pid):
        return self._view.pending_operation(pid)

    def pending_kind(self, pid):
        return self._view.pending_kind(pid)

    def steps_taken(self, pid):
        return self._view.steps_taken(pid)


class _Proc:
    def __init__(self, operation):
        self.pending_operation = operation


def drive_late(adversary, wrap, seed, n=5, rounds=6):
    """Run ``adversary`` over a toy execution whose writes change shared
    register contents; return its picks and clamp count."""
    rng = random.Random(seed)
    registers = [AtomicRegister(f"r[{index}]") for index in range(3)]

    def operation():
        register = rng.choice(registers)
        if rng.random() < 0.5:
            return Read(register)
        return Write(register, rng.randrange(4))

    live = {pid: _Proc(operation()) for pid in range(n)}
    steps = {pid: 0 for pid in live}
    view = AdversaryView(live, steps)
    picks = []
    while live:
        pid = adversary.choose(wrap(view))
        picks.append(pid)
        chosen = live[pid].pending_operation
        if isinstance(chosen, Write):
            chosen.obj.apply(chosen, pid)
        steps[pid] += 1
        if steps[pid] == rounds:
            del live[pid]
        else:
            live[pid].pending_operation = operation()
    return picks, adversary.clamped


class TestLateCapture:
    @pytest.mark.parametrize(
        "inner", ["pending-reads", "sift-killer", "longest-first"])
    @pytest.mark.parametrize("delay", [0, 1, 3])
    def test_live_view_and_method_view_agree(self, inner, delay):
        """The capture reads a live AdversaryView's dicts in place and any
        other view through its methods; both give the same run."""
        for seed in range(8):
            direct = drive_late(
                make_adversary("late", inner=inner, delay=delay, seed=seed),
                lambda view: view, seed)
            through_methods = drive_late(
                make_adversary("late", inner=inner, delay=delay, seed=seed),
                _MethodView, seed)
            assert direct == through_methods
            assert len(direct[0]) == 5 * 6
