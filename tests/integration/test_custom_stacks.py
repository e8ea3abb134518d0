"""Custom consensus stacks: the framework is generic over its parts.

The alternation framework of Section 1.2 works for *any* conciliator and
*any* adopt-commit object.  These tests wire unusual combinations — the
doubling CIL conciliator, chained conciliators, the O(n) collect
adopt-commit, the indirection variant — and check that consensus safety
still holds, which is the framework's claim.
"""

import pytest

from repro.adoptcommit.collect_ac import CollectAdoptCommit
from repro.adoptcommit.snapshot_ac import SnapshotAdoptCommit
from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.core.compose import ChainedConciliator
from repro.core.consensus import ConsensusProtocol, run_consensus
from repro.core.indirect_conciliator import IndirectSnapshotConciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import RandomSchedule

N = 6
INPUTS = list(range(N))


def run_stack(conciliator_factory, ac_factory, seed):
    protocol = ConsensusProtocol(
        N,
        conciliator_factory=conciliator_factory,
        adopt_commit_factory=ac_factory,
    )
    seeds = SeedTree(seed)
    schedule = RandomSchedule(N, seeds.child("schedule").seed)
    result = run_consensus(protocol, INPUTS, schedule, seeds)
    return protocol, result


STACKS = {
    "doubling-cil+snapshot-ac": (
        lambda n, phase: DoublingCILConciliator(n, name=f"dcil-{phase}"),
        lambda n, phase: SnapshotAdoptCommit(n, name=f"snap-ac-{phase}"),
    ),
    "chained-sift+collect": (
        lambda n, phase: ChainedConciliator(
            [SiftingConciliator(n, name=f"s{phase}a"),
             SiftingConciliator(n, name=f"s{phase}b")],
            name=f"chain-{phase}",
        ),
        lambda n, phase: CollectAdoptCommit(n, name=f"collect-{phase}"),
    ),
    "indirect+snapshot-ac": (
        lambda n, phase: IndirectSnapshotConciliator(
            n, name=f"indirect-{phase}"
        ),
        lambda n, phase: SnapshotAdoptCommit(n, name=f"snap-ac-{phase}"),
    ),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_custom_stack_safety(stack):
    conciliator_factory, ac_factory = STACKS[stack]
    for seed in range(6):
        protocol, result = run_stack(conciliator_factory, ac_factory, seed)
        assert result.completed, (stack, seed)
        assert result.agreement, (stack, seed)
        assert result.validity_holds(dict(enumerate(INPUTS))), (stack, seed)


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_custom_stack_phase_counts_modest(stack):
    conciliator_factory, ac_factory = STACKS[stack]
    worst = 0
    for seed in range(6):
        protocol, _ = run_stack(conciliator_factory, ac_factory, seed)
        worst = max(worst, max(protocol.phases_used.values()))
    # Every stack's conciliator has constant agreement probability, so
    # phase counts stay geometric-small.
    assert worst <= 8, stack


def test_chained_stack_commits_faster_on_average():
    """A chained (higher-delta) conciliator should need no more phases
    than a single-stage one on the same seeds."""
    single_phases = []
    chained_phases = []
    for seed in range(10):
        protocol, _ = run_stack(
            lambda n, phase: SiftingConciliator(n, name=f"one-{phase}"),
            lambda n, phase: CollectAdoptCommit(n, name=f"ac-{phase}"),
            seed,
        )
        single_phases.append(max(protocol.phases_used.values()))
        protocol, _ = run_stack(*STACKS["chained-sift+collect"], seed=seed)
        chained_phases.append(max(protocol.phases_used.values()))
    assert sum(chained_phases) <= sum(single_phases)
