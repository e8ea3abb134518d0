"""Conciliator safety across the full input-workload gallery.

Validity and termination hold for any input assignment; probabilistic
agreement holds regardless of how inputs are distributed.  This sweeps
every conciliator across every named workload.
"""

import pytest

from repro.baselines.doubling_cil import DoublingCILConciliator
from repro.core.cil_embedded import CILEmbeddedConciliator
from repro.core.indirect_conciliator import IndirectSnapshotConciliator
from repro.core.sifting_conciliator import SiftingConciliator
from repro.core.snapshot_conciliator import SnapshotConciliator
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.workloads.inputs import standard_input_gallery
from repro.workloads.schedules import make_schedule

N = 8

CONCILIATORS = {
    "snapshot": lambda: SnapshotConciliator(N),
    "snapshot-maxreg": lambda: SnapshotConciliator(N, use_max_registers=True),
    "indirect": lambda: IndirectSnapshotConciliator(N),
    "sifting": lambda: SiftingConciliator(N),
    "sifting-anon": lambda: SiftingConciliator(N, anonymous=True),
    "cil-embedded": lambda: CILEmbeddedConciliator(N),
    "doubling-cil": lambda: DoublingCILConciliator(N),
}


@pytest.mark.parametrize("conciliator_name", sorted(CONCILIATORS))
def test_every_conciliator_on_every_workload(conciliator_name):
    gallery = standard_input_gallery(N, seed=5)
    factory = CONCILIATORS[conciliator_name]
    for workload, inputs in gallery.items():
        for seed in range(3):
            seeds = SeedTree(seed)
            conciliator = factory()
            schedule = make_schedule("random", N, seeds.child("schedule"))
            result = run_programs(
                [conciliator.program] * N, schedule, seeds,
                inputs=list(inputs),
            )
            assert result.completed, (conciliator_name, workload, seed)
            assert result.validity_holds(dict(enumerate(inputs))), (
                conciliator_name, workload, seed,
            )


@pytest.mark.parametrize("conciliator_name", sorted(CONCILIATORS))
def test_unanimous_workload_forces_that_value(conciliator_name):
    factory = CONCILIATORS[conciliator_name]
    seeds = SeedTree(9)
    conciliator = factory()
    schedule = make_schedule("random", N, seeds.child("schedule"))
    result = run_programs(
        [conciliator.program] * N, schedule, seeds, inputs=["only"] * N
    )
    assert result.decided_values == {"only"}


def test_experiment_tables_are_deterministic():
    """E12 is exact (no sampling): two invocations must render identically;
    sampled experiments are deterministic too, given their fixed seeds."""
    from repro.analysis.paper import e12_adopt_commit_cost, e9

    assert (e12_adopt_commit_cost().render()
            == e12_adopt_commit_cost().render())
    assert e9(scale=0.05).render() == e9(scale=0.05).render()
