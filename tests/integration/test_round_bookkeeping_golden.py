"""Golden pin for the conciliators' round bookkeeping.

Every conciliator records, per process, the persona it generated
(``_initial``) and the persona it holds after each round it finishes
(``_after_round``).  Survivor counts (E1/E3), the duplicate-priority event
(E9) and the trace annotation of :mod:`repro.obs.tracing` are all derived
from that record, so this pin hashes each of them for sifting, snapshot
(array and max-register), emulated, indirect and cil-embedded at n = 5
and 32, under ``random`` and under ``crash-half`` (a partial run: half
the processes stop after their first step, mid-round):

- ``_initial``, by pid;
- each round's holder map, by pid;
- ``survivor_series()``;
- ``personae_entering_round(i)`` for every recorded round and one past
  the last, sorted by (origin, value);
- ``duplicate_priority_rounds()``, where the conciliator has it;
- the events ``TraceRecorder.annotate_conciliator`` appends.

Algorithm 3 keeps its rounds in its embedded sifter, so every
conciliator reachable through ``.inner`` is hashed too.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_round_bookkeeping_golden.py \\
        > tests/integration/round_bookkeeping_golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import catalog
from repro.obs.tracing import TraceRecorder
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule

GOLDEN = Path(__file__).with_name("round_bookkeeping_golden.json")

ALGORITHMS = ("sifting", "snapshot", "snapshot-maxreg", "emulated-snapshot",
              "indirect-snapshot", "cil-embedded")
SIZES = (5, 32)
FAMILIES = ("random", "crash-half")


def case_ids():
    return [f"{algorithm}/n{n}/{family}"
            for algorithm in ALGORITHMS
            for n in SIZES
            for family in FAMILIES]


def spelled(persona):
    return (persona.value, persona.origin, persona.priorities,
            persona.write_bits, persona.coin)


def bookkeeping(conciliator):
    """Everything the pin hashes about one conciliator's record."""
    initial = sorted(
        (pid, spelled(persona)) for pid, persona in conciliator._initial.items()
    )
    rounds = sorted(conciliator._after_round)
    holders = [
        (index, sorted((pid, spelled(persona)) for pid, persona
                       in conciliator._after_round[index].items()))
        for index in rounds
    ]
    entering = [
        sorted((spelled(persona) for persona
                in conciliator.personae_entering_round(index)),
               key=lambda fields: (fields[1], fields[0]))
        for index in range(len(rounds) + 1)
    ]
    duplicates = getattr(conciliator, "duplicate_priority_rounds", None)
    return (
        conciliator.name,
        initial,
        holders,
        conciliator.survivor_series(),
        entering,
        duplicates() if duplicates is not None else None,
    )


def run_case(case):
    algorithm, size, family = case.split("/")
    n = int(size[1:])
    seed = 100 * n + ALGORITHMS.index(algorithm)
    conciliator = catalog.get(algorithm).factory(n)
    seeds = SeedTree(seed)
    result = run_programs(
        [conciliator.program] * n,
        make_schedule(family, n, seeds.child("schedule")),
        seeds,
        inputs=list(range(n)),
        allow_partial=family == "crash-half",
    )
    records = []
    node = conciliator
    while node is not None:
        records.append(bookkeeping(node))
        node = getattr(node, "inner", None)
    recorder = TraceRecorder()
    recorder.annotate_conciliator(conciliator)
    events = [(event.kind, event.step, event.pid,
               sorted(event.payload.items()))
              for event in recorder.events]
    observed = (sorted(result.steps_by_pid.items()), result.completed,
                records, events)
    return hashlib.sha256(repr(observed).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_round_bookkeeping_is_unchanged(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: run_case(case) for case in case_ids()},
                     indent=1, sort_keys=True))
