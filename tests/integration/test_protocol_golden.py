"""Golden pin for the protocol layer: seeded oblivious runs hash to
committed values.

Every catalog conciliator, plus snapshot consensus and register consensus,
runs at n = 2, 5, 8 and 32 under the ``random``, ``permuted``,
``interleaved``, ``blocks`` and ``round-robin`` schedule families (the
emulated snapshot at n = 32 under ``random`` only), once with
no hooks and once with the four invariant monitors and a recorded trace.
Each case hashes its outputs, per-process step counts, trace events,
monitor violations, every conciliator's ``survivor_series()``, and the
state of every shared object the protocol reaches: snapshot
``view_sizes``, register read/write counts and the ``allocated()`` indices
of object arrays.  The hashes in ``protocol_golden.json`` were computed
before the protocols' local code was last rewritten, so any drift in what a
seeded run does fails here.

Regenerate the file (only for a deliberate, documented behaviour change)
with::

    PYTHONPATH=src python tests/integration/test_protocol_golden.py \\
        > tests/integration/protocol_golden.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import catalog
from repro.core.conciliator import Conciliator
from repro.core.consensus import (
    ConsensusProtocol,
    register_consensus,
    snapshot_consensus,
)
from repro.memory.base import SharedObject
from repro.memory.register import AtomicRegister
from repro.memory.register_array import ObjectArray
from repro.memory.snapshot import SnapshotObject, SparseView
from repro.runtime.monitors import (
    AdoptCommitCoherenceMonitor,
    RegisterSemanticsMonitor,
    ValidityMonitor,
    WaitFreedomWatchdog,
)
from repro.runtime.operations import Operation
from repro.runtime.rng import SeedTree
from repro.runtime.simulator import run_programs
from repro.workloads.schedules import make_schedule

GOLDEN = Path(__file__).with_name("protocol_golden.json")

PROTOCOLS = {record.name: record.factory for record in catalog.CATALOG}
PROTOCOLS["snapshot-consensus"] = snapshot_consensus
PROTOCOLS["register-consensus"] = lambda n: register_consensus(
    n, value_domain=list(range(n))
)
SIZES = (2, 5, 8, 32)
FAMILIES = ("random", "permuted", "interleaved", "blocks", "round-robin")
HOOKS = ("none", "monitors")
#: The register-emulated snapshot pays O(n^2) steps per round (~2 s a run
#: at n = 32), so at that size it runs under one family only.
SLOW = {("emulated-snapshot", 32): ("random",)}


def case_ids():
    return [f"{protocol}/n{n}/{family}/{hooks}"
            for protocol in PROTOCOLS
            for n in SIZES
            for family in SLOW.get((protocol, n), FAMILIES)
            for hooks in HOOKS]


def canonical(value):
    """A repr-stable structure: dataclasses and sparse views spelled out."""
    if isinstance(value, SparseView):
        return ("SparseView", len(value), canonical(value.items()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, canonical(item))
                            for key, item in value.items()))
    return value


def reachable(root):
    """Conciliators and shared objects reachable from ``root``'s state."""
    conciliators, objects, arrays = [], [], []
    seen = set()
    pending = [root]
    while pending:
        node = pending.pop()
        if id(node) in seen or isinstance(node, Operation):
            continue
        seen.add(id(node))
        if isinstance(node, (list, tuple)):
            pending.extend(node)
            continue
        if isinstance(node, dict):
            pending.extend(node.values())
            continue
        if not type(node).__module__.startswith("repro."):
            continue
        if isinstance(node, Conciliator):
            conciliators.append(node)
        if isinstance(node, SharedObject):
            objects.append(node)
        if isinstance(node, ObjectArray):
            arrays.append(node)
            pending.extend(node)
        pending.extend(getattr(node, "__dict__", {}).values())
    return conciliators, objects, arrays


def memory_state(obj):
    if isinstance(obj, SnapshotObject):
        return ("snapshot", obj.name, obj.view_sizes)
    if isinstance(obj, AtomicRegister):
        return ("register", obj.name, obj.read_count, obj.write_count)
    return (type(obj).__name__, obj.name)


def run_case(case):
    protocol_name, size, family, hooks = case.split("/")
    n = int(size[1:])
    seed = 1000 * n + sorted(PROTOCOLS).index(protocol_name)
    inputs = list(range(n))
    protocol = PROTOCOLS[protocol_name](n)
    seeds = SeedTree(seed)
    monitors = []
    if hooks == "monitors":
        monitors = [
            ValidityMonitor(inputs, strict=False),
            AdoptCommitCoherenceMonitor(strict=False),
            WaitFreedomWatchdog(1_000_000, strict=False),
            RegisterSemanticsMonitor(strict=False),
        ]
    result = run_programs(
        [protocol.program] * n,
        make_schedule(family, n, seeds.child("schedule")),
        seeds,
        inputs=inputs,
        record_trace=hooks == "monitors",
        hooks=monitors,
    )
    conciliators, objects, arrays = reachable(protocol)
    if isinstance(protocol, ConsensusProtocol):
        phases = sorted(protocol.phases_used.items())
    else:
        phases = None
    observed = (
        canonical(sorted(result.outputs.items())),
        sorted(result.steps_by_pid.items()),
        result.completed,
        canonical(result.trace.events) if result.trace is not None else None,
        [canonical(monitor.violations) for monitor in monitors],
        phases,
        sorted((c.name, c.survivor_series()) for c in conciliators),
        sorted(memory_state(obj) for obj in objects),
        sorted((array.name, array.allocated()) for array in arrays),
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_seeded_run_is_unchanged(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: run_case(case) for case in case_ids()},
                     indent=1, sort_keys=True))
