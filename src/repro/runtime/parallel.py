"""Parallel sharded trial engine with deterministic seed partitioning.

Experiment sweeps are embarrassingly parallel: every trial is a pure
function of ``(master_seed, trial_index)`` because all randomness flows
through a :class:`~repro.runtime.rng.SeedTree` branch named by the trial
index.  This module exploits that purity: it shards a trial range across
``multiprocessing`` workers and reassembles the per-trial outcomes **in
trial-index order**, so results are bit-identical to a serial run no matter
the worker count, the chunk size, or OS scheduling jitter.

Design rules that make the engine deterministic:

- a trial's seed derives from its *index*, never from which worker or chunk
  executed it (the caller's task must already obey this; the runners in
  :mod:`repro.analysis.experiments` do);
- workers return compact per-trial outcome records, and the coordinator
  reorders them by index before aggregating, so floating-point reductions
  happen in exactly the serial order;
- chunking only affects scheduling, never semantics.

The engine degrades gracefully: with ``workers <= 1``, on platforms without
the ``fork`` start method, or when invoked re-entrantly from inside a worker,
it runs trials in-process with zero multiprocessing overhead.  On the fork
pool every chunk runs exactly once: a trial is a pure function of its
index, so a chunk that raised would raise again, and nothing is retried.
The sweep still collects (and journals) every other chunk, then fails
loudly with the lowest-indexed failed chunk's own exception, annotated
with every failed trial range.  A ``KeyboardInterrupt`` (or any other
:class:`BaseException`) in the coordinator terminates the pool and
propagates at once.  How long a trial may run is bounded inside the trial
(the simulator's ``step_limit``, the starvation guard, fuzz's wall-clock
budget), not by the engine.

Crash safety: pass ``checkpoint_path`` (plus a ``run_key`` describing the
sweep) and every completed chunk is appended to an
append-only, hash-chained :class:`~repro.runtime.checkpoint.CheckpointJournal`.
A killed sweep re-invoked with the same arguments replays journaled chunks
and executes only the remainder; because aggregation is by trial index, the
resumed result is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

# ``multiprocessing`` and the checkpoint journal load only on the paths
# that use them (a fork pool, a ``checkpoint_path``), so serial sweeps do
# not pay for importing them.
if TYPE_CHECKING:
    from repro.runtime.checkpoint import CheckpointJournal

__all__ = [
    "ParallelConfig",
    "available_workers",
    "default_chunk_size",
    "get_default_parallelism",
    "iter_chunks",
    "parallelism",
    "resolve_workers",
    "run_indexed_trials",
    "set_default_parallelism",
    "supports_fork",
]

#: Chunks handed out per worker when no chunk size is given; several chunks
#: per worker smooths out trials with uneven runtimes.
_CHUNKS_PER_WORKER = 4


def supports_fork() -> bool:
    """Whether this platform offers the ``fork`` start method.

    The engine relies on ``fork`` so that worker processes inherit the task
    callable (which may be a closure over protocol factories) without
    pickling it.  Without ``fork`` the engine falls back to in-process
    execution, which is always correct, just serial.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def available_workers() -> int:
    """Number of CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` means "use the session default" (see
    :func:`set_default_parallelism`), ``0`` means "all available CPUs", and
    negative counts are rejected.
    """
    if workers is None:
        workers = get_default_parallelism().workers
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return available_workers()
    return workers


def default_chunk_size(trials: int, workers: int) -> int:
    """Chunk size giving ~``_CHUNKS_PER_WORKER`` chunks per worker."""
    if trials < 1 or workers < 1:
        raise ConfigurationError(
            f"need trials >= 1 and workers >= 1, got {trials} and {workers}"
        )
    return max(1, math.ceil(trials / (workers * _CHUNKS_PER_WORKER)))


def iter_chunks(trials: int, chunk_size: int) -> Iterator[Tuple[int, int]]:
    """Yield half-open ``(start, stop)`` index ranges covering ``trials``."""
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, trials, chunk_size):
        yield start, min(start + chunk_size, trials)


@dataclass(frozen=True)
class ParallelConfig:
    """Execution knobs for :func:`run_indexed_trials`.

    Attributes:
        workers: worker process count; ``1`` runs in-process, ``0`` means
            all available CPUs.
        chunk_size: trials dispatched per work unit; ``None`` picks
            :func:`default_chunk_size`.  Never affects results.
    """

    workers: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )


_default_config = ParallelConfig()


def get_default_parallelism() -> ParallelConfig:
    """The session-wide default :class:`ParallelConfig`."""
    return _default_config


def set_default_parallelism(config: ParallelConfig) -> ParallelConfig:
    """Replace the session default; returns the previous config.

    The default is what ``workers=None`` callers (the experiment runners,
    hence every benchmark and the ``experiments`` CLI subcommand) inherit.
    """
    global _default_config
    previous = _default_config
    _default_config = config
    return previous


@contextmanager
def parallelism(
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> Iterator[ParallelConfig]:
    """Temporarily override the session default parallelism."""
    current = get_default_parallelism()
    overrides = {
        key: value
        for key, value in (
            ("workers", workers),
            ("chunk_size", chunk_size),
        )
        if value is not None
    }
    previous = set_default_parallelism(replace(current, **overrides))
    try:
        yield get_default_parallelism()
    finally:
        set_default_parallelism(previous)


# The task being executed by the current pool.  Workers are forked after
# this is set, so they inherit the callable (closures included) without any
# pickling.  It doubles as a re-entrancy guard: a task that itself calls
# run_indexed_trials runs its inner sweep in-process.
_ACTIVE_TASK: Optional[Callable[[int], Any]] = None


def _run_chunk(bounds: Tuple[int, int]) -> List[Any]:
    """Execute one chunk of trial indices inside a worker process."""
    task = _ACTIVE_TASK
    if task is None:  # pragma: no cover - unreachable under fork
        raise RuntimeError("worker forked without an active task")
    start, stop = bounds
    return [task(index) for index in range(start, stop)]


def _run_serial(task: Callable[[int], Any], trials: int) -> List[Any]:
    return [task(index) for index in range(trials)]


def run_indexed_trials(
    task: Callable[[int], Any],
    trials: int,
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    run_key: str = "",
) -> List[Any]:
    """Evaluate ``task(0..trials-1)`` and return outcomes in index order.

    ``task`` must be a pure function of its index (all randomness derived
    from the index, e.g. via ``SeedTree(master).child(f"trial-{i}")``) and
    its return value must be picklable.  Under those conditions the result
    list is bit-identical for every worker count and chunk size.

    Parameters default to the session :class:`ParallelConfig` (see
    :func:`parallelism`).  Every chunk runs once; if any raised, the
    lowest-indexed failure's own exception propagates after the other
    chunks are collected, with a note naming every failed trial range.

    With ``checkpoint_path``, every completed chunk is durably journaled
    (see :class:`~repro.runtime.checkpoint.CheckpointJournal`); re-running
    with the same arguments resumes from the journal and produces results
    bit-identical to an uninterrupted run.  ``run_key`` should describe the
    sweep's full configuration so a stale journal cannot silently pollute a
    different sweep.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    config = get_default_parallelism()
    worker_count = resolve_workers(workers)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if trials == 0:
        return []
    worker_count = min(worker_count, trials)
    serial = (
        worker_count <= 1
        or not supports_fork()
        or _ACTIVE_TASK is not None  # re-entrant call from inside a worker
    )
    if serial and checkpoint_path is None:
        return _run_serial(task, trials)
    if chunk_size is None:
        chunk_size = config.chunk_size
    if chunk_size is None:
        chunk_size = default_chunk_size(trials, worker_count)
    journal: Optional[CheckpointJournal] = None
    if checkpoint_path is not None:
        from repro.runtime.checkpoint import CheckpointJournal

        journal = CheckpointJournal.open(
            checkpoint_path, run_key=run_key, trials=trials, chunk_size=chunk_size
        )
        # The journal's original chunking wins so resumed chunk boundaries
        # line up even if today's worker count differs.
        chunk_size = journal.chunk_size
    chunks = list(iter_chunks(trials, chunk_size))
    if serial:
        outcomes = _run_chunked_serial(task, chunks, journal)
    else:
        outcomes = _run_sharded(task, chunks, worker_count, journal)
    return [outcome for chunk in outcomes for outcome in chunk]


def _run_chunked_serial(
    task: Callable[[int], Any],
    chunks: List[Tuple[int, int]],
    journal: Optional[CheckpointJournal],
) -> List[List[Any]]:
    """In-process execution with the same chunk/journal structure as the pool."""
    results: List[List[Any]] = []
    for start, stop in chunks:
        replayed = journal.outcomes_for(start, stop) if journal else None
        if replayed is not None:
            results.append(replayed)
            continue
        outcomes = [task(index) for index in range(start, stop)]
        if journal is not None:
            journal.record_chunk(start, stop, outcomes)
        results.append(outcomes)
    return results


def _run_sharded(
    task: Callable[[int], Any],
    chunks: List[Tuple[int, int]],
    workers: int,
    journal: Optional[CheckpointJournal],
) -> List[List[Any]]:
    """Dispatch each pending chunk once to a fork pool; keep chunk order.

    A chunk that raises is not retried (its trials are pure functions of
    their indices, so it would raise again).  The other chunks are still
    collected and journaled, then the lowest-indexed failure's own
    exception is raised with a note naming every failed trial range.
    Anything that is not an :class:`Exception` (``KeyboardInterrupt``
    above all) comes from the coordinator itself: the pool is terminated
    and it propagates at once.
    """
    import multiprocessing

    global _ACTIVE_TASK
    results: List[Optional[List[Any]]] = [None] * len(chunks)
    pending = []
    for index, (start, stop) in enumerate(chunks):
        replayed = journal.outcomes_for(start, stop) if journal else None
        if replayed is not None:
            results[index] = replayed
        else:
            pending.append(index)
    if not pending:  # a fully journaled resume: nothing to fork for
        return results  # type: ignore[return-value]
    failures: Dict[int, Exception] = {}
    _ACTIVE_TASK = task
    try:
        # Leaving the block terminates the pool, whether every chunk is in
        # or the coordinator was interrupted mid-sweep.
        with multiprocessing.get_context("fork").Pool(
            processes=min(workers, len(pending))
        ) as pool:
            handles = [
                (index, pool.apply_async(_run_chunk, (chunks[index],)))
                for index in pending
            ]
            pool.close()
            for index, handle in handles:
                try:
                    outcomes = handle.get()
                except Exception as error:  # the task's own exception
                    failures[index] = error
                    continue
                results[index] = outcomes
                # Journal each chunk the moment it is collected, so a
                # mid-run kill leaves every finished chunk to resume from.
                if journal is not None:
                    start, stop = chunks[index]
                    journal.record_chunk(start, stop, outcomes)
    finally:
        _ACTIVE_TASK = None
    if failures:
        failed = sorted(failures)
        error = failures[failed[0]]
        error.add_note(
            f"{len(failed)} of {len(chunks)} trial chunks failed (each ran "
            f"once); failed trial ranges: {[chunks[i] for i in failed]}"
        )
        raise error
    return results  # type: ignore[return-value]
