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
it runs trials in-process with zero multiprocessing overhead.  Hung or
failing chunks are retried in fresh pools under capped *full-jitter*
exponential backoff (:class:`~repro.runtime.backoff.BackoffPolicy` — the
same policy object the service layer applies to per-session worker
retries); the jitter stream is seeded from the sweep's ``run_key``, so
retry timing is a deterministic function of the sweep's identity.  Chunks
that keep failing are *quarantined* (the rest of the sweep still completes
and is journaled) and the run then fails loudly — with
:class:`~repro.errors.StepLimitExceededError` for timeouts, or the chunk's
own exception for task errors.

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
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, StepLimitExceededError

# ``multiprocessing``, the retry backoff and the checkpoint journal load
# only on the paths that use them (a fork pool, a ``checkpoint_path``), so
# serial sweeps do not pay for importing them.
if TYPE_CHECKING:
    from repro.runtime.backoff import BackoffPolicy
    from repro.runtime.checkpoint import CheckpointJournal

__all__ = [
    "MAX_RETRY_BACKOFF",
    "ParallelConfig",
    "available_workers",
    "default_chunk_size",
    "get_default_parallelism",
    "iter_chunks",
    "parallelism",
    "resolve_workers",
    "retry_backoff_policy",
    "run_indexed_trials",
    "set_default_parallelism",
    "supports_fork",
]

#: Chunks handed out per worker when no chunk size is given; several chunks
#: per worker smooths out trials with uneven runtimes.
_CHUNKS_PER_WORKER = 4

#: Hard cap on any single retry backoff sleep, in seconds.
MAX_RETRY_BACKOFF = 30.0


def retry_backoff_policy(base: float) -> BackoffPolicy:
    """The chunk-retry backoff policy for a given base delay.

    Exposed so tests (and the service layer's documentation) can pin the
    exact policy the trial engine applies: full jitter, ×2 growth, capped
    at :data:`MAX_RETRY_BACKOFF`.
    """
    from repro.runtime.backoff import BackoffPolicy

    return BackoffPolicy(base=base, multiplier=2.0, max_delay=MAX_RETRY_BACKOFF)


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
        timeout: seconds to wait for any single chunk before declaring its
            worker hung; ``None`` waits forever.
        retries: how many times incomplete chunks are re-dispatched in a
            fresh pool before they are quarantined and the run fails.
        backoff: delay *ceiling* in seconds before the first re-dispatch;
            the actual sleep is a seeded full-jitter draw from
            ``[0, ceiling]`` and the ceiling doubles per re-dispatch up to
            :data:`MAX_RETRY_BACKOFF` (see
            :class:`~repro.runtime.backoff.BackoffPolicy`).  ``0`` retries
            immediately (used by tests).
    """

    workers: int = 1
    chunk_size: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {self.timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise ConfigurationError(
                f"backoff must be >= 0, got {self.backoff}"
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
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
) -> Iterator[ParallelConfig]:
    """Temporarily override the session default parallelism."""
    current = get_default_parallelism()
    overrides = {
        key: value
        for key, value in (
            ("workers", workers),
            ("chunk_size", chunk_size),
            ("timeout", timeout),
            ("retries", retries),
            ("backoff", backoff),
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
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    run_key: str = "",
) -> List[Any]:
    """Evaluate ``task(0..trials-1)`` and return outcomes in index order.

    ``task`` must be a pure function of its index (all randomness derived
    from the index, e.g. via ``SeedTree(master).child(f"trial-{i}")``) and
    its return value must be picklable.  Under those conditions the result
    list is bit-identical for every worker count and chunk size.

    Parameters default to the session :class:`ParallelConfig` (see
    :func:`parallelism`).  Raises :class:`StepLimitExceededError` if chunks
    are still unfinished after ``retries`` backed-off re-dispatches, and
    re-raises the underlying exception when chunks are quarantined for
    repeatedly failing.

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
    if timeout is None:
        timeout = config.timeout
    if retries is None:
        retries = config.retries
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if backoff is None:
        backoff = config.backoff
    if backoff < 0:
        raise ConfigurationError(f"backoff must be >= 0, got {backoff}")
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
        outcomes = _run_sharded(
            task, chunks, worker_count, timeout, retries, backoff, journal,
            run_key=run_key,
        )
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
    timeout: Optional[float],
    retries: int,
    backoff: float,
    journal: Optional[CheckpointJournal] = None,
    *,
    run_key: str = "",
) -> List[List[Any]]:
    """Dispatch chunks to a fork pool; retry stragglers; keep chunk order.

    Chunks that time out or raise are re-dispatched in fresh pools under
    capped full-jitter exponential backoff; the jitter stream is seeded
    from ``run_key``, so the delay sequence is a deterministic function of
    the sweep's identity (and never of wall clock or worker scheduling).
    When retries are exhausted the surviving chunks have still completed
    (and been journaled), and the run fails loudly: poison chunks re-raise
    their own exception, hung chunks raise
    :class:`StepLimitExceededError`.
    """
    import multiprocessing

    from repro.runtime.backoff import BackoffPolicy

    global _ACTIVE_TASK
    policy = retry_backoff_policy(backoff)
    jitter = BackoffPolicy.rng(0, "parallel-retry", run_key)
    results: List[Optional[List[Any]]] = [None] * len(chunks)
    pending = []
    for index, (start, stop) in enumerate(chunks):
        replayed = journal.outcomes_for(start, stop) if journal else None
        if replayed is not None:
            results[index] = replayed
        else:
            pending.append(index)
    failures: Dict[int, BaseException] = {}
    context = multiprocessing.get_context("fork")
    _ACTIVE_TASK = task
    try:
        for attempt in range(retries + 1):
            if not pending:
                break
            if attempt > 0 and backoff > 0:
                time.sleep(policy.delay(attempt - 1, jitter))
            pool = context.Pool(processes=min(workers, len(pending)))
            try:
                handles = {
                    index: pool.apply_async(_run_chunk, (chunks[index],))
                    for index in pending
                }
                pool.close()
                incomplete: List[int] = []
                timed_out: List[int] = []
                # Journal each chunk the moment it is collected — durability
                # must not wait for the sweep's stragglers, or a mid-run kill
                # would leave nothing to resume from.
                def _collected(index: int, outcomes: List[Any]) -> None:
                    results[index] = outcomes
                    failures.pop(index, None)
                    if journal is not None:
                        start, stop = chunks[index]
                        journal.record_chunk(start, stop, outcomes)

                for index, handle in handles.items():
                    try:
                        _collected(index, handle.get(timeout))
                    except multiprocessing.TimeoutError:
                        incomplete.append(index)
                        timed_out.append(index)
                    except BaseException as error:  # the task's own exception
                        incomplete.append(index)
                        failures[index] = error
                # Chunks that finished while we were blocked on an earlier
                # straggler are ready now; salvage them before retrying.
                for index in list(timed_out):
                    if handles[index].ready():
                        try:
                            _collected(index, handles[index].get())
                            incomplete.remove(index)
                            timed_out.remove(index)
                        except BaseException as error:
                            failures[index] = error
                            timed_out.remove(index)
                pending = incomplete
            finally:
                pool.terminate()
                pool.join()
        if pending:
            quarantined = sorted(index for index in pending if index in failures)
            hung = sorted(index for index in pending if index not in failures)
            if quarantined:
                error = failures[quarantined[0]]
                error.add_note(
                    f"{len(quarantined)} of {len(chunks)} trial chunks "
                    f"quarantined as poison after {retries + 1} attempt(s); "
                    f"quarantined trial ranges: "
                    f"{[chunks[i] for i in quarantined]}; "
                    f"hung trial ranges: {[chunks[i] for i in hung]}"
                )
                raise error
            raise StepLimitExceededError(
                f"{len(hung)} of {len(chunks)} trial chunks timed out "
                f"after {retries + 1} attempt(s) with timeout={timeout}s; "
                f"unfinished trial ranges: {[chunks[i] for i in hung]}"
            )
    finally:
        _ACTIVE_TASK = None
    return results  # type: ignore[return-value]
