"""Unit tests for the sharded trial engine (repro.runtime.parallel)."""

import time

import pytest

from repro.analysis.experiments import trial_seed_tree
from repro.errors import CheckpointError, ConfigurationError, StepLimitExceededError
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.parallel import (
    MAX_RETRY_BACKOFF,
    ParallelConfig,
    available_workers,
    default_chunk_size,
    get_default_parallelism,
    iter_chunks,
    parallelism,
    resolve_workers,
    retry_backoff_policy,
    run_indexed_trials,
    set_default_parallelism,
    supports_fork,
)
from repro.runtime.rng import SeedTree

needs_fork = pytest.mark.skipif(
    not supports_fork(), reason="sharded execution requires the fork start method"
)


class TestChunking:
    def test_chunks_partition_the_range(self):
        chunks = list(iter_chunks(10, 3))
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        covered = [i for start, stop in chunks for i in range(start, stop)]
        assert covered == list(range(10))

    def test_oversized_chunk_is_one_chunk(self):
        assert list(iter_chunks(4, 100)) == [(0, 4)]

    def test_empty_range(self):
        assert list(iter_chunks(0, 5)) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            list(iter_chunks(-1, 2))
        with pytest.raises(ConfigurationError):
            list(iter_chunks(5, 0))

    def test_default_chunk_size_scales_with_workers(self):
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1
        with pytest.raises(ConfigurationError):
            default_chunk_size(0, 4)


class TestConfig:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == get_default_parallelism().workers
        assert resolve_workers(0) == available_workers()
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(timeout=0.0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(retries=-1)
        with pytest.raises(ConfigurationError):
            ParallelConfig(backoff=-0.1)

    def test_backoff_override_via_context(self):
        with parallelism(backoff=0.0) as config:
            assert config.backoff == 0.0

    def test_parallelism_context_restores_default(self):
        before = get_default_parallelism()
        with parallelism(workers=7, chunk_size=2) as config:
            assert config.workers == 7
            assert config.chunk_size == 2
            assert get_default_parallelism() is config
        assert get_default_parallelism() is before

    def test_parallelism_zero_workers_means_all_cpus(self):
        with parallelism(workers=0):
            assert resolve_workers(None) == available_workers()

    def test_set_default_returns_previous(self):
        original = get_default_parallelism()
        replacement = ParallelConfig(workers=2)
        assert set_default_parallelism(replacement) is original
        assert set_default_parallelism(original) is replacement


class TestSerialPath:
    def test_workers_one_runs_in_process(self):
        """In-process execution must not fork: closure side effects are
        visible to the caller, which a worker process could never do."""
        seen = []

        def task(index):
            seen.append(index)
            return index * index

        assert run_indexed_trials(task, 5, workers=1) == [0, 1, 4, 9, 16]
        assert seen == [0, 1, 2, 3, 4]

    def test_zero_trials(self):
        assert run_indexed_trials(lambda i: i, 0, workers=4) == []

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            run_indexed_trials(lambda i: i, -1)

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_bad_chunk_size_rejected_whatever_the_workers(
        self, tmp_path, workers, checkpoint, chunk_size
    ):
        # Refused up front, before any trial runs or a journal is opened,
        # so the error cannot depend on taking the serial fast path.
        journal = tmp_path / "sweep.journal"
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_indexed_trials(
                lambda i: i, 3, workers=workers, chunk_size=chunk_size,
                checkpoint_path=str(journal) if checkpoint else None,
            )
        assert not journal.exists()


@needs_fork
class TestShardedPath:
    def test_results_ordered_by_index(self):
        result = run_indexed_trials(
            lambda i: i * 10, 11, workers=4, chunk_size=2
        )
        assert result == [i * 10 for i in range(11)]

    def test_seed_partitioning_is_by_trial_index(self):
        """Every trial sees the seed derived from its index — the same one
        the serial loop derives — regardless of worker/chunk placement."""
        expected = [
            SeedTree(42).child(f"trial-{i}").child("schedule").seed
            for i in range(9)
        ]

        def task(index):
            return trial_seed_tree(42, index).child("schedule").seed

        for workers, chunk_size in ((2, 1), (3, 2), (4, 100)):
            assert (
                run_indexed_trials(
                    task, 9, workers=workers, chunk_size=chunk_size
                )
                == expected
            )

    def test_worker_exception_propagates(self):
        def task(index):
            if index == 3:
                raise ValueError("trial 3 exploded")
            return index

        with pytest.raises(ValueError, match="trial 3 exploded"):
            run_indexed_trials(task, 6, workers=2, chunk_size=1)

    def test_hung_worker_surfaces_step_limit_error(self):
        def task(index):
            time.sleep(60)

        with pytest.raises(StepLimitExceededError, match="timed out"):
            run_indexed_trials(
                task, 2, workers=2, chunk_size=1, timeout=0.4, retries=0
            )

    def test_reentrant_call_falls_back_to_serial(self):
        """A task that itself sweeps must not fork a pool inside a worker."""

        def inner(index):
            return index

        def outer(index):
            return sum(run_indexed_trials(inner, 3, workers=4, chunk_size=1))

        assert run_indexed_trials(outer, 4, workers=2, chunk_size=1) == [3] * 4


@needs_fork
class TestRetrySemantics:
    def test_retry_completes_after_transient_hang(self, tmp_path):
        marker = tmp_path / "first-attempt"

        def task(index):
            if not marker.exists():
                marker.write_text("hung")
                time.sleep(60)
            return index * 2

        result = run_indexed_trials(
            task, 4, workers=2, chunk_size=4, timeout=1.0, retries=1
        )
        assert result == [0, 2, 4, 6]
        assert marker.exists()

    def test_exhausted_retries_raise(self):
        def task(index):
            time.sleep(60)

        started = time.time()
        with pytest.raises(StepLimitExceededError):
            run_indexed_trials(
                task, 2, workers=2, chunk_size=1, timeout=0.3, retries=1
            )
        # two attempts, each bounded by the timeout (plus pool overhead)
        assert time.time() - started < 30

    def test_hung_chunk_message_names_unfinished_ranges(self):
        def task(index):
            time.sleep(60) if index == 1 else None
            return index

        with pytest.raises(StepLimitExceededError, match=r"\(1, 2\)"):
            run_indexed_trials(
                task, 3, workers=2, chunk_size=1, timeout=0.5, retries=0,
                backoff=0.0,
            )

    def test_poison_chunk_quarantined_with_context(self):
        """A chunk that fails on every attempt is quarantined: its own
        exception propagates, annotated with the quarantined ranges, and
        the healthy chunks still complete (visible via the journal)."""

        def task(index):
            if index == 2:
                raise RuntimeError("poison trial")
            return index

        with pytest.raises(RuntimeError, match="poison trial") as excinfo:
            run_indexed_trials(
                task, 4, workers=2, chunk_size=1, retries=1, backoff=0.0
            )
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "quarantined" in notes
        assert "(2, 3)" in notes

    def test_backoff_delays_retries(self):
        """Retries sleep a jittered delay: nonzero, but capped by the
        policy ceiling — the full-jitter draw never exceeds base * 2^k."""

        def task(index):
            raise RuntimeError("always fails")

        started = time.time()
        with pytest.raises(RuntimeError):
            run_indexed_trials(
                task, 2, workers=2, chunk_size=1, retries=2, backoff=0.3
            )
        elapsed = time.time() - started
        # Two chunks, two retries each, ceilings 0.3s and 0.6s: the
        # jittered total can never exceed the un-jittered worst case
        # (plus scheduling slack).  A tight lower bound would be flaky
        # under full jitter (the draw may legitimately be ~0).
        assert elapsed < 2 * (0.3 + 0.6) + 2.0

    def test_retry_backoff_policy_is_jittered_and_capped(self):
        """The chunk-retry policy is full-jitter with the 30s cap, and the
        jitter stream is a deterministic function of the run key."""
        policy = retry_backoff_policy(0.3)
        assert policy.max_delay == MAX_RETRY_BACKOFF
        assert policy.jitter == "full"
        assert policy.cap(0) == pytest.approx(0.3)
        assert policy.cap(1) == pytest.approx(0.6)
        # The exponential ceiling saturates at MAX_RETRY_BACKOFF.
        assert policy.cap(20) == MAX_RETRY_BACKOFF

        first = BackoffPolicy.rng(0, "parallel-retry", "key")
        second = BackoffPolicy.rng(0, "parallel-retry", "key")
        draws_one = [policy.delay(k, first) for k in range(6)]
        draws_two = [policy.delay(k, second) for k in range(6)]
        assert draws_one == draws_two
        assert any(delay > 0 for delay in draws_one)
        for attempt, delay in enumerate(draws_one):
            assert 0.0 <= delay <= policy.cap(attempt)

        other = BackoffPolicy.rng(0, "parallel-retry", "other-key")
        assert [policy.delay(k, other) for k in range(6)] != draws_one


@needs_fork
class TestCheckpointedExecution:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        journal_path = tmp_path / "sweep.journal"
        plain = run_indexed_trials(lambda i: i * 3, 10, workers=2, chunk_size=3)
        checkpointed = run_indexed_trials(
            lambda i: i * 3, 10, workers=2, chunk_size=3,
            checkpoint_path=str(journal_path), run_key="triples",
        )
        assert checkpointed == plain
        journal = CheckpointJournal.open(
            str(journal_path), run_key="triples", trials=10, chunk_size=3
        )
        assert journal.completed_trials == 10

    def test_resume_skips_journaled_chunks(self, tmp_path):
        """Journaled chunks are replayed, not re-executed: a task that would
        now produce different values still yields the journaled outcomes."""
        journal_path = str(tmp_path / "sweep.journal")
        run_indexed_trials(
            lambda i: ("first", i), 6, workers=2, chunk_size=2,
            checkpoint_path=journal_path, run_key="sweep",
        )
        resumed = run_indexed_trials(
            lambda i: ("second", i), 6, workers=2, chunk_size=2,
            checkpoint_path=journal_path, run_key="sweep",
        )
        assert resumed == [("first", i) for i in range(6)]

    def test_partial_journal_resumes_bit_identically(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        journal = CheckpointJournal.open(
            journal_path, run_key="sweep", trials=6, chunk_size=2
        )
        journal.record_chunk(0, 2, [0, 10])
        resumed = run_indexed_trials(
            lambda i: i * 10, 6, workers=2, chunk_size=2,
            checkpoint_path=journal_path, run_key="sweep",
        )
        assert resumed == [0, 10, 20, 30, 40, 50]

    def test_journal_chunking_wins_over_todays_request(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        run_indexed_trials(
            lambda i: i, 6, workers=2, chunk_size=2,
            checkpoint_path=journal_path, run_key="sweep",
        )
        # Re-run asking for a different chunk size: boundaries must still
        # line up with the journal's original chunking.
        resumed = run_indexed_trials(
            lambda i: i, 6, workers=2, chunk_size=5,
            checkpoint_path=journal_path, run_key="sweep",
        )
        assert resumed == list(range(6))

    def test_mismatched_run_key_rejected(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        run_indexed_trials(
            lambda i: i, 4, workers=2, chunk_size=2,
            checkpoint_path=journal_path, run_key="sweep-a",
        )
        with pytest.raises(CheckpointError, match="run_key"):
            run_indexed_trials(
                lambda i: i, 4, workers=2, chunk_size=2,
                checkpoint_path=journal_path, run_key="sweep-b",
            )

    def test_serial_path_honours_checkpoints_too(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        first = run_indexed_trials(
            lambda i: i * 7, 5, workers=1, chunk_size=2,
            checkpoint_path=journal_path, run_key="serial-sweep",
        )
        resumed = run_indexed_trials(
            lambda i: ("changed", i), 5, workers=1, chunk_size=2,
            checkpoint_path=journal_path, run_key="serial-sweep",
        )
        assert first == [0, 7, 14, 21, 28]
        assert resumed == first

    def test_healthy_chunks_journaled_despite_poison(self, tmp_path):
        """Quarantine + checkpointing compose: when a poison chunk fails the
        run, the healthy chunks' outcomes are already durable, so the fixed
        re-run only executes the formerly-poison chunk."""
        journal_path = str(tmp_path / "sweep.journal")

        def poisoned(index):
            if index == 2:
                raise RuntimeError("poison trial")
            return index

        with pytest.raises(RuntimeError):
            run_indexed_trials(
                poisoned, 5, workers=2, chunk_size=1, retries=0, backoff=0.0,
                checkpoint_path=journal_path, run_key="sweep",
            )
        journal = CheckpointJournal.open(
            journal_path, run_key="sweep", trials=5, chunk_size=1
        )
        assert journal.completed_trials == 4
        assert journal.outcomes_for(2, 3) is None

        recovered = run_indexed_trials(
            lambda i: i, 5, workers=2, chunk_size=1,
            checkpoint_path=journal_path, run_key="sweep",
        )
        assert recovered == [0, 1, 2, 3, 4]
