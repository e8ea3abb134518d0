"""Unit tests for the sharded trial engine (repro.runtime.parallel)."""

import signal
import time

import pytest

from repro.analysis.experiments import trial_seed_tree
from repro.errors import CheckpointError, ConfigurationError
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.parallel import (
    ParallelConfig,
    available_workers,
    default_chunk_size,
    get_default_parallelism,
    iter_chunks,
    parallelism,
    resolve_workers,
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

    def test_reentrant_call_falls_back_to_serial(self):
        """A task that itself sweeps must not fork a pool inside a worker."""

        def inner(index):
            return index

        def outer(index):
            return sum(run_indexed_trials(inner, 3, workers=4, chunk_size=1))

        assert run_indexed_trials(outer, 4, workers=2, chunk_size=1) == [3] * 4


@needs_fork
class TestRetrySemantics:
    """A chunk is never retried: its trials are pure functions of their
    indices, so a chunk that raised once would raise again."""

    def test_poison_chunk_quarantined_with_context(self):
        """A failing chunk's own exception propagates, annotated with the
        failed ranges, after the healthy chunks have completed."""

        def task(index):
            if index == 2:
                raise RuntimeError("poison trial")
            return index

        with pytest.raises(RuntimeError, match="poison trial") as excinfo:
            run_indexed_trials(task, 4, workers=2, chunk_size=1)
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "1 of 4 trial chunks failed" in notes
        assert "failed trial ranges: [(2, 3)]" in notes

    def test_failing_chunk_runs_exactly_once(self, tmp_path):
        """Every trial executes once, the failing chunk included; every
        other chunk is journaled, and the note names the failed range."""
        runs = tmp_path / "runs"
        runs.mkdir()
        journal_path = str(tmp_path / "sweep.journal")

        def task(index):
            with open(runs / str(index), "a") as marker:
                marker.write("x")
            if index == 3:
                raise ValueError("trial 3 fails deterministically")
            return index

        with pytest.raises(ValueError, match="trial 3") as excinfo:
            run_indexed_trials(
                task, 8, workers=2, chunk_size=2,
                checkpoint_path=journal_path, run_key="once",
            )
        counts = {path.name: len(path.read_text()) for path in runs.iterdir()}
        assert counts == {str(index): 1 for index in range(8)}
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "failed trial ranges: [(2, 4)]" in notes
        journal = CheckpointJournal.open(
            journal_path, run_key="once", trials=8, chunk_size=2
        )
        assert journal.completed_trials == 6
        assert journal.outcomes_for(2, 4) is None

    def test_coordinator_interrupt_stops_the_sweep(self):
        """Ctrl-C in the coordinator terminates the pool and propagates at
        once; it is not taken for a chunk failure."""

        def task(index):
            time.sleep(0.5)
            return index

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            started = time.monotonic()
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_indexed_trials(task, 12, workers=2, chunk_size=1)
            assert time.monotonic() - started < 2.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


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
        """A failed chunk and checkpointing compose: when a poison chunk
        fails the run, the healthy chunks' outcomes are already durable, so
        the fixed re-run only executes the formerly-poison chunk."""
        journal_path = str(tmp_path / "sweep.journal")

        def poisoned(index):
            if index == 2:
                raise RuntimeError("poison trial")
            return index

        with pytest.raises(RuntimeError) as excinfo:
            run_indexed_trials(
                poisoned, 5, workers=2, chunk_size=1,
                checkpoint_path=journal_path, run_key="sweep",
            )
        notes = "".join(getattr(excinfo.value, "__notes__", []))
        assert "failed trial ranges: [(2, 3)]" in notes
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
