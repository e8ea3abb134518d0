"""Unit tests for the growth-curve experiment's pure machinery."""

import pytest

from repro import catalog
from repro.analysis.growth import (
    GROWTH_SCHEMA_VERSION,
    decades,
    sparse_round_probe,
    trials_for,
    write_growth_json,
)
from repro.errors import ConfigurationError
from repro.jsonio import dumps


class TestSweepShape:
    def test_decades_are_powers_of_ten(self):
        assert decades(10**6) == [10, 100, 1000, 10**4, 10**5, 10**6]
        assert decades(10) == [10]
        assert decades(99_999) == [10, 100, 1000, 10**4]

    def test_decades_rejects_tiny_max(self):
        with pytest.raises(ConfigurationError, match="max_n"):
            decades(5)

    def test_trials_shrink_with_n(self):
        assert trials_for(10) == 512
        assert trials_for(10**6) == 4
        sizes = decades(10**6)
        counts = [trials_for(n) for n in sizes]
        assert counts == sorted(counts, reverse=True)
        assert all(count >= 4 for count in counts)

    def test_algorithm_order_is_fast_classes_first(self):
        assert catalog.names("growth_class") == (
            "snapshot", "sifting", "doubling-cil",
        )


class TestSafePriorityRange:
    def test_cap_respects_vectorized_packing_guard(self):
        # The cap must satisfy the kernel's `range * mult + n < 2**63`
        # packing bound and stay above n^2 (the duplicate-priority bound).
        from repro.runtime.vectorized import max_priority_range

        for n in (10**5, 10**6):
            mult = 1 << (n - 1).bit_length()
            safe = max_priority_range(n)
            assert safe * mult + n < 2**63
            assert (safe + 2) * mult + n >= 2**63
            assert safe >= n * n

    def test_default_range_needs_no_cap_at_small_n(self):
        from repro.analysis.growth import _ensemble_factory

        _, capped = _ensemble_factory("snapshot", 1000, 0.5)
        assert not capped

    def test_unknown_algorithm_rejected(self):
        from repro.analysis.growth import _ensemble_factory

        with pytest.raises(ConfigurationError, match="growth algorithm"):
            _ensemble_factory("banana", 10, 0.5)


class TestSoloLadder:
    def test_solo_work_grows_with_n_and_respects_bound(self):
        from repro.analysis.growth import _solo_ladder_point

        small = _solo_ladder_point(16, seed=7)
        large = _solo_ladder_point(4096, seed=7)
        assert small["within_envelope"] and large["within_envelope"]
        assert large["observed_mean_steps"] > small["observed_mean_steps"]
        assert small["observed_max_steps"] <= small["predicted_steps"]

    def test_deterministic_given_seed(self):
        from repro.analysis.growth import _solo_ladder_point

        assert _solo_ladder_point(64, seed=3) == _solo_ladder_point(64, seed=3)
        assert (_solo_ladder_point(64, seed=3)
                != _solo_ladder_point(64, seed=4))


class TestSparseRoundProbe:
    def test_deterministic_and_touches_one_register(self):
        probe = sparse_round_probe(50_000, seed=9, slots=10_000)
        again = sparse_round_probe(50_000, seed=9, slots=10_000)
        assert probe == again
        assert probe["registers_allocated"] == 1
        assert probe["writes"] + probe["reads"] == 10_000
        assert probe["snapshot_sparse"] is True
        assert probe["scan_view_touched"] == probe["snapshot_components_touched"]

    def test_small_n_uses_dense_snapshot(self):
        probe = sparse_round_probe(100, seed=9)
        assert probe["snapshot_sparse"] is False
        assert probe["slots"] == 100


class TestSerialization:
    def _report(self, label="x"):
        return {
            "v": GROWTH_SCHEMA_VERSION,
            "label": label,
            "seed": 1,
            "curves": {"snapshot": []},
            "checks": {"ok": True},
        }

    def test_filename_and_directory_write(self, tmp_path):
        report = self._report("quicktest")
        path = write_growth_json(report, tmp_path)
        assert path == tmp_path / "GROWTH_quicktest.json"
        assert path.read_text(encoding="utf-8") == dumps(report)
        assert write_growth_json(report, tmp_path / "g.json").name == "g.json"


class TestNumpyGate:
    def test_experiment_refuses_without_numpy(self, monkeypatch):
        import repro.runtime.vectorized as vectorized
        from repro.analysis.growth import run_growth_experiment

        monkeypatch.setattr(vectorized, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="NumPy"):
            run_growth_experiment(max_n=10)
