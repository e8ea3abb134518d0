"""Unit tests for the deterministic open-loop load generator."""

import pytest

from repro.errors import ConfigurationError
from repro.service.loadgen import (
    PROFILES,
    ArrivalProfile,
    _draw_arrivals,
    run_loadtest,
)


class TestProfileValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0},
        {"burst_rate": -1.0},
        {"burst_every": 0.0},
        {"burst_every": 1.0, "burst_duration": 1.0},  # burst fills period
        {"stall_fraction": 1.5},
        {"drop_fraction": -0.1},
    ])
    def test_bad_profiles_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ArrivalProfile(name="bad", **kwargs)

    def test_stock_profiles_cover_the_issue_traffic_shapes(self):
        assert set(PROFILES) == {"steady", "burst", "slow-clients", "drops"}
        assert PROFILES["burst"].burst_rate > PROFILES["burst"].rate
        assert PROFILES["slow-clients"].stall_fraction > 0
        assert PROFILES["drops"].drop_fraction > 0


class TestRateAt:
    def test_no_burst_rate_means_a_flat_profile(self):
        profile = ArrivalProfile(name="flat", rate=100.0)
        assert profile.rate_at(0.0) == 100.0
        assert profile.rate_at(123.4) == 100.0

    def test_bursts_occupy_the_start_of_each_period(self):
        profile = ArrivalProfile(
            name="spiky", rate=100.0, burst_rate=1000.0,
            burst_every=4.0, burst_duration=1.0,
        )
        assert profile.rate_at(0.5) == 1000.0
        assert profile.rate_at(1.0) == 100.0
        assert profile.rate_at(3.9) == 100.0
        assert profile.rate_at(4.5) == 1000.0  # next period's burst


class TestArrivalTable:
    def draw(self, profile_name, sessions=50, seed=7):
        return _draw_arrivals(
            PROFILES[profile_name], sessions, seed,
            algorithm="sifting", n=4, schedule_family="round-robin",
            deadline=5.0,
        )

    def test_arrivals_are_pre_drawn_and_deterministic(self):
        assert self.draw("burst") == self.draw("burst")

    def test_different_seeds_draw_different_traffic(self):
        assert self.draw("steady", seed=1) != self.draw("steady", seed=2)

    def test_different_profiles_draw_different_traffic(self):
        steady = [a.at for a in self.draw("steady")]
        burst = [a.at for a in self.draw("burst")]
        assert steady != burst

    def test_arrival_times_increase_and_ids_are_sequential(self):
        arrivals = self.draw("steady")
        times = [arrival.at for arrival in arrivals]
        assert times == sorted(times)
        assert [a.request.session_id for a in arrivals] == list(range(50))

    def test_client_behaviors_follow_the_profile(self):
        plain = self.draw("steady", sessions=200)
        assert all(a.stall == 0.0 and a.drop_after is None for a in plain)
        stalled = self.draw("slow-clients", sessions=200)
        assert any(a.stall > 0 for a in stalled)
        dropping = self.draw("drops", sessions=200)
        assert any(a.drop_after is not None for a in dropping)

    def test_unknown_algorithm_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            _draw_arrivals(
                PROFILES["steady"], 1, 0,
                algorithm="no-such", n=4,
                schedule_family="round-robin", deadline=5.0,
            )

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="unknown schedule family 'nope'"):
            _draw_arrivals(
                PROFILES["steady"], 1, 0,
                algorithm="sifting", n=4,
                schedule_family="nope", deadline=5.0,
            )


class TestRunLoadtest:
    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            run_loadtest(profile="no-such", sessions=1)

    def test_zero_sessions_is_rejected(self):
        with pytest.raises(ConfigurationError, match="sessions"):
            run_loadtest(sessions=0)

    def test_unknown_family_is_rejected_before_any_session_runs(self):
        with pytest.raises(ConfigurationError, match="unknown schedule"):
            run_loadtest(profile="steady", sessions=20, seed=1,
                         schedule_family="nope")

    def test_non_finite_deadline_is_rejected(self):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            run_loadtest(profile="steady", sessions=20, seed=1,
                         deadline=float("nan"))

    def test_each_broken_session_counts_once(self, monkeypatch):
        import repro.service.service as service_module

        real = service_module.execute_session

        def flaky(request, **kwargs):
            if request.session_id % 4 == 0:
                raise RuntimeError("worker bug")
            return real(request, **kwargs)

        monkeypatch.setattr(service_module, "execute_session", flaky)
        result = run_loadtest(profile="steady", sessions=20, seed=1)
        assert result.unexpected_errors == 5
        assert len(result.responses) == 15
        assert sorted(r.session_id % 4 for r in result.responses) == (
            sorted([1, 2, 3] * 5))

    def test_small_steady_run_serves_every_session(self):
        result = run_loadtest(
            profile="steady", sessions=40, seed=3,
            algorithm="sifting", n=4, schedule_family="round-robin",
        )
        assert result.unexpected_errors == 0
        assert len(result.responses) == 40
        assert all(r.ok for r in result.responses)
        assert result.duration > 0
        assert result.metrics.counter_value("service.admitted") == 40
