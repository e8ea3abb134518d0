"""Unit tests for the retry backoff policy.

The service retries a failed worker attempt under this policy, so its
contract is pinned here: capped exponential ceilings, full-jitter draws
inside ``[0, cap]``, deterministic seeded jitter streams, and loud
validation.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.service.backoff import BackoffPolicy


class TestCaps:
    def test_ceiling_grows_geometrically_until_the_cap(self):
        policy = BackoffPolicy(base=0.25, max_delay=30.0)
        assert policy.cap(0) == pytest.approx(0.25)
        assert policy.cap(1) == pytest.approx(0.5)
        assert policy.cap(4) == pytest.approx(4.0)
        assert policy.cap(7) == 30.0
        assert policy.cap(50) == 30.0

    def test_cap_smaller_than_base_wins_immediately(self):
        policy = BackoffPolicy(base=10.0, max_delay=1.0)
        assert policy.cap(0) == 1.0

    def test_negative_attempt_is_rejected(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy().cap(-1)


class TestJitter:
    def test_full_jitter_draws_inside_the_ceiling(self):
        policy = BackoffPolicy(base=0.5, max_delay=8.0)
        rng = random.Random(7)
        for attempt in range(10):
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= policy.cap(attempt)

    def test_jitter_stream_is_deterministic_per_label(self):
        policy = BackoffPolicy(base=0.5, max_delay=8.0)
        draws = [
            policy.delay(k, BackoffPolicy.rng(3, "ctx", "a"))
            for k in range(4)
        ]
        again = [
            policy.delay(k, BackoffPolicy.rng(3, "ctx", "a"))
            for k in range(4)
        ]
        other = [
            policy.delay(k, BackoffPolicy.rng(3, "ctx", "b"))
            for k in range(4)
        ]
        assert draws == again
        assert draws != other

    def test_zero_base_never_sleeps(self):
        policy = BackoffPolicy(base=0.0)
        rng = random.Random(1)
        assert policy.delay(0, rng) == 0.0
        assert policy.delay(9, rng) == 0.0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base": -0.1},
        {"max_delay": -1.0},
        {"max_delay": float("nan")},
    ])
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(**kwargs)

    def test_policy_is_hashable_and_frozen(self):
        policy = BackoffPolicy()
        assert policy == BackoffPolicy()
        assert hash(policy) == hash(BackoffPolicy())
        with pytest.raises(AttributeError):
            policy.base = 1.0
