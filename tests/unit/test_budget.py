"""Unit tests for wall-clock deadlines (``repro.runtime.budget``)."""

import math

import pytest

from repro.errors import BudgetExceededError, ConfigurationError
from repro.runtime.budget import Deadline


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestDeadline:
    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf,
                                         0.0, -1.0])
    def test_refuses_budgets_that_are_not_finite_and_positive(self, seconds):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            Deadline(seconds)

    def test_none_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.now += 1e9
        assert not deadline.expired()
        assert deadline.remaining() is None
        deadline.check()

    def test_expires_once_the_budget_is_spent(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        clock.now += 1.5
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.5)
        clock.now += 0.5
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(BudgetExceededError, match="budget of 2s"):
            deadline.check()
