"""Tests for the shared exponential-backoff policy (repro.utils.backoff)."""

import pytest

from repro.errors import ConfigurationError
from repro.utils.backoff import BackoffPolicy


class TestValidation:
    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)

    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, factor=0.5)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, max_attempts=0)

    def test_rejects_jitter_out_of_range(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, jitter=1.5)


class TestSchedule:
    def test_exponential_growth_without_jitter(self):
        # Powers of two: the schedule is exact, == is the contract
        # (the transport layer depends on bit-identical timeouts).
        policy = BackoffPolicy(base=1.0, factor=2.0, cap_multiple=64.0)
        assert policy.delay(1) == 1.0  # repro: noqa=REP004 exact powers of two
        assert policy.delay(2) == 2.0  # repro: noqa=REP004 exact powers of two
        assert policy.delay(3) == 4.0  # repro: noqa=REP004 exact powers of two
        assert policy.delay(4) == 8.0  # repro: noqa=REP004 exact powers of two

    def test_cap_bounds_the_delay(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap_multiple=4.0)
        assert policy.delay(10) == 4.0  # repro: noqa=REP004 exact cap

    def test_exhaustion_budget(self):
        policy = BackoffPolicy(base=1.0, max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_schedule_lists_the_waits_between_attempts(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_attempts=4)
        # repro: noqa=REP004 exact powers of two
        assert policy.schedule() == [1.0, 2.0, 4.0]


class TestJitter:
    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = BackoffPolicy(base=1.0, jitter=0.5, seed=7)
        again = BackoffPolicy(base=1.0, jitter=0.5, seed=7)
        assert policy.delay(2, key="a") == again.delay(2, key="a")

    def test_jitter_differs_across_keys(self):
        policy = BackoffPolicy(base=1.0, jitter=0.5, seed=7)
        delays = {policy.delay(1, key=f"task-{n}") for n in range(16)}
        assert len(delays) > 1

    def test_jitter_stays_within_fraction(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, jitter=0.25)
        for attempt in range(1, 8):
            delay = policy.delay(attempt, key="bounded")
            assert 1.0 <= delay <= 1.25

    def test_seed_changes_the_draws(self):
        one = BackoffPolicy(base=1.0, jitter=0.5, seed=1)
        two = BackoffPolicy(base=1.0, jitter=0.5, seed=2)
        draws_one = [one.delay(a, key="k") for a in range(1, 6)]
        draws_two = [two.delay(a, key="k") for a in range(1, 6)]
        assert draws_one != draws_two


class TestSharedUsers:
    def test_transport_uses_policy_for_timeouts(self):
        """ReliableChannel derives its retransmit timeouts from the policy."""
        from repro.faults.transport import ReliableChannel

        channel = ReliableChannel.__new__(ReliableChannel)
        policy = BackoffPolicy(
            base=4, factor=2.0, cap_multiple=8.0, max_attempts=5
        )
        channel._backoff = policy
        assert channel._timeout(1) == 4
        assert channel._timeout(2) == 8
        assert channel._timeout(3) == 16
        assert channel._timeout(4) == 32  # capped at base * cap_multiple
        assert channel._timeout(5) == 32

    def test_service_task_retry_is_shared_shape(self):
        from repro.service.backoff import TASK_RETRY

        assert isinstance(TASK_RETRY, BackoffPolicy)
        assert TASK_RETRY.jitter > 0
