"""Streaming legality, accounting exactness, pass fidelity, determinism."""

import numpy as np
import pytest

from streambandit import (
    END_OF_PASS,
    BanditInstance,
    IllegalAccessError,
    SessionClosedError,
    StreamSession,
)


def make_session(means, seed=0, **kw):
    return StreamSession(BanditInstance(means=tuple(means)), seed, **kw)


def walk_pass(session):
    order = []
    while (arm := session.advance()) is not END_OF_PASS:
        order.append(arm)
    return order


class TestAdvance:
    def test_single_pass_order(self):
        s = make_session([0.1, 0.2, 0.3])
        assert walk_pass(s) == [0, 1, 2]

    def test_order_identical_across_passes(self):
        s = make_session([0.5] * 7)
        first = walk_pass(s)
        for _ in range(3):
            s.begin_pass()
            assert walk_pass(s) == first

    def test_end_of_pass_is_a_value(self):
        s = make_session([0.5])
        assert s.advance() == 0
        assert s.advance() is END_OF_PASS

    def test_advance_after_close_errors(self):
        s = make_session([0.5, 0.6])
        s.advance()
        s.close()
        with pytest.raises(SessionClosedError):
            s.advance()

    def test_passes_used_counts_begun_passes(self):
        s = make_session([0.5, 0.6])
        assert s.passes_used == 1
        walk_pass(s)
        s.begin_pass()
        assert s.passes_used == 2


class TestPull:
    def test_deterministic_rewards_mean_one(self):
        s = make_session([1.0])
        s.advance()
        assert s.pull(0, 50) == 50

    def test_deterministic_rewards_mean_zero(self):
        s = make_session([0.0])
        s.advance()
        assert s.pull(0, 50) == 0

    @pytest.mark.parametrize("sampling", ["binomial", "bernoulli"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fair_coin_concentrates(self, sampling, seed):
        # deviation beyond 0.006 at 1e5 draws has probability ~1.5e-3 per run
        s = make_session([0.5], seed=seed, sampling=sampling)
        s.advance()
        ratio = s.pull(0, 100_000) / 100_000
        assert 0.494 <= ratio <= 0.506

    def test_pull_requires_arriving_or_stored(self):
        s = make_session([0.5, 0.5, 0.5])
        s.advance()  # arm 0 arriving
        with pytest.raises(IllegalAccessError):
            s.pull(2, 1)

    def test_pull_on_stored_arm_after_moving_on(self):
        s = make_session([0.9, 0.1])
        s.advance()
        s.retain(0)
        s.advance()  # arm 1 arriving; arm 0 stored
        assert s.pull(0, 10) >= 0
        assert s.pull(1, 10) >= 0

    def test_count_must_be_positive(self):
        s = make_session([0.5])
        s.advance()
        with pytest.raises(ValueError):
            s.pull(0, 0)

    def test_accounting_matches_event_log(self):
        rng = np.random.default_rng(7)
        s = make_session([0.3, 0.6, 0.9], seed=5)
        log = []
        while (arm := s.advance()) is not END_OF_PASS:
            log.append((arm, int(rng.integers(1, 50))))
            s.pull(*log[-1])
        s.begin_pass()
        while (arm := s.advance()) is not END_OF_PASS:
            s.retain(arm)
            log.append((arm, int(rng.integers(1, 50))))
            s.pull(*log[-1])
            s.evict(arm)
        assert s.pull_count == sum(c for _, c in log)
        for i in range(3):
            assert s.per_arm_pulls[i] == sum(c for a, c in log if a == i)
        assert s.pull_count == sum(s.per_arm_pulls)

    def test_same_seed_same_draws(self):
        def draws(seed):
            s = make_session([0.42, 0.77], seed=seed)
            out = []
            while (arm := s.advance()) is not END_OF_PASS:
                out.append(s.pull(arm, 1000))
            return out

        assert draws(9) == draws(9)
        assert draws(9) != draws(10)

    def test_sampling_modes_agree_in_distribution(self):
        # same substreams, different draw mechanics: compare aggregate means
        totals = {}
        for mode in ("binomial", "bernoulli"):
            s = make_session([0.37], seed=123, sampling=mode)
            s.advance()
            totals[mode] = s.pull(0, 200_000) / 200_000
        assert abs(totals["binomial"] - 0.37) < 0.005
        assert abs(totals["bernoulli"] - 0.37) < 0.005


class TestMemory:
    def test_retain_then_evict_restores_empty(self):
        s = make_session([0.5, 0.5])
        s.advance()
        s.retain(0)
        s.evict(0)
        assert len(s.memory) == 0
        assert s.peak_memory == 1

    def test_two_retained_arms_peak_two(self):
        s = make_session([0.5, 0.5])
        s.advance()
        s.retain(0)
        s.advance()
        s.retain(1)
        assert s.peak_memory == 2

    def test_evict_never_retained_errors(self):
        s = make_session([0.5, 0.5])
        s.advance()
        with pytest.raises(IllegalAccessError):
            s.evict(1)

    def test_retain_only_arriving(self):
        s = make_session([0.5, 0.5])
        s.advance()
        with pytest.raises(IllegalAccessError):
            s.retain(1)

    def test_peak_memory_monotone(self):
        s = make_session([0.5] * 4)
        peaks = []
        while (arm := s.advance()) is not END_OF_PASS:
            s.retain(arm)
            s.evict(arm)
            peaks.append(s.peak_memory)
        assert peaks == sorted(peaks)


class TestStats:
    def test_bounded_peak_is_running_max(self):
        s = make_session([0.5], stats_mode="bounded")
        s.declare_stats(3)
        s.declare_stats(1)
        assert s.stats_words == 1
        assert s.peak_stats_words == 3

    def test_free_mode_reports_unbounded(self):
        s = make_session([0.5])
        s.declare_stats(99)
        assert s.peak_stats_words is None

    def test_negative_words_rejected(self):
        s = make_session([0.5], stats_mode="bounded")
        with pytest.raises(ValueError):
            s.declare_stats(-1)


class TestFuzzIllegalAccess:
    def test_sweep_misuse_always_raises(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            s = make_session([0.5] * n, seed=trial)
            s.advance()
            s.retain(0)
            while s.advance() is not END_OF_PASS:
                pass
            s.begin_pass()
            with pytest.raises(IllegalAccessError):
                s.sweep([1], [1])  # an arm is stored
            s.evict(0)
            arms = sorted(rng.choice(n, size=2, replace=False).tolist(), reverse=True)
            with pytest.raises(IllegalAccessError):
                s.sweep(arms, [1])  # against arrival order
            s.begin_pass()
            with pytest.raises(IllegalAccessError):
                s.sweep([n], [1])  # past the stream end
            s.begin_pass()
            s.close()
            with pytest.raises(SessionClosedError):
                s.sweep([0], [1])


def test_counter_overflow_is_fatal():
    s = make_session([0.5])
    s.advance()
    with pytest.raises(OverflowError):
        s.pull(0, 2**63)


def test_binomial_mode_handles_huge_batches():
    s = make_session([0.25], seed=1)
    s.advance()
    got = s.pull(0, 10**9)
    assert abs(got / 10**9 - 0.25) < 1e-4
    assert s.pull_count == 10**9


def test_bernoulli_reference_chunking_is_exact_for_degenerate_means():
    s = make_session([1.0], seed=1, sampling="bernoulli")
    s.advance()
    count = (1 << 22) + 17  # crosses the chunk boundary
    assert s.pull(0, count) == count
