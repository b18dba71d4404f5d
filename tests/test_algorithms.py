"""Algorithm behavior: trivial instances, resource footprints, survival laws."""

import math

import pytest
from alg1_model import alg1_passes, last_active_budgets

from streambandit import (
    AlgorithmConfig,
    BanditInstance,
    EliminationSchedule,
    StreamSession,
    check_concentration_event,
    default_passes,
    doubling_gap_elimination,
    elimination_level,
    gap_profile,
    gen_arithmetic,
    gen_cluster,
    gen_uniform,
    run_trial,
    stream_elimination,
    stream_elimination_re,
)


def two_arm(hi=1.0, lo=0.0):
    return BanditInstance(means=(hi, lo), known_delta2=hi - lo, delta2_mode="exact")


class TestStreamElimination:
    def test_deterministic_two_arms(self):
        s = StreamSession(two_arm(), seed=0)
        assert stream_elimination(s, P=1, delta=0.05, delta2=1.0) == 0
        assert s.passes_used == 2
        assert s.peak_memory == 1

    def test_single_arm_instance(self):
        inst = BanditInstance(means=(0.4,))
        r = run_trial(inst, AlgorithmConfig("alg1", P=3), seed=0)
        assert r.returned_arm == 0 and r.correct
        assert r.passes_used == 4  # still walks all P + 1 passes
        assert r.peak_arm_memory == 1
        assert r.total_pulls == 0

    def test_exactly_p_plus_one_passes_even_when_decided_early(self):
        # second arm is hopeless and dies in pass 0; the run must not shortcut
        s = StreamSession(two_arm(), seed=1)
        stream_elimination(s, P=4, delta=0.05, delta2=1.0)
        assert s.passes_used == 5

    def test_trace_records_shrinking_active_sets(self):
        inst = gen_uniform(30, 2)
        passes = alg1_passes(inst, P=5, seed=3)
        s = StreamSession(inst, seed=3)
        arm = stream_elimination(s, 5, 0.05, inst.known_delta2)
        assert len(passes) == 6
        for a, b in zip(passes, passes[1:]):
            assert b.active_before == a.active_after
            assert set(b.active_after) <= set(b.active_before)
        assert passes[-1].active_after == (arm,)
        assert s.per_arm_pulls == last_active_budgets(passes, inst.n)
        assert run_trial(inst, AlgorithmConfig("alg1", P=5), seed=3).returned_arm == arm

    def test_tied_arms_cannot_separate(self):
        # identical means with a gap claim far above reality: both survive
        from streambandit import InconclusiveError

        inst = BanditInstance(means=(0.5, 0.5, 0.1))
        s = StreamSession(inst, seed=0)
        with pytest.raises(InconclusiveError):
            stream_elimination(s, P=1, delta=0.05, delta2=0.2)

    def test_inconclusive_reported_not_raised(self, monkeypatch):
        from streambandit import InconclusiveError

        def stuck(session, P, delta, delta2):
            raise InconclusiveError("2 arms survived the final pass")

        monkeypatch.setattr("streambandit.trial.stream_elimination", stuck)
        r = run_trial(two_arm(), AlgorithmConfig("alg1", P=1), seed=0)
        assert r.returned_arm is None
        assert not r.correct
        assert "Inconclusive" in r.failure_reason

    def test_success_rate_uniform(self):
        inst = gen_uniform(60, 17)
        cfg = AlgorithmConfig("alg1", P=default_passes(60))
        wins = sum(run_trial(inst, cfg, seed).correct for seed in range(60))
        assert wins >= 57  # delta = 0.05

    def test_lower_bound_mode_still_succeeds(self):
        base = gen_uniform(60, 21)
        inst = base.with_delta2(base.known_delta2 / 4.0, "lower_bound")
        cfg = AlgorithmConfig("alg1", P=6, delta2_source="lower_bound")
        wins = sum(run_trial(inst, cfg, seed).correct for seed in range(40))
        assert wins >= 38


def run_pulls(inst, P, seed):
    """Per-arm pulls of a bare alg1 session."""
    s = StreamSession(inst, seed)
    stream_elimination(s, P, 0.05, inst.known_delta2)
    return s.per_arm_pulls


class TestSampleLedger:
    def test_topup_identity_and_bounds_under_concentration(self):
        inst = gen_uniform(40, 5)
        P = 5
        sched = EliminationSchedule.build(inst.n, P, 0.05, inst.known_delta2)
        prof = gap_profile(inst)
        checked = 0
        for seed in range(30):
            if not check_concentration_event(inst, sched, seed).holds:
                continue
            checked += 1
            last_active = {}
            for rec in alg1_passes(inst, P, seed):
                for arm in rec.active_before:
                    last_active[arm] = rec.pass_index
            session_pulls = run_pulls(inst, P, seed)
            for arm in range(inst.n):
                # cumulative top-up: pulls equal the budget of the last active pass
                assert session_pulls[arm] == sched.budgets[last_active[arm]]
                # and never exceed the budget at the arm's guaranteed level
                level = elimination_level(prof.gaps[arm], sched)
                assert last_active[arm] <= level
                assert session_pulls[arm] <= sched.budgets[level]
            assert session_pulls[prof.best_index] == sched.budgets[P]
        assert checked >= 20


class TestSurvivalLaws:
    def test_best_survives_and_large_gaps_leave(self):
        inst = gen_uniform(50, 9)
        P = 6
        sched = EliminationSchedule.build(inst.n, P, 0.05, inst.known_delta2)
        prof = gap_profile(inst)
        checked = 0
        for seed in range(30):
            if not check_concentration_event(inst, sched, seed).holds:
                continue
            checked += 1
            passes = alg1_passes(inst, P, seed)
            assert run_pulls(inst, P, seed) == last_active_budgets(passes, inst.n)
            for rec in passes:
                assert prof.best_index in rec.active_before
                assert prof.best_index in rec.active_after
                for arm in rec.active_after:
                    assert prof.gaps[arm] <= 1.5 * rec.epsilon
        assert checked >= 20

    def test_verifier_means_equal_run_estimates(self):
        # the run's own estimates, read off what each pass's sweep returned
        class SweepLog(StreamSession):
            def sweep(self, arms, targets, floors=()):
                got = super().sweep(arms, targets, floors)
                self.log.append((list(arms), got))
                return got

        inst = gen_uniform(25, 13)
        P = 4
        sched = EliminationSchedule.build(inst.n, P, 0.05, inst.known_delta2)
        s = SweepLog(inst, seed=7)
        s.log = []
        stream_elimination(s, P, 0.05, inst.known_delta2)
        report = check_concentration_event(inst, sched, 7)
        passes = alg1_passes(inst, P, seed=7)
        successes = [0] * inst.n
        for rec, (arms, got) in zip(passes, s.log, strict=True):
            assert tuple(arms) == rec.active_before
            for arm, g in zip(arms, got):
                successes[arm] += g
                assert successes[arm] / rec.budget == report.prefix_means[arm, rec.pass_index]
                assert rec.estimates[arm] == report.prefix_means[arm, rec.pass_index]


class TestStreamEliminationRe:
    def test_deterministic_two_arms(self):
        inst = two_arm()
        r = run_trial(inst, AlgorithmConfig("alg2", P=1), seed=0)
        assert r.returned_arm == 0 and r.correct
        assert r.peak_stats_words <= 4
        assert r.peak_arm_memory == 1

    def test_requires_bounded_session(self):
        s = StreamSession(two_arm(), seed=0, stats_mode="free")
        with pytest.raises(ValueError):
            stream_elimination_re(s, 1, 0.05, 1.0)

    def test_stats_and_pass_budgets(self):
        inst = gen_uniform(40, 3)
        P = 6
        for seed in range(10):
            r = run_trial(inst, AlgorithmConfig("alg2", P=P), seed)
            assert r.passes_used <= P + 1
            assert r.peak_stats_words <= P + 3
            assert r.peak_arm_memory == 1

    def test_five_pass_stats_contract(self):
        inst = gen_uniform(30, 4)
        r = run_trial(inst, AlgorithmConfig("alg2", P=5), seed=1)
        assert r.peak_stats_words <= 5 + 3

    def test_success_rate_arithmetic(self):
        inst = gen_arithmetic(40, 0.0, 1.0, 11)
        cfg = AlgorithmConfig("alg2", P=default_passes(40))
        wins = sum(run_trial(inst, cfg, seed).correct for seed in range(40))
        assert wins >= 38

    def test_single_arm_instance(self):
        inst = BanditInstance(means=(0.4,))
        r = run_trial(inst, AlgorithmConfig("alg2", P=3), seed=0)
        assert r.returned_arm == 0 and r.correct and r.passes_used == 1


class TestKeepBest:
    def test_deterministic_two_arms_reversed(self):
        inst = BanditInstance(means=(0.0, 1.0), known_delta2=1.0, delta2_mode="exact")
        r = run_trial(inst, AlgorithmConfig("keepbest"), seed=0)
        assert r.returned_arm == 1 and r.correct
        assert r.passes_used == 1
        assert r.peak_arm_memory == 2

    def test_total_pulls_accounting_identity(self):
        inst = gen_uniform(30, 8)
        t = math.ceil(8 * math.log(2 * 30 / 0.05) / inst.known_delta2**2)
        r = run_trial(inst, AlgorithmConfig("keepbest"), seed=2)
        assert r.total_pulls == 30 * t

    def test_success_rate_uniform(self):
        inst = gen_uniform(60, 19)
        wins = sum(
            run_trial(inst, AlgorithmConfig("keepbest"), seed).correct for seed in range(60)
        )
        assert wins >= 57


class TestDoublingElimination:
    def test_deterministic_two_arms(self):
        s = StreamSession(two_arm(), seed=0)
        assert doubling_gap_elimination(s, delta=0.05) == 0
        assert s.passes_used <= 3
        assert s.peak_memory == 1

    def test_single_arm(self):
        inst = BanditInstance(means=(0.4,))
        r = run_trial(inst, AlgorithmConfig("jhtx", delta2_source="none"), seed=0)
        assert r.returned_arm == 0 and r.passes_used == 1

    def test_pass_count_tracks_gap_scale(self):
        inst = gen_cluster(40, best=0.9, c1=0.88, c2=0.86, seed=5)
        bound = math.ceil(math.log2(4.0 / inst.known_delta2)) + 1
        for seed in range(10):
            r = run_trial(inst, AlgorithmConfig("jhtx", delta2_source="none"), seed)
            if r.correct:
                assert r.passes_used <= bound

    def test_pass_cap_reported(self):
        inst = gen_cluster(20, best=0.9, c1=0.899, c2=0.898, seed=0)
        r = run_trial(inst, AlgorithmConfig("jhtx", delta2_source="none", pass_cap=2), seed=0)
        assert r.returned_arm is None
        assert "PassCap" in r.failure_reason

    def test_counter_overflow_on_tied_means_is_recorded(self):
        # the tied best arms never separate; the top-ups of pass 26 take the
        # session's total pull counter past 64 bits
        inst = BanditInstance(means=(0.5, 0.5, 0.3))
        r = run_trial(inst, AlgorithmConfig("jhtx", delta2_source="none"), seed=0)
        assert r.returned_arm is None
        assert r.passes_used == 26
        assert r.failure_reason.startswith("BudgetOverflowError")


class TestBaselineSuccessInvariant:
    """Failure rate <= delta + binomial slack over 200 trials per family."""

    MIN_WINS = 184  # 0.95 - 1.96 sqrt(0.95*0.05/200), times 200, ceiled

    @pytest.mark.parametrize("algo", ["keepbest", "jhtx"])
    def test_two_hundred_trials_each_family(self, algo):
        instances = [
            gen_uniform(200, 0),
            gen_arithmetic(200, 0.0, 1.0, 1),
            gen_cluster(200, 0.9, 0.88, 0.86, 2),
        ]
        src = "none" if algo == "jhtx" else "exact"
        cfg = AlgorithmConfig(algo, delta=0.05, delta2_source=src)
        for inst in instances:
            wins = sum(run_trial(inst, cfg, seed).correct for seed in range(200))
            assert wins >= self.MIN_WINS, (algo, inst.label, wins)


class TestRunTrial:
    def test_bit_identical_repeats(self):
        inst = gen_uniform(25, 1)
        cfg = AlgorithmConfig("alg1", P=4)
        assert run_trial(inst, cfg, 5) == run_trial(inst, cfg, 5)

    def test_missing_gap_raises(self):
        inst = BanditInstance(means=(0.5, 0.6))
        with pytest.raises(ValueError):
            run_trial(inst, AlgorithmConfig("alg1", P=2), seed=0)

    def test_exact_source_rejects_lower_bound_instance(self):
        inst = BanditInstance(means=(0.9, 0.5), known_delta2=0.1, delta2_mode="lower_bound")
        with pytest.raises(ValueError):
            run_trial(inst, AlgorithmConfig("alg1", P=2, delta2_source="exact"), seed=0)

    def test_lower_bound_source_accepts_exact_instance(self):
        inst = two_arm()
        r = run_trial(inst, AlgorithmConfig("alg1", P=1, delta2_source="lower_bound"), seed=0)
        assert r.correct

    def test_illegal_access_becomes_failed_trial(self, monkeypatch):
        def broken(session, P, delta, delta2):
            session.pull(1, 1)  # arm 1 is neither arriving nor stored

        monkeypatch.setattr("streambandit.trial.stream_elimination", broken)
        r = run_trial(two_arm(), AlgorithmConfig("alg1", P=1), seed=0)
        assert r.returned_arm is None
        assert "IllegalAccess" in r.failure_reason

    def test_budget_overflow_becomes_failed_trial(self):
        inst = BanditInstance(means=(0.9, 0.5), known_delta2=1e-12, delta2_mode="lower_bound")
        cfg = AlgorithmConfig("keepbest", delta2_source="lower_bound")
        r = run_trial(inst, cfg, seed=0)
        assert r.returned_arm is None
        assert "BudgetOverflow" in r.failure_reason

    @pytest.mark.parametrize("algo", ["alg1", "alg2", "keepbest"])
    def test_underflowing_gap_becomes_failed_trial(self, algo):
        # 1e-170 squares to 0.0 in double precision
        inst = BanditInstance(means=(0.5, 0.6), known_delta2=1e-170, delta2_mode="lower_bound")
        r = run_trial(inst, AlgorithmConfig(algo, P=2, delta2_source="lower_bound"), seed=0)
        assert r.returned_arm is None
        assert r.failure_reason.startswith("BudgetOverflowError")

    def test_algorithm_errors_do_not_leak_illegal_state(self):
        # after a failure the session still reports consistent accounting
        inst = gen_cluster(20, best=0.9, c1=0.899, c2=0.898, seed=0)
        r = run_trial(inst, AlgorithmConfig("jhtx", delta2_source="none", pass_cap=1), seed=0)
        assert r.total_pulls > 0
        assert r.passes_used == 1
