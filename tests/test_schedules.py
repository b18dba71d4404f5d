"""Threshold/budget arithmetic against independent evaluations."""

import math

import pytest

from streambandit import (
    BudgetOverflowError,
    EliminationSchedule,
    elimination_level,
    epsilon_schedule,
    pull_budget,
    pull_budget_re,
)
from streambandit.schedules import budget


class TestEpsilonSchedule:
    def test_direct_formula_example(self):
        assert epsilon_schedule(16, 2, 0.2) == [0.8, 0.2, 0.05]

    def test_single_arm_is_flat(self):
        for P in (1, 3, 10):
            assert epsilon_schedule(1, P, 0.2) == [0.05] * (P + 1)

    def test_high_precision_midpoint(self):
        # n^(1/2) * delta2 / 4 evaluated independently via sqrt
        eps = epsilon_schedule(1000, 10, 1e-3)
        oracle = math.sqrt(1000.0) * 1e-3 / 4.0
        assert eps[5] == pytest.approx(oracle, rel=1e-12)
        assert eps[5] == pytest.approx(7.9057e-3, rel=1e-4)

    def test_nonincreasing_and_final_value(self):
        for n, P, d2 in [(200, 8, 0.005), (17, 3, 0.9), (2, 1, 1.0)]:
            eps = epsilon_schedule(n, P, d2)
            assert all(a >= b for a, b in zip(eps, eps[1:]))
            assert eps[-1] == d2 / 4.0
            assert len(eps) == P + 1

    def test_nonpositive_delta2_rejected(self):
        with pytest.raises(ValueError):
            epsilon_schedule(10, 2, 0.0)
        with pytest.raises(ValueError):
            epsilon_schedule(10, 2, -0.1)


class TestPullBudget:
    def test_unit_plug_in(self):
        # delta = 4/e makes the log term exactly one
        assert pull_budget(1.0, 1, 1, 4 / math.e) == 8

    def test_frozen_example(self):
        # 8 * ln(1920) / 0.05^2 = 24192.257..., ceiled
        assert pull_budget(0.05, 16, 2, 0.05) == 24193

    def test_overflow_guard(self):
        with pytest.raises(BudgetOverflowError):
            pull_budget(1e-200, 16, 2, 0.05)

    def test_budgets_nondecreasing_with_level(self):
        sched = EliminationSchedule.build(200, 8, 0.05, 0.01)
        assert all(a <= b for a, b in zip(sched.budgets, sched.budgets[1:]))
        assert all(t >= 1 for t in sched.budgets)

    def test_re_variant_uses_squared_pass_count(self):
        # only the log argument changes: (P+1) -> (P+1)^2
        n, P, delta, eps = 100, 5, 0.05, 0.01
        plain = 8 * math.log(2 * n * (P + 1) / delta) / eps**2
        squared = 8 * math.log(2 * n * (P + 1) ** 2 / delta) / eps**2
        assert pull_budget(eps, n, P, delta) == math.ceil(plain)
        assert pull_budget_re(eps, n, P, delta) == math.ceil(squared)
        assert pull_budget_re(eps, n, P, delta) > pull_budget(eps, n, P, delta)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            pull_budget(0.1, 10, 2, 0.0)
        with pytest.raises(ValueError):
            pull_budget(0.1, 10, 2, -0.5)

    def test_floor_at_one_pull(self):
        # a log term of zero or below still charges one pull (delta > 2n(P+1))
        assert budget(1.0, 1.0) == 1
        assert pull_budget(1.0, 1, 1, 8.0) == 1

    def test_underflowing_epsilon_is_an_overflow(self):
        with pytest.raises(BudgetOverflowError, match="squares below double precision"):
            budget(1e-170, 2.0)


class TestEliminationLevel:
    def sched(self, epsilons, P):
        # hand-built schedule wrapper; budgets unused by elimination_level
        return EliminationSchedule(
            n=16, P=P, delta=0.05, delta2=4 * epsilons[-1],
            epsilons=tuple(epsilons), budgets=tuple([1] * len(epsilons)),
        )

    def test_zero_gap_maps_to_final_level(self):
        s = self.sched([0.8, 0.2, 0.05], 2)
        assert elimination_level(0.0, s) == 2

    def test_direct_comparison(self):
        s = self.sched([0.8, 0.2, 0.05], 2)
        assert elimination_level(0.5, s) == 1  # 0.5 > 0.3, not > 1.2

    def test_boundary_against_scan_oracle(self):
        sched = EliminationSchedule.build(30, 4, 0.05, 0.02)
        gaps = [0.0, 2 * sched.epsilons[-1]] + [1.4 * e for e in sched.epsilons]
        for gap in gaps:
            oracle = next(
                (p for p, e in enumerate(sched.epsilons) if gap > 1.5 * e), sched.P
            )
            assert elimination_level(gap, sched) == oracle

    def test_negative_gap_rejected(self):
        s = self.sched([0.8, 0.2, 0.05], 2)
        with pytest.raises(ValueError):
            elimination_level(-0.1, s)
