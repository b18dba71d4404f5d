"""Divergence utilities against closed forms and exhaustive grids."""

import math

import numpy as np
import pytest

from streambandit import (
    BernoulliMeanPair,
    bound_check_grid,
    check_bernoulli_kl_bounds,
    kl_bernoulli,
    mle_distinguish_success,
    tvd_bernoulli,
    tvd_discrete,
)


class TestKlBernoulli:
    def test_identical_distributions(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0
        assert kl_bernoulli(0.123, 0.123) == 0.0

    def test_closed_form_value(self):
        # 0.75 ln(1.5) + 0.25 ln(0.5)
        assert kl_bernoulli(0.75, 0.5) == pytest.approx(0.1308, abs=1e-4)

    def test_degenerate_p(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2))
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))

    def test_degenerate_q_rejected_unless_equal(self):
        assert kl_bernoulli(1.0, 1.0) == 0.0
        assert kl_bernoulli(0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.0)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 0.0)

    def test_asymmetry_witness(self):
        assert kl_bernoulli(0.75, 0.5) != kl_bernoulli(0.5, 0.75)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p, q = rng.uniform(0.01, 0.99, size=2)
            assert kl_bernoulli(p, q) >= 0.0


class TestTvd:
    def test_identical_vectors(self):
        assert tvd_discrete([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_bernoulli_pair_is_mean_gap(self):
        assert tvd_bernoulli(0.7, 0.4) == pytest.approx(0.3)

    def test_disjoint_support(self):
        assert tvd_discrete([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = rng.uniform(0.0, 1.0, size=2)
            assert tvd_bernoulli(p, q) == tvd_bernoulli(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tvd_discrete([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_non_probability_vector_rejected(self):
        with pytest.raises(ValueError):
            tvd_discrete([0.5, 0.4], [0.5, 0.5])


class TestPinsker:
    def test_holds_on_random_pairs_both_directions(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            p, q = rng.uniform(0.001, 0.999, size=2)
            tv = tvd_bernoulli(p, q)
            assert tv <= math.sqrt(0.5 * kl_bernoulli(p, q)) + 1e-12
            assert tv <= math.sqrt(0.5 * kl_bernoulli(q, p)) + 1e-12


class TestMleSuccess:
    def test_formula_matches_enumeration_at_even_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            p, q = rng.uniform(0.0, 1.0, size=2)
            enum = mle_distinguish_success(p, q)
            formula = 0.5 + 0.5 * tvd_bernoulli(p, q)
            assert abs(enum - formula) <= 1e-12

    def test_uneven_prior_weighted_l1_identity(self):
        # sum_s max(rho mu(s), (1-rho) nu(s)) = 1/2 + 1/2 sum_s |rho mu(s) - (1-rho) nu(s)|
        for rho in (0.1, 0.3, 0.8):
            p, q = 0.9, 0.4
            enum = mle_distinguish_success(p, q, rho=rho)
            weighted = abs(rho * p - (1 - rho) * q) + abs(rho * (1 - p) - (1 - rho) * (1 - q))
            assert abs(enum - (0.5 + 0.5 * weighted)) <= 1e-12


class TestBoundReports:
    def test_equal_means_trivial(self):
        rep = check_bernoulli_kl_bounds(BernoulliMeanPair(0.1, 0.1))
        assert rep.kl12 == rep.kl21 == 0.0
        assert rep.passes

    def test_extreme_cell(self):
        rep = check_bernoulli_kl_bounds(BernoulliMeanPair(0.0, 1 / 6))
        assert rep.bound8 == pytest.approx(8 * (1 / 6) ** 2)
        assert rep.kl12 <= rep.bound8
        assert rep.kl21 <= rep.bound8
        assert rep.passes

    def test_full_grid_passes(self):
        reports = bound_check_grid(step=0.01)
        assert len(reports) == 18 * 18
        assert all(r.passes for r in reports)

    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan"), float("inf")])
    def test_grid_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            bound_check_grid(step=step)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            BernoulliMeanPair(0.3, 0.1)
