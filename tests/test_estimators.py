import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp.errors import AssumptionViolationError, DegenerateRatioError
from paircomp.estimators import (BootstrapConfig, DiffKind, InstanceSample,
                                 bootstrap_sdm, bootstrap_se,
                                 optimal_ratio_percent, optimal_ratio_simple,
                                 phi_percent, phi_simple, se_percent,
                                 se_simple)

import oracles


def stats_stub(mean, sd, n):
    """Frozen statistics standing in for a sample (duck-typed)."""
    return SimpleNamespace(mean=mean, sd=sd, variance=sd * sd, n=n)


def normal_sample(mean, sd, n, seed):
    rng = np.random.default_rng(seed)
    return InstanceSample.from_values(rng.normal(mean, sd, n))


class TestInstanceSample:
    def test_running_stats_match_recomputation(self):
        values = [3.0, 1.5, -2.0, 7.25, 0.125, 4.5]
        s = InstanceSample.from_values(values)
        assert s.n == len(values)
        assert s.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert s.sd == pytest.approx(np.std(values, ddof=1), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_welford_matches_numpy(self, values):
        s = InstanceSample.from_values(values)
        scale = max(1.0, float(np.max(np.abs(values))))
        assert s.mean == pytest.approx(float(np.mean(values)), abs=1e-9 * scale)
        assert s.sd == pytest.approx(float(np.std(values, ddof=1)),
                                     abs=1e-9 * scale, rel=1e-9)

    def test_sd_undefined_below_two(self):
        s = InstanceSample.from_values([1.0])
        with pytest.raises(ValueError):
            _ = s.sd

    def test_nonfinite_observation_rejected(self):
        s = InstanceSample()
        with pytest.raises(ValueError):
            s.add(math.nan)


class TestPointEstimates:
    def test_simple_identity(self):
        assert phi_simple(stats_stub(5, 1, 3), stats_stub(5, 1, 3)) == 0.0

    def test_simple_subtraction(self):
        assert phi_simple(stats_stub(10, 1, 3), stats_stub(7, 1, 3)) == -3.0

    def test_simple_from_observations(self):
        s1 = InstanceSample.from_values([1, 2, 3])
        s2 = InstanceSample.from_values([4, 6])
        assert phi_simple(s1, s2) == pytest.approx(3.0)

    def test_simple_empty_rejected(self):
        with pytest.raises(ValueError):
            phi_simple(InstanceSample(), InstanceSample.from_values([1.0]))

    def test_percent_identity(self):
        assert phi_percent(stats_stub(4, 1, 3), stats_stub(4, 1, 3)) == 0.0

    def test_percent_gain(self):
        assert phi_percent(stats_stub(4, 1, 3), stats_stub(5, 1, 3)) == pytest.approx(0.25)

    def test_percent_nonpositive_baseline_rejected(self):
        with pytest.raises(AssumptionViolationError, match="simple differences"):
            phi_percent(stats_stub(-1, 1, 3), stats_stub(5, 1, 3))


class TestStandardErrors:
    def test_simple_formula(self):
        se = se_simple(stats_stub(0, 2, 4), stats_stub(0, 3, 9))
        assert se == pytest.approx(math.sqrt(2.0))

    def test_simple_degenerate_constants(self):
        assert se_simple(stats_stub(0, 0, 5), stats_stub(0, 0, 5)) == 0.0

    def test_simple_equal_spreads(self):
        se = se_simple(stats_stub(0, 1, 100), stats_stub(0, 1, 100))
        assert se == pytest.approx(0.141421, abs=1e-6)

    def test_simple_needs_two_runs(self):
        with pytest.raises(ValueError):
            se_simple(stats_stub(0, 1, 1), stats_stub(0, 1, 5))

    def test_simple_shrinks_with_more_runs(self):
        base = se_simple(stats_stub(0, 2, 10), stats_stub(0, 1, 10))
        assert se_simple(stats_stub(0, 2, 11), stats_stub(0, 1, 10)) < base
        assert se_simple(stats_stub(0, 2, 10), stats_stub(0, 1, 11)) < base

    def test_percent_worked_example(self):
        se, coef = se_percent(stats_stub(10, 1, 25), stats_stub(12, 1, 25))
        assert coef.c1 == pytest.approx(0.26)
        assert coef.c2 == pytest.approx(0.25)
        assert se == pytest.approx(0.2 * math.sqrt(0.26 / 25 + 0.25 / 25), abs=1e-12)
        assert se == pytest.approx(0.02857, abs=1e-5)

    def test_percent_zero_spread(self):
        se, coef = se_percent(stats_stub(10, 0, 5), stats_stub(12, 0, 5))
        assert se == 0.0

    def test_percent_zero_gap_degenerate(self):
        with pytest.raises(DegenerateRatioError):
            se_percent(stats_stub(10, 1, 5), stats_stub(10, 1, 5))

    def test_percent_zero_gap_zero_spread_is_zero(self):
        se, coef = se_percent(stats_stub(10, 0, 5), stats_stub(10, 0, 5))
        assert se == 0.0 and coef.c1 == 0.0 and coef.c2 == 0.0

    def test_percent_nonpositive_baseline_rejected(self):
        with pytest.raises(AssumptionViolationError):
            se_percent(stats_stub(0, 1, 5), stats_stub(2, 1, 5))

    def test_percent_close_to_bootstrap(self):
        s1 = normal_sample(10, 1, 25, seed=11)
        s2 = normal_sample(12, 1, 25, seed=12)
        parametric, _ = se_percent(s1, s2)
        boot = bootstrap_se(s1, s2, DiffKind.PERCENT,
                            BootstrapConfig(resamples=9999, rng_seed=5))
        assert abs(boot - parametric) / parametric < 0.15

    def test_covariance_form_agrees_when_independent(self):
        # with independent samples the covariance term is noise around zero
        rng = np.random.default_rng(3)
        x1 = rng.normal(50, 2, 200)
        x2 = rng.normal(60, 3, 200)
        s1 = InstanceSample.from_values(x1)
        s2 = InstanceSample.from_values(x2)
        no_cov, _ = se_percent(s1, s2)
        with_cov = oracles.se_percent_with_covariance(x1, x2)
        assert with_cov == pytest.approx(no_cov, rel=0.25)

    def test_covariance_form_hand_computed(self):
        x1 = np.array([9.0, 10.0, 11.0])
        x2 = np.array([11.0, 12.0, 13.0])
        n, m1, gap = 3, 10.0, 2.0
        v1 = v2 = 1.0
        cov = float(np.cov(x1, x2 - x1, ddof=1)[0, 1])
        expected = 0.2 * math.sqrt((v1 / n) / m1**2 + (v1 / n + v2 / n) / gap**2
                                   + (2 / n) * cov / (gap * m1))
        assert oracles.se_percent_with_covariance(x1, x2) == pytest.approx(expected, abs=1e-12)

    def test_covariance_form_requires_balance(self):
        with pytest.raises(ValueError):
            oracles.se_percent_with_covariance([1.0, 2.0], [1.0, 2.0, 3.0])


class TestOptimalRatios:
    def test_simple_equal_spreads(self):
        assert optimal_ratio_simple(stats_stub(0, 1, 5), stats_stub(0, 1, 5)) == 1.0

    def test_simple_two_to_one(self):
        assert optimal_ratio_simple(stats_stub(0, 2, 5), stats_stub(0, 1, 5)) == 2.0

    def test_simple_zero_second_spread_sentinel(self):
        assert optimal_ratio_simple(stats_stub(0, 1, 5), stats_stub(0, 0, 5)) == math.inf

    def test_simple_both_zero_is_one(self):
        assert optimal_ratio_simple(stats_stub(0, 0, 5), stats_stub(0, 0, 5)) == 1.0

    def test_percent_no_gap_reduces_to_spread_ratio(self):
        assert optimal_ratio_percent(stats_stub(10, 1, 5), stats_stub(10, 1, 5)) == pytest.approx(1.0)

    def test_percent_worked_example(self):
        r = optimal_ratio_percent(stats_stub(10, 1, 5), stats_stub(12, 1, 5))
        assert r == pytest.approx(math.sqrt(1.04), abs=1e-12)
        assert r == pytest.approx(math.sqrt(0.26 / 0.25), abs=1e-12)

    def test_percent_spec_value(self):
        # spread ratio 1.5, relative gain 0.5
        r = optimal_ratio_percent(stats_stub(10, 3, 5), stats_stub(15, 2, 5))
        assert r == pytest.approx(1.5 * math.sqrt(1.25), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(m1=st.floats(1, 50), gain=st.floats(-0.5, 2.0),
           sd1=st.floats(0.1, 5), sd2=st.floats(0.1, 5))
    def test_percent_ratio_equals_coefficient_ratio(self, m1, gain, sd1, sd2):
        s1 = stats_stub(m1, sd1, 10)
        s2 = stats_stub(m1 * (1 + gain), sd2, 10)
        if s2.mean == s1.mean:
            return
        _, coef = se_percent(s1, s2)
        assert optimal_ratio_percent(s1, s2) == pytest.approx(
            math.sqrt(coef.c1 / coef.c2), rel=1e-12)


class TestAllocationOptimality:
    def walk(self, a, b, ratio, se_max, n_max=4000):
        # allocation rule on frozen statistics: +1 run to the side whose
        # share is below the optimal ratio, until the budget is met
        n1 = n2 = 2
        while math.sqrt(a / n1 + b / n2) > se_max and n1 + n2 < n_max:
            if n1 / n2 < ratio:
                n1 += 1
            else:
                n2 += 1
        return n1, n2

    def test_simple_matches_grid_example(self):
        sd1, sd2, se_max = 3.0, 2.0, 0.5
        g1, g2, gtot = oracles.grid_min_total_runs(sd1**2, sd2**2, se_max)
        # continuous optimum n1 = r*n2 with the constraint active
        r = sd1 / sd2
        n2c = (sd1 * sd2 + sd2**2) / se_max**2
        n1c = r * n2c
        assert math.sqrt(sd1**2 / n1c + sd2**2 / n2c) == pytest.approx(se_max)
        assert abs(round(n1c) - g1) <= 1 and abs(round(n2c) - g2) <= 1
        w1, w2 = self.walk(sd1**2, sd2**2, r, se_max)
        assert w1 + w2 <= gtot + 2

    def test_percent_matches_grid_example(self):
        s1 = stats_stub(10, 3, 2)
        s2 = stats_stub(15, 2, 2)
        se_target, _ = 0.08, None
        _, coef = se_percent(s1, s2)
        phi = phi_percent(s1, s2)
        a, b = phi**2 * coef.c1, phi**2 * coef.c2
        g1, g2, gtot = oracles.grid_min_total_runs(a, b, se_target)
        w1, w2 = self.walk(a, b, optimal_ratio_percent(s1, s2), se_target)
        assert w1 + w2 <= gtot + 2

    def test_continuous_relaxation_never_beaten_by_grid(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            sd1, sd2 = rng.uniform(0.5, 3.0, 2)
            target_total = rng.uniform(30, 250)
            se_max = (sd1 + sd2) / math.sqrt(target_total)
            _, _, gtot = oracles.grid_min_total_runs(sd1**2, sd2**2, se_max)
            continuous = (sd1 + sd2) ** 2 / se_max**2
            assert gtot >= continuous - 1e-9
            assert gtot <= continuous + 2


class TestBootstrap:
    def test_constant_samples_zero_se(self):
        s = InstanceSample.from_values([4.0] * 10)
        cfg = BootstrapConfig(resamples=200, rng_seed=1)
        assert bootstrap_se(s, s, DiffKind.SIMPLE, cfg) == 0.0
        assert bootstrap_se(s, s, DiffKind.PERCENT, cfg) == 0.0

    def test_deterministic_given_seed(self):
        s1 = normal_sample(0, 1, 30, seed=1)
        s2 = normal_sample(1, 2, 30, seed=2)
        cfg = BootstrapConfig(resamples=500, rng_seed=42)
        a = bootstrap_se(s1, s2, DiffKind.SIMPLE, cfg)
        b = bootstrap_se(s1, s2, DiffKind.SIMPLE, cfg)
        assert a == b

    def test_seed_changes_result(self):
        s1 = normal_sample(0, 1, 30, seed=1)
        s2 = normal_sample(1, 2, 30, seed=2)
        a = bootstrap_se(s1, s2, DiffKind.SIMPLE, BootstrapConfig(500, rng_seed=1))
        b = bootstrap_se(s1, s2, DiffKind.SIMPLE, BootstrapConfig(500, rng_seed=2))
        assert a != b

    def test_agrees_with_parametric_formula(self):
        s1 = normal_sample(0, 1, 50, seed=21)
        s2 = normal_sample(1, 2, 50, seed=22)
        boot = bootstrap_se(s1, s2, DiffKind.SIMPLE,
                            BootstrapConfig(resamples=9999, rng_seed=3))
        assert abs(boot - se_simple(s1, s2)) / se_simple(s1, s2) < 0.10

    def test_percent_rejects_nonpositive_resampled_baselines(self):
        # mean barely positive: many resamples land nonpositive and are redrawn
        s1 = InstanceSample.from_values([-1.0, -1.0, 3.5, 0.1, 0.2])
        s2 = InstanceSample.from_values([1.0, 1.1, 0.9, 1.2, 1.0])
        assert s1.mean > 0
        se = bootstrap_se(s1, s2, DiffKind.PERCENT,
                          BootstrapConfig(resamples=300, rng_seed=9))
        assert math.isfinite(se) and se > 0

    def test_percent_hopeless_baseline_fails(self):
        s1 = InstanceSample.from_values([-1.0] * 6)
        s2 = InstanceSample.from_values([1.0, 1.1, 0.9, 1.2, 1.0, 1.1])
        with pytest.raises(AssumptionViolationError):
            bootstrap_se(s1, s2, DiffKind.PERCENT, BootstrapConfig(200, rng_seed=4))

    def test_too_few_resamples_rejected(self):
        with pytest.raises(ValueError):
            BootstrapConfig(resamples=50)


class TestBootstrapSDM:
    def test_constant_vector(self):
        out = bootstrap_sdm([2.5] * 8, BootstrapConfig(resamples=250, rng_seed=1))
        assert len(out) == 250
        assert np.all(out == 2.5)

    def test_output_length(self):
        out = bootstrap_sdm([1.0, 2.0, 5.0], BootstrapConfig(resamples=777, rng_seed=1))
        assert len(out) == 777

    def test_spread_matches_standard_error_formula(self):
        sample = list(range(1, 21))
        out = bootstrap_sdm(sample, BootstrapConfig(resamples=9999, rng_seed=123))
        expected = np.std(sample, ddof=1) / math.sqrt(20)
        assert abs(np.std(out, ddof=1) - expected) / expected < 0.15

    def test_mean_close_to_sample_mean(self):
        sample = list(range(1, 21))
        out = bootstrap_sdm(sample, BootstrapConfig(resamples=9999, rng_seed=5))
        tol = 4 * np.std(sample, ddof=1) / math.sqrt(20 * 9999)
        assert abs(np.mean(out) - np.mean(sample)) < tol

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_sdm([1.0], BootstrapConfig(resamples=200, rng_seed=1))
