import contextlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paircomp import estimators
from paircomp.errors import AssumptionViolationError
from paircomp.estimators import (DiffKind, InstanceSample, _FirstSide,
                                 _first_side, _word_indices, _word_means,
                                 bootstrap_sdm, bootstrap_se,
                                 optimal_ratio_percent, optimal_ratio_simple,
                                 phi_percent, phi_simple, se_percent,
                                 se_simple)
from paircomp.sampler import SamplingConfig, calc_nreps
from paircomp.seeding import (BOOTSTRAP_STREAM, derive_seed, generator_key,
                              philox_words)

import oracles


def stats_stub(mean, sd, n):
    """Frozen statistics standing in for a sample (duck-typed)."""
    return SimpleNamespace(mean=mean, sd=sd, variance=sd * sd, n=n)


def normal_sample(mean, sd, n, seed):
    rng = np.random.default_rng(seed)
    return oracles.instance_sample(rng.normal(mean, sd, n))


class TestInstanceSample:
    def test_running_stats_match_recomputation(self):
        values = [3.0, 1.5, -2.0, 7.25, 0.125, 4.5]
        s = oracles.instance_sample(values)
        assert s.n == len(values)
        assert s.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert s.sd == pytest.approx(np.std(values, ddof=1), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_welford_matches_numpy(self, values):
        s = oracles.instance_sample(values)
        scale = max(1.0, float(np.max(np.abs(values))))
        assert s.mean == pytest.approx(float(np.mean(values)), abs=1e-9 * scale)
        assert s.sd == pytest.approx(float(np.std(values, ddof=1)),
                                     abs=1e-9 * scale, rel=1e-9)

    def test_sd_undefined_below_two(self):
        s = oracles.instance_sample([1.0])
        with pytest.raises(ValueError):
            _ = s.sd

    def test_variance_after_the_mean_overflows(self):
        # 1e308 - (-1e308) overflows the running mean to -inf, and the sum of
        # squares to -inf, which is no rounding error to clamp to 0
        s = oracles.instance_sample([1e308, -1e308])
        assert s.mean == -math.inf
        assert s.variance == math.inf

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
        s1 = oracles.instance_sample([1, 2, 3])
        s2 = oracles.instance_sample([4, 6])
        assert phi_simple(s1, s2) == pytest.approx(3.0)

    def test_simple_empty_rejected(self):
        with pytest.raises(ValueError):
            phi_simple(InstanceSample(), oracles.instance_sample([1.0]))

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

    @pytest.mark.parametrize("se", [se_simple, se_percent], ids=["simple", "percent"])
    def test_a_spread_lost_below_the_float_range_is_refused(self, se):
        # runs near 1e-150 that differ by about 1e-160: the terms of
        # Welford's running sum of squares, near 1e-320, are subnormal, so
        # the SE lost their spread (and below about 1e-162 read 0, and the
        # budget counted as met)
        spread = 1.0 + 1e-10 * np.array([0.0, 1.0, -1.0, 0.5])
        low = oracles.instance_sample(1e-150 * spread)
        high = oracles.instance_sample(2e-150 * spread)
        with pytest.raises(AssumptionViolationError, match="rescale them"):
            se(low, high)
        with pytest.raises(AssumptionViolationError, match="rescale them"):
            se(oracles.instance_sample([2.0, 2.0, 3.0]), high)
        # runs that are all equal keep SE 0 at any scale, and give none of it
        # to the other side
        same = oracles.instance_sample([1e-165] * 4)
        assert se(same, same) == 0.0
        wide = oracles.instance_sample([1.0, 2.0, 4.0])
        assert se(oracles.instance_sample([3.0] * 5), wide) == \
            se(stats_stub(3.0, 0.0, 5), wide) > 0.0

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
        s1, s2 = stats_stub(10, 1, 25), stats_stub(12, 1, 25)
        se = se_percent(s1, s2)
        c1, c2 = oracles.fieller_coefficients(s1, s2)
        assert c1 == pytest.approx(0.26)
        assert c2 == pytest.approx(0.25)
        assert se == pytest.approx(0.2 * math.sqrt(c1 / 25 + c2 / 25), abs=1e-12)
        assert se == pytest.approx(0.2 * math.sqrt(0.26 / 25 + 0.25 / 25), abs=1e-12)
        assert se == pytest.approx(0.02857, abs=1e-5)

    def test_percent_zero_spread(self):
        se = se_percent(stats_stub(10, 0, 5), stats_stub(12, 0, 5))
        assert se == 0.0

    def test_percent_zero_gap_is_the_limit(self):
        # the gap^-2 factors cancel against phi^2: the delta-method SE
        se = se_percent(stats_stub(10, 1, 5), stats_stub(10, 2, 4))
        assert se == math.sqrt(1 / 5 + 4 / 4) / 10

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_percent_small_gaps_approach_the_zero_gap_value(self, gap):
        # the ratio form exceeds the limit by a relative phi^2 / 2 at most,
        # plus rounding
        s1 = stats_stub(10.0, 1.5, 6)
        limit = se_percent(s1, stats_stub(10.0, 1.5, 6))
        assert limit == math.sqrt(2.25 / 6 + 2.25 / 6) / 10.0
        se = se_percent(s1, stats_stub(10.0 + gap, 1.5, 6))
        assert abs(se / limit - 1.0) <= (gap / 10.0) ** 2 / 2 + 4e-16

    def test_percent_nonzero_gap_keeps_the_ratio_form_bits(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            n1, n2 = (int(k) for k in rng.integers(2, 500, 2))
            mean1 = float(10.0 ** rng.uniform(-3, 6))
            gap = mean1 * float(10.0 ** rng.uniform(-13, 1)) * rng.choice([-1, 1])
            s1 = stats_stub(mean1, mean1 * float(rng.uniform(0, 2)), n1)
            s2 = stats_stub(mean1 + gap, abs(gap) * float(rng.uniform(0, 50)), n2)
            if s2.mean == s1.mean:
                continue
            c1, c2 = oracles.fieller_coefficients(s1, s2)
            phi = (s2.mean - s1.mean) / s1.mean
            assert se_percent(s1, s2) == abs(phi) * math.sqrt(c1 / n1 + c2 / n2)

    @pytest.mark.parametrize("mean2", [1.1e-160, 1.0], ids=["gap", "baseline"])
    def test_percent_overflow_is_an_assumption_violation(self, mean2):
        # gap^-2 or mean1^-2 overflows a float below about 1.5e-154
        s1, s2 = stats_stub(1e-160, 1e-161, 5), stats_stub(mean2, 1e-161, 5)
        with pytest.raises(AssumptionViolationError,
                           match="overflows a float.*rescale the values or "
                                 "use se_method: bootstrap"):
            se_percent(s1, s2)

    def test_percent_zero_gap_zero_spread_is_zero(self):
        se = se_percent(stats_stub(10, 0, 5), stats_stub(10, 0, 5))
        assert type(se) is float and se == 0.0

    def test_percent_nonpositive_baseline_rejected(self):
        with pytest.raises(AssumptionViolationError):
            se_percent(stats_stub(0, 1, 5), stats_stub(2, 1, 5))

    def test_percent_close_to_bootstrap(self):
        s1 = normal_sample(10, 1, 25, seed=11)
        s2 = normal_sample(12, 1, 25, seed=12)
        parametric = se_percent(s1, s2)
        boot = bootstrap_se(s1, s2, DiffKind.PERCENT,
                            9999, 5)
        assert abs(boot - parametric) / parametric < 0.15

    def test_covariance_form_agrees_when_independent(self):
        # with independent samples the covariance term is noise around zero
        rng = np.random.default_rng(3)
        x1 = rng.normal(50, 2, 200)
        x2 = rng.normal(60, 3, 200)
        s1 = oracles.instance_sample(x1)
        s2 = oracles.instance_sample(x2)
        no_cov = se_percent(s1, s2)
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


@pytest.mark.parametrize("short", ["first", "second"])
@pytest.mark.parametrize("estimator, k", [
    (phi_simple, 1), (phi_percent, 1), (se_simple, 2), (se_percent, 2),
    (optimal_ratio_simple, 2), (optimal_ratio_percent, 2), (bootstrap_se, 2),
], ids=lambda param: getattr(param, "__name__", None))
def test_a_short_sample_is_refused_naming_the_estimator(estimator, k, short):
    full, few = oracles.instance_sample([1.0, 2.0, 4.0]), oracles.instance_sample([3.0] * (k - 1))
    s1, s2 = (few, full) if short == "first" else (full, few)
    extra = (DiffKind.SIMPLE, 100, 1) if estimator is bootstrap_se else ()
    with pytest.raises(ValueError, match=f"^{estimator.__name__} needs at least {k} "
                                         f"observation\\(s\\), got n={k - 1}$"):
        estimator(s1, s2, *extra)


class TestOptimalRatios:
    def test_simple_equal_spreads(self):
        assert optimal_ratio_simple(stats_stub(0, 1, 5), stats_stub(0, 1, 5)) == 1.0

    def test_simple_two_to_one(self):
        assert optimal_ratio_simple(stats_stub(0, 2, 5), stats_stub(0, 1, 5)) == 2.0

    def test_simple_zero_second_spread_sentinel(self):
        assert optimal_ratio_simple(stats_stub(0, 1, 5), stats_stub(0, 0, 5)) == math.inf

    def test_simple_both_zero_is_one(self):
        assert optimal_ratio_simple(stats_stub(0, 0, 5), stats_stub(0, 0, 5)) == 1.0

    def test_percent_zero_second_spread_sentinels(self):
        assert optimal_ratio_percent(stats_stub(10, 1, 5), stats_stub(12, 0, 5)) == math.inf
        assert optimal_ratio_percent(stats_stub(10, 0, 5), stats_stub(12, 0, 5)) == 1.0

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
        c1, c2 = oracles.fieller_coefficients(s1, s2)
        assert optimal_ratio_percent(s1, s2) == pytest.approx(
            math.sqrt(c1 / c2), rel=1e-12)


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
        c1, c2 = oracles.fieller_coefficients(s1, s2)
        phi = phi_percent(s1, s2)
        a, b = phi**2 * c1, phi**2 * c2
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
        s = oracles.instance_sample([4.0] * 10)
        assert bootstrap_se(s, s, DiffKind.SIMPLE, 200, 1) == 0.0
        assert bootstrap_se(s, s, DiffKind.PERCENT, 200, 1) == 0.0

    # the resampled differences' squared deviations would overflow from
    # about 2**510 and lose bits or vanish below about 2**-510; their
    # spread squares them divided by a power of two, so the SE scales
    @given(x1=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
           x2=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
           seed=st.integers(0, 2 ** 32 - 1), j=st.integers(-600, 600))
    @example(x1=[1.0, 2.0, 3.0], x2=[2.0, 4.0, 5.0], seed=1, j=-540)
    @settings(max_examples=100, deadline=None)
    def test_se_scales_with_the_data(self, x1, x2, seed, j):
        s = math.ldexp(1.0, j)
        for kind, factor in ((DiffKind.SIMPLE, s), (DiffKind.PERCENT, 1.0)):
            ref = bootstrap_se(oracles.instance_sample(x1), oracles.instance_sample(x2),
                               kind, 200, seed)
            got = bootstrap_se(oracles.instance_sample([v * s for v in x1]),
                               oracles.instance_sample([v * s for v in x2]),
                               kind, 200, seed)
            assert got == ref * factor, kind

    def test_deterministic_given_seed(self):
        s1 = normal_sample(0, 1, 30, seed=1)
        s2 = normal_sample(1, 2, 30, seed=2)
        a = bootstrap_se(s1, s2, DiffKind.SIMPLE, 500, 42)
        b = bootstrap_se(s1, s2, DiffKind.SIMPLE, 500, 42)
        assert a == b

    def test_seed_changes_result(self):
        s1 = normal_sample(0, 1, 30, seed=1)
        s2 = normal_sample(1, 2, 30, seed=2)
        a = bootstrap_se(s1, s2, DiffKind.SIMPLE, 500, 1)
        b = bootstrap_se(s1, s2, DiffKind.SIMPLE, 500, 2)
        assert a != b

    def test_agrees_with_parametric_formula(self):
        s1 = normal_sample(0, 1, 50, seed=21)
        s2 = normal_sample(1, 2, 50, seed=22)
        boot = bootstrap_se(s1, s2, DiffKind.SIMPLE,
                            9999, 3)
        assert abs(boot - se_simple(s1, s2)) / se_simple(s1, s2) < 0.10

    def test_percent_rejects_nonpositive_resampled_baselines(self):
        # mean barely positive: many resamples land nonpositive and are redrawn
        s1 = oracles.instance_sample([-1.0, -1.0, 3.5, 0.1, 0.2])
        s2 = oracles.instance_sample([1.0, 1.1, 0.9, 1.2, 1.0])
        assert s1.mean > 0
        se = bootstrap_se(s1, s2, DiffKind.PERCENT,
                          300, 9)
        assert math.isfinite(se) and se > 0

    def test_percent_hopeless_baseline_fails(self):
        s1 = oracles.instance_sample([-1.0] * 6)
        s2 = oracles.instance_sample([1.0, 1.1, 0.9, 1.2, 1.0, 1.1])
        with pytest.raises(AssumptionViolationError):
            bootstrap_se(s1, s2, DiffKind.PERCENT, 200, 4)

    @pytest.mark.parametrize("call", [
        lambda: SamplingConfig(se_max=1.0, resamples=50),
        lambda: bootstrap_se(oracles.instance_sample([1.0, 2.0, 4.0]),
                             oracles.instance_sample([2.0, 3.0, 5.0]),
                             DiffKind.SIMPLE, 1, 5),
        lambda: bootstrap_sdm([1.0, 2.0, 3.0], 0, 5),
    ], ids=["sampling-config", "bootstrap_se", "bootstrap_sdm"])
    def test_too_few_resamples_rejected(self, call):
        with pytest.raises(ValueError, match="at least 100 bootstrap resamples"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: SamplingConfig(se_max=1.0, resamples=100_001),
        # a config that asks for this is refused before any run; the
        # diagnostics would have allocated 32 GiB after the last one
        lambda: SamplingConfig(se_max=1.0, resamples=2 ** 32),
        lambda: bootstrap_se(oracles.instance_sample([1.0, 2.0, 4.0]),
                             oracles.instance_sample([2.0, 3.0, 5.0]),
                             DiffKind.SIMPLE, 100_001, 5),
        lambda: bootstrap_sdm([1.0, 2.0, 3.0], 100_001, 5),
    ], ids=["sampling-config", "sampling-config-2**32", "bootstrap_se", "bootstrap_sdm"])
    def test_too_many_resamples_rejected(self, call):
        with pytest.raises(ValueError, match="at most 100000 bootstrap resamples"):
            call()

    def test_most_resamples_accepted(self):
        assert SamplingConfig(se_max=1.0, resamples=100_000).resamples == 100_000

    @pytest.mark.parametrize("seed", [1.5, -1, True], ids=["float", "negative", "bool"])
    @pytest.mark.parametrize("call", [
        lambda seed: bootstrap_se(oracles.instance_sample([1.0, 2.0, 4.0]),
                                  oracles.instance_sample([2.0, 3.0, 5.0]),
                                  DiffKind.SIMPLE, 100, seed),
        lambda seed: bootstrap_sdm([1.0, 2.0, 3.0], 100, seed),
    ], ids=["bootstrap_se", "bootstrap_sdm"])
    def test_seed_not_a_nonnegative_integer_rejected(self, call, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            call(seed)

    def test_numpy_integer_seed_accepted(self):
        s1 = oracles.instance_sample([1.0, 2.0, 4.0])
        s2 = oracles.instance_sample([2.0, 3.0, 5.0])
        assert bootstrap_se(s1, s2, DiffKind.SIMPLE, 100, np.uint64(5)) == \
            bootstrap_se(s1, s2, DiffKind.SIMPLE, 100, 5)
        assert bootstrap_sdm([1.0, 2.0, 3.0], 100, np.int64(5)).tobytes() == \
            bootstrap_sdm([1.0, 2.0, 3.0], 100, 5).tobytes()


def grow_one_side(seed, steps, base1=None):
    """Sample pairs as the allocation loop makes them: each step adds one run
    to one side.  ``base1`` fixes the first side's initial observations."""
    rng = np.random.default_rng(seed)
    x1 = list(base1) if base1 is not None else list(rng.lognormal(0.0, 0.5, 3))
    x2 = list(rng.lognormal(0.2, 0.5, 3))
    for _ in range(steps):
        side = x1 if rng.random() < 0.5 else x2
        side.append(float(rng.lognormal(0.1, 0.5)))
        yield oracles.instance_sample(x1), oracles.instance_sample(x2)


def word_at(seed, pos):
    """Word ``pos`` of the seed's stream, read without the thread's slot."""
    return philox_words(generator_key(seed), pos, pos + 1)[0]


@contextlib.contextmanager
def first_side_draws(rows=None):
    """Counts the first sides drawn (``_word_means`` calls from word 0):
    a first side the thread's slot returns again is not drawn.  With a
    list ``rows``, also appends the rows of every call on the bytes in
    ``rows[0]``."""
    draws = []
    draw = estimators._word_means

    def counting(seed, x, count, pos):
        draws.append(pos == 0)
        if rows is not None and x.tobytes() == rows[0]:
            rows.append(count)
        return draw(seed, x, count, pos)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_word_means", counting)
        yield draws


def unmemoised(s1, s2, kind, resamples, seed):
    return oracles.bootstrap_se_unmemoised(s1, s2, DiffKind(kind).value,
                                           resamples, seed)


class TestBootstrapMemo:
    """The memoised first side must not change a single returned bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grow_one_side_matches_unmemoised(self, seed):
        boot = 200, 1000 + seed
        repeats, previous = 0, None
        with first_side_draws() as draws:
            for s1, s2 in grow_one_side(seed, 40):
                repeats += s1.observations == previous
                previous = list(s1.observations)
                for kind in (DiffKind.SIMPLE, DiffKind.PERCENT):
                    assert bootstrap_se(s1, s2, kind, *boot) == \
                        unmemoised(s1, s2, kind, *boot)
        # every repeated first side, and the second kind of every step, hit
        assert repeats > 0
        assert sum(draws) <= 40 - repeats

    def test_percent_rejection_loop_matches_unmemoised(self):
        base = [-1.0, -1.0, 3.5, 0.1, 0.2]
        resamples, seed = 300, 9
        m1 = _first_side(seed, resamples, np.asarray(base, dtype=float)).read(resamples)
        assert (m1 <= 0.0).any()  # so the rejection loop runs
        assert not m1.flags.writeable
        for s1, s2 in grow_one_side(4, 30, base1=base):
            expected = unmemoised(s1, s2, "percent", resamples, seed)
            assert bootstrap_se(s1, s2, DiffKind.PERCENT, resamples, seed) == expected
            # a second call hits the memo, which the loop must have left intact
            assert bootstrap_se(s1, s2, DiffKind.PERCENT, resamples, seed) == expected
        assert (m1 <= 0.0).any()

    @pytest.mark.parametrize("kind", list(DiffKind))
    def test_a_run_of_the_first_algorithm_reads_it_to_the_head(self, kind):
        # algorithm 1 gets a run, so the first side is new: a certifying
        # non-final evaluation reads its first k rows and no more, and the
        # final one reads the rest from where they stopped
        rng = np.random.default_rng(33)
        x1, x2 = list(rng.lognormal(0.0, 0.5, 8)), list(rng.lognormal(0.4, 0.9, 8))
        s2 = oracles.instance_sample(x2)
        bootstrap_se(oracles.instance_sample(x1), s2, kind, 999, 10)
        s1 = oracles.instance_sample(x1 + [float(rng.lognormal(0.0, 0.5))])
        full = unmemoised(s1, s2, kind, 999, 10)
        rows = [np.asarray(s1.observations).tobytes()]
        with head_rows(64), first_side_draws(rows):
            got = bootstrap_se(s1, s2, kind, 999, 10, full / 8)
            assert full / 8 < got < full
            assert rows[1:] == [64]
            assert bootstrap_se(s1, s2, kind, 999, 10) == full
        assert rows[1:] == [64, 999 - 64]

    @pytest.mark.parametrize("kind", list(DiffKind))
    def test_the_first_side_outlives_another_seed(self, kind):
        # a resampled distribution at another seed in between, on the same
        # thread, leaves the first side in the slot: the next evaluation
        # reads no first-side row, and gives a fresh thread's result
        rng = np.random.default_rng(34)
        x1, x2 = list(rng.lognormal(0.0, 0.5, 8)), list(rng.lognormal(0.4, 0.9, 8))
        s1 = oracles.instance_sample(x1)
        later = oracles.instance_sample(x2 + [float(rng.lognormal(0.4, 0.9))])

        def evaluations():
            bootstrap_se(s1, oracles.instance_sample(x2), kind, 999, 10)
            bootstrap_sdm(x2, 500, 11)
            rows = [np.asarray(x1).tobytes()]
            with first_side_draws(rows):
                got = bootstrap_se(s1, later, kind, 999, 10)
            return got, rows[1:]

        with ThreadPoolExecutor(max_workers=1) as pool:
            got, rows = pool.submit(evaluations).result(timeout=60)
        with ThreadPoolExecutor(max_workers=1) as pool:
            fresh = pool.submit(bootstrap_se, s1, later, kind, 999, 10).result(timeout=60)
        assert rows == []
        assert np.float64(got).tobytes() == np.float64(fresh).tobytes()
        assert got == unmemoised(s1, later, kind, 999, 10)

    def test_interleaved_seeds_and_threads(self):
        pairs = list(grow_one_side(5, 30))
        jobs = [(s1, s2, kind, 150, seed) for s1, s2 in pairs for seed in (71, 72)
                for kind in (DiffKind.SIMPLE, DiffKind.PERCENT)]
        expected = [unmemoised(*job) for job in jobs]
        assert [bootstrap_se(*job) for job in jobs] == expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda job: bootstrap_se(*job), jobs * 4))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4

    def test_many_first_sides_retain_one_slot(self):
        # 64 distinct first sides at the largest resample count: the
        # thread keeps its slot and the last first side, not all of them
        rng = np.random.default_rng(6)
        s2 = oracles.instance_sample(rng.lognormal(0.0, 0.5, 4))
        firsts = [oracles.instance_sample(rng.lognormal(0.0, 0.5, 3)) for _ in range(64)]
        boot = estimators.MAX_RESAMPLES, 5
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = [bootstrap_se(s1, s2, DiffKind.SIMPLE, *boot) for s1 in firsts]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16e6
        assert got == [unmemoised(s1, s2, "simple", *boot) for s1 in firsts]


class TestBootstrapSDM:
    def test_constant_vector(self):
        out = bootstrap_sdm([2.5] * 8, 250, 1)
        assert len(out) == 250
        assert np.all(out == 2.5)

    def test_output_length(self):
        out = bootstrap_sdm([1.0, 2.0, 5.0], 777, 1)
        assert len(out) == 777

    def test_spread_matches_standard_error_formula(self):
        sample = list(range(1, 21))
        out = bootstrap_sdm(sample, 9999, 123)
        expected = np.std(sample, ddof=1) / math.sqrt(20)
        assert abs(np.std(out, ddof=1) - expected) / expected < 0.15

    def test_mean_close_to_sample_mean(self):
        sample = list(range(1, 21))
        out = bootstrap_sdm(sample, 9999, 5)
        tol = 4 * np.std(sample, ddof=1) / math.sqrt(20 * 9999)
        assert abs(np.mean(out) - np.mean(sample)) < tol

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_sdm([1.0], 200, 1)


class TestChunkedResampling:
    """Drawing the resample indices a block of rows at a time gives the
    draws and the means of one (R, n) draw: ``_word_means`` returns those
    means and the word position that draw leaves the generator at."""

    @staticmethod
    def assert_as_one_draw(x, resamples, seed):
        ref = oracles.reference_generator(seed)
        # start mid-way through a 64-bit output, as an odd R * n leaves it
        ref.integers(0, 2 ** 32, 1)
        want = oracles.resample_means(ref, x, resamples)
        means, pos = _word_means(seed, x, resamples, 1)
        assert means.tobytes() == want.tobytes()
        # the generator's next word is the one at the returned position
        assert word_at(seed, pos) == ref.integers(0, 2 ** 32)

    @pytest.mark.parametrize("n, resamples", [(262, 1000), (256, 1024), (263, 999),
                                              (1100, 999), (4000, 999)],
                             ids=["below", "at", "above-odd", "n-1100", "n-4000"])
    def test_chunk_edges(self, n, resamples):
        # R * n just below, at and just above 2**18, two gather blocks
        # (263 * 999 is odd); N = 1100 is large-n's, and N = 4000 the
        # hypotests memory test's
        x = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        for seed in (1, 2, 3):
            self.assert_as_one_draw(x, resamples, seed)
        assert bootstrap_sdm(x, resamples, 7).tobytes() == \
            oracles.resample_means(oracles.reference_generator(7), x, resamples).tobytes()

    @pytest.mark.parametrize("n, resamples", [(128, 1023), (128, 1024), (129, 1017)],
                             ids=["below", "at", "above-odd"])
    def test_gather_chunk_edges(self, n, resamples):
        # the same about the word stream's gather chunk; 129 * 1017 is odd
        assert (n * resamples > estimators._GATHER_CHUNK) == (n == 129)
        x = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        for seed in (1, 2, 3):
            self.assert_as_one_draw(x, resamples, seed)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 301])
    def test_any_chunk(self, monkeypatch, chunk):
        # chunks of one row up to several rows, with n above the chunk too
        monkeypatch.setattr(estimators, "_GATHER_CHUNK", chunk)
        for n, resamples in [(2, 101), (3, 100), (7, 999), (40, 1000), (1101, 100)]:
            x = np.random.default_rng(n).normal(0.0, 1.0, n)
            self.assert_as_one_draw(x, resamples, n + chunk)


# bounds with no rejection (powers of two), rare rejection, a quarter
# rejected (3 * 2**30), about half (2**31 + 1), and 2**32, numpy's path
# without a rejection test
BOUNDS = [2, 3, 7, 80, 3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]


def reference_after(seed, start):
    """numpy's generator for ``seed`` after ``start`` 32-bit words."""
    ref = oracles.reference_generator(seed)
    ref.integers(0, 2 ** 32, start)
    return ref


def word_indices(seed, pos, n, count):
    """``_word_indices`` into a new buffer of ``count`` entries."""
    return _word_indices(seed, pos, n, count, np.empty(count, np.uint64))


def scan_end(seed, pos, n, rows, size=None):
    """``_FirstSide.end()`` of a first side of ``rows`` resamples of n runs,
    none read, from word ``pos``: the scan alone, reading at most ``size``
    words at a time when given."""
    first = _FirstSide(seed, rows, np.zeros(n), b"")
    first.pos = pos
    slot = estimators._slot
    kept = slot.indices
    if size is not None:
        slot.indices = np.empty(size, np.uint32)
    try:
        return first.end()
    finally:
        slot.indices = kept


class TestWordIndices:
    """The word stream's indices are ``Generator.integers(0, n, count)``'s,
    and the position after them is where that generator stands."""

    @pytest.mark.parametrize("n", BOUNDS)
    @pytest.mark.parametrize("start", [0, 1, 6, 65535])
    def test_match_generator_integers(self, n, start):
        for seed in (3, 2 ** 64 - 1):
            ref = reference_after(seed, start)
            indices, pos = word_indices(seed, start, n, 3000)
            assert indices.tolist() == ref.integers(0, n, 3000).tolist()
            assert word_at(seed, pos) == ref.integers(0, 2 ** 32)

    def test_rejections_move_the_position(self):
        # 3 * 2**30 rejects a quarter of the words; 2**32 - 1 almost none
        assert word_indices(5, 0, 3 * 2 ** 30, 4000)[1] > 4900
        assert word_indices(5, 0, 2 ** 32 - 1, 4000)[1] == 4000

    @pytest.mark.parametrize("n", [2, 3, 7, 80])
    def test_the_scan_ends_where_the_indices_do(self, n):
        # the position after the first side's indices, counted without
        # them, with reads of any size; planted zeros reject a thousandth
        # or a third of the words for any n but 2
        for words in (estimators._words, planted_rejections(1000), planted_rejections(3)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimators, "_words", words)
                for seed in (3, 2 ** 64 - 1):
                    for start, rows in [(0, 3000 // n), (6, 1), (65535, 2999 // n)]:
                        want = word_indices(seed, start, n, rows * n)[1]
                        for size in (rows * n, 7, 1):
                            assert scan_end(seed, start, n, rows, size) == want

    @pytest.mark.parametrize("n1", [2, 3, 7, 80])
    def test_the_first_side_ends_after_its_resamples(self, n1):
        # from any number of rows read, the end is where the R * n1 indices
        # of the whole first side end, and reading the rest stops there
        x1 = np.random.default_rng(n1).lognormal(0.0, 1.0, n1)
        want = word_indices(12, 0, n1, 999 * n1)[1]
        for rows in (1, 32, 998, 999):
            first = _FirstSide(12, 999, x1.copy(), x1.tobytes())
            first.read(rows)
            assert first.end() == want
            assert first.read(999).tobytes() == _word_means(12, x1, 999, 0)[0].tobytes()
            assert first.pos == want

    @pytest.mark.parametrize("kept", [8, 24])
    def test_draws_across_the_kept_edge(self, monkeypatch, kept):
        # the thread keeps `kept` words and generates the rest on every
        # call, from any word of any counter block; a new thread, so its
        # slot is allocated at that size
        monkeypatch.setattr(estimators, "_KEPT_WORDS", kept)
        seed = 11

        def draw():
            stream = reference_after(seed, 0).integers(0, 2 ** 32, 200)
            for start in range(0, 2 * kept + 2):
                for stop in range(start + 1, start + 3 * kept + 2):
                    assert estimators._words(seed, start, stop).tolist() == \
                        stream[start:stop].tolist()
            assert (estimators._slot.filled, estimators._slot.words.size) == (kept, kept)
            for n in BOUNDS:
                for start in (0, kept - 1, kept, kept + 3):
                    ref = reference_after(seed, start)
                    indices, pos = word_indices(seed, start, n, 5 * kept + 1)
                    assert indices.tolist() == ref.integers(0, n, 5 * kept + 1).tolist()
                    assert word_at(seed, pos) == ref.integers(0, 2 ** 32)
            # the first side's scan, with a third of the words rejected
            # too, reading fewer or more words at a time than are kept
            for words in (estimators._words, planted_rejections(3)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(estimators, "_words", words)
                    for n in (2, 3, 80):
                        rows = 5 * kept // n + 1
                        for start in (0, kept - 1, kept, kept + 3):
                            want = word_indices(seed, start, n, rows * n)[1]
                            for size in (kept - 1, rows * n):
                                assert scan_end(seed, start, n, rows, size) == want
            x = np.random.default_rng(2).lognormal(0.0, 1.0, 13)
            means, _ = _word_means(seed, x, 101, 3)
            assert means.tobytes() == oracles.resample_means(
                reference_after(seed, 3), x, 101).tobytes()

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(draw).result(timeout=60)

    @pytest.mark.parametrize("n", [0, 1, 2 ** 32 + 1, 2 ** 40])
    def test_refuses_bounds_outside_32_bits(self, n):
        with pytest.raises(ValueError, match="2 <= n <= 2\\*\\*32"):
            word_indices(1, 0, n, 5)

    def test_words_are_shared_read_only(self):
        for words in (estimators._words(4, 10, 20), philox_words(generator_key(4), 10, 20)):
            assert not words.flags.writeable
            with pytest.raises(ValueError):
                words[0] = 0

    def test_each_thread_keeps_its_own_prefix(self):
        # four threads read 50000-word prefixes of their own seeds in turn,
        # once all of them keep words; each rereads the words it keeps,
        # whatever the others read
        barrier = threading.Barrier(4, timeout=60)

        def read(seed):
            estimators._words(seed, 0, 1)
            barrier.wait()
            first = estimators._words(seed, 0, 50_000)
            barrier.wait()
            again = estimators._words(seed, 0, 50_000)
            barrier.wait()
            return np.shares_memory(first, again), again.tolist() == \
                reference_after(seed, 0).integers(0, 2 ** 32, 50_000).tolist()

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(read, range(20, 24))) == [(True, True)] * 4

    def test_each_thread_keeps_at_most_two_mib(self):
        # four threads each read prefixes of 999 * 2000 words, fifteen
        # times the cap: each keeps 2 MiB of its own seed's words, and each
        # result is the one a single thread gives, with threads switched
        # often, so a slot torn between threads would show
        cfg = SamplingConfig(se_max=1e-12, n0=1000, n_max=2000,
                             se_method="bootstrap", resamples=999)
        barrier = threading.Barrier(4, timeout=60)

        def sample(seed):
            return calc_nreps(lambda seed, key: 1.0 + seed % 977,
                              lambda seed, key: 2.0 + seed % 983,
                              SimpleNamespace(id="i"), cfg, seed=seed)

        def sample_and_measure(seed):
            result = sample(seed)
            slot = estimators._slot
            # the four jobs run on four threads at once
            barrier.wait()
            return result, slot.seed, slot.filled, slot.words.size

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(sample_and_measure, range(8, 12), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for seed, (result, boot_seed, filled, size) in zip(range(8, 12), results):
            assert result.n1 + result.n2 == 2000
            assert boot_seed == derive_seed(seed, BOOTSTRAP_STREAM)
            assert filled == size == 2 ** 19
            assert result == sample(seed)


def planted_rejections(every):
    """``estimators._words`` with each word at a position divisible by
    ``every`` set to 0, a word Lemire's rule rejects for any n not a power
    of two."""
    read = estimators._words

    def words(seed, start, stop):
        planted = read(seed, start, stop).copy()
        planted[-start % every::every] = 0
        planted.flags.writeable = False
        return planted
    return words


class TestBlockBuffers:
    """Each thread reuses one index and one gather buffer for every block
    it draws; no result may be a view of them, and no thread may see
    another's."""

    def test_memoised_first_side_outlives_later_draws(self):
        x1 = np.random.default_rng(3).lognormal(0.0, 1.0, 7)
        first = _first_side(31, 500, x1)
        m1 = first.read(500)
        sdm = bootstrap_sdm(x1, 300, 31)
        kept = m1.tobytes(), sdm.tobytes()
        # other n on the same thread and seed, the last larger than a
        # block, so the buffers are written over and then replaced
        for n in (7, 5, 300, estimators._GATHER_CHUNK + 3):
            _word_means(31, np.random.default_rng(n).normal(0.0, 1.0, n), 3, 0)
        assert (m1.tobytes(), sdm.tobytes()) == kept
        assert not m1.flags.writeable
        with first_side_draws() as draws:
            assert _first_side(31, 500, x1) is first
            again = first.read(500)
        assert draws == []
        assert np.shares_memory(again, m1) and again.tobytes() == m1.tobytes()

    @pytest.mark.parametrize("n, count", [(3, 100_000), (1100, 300), (64, 5000)],
                             ids=["n-3", "n-1100", "no-rejection"])
    def test_planted_rejections_match_one_draw(self, monkeypatch, n, count):
        # a rejected word in every block moves the rest of the draw on;
        # the blocks must still give the indices of one draw, reading
        # each word once, and n = 64 takes the zeros as index 0
        planted, reads = planted_rejections(1000), []

        def read(seed, start, stop):
            reads.append((start, stop))
            return planted(seed, start, stop)

        monkeypatch.setattr(estimators, "_words", read)
        x = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        indices, want_pos = word_indices(13, 5, n, count * n)
        want = x.take(indices).reshape(count, n).mean(axis=1)
        reads.clear()
        means, pos = _word_means(13, x, count, 5)
        assert means.tobytes() == want.tobytes()
        assert pos == want_pos
        assert (pos > count * n + 5) == (n != 64)
        assert count * n > estimators._GATHER_CHUNK  # more than one block
        assert [start for start, _ in reads] == [5] + [stop for _, stop in reads[:-1]]
        assert reads[-1][1] == pos

    # "exact": numpy's squared deviations overflow or are subnormal, while
    # the mean is finite, so the spread is checked against exact arithmetic
    @pytest.mark.parametrize("values, exact", [
        *((np.random.default_rng(seed).normal(0.0, 1.0, size) * scale, exact)
          for seed, size, scale, exact in [(1, 999, 1.0, False), (2, 2, 3.0, False),
                                           (3, 100_000, 1e-3, False),
                                           (4, 3000, 1e300, True), (5, 50, 1e-310, True)]),
        (np.array([5e-324, 0.0]), True), (np.array([2.0, 2.0, 2.0]), False),
        (np.array([1e308, -1e308, 1e308]), True), (np.array([1.7e308, 1.7e308]), False),
        (np.array([np.inf, 1.0]), False), (np.array([np.nan, 1.0]), False),
    ], ids=["random", "two", "large-n", "huge", "subnormal", "tiny", "constant",
            "sum-overflows", "square-overflows", "inf", "nan"])
    def test_spread_is_np_std_to_the_bit(self, values, exact):
        with np.errstate(all="ignore"):
            want_mean, want = np.mean(values), np.std(values, ddof=1)
            mean, got = estimators._mean_spread(values)
        assert type(mean) is float and type(got) is float
        assert np.float64(mean).tobytes() == np.float64(want_mean).tobytes()
        if not exact:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            return
        # the SD about the computed mean in exact arithmetic; the computed
        # SD rounds the deviations and a sum of at most 3000 squares, under
        # a relative 1e-12, and a subnormal result by half a step
        variance = sum((Fraction(v) - Fraction(mean)) ** 2
                       for v in values.tolist()) / (values.size - 1)
        step = Fraction(2) ** -1075
        low = max(Fraction(got) * (1 - Fraction(1, 10 ** 12)) - step, Fraction(0))
        high = Fraction(got) * (1 + Fraction(1, 10 ** 12)) + step
        assert low ** 2 <= variance <= high ** 2

    def test_threads_with_different_n_match_one_thread(self):
        # four threads draw at once, each with its own n and three blocks
        # a call, with threads switched often: a buffer one thread wrote
        # while another read it would change a mean
        barrier = threading.Barrier(4, timeout=60)

        def draw(n, together=False):
            x = np.random.default_rng(n).lognormal(0.0, 1.0, n)
            if together:
                barrier.wait()
            return [(means.tobytes(), end) for means, end in
                    (_word_means(40 + n, x, 3 * estimators._GATHER_CHUNK // n, pos)
                     for pos in range(0, 80, 8))]

        sizes = [3, 40, 263, 1100]
        expected = [draw(n) for n in sizes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda n: draw(n, together=True), sizes, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


def check_se_or_bound(s1, s2, kind, resamples, seed, se_max):
    """The early-exit contract: ``bootstrap_se`` with ``stop_above`` raises
    what the full SE raises, or gives the full SE to the bit, or gives a
    v with se_max < v <= the full SE, which must be finite.  Says
    whether the call stopped early."""
    try:
        full = bootstrap_se(s1, s2, kind, resamples, seed)
    except AssumptionViolationError as exc:
        with pytest.raises(AssumptionViolationError) as early:
            bootstrap_se(s1, s2, kind, resamples, seed, se_max)
        assert str(early.value) == str(exc)
        return False
    got = bootstrap_se(s1, s2, kind, resamples, seed, se_max)
    assert type(got) is float
    if np.float64(got).tobytes() == np.float64(full).tobytes():
        return False
    assert math.isfinite(full)
    assert se_max < got <= full
    return True


@contextlib.contextmanager
def head_rows(k):
    """Every early-exit evaluation reads ``k`` head rows, whatever the
    parametric SE says (None keeps the rule)."""
    with pytest.MonkeyPatch.context() as mp:
        if k is not None:
            mp.setattr(estimators, "_head_rows",
                       lambda s1, s2, kind, R, se_max: min(k, R - 1))
        yield


def at_the_cap(x1, x2):
    x1[0] = (x1.max() + x2.max()) / estimators._PHI_CAP
    return x1, x2


# inputs at the edges of the bound's guards and rounding margins
EDGE_CASES = {
    # phi near 1e12 with a spread of about 1e-3, a few ulps of 1e12
    "huge-offset": (DiffKind.SIMPLE, lambda rng: (
        1e-3 * rng.normal(0.0, 1.0, 8), 1e12 + 1e-3 * rng.normal(0.0, 1.0, 9)), 999),
    # |phi| bounded just inside and just outside 1e150
    "inside-the-cap": (DiffKind.SIMPLE, lambda rng: (
        rng.uniform(-2e149, 2e149, 6), rng.uniform(-2e149, 2e149, 7)), 999),
    "outside-the-cap": (DiffKind.SIMPLE, lambda rng: (
        rng.uniform(-6e149, 6e149, 6), rng.uniform(-6e149, 6e149, 7)), 999),
    # squared deviations overflow: the SE is inf, so nothing may stop early
    "squares-overflow": (DiffKind.SIMPLE, lambda rng: (
        rng.uniform(-1e154, 1e154, 6), rng.uniform(-1e154, 1e154, 7)), 999),
    "percent-near-cap": (DiffKind.PERCENT, lambda rng: (
        rng.uniform(1e-140, 2e-140, 5), rng.uniform(0.0, 1e10, 6)), 999),
    # resampled baseline means at or below 0 are redrawn by the full SE
    "percent-near-zero": (DiffKind.PERCENT, lambda rng: (
        np.array([-1.0, -1.0, 3.5, 0.1, 0.2]), rng.lognormal(2.0, 0.5, 6)), 999),
    "percent-zero-means": (DiffKind.PERCENT, lambda rng: (
        np.array([-1.0, 1.0, 1.5]), rng.lognormal(0.0, 0.5, 4)), 999),
    # a negative run, though every resampled baseline mean is positive:
    # only all R of them could show it, so no head may stop early
    "percent-negative-run": (DiffKind.PERCENT, lambda rng: (
        np.array([-0.5, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]), rng.lognormal(2.0, 0.5, 6)), 999),
    # (max x1 + max x2) / min x1 at the cap, to rounding: the guard's
    # slack refuses it
    "percent-at-the-cap": (DiffKind.PERCENT, lambda rng: at_the_cap(
        rng.uniform(1.5e-140, 2e-140, 5), rng.uniform(0.0, 1e10, 6)), 999),
    "fewest-resamples": (DiffKind.PERCENT, lambda rng: (
        rng.lognormal(0.0, 0.5, 9), rng.lognormal(0.3, 0.8, 7)), 100),
    "most-resamples": (DiffKind.SIMPLE, lambda rng: (
        rng.normal(0.0, 1.0, 5), rng.normal(1.0, 2.0, 6)), 100_000),
}


class TestEarlyExit:
    """A non-final bootstrap SE evaluation may stop at a certified lower
    bound above se_max, and must otherwise give the full SE to the bit."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(DiffKind)),
           n1=st.integers(2, 12), n2=st.integers(2, 12),
           loc1=st.sampled_from([0.05, 0.5, 3.0]), sd2=st.floats(0.01, 5.0),
           scale=st.sampled_from([1e-9, 1.0, 1e9]),
           resamples=st.sampled_from([100, 999]),
           fraction=st.floats(0.01, 1.2), head=st.none() | st.integers(1, 999))
    @settings(max_examples=300, deadline=None)
    def test_se_or_a_bound_above_se_max(self, seed, kind, n1, n2, loc1, sd2, scale,
                                        resamples, fraction, head):
        rng = np.random.default_rng(seed)
        x1 = scale * rng.normal(loc1, 1.0, n1)
        x1[0] += scale * max(0.0, 1e-3 - x1.mean() / scale) * n1  # a positive mean
        x2 = scale * rng.normal(1.0, sd2, n2)
        s1, s2 = oracles.instance_sample(x1), oracles.instance_sample(x2)
        assert s1.mean > 0.0
        full = bootstrap_se(s1, s2, kind, resamples, seed)
        se_max = fraction * full if full > 0.0 else fraction
        with head_rows(head):
            check_se_or_bound(s1, s2, kind, resamples, seed, se_max)

    @pytest.mark.parametrize("case", EDGE_CASES, ids=list(EDGE_CASES))
    def test_edge_inputs(self, case):
        kind, make, resamples = EDGE_CASES[case]
        x1, x2 = make(np.random.default_rng(len(case)))
        s1, s2 = oracles.instance_sample(x1), oracles.instance_sample(x2)
        full = bootstrap_se(s1, s2, kind, resamples, 17)
        early = 0
        for head in (None, 32, resamples // 2, resamples - 1):
            for fraction in (1e-3, 0.1, 0.5, 0.9):
                with head_rows(head):
                    early += check_se_or_bound(s1, s2, kind, resamples, 17,
                                               fraction * full)
        if case == "percent-negative-run":
            assert (oracles.resample_means(oracles.reference_generator(17), x1,
                                           resamples) > 0.0).all()
        if case in ("outside-the-cap", "squares-overflow", "percent-near-zero",
                    "percent-zero-means", "percent-negative-run", "percent-at-the-cap"):
            assert early == 0  # a guard holds every evaluation to the full SE
        elif case != "huge-offset":
            assert early > 0

    @pytest.mark.parametrize("kind", list(DiffKind))
    def test_se_max_within_a_few_ulps_of_the_se(self, kind):
        rng = np.random.default_rng(29)
        s1 = oracles.instance_sample(rng.lognormal(0.0, 0.5, 9))
        s2 = oracles.instance_sample(rng.lognormal(0.4, 0.9, 8))
        full = bootstrap_se(s1, s2, kind, 999, 5)
        for head in (None, 32, 499, 998):
            for ulps in range(-4, 5):
                se_max = float(np.float64(full) + ulps * np.spacing(full))
                with head_rows(head):
                    assert bootstrap_se(s1, s2, kind, 999, 5, se_max) == full
        with head_rows(998):
            # a bound from all but one row certifies well below the SE
            assert check_se_or_bound(s1, s2, kind, 999, 5, 0.99 * full)

    def test_the_rule_stops_early_where_the_se_is_far_over_budget(self):
        rng = np.random.default_rng(30)
        s1 = oracles.instance_sample(rng.lognormal(0.0, 0.5, 20))
        s2 = oracles.instance_sample(rng.lognormal(0.4, 0.9, 20))
        full = bootstrap_se(s1, s2, DiffKind.PERCENT, 999, 6)
        assert check_se_or_bound(s1, s2, DiffKind.PERCENT, 999, 6, full / 4)
        # at or below the SE no bound can certify, so the call runs to R rows
        assert bootstrap_se(s1, s2, DiffKind.PERCENT, 999, 6, full) == full

    @pytest.mark.parametrize("kind, cold", [(kind, cold) for cold in (False, True)
                                            for kind in DiffKind],
                             ids=["simple", "percent", "simple-cold", "percent-cold"])
    def test_a_fallback_reads_each_word_once(self, monkeypatch, kind, cold):
        # a head that cannot certify is followed by the rest of the rows
        # from where it stopped: the same words as the full SE, each once;
        # a cold first side is read to the head, its other words scanned
        # for its end, then read as rows
        rng = np.random.default_rng(31)
        s1 = oracles.instance_sample(rng.lognormal(0.0, 0.5, 7))
        s2 = oracles.instance_sample(rng.lognormal(0.4, 0.9, 6))
        reads, words = [], estimators._words

        def read(seed, start, stop):
            reads.append((start, stop))
            return words(seed, start, stop)

        full = bootstrap_se(s1, s2, kind, 999, 8)  # the first side is memoised
        monkeypatch.setattr(estimators, "_words", read)
        assert bootstrap_se(s1, s2, kind, 999, 8) == full
        full_reads, reads[:] = list(reads), []
        if cold:
            monkeypatch.setattr(estimators._slot, "first", None)
        with head_rows(499):
            assert bootstrap_se(s1, s2, kind, 999, 8, 0.99 * full) == full
        assert reads[-1][1] == full_reads[-1][1]
        end = full_reads[0][0]  # where the second side starts
        second = [read for read in reads if read[0] >= end]
        assert len(second) > len(full_reads)  # the head and the rest
        assert [start for start, _ in second] == [end] + [stop for _, stop in second[:-1]]
        first = [read for read in reads if read[0] < end]
        assert len(first) == (3 if cold else 0)  # the head, the scan, the rest
        times = np.zeros(end, int)
        for start, stop in first:
            times[start:stop] += 1
        assert not cold or times.min() >= 1 and times.max() == 2

    def test_an_overflowing_parametric_guess_changes_nothing(self):
        # a mean gap near 1e-157: the parametric percent SE overflows and
        # refuses, which the bootstrap must not
        rng = np.random.default_rng(32)
        s1 = oracles.instance_sample(1e-150 + 1e-156 * rng.normal(0.0, 1.0, 8))
        s2 = oracles.instance_sample(1e-150 + 1e-156 * rng.normal(0.0, 1.0, 8))
        with pytest.raises(AssumptionViolationError, match="se_method: bootstrap"):
            se_percent(s1, s2)
        full = bootstrap_se(s1, s2, DiffKind.PERCENT, 999, 9)
        assert bootstrap_se(s1, s2, DiffKind.PERCENT, 999, 9, full / 10) == full
