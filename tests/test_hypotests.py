import math

import numpy as np
import pytest

from paircomp.design import Alternative
from paircomp.distributions import t_quantile
from paircomp.errors import DegenerateDataError
from paircomp.hypotests import (build_diagnostics, hodges_lehmann,
                                paired_t_test, qq_normal, sign_test,
                                wilcoxon_signed_rank)

import oracles

TWO = Alternative.TWO_SIDED
ONE = Alternative.ONE_SIDED


class TestPairedT:
    def test_mean_equals_null(self):
        rep = paired_t_test([1, 2, 3, 4, 5], mu0=3.0, alpha=0.05, alternative=TWO)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.df == 4

    def test_known_statistic_and_p(self):
        rep = paired_t_test([1, 2, 3, 4, 5], mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.statistic == pytest.approx(3 / (math.sqrt(2.5) / math.sqrt(5)))
        assert rep.statistic == pytest.approx(4.2426, abs=1e-4)
        # oracle: two-sided tail mass of the t density by quadrature
        p_oracle = 2 * (1 - oracles.t_cdf_quadrature(rep.statistic, 4))
        assert rep.p_value == pytest.approx(p_oracle, abs=1e-9)
        assert rep.p_value == pytest.approx(0.0132, abs=2e-4)

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(1)
        rep = paired_t_test(rng.normal(0.3, 1, 40), mu0=0.0, alpha=0.05,
                            alternative=TWO)
        assert rep.ci[0] <= rep.estimate <= rep.ci[1]
        assert rep.one_sided_bound is None

    def test_one_sided_less_p_and_bound(self):
        values = [-1.2, -0.7, -0.9, -1.5, -0.4, -1.1]
        rep = paired_t_test(values, mu0=0.0, alpha=0.05, alternative=ONE)
        # negative mean: strong evidence for H1: mean < 0
        assert rep.p_value < 0.01
        assert rep.one_sided_bound is not None
        assert rep.one_sided_bound < 0.0
        # the two-sided interval is still reported
        assert rep.ci[0] < rep.estimate < rep.ci[1]

    def test_one_sided_wrong_direction_large_p(self):
        rep = paired_t_test([1.0, 1.2, 0.8, 1.1], mu0=0.0, alpha=0.05,
                            alternative=ONE)
        assert rep.p_value > 0.95

    def test_published_inference_consistency(self):
        # back-solve the spread from a reported interval, then re-derive p
        mean, df, n = -0.379, 33, 34
        ci = (-0.517, -0.242)
        half = (ci[1] - ci[0]) / 2
        sigma = half * math.sqrt(n) / t_quantile(0.975, df)
        se = sigma / math.sqrt(n)
        t0 = mean / se
        from paircomp.distributions import t_cdf
        p = 2 * t_cdf(t0, df)
        assert t0 == pytest.approx(-5.608, abs=2e-3)
        # published p is 2.90e-6 from unrounded data; three-decimal rounding
        # of the inputs moves the replayed p by a few percent
        assert p == pytest.approx(2.90e-6, rel=0.10)

    def test_published_statistic_reproduces_published_p(self):
        # construct a 34-value sample whose mean is -0.379 and whose spread
        # is chosen so the statistic lands on the published p; the test must
        # then reproduce that p from the statistic alone
        mean, df, n, p_pub = -0.379, 33, 34, 2.90e-6
        t_target = t_quantile(p_pub / 2, df)
        sigma = mean * math.sqrt(n) / t_target
        rng = np.random.default_rng(17)
        z = rng.normal(0, 1, n)
        z = (z - z.mean()) / z.std(ddof=1)
        sample = mean + sigma * z
        rep = paired_t_test(sample, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.statistic == pytest.approx(t_target, rel=1e-9)
        assert rep.df == df
        assert rep.p_value == pytest.approx(p_pub, rel=0.05)

    def test_zero_spread_degenerate(self):
        with pytest.raises(DegenerateDataError):
            paired_t_test([2.0, 2.0, 2.0], mu0=0.0, alpha=0.05, alternative=TWO)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], mu0=0.0, alpha=0.05, alternative=TWO)


class TestWilcoxon:
    def test_symmetric_sample_large_p(self):
        values = [-3, -2, -1, 1, 2, 3, -0.5, 0.5]
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.p_value > 0.5

    def test_all_positive_ranks(self):
        rep = wilcoxon_signed_rank(list(range(1, 11)), mu0=0.0, alpha=0.05,
                                   alternative=TWO)
        assert rep.statistic == 55.0
        assert rep.p_value == pytest.approx(2 / 2**10)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("alternative", [TWO, ONE])
    def test_exact_matches_enumeration(self, seed, alternative):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        values = rng.normal(0.2, 1.0, n)
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05,
                                   alternative=alternative)
        alt = "two_sided" if alternative is TWO else "less"
        w_or, p_or = oracles.wilcoxon_enumeration(values, 0.0, alt)
        assert rep.statistic == w_or
        assert rep.p_value == p_or  # bit-exact: both sides count outcomes

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_and_approximate_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = rng.normal(0.3, 1.0, 15)
        exact = wilcoxon_signed_rank(values, 0.0, 0.05, TWO, exact=True)
        approx = wilcoxon_signed_rank(values, 0.0, 0.05, TWO, exact=False)
        assert abs(exact.p_value - approx.p_value) < 0.02

    def test_ties_use_average_ranks_and_approximation(self):
        values = [1.0, -1.0, 2.0, 2.0, 3.0, -2.0, 4.0, 5.0]
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        # |1|,|−1| share ranks 1.5; |2|,|2|,|−2| share rank 4
        assert rep.statistic == pytest.approx(1.5 + 4 + 4 + 6 + 7 + 8)
        assert 0.0 <= rep.p_value <= 1.0

    def test_zeros_dropped_with_warning(self):
        rep = wilcoxon_signed_rank([0.0, 0.0, 1.0, 2.0, -0.5], mu0=0.0,
                                   alpha=0.05, alternative=TWO)
        assert any("dropped 2" in w for w in rep.warnings)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateDataError):
            wilcoxon_signed_rank([0.0, 0.0], mu0=0.0, alpha=0.05, alternative=TWO)

    def test_estimate_is_pseudo_median(self):
        values = [1.0, 2.0, 3.0, 10.0]
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.estimate == hodges_lehmann(values)

    def test_hodges_lehmann_symmetric_sample(self):
        assert hodges_lehmann([-2.0, -1.0, 0.0, 1.0, 2.0]) == 0.0

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(5)
        values = rng.normal(1.0, 1.0, 20)
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.ci[0] <= rep.estimate <= rep.ci[1]


class TestSignTest:
    def test_perfect_balance(self):
        values = [1, 2, 3, 4, 5, -1, -2, -3, -4, -5]
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.p_value == 1.0
        assert rep.statistic == 5.0

    def test_all_positive_closed_form(self):
        rep = sign_test([1, 2, 3, 4, 5, 6, 7, 8], mu0=0.0, alpha=0.05,
                        alternative=TWO)
        assert rep.p_value == pytest.approx(2 * (0.5 ** 8))
        assert rep.p_value == 0.0078125

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("alternative", [TWO, ONE])
    def test_matches_enumeration_oracle(self, seed, alternative):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.3, 1.0, 12)
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=alternative)
        k = int((values > 0).sum())
        alt = "two_sided" if alternative is TWO else "less"
        assert rep.statistic == float(k)
        assert rep.p_value == oracles.sign_test_enumeration(k, 12, alt)

    def test_ties_dropped_and_reported(self):
        rep = sign_test([0.0, 1.0, -1.0, 2.0, 0.0], mu0=0.0, alpha=0.05,
                        alternative=TWO)
        assert any("dropped 2" in w for w in rep.warnings)
        assert rep.statistic == 2.0

    def test_all_ties_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sign_test([1.0, 1.0, 1.0], mu0=1.0, alpha=0.05, alternative=TWO)

    def test_estimate_is_median(self):
        values = [3.0, 1.0, 2.0, 9.0, 4.0]
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.estimate == np.median(values)

    def test_one_sided_direction(self):
        # mostly negative: strong support for H1: median < 0
        values = [-1, -2, -3, -4, -5, -6, -7, 1]
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=ONE)
        assert rep.p_value == oracles.sign_test_enumeration(1, 8, "less")
        assert rep.p_value < 0.05

    @pytest.mark.parametrize("alternative", [TWO, ONE])
    def test_large_n_matches_big_int_oracle(self, alternative):
        # beyond 1023 values 2^n no longer fits a float
        n = 1100
        values = np.random.default_rng(17).normal(-0.05, 1.0, n)
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=alternative)
        k = int((values > 0).sum())
        alt = "two_sided" if alternative is TWO else "less"
        assert rep.statistic == float(k)
        assert rep.p_value == pytest.approx(oracles.sign_test_enumeration(k, n, alt),
                                            rel=1e-12)
        l = oracles.sign_interval_rank(n, 0.05)
        srt = np.sort(values)
        assert rep.ci == (srt[l - 1], srt[n - l])


class TestQQNormal:
    def test_quantile_spaced_sample_on_identity(self):
        from scipy.special import ndtri
        n = 41
        grid = ndtri((np.arange(1, n + 1) - 0.5) / n)
        points = qq_normal(grid, standardize=False)
        for theo, value in points:
            assert value == pytest.approx(theo, abs=1e-9)

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(5, 3, 57)
        assert len(qq_normal(sample)) == 57

    def test_standardization_removes_location_and_scale(self):
        rng = np.random.default_rng(3)
        base = rng.normal(0, 1, 30)
        a = qq_normal(base)
        b = qq_normal(base * 7.0 + 100.0)
        for (t1, v1), (t2, v2) in zip(a, b):
            assert t1 == t2
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_monte_carlo_envelope(self):
        # envelopes derived from a 2000-replicate Monte Carlo of n=100
        # standard-normal samples: the central 90 order statistics stay
        # within 0.5 of the identity in ~99.8% of samples, while the full
        # max deviation (extremes included) has its 95th percentile at 0.86
        rng = np.random.default_rng(4)
        interior_hits = 0
        full_hits = 0
        for _ in range(1000):
            sample = rng.normal(0, 1, 100)
            devs = [abs(v - t) for t, v in qq_normal(sample)]
            interior_hits += max(devs[5:-5]) < 0.5
            full_hits += max(devs) < 0.87
        assert interior_hits >= 950
        assert full_hits >= 930

    def test_zero_spread_degenerate(self):
        with pytest.raises(DegenerateDataError):
            qq_normal([1.0, 1.0, 1.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            qq_normal([1.0, 2.0])


class TestDiagnosticsBundle:
    def test_bundle_shapes(self):
        rng = np.random.default_rng(6)
        phis = rng.normal(0, 1, 25)
        bundle = build_diagnostics(phis, resamples=500, seed=1)
        assert len(bundle.qq_points) == 25
        assert len(bundle.boot_sdm) == 500
        assert len(bundle.boot_sdm_qq) == 500
        theos = [t for t, _ in bundle.qq_points]
        assert theos == sorted(theos)

    def test_bundle_deterministic(self):
        phis = list(np.random.default_rng(7).normal(0, 1, 10))
        a = build_diagnostics(phis, resamples=300, seed=9)
        b = build_diagnostics(phis, resamples=300, seed=9)
        assert a.boot_sdm == b.boot_sdm

    def test_constant_phis_degrade_gracefully(self):
        bundle = build_diagnostics([2.0, 2.0, 2.0, 2.0], resamples=200, seed=1)
        assert bundle.qq_points == []
        assert bundle.boot_sdm_qq == []
