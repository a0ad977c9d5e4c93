import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from paircomp.design import Alternative
from paircomp.distributions import t_quantile
from paircomp.errors import DegenerateDataError
from paircomp.hypotests import (_binom_half_cdf, _binom_half_sf,
                                _walsh_interval_ranks, _walsh_stats,
                                build_diagnostics, paired_t_test, qq_normal,
                                sign_test, wilcoxon_signed_rank)

import oracles

TWO = Alternative.TWO_SIDED
ONE = Alternative.ONE_SIDED

# a power of two that brings differences near 1.7e308 down to about 4e127
IN_RANGE = 2.0 ** -600


def outcome(call):
    try:
        return call()
    except DegenerateDataError as exc:
        return exc


def assert_scales(test, values, mu0: float, j: int, alternative=TWO) -> None:
    """``test`` on ``values`` and ``mu0`` times 2**j reports what it reports
    on them as given: the same statistic, p-value, df, counts and refusal,
    and locations 2**j times as large, to the bit.  Where a location that
    large is beyond float range, the scaled call must refuse instead."""
    s = math.ldexp(1.0, j)
    ref = outcome(lambda: test(values, mu0, 0.05, alternative))
    got = outcome(lambda: test([v * s for v in values], mu0 * s, 0.05, alternative))
    if isinstance(ref, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref))
        return
    bound = [] if ref.one_sided_bound is None else [ref.one_sided_bound * s]
    locations = [ref.estimate * s, ref.ci[0] * s, ref.ci[1] * s, *bound]
    if not all(map(math.isfinite, locations)):
        assert isinstance(got, DegenerateDataError)
        assert "overflows a float" in str(got)
        return
    assert isinstance(got, type(ref)), got
    assert (got.statistic, got.p_value, got.df, got.n_instances_used, len(got.warnings)) \
        == (ref.statistic, ref.p_value, ref.df, ref.n_instances_used, len(ref.warnings))
    got_bound = [] if got.one_sided_bound is None else [got.one_sided_bound]
    assert [got.estimate, *got.ci, *got_bound] == locations


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

    @pytest.mark.parametrize("phis", [[1e200, -1e200, 3e200], [1.5e308, 1.5e308, 1e308]],
                             ids=["spread", "mean"])
    def test_overflowing_differences_degenerate(self, phis):
        # the spread's squares and the mean's sum pass the float range, but
        # the test reports what it reports on the data scaled into range;
        # only the "mean" case's interval, about 1.33e308 +- 7.2e307, truly
        # passes it, and is refused (numpy's overflow warning is an error
        # under pytest: none may escape)
        for alternative in (TWO, ONE):
            assert_scales(paired_t_test, [v * IN_RANGE for v in phis], 0.0, 600,
                          alternative)

    @pytest.mark.parametrize("mu0", [-1e308, 1e308])
    def test_statistic_beyond_float_range_refused(self, mu0):
        # near-constant differences far from mu0: t = (mean - mu0) / se is
        # past the float range, and is refused before its p-value
        phis = [1.0, 1.0 + 2.0 ** -52, 1.0]
        with pytest.raises(DegenerateDataError, match="the t statistic or its "
                           "interval overflows a float"):
            paired_t_test(phis, mu0=mu0, alpha=0.05, alternative=TWO)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], mu0=0.0, alpha=0.05, alternative=TWO)


class TestWilcoxon:
    @pytest.mark.parametrize("sample", ["tied", "tie-free", "all-tied"])
    def test_statistic_sums_scipy_average_ranks(self, sample):
        rng = np.random.default_rng(4)
        for n in (2, 3, 7, 26, 150, 1200):
            values = {"tied": rng.integers(-6, 7, n) / 4.0,
                      "tie-free": rng.normal(0.1, 1.0, n),
                      "all-tied": rng.choice([-1.5, 1.5], n)}[sample]
            d = values[values != 0.0]
            ranks = stats.rankdata(np.abs(d))
            rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
            assert rep.statistic == float(ranks[d > 0].sum())

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
        exact = wilcoxon_signed_rank(values, 0.0, 0.05, TWO)
        approx = stats.wilcoxon(values, method="approx", correction=True)
        assert abs(exact.p_value - approx.pvalue) < 0.02

    @pytest.mark.parametrize("alternative, scipy_alternative",
                             [(TWO, "two-sided"), (ONE, "less")])
    def test_normal_approximation_matches_scipy(self, alternative, scipy_alternative):
        # tied samples (values rounded to 0.1, zeros included) beyond the
        # exact range take the tie- and continuity-corrected approximation
        rng = np.random.default_rng(2718)
        for _ in range(150):
            n = int(rng.integers(26, 401))
            values = np.round(rng.normal(0.05, 1.0, n), 1)
            rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05,
                                       alternative=alternative)
            ref = stats.wilcoxon(values, alternative=scipy_alternative,
                                 method="approx", correction=True)
            assert rep.p_value == pytest.approx(ref.pvalue, rel=1e-12), n

    @pytest.mark.parametrize("values, message", [
        ([1.0, 2.0, math.nan], "requires finite values"),
    ], ids=["not-finite"])
    def test_unusable_input_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            wilcoxon_signed_rank(values, 0.0, 0.05, TWO)

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
        assert rep.estimate == oracles.hodges_lehmann(values)

    def test_hodges_lehmann_symmetric_sample(self):
        assert oracles.hodges_lehmann([-2.0, -1.0, 0.0, 1.0, 2.0]) == 0.0

    def test_ci_brackets_estimate(self):
        rng = np.random.default_rng(5)
        values = rng.normal(1.0, 1.0, 20)
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.ci[0] <= rep.estimate <= rep.ci[1]

    @pytest.mark.parametrize("values", [[1.6e308, 1.6e308, 1.0],
                                        [1.7e308, 1.0, 2.0, 3.0]],
                             ids=["estimate", "interval"])
    def test_overflowing_walsh_averages_degenerate(self, values):
        # the pseudo-median, or only the interval's upper end, is
        # (x + x) / 2 with x + x past the float range; both are the exact
        # averages rounded once.  At 3 and 4 values and alpha 0.05 the
        # interval spans every Walsh average
        rep = wilcoxon_signed_rank(values, mu0=0.0, alpha=0.05, alternative=TWO)
        m = len(values) * (len(values) + 1) // 2
        estimate, ci = oracles.walsh_stats_exact(values, (0, m - 1))
        assert (rep.estimate, rep.ci) == (estimate, ci)
        assert_scales(wilcoxon_signed_rank, [v * IN_RANGE for v in values], 0.0, 600)

    def test_overflowing_difference_from_null_degenerate(self):
        # 1e308 - (-1e308) is past the float range, but the ranks, the
        # statistic and the p-value are those of the data scaled into range
        assert_scales(wilcoxon_signed_rank, [v * IN_RANGE for v in (1e308, 1.5e308, 3.0)],
                      -1e308 * IN_RANGE, 600)


def walsh_sample(kind: str, n: int, rng) -> np.ndarray:
    if kind == "random":
        return rng.normal(0.1, 1.0, n)
    if kind == "tied":
        # np.round leaves -0.0 for small negatives; + 0.0 makes it 0.0, since
        # with both zeros among the averages the reference partition may put
        # either at a rank
        return np.round(rng.normal(0.1, 1.0, n), 1) + 0.0
    if kind == "all-tied":
        return np.full(n, 0.7)
    if kind == "two-valued":
        return rng.choice([-1.5, 2.25], n)
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, n) * 1.7e308
    # "huge-tied": ties at magnitudes whose sums overflow, to +inf and -inf
    return rng.choice([-1.7e308, -1.0e308, 1.0, 1.0e308, 1.7e308], n)


class TestWalshSelection:
    """The selected Walsh averages are the floats the materialised
    averages hold at the same ranks, to the last bit."""

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 200, 1101, 4000])
    @pytest.mark.parametrize("kind", ["random", "tied", "all-tied", "two-valued",
                                      "huge", "huge-tied"])
    def test_matches_the_materialised_partition(self, kind, n):
        rng = np.random.default_rng(n)
        m = n * (n + 1) // 2
        for _ in range(3 if n < 4000 else 1):
            values = walsh_sample(kind, n, rng)
            inner = tuple(sorted(int(r) for r in rng.integers(0, m, 2)))
            for ranks in (inner, (0, m - 1)):
                got = _walsh_stats(values, ranks)
                assert repr(got) == repr(oracles.walsh_stats_partition(values, ranks))

    def test_pseudo_median_interval_at_any_rank(self):
        rng = np.random.default_rng(11)
        values = np.round(rng.standard_cauchy(40), 2) + 0.0
        m = 40 * 41 // 2
        for lo in range(0, m, 7):
            ranks = (lo, m - 1 - lo)
            assert repr(_walsh_stats(values, ranks)) == \
                repr(oracles.walsh_stats_partition(values, ranks))


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

    def test_overflowing_median_degenerate(self):
        # an even count averages the two middle values, whose sum overflows;
        # the median is their exact average rounded once
        values = [1.7e308, 1.6e308, 1.0, 1.5e308]
        rep = sign_test(values, mu0=0.0, alpha=0.05, alternative=TWO)
        assert rep.estimate == oracles.median_exact(values)
        assert rep.ci == (1.0, 1.7e308)
        assert_scales(sign_test, [v * IN_RANGE for v in values], 0.0, 600)

    def test_overflowing_difference_from_null_degenerate(self):
        # 1e308 - (-1e308) is past the float range; the signs are not
        assert_scales(sign_test, [v * IN_RANGE for v in (1e308, 1.5e308, 3.0)],
                      -1e308 * IN_RANGE, 600)

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

    def test_binomial_tail_matches_scipy_stats(self):
        # the tails come from private scipy.special ufuncs; they must stay
        # the ones scipy.stats.binom calls, bit for bit, scalar and array
        for n in [*range(1, 401), 1023, 1024, 1025, 1100, 3000]:
            ks = np.arange(n + 1)
            cdf = np.array([_binom_half_cdf(k, n) for k in range(n + 1)], dtype=float)
            sf = np.array([_binom_half_sf(k - 1, n) for k in range(n + 1)], dtype=float)
            assert cdf.tobytes() == stats.binom.cdf(ks, n, 0.5).tobytes(), n
            assert (_binom_half_cdf(ks[:-1], n).tobytes()
                    == stats.binom.cdf(ks[:-1], n, 0.5).tobytes()), n
            assert sf.tobytes() == stats.binom.sf(ks - 1, n, 0.5).tobytes(), n

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
        standardized = (grid - grid.mean()) / grid.std(ddof=1)
        points = qq_normal(grid)
        for (theo, value), q, z in zip(points, grid, standardized):
            assert theo == pytest.approx(q, abs=1e-9)
            assert value == pytest.approx(z, abs=1e-9)

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

    @pytest.mark.parametrize("sample", [[1e200, -1e200, 3e200], [1.5e308, 1.5e308, 1e308]],
                             ids=["spread", "mean"])
    def test_overflowing_sample_degenerate(self, sample):
        # the spread's squares or the mean's sum pass the float range; the
        # standardised points are those of the sample scaled into range
        assert qq_normal(sample) == qq_normal([v * IN_RANGE for v in sample])

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

    @staticmethod
    def assert_bundle_of_scaled(phis):
        bundle = build_diagnostics(phis, resamples=200, seed=1)
        ref = build_diagnostics([v * IN_RANGE for v in phis], resamples=200, seed=1)
        assert bundle.qq_points == ref.qq_points
        assert bundle.boot_sdm == [v / IN_RANGE for v in ref.boot_sdm]
        assert bundle.boot_sdm_qq == ref.boot_sdm_qq
        return bundle

    def test_overflowing_spread_gives_no_points(self):
        # the spread's squares pass the float range; the points are those
        # of the differences scaled into range
        bundle = self.assert_bundle_of_scaled([1e200, -1e200, 3e200, 2e200])
        assert len(bundle.qq_points) == 4
        assert len(bundle.boot_sdm) == len(bundle.boot_sdm_qq) == 200

    def test_overflowing_resampled_mean_degenerate(self):
        # the differences are finite, and a resample holding 1.6e308 twice
        # sums past the float range; its mean does not
        bundle = self.assert_bundle_of_scaled([1.6e308, 1.6e308, 1.0])
        assert 1.6e308 in bundle.boot_sdm
        assert all(1.0 <= v <= 1.6e308 for v in bundle.boot_sdm)

    def test_resampled_means_far_below_the_largest_are_kept(self):
        # every difference is positive, so is every resampled mean; divided
        # by 2**520, as the t-test's sums are, those of resamples without
        # 1e307 would be 0 (81 of 200 here)
        values = [1e307, *(k * 1e-300 for k in range(1, 40))]
        boot = build_diagnostics(values, resamples=200, seed=1).boot_sdm
        assert min(boot) > 0.0 and max(boot) < 1e307


def signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


NEAR_ONE = signed(st.floats(2.0 ** -300, 2.0 ** 300))
NEAR_MAX = signed(st.floats(1e307, 1.7976931348623157e308))


class TestScaling:
    """Every test computes on the differences divided by a power of two,
    and multiplies back only the locations it reports."""

    # up to 2**723 every value stays finite, and from 2**501 on the sums
    # overflow unscaled; down to 2**-600 every difference of two values
    # and every Walsh sum is a normal float, but the t-test's squared
    # deviations are only from 2**-100 on (below about 2**-511 they lose
    # bits or vanish)
    @pytest.mark.parametrize("test, lowest", [(paired_t_test, -100),
                                              (wilcoxon_signed_rank, -600),
                                              (sign_test, -600)],
                             ids=["t_test", "wilcoxon", "sign"])
    @given(values=st.lists(NEAR_ONE, min_size=2, max_size=30),
           null=st.one_of(st.just(0.0), NEAR_ONE, st.integers(0, 29)),
           alternative=st.sampled_from([TWO, ONE]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_numbers_scale_with_the_data(self, test, lowest, values, null,
                                         alternative, data):
        # an integer null is one of the values, so that a difference is zero
        mu0 = values[null % len(values)] if isinstance(null, int) else null
        j = data.draw(st.integers(lowest, 723), label="j")
        assert_scales(test, values, mu0, j, alternative)

    # the t-test and the Q-Q points square each deviation divided by the
    # power of two above the largest, so a spread far below 1e-154, whose
    # squares underflow, scales as any other
    @given(values=st.lists(signed(st.floats(2.0 ** -60, 2.0 ** 60)), min_size=3,
                           max_size=30),
           null=st.one_of(st.just(0.0), st.integers(0, 29)),
           alternative=st.sampled_from([TWO, ONE]), j=st.integers(-600, 600))
    @example(values=[1.0, 1.0 + 2.0 ** -40, 1.0 + 2.0 ** -39, 1.0 + 3 * 2.0 ** -40],
             null=0.0, alternative=TWO, j=-500)
    @example(values=np.random.default_rng(1).normal(0.3, 1.0, 30).tolist(),
             null=0.0, alternative=TWO, j=-548)
    @settings(max_examples=150, deadline=None)
    def test_small_spreads_scale_with_the_data(self, values, null, alternative, j):
        mu0 = values[null % len(values)] if isinstance(null, int) else null
        assert_scales(paired_t_test, values, mu0, j, alternative)
        s = math.ldexp(1.0, j)
        ref = outcome(lambda: qq_normal(values))
        got = outcome(lambda: qq_normal([v * s for v in values]))
        if isinstance(ref, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref))
        else:
            assert got == ref

    @pytest.mark.parametrize("test", [wilcoxon_signed_rank, sign_test],
                             ids=["wilcoxon", "sign"])
    def test_differences_far_below_the_largest_keep_their_signs(self, test):
        # divided by 2**520, as the t-test's sums are, the small values
        # would be 0: dropped as equal to mu0, and a pseudo-median or median
        # of 0.  Their signs and ranks are those of the sample with 1e307
        # replaced by 1, the same largest, and the locations are exact
        values = [1e307, *(k * 1e-300 for k in range(-9, 30) if k)]
        got = test(values, 0.0, 0.05, TWO)
        ref = test([1.0, *values[1:]], 0.0, 0.05, TWO)
        assert (got.statistic, got.p_value, got.warnings) == \
            (ref.statistic, ref.p_value, [])
        assert got.estimate == (oracles.walsh_stats_exact(values, ())[0]
                                if test is wilcoxon_signed_rank
                                else oracles.median_exact(values))
        assert 0.0 < got.estimate < 3e-299

    @pytest.mark.parametrize("test", [wilcoxon_signed_rank, sign_test],
                             ids=["wilcoxon", "sign"])
    def test_mu0_is_halved_with_the_differences(self, test):
        # 1.7e308 is past 2**1023, so the differences are halved, and mu0
        # with them: 1 and 3 lie on either side of mu0 = 2.  The signs and
        # ranks are those of the sample with 1.7e308 replaced by 1e3
        values = [1.7e308, 1.0, 3.0, -2.0]
        got = test(values, 2.0, 0.05, TWO)
        ref = test([1e3, *values[1:]], 2.0, 0.05, TWO)
        assert (got.statistic, got.p_value) == (ref.statistic, ref.p_value)

    # above 2**1023 the values are halved, which is exact for magnitudes
    # from 2**-1019 on; below it nothing is scaled, and a subnormal
    # average comes out as unscaled arithmetic gives it
    @given(values=st.lists(st.one_of(NEAR_MAX, signed(st.floats(2.0 ** -1019, 1e3)),
                                     st.just(0.0)),
                           min_size=2, max_size=40))
    @example(values=[1e307, -1e307, 4.450147717014404e-308])
    @settings(max_examples=60, deadline=None)
    def test_medians_match_exact_arithmetic(self, values):
        # near 1.7e308 a sum of two values overflows; each Walsh average
        # and each median of two values is their exact average rounded once
        nonzero = sum(v != 0.0 for v in values)
        if nonzero:
            rep = wilcoxon_signed_rank(values, 0.0, 0.05, TWO)
            ranks = ()
            if nonzero > 25:  # the normal approximation's interval ranks
                ranks = _walsh_interval_ranks(len(values), nonzero, 0.05, None)
            estimate, ci = oracles.walsh_stats_exact(values, ranks)
            assert rep.estimate == estimate
            assert not ranks or rep.ci == ci
            rep = sign_test(values, 0.0, 0.05, TWO)
            assert rep.estimate == oracles.median_exact(values)
            assert min(values) <= rep.ci[0] <= rep.ci[1] <= max(values)


class TestMemoryAtLargeN:
    """The extra memory of the Wilcoxon test and the diagnostics is O(N).

    At N = 4000 the N(N+1)/2 Walsh averages alone took 256 MB, and a
    999 x N bootstrap index array and its gather about 64 MB.
    """

    N = 4000
    BOUND = 16 * 2 ** 20

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_wilcoxon(self):
        values = np.random.default_rng(8).normal(0.1, 1.0, self.N)
        assert self.peak(lambda: wilcoxon_signed_rank(values, 0.0, 0.05, TWO)) \
            < self.BOUND

    def test_diagnostics(self):
        values = np.random.default_rng(9).normal(0.1, 1.0, self.N)
        assert self.peak(lambda: build_diagnostics(values, 999, 5)) < self.BOUND

