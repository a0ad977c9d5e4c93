import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from paircomp.distributions import (noncentral_t_cdf, noncentral_t_quantile,
                                    t_cdf, t_quantile, _nct_cdf_quadrature)

import oracles


class TestCentralCDF:
    def test_symmetry_at_zero(self):
        assert t_cdf(0.0, 5) == 0.5

    def test_far_right_tail_is_one(self):
        assert t_cdf(1e6, 4) == pytest.approx(1.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        # frozen from the quadrature oracle; both are asserted
        oracle = oracles.t_cdf_quadrature(2.0, 10)
        assert oracle == pytest.approx(0.963306, abs=1e-6)
        assert t_cdf(2.0, 10) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("x", [-7.0, -1.3, -0.2, 0.4, 2.9, 6.0])
    @pytest.mark.parametrize("df", [1, 3.5, 12, 80])
    def test_quadrature_grid(self, x, df):
        assert t_cdf(x, df) == pytest.approx(oracles.t_cdf_quadrature(x, df),
                                             abs=1e-9)

    def test_monotone_in_x(self):
        xs = np.linspace(-6, 6, 61)
        vals = [t_cdf(x, 7) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_normal_limit(self):
        for x in np.linspace(-4, 4, 17):
            assert abs(t_cdf(x, 1e6) - oracles.normal_cdf_erf(x)) < 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x_rejected(self, bad):
        with pytest.raises(ValueError):
            t_cdf(bad, 5)

    @pytest.mark.parametrize("df", [0.0, -1.0, math.nan])
    def test_bad_df_rejected(self, df):
        with pytest.raises(ValueError):
            t_cdf(0.0, df)


class TestCentralQuantile:
    def test_median_is_zero(self):
        assert t_quantile(0.5, 7) == 0.0

    def test_known_value(self):
        assert t_quantile(0.975, 33) == pytest.approx(2.034515, abs=1e-6)

    def test_antisymmetry_is_exact(self):
        assert t_quantile(0.025, 33) == -t_quantile(0.975, 33)

    @pytest.mark.parametrize("df", [1, 5, 30, 200])
    def test_round_trip_grid(self, df):
        for p in np.arange(0.01, 1.0, 0.01):
            assert abs(t_cdf(t_quantile(p, df), df) - p) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            t_quantile(p, 5)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.005, 0.995), df=st.floats(1.0, 300.0))
    def test_round_trip_property(self, p, df):
        assert abs(t_cdf(t_quantile(p, df), df) - p) < 1e-9


class TestNoncentralCDF:
    def test_central_reduction_pointwise(self):
        assert noncentral_t_cdf(1.5, 9, 0.0) == t_cdf(1.5, 9)
        assert noncentral_t_cdf(0.0, 9, 0.0) == 0.5

    def test_central_reduction_grid(self):
        for df in [1, 4, 21, 150]:
            for x in np.linspace(-5, 5, 21):
                assert abs(noncentral_t_cdf(x, df, 0.0) - t_cdf(x, df)) < 1e-10

    def test_monte_carlo_oracle(self):
        draws = 10**7
        p_mc, se = oracles.nct_cdf_monte_carlo(2.0, 30, 2.5, draws, seed=20240811)
        assert abs(noncentral_t_cdf(2.0, 30, 2.5) - p_mc) < 3 * se

    def test_matches_internal_quadrature(self):
        for df in [2, 11, 60]:
            for ncp in [-6.0, -0.7, 3.2, 18.0]:
                for x in [-3.0, 0.2, 4.5]:
                    series = noncentral_t_cdf(x, df, ncp)
                    quad = _nct_cdf_quadrature(x, df, ncp)
                    assert series == pytest.approx(quad, abs=5e-11)

    def test_large_ncp_fallback(self):
        # |ncp| above the series cutoff goes through quadrature
        p_mc, se = oracles.nct_cdf_monte_carlo(44.0, 25, 45.0, 10**6, seed=7)
        assert abs(noncentral_t_cdf(44.0, 25, 45.0) - p_mc) < 4 * se

    def test_nonincreasing_in_ncp(self):
        for x in [-1.0, 0.5, 2.5]:
            vals = [noncentral_t_cdf(x, 12, ncp) for ncp in np.linspace(-4, 4, 17)]
            assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_x(self):
        vals = [noncentral_t_cdf(x, 8, 1.7) for x in np.linspace(-4, 8, 49)]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            noncentral_t_cdf(math.inf, 5, 1.0)
        with pytest.raises(ValueError):
            noncentral_t_cdf(0.0, 5, math.nan)

    def test_finite_on_scipy_nan_band(self):
        df = np.geomspace(1.0, 1e5, 16)[:, None, None]
        ncp = np.linspace(-80.0, 80.0, 41)[None, :, None]
        x = np.linspace(-10.0, 10.0, 41)[None, None, :]
        # the grid reaches the region where scipy's nctdtr gives NaN
        assert np.isnan(special.nctdtr(df, ncp, x)).sum() > 1000
        vals = noncentral_t_cdf(x, df, ncp)
        assert vals.shape == (16, 41, 41)
        assert np.isfinite(vals).all()
        assert ((vals >= 0.0) & (vals <= 1.0)).all()

    # mpmath 1.3.0 at 40 digits, integrating Phi(x sqrt(u) - ncp) against
    # the Gamma(df/2, df/2) density of u; the three x < 0 values at small
    # df were confirmed by a second integral over the normal variate
    @pytest.mark.parametrize("x,df,ncp,expected", [
        (-2.0, 99, 30.0, 5.6255e-221),
        (2.0, 50, 40.0, 8.3971e-302),
        (-9.0, 2, 8.0, 2.2292e-19),
        (-8.61, 4, 6.7082, 3.2026e-17),
        (8.0, 1, -8.0, 1.0),
        (-5.0, 1e5, 4.0, 1.1345e-19),
    ])
    def test_far_tail_mpmath_values(self, x, df, ncp, expected):
        assert noncentral_t_cdf(x, df, ncp) == pytest.approx(expected, abs=1e-16)


class TestNoncentralQuantile:
    def test_central_reduction(self):
        for p in [0.05, 0.3, 0.5, 0.9]:
            assert noncentral_t_quantile(p, 11, 0.0) == t_quantile(p, 11)

    def test_round_trip_contract(self):
        q = noncentral_t_quantile(0.5, 20, 3.0)
        assert abs(noncentral_t_cdf(q, 20, 3.0) - 0.5) < 1e-8

    def test_against_monte_carlo(self):
        q = noncentral_t_quantile(0.2, 37, 3.082)
        p_mc, se = oracles.nct_cdf_monte_carlo(q, 37, 3.082, 10**7, seed=99)
        assert abs(p_mc - 0.2) < 3 * se

    @pytest.mark.parametrize("p", [0.001, 0.05, 0.45, 0.77, 0.999])
    @pytest.mark.parametrize("df,ncp", [(2, -4.0), (37, 3.082), (150, 12.0)])
    def test_round_trip_grid(self, p, df, ncp):
        q = noncentral_t_quantile(p, df, ncp)
        assert abs(noncentral_t_cdf(q, df, ncp) - p) < 1e-8

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            noncentral_t_quantile(1.0, 5, 1.0)

    def test_round_trip_below_one_degree_of_freedom(self):
        q = noncentral_t_quantile(1e-6, 0.7, 1.0)
        assert noncentral_t_cdf(q, 0.7, 1.0) == pytest.approx(1e-6, rel=1e-6)


class TestBroadcasting:
    def test_arrays_match_scalars_and_scalars_give_floats(self):
        xs = np.array([-3.0, -0.4, 0.0, 1.1, 6.0])
        ps = np.array([0.01, 0.3, 0.5, 0.8, 0.999])
        cases = [
            (t_cdf, (xs, 7.5)),
            (t_quantile, (ps, 7.5)),
            (noncentral_t_cdf, (xs, 7.5, np.array([0.0, 1.2, -2.0, 45.0, -0.5]))),
            (noncentral_t_quantile, (ps, 7.5, np.array([0.0, 1.2, -2.0, 4.5, -0.5]))),
        ]
        for fn, (first, df, *rest) in cases:
            vals = fn(first, df, *rest)
            assert isinstance(vals, np.ndarray) and vals.shape == first.shape
            for i, v in enumerate(first):
                one = fn(float(v), df, *(float(r[i]) for r in rest))
                assert type(one) is float
                assert one == vals[i]
