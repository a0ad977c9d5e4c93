import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircomp.design import (ARE_DIVISOR, Alternative, ComparisonDesign,
                             TestFamily, calc_instances, calc_power,
                             curve_highlights, power_curve, validate_design)
from paircomp.distributions import t_quantile
from paircomp.sampler import SamplingConfig

from oracles import EffectSizeDecomposition, standardized_effect


def design(alpha=0.05, power=0.85, d=0.5, alternative=Alternative.TWO_SIDED,
           family=TestFamily.T_TEST):
    return ComparisonDesign(alpha=alpha, power_target=power, mres_d=d,
                            alternative=alternative, test_family=family)


class TestCalcPower:
    def test_reference_one_sided_value(self):
        assert calc_power(100, 0.25, 0.01, Alternative.ONE_SIDED) == \
            pytest.approx(0.5554571, abs=1e-6)

    def test_null_effect_gives_alpha(self):
        assert calc_power(100, 0.0, 0.01, Alternative.ONE_SIDED) == \
            pytest.approx(0.01, abs=1e-6)
        assert calc_power(50, 0.0, 0.05, Alternative.TWO_SIDED) == \
            pytest.approx(0.05, abs=1e-6)

    def test_thirty_four_instances_reach_eighty_percent(self):
        assert calc_power(34, 0.5, 0.05, Alternative.TWO_SIDED) >= 0.80

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError):
            calc_power(1, 0.5, 0.05, Alternative.TWO_SIDED)

    def test_negative_effect_rejected(self):
        with pytest.raises(ValueError):
            calc_power(10, -0.5, 0.05, Alternative.TWO_SIDED)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            calc_power(10, 0.5, alpha, Alternative.TWO_SIDED)

    @pytest.mark.parametrize("alternative", list(Alternative))
    @pytest.mark.parametrize("alpha", [1e-17, 1e-16, 2.0 ** -53])
    def test_alpha_whose_half_vanishes_beside_one_rejected(self, alpha, alternative):
        # 1 - alpha/2 rounds to 1, and the tests' two-sided interval needs
        # its t quantile, whatever the alternative
        for call in (lambda: calc_power(10, 0.5, alpha, alternative),
                     lambda: power_curve(10, alpha, alternative, (0.1, 1.0), 3),
                     lambda: design(alpha=alpha, alternative=alternative)):
            with pytest.raises(ValueError, match=r"^alpha must exceed 2\*\*-53"):
                call()

    @pytest.mark.parametrize("call, name", [
        (lambda: calc_power(10 ** 400, 0.5, 0.05, Alternative.TWO_SIDED), "n_instances"),
        (lambda: calc_power(-(2 ** 1024), 0.5, 0.05, Alternative.TWO_SIDED),
         "n_instances"),
        (lambda: power_curve(10 ** 400, 0.05, Alternative.TWO_SIDED, (0.1, 1.0), 3),
         "n_instances"),
        (lambda: power_curve(10, 0.05, Alternative.TWO_SIDED, (0.1, 1.0), 10 ** 400),
         "n_points"),
        (lambda: calc_power(math.inf, 0.5, 0.05, Alternative.TWO_SIDED), "n_instances"),
        (lambda: power_curve(10, 0.05, Alternative.TWO_SIDED, (0.1, 1.0), math.nan),
         "n_points"),
    ], ids=["power", "power-negative", "curve", "curve-points", "power-inf",
            "curve-points-nan"])
    def test_count_beyond_float_range_rejected_naming_it(self, call, name):
        # int() or the first float product refused it without naming it,
        # and no message may echo its hundreds of digits
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == f"{name} is beyond the range of a float"

    @pytest.mark.parametrize("alternative", list(Alternative))
    def test_smallest_accepted_alpha(self, alternative):
        alpha = 2.0 ** -52
        assert 0.0 < calc_power(10, 0.5, alpha, alternative) < 1e-6
        assert calc_instances(design(alpha=alpha, alternative=alternative)).n_instances > 2

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 400), d=st.floats(0.05, 1.5))
    def test_increasing_in_n_and_d(self, n, d):
        # strict growth until the power saturates in double precision
        two = Alternative.TWO_SIDED
        base = calc_power(n, d, 0.05, two)
        for other in (calc_power(n + 1, d, 0.05, two),
                      calc_power(n, d + 0.05, 0.05, two)):
            if base < 1.0 - 1e-12:
                assert other > base
            else:
                assert other >= base

    def test_monte_carlo_calibration(self):
        # paired t rejection rates on simulated experiments match the formula
        des = design(alpha=0.05, power=0.85, d=0.5)
        res = calc_instances(des)
        n = res.n_instances
        crit = t_quantile(1 - des.alpha / 2, n - 1)
        rng = np.random.default_rng(123456)

        def rejection_rate(mean):
            x = rng.normal(mean, 1.0, size=(2000, n))
            t0 = x.mean(axis=1) / (x.std(axis=1, ddof=1) / math.sqrt(n))
            return float((np.abs(t0) >= crit).mean())

        assert abs(rejection_rate(0.5) -
                   calc_power(n, 0.5, des.alpha, des.alternative)) < 0.03
        assert abs(rejection_rate(0.0) - des.alpha) < 0.015


class TestCalcInstances:
    def test_reference_t_value(self):
        assert calc_instances(design()).n_instances == 38

    def test_reference_wilcoxon_value(self):
        assert calc_instances(design(family=TestFamily.WILCOXON)).n_instances == 45

    def test_reference_eighty_percent_value(self):
        assert calc_instances(design(power=0.80)).n_instances == 34

    def test_result_fields(self):
        res = calc_instances(design())
        assert res.achieved_power >= 0.85
        assert res.test_family is TestFamily.T_TEST
        assert res.ncp_at_n == pytest.approx(0.5 * math.sqrt(38))

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("power", [0.8, 0.9])
    @pytest.mark.parametrize("d", [0.3, 0.5, 0.8])
    def test_minimality(self, alpha, power, d):
        des = design(alpha=alpha, power=power, d=d)
        n = calc_instances(des).n_instances
        assert calc_power(n, d, alpha, des.alternative) >= power
        if n > 2:
            assert calc_power(n - 1, d, alpha, des.alternative) < power

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("power", [0.8, 0.85])
    @pytest.mark.parametrize("d", [0.25, 0.5, 1.0])
    def test_are_ordering(self, alpha, power, d):
        sizes = {fam: calc_instances(design(alpha=alpha, power=power, d=d,
                                            family=fam)).n_instances
                 for fam in TestFamily}
        assert sizes[TestFamily.SIGN] >= sizes[TestFamily.WILCOXON] >= sizes[TestFamily.T_TEST]

    def test_are_uses_ceiling(self):
        n_t = calc_instances(design()).n_instances
        n_w = calc_instances(design(family=TestFamily.WILCOXON)).n_instances
        assert n_w == math.ceil(n_t / ARE_DIVISOR[TestFamily.WILCOXON])

    def test_monotone_in_design_parameters(self):
        base = calc_instances(design(alpha=0.05, power=0.85, d=0.5)).n_instances
        assert calc_instances(design(alpha=0.05, power=0.85, d=0.6)).n_instances <= base
        assert calc_instances(design(alpha=0.10, power=0.85, d=0.5)).n_instances <= base
        assert calc_instances(design(alpha=0.05, power=0.90, d=0.5)).n_instances >= base

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("d", [0.3, 0.7])
    def test_one_sided_never_needs_more(self, alpha, d):
        two = calc_instances(design(alpha=alpha, d=d)).n_instances
        one = calc_instances(design(alpha=alpha, d=d,
                                    alternative=Alternative.ONE_SIDED)).n_instances
        assert one <= two

    def test_minimum_is_two(self):
        res = calc_instances(design(alpha=0.2, power=0.5, d=8.0))
        assert res.n_instances >= 2

    def test_unattainable_design_errors(self):
        with pytest.raises(ValueError):
            calc_instances(design(alpha=1e-9, power=0.999, d=1e-4))


class TestPowerCurve:
    def test_reference_highlights(self):
        curve = power_curve(100, 0.01, Alternative.ONE_SIDED, (0.05, 0.5), 300)
        hits = dict(curve_highlights(curve, [0.25, 0.5, 0.8, 0.95]))
        assert hits[0.25] == pytest.approx(0.17, abs=0.005)
        assert hits[0.5] == pytest.approx(0.24, abs=0.005)
        assert hits[0.8] == pytest.approx(0.32, abs=0.005)
        assert hits[0.95] == pytest.approx(0.40, abs=0.005)

    @pytest.mark.parametrize("n,alpha,alternative", [
        (20, 0.05, Alternative.ONE_SIDED), (100, 0.05, Alternative.TWO_SIDED),
        (1000, 0.01, Alternative.ONE_SIDED), (1000, 0.05, Alternative.TWO_SIDED)])
    def test_equals_calc_power_pointwise(self, n, alpha, alternative):
        curve = power_curve(n, alpha, alternative, (0.05, 1.5), 60)
        assert all(pw == calc_power(n, d, alpha, alternative) for d, pw in curve)

    def test_shape_and_monotonicity(self):
        curve = power_curve(40, 0.05, Alternative.TWO_SIDED, (0.1, 1.0), 50)
        assert len(curve) == 50
        assert curve[0][0] == pytest.approx(0.1)
        assert curve[-1][0] == pytest.approx(1.0)
        powers = [p for _, p in curve]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_unreached_level_is_none(self):
        curve = power_curve(10, 0.05, Alternative.TWO_SIDED, (0.05, 0.1), 5)
        assert curve_highlights(curve, [0.99]) == [(0.99, None)]

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            power_curve(100, 0.01, Alternative.ONE_SIDED, (0.3, 0.3), 10)
        with pytest.raises(ValueError):
            power_curve(100, 0.01, Alternative.ONE_SIDED, (0.0, 0.3), 10)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            power_curve(100, 0.01, Alternative.ONE_SIDED, (0.05, 0.5), 1)


class TestEffectSize:
    def test_pure_across_instance_spread(self):
        assert standardized_effect(EffectSizeDecomposition(1.0, 1.0, 0.0)) == 1.0

    def test_three_four_five(self):
        assert standardized_effect(EffectSizeDecomposition(1.0, 3.0, 4.0)) == pytest.approx(0.2)

    def test_zero_delta(self):
        assert standardized_effect(EffectSizeDecomposition(0.0, 2.0, 1.0)) == 0.0

    def test_sign_follows_delta(self):
        assert standardized_effect(EffectSizeDecomposition(-1.0, 3.0, 4.0)) == pytest.approx(-0.2)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError):
            standardized_effect(EffectSizeDecomposition(1.0, 0.0, 0.0))

    def test_decomposition_identity(self):
        dec = EffectSizeDecomposition(0.5, 1.5, 2.5)
        assert dec.sigma_total**2 == pytest.approx(dec.sigma_phi**2 + dec.sigma_eps**2,
                                                   abs=1e-12)

    def test_from_delta_requires_bound(self):
        with pytest.raises(ValueError):
            ComparisonDesign.from_delta(0.05, 0.0, alpha=0.05, power_target=0.8)
        des = ComparisonDesign.from_delta(-0.05, 0.1, alpha=0.05, power_target=0.8)
        assert des.mres_d == pytest.approx(0.5)


class TestValidateDesign:
    def test_small_budget_no_warning(self):
        cfg = SamplingConfig(se_max=0.05, n0=15, n_max=100)
        assert validate_design(design(), cfg, sigma_phi_estimate=1.0) == []

    def test_large_budget_warns(self):
        cfg = SamplingConfig(se_max=0.5, n0=15, n_max=100)
        warnings = validate_design(design(), cfg, sigma_phi_estimate=1.0)
        assert len(warnings) == 1 and "se*" in warnings[0]

    def test_tiny_n0_warns(self):
        cfg = SamplingConfig(se_max=0.05, n0=2, n_max=100)
        warnings = validate_design(design(), cfg)
        assert len(warnings) == 1 and "n0" in warnings[0]

    def test_huge_values_do_not_overflow(self):
        cfg = SamplingConfig(se_max=1e200, n0=15, n_max=100)
        assert len(validate_design(design(), cfg, sigma_phi_estimate=1.0)) == 1
        cfg = SamplingConfig(se_max=0.05, n0=15, n_max=100)
        assert validate_design(design(), cfg, sigma_phi_estimate=1e308) == []

    def test_unconventional_error_rates_do_not_warn(self):
        cfg = SamplingConfig(se_max=0.01, n0=10, n_max=100)
        assert validate_design(design(alpha=0.17, power=0.6), cfg,
                               sigma_phi_estimate=2.0) == []


class TestDesignInvariants:
    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=1.0), dict(power=1.0), dict(power=0.0),
        dict(d=0.0), dict(d=-1.0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        kwargs = dict(alpha=0.05, power=0.85, d=0.5)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            design(**kwargs)

    def test_string_enums_coerce(self):
        des = ComparisonDesign(alpha=0.05, power_target=0.8, mres_d=0.5,
                               alternative="one_sided", test_family="wilcoxon")
        assert des.alternative is Alternative.ONE_SIDED
        assert des.test_family is TestFamily.WILCOXON
