"""Power analysis and instance-count planning for paired comparisons.

The unit of inference is the problem instance: with N instances the paired
t statistic has N-1 degrees of freedom and, under a standardized effect d,
a noncentral t distribution with noncentrality d*sqrt(N).  Power is the
noncentral mass outside the central-t rejection bounds; the required
number of instances is the smallest N whose power reaches the target.
Nonparametric test families are sized from the t-test N via asymptotic
relative efficiency divisors (0.86 Wilcoxon, 0.637 sign), rounded up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import noncentral_t_cdf, t_quantile

__all__ = [
    "Alternative", "TestFamily", "ComparisonDesign", "SampleSizeResult",
    "calc_power", "calc_instances", "power_curve", "curve_highlights",
    "validate_design",
]


class Alternative(str, Enum):
    TWO_SIDED = "two_sided"
    ONE_SIDED = "one_sided"


class TestFamily(str, Enum):
    __test__ = False  # not a pytest class

    T_TEST = "t_test"
    WILCOXON = "wilcoxon"
    SIGN = "sign"


# Asymptotic relative efficiency vs. the paired t-test.  The Wilcoxon
# divisor is the non-normal worst case; for normal populations the
# efficiency is about 0.95, so these counts err on the conservative side.
ARE_DIVISOR = {
    TestFamily.T_TEST: 1.0,
    TestFamily.WILCOXON: 0.86,
    TestFamily.SIGN: 0.637,
}

N_SEARCH_CAP = 10**6


@dataclass(frozen=True)
class ComparisonDesign:
    """Planning parameters of a two-algorithm comparison.

    ``mres_d`` is the minimally relevant standardized effect size (in units
    of the total standard deviation of the paired differences): the
    smallest difference worth detecting.
    """

    alpha: float
    power_target: float
    mres_d: float
    alternative: Alternative = Alternative.TWO_SIDED
    test_family: TestFamily = TestFamily.T_TEST
    mu0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alternative", Alternative(self.alternative))
        object.__setattr__(self, "test_family", TestFamily(self.test_family))
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.power_target < 1.0):
            raise ValueError(f"power target must lie in (0, 1), got {self.power_target!r}")
        if not (self.mres_d > 0.0 and math.isfinite(self.mres_d)):
            raise ValueError(f"mres_d must be a positive finite real, got {self.mres_d!r}")
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0!r}")

    @classmethod
    def from_delta(cls, delta: float, sigma_bound: float, **kwargs) -> "ComparisonDesign":
        """Build a design from a raw effect size and a total-SD upper bound.

        When the smallest relevant difference is stated on the raw scale, an
        upper bound for the total standard deviation of the paired
        differences is mandatory; the standardized effect is |delta|/bound.
        """
        if not (sigma_bound > 0.0 and math.isfinite(sigma_bound)):
            raise ValueError("a positive, finite sigma bound is required when "
                             "specifying the effect size as a raw delta")
        if delta == 0.0:
            raise ValueError("delta must be nonzero")
        return cls(mres_d=abs(float(delta)) / float(sigma_bound), **kwargs)


@dataclass(frozen=True)
class SampleSizeResult:
    n_instances: int
    achieved_power: float
    test_family: TestFamily
    ncp_at_n: float


def _power(n: int, d, alpha: float, alternative: Alternative):
    # d may be a float or an array of effect sizes; the result matches it
    df = n - 1
    ncp = abs(d) * math.sqrt(n)
    if alternative is Alternative.TWO_SIDED:
        # t_quantile is exactly antisymmetric: the lower bound is -hi
        hi = t_quantile(1.0 - 0.5 * alpha, df)
        return 1.0 - (noncentral_t_cdf(hi, df, ncp) - noncentral_t_cdf(-hi, df, ncp))
    return 1.0 - noncentral_t_cdf(t_quantile(1.0 - alpha, df), df, ncp)


def calc_power(n_instances: int, d: float, design: ComparisonDesign) -> float:
    """Probability of rejecting the null at effect size ``d`` with N instances.

    Strictly increasing in both ``n_instances`` and ``d``; at d = 0 it
    equals the significance level exactly.
    """
    n = int(n_instances)
    if n < 2:
        raise ValueError(f"at least 2 instances are required, got {n_instances!r}")
    d = float(d)
    if d < 0.0 or not math.isfinite(d):
        raise ValueError(f"effect size d must be a nonnegative finite real, got {d!r}")
    return _power(n, d, design.alpha, design.alternative)


def calc_instances(design: ComparisonDesign) -> SampleSizeResult:
    """Smallest number of instances meeting the design's power target.

    The t-test count is the smallest N >= 2 whose power reaches the target
    (power is monotone in N, so a doubling bracket plus bisection is
    exact); Wilcoxon and sign counts divide that N by their ARE and round
    up.  The achieved power is always reported on the t-test basis at the
    returned N.
    """
    d, target = design.mres_d, design.power_target

    lo, hi = 1, 2
    while _power(hi, d, design.alpha, design.alternative) < target:
        lo = hi
        hi *= 2
        if hi > N_SEARCH_CAP:
            raise ValueError(
                f"no N <= {N_SEARCH_CAP} reaches power {target} at d={d}; "
                "increase the effect size or relax the target")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 2 and _power(mid, d, design.alpha, design.alternative) >= target:
            hi = mid
        else:
            lo = mid
    n_t = hi

    divisor = ARE_DIVISOR[design.test_family]
    # guard against float fuzz in the division before taking the ceiling
    n = n_t if divisor == 1.0 else math.ceil(round(n_t / divisor, 9))
    return SampleSizeResult(
        n_instances=n,
        achieved_power=_power(n, d, design.alpha, design.alternative),
        test_family=design.test_family,
        ncp_at_n=d * math.sqrt(n),
    )


def power_curve(n_instances: int, alpha: float, alternative: Alternative,
                d_range: tuple[float, float], n_points: int) -> list[tuple[float, float]]:
    """Power as a function of effect size for a fixed number of instances.

    Returns ``n_points`` (d, power) pairs with d evenly spaced over
    ``d_range`` inclusive; power is strictly increasing along the list.
    The whole curve is one array evaluation of the noncentral t CDF, and
    each point equals :func:`calc_power` at that d exactly.  The curve is
    computed on the t-test basis.
    """
    n = int(n_instances)
    if n < 2:
        raise ValueError(f"at least 2 instances are required, got {n_instances!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    d_lo, d_hi = float(d_range[0]), float(d_range[1])
    if not (0.0 < d_lo < d_hi):
        raise ValueError(f"need 0 < d_lo < d_hi, got {d_range!r}")
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError(f"at least 2 curve points are required, got {n_points!r}")
    alternative = Alternative(alternative)
    step = (d_hi - d_lo) / (n_points - 1)
    ds = d_lo + np.arange(n_points) * step
    return list(zip(ds.tolist(), _power(n, ds, alpha, alternative).tolist()))


def curve_highlights(curve: list[tuple[float, float]],
                     levels: list[float]) -> list[tuple[float, float | None]]:
    """For each power level, the smallest curve d achieving it (None if unreached)."""
    out: list[tuple[float, float | None]] = []
    for level in levels:
        hit = next((d for d, pw in curve if pw >= level), None)
        out.append((level, hit))
    return out


def validate_design(design: ComparisonDesign, sampling,
                    sigma_phi_estimate: float | None = None) -> list[str]:
    """Advisory warnings about questionable parameter choices.

    No warning is emitted for unconventional alpha or power targets: the
    usual 0.05/0.01 and 0.8/0.85 are conventions, not requirements.
    """
    warnings: list[str] = []
    if sigma_phi_estimate is not None and sigma_phi_estimate > 0:
        # products, not powers: a float power overflows with an exception
        if sampling.se_max * sampling.se_max > \
                0.1 * sigma_phi_estimate * sigma_phi_estimate:
            warnings.append(
                f"standard-error budget se*={sampling.se_max:g} is large relative to "
                f"the across-instances spread estimate {sigma_phi_estimate:g}: "
                f"(se*)^2 exceeds 0.1*sigma^2, so estimation noise may dominate "
                f"the power calculation; consider a smaller se*")
    if sampling.n0 < 3:
        warnings.append(
            f"initial sample size n0={sampling.n0} is below the guidance floor of 3; "
            f"initial spread estimates will be unreliable")
    return warnings
