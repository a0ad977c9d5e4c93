"""Per-instance paired-difference estimators and their standard errors.

Two difference kinds are supported for a pair of observation samples
(x1, x2) on one instance:

* simple:   phi = mean(x2) - mean(x1),
  se = sqrt(s1^2/n1 + s2^2/n2)
* percent:  phi = (mean(x2) - mean(x1)) / mean(x1),
  se = |phi| * sqrt(c1/n1 + c2/n2)   (no-covariance Fieller form)
  with c1 = s1^2 [gap^-2 + mean1^-2],  c2 = s2^2 gap^-2,
  gap = mean(x2) - mean(x1)

The total-run-minimizing allocation keeps n1/n2 at s1/s2 (simple) or
sqrt(c1/c2) (percent).  A seeded bootstrap provides a nonparametric
alternative for the standard errors and, separately, a resampled
sampling-distribution-of-the-mean for normality diagnostics.

Functions are duck-typed over any object exposing ``n``, ``mean``,
``variance`` and ``sd`` so tests can drive them with frozen statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AssumptionViolationError, DegenerateRatioError
from .seeding import make_generator

__all__ = [
    "DiffKind", "SEMethod", "InstanceSample", "PairedDifference",
    "FiellerCoefficients", "BootstrapConfig", "phi_simple", "phi_percent",
    "se_simple", "se_percent", "optimal_ratio_simple", "optimal_ratio_percent",
    "bootstrap_se", "bootstrap_sdm",
]


class DiffKind(str, Enum):
    SIMPLE = "simple"
    PERCENT = "percent"


class SEMethod(str, Enum):
    PARAMETRIC = "parametric"
    BOOTSTRAP = "bootstrap"


@dataclass
class InstanceSample:
    """Observations of one algorithm on one instance with running statistics.

    Mean and spread are maintained incrementally (Welford update) so the
    adaptive sampler pays O(1) per appended run; the raw observations are
    kept for bootstrap resampling.  The spread uses the n-1 denominator
    and is defined only for n >= 2.
    """

    observations: list[float] = field(default_factory=list)
    n: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    @classmethod
    def from_values(cls, values) -> "InstanceSample":
        s = cls()
        for v in values:
            s.add(v)
        return s

    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"observations must be finite, got {x!r}")
        self.observations.append(x)
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        if self.n < 2:
            raise ValueError(f"variance undefined for n={self.n} (< 2 observations)")
        return max(self._m2, 0.0) / (self.n - 1)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class FiellerCoefficients:
    """Per-algorithm coefficients of the percent-difference standard error."""
    c1: float
    c2: float


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 999
    rng_seed: int = 0

    def __post_init__(self):
        if self.resamples < 100:
            raise ValueError(f"at least 100 bootstrap resamples are required, "
                             f"got {self.resamples!r}")


@dataclass
class PairedDifference:
    """Estimated performance difference on one instance, with its uncertainty."""
    instance_id: str
    phi_hat: float
    se_hat: float
    n1: int
    n2: int
    diff_kind: DiffKind
    se_method: SEMethod
    budget_exhausted: bool = False

    def __post_init__(self):
        self.diff_kind = DiffKind(self.diff_kind)
        self.se_method = SEMethod(self.se_method)
        if self.se_hat < 0.0:
            raise ValueError("standard error cannot be negative")


def _require_runs(sample, k: int, who: str) -> None:
    if sample.n < k:
        raise ValueError(f"{who} needs at least {k} observation(s), got n={sample.n}")


def phi_simple(s1, s2) -> float:
    """Difference of mean performance, second algorithm minus first."""
    _require_runs(s1, 1, "phi_simple")
    _require_runs(s2, 1, "phi_simple")
    return s2.mean - s1.mean


def phi_percent(s1, s2) -> float:
    """Relative mean gain of the second algorithm over the first.

    Requires a strictly positive baseline mean; otherwise the ratio is not
    meaningful and simple differences should be used instead.
    """
    _require_runs(s1, 1, "phi_percent")
    _require_runs(s2, 1, "phi_percent")
    if s1.mean <= 0.0:
        raise AssumptionViolationError(
            f"percent differences assume a strictly positive baseline mean, got "
            f"{s1.mean:g}; use simple differences for this data")
    return (s2.mean - s1.mean) / s1.mean


def se_simple(s1, s2) -> float:
    """Standard error of the simple mean difference."""
    _require_runs(s1, 2, "se_simple")
    _require_runs(s2, 2, "se_simple")
    return math.sqrt(s1.variance / s1.n + s2.variance / s2.n)


def se_percent(s1, s2) -> tuple[float, FiellerCoefficients]:
    """Standard error of the percent difference (no-covariance ratio form).

    Returns the estimate together with its coefficients (c1, c2), which
    also determine the optimal allocation ratio sqrt(c1/c2).  A zero mean
    gap makes the ratio form singular; callers should fall back to the
    bootstrap estimate in that case.
    """
    _require_runs(s1, 2, "se_percent")
    _require_runs(s2, 2, "se_percent")
    if s1.mean <= 0.0:
        raise AssumptionViolationError(
            f"percent differences assume a strictly positive baseline mean, got "
            f"{s1.mean:g}; use simple differences for this data")
    gap = s2.mean - s1.mean
    v1, v2 = s1.variance, s2.variance
    if gap == 0.0:
        if v1 == 0.0 and v2 == 0.0:
            return 0.0, FiellerCoefficients(0.0, 0.0)
        raise DegenerateRatioError(
            "percent-difference standard error is undefined when the mean gap "
            "is exactly zero; use the bootstrap estimate")
    c1 = v1 * (gap ** -2 + s1.mean ** -2)
    c2 = v2 * gap ** -2
    phi = gap / s1.mean
    se = abs(phi) * math.sqrt(c1 / s1.n + c2 / s2.n)
    return se, FiellerCoefficients(c1, c2)


def optimal_ratio_simple(s1, s2) -> float:
    """Run-allocation ratio n1/n2 minimizing total runs (simple differences).

    Equals the ratio of the sample spreads.  With a spread-free second
    algorithm the ratio is +inf ("always sample the first next"); if both
    spreads vanish it is 1 by convention.
    """
    _require_runs(s1, 2, "optimal_ratio_simple")
    _require_runs(s2, 2, "optimal_ratio_simple")
    sd1, sd2 = s1.sd, s2.sd
    if sd2 == 0.0:
        return 1.0 if sd1 == 0.0 else math.inf
    return sd1 / sd2


def optimal_ratio_percent(s1, s2) -> float:
    """Run-allocation ratio for percent differences: (s1/s2) sqrt(1 + phi^2)."""
    _require_runs(s1, 2, "optimal_ratio_percent")
    _require_runs(s2, 2, "optimal_ratio_percent")
    sd1, sd2 = s1.sd, s2.sd
    if sd2 == 0.0:
        return 1.0 if sd1 == 0.0 else math.inf
    phi = phi_percent(s1, s2)
    return (sd1 / sd2) * math.sqrt(1.0 + phi * phi)


def _resample_means(rng, x: np.ndarray, count: int) -> np.ndarray:
    idx = rng.integers(0, x.size, size=(count, x.size))
    return x[idx].mean(axis=1)


def bootstrap_se(s1, s2, diff_kind: DiffKind, cfg: BootstrapConfig) -> float:
    """Bootstrap standard error of the paired difference.

    Draws ``cfg.resamples`` with-replacement resamples of each side (sizes
    n1, n2), computes the difference of the requested kind on each pair of
    resampled means, and returns the sample standard deviation of those
    values.  Deterministic for a fixed ``cfg.rng_seed``.  Under the
    percent kind, resamples with a nonpositive baseline mean are rejected
    and redrawn; more than 100*R rejections abort.
    """
    _require_runs(s1, 2, "bootstrap_se")
    _require_runs(s2, 2, "bootstrap_se")
    diff_kind = DiffKind(diff_kind)
    x1 = np.asarray(s1.observations, dtype=float)
    x2 = np.asarray(s2.observations, dtype=float)
    rng = make_generator(cfg.rng_seed)
    R = cfg.resamples

    m1 = _resample_means(rng, x1, R)
    m2 = _resample_means(rng, x2, R)
    if diff_kind is DiffKind.PERCENT:
        rejected = 0
        bad = m1 <= 0.0
        while bad.any():
            rejected += int(bad.sum())
            if rejected > 100 * R:
                raise AssumptionViolationError(
                    f"bootstrap gave {rejected} resamples with nonpositive baseline "
                    f"mean (limit {100 * R}); percent differences are not viable "
                    f"for this data")
            k = int(bad.sum())
            m1[bad] = _resample_means(rng, x1, k)
            m2[bad] = _resample_means(rng, x2, k)
            bad = m1 <= 0.0
        phis = (m2 - m1) / m1
    else:
        phis = m2 - m1
    return float(np.std(phis, ddof=1))


def bootstrap_sdm(sample, cfg: BootstrapConfig) -> np.ndarray:
    """Resampled sampling distribution of the mean (length R).

    Feeds normality diagnostics: if the returned means look normal on a
    Q-Q plot, mean-based inference is on safe ground even when the data
    itself is not normal.
    """
    values = np.asarray(getattr(sample, "observations", sample), dtype=float)
    if values.size < 2:
        raise ValueError(f"at least 2 observations are required, got {values.size}")
    rng = make_generator(cfg.rng_seed)
    return _resample_means(rng, values, cfg.resamples)
