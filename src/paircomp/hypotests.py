"""Paired hypothesis tests on per-instance difference estimates.

The test sample is the vector of per-instance differences: one value per
instance, never per run, so the degrees of freedom always derive from the
number of instances.  Three families are provided:

* paired t-test (mean), the most powerful choice under normality;
* Wilcoxon signed-rank (pseudo-median), assuming symmetry;
* binomial sign test (median), assuming only independence.

The one-sided alternative tests H1: location < mu0, the natural direction
for smaller-is-better performance indicators; swap the two algorithms (or
negate the differences) for the opposite direction.  One-sided tests still
report the two-sided interval at level 1-alpha, plus the one-sided bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.stats import binom, rankdata

from .design import Alternative, TestFamily
from .distributions import t_cdf, t_quantile
from .errors import DegenerateDataError
from .estimators import BootstrapConfig, PairedDifference, bootstrap_sdm

__all__ = [
    "TestReport", "DiagnosticsBundle", "paired_t_test", "wilcoxon_signed_rank",
    "sign_test", "qq_normal", "build_diagnostics", "hodges_lehmann",
]


@dataclass
class TestReport:
    """Outcome of the final inference step of an experiment."""
    test_family: TestFamily
    statistic: float
    df: int | None
    p_value: float
    estimate: float
    ci: tuple[float, float]
    alpha: float
    alternative: Alternative
    n_instances_used: int
    one_sided_bound: float | None = None
    per_instance: list[PairedDifference] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass
class DiagnosticsBundle:
    """Normality diagnostics for the per-instance differences.

    ``qq_points`` compares the differences against normal quantiles;
    ``boot_sdm`` is the resampled sampling distribution of their mean and
    ``boot_sdm_qq`` its own normal Q-Q points.  Inspection is the
    analyst's job: nothing here switches the test family automatically.
    """
    qq_points: list[tuple[float, float]]
    boot_sdm: list[float]
    boot_sdm_qq: list[tuple[float, float]]


def _as_array(phis, min_len: int, who: str) -> np.ndarray:
    arr = np.asarray(list(phis), dtype=float)
    if arr.ndim != 1 or arr.size < min_len:
        raise ValueError(f"{who} needs a flat sample of at least {min_len} values")
    if not np.isfinite(arr).all():
        raise ValueError(f"{who} requires finite values")
    return arr


def paired_t_test(phis, mu0: float, alpha: float,
                  alternative: Alternative) -> TestReport:
    """t statistic (mean - mu0) / (sd / sqrt(N)) with N-1 degrees of freedom."""
    arr = _as_array(phis, 2, "paired_t_test")
    alternative = Alternative(alternative)
    n = arr.size
    df = n - 1
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        raise DegenerateDataError("all differences are identical; the t statistic "
                                  "is undefined (zero spread)")
    se = sd / math.sqrt(n)
    t0 = (mean - mu0) / se
    if alternative is Alternative.TWO_SIDED:
        p = 2.0 * (1.0 - t_cdf(abs(t0), df))
    else:
        p = t_cdf(t0, df)
    half = t_quantile(1.0 - 0.5 * alpha, df) * se
    ci = (mean - half, mean + half)
    bound = None
    if alternative is Alternative.ONE_SIDED:
        bound = mean + t_quantile(1.0 - alpha, df) * se
    return TestReport(test_family=TestFamily.T_TEST, statistic=t0, df=df,
                      p_value=min(1.0, p), estimate=mean, ci=ci, alpha=alpha,
                      alternative=alternative, n_instances_used=n,
                      one_sided_bound=bound)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def _signrank_counts(n: int) -> np.ndarray:
    """counts[w] = number of subsets of {1..n} with rank sum w (2^n total)."""
    m = n * (n + 1) // 2
    counts = np.zeros(m + 1, dtype=np.int64)
    counts[0] = 1
    for r in range(1, n + 1):
        nxt = counts.copy()
        nxt[r:] += counts[:-r]
        counts = nxt
    return counts


def hodges_lehmann(values) -> float:
    """Pseudo-median: median of all pairwise Walsh averages (i <= j)."""
    arr = _as_array(values, 1, "hodges_lehmann")
    return _walsh_stats(arr, ())[0]


def _walsh_stats(arr: np.ndarray, ranks) -> tuple[float, tuple[float, ...]]:
    """Median of the Walsh averages and the averages at 0-based ``ranks``.

    The averages are built once and one partition serves every order
    statistic; the median is formed as ``np.median`` forms it.
    """
    i, j = np.triu_indices(arr.size)
    walsh = (arr[i] + arr[j]) / 2.0
    m = walsh.size
    wanted = [(m - 1) // 2, m // 2, *ranks]
    picked = np.partition(walsh, sorted(set(wanted)))[wanted]
    return float((picked[0] + picked[1]) / 2.0), tuple(float(v) for v in picked[2:])


def wilcoxon_signed_rank(phis, mu0: float, alpha: float,
                         alternative: Alternative,
                         exact: bool | None = None) -> TestReport:
    """Signed-rank test with average ranks for ties.

    The statistic is the positive-rank sum.  The p-value is exact (from
    the full null distribution of the rank sum) for samples of at most 25
    without ties or zeros; otherwise a normal approximation with
    continuity and tie corrections is used.  ``exact`` forces one path.
    The location estimate is the pseudo-median with an order-statistic
    interval over the Walsh averages.
    """
    arr = _as_array(phis, 2, "wilcoxon_signed_rank")
    alternative = Alternative(alternative)
    warnings: list[str] = []
    d = arr - mu0
    n_zero = int((d == 0.0).sum())
    if n_zero:
        warnings.append(f"dropped {n_zero} difference(s) exactly equal to the "
                        f"null value {mu0:g}")
        d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateDataError("all differences equal the null value; the "
                                  "signed-rank statistic is undefined")
    n = d.size
    ranks = rankdata(np.abs(d))
    w = float(ranks[d > 0].sum())
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    has_ties = bool((tie_counts > 1).any())
    if exact is None:
        exact = n <= 25 and not has_ties and n_zero == 0
    if exact and has_ties:
        raise ValueError("an exact signed-rank p-value is not available with "
                         "tied absolute differences")
    if exact and n > 62:
        raise ValueError("exact signed-rank counts overflow 64-bit integers "
                         "beyond 62 values; use the normal approximation")

    mu_w = n * (n + 1) / 4.0
    if exact:
        counts = _signrank_counts(n)
        total = 1 << n
        wi = int(round(w))
        lower = int(counts[:wi + 1].sum())
        upper = int(counts[wi:].sum())
        if alternative is Alternative.TWO_SIDED:
            tail = upper if w > mu_w else lower
            p = min(1.0, 2.0 * tail / total)
        else:
            p = lower / total
    else:
        var_w = n * (n + 1) * (2 * n + 1) / 24.0 - float((tie_counts ** 3 - tie_counts).sum()) / 48.0
        if var_w <= 0.0:
            raise DegenerateDataError("signed-rank variance collapsed to zero")
        sd_w = math.sqrt(var_w)
        if alternative is Alternative.TWO_SIDED:
            cc = 0.5 * math.copysign(1.0, w - mu_w) if w != mu_w else 0.0
            z = (w - mu_w - cc) / sd_w
            p = min(1.0, 2.0 * min(float(special.ndtr(z)), 1.0 - float(special.ndtr(z))))
        else:
            z = (w - mu_w + 0.5) / sd_w
            p = float(special.ndtr(z))

    ci_ranks = _walsh_interval_ranks(arr.size, n, alpha, exact)
    estimate, ci = _walsh_stats(arr, ci_ranks)
    return TestReport(test_family=TestFamily.WILCOXON, statistic=w, df=None,
                      p_value=p, estimate=estimate, ci=ci, alpha=alpha,
                      alternative=alternative, n_instances_used=arr.size,
                      warnings=warnings)


def _walsh_interval_ranks(size: int, n: int, alpha: float,
                          exact: bool) -> tuple[int, int]:
    # order-statistic interval over the Walsh averages of ``size`` values,
    # from the null distribution of n nonzero differences; conservative
    m = size * (size + 1) // 2
    if exact:
        counts = _signrank_counts(n)
        cdf = np.cumsum(counts) / float(1 << n)
        # largest statistic value c with P(W+ <= c) <= alpha/2, or -1
        c = int(np.searchsorted(cdf, alpha / 2.0, side="right") - 1)
    else:
        mu_w = n * (n + 1) / 4.0
        sd_w = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
        z = float(-special.ndtri(alpha / 2.0))
        c = int(math.floor(mu_w - z * sd_w))
    c = max(-1, min(c, (m - 1) // 2))
    return max(0, c), min(m - 1, m - 1 - c)


# ---------------------------------------------------------------------------
# binomial sign test


def sign_test(phis, mu0: float, alpha: float,
              alternative: Alternative) -> TestReport:
    """Binomial test on the count of differences above the null value.

    Values exactly equal to mu0 are dropped (and reported); the p-value is
    the Binomial(n, 1/2) tail (doubled and capped for the two-sided case),
    taken in floating point so any n works.  The estimate is the sample
    median with a conservative order-statistic interval.
    """
    arr = _as_array(phis, 1, "sign_test")
    alternative = Alternative(alternative)
    warnings: list[str] = []
    d = arr - mu0
    n_zero = int((d == 0.0).sum())
    if n_zero:
        warnings.append(f"dropped {n_zero} difference(s) exactly equal to the "
                        f"null value {mu0:g}")
        d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateDataError("all differences equal the null value; the "
                                  "sign statistic is undefined")
    n = d.size
    k = int((d > 0.0).sum())
    lower = float(binom.cdf(k, n, 0.5))
    if alternative is Alternative.TWO_SIDED:
        upper = float(binom.sf(k - 1, n, 0.5))
        p = min(1.0, 2.0 * min(lower, upper))
    else:
        p = lower

    estimate = float(np.median(arr))
    ci = _sign_interval(arr, alpha)
    return TestReport(test_family=TestFamily.SIGN, statistic=float(k), df=None,
                      p_value=p, estimate=estimate, ci=ci, alpha=alpha,
                      alternative=alternative, n_instances_used=arr.size,
                      warnings=warnings)


def _sign_interval(arr: np.ndarray, alpha: float) -> tuple[float, float]:
    srt = np.sort(arr)
    n = srt.size
    # largest l with P(X < l) <= alpha/2 under Binomial(n, 1/2)
    l = int(np.searchsorted(binom.cdf(np.arange(n), n, 0.5), alpha / 2.0,
                            side="right"))
    if l == 0:
        return float(srt[0]), float(srt[-1])
    return float(srt[l - 1]), float(srt[n - l])


# ---------------------------------------------------------------------------
# normality diagnostics


def qq_normal(sample, standardize: bool = True) -> list[tuple[float, float]]:
    """Normal Q-Q points: (standard-normal quantile, ordered sample value).

    With ``standardize`` the sample is centered and scaled by its own mean
    and spread so deviations from the identity line are directly
    interpretable; pass ``standardize=False`` to plot raw values.
    """
    arr = _as_array(sample, 3, "qq_normal")
    n = arr.size
    srt = np.sort(arr)
    if standardize:
        sd = float(arr.std(ddof=1))
        if sd == 0.0:
            raise DegenerateDataError("cannot standardize a zero-spread sample")
        srt = (srt - float(arr.mean())) / sd
    theo = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    return list(zip(theo.tolist(), srt.tolist()))


def build_diagnostics(phis, resamples: int, seed: int) -> DiagnosticsBundle:
    """Q-Q points for the differences plus a bootstrap of their mean."""
    arr = _as_array(phis, 2, "build_diagnostics")
    boot = bootstrap_sdm(arr, BootstrapConfig(resamples=resamples, rng_seed=seed))
    try:
        qq = qq_normal(arr)
    except DegenerateDataError:
        qq = []
    try:
        boot_qq = qq_normal(boot) if len(boot) >= 3 else []
    except DegenerateDataError:
        boot_qq = []
    return DiagnosticsBundle(qq_points=qq, boot_sdm=[float(v) for v in boot],
                             boot_sdm_qq=boot_qq)
