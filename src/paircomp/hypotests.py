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

Every test and the diagnostics take O(N) extra memory: the Wilcoxon
estimate and interval are selected from the N(N+1)/2 Walsh averages
without building them, and the bootstrap of the mean draws its indices a
block of rows at a time.

Every test and the diagnostics compute on the differences divided by a
power of two, and multiply back only the locations they report.
Dividing and multiplying by a power of two is exact while no value
leaves the normal float range, so each number equals the unscaled
computation's to the bit wherever that does not overflow, and equals the
unscaled computation done without overflow where it would.

One rule sets the power (``_scaled``): values of which a computation
sums ``count`` are divided by the least power of two that brings every
|value| below 2**(1024 - b), b the bit length of ``count - 1``, so any
``count`` of them sum to a finite float.

* The t-test, the Q-Q points and the bootstrap of the mean sum N values,
  so k is 0 below about 2**1018 at N = 34.  The t-test divides ``mu0``
  by the same power, which never enters k (a huge ``mu0`` would flush
  the deviations of small differences to 0).  The t-test and the Q-Q
  points take their spread from ``estimators._mean_spread``, which
  squares each deviation divided by the power of two at or below the
  largest, so it neither overflows nor, below about 1e-154, underflows.
* The Wilcoxon and sign tests sum no more than two values: the Walsh
  averages, the median of an even count and each difference from
  ``mu0``.  So they divide the differences and ``mu0`` together, with
  ``count`` 2: by 1 below 2**1023 (about 9e307), else by 2.

Once k > 0, a difference below 2**(k - 1022), some 600 decades under
the largest, loses bits, and one below 2**(k - 1074) counts as 0; in
the rank tests, whose k is at most 1, that is at most the last bit of
a subnormal value.

The reported locations lie within the range of the data, so they stay
finite.  Only the t statistic, (mean - mu0) / se, and the t interval and
bound, mean +- q * se, can truly exceed the float range; the t-test
refuses them with ``DegenerateDataError`` before its p-value.  Where
mean - mu0 alone overflows, the t statistic is taken from their halves.

The sign test takes its Binomial(n, 1/2) tails from the Boost ufuncs
``scipy.special._ufuncs._binom_cdf`` and ``_binom_sf``, which load with
``scipy.special``, so no command imports ``scipy.stats``.  They are what
``scipy.stats.binom._cdf`` and ``_sf`` call, with ``floor(k)``, and
``_binom_half_cdf`` / ``_binom_half_sf`` add ``rv_discrete``'s boundary
rules (the cdf is 1 at k >= n, the sf is 1 at k < 0, both clipped to
[0, 1]), so the p-value and interval equal those from
``binom.cdf(k, n, 1/2)`` and ``binom.sf(k, n, 1/2)`` bit for bit.  No
public ``scipy.special`` function does: over every (k, n) with n <= 3000,
``bdtr`` differs in 3.8M of 4.5M cases, and changing the p-value's last
bits would change the outputs.  The ufuncs are private, so
``test_hypotests::TestSignTest::test_binomial_tail_matches_scipy_stats``
pins both tails against ``scipy.stats.binom``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.special import _ufuncs

from .design import Alternative, TestFamily
from .distributions import t_cdf, t_quantile
from .errors import DegenerateDataError
from .estimators import PairedDifference, _mean_spread, bootstrap_sdm

__all__ = [
    "TestReport", "DiagnosticsBundle", "paired_t_test", "wilcoxon_signed_rank",
    "sign_test", "qq_normal", "build_diagnostics",
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


def _scaled(arr: np.ndarray, count: int) -> tuple[np.ndarray, float]:
    """``arr / 2**k`` and ``2**k``, for the least k >= 0 that brings every
    |value| below 2**(1024 - b), b the bit length of ``count - 1``: any
    ``count`` of the scaled values sum to a finite float."""
    k = max(0, math.frexp(float(np.abs(arr).max()))[1] - 1024 + (count - 1).bit_length())
    scale = math.ldexp(1.0, k)
    return arr / scale, scale


def _nonzero_differences(d: np.ndarray, mu0: float,
                         statistic: str) -> tuple[np.ndarray, list[str]]:
    """The differences ``d`` from ``mu0``, scaled, without exact zeros, and
    a warning if any went."""
    n_zero = int((d == 0.0).sum())
    warnings: list[str] = []
    if n_zero:
        warnings.append(f"dropped {n_zero} difference(s) exactly equal to the "
                        f"null value {mu0:g}")
        d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateDataError(f"all differences equal the null value; the "
                                  f"{statistic} statistic is undefined")
    return d, warnings


def paired_t_test(phis, mu0: float, alpha: float,
                  alternative: Alternative) -> TestReport:
    """t statistic (mean - mu0) / (sd / sqrt(N)) with N-1 degrees of freedom."""
    arr = _as_array(phis, 2, "paired_t_test")
    arr, scale = _scaled(arr, arr.size)
    alternative = Alternative(alternative)
    n = arr.size
    df = n - 1
    mean, sd = _mean_spread(arr)
    if sd == 0.0:
        raise DegenerateDataError("all differences are identical; the t statistic "
                                  "is undefined (zero spread)")
    se = sd / math.sqrt(n)
    # where mean - mu0 overflows, their halves' difference does not
    shift = mean - mu0 / scale
    t0 = shift / se if math.isfinite(shift) else (0.5 * mean - 0.5 * mu0 / scale) / se * 2
    half = t_quantile(1.0 - 0.5 * alpha, df) * se
    ci = ((mean - half) * scale, (mean + half) * scale)
    bound = None
    if alternative is Alternative.ONE_SIDED:
        bound = (mean + t_quantile(1.0 - alpha, df) * se) * scale
    if not all(map(math.isfinite, (t0, *ci, bound or 0.0))):
        raise DegenerateDataError("the t statistic or its interval overflows a "
                                  "float; the t-test is undefined at this scale")
    if alternative is Alternative.TWO_SIDED:
        p = 2.0 * (1.0 - t_cdf(abs(t0), df))
    else:
        p = t_cdf(t0, df)
    return TestReport(test_family=TestFamily.T_TEST, statistic=t0, df=df,
                      p_value=min(1.0, p), estimate=mean * scale, ci=ci, alpha=alpha,
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


def _walsh_stats(arr: np.ndarray, ranks) -> tuple[float, tuple[float, ...]]:
    """Median of the Walsh averages and the averages at 0-based ``ranks``.

    The N(N+1)/2 averages are never built: each order statistic is
    selected from the implicit sorted matrix (see ``_walsh_select``), in
    O(N log^2 N) time and O(N) memory.  Each is the same float the
    averages ``(arr[i] + arr[j]) / 2.0``, i <= j, would hold at that rank,
    and the median is formed as ``np.median`` forms it.  Sums that
    overflow give +-inf averages, without a warning.
    """
    a = np.sort(arr)
    m = a.size * (a.size + 1) // 2
    wanted = [(m - 1) // 2, m // 2, *ranks]
    with np.errstate(over="ignore", invalid="ignore"):
        picked = {k: _walsh_select(a, k) for k in set(wanted)}
        median = (picked[wanted[0]] + picked[wanted[1]]) / 2.0
    return float(median), tuple(float(picked[k]) for k in wanted[2:])


# a selection gathers its candidates once at most this many per value are
# left: the peak stays O(N), and samples up to N = 31 gather at once
_GATHER_PER_VALUE = 16


def _walsh_select(a: np.ndarray, k: int) -> np.float64:
    """The Walsh average of ascending ``a`` at 0-based rank ``k``.

    Row i of the implicit matrix holds ``(a[i] + a[j]) / 2.0`` for
    j >= i, nondecreasing in j because float add and halve are monotone.
    Each row keeps the candidate columns [lo_i, hi_i).  A pivot, the
    weighted median of the row middles, is counted per row; the rank
    then lies below, at or above it, and at least a quarter of the
    candidates go each round.  The last ones are gathered and
    partitioned.  Every value compared or returned is computed with the
    one expression above (Monahan, ACM TOMS Algorithm 616, 1984).
    """
    n = a.size
    rows = np.arange(n)
    lo, hi = rows.copy(), np.full(n, n)
    while True:
        width = hi - lo
        if width.sum() <= _GATHER_PER_VALUE * n:
            break
        live = np.flatnonzero(width)
        middle = (a[live] + a[(lo[live] + hi[live]) // 2]) / 2.0
        order = np.argsort(middle)
        weight = np.cumsum(width[live][order])
        pivot = middle[order[np.searchsorted(2 * weight, weight[-1])]]
        below = _row_bounds(a, pivot, lo, hi, "left")
        if k < (below - rows).sum():
            hi = below
            continue
        upto = _row_bounds(a, pivot, lo, hi, "right")
        if k >= (upto - rows).sum():
            lo = upto
            continue
        return pivot
    width = hi - lo
    starts = np.cumsum(width) - width
    i = np.repeat(rows, width)
    j = np.arange(width.sum()) - np.repeat(starts - lo, width)
    left = int(k - (lo - rows).sum())
    return np.partition((a[i] + a[j]) / 2.0, left)[left]


def _row_bounds(a: np.ndarray, pivot, lo: np.ndarray, hi: np.ndarray,
                side: str) -> np.ndarray:
    """Per row, the first column in [lo_i, hi_i] whose average is >= the
    pivot (``side="left"``) or > it (``"right"``).

    The guess from ``searchsorted`` is checked against the averages
    themselves; a row it misses, by rounding or because ``2 * pivot``
    overflows, is bisected, in at most log2(N) + 1 vectorised steps.
    """
    n = a.size
    before = np.less if side == "left" else np.less_equal
    col = np.clip(np.searchsorted(a, 2.0 * pivot - a, side), lo, hi)
    ok = (col == lo) | before((a + a[np.maximum(col - 1, 0)]) / 2.0, pivot)
    ok &= (col == hi) | ~before((a + a[np.minimum(col, n - 1)]) / 2.0, pivot)
    missed = np.flatnonzero(~ok)
    if missed.size:
        ai, left, right = a[missed], lo[missed], hi[missed]
        while (open_ := left < right).any():
            mid = (left + right) // 2
            go = before((ai + a[np.minimum(mid, n - 1)]) / 2.0, pivot)
            left = np.where(open_ & go, mid + 1, left)
            right = np.where(open_ & ~go, mid, right)
        col[missed] = left
    return col


def wilcoxon_signed_rank(phis, mu0: float, alpha: float,
                         alternative: Alternative) -> TestReport:
    """Signed-rank test with average ranks for ties.

    The statistic is the positive-rank sum.  The p-value is exact (from
    the full null distribution of the rank sum) for samples of at most 25
    without ties or zeros; otherwise a normal approximation with
    continuity and tie corrections is used.  The location estimate is the
    pseudo-median with an order-statistic interval over the Walsh averages.
    """
    arr = _as_array(phis, 2, "wilcoxon_signed_rank")
    alternative = Alternative(alternative)
    # with mu0 last; a sum or difference of two stays finite
    x, scale = _scaled(np.append(arr, mu0), 2)
    d, warnings = _nonzero_differences(x[:-1] - x[-1], mu0, "signed-rank")
    n = d.size
    # average ranks for ties, from the one sort that also counts them
    _, tie_index, tie_counts = np.unique(np.abs(d), return_inverse=True,
                                         return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[tie_index]
    w = float(ranks[d > 0].sum())
    exact = n <= 25 and n == arr.size and bool((tie_counts == 1).all())

    mu_w = n * (n + 1) / 4.0
    cum = None
    if exact:
        # cum[w] = number of sign patterns with rank sum at most w
        cum = np.cumsum(_signrank_counts(n))
        total = 1 << n
        wi = int(round(w))
        lower = int(cum[wi])
        upper = total - (int(cum[wi - 1]) if wi else 0)
        if alternative is Alternative.TWO_SIDED:
            tail = upper if w > mu_w else lower
            p = min(1.0, 2.0 * tail / total)
        else:
            p = lower / total
    else:
        # at least n(n+1)^2/16 > 0, reached when all |d| tie
        var_w = n * (n + 1) * (2 * n + 1) / 24.0 - float((tie_counts ** 3 - tie_counts).sum()) / 48.0
        sd_w = math.sqrt(var_w)
        if alternative is Alternative.TWO_SIDED:
            cc = 0.5 * math.copysign(1.0, w - mu_w) if w != mu_w else 0.0
            z = (w - mu_w - cc) / sd_w
            p = min(1.0, 2.0 * min(float(special.ndtr(z)), 1.0 - float(special.ndtr(z))))
        else:
            z = (w - mu_w + 0.5) / sd_w
            p = float(special.ndtr(z))

    ci_ranks = _walsh_interval_ranks(arr.size, n, alpha, cum)
    estimate, (lo, hi) = _walsh_stats(x[:-1], ci_ranks)
    return TestReport(test_family=TestFamily.WILCOXON, statistic=w, df=None,
                      p_value=p, estimate=estimate * scale,
                      ci=(lo * scale, hi * scale), alpha=alpha,
                      alternative=alternative, n_instances_used=arr.size,
                      warnings=warnings)


def _walsh_interval_ranks(size: int, n: int, alpha: float,
                          cum: np.ndarray | None) -> tuple[int, int]:
    # order-statistic interval over the Walsh averages of ``size`` values,
    # from the null distribution of n nonzero differences (exact when its
    # cumulative counts ``cum`` are given); conservative
    m = size * (size + 1) // 2
    if cum is not None:
        cdf = cum / float(1 << n)
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
    x, scale = _scaled(np.append(arr, mu0), 2)  # as in the signed-rank test
    d, warnings = _nonzero_differences(x[:-1] - x[-1], mu0, "sign")
    n = d.size
    k = int((d > 0.0).sum())
    lower = float(_binom_half_cdf(k, n))
    if alternative is Alternative.TWO_SIDED:
        upper = float(_binom_half_sf(k - 1, n))
        p = min(1.0, 2.0 * min(lower, upper))
    else:
        p = lower

    return TestReport(test_family=TestFamily.SIGN, statistic=float(k), df=None,
                      p_value=p, estimate=float(np.median(x[:-1])) * scale,
                      ci=_sign_interval(arr, alpha), alpha=alpha,
                      alternative=alternative, n_instances_used=arr.size,
                      warnings=warnings)


def _binom_half_cdf(k, n: int):
    """P(X <= k) for X ~ Binomial(n, 1/2), as ``scipy.stats.binom.cdf``."""
    return np.where(k >= n, 1.0, np.clip(_ufuncs._binom_cdf(k, n, 0.5), 0.0, 1.0))


def _binom_half_sf(k: int, n: int):
    """P(X > k) for X ~ Binomial(n, 1/2), as ``scipy.stats.binom.sf``."""
    return 1.0 if k < 0 else np.clip(_ufuncs._binom_sf(k, n, 0.5), 0.0, 1.0)


def _sign_interval(arr: np.ndarray, alpha: float) -> tuple[float, float]:
    srt = np.sort(arr)
    n = srt.size
    # largest l with P(X < l) <= alpha/2 under Binomial(n, 1/2)
    l = int(np.searchsorted(_binom_half_cdf(np.arange(n), n), alpha / 2.0,
                            side="right"))
    if l == 0:
        return float(srt[0]), float(srt[-1])
    return float(srt[l - 1]), float(srt[n - l])


# ---------------------------------------------------------------------------
# normality diagnostics


def qq_normal(sample) -> list[tuple[float, float]]:
    """Normal Q-Q points: (standard-normal quantile, ordered sample value).

    The sample is first centered and scaled by its own mean and spread,
    so deviations from the identity line are directly interpretable.
    """
    arr = _as_array(sample, 3, "qq_normal")
    arr, _ = _scaled(arr, arr.size)
    n = arr.size
    mean, sd = _mean_spread(arr)
    if sd == 0.0:
        raise DegenerateDataError("cannot standardize a zero-spread sample")
    srt = (np.sort(arr) - mean) / sd
    theo = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    return list(zip(theo.tolist(), srt.tolist()))


def build_diagnostics(phis, resamples: int, seed: int) -> DiagnosticsBundle:
    """Q-Q points for the differences plus a bootstrap of their mean."""
    arr = _as_array(phis, 2, "build_diagnostics")
    scaled, scale = _scaled(arr, arr.size)
    boot = bootstrap_sdm(scaled, resamples, seed) * scale
    try:
        qq = qq_normal(arr) if arr.size >= 3 else []
    except DegenerateDataError:
        qq = []
    try:
        boot_qq = qq_normal(boot) if len(boot) >= 3 else []
    except DegenerateDataError:
        boot_qq = []
    return DiagnosticsBundle(qq_points=qq, boot_sdm=[float(v) for v in boot],
                             boot_sdm_qq=boot_qq)
