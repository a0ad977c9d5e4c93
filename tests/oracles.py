"""Independent oracle routines used by the test suite.

Each oracle computes an expected value by a route different from the
implementation it checks: quadrature instead of closed forms, exhaustive
enumeration instead of recursions, grid search instead of analytic
optima.  The last section holds quantities that only tests need (the
noncentral-t quantile, the Hodges-Lehmann estimate, the Walsh-average
order statistics by partition and in exact arithmetic, the effect-size
decomposition and the percent-SE coefficients), plus a sample builder and
a single run.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from paircomp.distributions import t_quantile
from paircomp.errors import AssumptionViolationError
from paircomp.estimators import InstanceSample
from paircomp.runners import bind


def t_density(x: float, df: float) -> float:
    """Student-t density written out directly from its normalization."""
    lognorm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))
    return math.exp(lognorm - ((df + 1.0) / 2.0) * math.log1p(x * x / df))


def t_cdf_quadrature(x: float, df: float) -> float:
    """Adaptive quadrature of the t density, anchored at the median."""
    if x == 0.0:
        return 0.5
    lo, hi = (0.0, x) if x > 0 else (x, 0.0)
    val, _ = integrate.quad(t_density, lo, hi, args=(df,),
                            epsabs=1e-12, epsrel=1e-10, limit=200)
    return 0.5 + val if x > 0 else 0.5 - val


def normal_cdf_erf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def nct_cdf_monte_carlo(x: float, df: float, ncp: float, draws: int,
                        seed: int) -> tuple[float, float]:
    """Empirical P((Z + ncp)/sqrt(V/df) <= x) and its standard error."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(draws)
    v = rng.chisquare(df, draws)
    t = (z + ncp) / np.sqrt(v / df)
    p = float((t <= x).mean())
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
    return p, se


def wilcoxon_enumeration(values, mu0: float, alternative: str) -> tuple[float, float]:
    """(W, p) from all 2^n sign assignments of the absolute differences.

    Under the null every assignment of signs to |d_i| is equally likely;
    the tails of the rank-sum statistic are counted exhaustively and the
    two-sided p doubles the smaller tail (capped at 1).
    """
    d = [v - mu0 for v in values if v != mu0]
    n = len(d)
    absd = sorted(abs(v) for v in d)
    assert len(set(absd)) == n, "enumeration oracle requires tie-free data"
    ranks = {a: i + 1 for i, a in enumerate(absd)}
    w_obs = sum(ranks[abs(v)] for v in d if v > 0)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(ranks[absd[i]] for i in range(n) if signs[i])
        le += w <= w_obs
        ge += w >= w_obs
    total = 2 ** n
    mean_w = n * (n + 1) / 4.0
    if alternative == "two_sided":
        tail = ge if w_obs > mean_w else le
        p = min(1.0, 2.0 * tail / total)
    else:  # "less"
        p = le / total
    return float(w_obs), p


def binomial_tail_sums(n: int, k: int) -> tuple[int, int, int]:
    """(#outcomes <= k, #outcomes >= k, 2^n) by Pascal's triangle addition."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[: k + 1]), sum(row[k:]), 2 ** n


def sign_test_enumeration(k: int, n: int, alternative: str) -> float:
    """Sign-test p from the exact tail counts, rounded to float once.

    The ratio stays a Fraction of big integers until the end, so any n
    works, also beyond 1023 where 2^n no longer fits a float.
    """
    lower, upper, total = binomial_tail_sums(n, k)
    if alternative == "two_sided":
        return float(min(Fraction(1), Fraction(2 * min(lower, upper), total)))
    return float(Fraction(lower, total))


def sign_interval_rank(n: int, alpha: float) -> int:
    """Largest l with P(X < l) <= alpha/2 for X ~ Binomial(n, 1/2), exactly."""
    bound = Fraction(alpha) / 2 * 2 ** n
    acc = l = 0
    for i in range(n):
        acc += math.comb(n, i)
        if acc > bound:
            break
        l = i + 1
    return l


def se_percent_with_covariance(x1, x2) -> float:
    """Reference percent-difference SE keeping the covariance term.

    Only defined for balanced samples: the covariance pairs the i-th
    observations of the two algorithms elementwise, which presumes a
    pairing that independent sampling does not provide.  Used to validate
    the no-covariance form the sampler uses.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("the covariance form requires balanced 1-D samples")
    n = x1.size
    if n < 2:
        raise ValueError("at least 2 observations per sample are required")
    m1 = float(x1.mean())
    if m1 <= 0.0:
        raise AssumptionViolationError("baseline mean must be strictly positive")
    gap = float(x2.mean()) - m1
    if gap == 0.0:
        raise ValueError("undefined for a zero mean gap")
    v1 = float(x1.var(ddof=1))
    v2 = float(x2.var(ddof=1))
    cov = float(np.cov(x1, x2 - x1, ddof=1)[0, 1])
    phi = gap / m1
    inner = (v1 / n) / m1 ** 2 + (v1 / n + v2 / n) / gap ** 2 + (2.0 / n) * cov / (gap * m1)
    return abs(phi) * math.sqrt(max(inner, 0.0))


def grid_min_total_runs(a: float, bcoef: float, se_max: float,
                        n_lo: int = 2, n_hi: int = 400) -> tuple[int, int, int]:
    """Exhaustive minimizer of n1+n2 subject to sqrt(a/n1 + b/n2) <= se*.

    Covers both difference kinds: the simple SE squared is s1^2/n1 +
    s2^2/n2 and the percent SE squared is (phi^2 c1)/n1 + (phi^2 c2)/n2.
    Returns (n1, n2, n1+n2); raises if nothing in the grid is feasible.
    """
    n1 = np.arange(n_lo, n_hi + 1, dtype=float)
    n2 = np.arange(n_lo, n_hi + 1, dtype=float)
    se2 = a / n1[:, None] + bcoef / n2[None, :]
    feasible = se2 <= se_max * se_max
    if not feasible.any():
        raise AssertionError("grid too small for this configuration")
    total = n1[:, None] + n2[None, :]
    total = np.where(feasible, total, np.inf)
    flat = int(np.argmin(total))
    i, j = divmod(flat, n2.size)
    return int(n1[i]), int(n2[j]), int(n1[i] + n2[j])


def seed_sequence_seed(root: int, *path: int) -> int:
    """The seed ``derive_seed`` must give: numpy's SeedSequence, built whole."""
    ss = np.random.SeedSequence(entropy=root, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


def reference_generator(seed: int) -> np.random.Generator:
    """The generator a run with this seed must draw from: numpy's own
    constructor, with no key derived or re-keyed by paircomp."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def reference_key(seed: int) -> list[int]:
    """The Philox key numpy's constructor derives from ``seed``."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()


def resample_means(rng, x: np.ndarray, count: int) -> np.ndarray:
    """Means of ``count`` resamples of ``x``, every index drawn in one call."""
    return x[rng.integers(0, x.size, size=(count, x.size))].mean(axis=1)


def bootstrap_se_unmemoised(s1, s2, diff_kind: str, resamples: int, rng_seed: int) -> float:
    """The bootstrap SE as drawn without a memo: both sides from a fresh stream."""
    x1 = np.asarray(s1.observations, dtype=float)
    x2 = np.asarray(s2.observations, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(rng_seed))))
    R = resamples
    m1 = resample_means(rng, x1, R)
    m2 = resample_means(rng, x2, R)
    if diff_kind == "percent":
        rejected = 0
        bad = m1 <= 0.0
        while bad.any():
            rejected += int(bad.sum())
            if rejected > 100 * R:
                raise AssumptionViolationError("bootstrap baseline rejections over the limit")
            k = int(bad.sum())
            m1[bad] = resample_means(rng, x1, k)
            m2[bad] = resample_means(rng, x2, k)
            bad = m1 <= 0.0
        phis = (m2 - m1) / m1
    else:
        phis = m2 - m1
    return float(np.std(phis, ddof=1))


def report_json_text(report) -> str:
    """``report.json``'s text, written whole by the indenting pure-Python
    encoder from a deep copy of the report."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# quantities only the tests use


def instance_sample(values) -> InstanceSample:
    """An InstanceSample holding ``values``, added one at a time."""
    sample = InstanceSample()
    for v in values:
        sample.add(v)
    return sample


def run_once(spec, instance, seed: int) -> float:
    """One run of ``spec`` on ``instance``: the bound run, called with the
    seed and its generator key."""
    return bind(spec, instance)(seed, reference_key(seed))


def fieller_coefficients(s1, s2) -> tuple[float, float]:
    """(c1, c2) of the no-covariance percent SE |phi| sqrt(c1/n1 + c2/n2).

    c1 = s1^2 (gap^-2 + mean1^-2) and c2 = s2^2 gap^-2, gap = mean2 -
    mean1; the optimal allocation ratio is sqrt(c1/c2).
    """
    gap = s2.mean - s1.mean
    return s1.variance * (gap ** -2 + s1.mean ** -2), s2.variance * gap ** -2


def noncentral_t_quantile(p, df, ncp):
    """Inverse of ``noncentral_t_cdf`` in x: scipy's ``nctdtrit``.

    At ncp = 0 it is ``t_quantile`` exactly.  Broadcasts over arrays and
    returns a float for scalar input.
    """
    p, df, ncp = np.float64(p), np.float64(df), np.float64(ncp)
    ok = (p > 0.0) & (p < 1.0) & (df > 0.0) & (df < math.inf) & np.isfinite(ncp)
    if not ok.all():
        raise ValueError(f"need 0 < p < 1, a positive finite df and a finite "
                         f"ncp, got p={p!r}, df={df!r}, ncp={ncp!r}")
    q = np.where(ncp == 0.0, t_quantile(p, df), special.nctdtrit(df, ncp, p))
    return float(q) if q.ndim == 0 else q


def hodges_lehmann(values) -> float:
    """Pseudo-median by brute force: the median of all Walsh averages (i <= j)."""
    x = [float(v) for v in values]
    walsh = [(x[i] + x[j]) / 2.0 for i in range(len(x)) for j in range(i, len(x))]
    return float(np.median(walsh))


def walsh_stats_partition(arr: np.ndarray, ranks) -> tuple[float, tuple[float, ...]]:
    """Median of the Walsh averages and the averages at 0-based ``ranks``,
    from all N(N+1)/2 averages built at once and one partition.

    O(N^2) memory: 256 MB at N = 4000.  The median is formed as
    ``np.median`` forms it; sums that overflow give +-inf averages.
    """
    i, j = np.triu_indices(arr.size)
    with np.errstate(over="ignore", invalid="ignore"):
        walsh = (arr[i] + arr[j]) / 2.0
        m = walsh.size
        wanted = [(m - 1) // 2, m // 2, *ranks]
        picked = np.partition(walsh, sorted(set(wanted)))[wanted]
        median = (picked[0] + picked[1]) / 2.0
    return float(median), tuple(float(v) for v in picked[2:])


def exact_average(a: float, b: float) -> float:
    """(a + b) / 2 in exact rational arithmetic, rounded once to a float:
    what ``(a + b) / 2.0`` gives wherever the sum is a normal float."""
    return float((Fraction(a) + Fraction(b)) / 2)


def walsh_stats_exact(values, ranks) -> tuple[float, tuple[float, ...]]:
    """Median of the Walsh averages and the averages at 0-based ``ranks``,
    each average ``exact_average`` and the median that of the two middle
    ones, so no sum can overflow.  O(N^2) time and memory."""
    x = [float(v) for v in values]
    walsh = sorted(exact_average(x[i], x[j])
                   for i in range(len(x)) for j in range(i, len(x)))
    m = len(walsh)
    return (exact_average(walsh[(m - 1) // 2], walsh[m // 2]),
            tuple(walsh[r] for r in ranks))


def median_exact(values) -> float:
    """The sample median as ``np.median`` forms it, by ``exact_average``."""
    x = sorted(float(v) for v in values)
    return exact_average(x[(len(x) - 1) // 2], x[len(x) // 2])


@dataclass(frozen=True)
class EffectSizeDecomposition:
    """Split of the total variance into across- and within-instance parts.

    sigma_total^2 = sigma_phi^2 (spread of the true per-instance
    differences) + sigma_eps^2 (estimation noise of each difference).
    """

    delta: float
    sigma_phi: float
    sigma_eps: float

    def __post_init__(self):
        if self.sigma_phi < 0.0 or self.sigma_eps < 0.0:
            raise ValueError("standard deviations must be nonnegative")

    @property
    def sigma_total(self) -> float:
        return math.hypot(self.sigma_phi, self.sigma_eps)


def standardized_effect(decomp: EffectSizeDecomposition) -> float:
    """Signed standardized effect delta / sigma_total."""
    if decomp.sigma_total == 0.0:
        raise ValueError("sigma_total must be positive to standardize an effect")
    return decomp.delta / decomp.sigma_total
